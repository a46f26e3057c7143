"""Command-line front end.

Subcommands: seq, term, verify, period, search, balancer.  Reports are JSON
(JSON Lines for searches) with every big integer rendered as a decimal
string; reruns with the same configuration produce byte-identical results
arrays.  Exit codes: 0 success / all checks pass, 1 property failure or
claims mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale on first use; importing it here keeps that
# cost in the CLI's import instead of inside main()
import locale  # noqa: F401
import sys
import time

from . import __version__
from .bigmath import is_prime
from .diophantine import (
    COPRIME_ZERO_EXEMPT_NOTE,
    Parity,
    SearchConfig,
    search_cube_sum,
    search_product_form,
    search_special_form,
    search_square_diff,
    search_sum_power,
)
from .modular import period
from .sequences import SequenceKind, balancer, term, values_up_to
from .verify import SUITE_NAMES, run_suite

SCHEMA_VERSION = 1

_KINDS = {k.value: k for k in SequenceKind}
_SEARCH_EQUATIONS = ("sum-power", "square-diff", "cube-sum-plus", "cube-sum-minus",
                     "special-form", "product-form")
# is_prime trial-divides up to sqrt(--prime): about 23k steps at this ceiling,
# 7.6*10**8 at 2**61 - 1
MAX_PRIME = (1 << 31) - 1
# verify --max-n ceilings.  identities and gcd (and so all) are quadratic in
# --max-n with big-integer work per case: all takes about 9.5 s at 1000 on a
# 2-core VM.  modular is linear: about 1 s at 10**6.
MAX_VERIFY_N = 1000
MAX_VERIFY_N_MODULAR = 10 ** 6


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report(command: str, config: dict, results: list, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "runtime_ms": int((time.perf_counter() - started) * 1000),
    }


def _add_seq(sub) -> None:
    p = sub.add_parser("seq", help="dump a sequence range")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_term(sub) -> None:
    p = sub.add_parser("term", help="single term at an index")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--index", type=int, required=True)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--max-n", type=int, required=True)


def _add_period(sub) -> None:
    p = sub.add_parser("period", help="period of the balancing sequence mod mu")
    p.add_argument("--mod", type=int, required=True)


def _add_search(sub) -> None:
    p = sub.add_parser("search", help="bounded exhaustive equation search")
    p.add_argument("equation", choices=_SEARCH_EQUATIONS)
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--min-exp", type=int, default=None)
    p.add_argument("--parity", choices=("same", "opposite", "any"), default=None)
    p.add_argument("--coprime", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--coprime-zero-exempt", action=argparse.BooleanOptionalAction,
                   default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect (searches run serially)")
    p.add_argument("--kind", choices=("balancing", "lucas-balancing"), default=None,
                   help="sequence for special-form")
    p.add_argument("--prime", type=int, default=None, help="prime for special-form")


def _add_balancer(sub) -> None:
    p = sub.add_parser("balancer", help="the R paired with a balancing number")
    p.add_argument("--value", type=int, required=True)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ballab parser; when command names a subcommand, only that one is registered.

    The metavar keeps the usage line naming every subcommand.  It is set only
    on the one-command parser: on Python 3.11 it would also rename the
    argument in the full parser's "required" and "invalid choice" errors.
    """
    parser = argparse.ArgumentParser(
        prog="ballab",
        description="balancing-number sequences, identity suites, and bounded power searches",
    )
    if command in _COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        _COMMANDS[command][0](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add, _ in _COMMANDS.values():
            add(sub)
    return parser


def _cmd_seq(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.lo < 0 or args.lo > args.hi:
        parser.error(f"invalid range [{args.lo}, {args.hi}]")
    if args.mod is not None and args.mod < 1:
        parser.error("--mod must be >= 1")
    values = values_up_to(_KINDS[args.kind], args.hi)[args.lo:]
    results = [{"kind": args.kind, "index": i, "value": str(v % args.mod if args.mod else v)}
               for i, v in enumerate(values, args.lo)]
    if args.format == "csv":
        print("kind,index,value")
        for r in results:
            print(f"{r['kind']},{r['index']},{r['value']}")
        return 0
    config = {"kind": args.kind, "from": args.lo, "to": args.hi, "mod": args.mod}
    print(canonical_json(_report("seq", config, results, started)))
    return 0


def _cmd_term(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.index < 0:
        parser.error("--index must be >= 0")
    value = term(_KINDS[args.kind], args.index)
    results = [{"kind": args.kind, "index": args.index, "value": str(value)}]
    print(canonical_json(_report("term", {"kind": args.kind, "index": args.index},
                                 results, started)))
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    ceiling = MAX_VERIFY_N_MODULAR if args.suite == "modular" else MAX_VERIFY_N
    if args.max_n > ceiling:
        parser.error(f"--max-n must be <= {ceiling} for --suite {args.suite}, got {args.max_n}")
    checks = run_suite(args.suite, args.max_n)
    results = [c.to_dict() for c in checks]
    config = {"suite": args.suite, "max_n": args.max_n}
    print(canonical_json(_report("verify", config, results, started)))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_period(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.mod < 2:
        parser.error("--mod must be >= 2")
    r = period(args.mod)
    results = [{"modulus": r.modulus, "period": r.period,
                "prefix_checked": r.prefix_checked}]
    print(canonical_json(_report("period", {"modulus": args.mod}, results, started)))
    return 0


def _cmd_balancer(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.value < 1:
        parser.error("--value must be >= 1")
    r = balancer(args.value)
    results = [{"value": str(args.value), "is_balancing": r is not None,
                "balancer": None if r is None else str(r)}]
    print(canonical_json(_report("balancer", {"value": str(args.value)}, results, started)))
    return 0


# ---------------------------------------------------------------------------
# search command


def _claims_block(equation: str, cfg: SearchConfig, records: list) -> dict | None:
    """Expected-vs-found comparison for the equations with published answers.

    Only attached when the configuration covers the published tuples (index
    bound dominates them, hypotheses match); anything else is exploratory.
    """
    if equation == "sum-power":
        if (cfg.parity_filter is not Parity.SAME or cfg.min_exponent != 2
                or cfg.coprimality_required or cfg.max_index < 3):
            return None
        expected = [{"n": 3, "m": 1, "x": "6", "q": 2}]
    elif equation == "square-diff":
        if (cfg.parity_filter is not Parity.ANY or not cfg.coprimality_required
                or not cfg.coprime_zero_exempt or cfg.min_exponent != 2
                or cfg.max_index < 2):
            return None
        expected = [{"n": 1, "m": 0, "x": "1", "q_family_min": 2},
                    {"n": 2, "m": 0, "x": "6", "q": 2}]
    elif equation in ("cube-sum-plus", "cube-sum-minus"):
        if (cfg.parity_filter is not Parity.ANY or not cfg.coprimality_required
                or cfg.coprime_zero_exempt or cfg.min_exponent != 3
                or cfg.max_index < 1):
            return None
        expected = [{"n": 1, "m": 0, "x": "1", "q_family_min": 3}]
    elif equation == "product-form":
        if cfg.min_exponent != 2 or cfg.max_index < 2:
            return None
        expected = [{"n": 2, "m": 1, "two_exponent": 1, "x": "3", "q": 2}]
    else:
        return None
    # the summary's config already carries the equation and the bounds
    found = [r.to_dict() for r in records]
    for view in found:
        view.pop("equation", None)
        view.pop("bounds", None)
    return {
        "expected": expected,
        "found": found,
        "verdict": "MATCH" if found == expected else "MISMATCH",
        "bound": f"verified exhaustively for indices <= {cfg.max_index}; "
                 "the full statements cover all indices",
    }


def _cmd_search(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    eq = args.equation
    is_cube = eq in ("cube-sum-plus", "cube-sum-minus")
    needs_coprime = is_cube or eq == "square-diff"

    if args.max_index < 1:
        parser.error("--max-index must be >= 1")
    min_exp = args.min_exp if args.min_exp is not None else (3 if is_cube else 2)
    if min_exp < 2:
        parser.error("--min-exp must be >= 2")
    if is_cube and min_exp < 3:
        parser.error(f"{eq} requires --min-exp >= 3")
    is_pair_equation = is_cube or eq in ("sum-power", "square-diff")
    if not is_pair_equation:
        for flag, value in (("--parity", args.parity), ("--coprime", args.coprime),
                            ("--coprime-zero-exempt", args.coprime_zero_exempt)):
            if value is not None:
                parser.error(f"{flag} does not apply to {eq}")
    if needs_coprime and args.coprime is False:
        parser.error(f"{eq} carries the coprimality hypothesis; --no-coprime is inconsistent")
    coprime = args.coprime if args.coprime is not None else needs_coprime
    if args.coprime_zero_exempt is not None:
        zero_exempt = args.coprime_zero_exempt
    else:
        # cube equations use the literal gcd test; the exemption exists for
        # the square-difference solution list (see COPRIME_ZERO_EXEMPT_NOTE)
        zero_exempt = not is_cube
    if eq == "special-form":
        if args.kind is None:
            parser.error("special-form requires --kind")
        prime = args.prime if args.prime is not None else 2
        if prime > MAX_PRIME:
            parser.error(f"--prime must be <= {MAX_PRIME} (2^31 - 1), got {prime}")
        if not is_prime(prime):
            parser.error(f"--prime must be prime, got {prime}")
    else:
        if args.kind is not None or args.prime is not None:
            parser.error("--kind/--prime only apply to special-form")
        prime = None

    cfg = SearchConfig(
        max_index=args.max_index,
        min_exponent=min_exp,
        parity_filter=Parity(args.parity or "any"),
        coprimality_required=coprime,
        coprime_zero_exempt=zero_exempt,
    )

    if eq == "sum-power":
        records = search_sum_power(cfg)
    elif eq == "square-diff":
        records = search_square_diff(cfg)
    elif is_cube:
        records = search_cube_sum(cfg, "+" if eq == "cube-sum-plus" else "-")
    elif eq == "product-form":
        records = search_product_form(cfg)
    else:
        records = search_special_form(_KINDS[args.kind], prime, cfg)

    for rec in records:
        print(canonical_json(rec.to_dict()))

    claims = _claims_block(eq, cfg, records)
    config = cfg.to_dict()
    config["equation"] = eq
    if eq == "special-form":
        config["kind"] = args.kind
        config["prime"] = prime
    summary = _report("search", config, [], started)
    del summary["results"]
    summary["result_count"] = len(records)
    summary["claims"] = claims
    summary["exploratory"] = claims is None
    if coprime and zero_exempt:
        summary["note"] = COPRIME_ZERO_EXEMPT_NOTE
    print(canonical_json(summary))

    if claims is not None and claims["verdict"] != "MATCH":
        return 1
    return 0


# Each subcommand's parser builder and handler, in the order the full parser
# lists them.
_COMMANDS = {
    "seq": (_add_seq, _cmd_seq),
    "term": (_add_term, _cmd_term),
    "verify": (_add_verify, _cmd_verify),
    "period": (_add_period, _cmd_period),
    "search": (_add_search, _cmd_search),
    "balancer": (_add_balancer, _cmd_balancer),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    return _COMMANDS[args.command][1](parser, args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
