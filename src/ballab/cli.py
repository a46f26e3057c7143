"""Command-line front end.

Subcommands: seq, term, verify, period, search, balancer.  Reports are JSON
(JSON Lines for searches) with every big integer rendered as a decimal
string; reruns with the same configuration produce byte-identical results
arrays.  Exit codes: 0 success / all checks pass, 1 property failure or
claims mismatch, 2 usage error.

Reports go through canonical_json, except seq's rows: seq formats each row
itself and splices the rows into its report, since its output grows with
its bound.  The bytes are the same, as a row's keys are written in sorted
order and a value's decimal digits need no JSON escape.

Each subcommand's options are declared once, in _COMMANDS.  A well-formed
command line is parsed straight from that table; argparse is imported and
built from it only for help, abbreviated or --opt=value forms and usage
errors, so its text is the one users see.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from types import SimpleNamespace

# Every command's modules are imported here, not inside its handler, so that
# their import counts as start-up: perfbench times main as a job's run time,
# and a module imported inside main would be compiled there whenever no
# bytecode cache exists (about 8 ms for diophantine, several times a typical
# search).  perfbench/tracer.py wraps run_suite, search_product_form and
# search_special_form under these names, but not search_pair: its SEARCHES
# names the three it replaced (ROADMAP, "Work coupled to `perfbench/`").
from . import __version__
from .bigmath import is_prime
from .diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    search_pair,
    search_product_form,
    search_special_form,
)
from .modular import period, residue_range
from .sequences import SequenceKind, balancer, term, values_up_to
from .verify import SUITE_NAMES, run_suite

# typing.TYPE_CHECKING without importing typing: type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable

# Freeze the imports' objects, so a call's collections do not depend on them.
gc.freeze()

SCHEMA_VERSION = 1

_KINDS = {k.value: k for k in SequenceKind}
_SEARCH_EQUATIONS = (*(tag.value for tag in EquationTag), "special-form", "product-form")
# is_prime trial-divides up to sqrt(--prime): about 23k steps at this ceiling,
# 7.6*10**8 at 2**61 - 1
MAX_PRIME = (1 << 31) - 1
# verify --max-n ceilings.  On sound sequences every check of identities, gcd
# and all is linear in big-integer operations: one premise test per suite
# settles the ten that multiply terms or take gcds.  `python -m ballab.cli
# verify --suite S --max-n 5000`, five runs each on a 2-vCPU Intel Xeon VM,
# Python 3.11.7: identities 0.28-0.38 s, gcd 0.09 s, all 0.31-0.43 s
# (closed-form-agreement the largest check, 0.15-0.21 s), at a peak RSS of
# 39.3 MB (26.8 MB for gcd).  modular is linear: 0.41-0.45 s of runtime_ms at
# 10**6 (three runs).
MAX_VERIFY_N = 5000
MAX_VERIFY_N_MODULAR = 10 ** 6
# period --mod ceiling.  period factors mu by trial division, O(sqrt(mu)),
# and tests a few multiples of the period by fast doubling.  In process it
# took 0.26-0.40 ms at mu = 9999973 (five runs) and at most 0.38 ms (best of
# two runs) over the 3001 moduli up to the ceiling and 3000 random ones below
# it.  `python -m ballab.cli period --mod M` took 0.08-0.09 s of wall time for
# M = 9999973 and 0.09-0.11 s for M = 5**10 (period 11718750), five runs each,
# almost all of it interpreter start.  2-vCPU Intel Xeon VM, Python 3.11.7.
MAX_PERIOD_MOD = 10 ** 7
# term --index ceiling.  The closed form is O(log n) squarings, but rendering
# the value is quadratic on Python 3.11: with the 4300-digit int-to-str limit
# lifted, term plus str took 0.11-0.12 s in process for B and C at the ceiling
# (B_{10**6}: 0.47 s plus about 10 s of str).  `python -m ballab.cli term
# --kind K --index 100000` exits 1 at that limit today, after 0.06-0.10 s of
# wall time for each kind, five runs each.  2-vCPU Intel Xeon VM, Python 3.11.7.
MAX_TERM_INDEX = 10 ** 5
# seq --to ceilings, without and with --mod.  Every term up to --to is built
# and rendered.  Without --mod, --to = 11000 is the CI's top Pell index, and
# above 11234 the last value passes the 4300-digit int-to-str limit for every
# kind (above 5617 for balancing and lucas-balancing).  `python -m ballab.cli
# seq --kind K --from 0 --to 11000`, three runs of each kind in one batch on a
# 2-vCPU Intel Xeon VM with Python 3.11.7: pell and associated-pell 1.07-1.21 s
# at 71 MB peak RSS; balancing and lucas-balancing exit 1 at that limit after
# 0.59-0.68 s.  `seq --kind K --from 0 --to 100000 --mod 1000003`, same batch:
# 0.10-0.18 s at 33-36 MB.
MAX_SEQ_TO = 11_000
MAX_SEQ_TO_MOD = 10 ** 5
# seq --mod ceiling: residues are as large as the modulus, so without one the
# --to ceiling with --mod does not bound the work.  `python -m ballab.cli seq
# --kind K --from 0 --to 100000 --mod M`, three runs of each kind in the same
# batch: 0.12-0.14 s at 40-42 MB peak RSS for M = 10**30, against
# 0.12-0.14 s at 36-39 MB for 10**18 and 0.10-0.18 s at 33-36 MB for 1000003.
MAX_SEQ_MOD = 10 ** 30
# search --max-index ceilings, per equation (costs differ by over 4x at one
# bound).  Wall time of `python -m ballab.cli search EQ --max-index CEILING`
# with default options (special-form: --kind balancing --prime 2), one run
# each in one batch on a 2-vCPU Intel Xeon VM with 8 GB and Python 3.11.7,
# peak RSS as VmHWM: sum-power 35.0 s at 495 MiB (15.0 s with --parity
# same), square-diff 64.9 s at 515 MiB, cube-sum-plus 25.2 s, cube-sum-minus
# 31.7 s, product-form 48.9 s at 170 MiB, special-form 83.9 s at 292 MiB.
MAX_SEARCH_INDEX = dict.fromkeys(_SEARCH_EQUATIONS, 20_000) | {
    "product-form": 15_000, "special-form": 40_000}
COPRIME_ZERO_EXEMPT_NOTE = (
    "coprimality convention: gcd(x, 0) = x, so a zero term can only pass the "
    "literal gcd test next to a 1; the zero-exemption additionally accepts a "
    "partner equal to 6, matching the published solution list for the "
    "square-difference equation"
)


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


# Every CLI call pays for what importing this module loads and runs, so no
# ballab module imports dataclasses or typing, or builds a class with an
# import-time factory: `import dataclasses` loads inspect and ast (about
# 10 ms), each @dataclass execs generated code (about 1 ms), and each
# NamedTuple costs about 0.2 ms.  Value classes are plain __slots__ classes.
class _Option:
    """One command-line option, or the positional when flag has no leading "-".

    kind is int, bool (a --flag/--no-flag pair, argparse's
    BooleanOptionalAction) or the tuple of allowed values.
    """

    __slots__ = ("flag", "dest", "kind", "required", "default", "help")

    def __init__(self, flag: str, dest: str, kind: type | tuple, required: bool = False,
                 default: object = None, help: str | None = None) -> None:
        self.flag, self.dest, self.kind = flag, dest, kind
        self.required, self.default, self.help = required, default, help


class _Command:
    __slots__ = ("help", "options", "run")

    def __init__(self, help: str, options: tuple[_Option, ...],
                 run: Callable[[SimpleNamespace], int]) -> None:
        self.help, self.options, self.run = help, options, run


class UsageError(Exception):
    """A handler's refusal of its arguments; main renders it as argparse's usage error."""


def _bounded(flag: str, value: int, lo: int | None, hi: int | None = None, where: str = "") -> int:
    """value, refused below lo or above hi (None leaves that side open); where
    follows hi in the message, as in " for --suite S"."""
    if lo is not None and value < lo:
        raise UsageError(f"{flag} must be >= {lo}")
    if hi is not None and value > hi:
        raise UsageError(f"{flag} must be <= {hi}{where}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ballab argparse parser, built from _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ballab",
        description="balancing-number sequences, identity suites, and bounded power searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            if opt.kind is bool:
                kind = {"action": argparse.BooleanOptionalAction}
            elif opt.kind is int:
                kind = {"type": int}
            else:
                kind = {"choices": opt.kind}
            if opt.flag.startswith("-"):
                p.add_argument(opt.flag, dest=opt.dest, required=opt.required,
                               default=opt.default, help=opt.help, **kind)
            else:
                p.add_argument(opt.flag, help=opt.help, **kind)
    return parser


def _value(opt: _Option, token: str):
    """token converted as argparse would, or None where argparse must decide."""
    if token.startswith("-"):
        return None
    if opt.kind is int:
        try:
            return int(token)
        except ValueError:
            return None
    return token if token in opt.kind else None


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a well-formed argv, without argparse.

    Accepts only a known subcommand followed by exact option names (the
    --no- forms included), each non-flag option followed by one value that
    does not start with "-" and converts by int() or is one of its choices,
    at most one positional, every required option present; a repeated option
    keeps its last value.  Anything else returns None and argparse parses it.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args = {"command": argv[0]}
    by_flag = {}
    positional = None
    for opt in command.options:
        args[opt.dest] = opt.default
        if opt.kind is bool:
            by_flag[opt.flag] = (opt, True)
            by_flag["--no-" + opt.flag[2:]] = (opt, False)
        elif opt.flag.startswith("-"):
            by_flag[opt.flag] = (opt, None)
        else:
            positional = opt
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in by_flag:
            opt, value = by_flag[token]
            if value is None:
                # a missing value reads as "-", which _value declines
                value = _value(opt, next(tokens, "-"))
        elif positional is not None and positional.dest not in seen:
            opt, value = positional, _value(positional, token)
        else:
            return None
        if value is None:
            return None
        args[opt.dest] = value
        seen.add(opt.dest)
    for opt in command.options:
        if (opt.required or opt is positional) and opt.dest not in seen:
            return None
    return SimpleNamespace(**args)


def _cmd_seq(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    if args.lo < 0 or args.lo > args.hi:
        raise UsageError(f"invalid range [{args.lo}, {args.hi}]")
    if args.mod is None:
        _bounded("--to", args.hi, None, MAX_SEQ_TO, " without --mod")
        values = values_up_to(_KINDS[args.kind], args.hi)[args.lo:]
    else:
        _bounded("--mod", args.mod, 1, MAX_SEQ_MOD)
        _bounded("--to", args.hi, None, MAX_SEQ_TO_MOD, " with --mod")
        values = residue_range(_KINDS[args.kind], args.hi, args.mod)[args.lo:]
    # Each row is canonical_json's bytes for its dict (see the module
    # docstring).  Every row is formatted before anything is printed, so a
    # value past the int-to-str digit limit raises with no output.
    if args.format == "csv":
        print("kind,index,value", *(f"{args.kind},{i},{v}" for i, v in enumerate(values, args.lo)),
              sep="\n")
        return 0
    kind = canonical_json(args.kind)
    rows = ",".join(f'{{"index":{i},"kind":{kind},"value":"{v}"}}'
                    for i, v in enumerate(values, args.lo))
    config = {"kind": args.kind, "from": args.lo, "to": args.hi, "mod": args.mod}
    head, _, tail = canonical_json(_report("seq", config, [], started)).partition('"results":[')
    print(head, '"results":[', rows, tail, sep="")
    return 0


def _cmd_term(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    _bounded("--index", args.index, 0, MAX_TERM_INDEX)
    value = term(_KINDS[args.kind], args.index)
    results = [{"kind": args.kind, "index": args.index, "value": str(value)}]
    print(canonical_json(_report("term", {"kind": args.kind, "index": args.index},
                                 results, started)))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    ceiling = MAX_VERIFY_N_MODULAR if args.suite == "modular" else MAX_VERIFY_N
    _bounded("--max-n", args.max_n, 1, ceiling, f" for --suite {args.suite}")
    checks = run_suite(args.suite, args.max_n)
    results = [c.to_dict() for c in checks]
    report = _report("verify", {"suite": args.suite, "max_n": args.max_n}, results, started)
    report["timings_ms"] = {c.name: round(c.ms, 3) for c in checks}
    print(canonical_json(report))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_period(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    _bounded("--mod", args.mod, 2, MAX_PERIOD_MOD)
    r = period(args.mod)
    results = [{"modulus": r.modulus, "period": r.period,
                "prefix_checked": r.prefix_checked}]
    print(canonical_json(_report("period", {"modulus": args.mod}, results, started)))
    return 0


def _cmd_balancer(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    _bounded("--value", args.value, 1)
    r = balancer(args.value)
    results = [{"value": str(args.value), "is_balancing": r is not None,
                "balancer": None if r is None else str(r)}]
    print(canonical_json(_report("balancer", {"value": str(args.value)}, results, started)))
    return 0


# ---------------------------------------------------------------------------
# search command


# The published solution sets: per equation, the summary config values its
# statement assumes (also the search's defaults) and its expected records,
# the largest n its least bound.
_PUBLISHED = dict.fromkeys(("cube-sum-plus", "cube-sum-minus"), (
    {"parity_filter": "any", "coprimality_required": True, "coprime_zero_exempt": False,
     "min_exponent": 3}, [{"n": 1, "m": 0, "x": "1", "q_family_min": 3}])) | {
    "sum-power": ({"parity_filter": "same", "coprimality_required": False, "min_exponent": 2},
                  [{"n": 3, "m": 1, "x": "6", "q": 2}]),
    "square-diff": ({"parity_filter": "any", "coprimality_required": True,
                     "coprime_zero_exempt": True, "min_exponent": 2},
                    [{"n": 1, "m": 0, "x": "1", "q_family_min": 2},
                     {"n": 2, "m": 0, "x": "6", "q": 2}]),
    "product-form": ({"min_exponent": 2},
                     [{"n": 2, "m": 1, "two_exponent": 1, "x": "3", "q": 2}]),
}


def _claims_block(config: dict, records: list[dict]) -> dict | None:
    """Expected-vs-found comparison for the equations with published answers.

    records are the search's records as printed.  The block is only attached
    when the summary's config holds every value its _PUBLISHED row assumes
    and max_index reaches each published n, else exploratory.
    """
    assumed, expected = _PUBLISHED.get(config["equation"], ({}, None))
    if (expected is None or not assumed.items() <= config.items()
            or config["max_index"] < max(r["n"] for r in expected)):
        return None
    # the summary's config already carries the equation and the bounds
    found = [{key: value for key, value in r.items() if key not in ("equation", "bounds")}
             for r in records]
    return {
        "expected": expected,
        "found": found,
        "verdict": "MATCH" if found == expected else "MISMATCH",
        "bound": f"verified exhaustively for indices <= {config['max_index']}; "
                 "the full statements cover all indices",
    }


def _cmd_search(args: SimpleNamespace) -> int:
    started = time.perf_counter()
    eq = args.equation
    # the hypotheses of eq's published row are its defaults
    assumed = _PUBLISHED.get(eq, ({},))[0]
    needs_coprime = assumed.get("coprimality_required", False)

    _bounded("--max-index", args.max_index, 1, MAX_SEARCH_INDEX[eq], f" for {eq}")
    least = assumed.get("min_exponent", 2)
    min_exp = _bounded("--min-exp", least if args.min_exp is None else args.min_exp, 2)
    if min_exp < least:
        raise UsageError(f"{eq} requires --min-exp >= {least}")
    is_pair_equation = eq in {tag.value for tag in EquationTag}
    if not is_pair_equation:
        for flag, value in (("--parity", args.parity), ("--coprime", args.coprime),
                            ("--coprime-zero-exempt", args.coprime_zero_exempt)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to {eq}")
    if needs_coprime and args.coprime is False:
        raise UsageError(f"{eq} carries the coprimality hypothesis; --no-coprime is inconsistent")
    coprime = args.coprime if args.coprime is not None else needs_coprime
    # the cube rows use the literal gcd test; the exemption exists for the
    # square-difference solution list (see COPRIME_ZERO_EXEMPT_NOTE)
    zero_exempt = (args.coprime_zero_exempt if args.coprime_zero_exempt is not None
                   else assumed.get("coprime_zero_exempt", True))
    if eq == "special-form":
        if args.kind is None:
            raise UsageError("special-form requires --kind")
        prime = _bounded("--prime", 2 if args.prime is None else args.prime, None, MAX_PRIME,
                         " (2^31 - 1)")
        if not is_prime(prime):
            raise UsageError(f"--prime must be prime, got {prime}")
    elif args.kind is not None or args.prime is not None:
        raise UsageError("--kind/--prime only apply to special-form")

    cfg = SearchConfig(
        max_index=args.max_index,
        min_exponent=min_exp,
        parity_filter=Parity(args.parity or "any"),
        coprimality_required=coprime,
        coprime_zero_exempt=zero_exempt,
    )

    config = cfg.to_dict() | {"equation": eq}
    if is_pair_equation:
        records = search_pair(EquationTag(eq), cfg)
    elif eq == "product-form":
        records = search_product_form(cfg)
    else:
        config |= {"kind": args.kind, "prime": prime}
        records = search_special_form(_KINDS[args.kind], prime, cfg)

    records = [rec.to_dict() for rec in records]
    for rec in records:
        print(canonical_json(rec))

    claims = _claims_block(config, records)
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


_KIND_OPTION = _Option("--kind", "kind", tuple(sorted(_KINDS)), required=True)

# Each subcommand's help, options (in the order its help lists them) and
# handler, in the order the parser lists them.
_COMMANDS = {
    "seq": _Command("dump a sequence range", (
        _KIND_OPTION,
        _Option("--from", "lo", int, required=True),
        _Option("--to", "hi", int, required=True),
        _Option("--mod", "mod", int),
        _Option("--format", "format", ("json", "csv"), default="json"),
    ), _cmd_seq),
    "term": _Command("single term at an index", (
        _KIND_OPTION,
        _Option("--index", "index", int, required=True),
    ), _cmd_term),
    "verify": _Command("run a property suite", (
        _Option("--suite", "suite", SUITE_NAMES, required=True),
        _Option("--max-n", "max_n", int, required=True),
    ), _cmd_verify),
    "period": _Command("period of the balancing sequence mod mu", (
        _Option("--mod", "mod", int, required=True),
    ), _cmd_period),
    "search": _Command("bounded exhaustive equation search", (
        _Option("equation", "equation", _SEARCH_EQUATIONS),
        _Option("--max-index", "max_index", int, required=True),
        _Option("--min-exp", "min_exp", int),
        _Option("--parity", "parity", ("same", "opposite", "any")),
        _Option("--coprime", "coprime", bool),
        _Option("--coprime-zero-exempt", "coprime_zero_exempt", bool),
        _Option("--workers", "workers", int,
                help="accepted for compatibility; has no effect (searches run serially)"),
        _Option("--kind", "kind", ("balancing", "lucas-balancing"),
                help="sequence for special-form"),
        _Option("--prime", "prime", int, help="prime for special-form"),
    ), _cmd_search),
    "balancer": _Command("the R paired with a balancing number", (
        _Option("--value", "value", int, required=True),
    ), _cmd_balancer),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    try:
        return _COMMANDS[args.command].run(args)
    except UsageError as exc:
        build_parser().error(str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
