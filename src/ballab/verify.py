"""Executable property suites for the balancing family.

Each check sweeps an index range, counts the cases it confirmed, and keeps
the first few failure descriptions.  A case yields None when it holds and its
description only when it fails, so passing cases format no text.  The suites
back both the command-line `verify` command and the test suite, so a red
check here is a red build.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator

from .bigmath import strip_prime
from .modular import (
    period,
    power_residue_sieve,
    residue_class_mod9,
    residue_range,
)
from .quadring import ALPHA, binet_extract, qpow
from .sequences import SequenceKind, values_up_to

SUITE_NAMES = ("identities", "gcd", "modular", "all")


@dataclass
class CheckResult:
    name: str
    bound: str
    checked: int
    passed: bool
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "checked": self.checked,
                "passed": self.passed, "failures": self.failures}


def _run_check(name: str, bound: str, cases: Iterable[str | None]) -> CheckResult:
    checked = 0
    failed = 0
    failures: list[str] = []
    for checked, failure in enumerate(cases, 1):
        if failure is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(failure)
    return CheckResult(name, bound, checked, passed=failed == 0, failures=failures)


# ---------------------------------------------------------------------------
# identity checks


def check_half_index_sum(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            bn = b[n]
            for m in range(n % 2, n + 1, 2):
                a, d = (n + m) // 2, (n - m) // 2
                yield None if bn + b[m] == 2 * b[a] * c[d] else f"B_{n} + B_{m} != 2*B_{a}*C_{d}"

    return _run_check("half-index-sum", f"0 <= m <= n <= {max_n}, same parity", cases())


def check_half_index_diff(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            bn = b[n]
            for m in range(n % 2, n + 1, 2):
                a, d = (n + m) // 2, (n - m) // 2
                yield None if bn - b[m] == 2 * b[d] * c[a] else f"B_{n} - B_{m} != 2*B_{d}*C_{a}"

    return _run_check("half-index-diff", f"0 <= m <= n <= {max_n}, same parity", cases())


def check_pell_product(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)
    cases = (None if b[m] == p[m] * q[m] else f"B_{m} != P_{m}*Q_{m}" for m in range(max_n + 1))
    return _run_check("pell-product", f"0 <= m <= {max_n}", cases)


def check_index_doubling(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    cases = (None if b[2 * n] == 2 * b[n] * c[n] else f"B_{2 * n} != 2*B_{n}*C_{n}"
             for n in range(max_n + 1))
    return _run_check("index-doubling", f"0 <= n <= {max_n}", cases)


def check_square_plus_one(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    cases = (None if 8 * b[n] * b[n] + 1 == c[n] * c[n] else f"8*B_{n}^2 + 1 != C_{n}^2"
             for n in range(max_n + 1))
    return _run_check("square-plus-one", f"0 <= n <= {max_n}", cases)


def check_addition_formula(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for x in range(max_n + 1):
            bx, cx = b[x], c[x]
            for y in range(max_n + 1):
                yield (None if b[x + y] == bx * c[y] + cx * b[y]
                       else f"B_{x + y} != B_{x}*C_{y} + C_{x}*B_{y}")

    return _run_check("addition-formula", f"0 <= x, y <= {max_n}", cases())


def check_lucas_odd(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    cases = (None if c[n] % 2 == 1 else f"C_{n} is even" for n in range(max_n + 1))
    return _run_check("lucas-odd", f"0 <= n <= {max_n}", cases)


def check_closed_form(max_n: int) -> CheckResult:
    """Closed-form extraction agrees with plain iteration, term by term."""
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    cases = (None if binet_extract(n) == (b[n], c[n]) else f"closed form disagrees at n={n}"
             for n in range(max_n + 1))
    return _run_check("closed-form-agreement", f"0 <= n <= {max_n}", cases)


def check_unit_norm(max_n: int) -> CheckResult:
    """alpha is a unit: norm(alpha**n) = 1 for every n."""
    cases = (None if qpow(ALPHA, n).norm() == 1 else f"norm(alpha^{n}) != 1"
             for n in range(max_n + 1))
    return _run_check("unit-norm", f"0 <= n <= {max_n}", cases)


# ---------------------------------------------------------------------------
# gcd structure checks


def check_gcd_balancing(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            bn = b[n]
            for m in range(1, max_n + 1):
                yield (None if gcd(bn, b[m]) == b[gcd(n, m)]
                       else f"gcd(B_{n}, B_{m}) != B_gcd({n},{m})")

    return _run_check("gcd-balancing", f"1 <= n, m <= {max_n}", cases())


def check_gcd_lucas(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            cn, vn = c[n], v2[n]
            for m in range(1, max_n + 1):
                want = c[gcd(n, m)] if vn == v2[m] else 1
                yield None if gcd(cn, c[m]) == want else f"gcd(C_{n}, C_{m}) != expected"

    return _run_check("gcd-lucas", f"1 <= n, m <= {max_n}", cases())


def check_gcd_mixed(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            bn, vn = b[n], v2[n]
            for m in range(1, max_n + 1):
                want = c[gcd(n, m)] if vn > v2[m] else 1
                yield None if gcd(bn, c[m]) == want else f"gcd(B_{n}, C_{m}) != expected"

    return _run_check("gcd-mixed", f"1 <= n, m <= {max_n}", cases())


def check_pell_coprime(max_n: int) -> CheckResult:
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)
    cases = (None if gcd(p[n], q[n]) == 1 else f"gcd(P_{n}, Q_{n}) != 1"
             for n in range(1, max_n + 1))
    return _run_check("pell-coprime", f"1 <= n <= {max_n}", cases)


# ---------------------------------------------------------------------------
# modular checks


def check_mod9_table(max_n: int) -> CheckResult:
    direct = residue_range(SequenceKind.BALANCING, max_n, 9)
    cases = (None if residue_class_mod9(n) == direct[n] else f"mod-9 table wrong at n={n}"
             for n in range(max_n + 1))
    return _run_check("mod9-table", f"0 <= n <= {max_n}", cases)


def check_two_adic(max_n: int) -> CheckResult:
    """2**k | B_n exactly when 2**k | n, for 1 <= k <= 8.

    One walk gives B_n mod 2**8; reducing it mod 2**k (which divides 2**8)
    gives B_n mod 2**k, so every (n, k) case is still decided exactly.
    """
    b = residue_range(SequenceKind.BALANCING, max_n, 1 << 8)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            bn = b[n]
            for k in range(1, 9):
                mask = (1 << k) - 1
                yield (None if (bn & mask == 0) == (n & mask == 0)
                       else f"2^{k} | B_{n} does not match 2^{k} | {n}")

    return _run_check("two-adic-law", f"1 <= n <= {max_n}, 1 <= k <= 8", cases())


def check_period_consistency(max_mu: int) -> CheckResult:
    """Periods restart the residue stream and divide the periods of multiples."""

    def cases() -> Iterator[str | None]:
        periods: dict[int, int] = {}
        for mu in range(2, max_mu + 1):
            t = period(mu).period
            periods[mu] = t
            stream = residue_range(SequenceKind.BALANCING, 2 * t, mu)
            yield (None if stream[:t + 1] == stream[t:]
                   else f"period {t} does not reproduce the residues mod {mu}")
        for mu, t in periods.items():
            for nu in range(2 * mu, max_mu + 1, mu):
                yield (None if periods[nu] % t == 0
                       else f"period({mu}) does not divide period({nu})")

    return _run_check("period-consistency", f"2 <= mu <= {max_mu}", cases())


def check_sieve_soundness() -> CheckResult:
    """The residue sieve never rejects an actual q-th power."""
    rng = random.Random(20260809)

    def cases() -> Iterator[str | None]:
        for q in (2, 3, 5):
            for _ in range(200):
                x = rng.randrange(1, 10 ** 6)
                yield None if power_residue_sieve(x ** q, q) else f"sieve rejected {x}^{q}"

    return _run_check("sieve-soundness", "x <= 10^6 random, q in (2, 3, 5), 200 each", cases())


# ---------------------------------------------------------------------------
# suites


def identity_suite(max_n: int) -> list[CheckResult]:
    return [
        check_half_index_sum(max_n),
        check_half_index_diff(max_n),
        check_pell_product(max_n),
        check_index_doubling(max_n),
        check_square_plus_one(max_n),
        check_addition_formula(max_n),
        check_lucas_odd(max_n),
        check_closed_form(max_n),
        check_unit_norm(min(max_n, 200)),
    ]


def gcd_suite(max_n: int) -> list[CheckResult]:
    return [
        check_gcd_balancing(max_n),
        check_gcd_lucas(max_n),
        check_gcd_mixed(max_n),
        check_pell_coprime(max_n),
    ]


def modular_suite(max_n: int) -> list[CheckResult]:
    return [
        check_mod9_table(max_n),
        check_two_adic(max_n),
        check_period_consistency(min(max_n, 200)),
        check_sieve_soundness(),
    ]


def run_suite(name: str, max_n: int) -> list[CheckResult]:
    if name == "identities":
        return identity_suite(max_n)
    if name == "gcd":
        return gcd_suite(max_n)
    if name == "modular":
        return modular_suite(max_n)
    if name == "all":
        return identity_suite(max_n) + gcd_suite(max_n) + modular_suite(max_n)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
