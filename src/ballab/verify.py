"""Executable property suites for the balancing family.

Each check sweeps an index range, counts its cases and records the key of
each failing case: the indices that name it, such as (n, m), then any
numbers its description shows.  `_result` sorts the keys into case order and
formats only the first five.  The addition formula and the B and C gcd laws
are symmetric: case (y, x) compares the same two integers as (x, y), since
integer sums and products commute and gcd(B_n, B_m), gcd(n, m) and
v_2(n) = v_2(m) ignore the order of n and m.  Those checks decide y >= x
only and record a failing pair in both orders; `checked` still counts every
ordered case.  The suites back both the `verify` command and the test
suite, so a red check here is a red build.
"""

from __future__ import annotations

import random
import time
from math import gcd

from . import Value
from .bigmath import strip_prime
from .modular import period, power_residue_sieve, residue_class_mod9, residue_range
from .quadring import ALPHA, binet_extract, qpow
from .sequences import SequenceKind, values_up_to

# typing.TYPE_CHECKING without importing typing: type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

SUITE_NAMES = ("identities", "gcd", "modular", "all")


class CheckResult(Value):
    __slots__ = ("name", "bound", "checked", "passed", "failures", "ms")

    # ms: wall time, set by _timed and left out of ==
    def __init__(self, name: str, bound: str, checked: int, passed: bool,
                 failures: list[str] | None = None, ms: float = 0.0) -> None:
        self.name, self.bound, self.checked, self.passed = name, bound, checked, passed
        self.failures = [] if failures is None else failures
        self.ms = ms

    def _key(self) -> tuple:
        return self.name, self.bound, self.checked, self.passed, self.failures

    __hash__ = None  # mutable: _timed sets ms

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "checked": self.checked,
                "passed": self.passed, "failures": self.failures}


def _result(name: str, bound: str, checked: int, failing: list[tuple],
            describe: Callable[..., str]) -> CheckResult:
    """`checked` cases with these failing keys; describe(*key) names each of the first five."""
    failures = [describe(*key) for key in sorted(failing)[:5]]
    return CheckResult(name, bound, checked, passed=not failing, failures=failures)


def _timed(check: Callable[..., CheckResult], *args: int) -> CheckResult:
    started = time.perf_counter()
    result = check(*args)
    result.ms = (time.perf_counter() - started) * 1000
    return result


# ---------------------------------------------------------------------------
# identity checks


def check_half_index_sum(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    checked, failing = 0, []
    for n in range(max_n + 1):
        bn = b[n]
        checked += n // 2 + 1
        for m in range(n % 2, n + 1, 2):
            if bn + b[m] != 2 * b[(n + m) // 2] * c[(n - m) // 2]:
                failing.append((n, m, (n + m) // 2, (n - m) // 2))
    return _result("half-index-sum", f"0 <= m <= n <= {max_n}, same parity", checked, failing,
                   "B_{0} + B_{1} != 2*B_{2}*C_{3}".format)


def check_half_index_diff(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    checked, failing = 0, []
    for n in range(max_n + 1):
        bn = b[n]
        checked += n // 2 + 1
        for m in range(n % 2, n + 1, 2):
            if bn - b[m] != 2 * b[(n - m) // 2] * c[(n + m) // 2]:
                failing.append((n, m, (n - m) // 2, (n + m) // 2))
    return _result("half-index-diff", f"0 <= m <= n <= {max_n}, same parity", checked, failing,
                   "B_{0} - B_{1} != 2*B_{2}*C_{3}".format)


def check_pell_product(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)
    failing = [(m,) for m in range(max_n + 1) if b[m] != p[m] * q[m]]
    return _result("pell-product", f"0 <= m <= {max_n}", max_n + 1, failing,
                   "B_{0} != P_{0}*Q_{0}".format)


def check_index_doubling(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = [(n, 2 * n) for n in range(max_n + 1) if b[2 * n] != 2 * b[n] * c[n]]
    return _result("index-doubling", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "B_{1} != 2*B_{0}*C_{0}".format)


def check_square_plus_one(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = [(n,) for n in range(max_n + 1) if 8 * b[n] * b[n] + 1 != c[n] * c[n]]
    return _result("square-plus-one", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "8*B_{0}^2 + 1 != C_{0}^2".format)


def check_addition_formula(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = []
    for x in range(max_n + 1):
        bx, cx = b[x], c[x]
        for y in range(x, max_n + 1):  # (y, x) sums the same two products
            if b[x + y] != bx * c[y] + cx * b[y]:
                failing += {(x, y, x + y), (y, x, x + y)}
    return _result("addition-formula", f"0 <= x, y <= {max_n}", (max_n + 1) ** 2, failing,
                   "B_{2} != B_{0}*C_{1} + C_{0}*B_{1}".format)


def check_lucas_odd(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = [(n,) for n in range(max_n + 1) if c[n] % 2 != 1]
    return _result("lucas-odd", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "C_{0} is even".format)


def check_closed_form(max_n: int) -> CheckResult:
    """Closed-form extraction agrees with plain iteration, term by term."""
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = [(n,) for n in range(max_n + 1) if binet_extract(n) != (b[n], c[n])]
    return _result("closed-form-agreement", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "closed form disagrees at n={0}".format)


def check_unit_norm(max_n: int) -> CheckResult:
    """alpha is a unit: norm(alpha**n) = 1 for every n."""
    failing = [(n,) for n in range(max_n + 1) if qpow(ALPHA, n).norm() != 1]
    return _result("unit-norm", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "norm(alpha^{0}) != 1".format)


# ---------------------------------------------------------------------------
# gcd structure checks


def check_gcd_balancing(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    failing = []
    for n in range(1, max_n + 1):
        bn = b[n]
        for m in range(n, max_n + 1):  # gcd is symmetric
            if gcd(bn, b[m]) != b[gcd(n, m)]:
                failing += {(n, m), (m, n)}
    return _result("gcd-balancing", f"1 <= n, m <= {max_n}", max_n * max_n, failing,
                   "gcd(B_{0}, B_{1}) != B_gcd({0},{1})".format)


def check_gcd_lucas(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)
    failing = []
    for n in range(1, max_n + 1):
        cn, vn = c[n], v2[n]
        for m in range(n, max_n + 1):  # gcd and v_2(n) = v_2(m) are symmetric
            if gcd(cn, c[m]) != (c[gcd(n, m)] if vn == v2[m] else 1):
                failing += {(n, m), (m, n)}
    return _result("gcd-lucas", f"1 <= n, m <= {max_n}", max_n * max_n, failing,
                   "gcd(C_{0}, C_{1}) != expected".format)


def check_gcd_mixed(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)
    failing = []
    for n in range(1, max_n + 1):
        bn, vn = b[n], v2[n]
        for m in range(1, max_n + 1):
            if gcd(bn, c[m]) != (c[gcd(n, m)] if vn > v2[m] else 1):
                failing.append((n, m))
    return _result("gcd-mixed", f"1 <= n, m <= {max_n}", max_n * max_n, failing,
                   "gcd(B_{0}, C_{1}) != expected".format)


def check_pell_coprime(max_n: int) -> CheckResult:
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)
    failing = [(n,) for n in range(1, max_n + 1) if gcd(p[n], q[n]) != 1]
    return _result("pell-coprime", f"1 <= n <= {max_n}", max_n, failing,
                   "gcd(P_{0}, Q_{0}) != 1".format)


# ---------------------------------------------------------------------------
# modular checks


def check_mod9_table(max_n: int) -> CheckResult:
    direct = residue_range(SequenceKind.BALANCING, max_n, 9)
    failing = [(n,) for n in range(max_n + 1) if residue_class_mod9(n) != direct[n]]
    return _result("mod9-table", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "mod-9 table wrong at n={0}".format)


def check_two_adic(max_n: int) -> CheckResult:
    """2**k | B_n exactly when 2**k | n, for 1 <= k <= 8.

    One walk gives B_n mod 2**8; reducing it mod 2**k (which divides 2**8)
    gives B_n mod 2**k, so every (n, k) case is still decided exactly.
    """
    b = residue_range(SequenceKind.BALANCING, max_n, 1 << 8)
    masks = [(k, (1 << k) - 1) for k in range(1, 9)]
    failing = [(n, k) for n, bn in enumerate(b[1:], 1) for k, mask in masks
               if (bn & mask == 0) != (n & mask == 0)]
    return _result("two-adic-law", f"1 <= n <= {max_n}, 1 <= k <= 8", 8 * max_n, failing,
                   "2^{1} | B_{0} does not match 2^{1} | {0}".format)


def check_period_consistency(max_mu: int) -> CheckResult:
    """Periods restart the residue stream and divide the periods of multiples.

    Keys (0, mu, t) of stream cases sort before keys (1, mu, nu) of divisibility cases.
    """
    periods: dict[int, int] = {}
    failing = []
    for mu in range(2, max_mu + 1):
        t = periods[mu] = period(mu).period
        stream = residue_range(SequenceKind.BALANCING, 2 * t, mu)
        if stream[:t + 1] != stream[t:]:
            failing.append((0, mu, t))
    checked = len(periods)
    for mu, t in periods.items():
        multiples = range(2 * mu, max_mu + 1, mu)
        checked += len(multiples)
        failing += [(1, mu, nu) for nu in multiples if periods[nu] % t != 0]
    return _result("period-consistency", f"2 <= mu <= {max_mu}", checked, failing,
                   lambda divides, mu, x: f"period({mu}) does not divide period({x})" if divides
                   else f"period {x} does not reproduce the residues mod {mu}")


def check_sieve_soundness() -> CheckResult:
    """The residue sieve never rejects an actual q-th power."""
    rng = random.Random(20260809)
    failing = []
    for q in (2, 3, 5):
        for i in range(200):
            x = rng.randrange(1, 10 ** 6)
            if not power_residue_sieve(x ** q, q):
                failing.append((q, i, x))
    return _result("sieve-soundness", "x <= 10^6 random, q in (2, 3, 5), 200 each", 600, failing,
                   "sieve rejected {2}^{0}".format)


# ---------------------------------------------------------------------------
# suites


def identity_suite(max_n: int) -> list[CheckResult]:
    return [
        _timed(check_half_index_sum, max_n),
        _timed(check_half_index_diff, max_n),
        _timed(check_pell_product, max_n),
        _timed(check_index_doubling, max_n),
        _timed(check_square_plus_one, max_n),
        _timed(check_addition_formula, max_n),
        _timed(check_lucas_odd, max_n),
        _timed(check_closed_form, max_n),
        _timed(check_unit_norm, min(max_n, 200)),
    ]


def gcd_suite(max_n: int) -> list[CheckResult]:
    return [
        _timed(check_gcd_balancing, max_n),
        _timed(check_gcd_lucas, max_n),
        _timed(check_gcd_mixed, max_n),
        _timed(check_pell_coprime, max_n),
    ]


def modular_suite(max_n: int) -> list[CheckResult]:
    return [
        _timed(check_mod9_table, max_n),
        _timed(check_two_adic, max_n),
        _timed(check_period_consistency, min(max_n, 200)),
        _timed(check_sieve_soundness),
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
