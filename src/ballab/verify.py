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

The B and C gcd laws expect gcd 1 for two thirds of their pairs: gcd(B_n,
C_m) when v_2(n) <= v_2(m), gcd(C_n, C_m) when v_2(n) != v_2(m).  Those
cases are decided a 2-adic class at a time by the product law:
gcd(prod a_i, prod b_j) = 1 exactly when every gcd(a_i, b_j) = 1.  For any
integers, gcd(x, y) = 1 exactly when no prime divides both; a prime
dividing both products divides some a_i and some b_j (Euclid's lemma), and
one dividing some a_i and b_j divides both products.  So the law also holds
for the zero and negative values the tests corrupt the sequences with:
every prime divides 0, gcd(x, 0) = |x|, and gcd ignores signs.  Only a
class whose product gcd is not 1 is looked at pair by pair, so the failing
keys, and with them the result, are those of the pair-by-pair check.

The addition formula and the half-index identities compare left sides with
rows of right-hand sides, and carry each row along the recurrence instead
of multiplying it out.  If B_x = 6*B_{x-1} - B_{x-2} and C_x = 6*C_{x-1} -
C_{x-2}, then the row R_x[y] = B_x*C_y + C_x*B_y equals 6*R_{x-1}[y] -
R_{x-2}[y] for every y, by distributing the products over the sums.  The
half-index row T_d[a] = 2*C_d*B_a - B_{a-d} is B_{a+d} exactly when B_{a+d}
+ B_{a-d} = 2*B_a*C_d (2*B_d*C_a + B_{a-d} for the difference); T_d =
6*T_{d-1} - T_{d-2} where C_d (B_d) obeys the recurrence and B does at
a - d + 2, since B_{a-d} = 6*B_{a-d+1} - B_{a-d+2} is B's recurrence there.
This is algebra on the given integers, whatever they are, so each check
tests the recurrence exactly where it relies on it: at each row index
j >= 2, and for the half-index rows at every index of B.  It builds rows 0
and 1, and every row it may not carry, term by term, so every row equals
its term-by-term value.  A row is compared with its left side as one list;
only a row that differs is decided case by case with the exact test, so the
failing keys are those of the case-by-case check.
"""

from __future__ import annotations

import random
import time
from math import gcd, prod
from operator import add, and_, sub

from . import Value
from .modular import period, power_residue_sieve, residue_class_mod9, residue_range
from .quadring import ALPHA, binet_extract, qpow
from .sequences import SequenceKind, values_up_to

# typing.TYPE_CHECKING without importing typing: type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator

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


def _obeys(s: list[int], hi: int) -> list[bool]:
    """[j >= 2 and s_j = 6*s_{j-1} - s_{j-2} for j < max(hi, 2)]."""
    return [False, False] + [w == 6 * v - u for u, v, w in zip(s, s[1:], s[2:hi])]


def _rows(stops: Iterable[int], carried: list[bool],
          by_products: Callable[[int], list[int]]) -> Iterator[tuple[int, list[int]]]:
    """(j, row j) for j = 0, 1, ...: row j is a right-hand side over range(j, stops[j]).

    by_products(j) builds row j term by term.  Where carried[j] holds (never
    for j < 2), row j is 6*row[j-1] - row[j-2] instead, aligned on the row's
    index (see the module docstring); stops never grow, so the rows before
    cover row j.
    """
    prev = prev2 = []
    for j, stop in enumerate(stops):
        if carried[j]:  # zip stops at the shorter input, prev2's slice
            row = [6 * u - v for u, v in zip(prev[1:], prev2[2:2 + stop - j])]
        else:
            row = by_products(j)
        yield j, row
        prev2, prev = prev, row


def _half_index(max_n: int, op: Callable[[int, int], int], inv: Callable[[int, int], int],
                b: list[int], scale: list[int], terms: list[int]) -> tuple[int, list[tuple]]:
    """Cases and failing (n, m, a, d) of op(B_n, B_m) = 2*scale_d*terms_a, n, m = a + d, a - d.

    Row d runs over d <= a <= max_n - d and holds inv(2*scale_d*terms_a,
    B_{a-d}), inv undoing op, so a case holds exactly when its entry is
    B_{a+d}.  It is carried where scale obeys the recurrence at d and B at
    every index.
    """
    checked, failing = 0, []
    carried = _obeys(scale, max_n + 1) if all(_obeys(b, max_n + 1)[2:]) else [False] * (max_n + 1)
    rows = _rows(range(max_n + 1, max_n - max_n // 2, -1), carried,
                 lambda d: [inv(2 * scale[d] * t, u) for t, u in zip(terms[d:max_n + 1 - d], b)])
    for d, row in rows:
        checked += len(row)
        if row != b[2 * d:]:
            failing += [(a + d, a - d, a, d) for a in range(d, max_n + 1 - d)
                        if op(b[a + d], b[a - d]) != 2 * scale[d] * terms[a]]
    return checked, failing


def check_half_index_sum(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    checked, failing = _half_index(max_n, add, sub, b, c, b)
    return _result("half-index-sum", f"0 <= m <= n <= {max_n}, same parity", checked, failing,
                   "B_{0} + B_{1} != 2*B_{2}*C_{3}".format)


def check_half_index_diff(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    checked, failing = _half_index(max_n, sub, add, b, b, c)
    return _result("half-index-diff", f"0 <= m <= n <= {max_n}, same parity", checked, failing,
                   "B_{0} - B_{1} != 2*B_{3}*C_{2}".format)


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
    carried = list(map(and_, _obeys(b, max_n + 1), _obeys(c, max_n + 1)))
    rows = _rows([max_n + 1] * (max_n + 1), carried,
                 lambda x: [b[x] * cy + c[x] * by for by, cy in zip(b[x:max_n + 1], c[x:])])
    for x, row in rows:  # row x runs over y >= x: (y, x) sums the same two products
        if row != b[2 * x:x + max_n + 1]:
            bx, cx = b[x], c[x]
            for y in range(x, max_n + 1):
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


def _product(xs: list[int]) -> int:
    """prod(xs) by halves, so that big factors meet at like sizes (Karatsuba)."""
    half = len(xs) // 2
    return prod(xs) if half < 4 else _product(xs[:half]) * _product(xs[half:])


def _two_adic_classes(c: list[int], max_n: int) -> Iterator[tuple[range, int, int, int]]:
    """(cls, own, above, upto) for each 2-adic class of 1..max_n, from the top down.

    cls is class u, the odd multiples of 2**u.  own, above and upto are the
    products of c over cls, over the classes above u (the multiples of
    2**(u + 1)) and over both (the multiples of 2**u).
    """
    above = 1
    for u in reversed(range(max_n.bit_length())):
        own = _product(c[1 << u::2 << u])
        upto = own * above
        yield range(1 << u, max_n + 1, 2 << u), own, above, upto
        above = upto


def check_gcd_lucas(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = []
    for cls, own, above, _ in _two_adic_classes(c, max_n):
        for i, n in enumerate(cls):  # same class: expect C_gcd(n, m); gcd is symmetric
            cn = c[n]
            for m in cls[i:]:
                if gcd(cn, c[m]) != c[gcd(n, m)]:
                    failing += {(n, m), (m, n)}
        if gcd(own, above) != 1:  # some pair with a higher class (expect 1) shares a prime
            higher = range(2 * cls.start, max_n + 1, 2 * cls.start)
            failing += [key for n in cls for m in higher if gcd(c[n], c[m]) != 1
                        for key in ((n, m), (m, n))]
    return _result("gcd-lucas", f"1 <= n, m <= {max_n}", max_n * max_n, failing,
                   "gcd(C_{0}, C_{1}) != expected".format)


def check_gcd_mixed(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    failing = []
    for cls, _, _, upto in _two_adic_classes(c, max_n):
        low = cls.start  # 2**v_2(n) for n in cls
        lower = [m for m in range(1, max_n + 1) if m % low]  # v_2(m) < v_2(n): expect C_gcd(n, m)
        for n in cls:
            bn = b[n]
            failing += [(n, m) for m in lower if gcd(bn, c[m]) != c[gcd(n, m)]]
        if gcd(_product(b[low::2 * low]), upto) != 1:  # v_2(m) >= v_2(n): expect 1 for all
            failing += [(n, m) for n in cls for m in range(low, max_n + 1, low)
                        if gcd(b[n], c[m]) != 1]
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
