"""Executable property suites for the balancing family.

Each check counts the cases of an index range; one that sweeps them records
the key of each failing case: the indices that name it, such as (n, m), then
any numbers its description shows.  `_result` sorts the keys into case order
and formats only the first five.  The suites back both the `verify` command
and the test suite, so a red check here is a red build.  The laws that no
library function computes, B_n mod 9 by n mod 12 and the 2-adic law, are
stated here, next to their checks.

Each suite reads B, C, P and Q once (B to 2N in the identity suite and to
N in the gcd suite, the others to N).  The laws that relate products or
gcds of terms, and C_n odd (IDENTITY_LAWS and GCD_LAWS: the addition
formula, the half-index sum and difference, the Pell product, index
doubling, square plus one, C_n odd, the three gcd laws and Pell
coprimality) rest on one premise, which the suite tests once on the lists
it read, as `walk = _pell_steps(b, c, p, q)`: B and C are prefixes of the
walk (B_0, C_0) = (0, 1), (B_{k+1}, C_{k+1}) = (3*B_k + C_k, 8*B_k +
3*C_k), and P and Q of the walk (P_0, Q_0) = (0, 1), (P_{k+1}, Q_{k+1}) =
(P_k + Q_k, 2*P_k + Q_k).  Where it holds, (B_k, C_k) is M**k (0, 1) with
M = [[3, 1], [8, 3]].  By induction on k, M**k = [[C_k, B_k], [8*B_k,
C_k]], and det M = 1.  So, at every index:

- M**(x+y) = M**x * M**y gives B_{x+y} = B_x*C_y + C_x*B_y and C_{x+y} =
  C_x*C_y + 8*B_x*B_y, the addition formula; x = y gives index doubling,
  B_{2n} = 2*B_n*C_n.
- det M**n = 1 gives square plus one, C_n**2 - 8*B_n**2 = 1.  So gcd(B_n,
  C_n) = 1 and C_n is odd; and the walk keeps B_n >= 0, C_n >= 1.
- The inverse (M**d)**-1 = [[C_d, -B_d], [-8*B_d, C_d]] and M**(a-d) =
  M**a * (M**d)**-1 give B_{a-d} = B_a*C_d - C_a*B_d.  With the addition
  formula, the sum and the difference give the half-index identities
  B_{a+d} + B_{a-d} = 2*B_a*C_d and B_{a+d} - B_{a-d} = 2*C_a*B_d.
- Euclid's algorithm runs on the indices (Knuth, TAOCP vol. 1, 1.2.8):
  for d, b >= 0,

      gcd(B_{d+b}, B_b) = gcd(B_d, B_b)    gcd(C_{d+b}, C_b) = gcd(B_d, C_b)
      gcd(B_{d+b}, C_b) = gcd(C_d, C_b)    gcd(C_{d+b}, B_b) = gcd(C_d, B_b)

  each by dropping from the left gcd the product that carries the factor
  B_b or C_b, as C_b is odd and coprime to B_b.  Reducing the larger index
  by the smaller, the walk from (n, m) ends at gcd(B_0, X_g) = X_g with g =
  gcd(n, m), or at a gcd with C_0 = 1.  Which end it reaches depends on the
  indices only, and it is the gcd law the check expects (a lemma about
  integers, checked on every index pair by the tests).
- The (P, Q) step is multiplication by u = 1 + sqrt(2): (Q + P*sqrt(2))*u
  = (2*P + Q) + (P + Q)*sqrt(2).  So Q_k + P_k*sqrt(2) = u**k, and as the
  step's matrix [[1, 1], [2, 1]] has determinant -1, Q_k**2 - 2*P_k**2 =
  (-1)**k: gcd(P_k, Q_k) = 1, Pell coprimality.  Likewise the (B, C) step
  is multiplication by alpha = 3 + 2*sqrt(2), so C_k + 2*B_k*sqrt(2) =
  alpha**k.  As u**2 = alpha, the sqrt(2) parts of (Q_k + P_k*sqrt(2))**2
  = alpha**k give B_k = P_k*Q_k, the Pell product, wherever both walks hold,
  and the rational parts C_k = 2*Q_k**2 - (-1)**k: the one unit u gives all
  four terms, which is how `quadring` computes them.

So no case of these laws fails, and their checks read no term: each passes
exactly when its suite's walk holds, and otherwise reports the one failure
OFF_WALK.

period-consistency rests on a premise of its own, which it tests once: the
one residue stream W it reads, B to index 2*T mod the lcm L of its moduli
(T the largest period), starts at (0, 1 % L) and steps as
W_{k+2} = 6*W_{k+1} - W_k mod L.  Each modulus mu divides L, so there W mod
mu is the walk mod mu.  A second-order recurrence whose pair (W_t, W_{t+1})
returns to (W_0, W_1) repeats from t, so W mod mu to 2*t repeats from t
exactly when (W_t, W_{t+1}) = (0, 1) mod mu; the converse reads the first
two places of the repeat.  Where the premise fails, each modulus compares
its halves of W mod mu literally.
"""

from __future__ import annotations

import random
import time
from math import lcm

from .modular import period, power_residue_sieve, residue_range
from .quadring import binet_extract
from .sequences import SequenceKind, values_up_to

# typing.TYPE_CHECKING without importing typing: type checkers read it as True
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

SUITE_NAMES = ("identities", "gcd", "modular", "all")
# alpha = 3 + 2*sqrt(2) as the pair (3, 2), the unit whose powers unit-norm checks
ALPHA = (3, 2)
# the one failure of a premise-settled check whose suite's walk fails (module docstring)
OFF_WALK = "B, C, P and Q read are not the Pell walks from (0, 1)"


class CheckResult:
    __slots__ = ("name", "bound", "checked", "passed", "failures", "ms")

    # ms: wall time, set by _timed (0 for a premise-settled check, which computes nothing)
    def __init__(self, name: str, bound: str, checked: int, passed: bool,
                 failures: list[str] | None = None, ms: float = 0.0) -> None:
        self.name, self.bound, self.checked, self.passed = name, bound, checked, passed
        self.failures = [] if failures is None else failures
        self.ms = ms

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "checked": self.checked,
                "passed": self.passed, "failures": self.failures}


def _result(name: str, bound: str, checked: int, failing: list[tuple],
            describe: Callable[..., str]) -> CheckResult:
    """`checked` cases with these failing keys; describe(*key) names each of the first five."""
    failures = [describe(*key) for key in sorted(failing)[:5]]
    return CheckResult(name, bound, checked, passed=not failing, failures=failures)


def _settled(laws: tuple, max_n: int, walk: bool) -> list[CheckResult]:
    """One result per (name, bound, count) law, at max_n, passing exactly when the walk holds."""
    return [CheckResult(name, bound.format(max_n), count(max_n), passed=walk,
                        failures=[] if walk else [OFF_WALK]) for name, bound, count in laws]


def _timed(check: Callable[..., CheckResult], *args) -> CheckResult:
    started = time.perf_counter()
    result = check(*args)
    result.ms = (time.perf_counter() - started) * 1000
    return result


# ---------------------------------------------------------------------------
# identity checks


def _pell_steps(b: list[int], c: list[int], p: list[int], q: list[int]) -> bool:
    """b, c and p, q are prefixes of the walks (B, C) -> (3B + C, 8B + 3C)
    and (P, Q) -> (P + Q, 2P + Q), both from (0, 1).

    The lists may differ in length; each term is compared with its walk's
    as the walks go, and each walk stops at the end of its own longer list
    (see the module docstring).
    """
    x, y = 0, 1
    for k in range(max(len(b), len(c))):
        if k < len(b) and b[k] != x or k < len(c) and c[k] != y:
            return False
        x, y = 3 * x + y, 8 * x + 3 * y
    x, y = 0, 1
    for k in range(max(len(p), len(q))):
        if k < len(p) and p[k] != x or k < len(q) and q[k] != y:
            return False
        x, y = x + y, 2 * x + y
    return True


# the identity suite's premise-settled checks, in report order: (name, bound,
# number of cases), each law in its comment
IDENTITY_LAWS = (
    # B_n + B_m = 2*B_a*C_d for n, m = a + d, a - d; row d has the max_n + 1 - 2*d
    # cases d <= a <= max_n - d
    ("half-index-sum", "0 <= m <= n <= {}, same parity", lambda n: sum(range(n + 1, 0, -2))),
    # B_n - B_m = 2*B_d*C_a for n, m = a + d, a - d
    ("half-index-diff", "0 <= m <= n <= {}, same parity", lambda n: sum(range(n + 1, 0, -2))),
    # B_m = P_m*Q_m
    ("pell-product", "0 <= m <= {}", lambda n: n + 1),
    # B_{2n} = 2*B_n*C_n
    ("index-doubling", "0 <= n <= {}", lambda n: n + 1),
    # 8*B_n**2 + 1 = C_n**2
    ("square-plus-one", "0 <= n <= {}", lambda n: n + 1),
    # B_{x+y} = B_x*C_y + C_x*B_y
    ("addition-formula", "0 <= x, y <= {}", lambda n: (n + 1) ** 2),
    # C_n odd, as C_n**2 = 8*B_n**2 + 1
    ("lucas-odd", "0 <= n <= {}", lambda n: n + 1),
)


def check_closed_form(max_n: int, b: list[int], c: list[int]) -> CheckResult:
    """Closed-form extraction agrees with plain iteration, term by term."""
    failing = [(n,) for n in range(max_n + 1) if binet_extract(n) != (b[n], c[n])]
    return _result("closed-form-agreement", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "closed form disagrees at n={0}".format)


def check_unit_norm(max_n: int) -> CheckResult:
    """alpha is a unit: norm(alpha**n) = 1 for every n, alpha**n an int pair stepped by alpha."""
    c, d = ALPHA
    a, b = 1, 0
    failing = []
    for n in range(max_n + 1):
        if a * a - 2 * b * b != 1:
            failing.append((n,))
        a, b = a * c + 2 * b * d, a * d + b * c
    return _result("unit-norm", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "norm(alpha^{0}) != 1".format)


# ---------------------------------------------------------------------------
# gcd structure checks


# the gcd suite's checks, all premise-settled, as IDENTITY_LAWS
GCD_LAWS = (
    # gcd(B_n, B_m) = B_gcd(n, m)
    ("gcd-balancing", "1 <= n, m <= {}", lambda n: n * n),
    # gcd(C_n, C_m) = C_gcd(n, m) where v_2(n) = v_2(m), else 1
    ("gcd-lucas", "1 <= n, m <= {}", lambda n: n * n),
    # gcd(B_n, C_m) = C_gcd(n, m) where v_2(n) > v_2(m), else 1
    ("gcd-mixed", "1 <= n, m <= {}", lambda n: n * n),
    # gcd(P_n, Q_n) = 1
    ("pell-coprime", "1 <= n <= {}", lambda n: n),
)


# ---------------------------------------------------------------------------
# modular checks


# B_0, ..., B_11 mod 9
MOD9_TABLE = (0, 1, 6, 8, 6, 1, 0, 8, 3, 1, 3, 8)


def check_mod9_table(max_n: int) -> CheckResult:
    """B_n mod 9 is MOD9_TABLE[n % 12]: the sequence mod 9 repeats with period 12."""
    direct = residue_range(SequenceKind.BALANCING, max_n, 9)
    failing = [(n,) for n in range(max_n + 1) if MOD9_TABLE[n % 12] != direct[n]]
    return _result("mod9-table", f"0 <= n <= {max_n}", max_n + 1, failing,
                   "mod-9 table wrong at n={0}".format)


def check_two_adic(max_n: int) -> CheckResult:
    """2**k | B_n exactly when 2**k | n, for 1 <= k <= 8.

    One walk gives B_n mod 2**8; reducing it mod 2**k (which divides 2**8)
    gives B_n mod 2**k, so every (n, k) case is still decided exactly.  For
    k <= 8, 2**k | x exactly when k <= min(v_2(x), 8), and (x | 256) & -(x |
    256) is 2**min(v_2(x), 8).  So the eight cases of n all hold exactly when
    that value is the same for B_n and for n; only an n where it differs is
    decided case by case.
    """
    b = residue_range(SequenceKind.BALANCING, max_n, 1 << 8)
    masks = [(k, (1 << k) - 1) for k in range(1, 9)]
    failing = [(n, k) for n, bn in enumerate(b[1:], 1)
               if (bn | 256) & -(bn | 256) != (n | 256) & -(n | 256)
               for k, mask in masks if (bn & mask == 0) != (n & mask == 0)]
    return _result("two-adic-law", f"1 <= n <= {max_n}, 1 <= k <= 8", 8 * max_n, failing,
                   "2^{1} | B_{0} does not match 2^{1} | {0}".format)


def check_period_consistency(max_mu: int) -> CheckResult:
    """Periods restart the residue stream and divide the periods of multiples.

    Two independent computations check each other: `period` finds t as the
    order of the step map mod mu, from the factors of mu and fast doubling,
    and the stream case confirms the restart at t against a residue walk,
    one step at a time.  The case for mu holds when the stream mod mu to
    index 2*t repeats from t: stream[:t + 1] == stream[t:2*t + 1].

    One walk W serves every mu: B to index 2*T mod L, where L is the lcm of
    the moduli and T the largest period (no moduli: L = 1 and T = 0).  Its
    premise, tested once, is that W starts at (0, 1 % L) and steps as
    W_{k+2} = 6*W_{k+1} - W_k mod L.  Where it holds, W mod mu is the walk
    mod mu, as mu | L, and the case for mu holds exactly when (W_t, W_{t+1})
    is (0, 1) mod mu: a second-order recurrence that returns to its start
    at t repeats from t, and places 0 and 1 of the two halves read the
    converse (see the module docstring).  Where it fails, each case
    compares the halves of W mod mu literally.

    Keys (0, mu, t) of stream cases sort before keys (1, mu, nu) of divisibility cases.
    """
    periods = {mu: period(mu).period for mu in range(2, max_mu + 1)}
    modulus = lcm(*periods)
    stream = residue_range(SequenceKind.BALANCING, 2 * max(periods.values(), default=0),
                           modulus)
    walk = stream[:2] == [0, 1 % modulus] and stream[2:] == [
        (6 * v - u) % modulus for u, v in zip(stream, stream[1:-1])]
    if walk:
        failing = [(0, mu, t) for mu, t in periods.items()
                   if (stream[t] % mu, stream[t + 1] % mu) != (0, 1)]
    else:
        failing = [(0, mu, t) for mu, t in periods.items()
                   if (residues := [w % mu for w in stream[:2 * t + 1]])[:t + 1] != residues[t:]]
    # one divisibility case per multiple nu = 2*mu, 3*mu, ... <= max_mu
    checked = len(periods) + sum(max_mu // mu - 1 for mu in periods)
    failing += [(1, mu, nu) for mu, t in periods.items()
                for nu in range(2 * mu, max_mu + 1, mu) if periods[nu] % t != 0]
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


def _read_and_walk(b_hi: int, max_n: int) -> tuple[list[int], list[int], list[int], list[int],
                                                   bool]:
    """B to b_hi, C, P and Q to max_n, and whether they follow the Pell walks."""
    b = values_up_to(SequenceKind.BALANCING, b_hi)
    c, p, q = (values_up_to(kind, max_n) for kind in (
        SequenceKind.LUCAS_BALANCING, SequenceKind.PELL, SequenceKind.ASSOCIATED_PELL))
    return b, c, p, q, _pell_steps(b, c, p, q)


def identity_suite(max_n: int) -> list[CheckResult]:
    b, c, p, q, walk = _read_and_walk(2 * max_n, max_n)
    return [
        *_settled(IDENTITY_LAWS, max_n, walk),
        _timed(check_closed_form, max_n, b, c),
        _timed(check_unit_norm, min(max_n, 200)),
    ]


def gcd_suite(max_n: int) -> list[CheckResult]:
    return _settled(GCD_LAWS, max_n, _read_and_walk(max_n, max_n)[-1])


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
