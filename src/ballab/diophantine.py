"""Bounded exhaustive searches for perfect powers built from balancing numbers.

Four pair equations over indices 0 <= m <= n <= max_index (strict m < n for
the difference forms):

    sum-power        B_n + B_m        = x**q
    square-diff      B_n**2 - B_m**2  = x**q   (coprime terms)
    cube-sum-plus    B_n**3 + B_m**3  = x**q   (coprime terms, q >= 3)
    cube-sum-minus   B_n**3 - B_m**3  = x**q   (coprime terms, q >= 3)

plus single-sequence scans for terms of the shape p**s * x**b and the
product form B_N * C_M = 2**p * x**q.  Every search is an exact bounded
verification: values are evaluated with big integers, and a deliberately
dumb oracle re-solves small instances for equivalence testing.

Power detection is one test, _maybe_decompose, giving the maximal-exponent
decomposition (base, exponent).  It restricts the candidate exponents by
small-prime valuations, read off the gcd chain of step 1 below, then runs
the modular residue sieve ahead of each exact root; neither step ever
discards a true power.

Ahead of it, the pair and product searches reject most pairs in index space.
With P, Q the Pell and associated Pell numbers, s = n + m and t = n - m,
each value is a product of two terms of known index (Behera-Panda 1999):

    B_n + B_m        = P_s Q_t  (t even),  Q_s P_t  (t odd)
    B_n - B_m        = Q_s P_t  (t even),  P_s Q_t  (t odd)
    B_n**2 - B_m**2  = B_s B_t
    B_n**3 +- B_m**3 = (B_n +- B_m) * F,  gcd(B_n +- B_m, F) | 3 for coprime terms
    B_N * C_M        itself

The cube forms are split by their first factor B_n +- B_m.  For coprime
terms and m > 0, F = B_n**2 -+ B_n B_m + B_m**2 is 3 B_m**2 modulo it and
gcd(B_n +- B_m, B_m) = gcd(B_n, B_m) = 1, so gcd(B_n +- B_m, F) divides 3:
no prime >= 5 divides both factors.  So the value is a q-th power only if
that factor's rest is, and a prime 5..199 dividing that factor has the same
valuation in the value.  A pair with m = 0 is the point s = t of its row,
B_t + B_0 = P_t Q_t; there gcd(B_t, F) = B_t (6 at t = 2), but coprime
terms keep only t = 1, 2, and B_1 = P_1 Q_1 = 1, B_2 = P_2 Q_2 = 6 have
rest 1 and no prime >= 5.

The gcd laws (Panda 2009) name the common factor of the two terms, with d
the gcd of their indices: gcd(B_a, B_b) = B_d; gcd(P_a, Q_b) = Q_d when
v2(a) > v2(b), else 1; gcd(B_N, C_M) = C_d when v2(N) > v2(M), else 1.
The rest of a term is what is left once the primes <= 199 are divided out.
A q-th power has q dividing its valuation at every prime, so a pair is
rejected without building its value when
- the common factor's rest is 1, so the two rests share no prime and both
  must be q-th powers, and their exponents have gcd 1; or
- a prime <= 199 divides one term exactly once and not the other, so it
  divides the value exactly once (the cube forms read the primes 5..199,
  by the argument above; product-form leaves out the 2, which it splits off).

The searches walk index space by rows: a row is one index b of one term (t,
or M for product-form), and its pairs run over the other index a (s, or N).
Lazily filled per-index tables decide the rules from exact certificates and
read a costly quantity only where the answer can change:
1. Strip by gcd.  Level 1 = gcd(term, product of the primes <= 199) holds
   each small prime of the term once; dividing by level i, then taking
   level i + 1 = gcd(what is left, level i) until that is 1, leaves the
   rest.  Level i is the product of the small primes of valuation >= i, so
   the chain holds every small valuation.  The valued primes of level 1
   are the support; those not in level 2 have valuation 1 (the lone part).
2. Lone primes in the rows.  The second rule is decided on the table: the
   rows skip a pair unless each lone part divides the other term's support.
3. Exponents only where read.  The row term's exponent e_y picks its row; a
   partner's exponent e_x is read only when the common factor's rest is 1
   and e_y != 1, and the pair is kept when gcd(e_x, e_y) != 1.
4. Exponent 1 by inheritance.  If rest_d has exponent 1 and divides rest_k
   with a quotient coprime to it, rest_k has exponent 1, since the maximal
   exponent of a product of coprime factors is the gcd of theirs.  Both
   conditions are checked; d = k/p, p the smallest prime of k (odd for C
   and Q), is tried since then term d divides term k.  A divisor table
   built once per table, by slices over the primes <= 199, holds that p
   for every k (the odd part of k when no such prime divides it).
5. Sparse rows by common factor.  The gcd law, read by table: the factor
   comes from one table (Q, B or C), and is named when the other term's
   index has the larger v2 (v2(0) infinite), or always when both terms are
   from that table.  When the row term's exponent is 1, the first rule
   keeps a pair only if the named factor's rest is not 1.  A row whose term
   alone is from that table visits only the multiples a of 2d with
   gcd(a, b) = d, for the divisors d of b with v2(d) = v2(b) and such a
   factor.  A pair row visits no a for odd t (s odd too) unless both terms
   are B's, nor under coprime terms (gcd(s, t) | 2; B_1, B_2, Q_1, Q_2
   have rest 1).  Other rows visit every pair.
The paper's hypotheses are rules on a row's indices: --parity keeps the rows
of its class of t (same parity is even t), and coprime terms keep the s with
gcd(m, t) = 1, m = (s - t)/2.

x = 1 satisfies any exponent, so those hits are emitted once as an exponent
family (all q >= the configured minimum) instead of infinitely many tuples.
"""

from __future__ import annotations

import math
from enum import Enum

from . import Value
from .bigmath import integer_kth_root, is_prime, primes_up_to, strip_prime
from .modular import power_residue_sieve
from .sequences import SequenceKind, term, values_up_to

ORACLE_MAX_INDEX = 40

COPRIME_ZERO_EXEMPT_NOTE = (
    "coprimality convention: gcd(x, 0) = x, so a zero term can only pass the "
    "literal gcd test next to a 1; the zero-exemption additionally accepts a "
    "partner equal to 6, matching the published solution list for the "
    "square-difference equation"
)


class Parity(Enum):
    SAME = "same"
    OPPOSITE = "opposite"
    ANY = "any"


class EquationTag(Enum):
    SUM_POWER = "sum-power"
    SQUARE_DIFF = "square-diff"
    CUBE_SUM_PLUS = "cube-sum-plus"
    CUBE_SUM_MINUS = "cube-sum-minus"


class SearchConfig(Value):
    __slots__ = ("max_index", "min_exponent", "parity_filter", "coprimality_required",
                 "coprime_zero_exempt")

    def __init__(self, max_index: int, min_exponent: int = 2,
                 parity_filter: Parity = Parity.ANY, coprimality_required: bool = False,
                 coprime_zero_exempt: bool = True) -> None:
        if max_index < 1:
            raise ValueError("max_index must be >= 1")
        if min_exponent < 2:
            raise ValueError("min_exponent must be >= 2")
        self.max_index, self.min_exponent, self.parity_filter = (
            max_index, min_exponent, parity_filter)
        self.coprimality_required, self.coprime_zero_exempt = (
            coprimality_required, coprime_zero_exempt)

    def to_dict(self) -> dict:
        # The residue sieve always runs; sieve_enabled keeps record bounds and
        # summary configs byte-stable.
        return {"max_index": self.max_index, "min_exponent": self.min_exponent,
                "parity_filter": self.parity_filter.value,
                "coprimality_required": self.coprimality_required,
                "coprime_zero_exempt": self.coprime_zero_exempt, "sieve_enabled": True}


class SolutionRecord(Value):
    """One solution tuple (n, m, x, q), exact or as an exponent family.

    Exactly one of exponent / family_min_exponent is set.  Family records
    arise only for x = 1 (value 1 is x**q for every q) and stand for all
    exponents q >= family_min_exponent.
    """

    __slots__ = ("equation", "n", "m", "x", "exponent", "family_min_exponent", "bounds")

    def __init__(self, equation: EquationTag, n: int, m: int, x: int, exponent: int | None,
                 family_min_exponent: int | None, bounds: SearchConfig) -> None:
        if (exponent is None) == (family_min_exponent is None):
            raise ValueError("exactly one of exponent / family_min_exponent must be set")
        self.equation, self.n, self.m, self.x = equation, n, m, x
        self.exponent, self.family_min_exponent, self.bounds = (
            exponent, family_min_exponent, bounds)

    @property
    def is_family(self) -> bool:
        return self.exponent is None

    def verify(self) -> bool:
        """Re-evaluate the equation for this record with direct arithmetic."""
        bn = term(SequenceKind.BALANCING, self.n)
        bm = term(SequenceKind.BALANCING, self.m)
        value = _pair_value(self.equation, bn, bm)
        if self.is_family:
            return value == 1 and self.x == 1
        return self.x >= 1 and self.x ** self.exponent == value

    def to_dict(self) -> dict:
        d: dict = {"equation": self.equation.value, "n": self.n, "m": self.m,
                   "x": str(self.x)}
        if self.exponent is not None:
            d["q"] = self.exponent
        else:
            d["q_family_min"] = self.family_min_exponent
        d["bounds"] = self.bounds.to_dict()
        return d


class SpecialFormRecord(Value):
    """Index n where the sequence term equals prime**s * x**b."""

    __slots__ = ("kind", "prime", "n", "prime_exponent", "x", "exponent",
                 "family_min_exponent")

    def __init__(self, kind: SequenceKind, prime: int, n: int, prime_exponent: int, x: int,
                 exponent: int | None, family_min_exponent: int | None) -> None:
        self.kind, self.prime, self.n, self.prime_exponent = kind, prime, n, prime_exponent
        self.x, self.exponent, self.family_min_exponent = x, exponent, family_min_exponent

    def verify(self) -> bool:
        value = term(self.kind, self.n)
        lead = self.prime ** self.prime_exponent
        if self.exponent is None:
            return self.x == 1 and value == lead
        return value == lead * self.x ** self.exponent

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind.value, "prime": self.prime, "n": self.n,
                   "s": self.prime_exponent, "x": str(self.x)}
        if self.exponent is not None:
            d["b"] = self.exponent
        else:
            d["b_family_min"] = self.family_min_exponent
        return d


class ProductFormRecord(Value):
    """Pair (N, M) with B_N * C_M = 2**two_exponent * x**exponent-th power."""

    __slots__ = ("n", "m", "two_exponent", "x", "exponent")

    def __init__(self, n: int, m: int, two_exponent: int, x: int, exponent: int) -> None:
        self.n, self.m, self.two_exponent, self.x, self.exponent = (
            n, m, two_exponent, x, exponent)

    def verify(self) -> bool:
        value = term(SequenceKind.BALANCING, self.n) * term(SequenceKind.LUCAS_BALANCING, self.m)
        return value == 2 ** self.two_exponent * self.x ** self.exponent

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "two_exponent": self.two_exponent,
                "x": str(self.x), "q": self.exponent}


# ---------------------------------------------------------------------------
# shared search machinery


def _pair_value(tag: EquationTag, bn: int, bm: int) -> int:
    if tag is EquationTag.SUM_POWER:
        return bn + bm
    if tag is EquationTag.SQUARE_DIFF:
        return bn * bn - bm * bm
    if tag is EquationTag.CUBE_SUM_PLUS:
        return bn ** 3 + bm ** 3
    return bn ** 3 - bm ** 3


# Primes divided out before any root is taken.  What is left has only prime
# factors >= 211, so a p-th root of it is >= 211.
_SMALL_PRIMES = primes_up_to(199)
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _strip_small(v: int) -> tuple[int, list[int]]:
    """(rest, levels) of v >= 1: the module docstring's step 1.

    levels[i - 1] is the product of the primes <= 199 whose valuation in v
    is at least i; a v with no such prime is its own rest, with no levels.
    """
    if v < 1:
        raise ValueError(f"value must be >= 1, got {v}")
    levels = []
    h = math.gcd(v, _PRIMORIAL)
    # v itself when h == 1, not a copy: v // 1 would build a second big integer
    while h > 1:
        levels.append(h)
        v //= h
        h = math.gcd(v, h)
    return v, levels


def _root_exponent_cap(rest: int) -> int:
    """Largest p that can have 211**p <= rest: p < bits / log2(211), and log2(211) > 7.7."""
    return (10 * rest.bit_length() - 1) // 77


def _root_out(rest: int, g: int) -> tuple[int, int]:
    """(r, e) with r**e = rest > 1 and e the largest divisor of g admitting a root.

    rest has no prime factor <= 199, and g = 0 admits every exponent.  Each
    candidate prime meets the modular residue sieve before its exact root.
    """
    # Ascending primes, each retried until it fails: once rest is not a
    # p-th power, none of its roots is, so no prime needs a second pass.
    exponent = 1
    cap = _root_exponent_cap(rest)
    # one cached prime fill per power-of-two limit, not one per cap
    for p in primes_up_to(1 << cap.bit_length()):
        if p > cap:
            break
        while g % p == 0:
            if not power_residue_sieve(rest, p):
                break
            r = integer_kth_root(rest, p)
            if r ** p != rest:
                break
            rest, exponent, g = r, exponent * p, g // p
            cap = _root_exponent_cap(rest)
    return rest, exponent


def _maybe_decompose(value: int) -> tuple[int, int] | None:
    """Maximal (base, exponent) of value >= 2, or None when value is no perfect power.

    If value = x**q, then q divides the valuation of value at every prime.
    The valuations at the primes <= 199 are read off _strip_small's levels:
    some prime has valuation i exactly where level i differs from level
    i + 1, so a lone small prime (level 1 != level 2) gives g = 1 and
    rejects value outright.  Otherwise only the primes dividing g, the gcd
    of those i (every prime when g = 0), remain candidate exponents for what
    is left.  The small part of the base for exponent e is the product of
    levels e, 2e, 3e, ...
    """
    rest, levels = _strip_small(value)
    levels.append(1)
    g = math.gcd(*(i for i in range(1, len(levels)) if levels[i - 1] != levels[i]))
    if g == 1:
        return None
    rest, exponent = (1, g) if rest == 1 else _root_out(rest, g)
    if exponent == 1:
        return None
    return rest * math.prod(levels[exponent - 1::exponent]), exponent


def _power_hits(found: tuple[int, int] | None, min_exponent: int) -> list[tuple[int, int]]:
    """(x, q) with x**q = base**exponent for each divisor q >= min_exponent, ascending.

    found is _maybe_decompose's result; None has no hits.
    """
    if found is None:
        return []
    base, e = found
    return [(base ** (e // q), q) for q in range(min_exponent, e + 1) if e % q == 0]


def _verified(records: list) -> list:
    """records, once each has re-evaluated its equation with direct arithmetic."""
    for rec in records:
        if not rec.verify():
            raise ArithmeticError(f"emitted record fails re-verification: {rec}")
    return records


# ---------------------------------------------------------------------------
# index space


class _Entry:
    """A term's rest, support and lone part, and its rest exponent (0 for rest 1) once read."""

    __slots__ = ("rest", "support", "lone", "exponent", "prior")

    # support: the primes of valued dividing the term; lone: those dividing it once.
    # prior: the entry of a term dividing this one, if there was one
    def __init__(self, value: int, valued: int, prior: _Entry | None = None) -> None:
        self.prior = prior
        self.rest, levels = _strip_small(value)
        if levels:
            # level 1 over level 2 is the product of the primes dividing once
            once = levels[0]
            self.support = math.gcd(once, valued)
            self.lone = math.gcd(once // levels[1] if len(levels) > 1 else once, valued)
        else:
            self.support = self.lone = 1
        self.exponent = 0 if self.rest == 1 else None

    def full_exponent(self) -> int:
        """The rest's exponent, certified 1 by inheritance from prior (step 4) where it can."""
        if self.exponent is None:
            prior, r, left = self.prior, 0, 1
            if prior is not None and prior.full_exponent() == 1:
                r, left = divmod(self.rest, prior.rest)
            inherits = left == 0 and math.gcd(r, prior.rest) == 1
            self.exponent = 1 if inherits else _root_out(self.rest, 0)[1]
        return self.exponent


def _divisor_table(hi: int, primes: list[int]) -> list[int]:
    """p[k] for 0 <= k <= hi: the least of primes dividing k, else the odd part of k."""
    p = [k // (k & -k) if k else 0 for k in range(hi + 1)]
    # descending, so the least prime dividing k is written last
    for ell in reversed(primes):
        p[::ell] = [ell] * (hi // ell + 1)
    return p


class _Terms(dict):
    """Index k -> _Entry of one sequence's k-th term (nonzero), filled on first use.

    The divisor table names each entry's prior, term k // divisor[k] (step 4).
    """

    def __init__(self, kind: SequenceKind, hi: int, valued: int = _PRIMORIAL) -> None:
        super().__init__()
        self.values = values_up_to(kind, hi)
        self.valued = valued
        # term k/p divides term k for a prime p | k; for C and Q only when p is odd
        self.divisor = _divisor_table(hi, _SMALL_PRIMES[kind in (SequenceKind.LUCAS_BALANCING,
                                                                 SequenceKind.ASSOCIATED_PELL):])

    def __missing__(self, k: int) -> _Entry:
        p = self.divisor[k]
        entry = self[k] = _Entry(self.values[k], self.valued, self[k // p] if 1 < p < k else None)
        return entry


def _sparse_row(common: _Terms, b: int, span: range) -> list[int]:
    """The a in span with v2(a) > v2(b) and common[gcd(a, b)].rest > 1 (step 5)."""
    low = b & -b
    odd = b // low
    row = []
    for f in range(1, math.isqrt(odd) + 1, 2):
        if odd % f:
            continue
        for d in {f * low, odd // f * low}:
            if common[d].rest > 1:
                row.extend(a for a in range(-(-span.start // (2 * d)) * 2 * d, span.stop, 2 * d)
                           if math.gcd(a, b) == d)
    return row


def _scan(visits, solve) -> list:
    """Records of solve(n, m) over the visited pairs that index space cannot reject, verified.

    visits yields (n, m, x, y, shared) as _row_visits does; the scan applies
    the module docstring's first rule, reading x's exponent only when y's is
    not 1.  Survivors are solved in (n, m) order, so records come out sorted.
    """
    keep = [(n, m) for n, m, x, y, shared in visits
            if shared or y.exponent != 1 and math.gcd(x.full_exponent(), y.exponent) != 1]
    return _verified([rec for n, m in sorted(keep) for rec in solve(n, m)])


def _row_visits(rows, common: _Terms):
    """Visits (a, b, x, y, shared) of rows (b, ys, xs, span): steps 2 and 5.

    Row b pairs y = ys[b], exponent read, with each x = xs[a], a in span (a
    range with every even number between its ends if the row can be sparse).
    shared: the gcd law, from common (ys or xs), names a factor of rest > 1.
    """
    for b, ys, xs, span in rows:
        y = ys[b]
        # step 5: the gcd law by table, and the sparse rows; x & -x is 2**v2(x)
        low = b & -b or math.inf
        above = 0 if xs is common else low
        below = math.inf if ys is common else low
        if y.full_exponent() == 1 and xs is not common:
            span = _sparse_row(common, b, span)
        support, lone = y.support, y.lone
        for a in span:
            x = xs[a]
            if support % x.lone == 0 and x.support % lone == 0:
                yield a, b, x, y, above < (a & -a) < below and common[math.gcd(a, b)].rest > 1


def _pair_tables(tag: EquationTag, cfg: SearchConfig) -> tuple[_Terms, _Terms, list[int]]:
    """(p, q, b): a pair search's two tables over 0..2*max_index, and B over 0..max_index or more.

    Square-diff's one table is B itself, so its values serve as b.
    """
    hi = 2 * cfg.max_index
    if tag is EquationTag.SQUARE_DIFF:
        p = q = _Terms(SequenceKind.BALANCING, hi)
        return p, q, p.values
    valued = _PRIMORIAL if tag is EquationTag.SUM_POWER else _PRIMORIAL // 6
    return (_Terms(SequenceKind.PELL, hi, valued), _Terms(SequenceKind.ASSOCIATED_PELL, hi, valued),
            values_up_to(SequenceKind.BALANCING, cfg.max_index))


def _pair_visits(tag: EquationTag, cfg: SearchConfig, p: _Terms, q: _Terms):
    """Visits (see _scan) of a pair search: the walker's rows t = n - m over s = n + m.

    p and q are _pair_tables' tables.  A row starts at s = t, which is
    m = 0; sum-power's n = m = 0 has value 0 and is not visited.
    """
    hi = 2 * cfg.max_index
    minus = tag is EquationTag.CUBE_SUM_MINUS
    # the values of t % 2 that --parity keeps: same parity is even t
    classes = {Parity.SAME: (0,), Parity.OPPOSITE: (1,), Parity.ANY: (0, 1)}[cfg.parity_filter]

    def rows():
        for t in range(0 if tag is EquationTag.SUM_POWER else 1, cfg.max_index + 1):
            if t % 2 not in classes:
                continue
            xs, ys = (p, q) if (t % 2 == 0) != minus else (q, p)
            # the exponent-1 rows that visit no a (step 5)
            if ys[t].full_exponent() == 1 and (cfg.coprimality_required or t % 2 and p is not q):
                continue
            span = range(t or 2, hi - t + 1, 2)
            if cfg.coprimality_required:
                # gcd(B_n, B_m) = B_gcd(n,m) and gcd(n, m) = gcd(m, t), and
                # B_k = 1 only at k = 1; the zero exemption adds its one extra
                # pair, (n, m) = (2, 0) with gcd B_2 = 6, which is s = t = 2
                span = [s for s in span if math.gcd((s - t) // 2, t) == 1
                        or cfg.coprime_zero_exempt and s == t == 2]
            yield t, ys, xs, span

    for s, t, x, y, shared in _row_visits(rows(), q):
        yield (s + t) // 2, (s - t) // 2, x, y, shared


def _product_visits(b: _Terms, c: _Terms):
    """Visits (see _scan) of product-form: the walker's rows M over every N, common from C."""
    span = range(1, len(b.values))
    return _row_visits(((m, c, b, span) for m in span), c)


def _run_pair_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    *tables, b = _pair_tables(tag, cfg)

    def solve(n: int, m: int) -> list[SolutionRecord]:
        value = _pair_value(tag, b[n], b[m])
        if value == 1:
            return [SolutionRecord(tag, n, m, x=1, exponent=None,
                                   family_min_exponent=cfg.min_exponent, bounds=cfg)]
        return [SolutionRecord(tag, n, m, x=x, exponent=q, family_min_exponent=None, bounds=cfg)
                for x, q in _power_hits(_maybe_decompose(value), cfg.min_exponent)]

    return _scan(_pair_visits(tag, cfg, *tables), solve)


# ---------------------------------------------------------------------------
# public searchers
#
# Each one scans its indices in ascending order and the exponents of a hit in
# ascending order, so records come out sorted with no sort step.


def search_sum_power(cfg: SearchConfig) -> list[SolutionRecord]:
    """All hits of B_n + B_m = x**q over 0 <= m <= n <= max_index.

    The parity filter selects the index classes to scan; only the same-parity
    class has a known complete solution list, so other modes are exploratory.
    """
    return _run_pair_search(EquationTag.SUM_POWER, cfg)


def search_square_diff(cfg: SearchConfig) -> list[SolutionRecord]:
    """All hits of B_n**2 - B_m**2 = x**q over n > m >= 0 with coprime terms."""
    if not cfg.coprimality_required:
        raise ValueError("the square-difference equation carries the coprimality hypothesis")
    return _run_pair_search(EquationTag.SQUARE_DIFF, cfg)


def search_cube_sum(cfg: SearchConfig, sign: str) -> list[SolutionRecord]:
    """All hits of B_n**3 +/- B_m**3 = x**q over n > m >= 0 with coprime terms."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if cfg.min_exponent < 3:
        raise ValueError("the cube equation needs min_exponent >= 3")
    if not cfg.coprimality_required:
        raise ValueError("the cube equation carries the coprimality hypothesis")
    tag = EquationTag.CUBE_SUM_PLUS if sign == "+" else EquationTag.CUBE_SUM_MINUS
    return _run_pair_search(tag, cfg)


def search_special_form(kind: SequenceKind, p: int, cfg: SearchConfig) -> list[SpecialFormRecord]:
    """Indices n in [1, max_index] whose term equals p**s * x**b, b >= min_exponent.

    kind is balancing or Lucas-balancing.  p = 2 and p = 3 are the cases with
    known complete answers; any other prime runs the same bounded scan as
    exploration, with no completeness claim attached.
    """
    if kind not in (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING):
        raise ValueError("special-form scan covers balancing and Lucas-balancing kinds only")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    vals = values_up_to(kind, cfg.max_index)
    out: list[SpecialFormRecord] = []
    for n in range(1, cfg.max_index + 1):
        s, rest = strip_prime(p, vals[n])
        if rest == 1:
            out.append(SpecialFormRecord(kind, p, n, s, x=1, exponent=None,
                                         family_min_exponent=cfg.min_exponent))
            continue
        for x, b in _power_hits(_maybe_decompose(rest), cfg.min_exponent):
            out.append(SpecialFormRecord(kind, p, n, s, x=x, exponent=b,
                                         family_min_exponent=None))
    return _verified(out)


def search_product_form(cfg: SearchConfig) -> list[ProductFormRecord]:
    """Pairs (N, M) in [1, max_index]**2 with B_N * C_M = 2**p * x**q, q >= min_exponent."""
    b = _Terms(SequenceKind.BALANCING, cfg.max_index, _PRIMORIAL // 2)
    c = _Terms(SequenceKind.LUCAS_BALANCING, cfg.max_index, _PRIMORIAL // 2)

    def solve(n: int, m: int) -> list[ProductFormRecord]:
        s, odd = strip_prime(2, b.values[n] * c.values[m])
        if odd == 1:
            # unreachable for m >= 1: the odd C_m >= 3 divides the odd part
            raise ArithmeticError(f"pure power of two at ({n}, {m})")
        return [ProductFormRecord(n=n, m=m, two_exponent=s, x=x, exponent=q)
                for x, q in _power_hits(_maybe_decompose(odd), cfg.min_exponent)]

    return _scan(_product_visits(b, c), solve)


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    """Slow independent re-solve of a pair equation for equivalence testing.

    Direct big-integer evaluation plus a full exponent scan via integer
    k-th roots: no sieve, no factor analysis, no identity shortcut.  The
    index bound is capped so an accidental production-size run fails fast.
    Its loops emit records in (n, m, q) order, as the searches do.
    """
    if cfg.max_index > ORACLE_MAX_INDEX:
        raise ValueError(f"oracle is bounded to max_index <= {ORACLE_MAX_INDEX}")
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    include_diagonal = tag is EquationTag.SUM_POWER
    out: list[SolutionRecord] = []
    for n in range(cfg.max_index + 1):
        top = n + 1 if include_diagonal else n
        for m in range(top):
            if cfg.parity_filter is not Parity.ANY and \
                    ((n - m) % 2 == 0) != (cfg.parity_filter is Parity.SAME):
                continue
            if cfg.coprimality_required:
                # the literal gcd test, with the zero exemption's one extra partner
                exempt = b[m] == 0 and cfg.coprime_zero_exempt and b[n] == 6
                if math.gcd(b[n], b[m]) != 1 and not exempt:
                    continue
            value = _pair_value(tag, b[n], b[m])
            if value <= 0:
                continue
            if value == 1:
                out.append(SolutionRecord(tag, n, m, x=1, exponent=None,
                                          family_min_exponent=cfg.min_exponent, bounds=cfg))
                continue
            for q in range(cfg.min_exponent, value.bit_length()):
                r = integer_kth_root(value, q)
                if r ** q == value:
                    out.append(SolutionRecord(tag, n, m, x=r, exponent=q,
                                              family_min_exponent=None, bounds=cfg))
    return out
