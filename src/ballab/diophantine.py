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
small-prime valuations, then runs the modular residue sieve ahead of each
exact root; neither step ever discards a true power.

Ahead of it, the pair and product searches reject most pairs in index space.
With P, Q the Pell and associated Pell numbers, s = n + m and t = n - m,
each value is a product of two terms of known index (Behera-Panda 1999):

    B_n + B_m        = P_s Q_t  (t even),  Q_s P_t  (t odd)
    B_n - B_m        = Q_s P_t  (t even),  P_s Q_t  (t odd)
    B_n**2 - B_m**2  = B_s B_t
    B_n**3 +- B_m**3 = (B_n +- B_m) * F,  gcd(B_n +- B_m, F) | 3 for coprime terms
    B_N * C_M        itself

and the gcd laws (Panda 2009) name the common factor of the two terms, with
d the gcd of their indices: gcd(B_a, B_b) = B_d; gcd(P_a, Q_b) = Q_d when
v2(a) > v2(b), else 1; gcd(B_N, C_M) = C_d when N/d is even (v2(N) > v2(M)),
else 1.  The rest of a term is what is left once the primes <= 199 are
divided out; per-index tables hold each rest's perfect-power exponent and the
term's valuations at those primes.  A q-th power has q dividing its valuation
at every prime, so a pair is rejected without building its value when
- the common factor's rest is 1, so the two rests share no prime and both
  must be q-th powers, and their exponents have gcd 1; or
- the two terms' summed valuations at the primes <= 199 have gcd 1 (not for
  the cube forms, whose second factor has no table; product-form leaves out
  the 2, which it splits off).

The searches walk index space by rows: a row is one index b of one term (t,
or M for product-form), and its pairs run over the other index a (s, or N).
When the row term's rest exponent is 1, the first rule rejects every pair
whose common factor is 1 by the gcd laws, so the row visits only
- the multiples of 2**(v2(b)+1), i.e. v2(a) > v2(b), for B_n + B_m (and the
  plus cube form through it) and for product-form;
- the a with v2(a) < v2(b) for B_n - B_m;
- no a at all for B_n +- B_m with odd t, since s and t then are both odd;
- no a at all under coprime terms, since gcd(s, t) | 2 and B_1, B_2, Q_1, Q_2
  have rest 1.
Other rows visit every pair.  --parity selects rows (same parity is even t),
and the coprime-terms filter is gcd(n, m) = 1, since gcd(B_n, B_m) = B_gcd(n,m).

x = 1 satisfies any exponent, so those hits are emitted once as an exponent
family (all q >= the configured minimum) instead of infinitely many tuples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

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


@dataclass(frozen=True)
class SearchConfig:
    max_index: int
    min_exponent: int = 2
    parity_filter: Parity = Parity.ANY
    coprimality_required: bool = False
    coprime_zero_exempt: bool = True

    def __post_init__(self) -> None:
        if self.max_index < 1:
            raise ValueError("max_index must be >= 1")
        if self.min_exponent < 2:
            raise ValueError("min_exponent must be >= 2")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["parity_filter"] = self.parity_filter.value
        # The residue sieve always runs; the key is a constant that keeps
        # record bounds and summary configs byte-stable for their readers.
        d["sieve_enabled"] = True
        return d


@dataclass(frozen=True)
class SolutionRecord:
    """One solution tuple (n, m, x, q), exact or as an exponent family.

    Exactly one of exponent / family_min_exponent is set.  Family records
    arise only for x = 1 (value 1 is x**q for every q) and stand for all
    exponents q >= family_min_exponent.
    """

    equation: EquationTag
    n: int
    m: int
    x: int
    exponent: int | None
    family_min_exponent: int | None
    bounds: SearchConfig

    def __post_init__(self) -> None:
        if (self.exponent is None) == (self.family_min_exponent is None):
            raise ValueError("exactly one of exponent / family_min_exponent must be set")

    @property
    def is_family(self) -> bool:
        return self.exponent is None

    def sort_key(self) -> tuple[int, int, int]:
        q = self.exponent if self.exponent is not None else self.family_min_exponent
        return (self.n, self.m, q)

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


@dataclass(frozen=True)
class SpecialFormRecord:
    """Index n where the sequence term equals prime**s * x**b."""

    kind: SequenceKind
    prime: int
    n: int
    prime_exponent: int
    x: int
    exponent: int | None
    family_min_exponent: int | None

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


@dataclass(frozen=True)
class ProductFormRecord:
    """Pair (N, M) with B_N * C_M = 2**two_exponent * x**exponent-th power."""

    n: int
    m: int
    two_exponent: int
    x: int
    exponent: int

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


def _parity_ok(parity: Parity, n: int, m: int) -> bool:
    if parity is Parity.SAME:
        return (n - m) % 2 == 0
    if parity is Parity.OPPOSITE:
        return (n - m) % 2 == 1
    return True


def _coprime_ok(n: int, m: int, cfg: SearchConfig) -> bool:
    """Whether B_n and B_m pass the coprimality filter, decided on the indices.

    gcd(B_n, B_m) = B_gcd(n,m), and B_k = 1 only at k = 1.  For m = 0 the
    literal test reads gcd(B_n, 0) = B_n, which lets a zero term sit next to
    B_1 = 1 only.  The exemption additionally accepts B_2 = 6, the one extra
    shared factor the index-halving factorization tolerates; this is what
    keeps the published (2, 0) square-difference solution in scope without
    admitting the trivial B_n**2 - 0 squares for every n.
    """
    if not cfg.coprimality_required:
        return True
    if m == 0:
        return n in (1, 2) if cfg.coprime_zero_exempt else n == 1
    return math.gcd(n, m) == 1


# Primes stripped by trial division before any root is taken.  What is left
# has only prime factors >= 211, so a p-th root of it is >= 211.
_SMALL_PRIMES = primes_up_to(199)


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
    The valuations at the primes <= 199 are folded into their gcd g: a single
    valuation of 1 rejects value outright, and otherwise only the primes
    dividing g (every prime when g = 0) remain candidate exponents for what
    is left.
    """
    g = 0
    small = []
    rest = value
    for ell in _SMALL_PRIMES:
        if rest % ell == 0:
            rest //= ell
            e = 1
            while rest % ell == 0:
                rest //= ell
                e += 1
            g = math.gcd(g, e)
            if g == 1:
                return None
            small.append((ell, e))
    if rest == 1:
        exponent = g
    else:
        rest, exponent = _root_out(rest, g)
    if exponent == 1:
        return None
    base = rest
    for ell, e in small:
        base *= ell ** (e // exponent)
    return base, exponent


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


class _Terms(dict):
    """Index k -> (rest exponent, small-prime valuations) of one sequence's k-th term.

    The rest is the term with the primes <= 199 divided out; exponent 0
    stands for rest 1, which is an e-th power for every e.  The valuations
    map each prime of `valued` that divides the term to its exponent.
    Entries are filled on first use; the term must be nonzero.
    """

    def __init__(self, kind: SequenceKind, hi: int,
                 valued: tuple[int, ...] = _SMALL_PRIMES) -> None:
        super().__init__()
        self.values = values_up_to(kind, hi)
        self.valued = valued

    def __missing__(self, k: int) -> tuple[int, dict[int, int]]:
        rest = self.values[k]
        vals = {}
        for ell in _SMALL_PRIMES:
            if rest % ell == 0:
                e = 0
                while rest % ell == 0:
                    rest //= ell
                    e += 1
                if ell in self.valued:
                    vals[ell] = e
        entry = self[k] = (0 if rest == 1 else _root_out(rest, 0)[1], vals)
        return entry


def _scan(visits, solve) -> list:
    """Records of solve(n, m) over the visited pairs that index space cannot reject, verified.

    visits yields (n, m, x, y, shared): the table entries of the two terms
    whose product is the pair's value, and the rest exponent of their common
    factor (0 for rest 1); x is None for a pair that is not split (m = 0).
    The two rejection rules are the module docstring's.  Survivors are
    solved in (n, m) order, so records come out sorted.
    """
    keep = []
    for n, m, x, y, shared in visits:
        if x is not None:
            (ex, vx), (ey, vy) = x, y
            if shared == 0 and math.gcd(ex, ey) == 1:
                continue
            g = 0
            for ell in vx.keys() | vy.keys():
                g = math.gcd(g, vx.get(ell, 0) + vy.get(ell, 0))
            if g == 1:
                continue
        keep.append((n, m))
    out = []
    for n, m in sorted(keep):
        out.extend(solve(n, m))
    return _verified(out)


def _pair_visits(tag: EquationTag, cfg: SearchConfig):
    """Visits (see _scan) of a pair search, by rows t = n - m over s = n + m.

    The cube forms are split by their first factor B_n +- B_m.  They require
    coprime terms, so its gcd with the second factor divides 3: at every
    prime >= 211 the value's valuation is one factor's alone, and the value
    is a q-th power only if the first factor's rest is.
    """
    hi = 2 * cfg.max_index
    minus, square = tag is EquationTag.CUBE_SUM_MINUS, tag is EquationTag.SQUARE_DIFF
    if square:
        p = q = _Terms(SequenceKind.BALANCING, hi)
    else:
        valued = _SMALL_PRIMES if tag is EquationTag.SUM_POWER else ()
        p = _Terms(SequenceKind.PELL, hi, valued)
        q = _Terms(SequenceKind.ASSOCIATED_PELL, hi, valued)
    for t in range(0 if tag is EquationTag.SUM_POWER else 1, cfg.max_index + 1):
        if not _parity_ok(cfg.parity_filter, t, 0):
            continue
        if _coprime_ok(t, 0, cfg):
            yield t, 0, None, None, None
        xs, ys = (p, q) if (t % 2 == 0) != minus else (q, p)
        y, low = ys[t], t & -t
        row = range(t + 2, hi - t + 1, 2)
        if y[0] == 1:
            # gcd(x, 1) = 1 for every s: only a common factor other than 1 keeps a pair
            if cfg.coprimality_required or (t % 2 and not square):
                continue
            if minus:
                row = [s for s in row if s % low]  # v2(s) < v2(t)
            elif not square:
                row = range(t + low, hi - t + 1, 2 * low)  # v2(s) > v2(t)
        for s in row:
            n, m = (s + t) // 2, (s - t) // 2
            if not _coprime_ok(n, m, cfg):
                continue
            # x & -x is 2**v2(x); B_gcd(s,t) is the common factor of every square-diff pair
            law = (s & -s) < low if minus else 0 < low < (s & -s)
            yield n, m, xs[s], y, q[math.gcd(s, t)][0] if square or law else 0


def _product_visits(max_index: int):
    """Visits (see _scan) of product-form, by rows M over N."""
    odd = _SMALL_PRIMES[1:]
    b = _Terms(SequenceKind.BALANCING, max_index, odd)
    c = _Terms(SequenceKind.LUCAS_BALANCING, max_index, odd)
    for m in range(1, max_index + 1):
        y, low = c[m], m & -m
        # gcd(x, 1) = 1 for every N: only a common factor other than 1 keeps a pair
        row = range(2 * low, max_index + 1, 2 * low) if y[0] == 1 else range(1, max_index + 1)
        for n in row:
            yield n, m, b[n], y, c[math.gcd(n, m)][0] if (n & -n) > low else 0


def _run_pair_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)

    def solve(n: int, m: int) -> list[SolutionRecord]:
        value = _pair_value(tag, b[n], b[m])
        if value <= 0:
            return []
        if value == 1:
            return [SolutionRecord(tag, n, m, x=1, exponent=None,
                                   family_min_exponent=cfg.min_exponent, bounds=cfg)]
        return [SolutionRecord(tag, n, m, x=x, exponent=q, family_min_exponent=None, bounds=cfg)
                for x, q in _power_hits(_maybe_decompose(value), cfg.min_exponent)]

    return _scan(_pair_visits(tag, cfg), solve)


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
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, cfg.max_index)

    def solve(n: int, m: int) -> list[ProductFormRecord]:
        s, odd = strip_prime(2, b[n] * c[m])
        if odd == 1:
            # unreachable for m >= 1: the odd C_m >= 3 divides the odd part
            raise ArithmeticError(f"pure power of two at ({n}, {m})")
        return [ProductFormRecord(n=n, m=m, two_exponent=s, x=x, exponent=q)
                for x, q in _power_hits(_maybe_decompose(odd), cfg.min_exponent)]

    return _scan(_product_visits(cfg.max_index), solve)



# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    """Slow independent re-solve of a pair equation for equivalence testing.

    Direct big-integer evaluation plus a full exponent scan via integer
    k-th roots: no sieve, no factor analysis, no identity shortcut.  The
    index bound is capped so an accidental production-size run fails fast.
    """
    if cfg.max_index > ORACLE_MAX_INDEX:
        raise ValueError(f"oracle is bounded to max_index <= {ORACLE_MAX_INDEX}")
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    include_diagonal = tag is EquationTag.SUM_POWER
    out: list[SolutionRecord] = []
    for n in range(cfg.max_index + 1):
        top = n + 1 if include_diagonal else n
        for m in range(top):
            if not _parity_ok(cfg.parity_filter, n, m):
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
    out.sort(key=SolutionRecord.sort_key)
    return out
