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
decomposition.  It restricts the candidate exponents by small-prime
valuations, then runs the modular residue sieve ahead of each exact root;
neither step ever discards a true power.

Ahead of it, the pair and product searches reject most pairs in index space.
With P, Q the Pell and associated Pell numbers, each value is built from two
terms of known index (Behera-Panda 1999):

    B_n + B_m        = P_{n+m} Q_{n-m}  (n - m even),  Q_{n+m} P_{n-m}  (odd)
    B_n - B_m        = Q_{n+m} P_{n-m}  (n - m even),  P_{n+m} Q_{n-m}  (odd)
    B_n**2 - B_m**2  = B_{n+m} B_{n-m}
    B_n**3 +- B_m**3 = (B_n +- B_m) * F,  gcd(B_n +- B_m, F) | 3 for coprime terms
    B_N * C_M        itself

and the gcd laws (Panda 2009) name the common factor of the two terms, with
d the gcd of their indices: gcd(B_a, B_b) = B_d; gcd(P_a, Q_b) = Q_d when
v2(a) > v2(b), else 1; gcd(B_N, C_M) = C_d when N/d is even, else 1.  The
rest of a term is what is left once the primes <= 199 are divided out.  When
the common factor's rest is 1, the two rests share no prime, so the value can
be a q-th power only if both rests are: a per-index table of rest exponents
rejects the pair without building its value when those exponents have gcd 1.
The coprime-terms filter is gcd(n, m) = 1, since gcd(B_n, B_m) = B_gcd(n,m).

x = 1 satisfies any exponent, so those hits are emitted once as an exponent
family (all q >= the configured minimum) instead of infinitely many tuples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .bigmath import (
    PowerDecomposition,
    integer_kth_root,
    is_prime,
    primes_up_to,
    strip_prime,
)
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

    def solution_tuple(self) -> tuple:
        return (self.equation.value, self.n, self.m, self.x,
                self.exponent, self.family_min_exponent)

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
    for p in primes_up_to(cap):
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


def _maybe_decompose(value: int) -> PowerDecomposition | None:
    """Maximal decomposition of value >= 2, or None when value is no perfect power.

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
    return PowerDecomposition(base=base, exponent=exponent)


def _admissible_exponents(decomp: PowerDecomposition, min_exponent: int) -> list[int]:
    """Divisors q >= min_exponent of the maximal exponent, ascending."""
    e = decomp.exponent
    return [q for q in range(min_exponent, e + 1) if e % q == 0]


def _verified(records: list) -> list:
    """records, once each has re-evaluated its equation with direct arithmetic."""
    for rec in records:
        if not rec.verify():
            raise ArithmeticError(f"emitted record fails re-verification: {rec}")
    return records


# ---------------------------------------------------------------------------
# index space


class _RestExponents(dict):
    """Index k -> maximal exponent of the rest of one sequence's k-th term.

    The rest is the term with the primes <= 199 divided out; exponent 0
    stands for rest 1, which is an e-th power for every e.  Entries are
    filled on first use; the term must be nonzero.
    """

    def __init__(self, kind: SequenceKind, hi: int) -> None:
        super().__init__()
        self.values = values_up_to(kind, hi)

    def __missing__(self, k: int) -> int:
        rest = self.values[k]
        for ell in _SMALL_PRIMES:
            while rest % ell == 0:
                rest //= ell
        e = self[k] = 0 if rest == 1 else _root_out(rest, 0)[1]
        return e


def _sum_split(max_index: int, minus: bool):
    """(n, m) -> rest exponents of the two Pell factors of B_n +- B_m and of their gcd.

    With s = n + m and t = n - m >= 0:
        B_n + B_m = P_s Q_t (t even),  Q_s P_t (t odd);
        B_n - B_m = Q_s P_t (t even),  P_s Q_t (t odd).
    gcd(P_a, Q_b) = Q_gcd(a,b) when v2(a) > v2(b), else 1; Q_0 = 1.
    """
    p = _RestExponents(SequenceKind.PELL, 2 * max_index)
    q = _RestExponents(SequenceKind.ASSOCIATED_PELL, 2 * max_index)

    def split(n: int, m: int) -> tuple[int, int, int]:
        s, t = n + m, n - m
        if t % 2:
            # both indices odd, so v2 is 0 on both sides: the gcd is 1
            return (p[s], q[t], 0) if minus else (q[s], p[t], 0)
        # for a, b >= 1, v2(a) > v2(b) exactly when a's lowest set bit is higher
        if minus:
            return q[s], p[t], q[math.gcd(s, t)] if (t & -t) > (s & -s) else 0
        return p[s], q[t], q[math.gcd(s, t)] if t and (s & -s) > (t & -t) else 0

    return split


def _square_diff_split(max_index: int):
    """(n, m) -> rest exponents of B_{n+m}, B_{n-m} and their gcd B_gcd(n+m, n-m)."""
    b = _RestExponents(SequenceKind.BALANCING, 2 * max_index)

    def split(n: int, m: int) -> tuple[int, int, int]:
        s, t = n + m, n - m
        return b[s], b[t], b[math.gcd(s, t)]

    return split


def _product_split(max_index: int):
    """(N, M) -> rest exponents of B_N, C_M and their gcd.

    gcd(B_N, C_M) = C_d when N/d is even, else 1, with d = gcd(N, M).
    """
    b = _RestExponents(SequenceKind.BALANCING, max_index)
    c = _RestExponents(SequenceKind.LUCAS_BALANCING, max_index)

    def split(n: int, m: int) -> tuple[int, int, int]:
        d = math.gcd(n, m)
        return b[n], c[m], c[d] if (n // d) % 2 == 0 else 0

    return split


def _scan(pairs, split, solve) -> list:
    """Records of solve(n, m) over the pairs that index space cannot reject, verified.

    split(n, m) gives the rest exponents (x, y, shared) of two terms whose
    product carries the pair's value, and of their gcd.  shared = 0 means
    the gcd's rest is 1, so the two rests share no prime.  A q-th power
    then needs both rests to be q-th powers, i.e. q | x and q | y (any q
    divides 0), and gcd(x, y) = 1 leaves no q >= 2: the pair is rejected
    without its value being built.  Pairs with m = 0 are not split.
    """
    out = []
    for n, m in pairs:
        if m:
            x, y, shared = split(n, m)
            if shared == 0 and math.gcd(x, y) == 1:
                continue
        out.extend(solve(n, m))
    return _verified(out)


def _run_pair_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    if tag is EquationTag.SQUARE_DIFF:
        split = _square_diff_split(cfg.max_index)
    else:
        # For the cube forms the split is that of the first factor B_n +- B_m.
        # Under coprime terms its gcd with the second factor divides 3, so at
        # every prime >= 211 the value's valuation is the first factor's or
        # the second's, never both: the value is a q-th power only if the
        # first factor's rest is a q-th power.  The cube searches require
        # coprime terms, so every pair they split has them.
        split = _sum_split(cfg.max_index, minus=tag is EquationTag.CUBE_SUM_MINUS)
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    include_diagonal = tag is EquationTag.SUM_POWER
    pairs = ((n, m) for n in range(cfg.max_index + 1)
             for m in range(n + 1 if include_diagonal else n)
             if _parity_ok(cfg.parity_filter, n, m) and _coprime_ok(n, m, cfg))

    def solve(n: int, m: int) -> list[SolutionRecord]:
        value = _pair_value(tag, b[n], b[m])
        if value <= 0:
            return []
        if value == 1:
            return [SolutionRecord(tag, n, m, x=1, exponent=None,
                                   family_min_exponent=cfg.min_exponent, bounds=cfg)]
        decomp = _maybe_decompose(value)
        if decomp is None:
            return []
        return [SolutionRecord(tag, n, m, x=decomp.root_for(q), exponent=q,
                               family_min_exponent=None, bounds=cfg)
                for q in _admissible_exponents(decomp, cfg.min_exponent)]

    return _scan(pairs, split, solve)


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
        decomp = _maybe_decompose(rest)
        if decomp is None:
            continue
        for b in _admissible_exponents(decomp, cfg.min_exponent):
            out.append(SpecialFormRecord(kind, p, n, s, x=decomp.root_for(b),
                                         exponent=b, family_min_exponent=None))
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
        decomp = _maybe_decompose(odd)
        if decomp is None:
            return []
        return [ProductFormRecord(n=n, m=m, two_exponent=s, x=decomp.root_for(q), exponent=q)
                for q in _admissible_exponents(decomp, cfg.min_exponent)]

    indices = range(1, cfg.max_index + 1)
    return _scan(((n, m) for n in indices for m in indices), _product_split(cfg.max_index), solve)


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
