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


def _coprime_ok(bn: int, bm: int, cfg: SearchConfig) -> bool:
    # gcd(x, 0) = x, so the literal gcd == 1 test only lets a zero term sit
    # next to B_1 = 1.  The exemption additionally accepts B_2 = 6, the one
    # extra shared factor the index-halving factorization tolerates; this is
    # what keeps the published (2, 0) square-difference solution in scope
    # without admitting the trivial B_n**2 - 0 squares for every n.
    if not cfg.coprimality_required:
        return True
    if bm == 0:
        return bn in (1, 6) if cfg.coprime_zero_exempt else bn == 1
    return math.gcd(bn, bm) == 1


# Primes stripped by trial division before any root is taken.  What is left
# has only prime factors >= 211, so a p-th root of it is >= 211.
_SMALL_PRIMES = primes_up_to(199)


def _root_exponent_cap(rest: int) -> int:
    """Largest p that can have 211**p <= rest: p < bits / log2(211), and log2(211) > 7.7."""
    return (10 * rest.bit_length() - 1) // 77


def _maybe_decompose(value: int) -> PowerDecomposition | None:
    """Maximal decomposition of value >= 2, or None when value is no perfect power.

    If value = x**q, then q divides the valuation of value at every prime.
    The valuations at the primes <= 199 are folded into their gcd g: a single
    valuation of 1 rejects value outright, and otherwise only the primes
    dividing g (every prime when g = 0) remain candidate exponents for what
    is left, and each candidate meets the modular residue sieve before its
    exact root is taken.
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


def _run_pair_search(tag: EquationTag, cfg: SearchConfig) -> list[SolutionRecord]:
    b = values_up_to(SequenceKind.BALANCING, cfg.max_index)
    c = None
    if tag is EquationTag.SUM_POWER:
        c = values_up_to(SequenceKind.LUCAS_BALANCING, cfg.max_index)
    include_diagonal = tag is EquationTag.SUM_POWER
    out: list[SolutionRecord] = []
    for n in range(cfg.max_index + 1):
        top = n + 1 if include_diagonal else n
        for m in range(top):
            if not _parity_ok(cfg.parity_filter, n, m):
                continue
            if not _coprime_ok(b[n], b[m], cfg):
                continue
            value = _pair_value(tag, b[n], b[m])
            if value <= 0:
                continue
            if tag is EquationTag.SUM_POWER and (n - m) % 2 == 0:
                # cross-check the half-index factorization before any power test
                if value != 2 * b[(n + m) // 2] * c[(n - m) // 2]:
                    raise ArithmeticError(f"half-index factorization failed at ({n}, {m})")
            if value == 1:
                out.append(SolutionRecord(tag, n, m, x=1, exponent=None,
                                          family_min_exponent=cfg.min_exponent, bounds=cfg))
                continue
            decomp = _maybe_decompose(value)
            if decomp is None:
                continue
            for q in _admissible_exponents(decomp, cfg.min_exponent):
                out.append(SolutionRecord(tag, n, m, x=decomp.root_for(q), exponent=q,
                                          family_min_exponent=None, bounds=cfg))
    return _verified(out)


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
    out: list[ProductFormRecord] = []
    for n in range(1, cfg.max_index + 1):
        for m in range(1, cfg.max_index + 1):
            s, odd = strip_prime(2, b[n] * c[m])
            if odd == 1:
                # unreachable for m >= 1: the odd C_m >= 3 divides the odd part
                raise ArithmeticError(f"pure power of two at ({n}, {m})")
            decomp = _maybe_decompose(odd)
            if decomp is None:
                continue
            for q in _admissible_exponents(decomp, cfg.min_exponent):
                out.append(ProductFormRecord(n=n, m=m, two_exponent=s,
                                             x=decomp.root_for(q), exponent=q))
    return _verified(out)


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
            if not _coprime_ok(b[n], b[m], cfg):
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
