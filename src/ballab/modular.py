"""Modular views of the balancing family.

Reduced term ranges, the period of the balancing sequence modulo mu, the
mod-9 residue table keyed on the index mod 12, and a q-th-power residue sieve
used to prune perfect-power searches.  The 2-adic divisibility law (2**k | B_n
exactly when 2**k | n) is stated and checked in `ballab.verify`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import Value
from .bigmath import is_prime
from .sequences import RECURRENCE, SequenceKind


def residue_range(kind: SequenceKind, hi: int, modulus: int) -> list[int]:
    """Values at indices 0..hi inclusive, reduced mod modulus, by forward iteration."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if hi < 0:
        raise ValueError("index must be nonnegative")
    (c1, c2), (s0, s1) = RECURRENCE[kind]
    prev, cur = s0 % modulus, s1 % modulus
    out = [prev, cur]
    for _ in range(hi - 1):
        prev, cur = cur, (c1 * cur + c2 * prev) % modulus
        out.append(cur)
    return out[: hi + 1]


class PeriodResult(Value):
    __slots__ = ("modulus", "period", "prefix_checked")

    # prefix_checked: indices over which restart <=> divisibility was confirmed
    def __init__(self, modulus: int, period: int, prefix_checked: int) -> None:
        self.modulus, self.period, self.prefix_checked = modulus, period, prefix_checked


def period(modulus: int) -> PeriodResult:
    """Least t >= 1 with B_t ≡ 0 and B_{t+1} ≡ 1 (mod modulus).

    The state map (B_k, B_{k+1}) -> (B_{k+1}, B_{k+2}) has determinant 1, so
    it is a bijection mod any modulus and the orbit of (0, 1) is a pure
    cycle: the first return exists and is at most modulus**2 by pigeonhole.
    Exceeding that bound means a bug, not a hard instance.

    The defining property additionally asks that t divide every restart
    index.  That holds automatically for a pure cycle, but it is confirmed
    empirically over the first 2 * t indices and the checked extent is
    reported in the result.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    bound = modulus * modulus
    start = (0, 1 % modulus)
    prev, cur = start
    t = 0
    while True:
        prev, cur = cur, (6 * cur - prev) % modulus
        t += 1
        if (prev, cur) == start:
            break
        if t > bound:
            raise RuntimeError(
                f"no restart within {bound} iterations mod {modulus}; state map is broken"
            )
    # indices 1..t are settled (t is the first return); the walk goes on from t
    prefix = 2 * t
    for k in range(t + 1, prefix + 1):
        prev, cur = cur, (6 * cur - prev) % modulus
        if ((prev, cur) == start) != (k % t == 0):
            raise ArithmeticError(
                f"restart at index {k} is not a multiple of the period {t} mod {modulus}"
            )
    return PeriodResult(modulus=modulus, period=t, prefix_checked=prefix)


# B_n mod 9 depends only on n mod 12.
MOD9_TABLE: dict[int, int] = {
    0: 0, 6: 0,
    1: 1, 5: 1, 9: 1,
    8: 3, 10: 3,
    2: 6, 4: 6,
    3: 8, 7: 8, 11: 8,
}


def residue_class_mod9(n: int) -> int:
    """B_n mod 9, read from the table keyed on n mod 12."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return MOD9_TABLE[n % 12]


@lru_cache(maxsize=None)
def default_sieve_moduli(q: int) -> tuple[int, ...]:
    """First eight primes p with p ≡ 1 (mod q).

    For such p the q-th-power residues form an index-q subgroup of the units
    mod p, which maximizes the sieve's rejection rate.
    """
    if q < 2:
        raise ValueError("exponent must be >= 2")
    # every such p is k*q + 1 with k >= 1, so the progression meets them in order
    return tuple(itertools.islice(filter(is_prime, itertools.count(q + 1, q)), 8))


def power_residue_sieve(value: int, q: int) -> bool:
    """Can value be a q-th power?  False only on a modular proof that it cannot.

    For each prime p of default_sieve_moduli(q) not dividing value, value mod
    p must be a q-th power residue, i.e. raise to (p-1)/gcd(q, p-1) must give
    1.  A genuine q-th power passes every such test, so False is always
    sound; True is merely "not excluded".
    """
    if q < 2:
        raise ValueError("exponent must be >= 2")
    for p in default_sieve_moduli(q):
        r = value % p
        if r == 0:
            continue  # p | value: residue is 0, a q-th power residue; no information
        if pow(r, (p - 1) // math.gcd(q, p - 1), p) != 1:
            return False
    return True
