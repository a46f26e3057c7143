"""Generators for the balancing family of sequences.

Balancing B (0, 1, 6, 35, 204, ...) and Lucas-balancing C (1, 3, 17, 99, ...)
share the recurrence s_n = 6*s_{n-1} - s_{n-2}; Pell P (0, 1, 2, 5, 12, ...)
and associated Pell Q (1, 1, 3, 7, 17, ...) share s_n = 2*s_{n-1} + s_{n-2}.
They are tied together by B_m = P_m * Q_m and 8*B_n**2 + 1 = C_n**2.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from . import quadring


class SequenceKind(Enum):
    BALANCING = "balancing"
    LUCAS_BALANCING = "lucas-balancing"
    PELL = "pell"
    ASSOCIATED_PELL = "associated-pell"


# kind -> ((coefficient of s_{n-1}, coefficient of s_{n-2}), (s_0, s_1))
RECURRENCE: dict[SequenceKind, tuple[tuple[int, int], tuple[int, int]]] = {
    SequenceKind.BALANCING: ((6, -1), (0, 1)),
    SequenceKind.LUCAS_BALANCING: ((6, -1), (1, 3)),
    SequenceKind.PELL: ((2, 1), (0, 1)),
    SequenceKind.ASSOCIATED_PELL: ((2, 1), (1, 1)),
}


def term(kind: SequenceKind, n: int) -> int:
    """Exact n-th term of the given sequence, n >= 0, in O(log n) ring products.

    alpha**n = C_n + 2*B_n*sqrt(2) and (1 + sqrt(2))**n = Q_n + P_n*sqrt(2).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if kind in (SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING):
        b, c = quadring.binet_extract(n)
        return b if kind is SequenceKind.BALANCING else c
    w = quadring.qpow(quadring.SILVER, n)
    return w.b if kind is SequenceKind.PELL else w.a


def values_up_to(kind: SequenceKind, hi: int) -> list[int]:
    """Values at indices 0..hi inclusive by forward iteration."""
    if hi < 0:
        raise ValueError("index must be nonnegative")
    (c1, c2), (s0, s1) = RECURRENCE[kind]
    out = [s0, s1]
    while len(out) <= hi:
        out.append(c1 * out[-1] + c2 * out[-2])
    return out[: hi + 1]


def balancer(value: int) -> int | None:
    """The R with 1 + ... + (B-1) = (B+1) + ... + (B+R), or None.

    B = value is balancing exactly when 8*B**2 + 1 is a perfect square; then
    R solves R**2 + (2B+1)*R - (B**2 - B) = 0, whose discriminant is that
    same square, so no iteration over the sums is needed.
    """
    if value < 1:
        raise ValueError("value must be >= 1")
    disc = 8 * value * value + 1
    c = isqrt(disc)
    if c * c != disc:
        return None
    r = (c - 2 * value - 1) // 2  # c and 2B+1 are both odd, so this is exact
    # recheck against the closed sums: B(B-1)/2 == R(2B+R+1)/2
    if value * (value - 1) != r * (2 * value + r + 1):
        raise ArithmeticError(f"balancer computation inconsistent for {value}")
    return r
