"""Exact arithmetic in Z[sqrt(2)].

The unit alpha = 3 + 2*sqrt(2) satisfies alpha**n = C_n + 2*B_n*sqrt(2),
where B_n and C_n are the n-th balancing and Lucas-balancing numbers, so a
single binary exponentiation recovers both values with no rounding.  It runs
left to right over the bits of n: square, then multiply by the small unit on
a 1 bit, so the squarings are its only products of two large numbers.  The
conjugate beta = 3 - 2*sqrt(2) never needs to be materialized: conjugation
commutes with powers, so alpha**n - beta**n can be read off alpha**n alone.
The unit 1 + sqrt(2), whose square is alpha, gives the Pell pair the same way:
(1 + sqrt(2))**n = Q_n + P_n*sqrt(2).
"""

from __future__ import annotations

from . import Value


class QuadInt(Value):
    """a + b*sqrt(2) with integer coordinates."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        # (a+b√2)(c+d√2) = (ac+2bd) + (ad+bc)√2
        return QuadInt(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def norm(self) -> int:
        """a**2 - 2*b**2; multiplicative over products."""
        return self.a * self.a - 2 * self.b * self.b


ONE = QuadInt(1, 0)
ALPHA = QuadInt(3, 2)
SILVER = QuadInt(1, 1)


def qpow(u: QuadInt, n: int) -> QuadInt:
    """u**n by left-to-right binary exponentiation; n >= 0.

    The power is a plain (a, b) pair.  Each bit of n, from the top, squares
    it, and a 1 bit then multiplies it by u, which every caller keeps small.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    c, d = u.a, u.b
    a, b = 1, 0
    for bit in f"{n:b}":
        # (a + b*sqrt(2))**2 = (a*a + 2*b*b) + 2*a*b*sqrt(2), and 2*a*b is
        # (a + b)**2 - a*a - b*b: CPython squares faster than it multiplies
        aa, bb, s = a * a, b * b, a + b
        a, b = aa + 2 * bb, s * s - aa - bb
        if bit == "1":
            a, b = a * c + 2 * b * d, a * d + b * c
    return QuadInt(a, b)


def binet_extract(n: int) -> tuple[int, int]:
    """(B_n, C_n) extracted from alpha**n, in O(log n) ring products.

    With alpha**n = a + b*sqrt(2), conjugation gives beta**n = a - b*sqrt(2),
    so C_n = a and the sqrt(2) coordinate b equals 2*B_n.  The halving is
    always exact; a failure would mean the ring arithmetic itself is broken.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    w = qpow(ALPHA, n)
    if w.b % 2:
        raise ArithmeticError(f"sqrt(2) coordinate of alpha**{n} is odd")
    return w.b // 2, w.a
