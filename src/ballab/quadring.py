"""Exact closed forms from one unit of Z[sqrt(2)].

The unit 1 + sqrt(2) gives the Pell pair, (1 + sqrt(2))**n = Q_n + P_n*sqrt(2),
and its square alpha = 3 + 2*sqrt(2) gives alpha**n = C_n + 2*B_n*sqrt(2),
so all four terms at index n come from one power with no rounding.  Squaring
Q_n + P_n*sqrt(2) and comparing with alpha**n gives B_n = P_n*Q_n and
C_n = Q_n**2 + 2*P_n**2, which the norm law Q_n**2 - 2*P_n**2 = (-1)**n
turns into C_n = 2*Q_n**2 - (-1)**n.
"""

from __future__ import annotations


def qpow(n: int) -> tuple[int, int]:
    """(Q_n, P_n), the coordinates of (1 + sqrt(2))**n; n >= 0.

    Left-to-right binary exponentiation on the int pair: each bit of n, from
    the top, squares it, and a 1 bit then multiplies it by 1 + sqrt(2), which
    takes only additions, so the squarings are its only products.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    q, p = 1, 0
    for bit in f"{n:b}":
        # (q + p*sqrt(2))**2 = (q*q + 2*p*p) + 2*q*p*sqrt(2), and 2*q*p is
        # (q + p)**2 - q*q - p*p: CPython squares faster than it multiplies
        qq, pp, s = q * q, p * p, q + p
        q, p = qq + 2 * pp, s * s - qq - pp
        if bit == "1":
            q, p = q + 2 * p, q + p
    return q, p


def binet_extract(n: int) -> tuple[int, int]:
    """(B_n, C_n) from (Q_n, P_n): B_n = P_n*Q_n and C_n = 2*Q_n**2 - (-1)**n."""
    q, p = qpow(n)
    # q * q first, as a square: CPython squares faster than it multiplies
    return p * q, 2 * (q * q) - (-1) ** n
