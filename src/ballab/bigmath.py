"""Arbitrary-precision integer utilities.

Primality by trial division, prime lists, integer k-th roots and prime
stripping.  Everything works on plain Python ints (already arbitrary
precision) with no floating point, so results are exact at any size.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def is_prime(p: int) -> bool:
    """Trial-division primality test; meant for small exponents and moduli."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """Ascending primes <= limit (sieve of Eratosthenes).

    Searches ask for limits up to about 2**13 (the root caps of _root_out at
    indices near 10**4); each distinct limit is sieved once per process.
    """
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(itertools.compress(range(limit + 1), sieve))


def integer_kth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, exactly.

    Newton iteration with a bit-length initial overestimate, then a final
    correction loop; the result r always satisfies r**k <= n < (r+1)**k.
    """
    if n < 0:
        raise ValueError("root of a negative value")
    if k < 1:
        raise ValueError("root order must be positive")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    if n.bit_length() <= k:
        return 1  # 2**k > n >= 1
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) >= n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def strip_prime(p: int, n: int) -> tuple[int, int]:
    """Split n > 0 as p**s * rest with p not dividing rest; returns (s, rest).

    Exact for any p >= 2; a caller that needs p prime checks it once, not
    once per value.
    """
    if n <= 0:
        raise ValueError("value must be positive")
    if p < 2:
        raise ValueError(f"cannot split off {p}: need p >= 2")
    if p == 2:
        s = (n & -n).bit_length() - 1
        return s, n >> s
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n
