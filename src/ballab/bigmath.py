"""Arbitrary-precision integer utilities.

Primality of one number by trial division, one cached prime sieve per
power-of-two limit with the prime lists read off it, integer k-th roots and
prime stripping.  Everything works on plain Python ints (already arbitrary
precision) with no floating point, so results are exact at any size.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def is_prime(p: int) -> bool:
    """Trial-division primality test of one number; many primes come off prime_flags."""
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
def _sieve(bits: int) -> bytes:
    size = (1 << bits) + 1
    flags = bytearray([1]) * size
    flags[:2] = b"\0\0"
    flags[4::2] = bytes(len(range(4, size, 2)))
    for p in range(3, math.isqrt(size - 1) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = bytes(len(range(p * p, size, 2 * p)))
    return bytes(flags)


def prime_flags(limit: int) -> bytes:
    """flags[i] is 1 exactly at the primes i <= 2**k, the least power of two >= limit, 2**11.

    Sieve of Eratosthenes, once per power of two per process whatever limits
    ask for it; bytes, so no caller can spoil the shared copy.  Below 2**11 a
    sieve costs little more than its fixed Python overhead, so every smaller
    limit shares the 2**11 one.
    """
    return _sieve((max(limit, 1 << 11) - 1).bit_length())


@lru_cache(maxsize=None)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """Ascending primes <= limit, read off prime_flags(limit).

    Searches ask for powers of two up to about 2**13 (the root caps of
    _root_out at indices near 10**4); each distinct limit builds its tuple
    once per process, and limits in one power-of-two bucket share a sieve.
    """
    return tuple(itertools.compress(range(limit + 1), prime_flags(limit)))


def integer_kth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, exactly.

    Newton iteration x -> ((k - 1)*x + n // x**(k-1)) // k from a bit-length
    overestimate, stopped at the first step that does not decrease.  With
    r = floor(n ** (1/k)), it stops exactly at x = r:
    - a step from any x >= r gives y >= r: by AM-GM, (k - 1) copies of x and
      one of n / x**(k-1) average at least n**(1/k) >= r, and the floors keep
      that, as (k - 1)*x is an integer and r is one;
    - while x > r, x**k > n, so n // x**(k-1) < x and y < x;
    - the start 2**ceil(bits/k) exceeds n ** (1/k), so it is >= r.
    So r**k <= n < (r+1)**k with no correction afterwards.
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
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) > n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


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
