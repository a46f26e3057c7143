"""Arbitrary-precision integer utilities.

Integer k-th roots, maximal perfect-power decomposition, and small-prime
stripping.  Everything works on plain Python ints (already arbitrary
precision) with no floating point, so results are exact at any size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PowerDecomposition:
    """Maximal representation n = base ** exponent.

    For n >= 2 the exponent is the largest one admitting an integer base, so
    the base is never itself a perfect power and n is a q-th power exactly
    when q divides the exponent.  Inputs 0 and 1 are powers for every
    exponent; they carry is_trivial instead of an arbitrary choice.
    """

    base: int
    exponent: int
    is_trivial: bool = False

    @property
    def is_perfect_power(self) -> bool:
        return not self.is_trivial and self.exponent >= 2

    def admits(self, q: int) -> bool:
        """True when the decomposed value can be written as x**q."""
        if q < 1:
            return False
        if self.is_trivial:
            return True
        return self.exponent % q == 0

    def root_for(self, q: int) -> int:
        """The x with x**q equal to the decomposed value; q must be admitted."""
        if not self.admits(q):
            raise ValueError(f"exponent {q} does not divide {self.exponent}")
        if self.is_trivial:
            return self.base
        return self.base ** (self.exponent // q)


def perfect_power_decompose(n: int) -> PowerDecomposition:
    """Maximal-exponent perfect-power decomposition of n >= 0.

    A composite exponent would imply a power for each of its prime factors,
    so peeling prime roots until none applies reaches the maximal exponent.
    """
    if n < 0:
        raise ValueError("value must be nonnegative")
    if n <= 1:
        return PowerDecomposition(base=n, exponent=1, is_trivial=True)
    base, exponent = n, 1
    reduced = True
    while reduced:
        reduced = False
        # a p-th power with root >= 2 needs p <= log2(base)
        for p in primes_up_to(base.bit_length() - 1):
            r = integer_kth_root(base, p)
            if r ** p == base:
                base, exponent = r, exponent * p
                reduced = True
                break
    return PowerDecomposition(base=base, exponent=exponent)


def strip_prime(p: int, n: int) -> tuple[int, int]:
    """Split n > 0 as p**s * rest with p not dividing rest; returns (s, rest)."""
    if n <= 0:
        raise ValueError("value must be positive")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p == 2:
        s = (n & -n).bit_length() - 1
        return s, n >> s
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n
