"""Modular views of the balancing family.

Reduced term ranges, the period of the balancing sequence modulo mu, and a
q-th-power residue sieve used to prune perfect-power searches.  The 2-adic
divisibility law (2**k | B_n exactly when 2**k | n) and the table of B_n mod
9 by n mod 12 are stated and checked in `ballab.verify`.

The period is the order of the step map (B_k, B_{k+1}) -> (B_{k+1}, B_{k+2})
mod mu, the lcm of its orders mod the prime powers p**e of mu, which
`bigmath.prime_factors` finds by trial division.  The period mod p divides
p - (32/p), and the period mod p**e divides p**(e-1) times that.  Each
prime of that multiple is divided out while the sequence still restarts
there, each test taking O(log mu) steps of fast doubling, and each prime
power's period is computed once per process.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .bigmath import prime_factors, prime_flags
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


class PeriodResult:
    __slots__ = ("modulus", "period", "prefix_checked")

    # prefix_checked: 2 * period; restart at k <=> period | k holds at every
    # index k (see `period`)
    def __init__(self, modulus: int, period: int, prefix_checked: int) -> None:
        self.modulus, self.period, self.prefix_checked = modulus, period, prefix_checked


def _balancing_pair(k: int, modulus: int) -> tuple[int, int]:
    """(B_k, B_{k+1}) mod modulus >= 2, by fast doubling in O(log k) steps.

    B_{2j} = B_j*(2*B_{j+1} - 6*B_j) and B_{2j+1} = B_{j+1}**2 - B_j**2.
    """
    u, v = 0, 1  # (B_j, B_{j+1}) for j = the bits of k read so far
    for bit in bin(k)[2:]:
        u, v = u * (2 * v - 6 * u) % modulus, (v * v - u * u) % modulus
        if bit == "1":
            u, v = v, (6 * v - u) % modulus
    return u, v


@lru_cache(maxsize=None)
def _prime_power_period(p: int, e: int) -> int:
    """The period of B mod p**e, for a prime p and e >= 1, by `period`'s order search."""
    modulus = p ** e
    multiple = 1 << e if p == 2 else p ** (e - 1) * (p - 1 if p % 8 in (1, 7) else p + 1)
    # modulus >= 2 keeps 1 reduced
    if _balancing_pair(multiple, modulus) != (0, 1):
        raise ArithmeticError(
            f"the sequence does not restart at {multiple} mod {modulus}; "
            "the step map's order must divide it"
        )
    t = multiple
    # in any order: once q is done, v_q(t) = v_q(order), and other primes keep it
    for q in set(prime_factors(multiple)):
        while t % q == 0 and _balancing_pair(t // q, modulus) == (0, 1):
            t //= q
    return t


def period(modulus: int) -> PeriodResult:
    """Least t >= 1 with B_t ≡ 0 and B_{t+1} ≡ 1 (mod modulus).

    t is the order of the step map S(B_k, B_{k+1}) = (B_{k+1}, B_{k+2}) mod
    modulus.  S**k takes (0, 1) to (B_k, B_{k+1}) and commutes with S, so a
    restart at k also takes (1, 6) = S(0, 1) back to itself.  The states
    (0, 1) and (1, 6) form a basis (determinant -1), so S**k fixes (0, 1)
    exactly when S**k = I.  Hence the sequence restarts at k exactly when
    t | k, for every k, not only up to the reported prefix_checked = 2*t.

    By the Chinese remainder theorem, S**k ≡ I (mod modulus) exactly when
    S**k ≡ I (mod p**e) for each p**e exactly dividing modulus, so t is the
    lcm of the periods mod those p**e, each computed once per process.

    A multiple K of the period mod p**e comes from p.  S mod 2 is
    [[0, 1], [1, 0]], of order 2.  For odd p, the eigenvalues of S are the
    roots of x**2 - 6*x + 1.  Its discriminant 32 is a unit mod p, so they
    are distinct, and it is a square mod p exactly when p ≡ ±1 (mod 8).
    Their product is 1, so they lie in the units mod p (order dividing
    p - 1) or have norm 1 in F_{p**2} (order dividing p + 1).  If S**j ≡ I
    (mod p), then S**(j*p**(e-1)) ≡ I (mod p**e), since (I + p**i*A)**p ≡ I
    (mod p**(i+1)).  So the period mod p**e divides K = 2**e (p = 2) or
    p**(e-1) * (p - 1 if p ≡ ±1 (mod 8) else p + 1) (odd p).  A K with no
    restart is a bug, not a hard instance.  Each prime q of K is divided out
    for as long as S**(K/q) = I still holds, which leaves the order (É.
    Lucas 1878; D. D. Wall, "Fibonacci series modulo m", 1960).
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    exponents: dict[int, int] = {}
    for p in prime_factors(modulus):
        exponents[p] = exponents.get(p, 0) + 1
    t = 1
    for p, e in exponents.items():
        t = math.lcm(t, _prime_power_period(p, e))
    return PeriodResult(modulus=modulus, period=t, prefix_checked=2 * t)


@lru_cache(maxsize=None)
def default_sieve_moduli(q: int) -> tuple[int, ...]:
    """First eight primes p with p ≡ 1 (mod q).

    For such p the q-th-power residues form an index-q subgroup of the units
    mod p, which maximizes the sieve's rejection rate.  Every such p is
    k*q + 1 with k >= 1, so one strided slice of bigmath.prime_flags meets
    them in order.  The first sieve read is the power-of-two bucket of
    64*q; the limit doubles until the slice holds eight primes, which it
    does by Dirichlet's theorem on primes in progressions.
    """
    if q < 2:
        raise ValueError("exponent must be >= 2")
    limit = 64 * q
    while True:
        flags = prime_flags(limit)
        moduli = tuple(itertools.islice(
            itertools.compress(range(q + 1, len(flags), q), flags[q + 1 :: q]), 8))
        if len(moduli) == 8:
            return moduli
        limit *= 2


def power_residue_sieve(value: int, q: int) -> bool:
    """Can value be a q-th power?  False only on a modular proof that it cannot.

    For each prime p of default_sieve_moduli(q) not dividing value, value mod
    p must be a q-th power residue, i.e. raise to (p-1)/gcd(q, p-1) must give
    1.  A genuine q-th power passes every such test, so False is always
    sound; True is merely "not excluded".  q < 2 raises ValueError, from
    default_sieve_moduli.
    """
    for p in default_sieve_moduli(q):
        # p ≡ 1 (mod q), so gcd(q, p - 1) = q; 0 means p | value, no information
        if pow(value, (p - 1) // q, p) > 1:
            return False
    return True
