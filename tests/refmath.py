"""Reference arithmetic that only the tests use.

Each function here is an independent way to compute something the library
computes another way, kept as the slow side of an equivalence test.
"""

from ballab.bigmath import integer_kth_root, primes_up_to
from ballab.sequences import RECURRENCE


def perfect_power_decompose(n: int) -> tuple[int, int]:
    """Maximal (base, exponent) with base**exponent = n >= 2.

    A composite exponent would imply a power for each of its prime factors,
    so peeling prime roots until none applies reaches the maximal exponent.
    No residue sieve and no small-prime valuations, unlike the searches'
    power test.
    """
    if n < 2:
        raise ValueError("value must be >= 2")
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
    return base, exponent


def term_mod(kind, n: int, modulus: int) -> int:
    """Sequence term at index n reduced mod modulus, in O(log n) steps.

    Fast doubling on (U_k, U_{k+1}), where U is the sequence with the same
    recurrence s_n = c1*s_{n-1} + c2*s_{n-2} started at (0, 1):
    U_{2k} = U_k*(2*U_{k+1} - c1*U_k) and U_{2k+1} = U_{k+1}**2 + c2*U_k**2.
    Then s_n = s1*U_n + s0*(U_{n+1} - c1*U_n).  No step divides, so any
    modulus works.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if n < 0:
        raise ValueError("index must be nonnegative")
    (c1, c2), (s0, s1) = RECURRENCE[kind]
    # The closing formula is s_n = s1*U_n + c2*s0*U_{n-1} with
    # U_{n-1} = c2*(U_{n+1} - c1*U_n), which needs c2 to be its own inverse.
    if c2 not in (1, -1):
        raise ValueError(f"{kind.value}: fast doubling needs c2 = +-1, got {c2}")
    u, v = 0, 1 % modulus  # (U_k, U_{k+1}) for k = the bits of n read so far
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - c1 * u) % modulus, (v * v + c2 * u * u) % modulus
        if bit == "1":
            u, v = v, (c1 * v + c2 * u) % modulus
    return (s1 * u + s0 * (v - c1 * u)) % modulus
