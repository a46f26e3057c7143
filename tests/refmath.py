"""Reference arithmetic that only the tests use.

Each function here is an independent way to compute something the library
computes another way, kept as the slow side of an equivalence test.
"""

from math import gcd
from typing import Callable, Iterable, Iterator

from ballab import modular
from ballab.bigmath import integer_kth_root, primes_up_to, strip_prime
from ballab.modular import PeriodResult
from ballab.sequences import RECURRENCE, SequenceKind, values_up_to
from ballab.verify import CheckResult


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


def period(modulus: int) -> PeriodResult:
    """ballab.modular.period by tuple states, testing t | k at every k in (t, 2t]."""
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
    prefix = 2 * t
    for k in range(t + 1, prefix + 1):
        prev, cur = cur, (6 * cur - prev) % modulus
        if ((prev, cur) == start) != (k % t == 0):
            raise ArithmeticError(
                f"restart at index {k} is not a multiple of the period {t} mod {modulus}"
            )
    return PeriodResult(modulus=modulus, period=t, prefix_checked=prefix)


# ---------------------------------------------------------------------------
# The verify checks that one premise test settles, as one generator step per
# ordered case, each decided on its own.  ballab.verify settles every case
# where the premise holds and records failing cases by key; these are the
# slow side of that equivalence.


def _run_check(name: str, bound: str, cases: Iterable[str | None]) -> CheckResult:
    checked = 0
    failed = 0
    failures: list[str] = []
    for checked, failure in enumerate(cases, 1):
        if failure is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(failure)
    return CheckResult(name, bound, checked, passed=failed == 0, failures=failures)


def check_half_index_sum(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            bn = b[n]
            for m in range(n % 2, n + 1, 2):
                a, d = (n + m) // 2, (n - m) // 2
                yield None if bn + b[m] == 2 * b[a] * c[d] else f"B_{n} + B_{m} != 2*B_{a}*C_{d}"

    return _run_check("half-index-sum", f"0 <= m <= n <= {max_n}, same parity", cases())


def check_half_index_diff(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            bn = b[n]
            for m in range(n % 2, n + 1, 2):
                a, d = (n + m) // 2, (n - m) // 2
                yield None if bn - b[m] == 2 * b[d] * c[a] else f"B_{n} - B_{m} != 2*B_{d}*C_{a}"

    return _run_check("half-index-diff", f"0 <= m <= n <= {max_n}, same parity", cases())


def check_addition_formula(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for x in range(max_n + 1):
            bx, cx = b[x], c[x]
            for y in range(max_n + 1):
                yield (None if b[x + y] == bx * c[y] + cx * b[y]
                       else f"B_{x + y} != B_{x}*C_{y} + C_{x}*B_{y}")

    return _run_check("addition-formula", f"0 <= x, y <= {max_n}", cases())


def check_pell_product(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)

    def cases() -> Iterator[str | None]:
        for m in range(max_n + 1):
            yield None if b[m] == p[m] * q[m] else f"B_{m} != P_{m}*Q_{m}"

    return _run_check("pell-product", f"0 <= m <= {max_n}", cases())


def check_index_doubling(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, 2 * max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            yield None if b[2 * n] == 2 * b[n] * c[n] else f"B_{2 * n} != 2*B_{n}*C_{n}"

    return _run_check("index-doubling", f"0 <= n <= {max_n}", cases())


def check_square_plus_one(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(max_n + 1):
            yield None if 8 * b[n] ** 2 + 1 == c[n] ** 2 else f"8*B_{n}^2 + 1 != C_{n}^2"

    return _run_check("square-plus-one", f"0 <= n <= {max_n}", cases())


def check_gcd_balancing(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            bn = b[n]
            for m in range(1, max_n + 1):
                yield (None if gcd(bn, b[m]) == b[gcd(n, m)]
                       else f"gcd(B_{n}, B_{m}) != B_gcd({n},{m})")

    return _run_check("gcd-balancing", f"1 <= n, m <= {max_n}", cases())


def check_gcd_lucas(max_n: int) -> CheckResult:
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            cn, vn = c[n], v2[n]
            for m in range(1, max_n + 1):
                want = c[gcd(n, m)] if vn == v2[m] else 1
                yield None if gcd(cn, c[m]) == want else f"gcd(C_{n}, C_{m}) != expected"

    return _run_check("gcd-lucas", f"1 <= n, m <= {max_n}", cases())


def check_gcd_mixed(max_n: int) -> CheckResult:
    b = values_up_to(SequenceKind.BALANCING, max_n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, max_n)
    v2 = [0] + [strip_prime(2, n)[0] for n in range(1, max_n + 1)]  # v2[n] = v_2(n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            bn, vn = b[n], v2[n]
            for m in range(1, max_n + 1):
                want = c[gcd(n, m)] if vn > v2[m] else 1
                yield None if gcd(bn, c[m]) == want else f"gcd(B_{n}, C_{m}) != expected"

    return _run_check("gcd-mixed", f"1 <= n, m <= {max_n}", cases())


def check_pell_coprime(max_n: int) -> CheckResult:
    p = values_up_to(SequenceKind.PELL, max_n)
    q = values_up_to(SequenceKind.ASSOCIATED_PELL, max_n)

    def cases() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            yield None if gcd(p[n], q[n]) == 1 else f"gcd(P_{n}, Q_{n}) != 1"

    return _run_check("pell-coprime", f"1 <= n <= {max_n}", cases())


def check_period_consistency(
        max_mu: int, period_of: Callable[[int], PeriodResult] = modular.period,
        residues: Callable[[SequenceKind, int, int], list[int]] = modular.residue_range,
) -> CheckResult:
    """ballab.verify.check_period_consistency by one residue walk to 2t per modulus.

    Each mu reads its own stream residues(B, 2*t, mu) and compares its two
    halves; period_of and residues stand in for ballab.modular's period and
    residue_range, so a test can hand both sides the same faults.
    """
    periods = {mu: period_of(mu).period for mu in range(2, max_mu + 1)}

    def cases() -> Iterator[str | None]:
        for mu, t in periods.items():
            stream = residues(SequenceKind.BALANCING, 2 * t, mu)
            yield (None if stream[:t + 1] == stream[t:]
                   else f"period {t} does not reproduce the residues mod {mu}")
        for mu, t in periods.items():
            for nu in range(2 * mu, max_mu + 1, mu):
                yield (None if periods[nu] % t == 0
                       else f"period({mu}) does not divide period({nu})")

    return _run_check("period-consistency", f"2 <= mu <= {max_mu}", cases())
