import math
import random

import pytest

from ballab import bigmath
from ballab.bigmath import (
    integer_kth_root,
    is_prime,
    prime_factors,
    prime_flags,
    primes_up_to,
    strip_prime,
)
from ballab.diophantine import _maybe_decompose, _power_hits
from refmath import brute_power_decompose, perfect_power_decompose


class TestValuation:
    """strip_prime's exponent is the p-adic valuation; verify reads v_2 off it."""

    def test_values(self):
        assert strip_prime(2, 204)[0] == 2
        assert strip_prime(2, 35)[0] == 0
        assert strip_prime(3, 18)[0] == 2
        assert strip_prime(5, 250)[0] == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            strip_prime(2, 0)

    @pytest.mark.parametrize("p", [1])
    def test_rejects_composite(self, p):
        with pytest.raises(ValueError):
            strip_prime(p, 12)

    @pytest.mark.parametrize("p", [4, 6, 9, 15])
    def test_composite_split_is_exact(self, p):
        # a composite p is split off exactly; primality is the caller's check
        for n in (12, p, p ** 3 * 7, 2 ** 40 * 3 ** 20 * 5 ** 10 + 1):
            s, rest = strip_prime(p, n)
            assert p ** s * rest == n and rest % p != 0
        assert strip_prime(p, p ** 5 * (p + 1)) == (5, p + 1)

    def test_matches_strip(self):
        # the exponent strip_prime returns against plain repeated division
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randrange(1, 10 ** 18)
            for p in (2, 3, 5, 7):
                e, m = 0, n
                while m % p == 0:
                    m //= p
                    e += 1
                assert strip_prime(p, n)[0] == e


class TestIntegerKthRoot:
    def test_values(self):
        assert integer_kth_root(36, 2) == 6
        assert integer_kth_root(35, 2) == 5
        assert integer_kth_root(1, 9) == 1
        assert integer_kth_root(0, 3) == 0
        assert integer_kth_root(7, 1) == 7

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integer_kth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_kth_root(4, 0)

    def test_bracketing_dense(self):
        for n in range(0, 5000):
            for k in (2, 3, 4, 5, 7):
                r = integer_kth_root(n, k)
                assert r ** k <= n < (r + 1) ** k

    def test_bracketing_big_random(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.getrandbits(rng.randrange(2, 400))
            k = rng.randrange(2, 40)
            r = integer_kth_root(n, k)
            assert r ** k <= n < (r + 1) ** k

    def test_exact_powers(self):
        rng = random.Random(4)
        for _ in range(200):
            x = rng.randrange(2, 10 ** 9)
            k = rng.randrange(2, 12)
            assert integer_kth_root(x ** k, k) == x
            assert integer_kth_root(x ** k - 1, k) == x - 1

    def test_next_to_exact_powers(self):
        # Newton's stop is the floor itself, with no correction step, just
        # below, at and just above r**k, where a wrong stop would be off by one
        rng = random.Random(8)
        for k in range(3, 61):
            for _ in range(10):
                r = rng.randrange(2, 1 << rng.randrange(2, 160))
                power = r ** k
                assert integer_kth_root(power - 1, k) == r - 1, (r, k)
                assert integer_kth_root(power, k) == r, (r, k)
                assert integer_kth_root(power + 1, k) == r, (r, k)

    def test_monotone(self):
        for k in (2, 3, 5):
            roots = [integer_kth_root(n, k) for n in range(2000)]
            assert roots == sorted(roots)


class TestPerfectPowerDecompose:
    """The searches' power test, diophantine._maybe_decompose."""

    def test_values(self):
        assert _maybe_decompose(36) == (6, 2)
        assert _maybe_decompose(64) == (2, 6)
        assert _maybe_decompose(35) is None
        assert _maybe_decompose(2 ** 10 * 3 ** 10) == (6, 10)
        assert _maybe_decompose(211 ** 6) == (211, 6)

    @pytest.mark.parametrize("n, found", [
        (2 ** 6 * 3 ** 3 * 5 ** 9, (1500, 3)),
        (2 ** 2 * 3 ** 6 * 211 ** 4, (2404134, 2)),
        (2 ** 2 * 3 ** 6, (54, 2)),
        (2 ** 2 * 3 ** 3, None),
    ], ids=["gcd-3", "large-cofactor", "gcd-2", "gcd-1"])
    def test_unequal_small_valuations(self, n, found):
        # the small valuations differ, so the exponent is their gcd and the
        # base takes each small prime to its valuation over the exponent
        assert _maybe_decompose(n) == found

    def test_rejects_negative(self):
        # the tests' reference decomposer refuses values below 2
        for n in (-4, 0, 1):
            with pytest.raises(ValueError):
                perfect_power_decompose(n)

    def test_refuses_values_below_1(self):
        # 0 is divisible by every power of every small prime: stripping them
        # would never end
        for n in (-4, 0):
            with pytest.raises(ValueError):
                _maybe_decompose(n)

    def test_exponent_is_maximal(self):
        # the base of a maximal decomposition is never itself a power
        for n in (16, 64, 729, 4096, 2 ** 30, 5 ** 12, 223 ** 10):
            base, exponent = _maybe_decompose(n)
            assert base ** exponent == n
            assert _maybe_decompose(base) is None

    def test_admits_and_root(self):
        assert _power_hits(2 ** 12, 2) == [(64, 2), (16, 3), (8, 4), (4, 6), (2, 12)]
        assert _power_hits(2 ** 12, 5) == [(4, 6), (2, 12)]
        assert _power_hits(2 ** 12, 13) == []
        assert _power_hits(12, 2) == []
        # value 1 is one hit, standing for every exponent from min_exponent up
        for q in range(2, 6):
            assert _power_hits(1, q) == [(1, q)]
        for v in range(2, 5001):
            base, e = perfect_power_decompose(v)
            for q_min in (2, 3, 5):
                assert _power_hits(v, q_min) == [
                    (base ** (e // q), q) for q in range(q_min, e + 1) if e % q == 0], v

    def test_against_brute_force_dense(self):
        # None reads as exponent 1
        for n in range(2, 10_000):
            assert (_maybe_decompose(n) or (n, 1)) == brute_power_decompose(n), n

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        values = [rng.randrange(2, 10 ** 30) for _ in range(300)]
        for _ in range(300):
            x, k = rng.randrange(2, 10 ** 6), rng.randrange(2, 20)
            values += [x ** k, x ** k + 1, x ** k * rng.choice((2, 3, 211, 10 ** 9 + 7))]
        values += [2 ** 60, 3 ** 40 * 5 ** 20, 6 ** 35, (2 ** 61 - 1) ** 3, 210 ** 12 * 211 ** 6]
        for n in values:
            assert (_maybe_decompose(n) or False) == sympy.perfect_power(n), n

    def test_reference_matches_brute_force(self):
        # the reference the property and index-space tests compare against
        for n in range(2, 5000):
            assert perfect_power_decompose(n) == brute_power_decompose(n), n


class TestStripPrime:
    def test_values(self):
        assert strip_prime(2, 6) == (1, 3)
        assert strip_prime(3, 6) == (1, 2)
        assert strip_prime(2, 35) == (0, 35)
        assert strip_prime(2, 1024) == (10, 1)

    def test_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                strip_prime(2, n)

    def test_recompose(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 10 ** 24)
            for p in (2, 3):
                s, rest = strip_prime(p, n)
                assert p ** s * rest == n
                assert rest % p != 0


class TestPrimeHelpers:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(31):
            assert is_prime(n) == (n in primes)
        flags = prime_flags(1 << 16)
        assert [n for n in range(-5, 1 << 16) if is_prime(n)] == \
            [n for n in range(1 << 16) if flags[n]]

    def test_prime_factors_below_2_16(self):
        flags = prime_flags(1 << 16)
        for n in range(-5, 2):
            assert list(prime_factors(n)) == [], n
        for n in range(2, 1 << 16):
            factors = list(prime_factors(n))
            assert factors == sorted(factors), n
            assert all(flags[p] for p in factors), n
            assert math.prod(factors) == n

    @pytest.mark.parametrize("n, factors", [
        ((1 << 31) - 1, [(1 << 31) - 1]), (46337 ** 2, [46337, 46337]),
        (2 * 1073741789, [2, 1073741789]), (1073741789, [1073741789]), (561, [3, 11, 17])])
    def test_prime_factors_large(self, n, factors):
        assert list(prime_factors(n)) == factors
        assert is_prime(n) == (factors == [n])

    def test_primes_up_to(self):
        assert primes_up_to(1) == ()
        assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert len(primes_up_to(1000)) == 168

    def test_primes_up_to_matches_is_prime(self):
        limits = [*range(1001), *(1 << k for k in range(15))]
        reference = [p for p in range(max(limits) + 1) if is_prime(p)]
        for limit in limits:
            assert primes_up_to(limit) == tuple(p for p in reference if p <= limit), limit

    @pytest.mark.parametrize("limit, size", [
        (0, 2048), (2, 2048), (199, 2048), (2048, 2048), (2049, 4096), (4096, 4096),
        (5000, 8192)])
    def test_prime_flags_sieve_the_power_of_two_bucket(self, limit, size):
        flags = prime_flags(limit)
        assert len(flags) == size + 1
        assert [i for i, f in enumerate(flags) if f] == [p for p in range(size + 1) if is_prime(p)]

    @pytest.mark.parametrize("limits", [(1 << 14, 199), (199, 1 << 14), (256, 199, 255, 257, 1)])
    def test_primes_up_to_ignores_the_order_of_limits(self, limits):
        # a fresh process: no sieve or tuple cached yet
        primes_up_to.cache_clear()
        bigmath._sieve.cache_clear()
        got = [primes_up_to(limit) for limit in limits]
        reference = [p for p in range(max(limits) + 1) if is_prime(p)]
        assert got == [tuple(p for p in reference if p <= limit) for limit in limits]
