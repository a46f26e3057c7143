import itertools
import random

import pytest

import ballab.modular
from ballab.bigmath import is_prime, prime_flags
from ballab.cli import MAX_PERIOD_MOD
from ballab.modular import (
    MOD9_TABLE,
    PeriodResult,
    default_sieve_moduli,
    period,
    power_residue_sieve,
    residue_class_mod9,
    residue_range,
)
from ballab.sequences import SequenceKind, values_up_to
import refmath
from refmath import term_mod


class TestTermMod:
    """The tests' fast-doubling reference for single reduced terms."""

    def test_matches_direct_reduction(self):
        for kind in SequenceKind:
            vals = values_up_to(kind, 400)
            for modulus in (1, 2, 3, 7, 9, 64, 256, 1000, 10 ** 9 + 7, 10 ** 18, 2 ** 100):
                for n in range(401):
                    assert term_mod(kind, n, modulus) == vals[n] % modulus

    def test_large_index(self):
        # O(log n) path must agree with iteration far beyond any dense range
        vals = values_up_to(SequenceKind.BALANCING, 3000)
        assert term_mod(SequenceKind.BALANCING, 3000, 10 ** 9) == vals[3000] % 10 ** 9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            term_mod(SequenceKind.PELL, 3, 0)
        with pytest.raises(ValueError):
            term_mod(SequenceKind.PELL, -1, 5)


def test_residue_range_matches_values():
    vals = values_up_to(SequenceKind.BALANCING, 50)
    assert residue_range(SequenceKind.BALANCING, 50, 9) == [v % 9 for v in vals]
    for kind in SequenceKind:
        vals = values_up_to(kind, 30)
        for modulus in (1, 2, 7, 10 ** 9):
            for hi in (0, 1, 2, 30):
                assert residue_range(kind, hi, modulus) == [v % modulus for v in vals[:hi + 1]]
    with pytest.raises(ValueError):
        residue_range(SequenceKind.PELL, -1, 5)
    with pytest.raises(ValueError):
        residue_range(SequenceKind.PELL, 3, 0)


class TestPeriod:
    def test_known_periods(self):
        assert period(9).period == 12
        assert period(2).period == 2
        assert period(4).period == 4

    def test_restart_state(self):
        for mu in range(2, 60):
            r = period(mu)
            assert term_mod(SequenceKind.BALANCING, r.period, mu) == 0
            assert term_mod(SequenceKind.BALANCING, r.period + 1, mu) == 1 % mu
            assert r.prefix_checked >= 2 * r.period

    def test_minimality(self):
        for mu in (2, 3, 4, 5, 9, 10, 25):
            t = period(mu).period
            for k in range(1, t):
                restart = (term_mod(SequenceKind.BALANCING, k, mu) == 0
                           and term_mod(SequenceKind.BALANCING, k + 1, mu) == 1 % mu)
                assert not restart

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            period(1)
        with pytest.raises(ValueError):
            refmath.period(1)

    def test_matches_tuple_state_walk(self):
        # every small modulus, and the 2**a * 5**b <= 10**5, whose periods
        # are long for their size (period(10**5) = 60000)
        smooth = [2 ** a * 5 ** b for a in range(17) for b in range(8)
                  if 2 <= 2 ** a * 5 ** b <= 10 ** 5]
        for mu in [*range(2, 2001), *smooth]:
            assert period(mu) == refmath.period(mu), mu


def restarts(k, mu):
    """Whether (B_k, B_{k+1}) ≡ (0, 1) (mod mu), read from refmath.term_mod."""
    return (term_mod(SequenceKind.BALANCING, k, mu) == 0
            and term_mod(SequenceKind.BALANCING, k + 1, mu) == 1 % mu)


def prime_divisors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def assert_order_certificate(mu):
    """period(mu) restarts at t and at no t/q for a prime q | t.

    Every restart index is a multiple of the least one, so no restart at
    any t/q makes t the least.
    """
    r = period(mu)
    t = r.period
    assert r.modulus == mu and r.prefix_checked == 2 * t
    assert restarts(t, mu), (mu, t)
    for q in prime_divisors(t):
        assert not restarts(t // q, mu), (mu, t, q)


class TestPeriodOrderCertificate:
    """period against refmath.term_mod, at moduli the tuple walk is too slow for."""

    @pytest.mark.parametrize("mu", [
        9999973, 9999991, 10 ** 7, 2 ** 23, 3 ** 14, 5 ** 10, 7 ** 8,
        # a prime whose period is (p - 1)/16: 2 is divided out four times
        1000033,
        # products of prime powers: split primes (± 1 mod 8), inert ones
        # (± 3 mod 8) and 2, with exponents above 1
        2 ** 5 * 3 ** 4 * 7 ** 2, 11 ** 3 * 13 ** 2, 17 ** 2 * 19 * 23 * 8,
        2 ** 3 * 3 ** 2 * 5 ** 2 * 7 ** 2 * 11, 31 ** 2 * 41 ** 2 * 9, 9973 * 10007,
    ])
    def test_certificate(self, mu):
        assert_order_certificate(mu)

    def test_largest_prime_below_the_ceiling(self):
        assert period(9999973) == PeriodResult(9999973, 9999974, 19999948)

    def test_certificate_over_the_cli_range(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(hypothesis.strategies.integers(2, MAX_PERIOD_MOD))
        def check(mu):
            assert_order_certificate(mu)

        check()

    def test_a_multiple_without_a_restart_is_an_error(self, monkeypatch):
        monkeypatch.setattr(ballab.modular, "_balancing_pair", lambda k, mu: (1, 0))
        with pytest.raises(ArithmeticError):
            period(7)


class TestMod9Table:
    def test_table_keys(self):
        assert sorted(MOD9_TABLE) == list(range(12))
        assert set(MOD9_TABLE.values()) == {0, 1, 3, 6, 8}

    def test_examples(self):
        assert residue_class_mod9(3) == 8
        assert residue_class_mod9(15) == 8
        assert residue_class_mod9(0) == 0
        assert residue_class_mod9(26) == 6

    def test_against_direct_reduction(self):
        direct = residue_range(SequenceKind.BALANCING, 240, 9)
        for n in range(241):
            assert residue_class_mod9(n) == direct[n]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            residue_class_mod9(-1)


class TestTwoAdicLaw:
    @staticmethod
    def divides(n, k):
        """Whether 2**k divides B_n."""
        return term_mod(SequenceKind.BALANCING, n, 1 << k) == 0

    def test_examples(self):
        assert self.divides(4, 2) is True
        assert self.divides(2, 2) is False
        assert self.divides(1, 1) is False

    def test_law_holds(self):
        for n in range(1, 130):
            for k in range(1, 8):
                assert self.divides(n, k) == (n % (1 << k) == 0)


class TestSieve:
    def test_default_moduli(self):
        assert default_sieve_moduli(2) == (3, 5, 7, 11, 13, 17, 19, 23)
        assert default_sieve_moduli(3) == (7, 13, 19, 31, 37, 43, 61, 67)
        assert default_sieve_moduli(5) == (11, 31, 41, 61, 71, 101, 131, 151)

    def test_default_moduli_are_one_mod_q(self):
        # power_residue_sieve raises to (p - 1) // q, which needs gcd(q, p - 1) = q
        for q in range(2, 201):
            for p in default_sieve_moduli(q):
                assert p % q == 1, (q, p)

    def test_default_moduli_match_a_prime_scan(self):
        # the first eight primes ≡ 1 (mod q) read off an ascending list of
        # every prime, composite q included
        primes = [p for p in range(2, 1 << 16) if is_prime(p)]
        for q in range(2, 501):
            expected = [p for p in primes if p % q == 1][:8]
            assert len(expected) == 8
            assert default_sieve_moduli(q) == tuple(expected), q

    def test_default_moduli_match_their_definition(self):
        # the literal definition by trial division, composite q included
        for q in range(2, 3001):
            expected = tuple(itertools.islice(filter(is_prime, itertools.count(q + 1, q)), 8))
            assert default_sieve_moduli(q) == expected, q
        # q = 127's eighth modulus, 9907, lies past the first sieve the fill
        # reads, so the range above also runs the fill's doubling
        assert default_sieve_moduli(127)[-1] >= len(prime_flags(64 * 127))

    def test_examples(self):
        assert power_residue_sieve(36, 2) is True
        assert power_residue_sieve(2, 3) is False  # cubes mod 7 are {0, 1, 6}

    def test_soundness_dense(self):
        for x in range(1, 2000):
            for q in (2, 3, 5):
                assert power_residue_sieve(x ** q, q) is True

    def test_soundness_random_big(self):
        rng = random.Random(7)
        for _ in range(500):
            x = rng.randrange(1, 10 ** 6)
            q = rng.choice((2, 3, 5, 7, 11))
            assert power_residue_sieve(x ** q, q) is True

    def test_rejects_most_non_powers(self):
        # not a soundness requirement, but the sieve is useless if it never says no
        rejected = sum(1 for v in range(2, 2000) if not power_residue_sieve(v, 2))
        assert rejected > 1500

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            power_residue_sieve(10, 1)
