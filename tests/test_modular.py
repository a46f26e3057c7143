import random

import pytest

from ballab.bigmath import is_prime
from ballab.modular import (
    MOD9_TABLE,
    default_sieve_moduli,
    period,
    power_residue_sieve,
    residue_class_mod9,
    residue_range,
    term_mod,
)
from ballab.sequences import SequenceKind, values_up_to


class TestTermMod:
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
    assert residue_range(SequenceKind.BALANCING, 0, 50, 9) == [v % 9 for v in vals]
    assert residue_range(SequenceKind.BALANCING, 10, 20, 7) == [v % 7 for v in vals[10:21]]


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
        direct = residue_range(SequenceKind.BALANCING, 0, 240, 9)
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
        for p in default_sieve_moduli(7):
            assert p % 7 == 1

    def test_default_moduli_match_a_prime_scan(self):
        # the first eight primes ≡ 1 (mod q) read off an ascending list of
        # every prime, composite q included
        primes = [p for p in range(2, 1 << 16) if is_prime(p)]
        for q in range(2, 501):
            expected = [p for p in primes if p % q == 1][:8]
            assert len(expected) == 8
            assert default_sieve_moduli(q) == tuple(expected), q

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
