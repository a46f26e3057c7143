"""Property tests of the searches' power test (diophantine._maybe_decompose).

The valuation restriction may only ever reject values that are no perfect
power: x**q must pass for every x >= 2 and prime q, whether x is made of
the stripped small primes, of primes above them, or of both.  The levels
of the gcd strip, which carry those valuations, must equal trial division.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ballab.bigmath import primes_up_to  # noqa: E402
from ballab.diophantine import _maybe_decompose, _strip_small  # noqa: E402
from refmath import perfect_power_decompose  # noqa: E402

SMALL_PRIMES = primes_up_to(199)
LARGE_PRIMES = tuple(p for p in primes_up_to(3000) if p > 199) + (
    1_000_003, 2_147_483_647, 2 ** 61 - 1)
PRIME_EXPONENTS = primes_up_to(61)

prime_exponents = st.sampled_from(PRIME_EXPONENTS)


def products_of(primes, max_factors=6, max_multiplicity=5):
    """Products of 1 to max_factors primes from the list, with multiplicities."""
    factor = st.tuples(st.sampled_from(primes), st.integers(1, max_multiplicity))
    return st.lists(factor, min_size=1, max_size=max_factors).map(
        lambda fs: math.prod(p ** e for p, e in fs))


def reference(n):
    base, exponent = perfect_power_decompose(n)
    return (base, exponent) if exponent > 1 else None


def assert_admits(x, q):
    value = x ** q
    found = _maybe_decompose(value)
    assert found is not None, (x, q)
    base, exponent = found
    assert exponent % q == 0 and base ** exponent == value


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@PROPERTY_SETTINGS
@given(st.integers(2, 10 ** 12), prime_exponents)
def test_never_rejects_a_power(x, q):
    assert_admits(x, q)


@PROPERTY_SETTINGS
@given(products_of(SMALL_PRIMES), prime_exponents)
def test_never_rejects_a_power_of_small_primes(x, q):
    assert_admits(x, q)


@PROPERTY_SETTINGS
@given(st.one_of(st.just(1), products_of(SMALL_PRIMES)), products_of(LARGE_PRIMES, 3, 3),
       prime_exponents)
def test_never_rejects_a_power_with_large_prime_cofactor(small, large, q):
    assert_admits(small * large, q)


@PROPERTY_SETTINGS
@given(st.integers(2, 10 ** 40))
def test_agrees_with_decompose_on_random_values(n):
    assert _maybe_decompose(n) == reference(n)


@PROPERTY_SETTINGS
@given(st.one_of(st.integers(2, 10 ** 6), products_of(SMALL_PRIMES, 3, 3),
                 products_of(LARGE_PRIMES, 2, 2)),
       st.integers(2, 13), st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
def test_agrees_with_decompose_on_near_powers(x, q, ell):
    n = x ** q * ell
    assert _maybe_decompose(n) == reference(n)


@PROPERTY_SETTINGS
@given(st.integers(2, 10 ** 6), st.integers(2, 13), st.sampled_from(SMALL_PRIMES),
       st.one_of(st.just(1), products_of(LARGE_PRIMES, 2, 2)))
def test_agrees_with_decompose_with_a_lone_small_prime(x, q, ell, cofactor):
    while x % ell == 0:
        x //= ell
    n = x ** q * ell * cofactor ** q
    assert _maybe_decompose(n) is None
    assert reference(n) is None


def trial_valuations(n):
    vals = {}
    for ell in SMALL_PRIMES:
        while n % ell == 0:
            n //= ell
            vals[ell] = vals.get(ell, 0) + 1
    return vals


@PROPERTY_SETTINGS
@given(products_of(SMALL_PRIMES), st.one_of(st.just(1), products_of(LARGE_PRIMES, 3, 4)))
def test_levels_match_trial_division(small, large):
    # level i is the product of the small primes of valuation >= i
    vals = trial_valuations(small)
    levels = [math.prod(ell for ell, e in vals.items() if e >= i)
              for i in range(1, max(vals.values()) + 1)]
    assert _strip_small(small * large) == (large, levels)
