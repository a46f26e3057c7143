import random

import pytest

from ballab.quadring import ALPHA, ONE, QuadInt, binet_extract, qpow
from ballab.sequences import SequenceKind, term, values_up_to


def conjugate(u):
    return QuadInt(u.a, -u.b)


def test_alpha_times_conjugate_is_one():
    assert ALPHA * conjugate(ALPHA) == ONE


def test_sqrt2_squared():
    assert QuadInt(0, 1) * QuadInt(0, 1) == QuadInt(2, 0)


def test_alpha_squared():
    assert ALPHA * ALPHA == QuadInt(17, 12)


def test_qpow_small():
    assert qpow(ALPHA, 0) == ONE
    assert qpow(ALPHA, 1) == ALPHA
    assert qpow(ALPHA, 2) == QuadInt(17, 12)
    assert qpow(ALPHA, 3) == QuadInt(99, 70)


def test_qpow_rejects_negative():
    with pytest.raises(ValueError):
        qpow(ALPHA, -1)


def test_qpow_matches_repeated_multiplication():
    acc = ONE
    for n in range(60):
        assert qpow(ALPHA, n) == acc
        acc = acc * ALPHA


def test_qpow_is_the_repeated_product_for_any_small_base():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coordinate = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(coordinate, coordinate, st.integers(0, 200))
    def check(a, b, n):
        u = QuadInt(a, b)
        acc = ONE
        for _ in range(n):
            acc = acc * u
        assert qpow(u, n) == acc

    check()


def test_ring_arithmetic():
    u = QuadInt(2, -3)
    v = QuadInt(-1, 5)
    assert u * v == QuadInt(2 * -1 + 2 * -3 * 5, 2 * 5 + -3 * -1)


def test_norm_is_multiplicative():
    u = QuadInt(7, 4)
    v = QuadInt(-2, 9)
    assert (u * v).norm() == u.norm() * v.norm()


def test_alpha_is_a_unit():
    for n in range(0, 120):
        assert qpow(ALPHA, n).norm() == 1


def test_conjugation_commutes_with_powers():
    for u in (ALPHA, QuadInt(5, -2), QuadInt(-3, 7)):
        for n in range(0, 25):
            assert conjugate(qpow(u, n)) == qpow(conjugate(u), n)


def test_binet_extract_initial_values():
    assert binet_extract(0) == (0, 1)
    assert binet_extract(1) == (1, 3)
    assert binet_extract(3) == (35, 99)


def test_binet_extract_rejects_negative():
    with pytest.raises(ValueError):
        binet_extract(-1)


def test_binet_extract_matches_recurrence():
    b = values_up_to(SequenceKind.BALANCING, 120)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, 120)
    for n in range(121):
        assert binet_extract(n) == (b[n], c[n])


# 0, 1, both sides of every power of two up to 2**13 (the bit patterns of
# the left-to-right loop), the top indices of the CLI smoke, and random n
CLOSED_FORM_INDICES = sorted({0, 1, 5500, 11000, 12000,
                              *(x for k in range(1, 14) for x in (2 ** k - 1, 2 ** k, 2 ** k + 1)),
                              *random.Random(28).sample(range(12001), 40)})


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_closed_forms_match_iteration_up_to_12000(kind):
    # ints, not decimal strings, so the interpreter's digit limit never applies
    values = values_up_to(kind, max(CLOSED_FORM_INDICES))
    for n in CLOSED_FORM_INDICES:
        assert term(kind, n) == values[n], n
    if kind is SequenceKind.BALANCING:
        c = values_up_to(SequenceKind.LUCAS_BALANCING, max(CLOSED_FORM_INDICES))
        for n in CLOSED_FORM_INDICES:
            assert binet_extract(n) == (values[n], c[n]), n
