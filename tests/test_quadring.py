import random

import pytest
from refmath import term_mod

import ballab.verify
from ballab.quadring import binet_extract, qpow
from ballab.sequences import SequenceKind, term, values_up_to


def mul(u, v):
    """(a + b*sqrt(2))*(c + d*sqrt(2)) on int pairs, the product of Z[sqrt(2)]."""
    (a, b), (c, d) = u, v
    return a * c + 2 * b * d, a * d + b * c


def test_qpow_small():
    assert qpow(0) == (1, 0)
    assert qpow(1) == (1, 1)
    assert qpow(2) == (3, 2)
    assert qpow(3) == (7, 5)


def test_qpow_rejects_negative():
    with pytest.raises(ValueError):
        qpow(-1)


def test_qpow_matches_repeated_multiplication():
    # (q + p*sqrt(2))*(1 + sqrt(2)) = (q + 2*p) + (q + p)*sqrt(2)
    q, p = 1, 0
    for n in range(60):
        assert qpow(n) == (q, p)
        q, p = q + 2 * p, q + p


def test_pell_norm_law():
    # Q_n**2 - 2*P_n**2 = (-1)**n, the law that gives C_n = 2*Q_n**2 - (-1)**n
    for n in range(201):
        q, p = qpow(n)
        assert q * q - 2 * p * p == (-1) ** n, n


def test_alpha_is_the_square_of_the_unit():
    # alpha = (1 + sqrt(2))**2 = 3 + 2*sqrt(2), alpha**2 = 17 + 12*sqrt(2)
    assert ballab.verify.ALPHA == qpow(2) == mul(qpow(1), qpow(1))
    assert mul(ballab.verify.ALPHA, ballab.verify.ALPHA) == qpow(4) == (17, 12)


def test_alpha_times_conjugate_is_one():
    a, b = ballab.verify.ALPHA
    assert mul((a, b), (a, -b)) == (1, 0)


def test_conjugation_commutes_with_powers():
    # (1 - sqrt(2))**n = Q_n - P_n*sqrt(2)
    acc = (1, 0)
    for n in range(60):
        q, p = qpow(n)
        assert acc == (q, -p), n
        acc = mul(acc, (1, -1))


def test_qpow_is_multiplicative():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 3000), st.integers(0, 3000))
    def check(m, n):
        assert qpow(m + n) == mul(qpow(m), qpow(n))

    check()


def test_binet_extract_gives_the_powers_of_alpha():
    # alpha**n = C_n + 2*B_n*sqrt(2)
    acc = (1, 0)
    for n in range(120):
        b, c = binet_extract(n)
        assert acc == (c, 2 * b), n
        acc = mul(acc, ballab.verify.ALPHA)


def test_balancing_norm_law():
    # alpha is a unit: norm(alpha**n) = C_n**2 - 8*B_n**2 = 1
    for n in range(201):
        b, c = binet_extract(n)
        assert c * c - 8 * b * b == 1, n


def test_binet_extract_doubling():
    # alpha**(2n) = (alpha**n)**2: B_2n = 2*B_n*C_n, C_2n = C_n**2 + 8*B_n**2
    for n in range(150):
        b, c = binet_extract(n)
        assert binet_extract(2 * n) == (2 * b * c, c * c + 8 * b * b), n


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
# the left-to-right loop), the benchmark's top indices and one below them,
# since C_n = 2*Q_n**2 - (-1)**n depends on the parity of n, and random n
CLOSED_FORM_INDICES = sorted({0, 1, 5499, 5500, 10999, 11000, 12000,
                              *(x for k in range(1, 14) for x in (2 ** k - 1, 2 ** k, 2 ** k + 1)),
                              *random.Random(28).sample(range(12001), 40)})


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_closed_forms_match_iteration_up_to_12000(kind):
    # ints, not decimal strings, so the interpreter's digit limit never applies
    values = values_up_to(kind, max(CLOSED_FORM_INDICES))
    for n in CLOSED_FORM_INDICES:
        assert term(kind, n) == values[n], n


def test_pairs_match_iteration_up_to_12000():
    q, p, b, c = (values_up_to(kind, max(CLOSED_FORM_INDICES))
                  for kind in (SequenceKind.ASSOCIATED_PELL, SequenceKind.PELL,
                               SequenceKind.BALANCING, SequenceKind.LUCAS_BALANCING))
    for n in CLOSED_FORM_INDICES:
        assert qpow(n) == (q[n], p[n]), n
        assert binet_extract(n) == (b[n], c[n]), n


def test_terms_agree_with_fast_doubling_mod_a_prime_up_to_200000():
    # beyond the iteration tests' reach: the reference doubles mod 2**61 - 1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    modulus = 2 ** 61 - 1

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(list(SequenceKind)), st.integers(0, 2 * 10 ** 5))
    def check(kind, n):
        assert term(kind, n) % modulus == term_mod(kind, n, modulus)

    check()
