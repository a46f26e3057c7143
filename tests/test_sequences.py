import math

import pytest

from ballab.sequences import SequenceKind, balancer, term, values_up_to

BALANCING_PREFIX = [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416, 1372105]
LUCAS_PREFIX = [1, 3, 17, 99, 577, 3363, 19601, 114243, 665857, 3880899]
PELL_PREFIX = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985]
ASSOC_PELL_PREFIX = [1, 1, 3, 7, 17, 41, 99, 239, 577, 1393]


@pytest.mark.parametrize("kind,prefix", [
    (SequenceKind.BALANCING, BALANCING_PREFIX),
    (SequenceKind.LUCAS_BALANCING, LUCAS_PREFIX),
    (SequenceKind.PELL, PELL_PREFIX),
    (SequenceKind.ASSOCIATED_PELL, ASSOC_PELL_PREFIX),
])
def test_term_prefixes(kind, prefix):
    for n, want in enumerate(prefix):
        assert term(kind, n) == want
    assert values_up_to(kind, 9) == prefix


def test_term_examples():
    assert term(SequenceKind.BALANCING, 3) == 35
    assert term(SequenceKind.LUCAS_BALANCING, 0) == 1
    assert term(SequenceKind.BALANCING, 5) == 1189


def test_term_rejects_negative():
    with pytest.raises(ValueError):
        term(SequenceKind.PELL, -1)


def test_doubling_path_matches_iteration():
    # term's closed form against the recurrence, from the initial values on
    for kind in SequenceKind:
        vals = values_up_to(kind, 90)
        for n in range(91):
            assert term(kind, n) == vals[n]


def half_index_sum(n, m):
    """Both sides of B_n + B_m = 2 * B_{(n+m)/2} * C_{(n-m)/2}, n >= m of equal parity."""
    b = values_up_to(SequenceKind.BALANCING, n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, n)
    return b[n] + b[m], 2 * b[(n + m) // 2] * c[(n - m) // 2]


def half_index_diff(n, m):
    """Both sides of B_n - B_m = 2 * B_{(n-m)/2} * C_{(n+m)/2}, n >= m of equal parity."""
    b = values_up_to(SequenceKind.BALANCING, n)
    c = values_up_to(SequenceKind.LUCAS_BALANCING, n)
    return b[n] - b[m], 2 * b[(n - m) // 2] * c[(n + m) // 2]


class TestIdentities:
    def test_sum_identity_values(self):
        assert half_index_sum(3, 1) == (36, 36)
        assert half_index_sum(4, 4) == (408, 408)
        assert half_index_sum(5, 1) == (1190, 1190)

    def test_diff_identity_values(self):
        assert half_index_diff(3, 1) == (34, 34)
        assert half_index_diff(2, 2) == (0, 0)
        assert half_index_diff(4, 2) == (198, 198)

    def test_identities_hold_on_a_sweep(self):
        for n in range(0, 80):
            for m in range(n % 2, n + 1, 2):
                lhs, rhs = half_index_sum(n, m)
                assert lhs == rhs
                lhs, rhs = half_index_diff(n, m)
                assert lhs == rhs

    def test_product_identity(self):
        # B_m = P_m * Q_m
        b = values_up_to(SequenceKind.BALANCING, 60)
        p = values_up_to(SequenceKind.PELL, 60)
        q = values_up_to(SequenceKind.ASSOCIATED_PELL, 60)
        assert (b[3], p[3] * q[3]) == (35, 35)
        assert (b[0], p[0] * q[0]) == (0, 0)
        assert (b[2], p[2] * q[2]) == (6, 6)
        for m in range(61):
            assert b[m] == p[m] * q[m]


class TestBalancer:
    def test_known_balancers(self):
        assert balancer(1) == 0
        assert balancer(6) == 2
        assert balancer(35) == 14
        assert balancer(204) == 84

    def test_non_balancing(self):
        assert balancer(5) is None
        assert balancer(2) is None
        assert balancer(100) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            balancer(0)

    def test_defining_equation(self):
        # brute-force both sums for every balancing number small enough
        for b in values_up_to(SequenceKind.BALANCING, 7)[1:]:
            r = balancer(b)
            assert r is not None
            assert sum(range(1, b)) == sum(range(b + 1, b + r + 1))

    def test_balancing_iff_square(self):
        hits = [b for b in range(1, 50_000) if balancer(b) is not None]
        assert hits == [1, 6, 35, 204, 1189, 6930, 40391]


class TestInvariants:
    def test_square_plus_one(self):
        b = values_up_to(SequenceKind.BALANCING, 100)
        c = values_up_to(SequenceKind.LUCAS_BALANCING, 100)
        for n in range(101):
            assert 8 * b[n] ** 2 + 1 == c[n] ** 2

    def test_pell_parts_coprime(self):
        p = values_up_to(SequenceKind.PELL, 100)
        q = values_up_to(SequenceKind.ASSOCIATED_PELL, 100)
        for n in range(1, 101):
            assert math.gcd(p[n], q[n]) == 1

    def test_index_doubling(self):
        b = values_up_to(SequenceKind.BALANCING, 160)
        c = values_up_to(SequenceKind.LUCAS_BALANCING, 80)
        for n in range(81):
            assert b[2 * n] == 2 * b[n] * c[n]

    def test_addition_formula(self):
        b = values_up_to(SequenceKind.BALANCING, 100)
        c = values_up_to(SequenceKind.LUCAS_BALANCING, 100)
        for x in range(0, 51):
            for y in range(0, 50):
                assert b[x + y] == b[x] * c[y] + c[x] * b[y]

    def test_gcd_structure(self):
        b = values_up_to(SequenceKind.BALANCING, 60)
        c = values_up_to(SequenceKind.LUCAS_BALANCING, 60)
        v2 = lambda n: (n & -n).bit_length() - 1
        for n in range(1, 61):
            for m in range(1, 61):
                d = math.gcd(n, m)
                assert math.gcd(b[n], b[m]) == b[d]
                assert math.gcd(c[n], c[m]) == (c[d] if v2(n) == v2(m) else 1)
                assert math.gcd(b[n], c[m]) == (c[d] if v2(n) > v2(m) else 1)
