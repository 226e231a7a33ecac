import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_101
from fqsimplex import charsums, domain
from fqsimplex.charsums import (
    gauss_sum,
    quadratic_sum_bruteforce,
    quadratic_sum_closed_form,
    quadratic_sum_table,
    twisted_kloosterman,
    weil_bound_audit,
)
from fqsimplex.field import PrimeField


def direct_quadratic_sum(field, a, b):
    """Independent oracle: literal nested loops over F_q^d."""
    import itertools

    q = field.q
    total = 0j
    for x in itertools.product(range(q), repeat=len(b)):
        phase = a * sum(c * c for c in x) + sum(u * v for u, v in zip(b, x))
        total += field.chi(phase)
    return total


def test_gauss_sum_small_values():
    g5 = gauss_sum(PrimeField(5))
    assert abs(g5 - math.sqrt(5)) < 1e-12  # real positive for q = 1 mod 4
    g3 = gauss_sum(PrimeField(3))
    assert abs(g3 - 1j * math.sqrt(3)) < 1e-12


def test_gauss_sum_modulus_all_primes():
    for q in PRIMES_TO_101:
        g = gauss_sum(PrimeField(q))
        assert abs(abs(g) - math.sqrt(q)) < 1e-9 * math.sqrt(q)


def test_closed_form_definitional_case():
    for q in (5, 7, 13):
        f = PrimeField(q)
        assert abs(quadratic_sum_closed_form(f, 1, (0,)) - gauss_sum(f)) < 1e-12


def test_closed_form_matches_direct_oracle():
    f5 = PrimeField(5)
    val = quadratic_sum_closed_form(f5, 2, (1, 3))
    assert abs(val - direct_quadratic_sum(f5, 2, (1, 3))) < 1e-9

    f7 = PrimeField(7)
    val = quadratic_sum_closed_form(f7, 3, (0, 0, 0))
    expect = gauss_sum(f7) ** 3 * f7.eta(3) ** 3
    assert abs(val - expect) < 1e-9
    assert abs(val - direct_quadratic_sum(f7, 3, (0, 0, 0))) < 1e-9


def test_closed_form_matches_bruteforce_small_grid():
    for q, d in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        f = PrimeField(q)
        import itertools

        for a in range(1, q):
            for b in itertools.product(range(q), repeat=d):
                closed = quadratic_sum_closed_form(f, a, b)
                brute = quadratic_sum_bruteforce(f, a, b)
                assert abs(closed - brute) <= 1e-9 * max(1.0, abs(brute))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 11, 13]), d=st.integers(1, 3))
def test_closed_form_matches_bruteforce_property(data, q, d):
    f = PrimeField(q)
    a = data.draw(st.integers(1, q - 1), label="a")
    b = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d), label="b"))
    closed = quadratic_sum_closed_form(f, a, b)
    brute = quadratic_sum_bruteforce(f, a, b)
    assert abs(closed - brute) <= 1e-9 * max(1.0, abs(brute))


def test_bruteforce_agrees_with_direct_loops():
    f5 = PrimeField(5)
    for a, b in [(1, (0, 0)), (2, (1, 3)), (4, (2, 2))]:
        assert abs(quadratic_sum_bruteforce(f5, a, b) - direct_quadratic_sum(f5, a, b)) < 1e-10


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("block_bytes", [charsums.TABLE_BLOCK_BYTES, 1])
def test_quadratic_sum_table_matches_bruteforce_bit_for_bit(q, d, block_bytes, monkeypatch):
    # the scalar oracle against the blocked table, at the default block and
    # at one row of b per block
    monkeypatch.setattr(charsums, "TABLE_BLOCK_BYTES", block_bytes)
    f = PrimeField(q)
    table = quadratic_sum_table(f, d)
    assert table.shape == (q - 1, q ** d)
    for a in range(1, q):
        for b_idx in range(q ** d):
            brute = quadratic_sum_bruteforce(f, a, domain.point_of(b_idx, q, d))
            assert table[a - 1, b_idx].tobytes() == np.complex128(brute).tobytes()


def test_closed_form_takes_a_precomputed_gauss_sum():
    f = PrimeField(7)
    g = gauss_sum(f)
    for a, b in [(1, (0, 0)), (3, (2, 5)), (6, (1, 1))]:
        assert quadratic_sum_closed_form(f, a, b, g=g) == quadratic_sum_closed_form(f, a, b)


def test_closed_form_rejects_zero_a():
    with pytest.raises(ValueError):
        quadratic_sum_closed_form(PrimeField(5), 0, (1, 2))


def test_kloosterman_even_twist_no_inverse_term():
    # sum over s != 0 of chi(a s) collapses to -1
    for q in (5, 7, 13, 31):
        f = PrimeField(q)
        for a in (1, 2, q - 1):
            assert abs(twisted_kloosterman(f, 0, a, 0) - (-1)) < 1e-9
            assert abs(twisted_kloosterman(f, 4, a, 0) - (-1)) < 1e-9


def test_kloosterman_fully_degenerate_case():
    # a = b = 0 with even twist: no cancellation at all, the sum is q - 1
    for q in (5, 7, 13):
        f = PrimeField(q)
        assert abs(twisted_kloosterman(f, 0, 0, 0) - (q - 1)) < 1e-9
        assert abs(twisted_kloosterman(f, 1, 0, 0)) < 1e-9  # odd twist still cancels


def test_kloosterman_odd_twist_no_inverse_term_is_gauss():
    for q in (5, 7, 13):
        f = PrimeField(q)
        g = gauss_sum(f)
        for a in range(1, q):
            val = twisted_kloosterman(f, 1, a, 0)
            assert abs(val - f.eta(a) * g) < 1e-9


def test_kloosterman_direct_example_and_weil_bound():
    f13 = PrimeField(13)
    val = twisted_kloosterman(f13, 0, 1, 1)
    direct = sum(f13.chi(s + f13.inv(s)) for s in range(1, 13))
    assert abs(val - direct) < 1e-12
    assert abs(val) <= 2 * math.sqrt(13)


def test_kloosterman_parity_exactness():
    f11 = PrimeField(11)
    for a in (1, 3):
        for b in (0, 2):
            assert twisted_kloosterman(f11, 0, a, b) == twisted_kloosterman(f11, 2, a, b)
            assert twisted_kloosterman(f11, 1, a, b) == twisted_kloosterman(f11, 3, a, b)


def test_kloosterman_conjugation_symmetry():
    for q in (5, 7, 13):
        f = PrimeField(q)
        for a in range(1, q):
            for b in range(1, q):
                lhs = twisted_kloosterman(f, 0, a, b)
                rhs = twisted_kloosterman(f, 0, b, a)
                assert abs(lhs - rhs) < 1e-9


def test_weil_audit_small():
    rows = weil_bound_audit(31)
    assert {r.q for r in rows} == {3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for r in rows:
        assert r.passed and r.ratio_to_sqrt_q <= 2.0
        assert abs(r.abs_value / math.sqrt(r.q) - r.ratio_to_sqrt_q) < 1e-12


def test_weil_audit_gauss_rows_ratio_one():
    for q in (5, 7, 11):
        f = PrimeField(q)
        for a in range(1, q):
            ratio = abs(twisted_kloosterman(f, 1, a, 0)) / math.sqrt(q)
            assert abs(ratio - 1.0) < 1e-9


def test_weil_audit_cap():
    with pytest.raises(ValueError):
        weil_bound_audit(1000)
