import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsimplex import domain
from fqsimplex.field import PrimeField
from fqsimplex.fourier import (
    DenseFunction,
    average,
    convolve,
    fourier_transform,
    fourier_transform_naive,
    inverse_transform,
    plancherel_check,
    transform_rows,
)

GRID = [(q, d) for q in (3, 5, 7) for d in (1, 2, 3)]


def random_function(q, d, rng):
    n = q ** d
    return DenseFunction(q, d, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_average_examples(rng):
    f = DenseFunction.constant(5, 2, 1.0)
    assert abs(average(f) - 1.0) < 1e-15
    p = DenseFunction.point_mass(5, 2)
    assert abs(average(p) - 5.0 ** -2) < 1e-15
    # chi(y.x) averages to zero for y != 0
    fld = PrimeField(5)
    y = (2, 1)
    vals = np.array([fld.chi(domain.point_of(i, 5, 2)[0] * y[0] + domain.point_of(i, 5, 2)[1] * y[1])
                     for i in range(25)])
    assert abs(average(DenseFunction(5, 2, vals))) < 1e-9


def test_transform_of_constant_is_delta():
    f = DenseFunction.constant(5, 2, 1.0)
    fh = fourier_transform(f).values
    assert abs(fh[0] - 1.0) < 1e-9
    assert np.abs(fh[1:]).max() < 1e-9


def test_transform_of_scaled_point_mass_is_flat():
    f = DenseFunction.point_mass(7, 2, weight=49.0)
    fh = fourier_transform(f).values
    assert np.abs(fh - 1.0).max() < 1e-9


@pytest.mark.parametrize("q,d", GRID)
def test_round_trip(q, d, rng):
    f = random_function(q, d, rng)
    back = inverse_transform(fourier_transform(f))
    assert np.abs(back.values - f.values).max() < 1e-9


@pytest.mark.parametrize("q,d", GRID)
def test_fast_transform_matches_naive(q, d, rng):
    f = random_function(q, d, rng)
    fast = fourier_transform(f).values
    slow = fourier_transform_naive(f).values
    assert np.abs(fast - slow).max() < 1e-9


def test_inverse_of_delta_is_constant():
    spectrum = DenseFunction.point_mass(5, 2, weight=1.0)
    f = inverse_transform(spectrum)
    assert np.abs(f.values - 1.0).max() < 1e-12


def test_inverse_is_linear(rng):
    f = random_function(5, 2, rng)
    g = random_function(5, 2, rng)
    a, b = 2.5 - 1j, -0.25 + 3j
    combo = DenseFunction(5, 2, a * f.values + b * g.values)
    lhs = inverse_transform(combo).values
    rhs = a * inverse_transform(f).values + b * inverse_transform(g).values
    assert np.abs(lhs - rhs).max() < 1e-9


def test_convolution_identity_element(rng):
    f = random_function(5, 2, rng)
    e = DenseFunction.point_mass(5, 2, weight=25.0)
    assert np.abs(convolve(f, e).values - f.values).max() < 1e-9


def test_convolution_with_ones_averages(rng):
    g = random_function(7, 2, rng)
    ones = DenseFunction.constant(7, 2, 1.0)
    out = convolve(ones, g)
    assert np.abs(out.values - average(g)).max() < 1e-9


@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 2), (7, 1)])
def test_convolution_theorem_two_routes(q, d, rng):
    f = random_function(q, d, rng)
    g = random_function(q, d, rng)
    lhs = fourier_transform(convolve(f, g)).values
    rhs = fourier_transform(f).values * fourier_transform(g).values
    assert np.abs(lhs - rhs).max() < 1e-8


def direct_convolution(f, g):
    """Oracle: f*g(x) = q^-d sum_y f(y) g(x - y), one point pair at a time."""
    q, d = f.q, f.d
    direct = np.zeros(q ** d, dtype=complex)
    for xi in range(q ** d):
        x = domain.point_of(xi, q, d)
        s = 0j
        for yi in range(q ** d):
            y = domain.point_of(yi, q, d)
            xmy = tuple((a - b) % q for a, b in zip(x, y))
            s += f.values[yi] * g.values[domain.index_of(xmy, q)]
        direct[xi] = s / q ** d
    return direct


def test_convolution_direct_sum_oracle(rng):
    q, d = 3, 2
    f = random_function(q, d, rng)
    g = random_function(q, d, rng)
    assert np.abs(convolve(f, g).values - direct_convolution(f, g)).max() < 1e-12


# (q, d) with q^d <= 125, so the naive transform and the direct sum stay fast
SMALL_GRIDS = [(q, d) for q, d in GRID if q ** d <= 125]
VALUES = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def function_pairs(draw):
    q, d = draw(st.sampled_from(SMALL_GRIDS))
    f, g = (DenseFunction(q, d, np.array(draw(st.lists(VALUES, min_size=q ** d, max_size=q ** d)),
                                         dtype=np.complex128)) for _ in range(2))
    return f, g


@settings(max_examples=25, deadline=None)
@given(pair=function_pairs())
def test_plancherel_property(pair):
    f, g = pair
    lhs = (f.values * g.values.conj()).mean()
    rhs = (fourier_transform_naive(f).values * fourier_transform_naive(g).values.conj()).sum()
    scale = 1 + np.abs(f.values).max() * np.abs(g.values).max()
    assert abs(lhs - rhs) <= 1e-9 * scale
    assert plancherel_check(f, g) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(pair=function_pairs())
def test_convolution_theorem_property(pair):
    f, g = pair
    scale = 1 + np.abs(f.values).max() * np.abs(g.values).max()
    direct = DenseFunction(f.q, f.d, direct_convolution(f, g))
    assert np.abs(convolve(f, g).values - direct.values).max() <= 1e-9 * scale
    lhs = fourier_transform_naive(direct).values
    rhs = fourier_transform_naive(f).values * fourier_transform_naive(g).values
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


def test_convolution_commutes_and_associates(rng):
    f = random_function(5, 2, rng)
    g = random_function(5, 2, rng)
    h = random_function(5, 2, rng)
    assert np.abs(convolve(f, g).values - convolve(g, f).values).max() < 1e-8
    lhs = convolve(convolve(f, g), h).values
    rhs = convolve(f, convolve(g, h)).values
    assert np.abs(lhs - rhs).max() < 1e-8


def test_plancherel_examples(rng):
    ones = DenseFunction.constant(5, 2, 1.0)
    assert plancherel_check(ones, ones) < 1e-12
    mask = rng.random(25) < 0.4
    ind = DenseFunction(5, 2, mask.astype(np.complex128))
    lhs = (ind.values * ind.values.conj()).mean()
    assert abs(lhs - mask.mean()) < 1e-12
    assert plancherel_check(ind, ind) < 1e-12
    f = random_function(5, 2, rng)
    g = random_function(5, 2, rng)
    assert plancherel_check(f, g) <= 1e-9 * (1 + abs((f.values * g.values.conj()).mean()))


def test_parseval_nonnegative(rng):
    f = random_function(7, 2, rng)
    fh = fourier_transform(f).values
    energy = (np.abs(fh) ** 2).sum()
    assert energy >= 0
    assert abs(energy - (np.abs(f.values) ** 2).mean()) < 1e-9


def test_shape_mismatch_rejected(rng):
    f = random_function(3, 2, rng)
    g = random_function(3, 3, rng)
    with pytest.raises(ValueError):
        convolve(f, g)
    with pytest.raises(ValueError):
        plancherel_check(f, g)


def test_domain_cap():
    with pytest.raises(ValueError):
        DenseFunction.zeros(101, 5)


def test_value_layout():
    f = DenseFunction.zeros(3, 2)
    f.values[domain.index_of((1, 2), 3)] = 1.0
    assert f((1, 2)) == 1.0
    grid = f.grid()
    assert grid[1, 2] == 1.0


@pytest.mark.parametrize("q,d", [(3, 4), (5, 3), (7, 2)])
def test_transform_rows_match_one_row_transforms_bit_for_bit(q, d, rng):
    # a stack must give each row the bits of that row transformed alone;
    # measure-like rows (two values, many exact ties) are where a fused
    # gemm over the stack rounded differently
    n = q ** d
    stack = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    stack[1] = np.where(rng.random(n) < 0.2, float(q) ** 2, 0.0)
    stack[2] = np.where(rng.random(n) < 0.05, float(q) ** 3, 0.0)
    before = stack.copy()
    forward = transform_rows(stack, q, d)
    backward = transform_rows(stack, q, d, inverse=True)
    assert stack.tobytes() == before.tobytes()
    for i, row in enumerate(stack):
        f = DenseFunction(q, d, row)
        assert forward[i].tobytes() == fourier_transform(f).values.tobytes()
        assert backward[i].tobytes() == inverse_transform(f).values.tobytes()
