import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import roll_translate
from fqsimplex import domain

# t = d at (3,1), (5,2), (5,4), (3,6) and (40009,1); t < d at (7,4), (11,4)
# and (31,3).  q = 40009 stores its coordinates as int32.
TRANSLATE_CASES = [(3, 1), (5, 2), (5, 4), (7, 4), (3, 6), (11, 4), (31, 3), (40009, 1)]


def random_values(q, d, dtype, rng):
    n = q ** d
    if dtype == bool:
        return rng.random(n) < 0.4
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("q,d", TRANSLATE_CASES)
def test_window_is_the_fewest_inner_coordinates_holding_the_window_points(q, d):
    t = domain.window_coords(q, d)
    assert 1 <= t <= d
    assert q ** (t - 1) < domain.WINDOW_POINTS
    assert t == d or q ** t >= domain.WINDOW_POINTS
    wrapped = domain.wrap(np.zeros(q ** d, dtype=bool), q, d)
    assert wrapped.shape == (q ** (d - t),) + (2 * q - 1,) * t


@pytest.mark.parametrize("dtype", [bool, np.complex128])
@pytest.mark.parametrize("q,d", TRANSLATE_CASES)
def test_translate_values_match_roll_bit_for_bit(q, d, dtype):
    rng = np.random.default_rng(q * 100 + d)
    values = random_values(q, d, dtype, rng)
    # zero, the all (q-1) and all -1 vectors, coordinates >= q, and random
    # vectors with negative coordinates and coordinates up to 3q
    ys = np.concatenate([
        np.zeros((1, d), dtype=np.int64),
        np.full((1, d), q - 1),
        np.full((1, d), -1),
        np.full((1, d), q + 2),
        rng.integers(-3 * q, 3 * q, size=(4, d)),
    ])
    out = domain.translate_values(domain.wrap(values, q, d), q, d, ys)
    assert out.dtype == values.dtype
    assert out.shape == (len(ys), q ** d)
    assert np.array_equal(out, np.stack([roll_translate(values, q, d, y) for y in ys]))


@pytest.mark.parametrize("q,d", [(5, 2), (7, 4)])
def test_empty_batch_has_shape_zero_by_domain(q, d):
    values = np.ones(q ** d, dtype=np.complex128)
    out = domain.translate_values(domain.wrap(values, q, d), q, d, np.zeros((0, d), dtype=np.int64))
    assert out.shape == (0, q ** d)
    assert out.dtype == np.complex128


def test_translate_values_rejects_an_unwrapped_array():
    values = np.ones(5 ** 2, dtype=bool)
    with pytest.raises(ValueError, match="wrap"):
        domain.translate_values(values, 5, 2, [(1, 2)])
    # wrapped for another domain
    with pytest.raises(ValueError, match="wrap"):
        domain.translate_values(domain.wrap(np.ones(7 ** 2, dtype=bool), 7, 2), 5, 2, [(1, 2)])


@pytest.mark.parametrize("ys", [[(1,)], [(1, 2)], [(1, 2, 3, 4)], [1, 2, 3], np.zeros((0, 2))])
def test_translate_values_rejects_vectors_of_another_length(ys):
    wrapped = domain.wrap(np.ones(5 ** 3, dtype=bool), 5, 3)
    with pytest.raises(ValueError, match="d = 3"):
        domain.translate_values(wrapped, 5, 3, ys)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 11, 13, 17]), d=st.integers(1, 4),
       complex_values=st.booleans())
def test_translate_values_match_roll_property(data, q, d, complex_values):
    if q ** d > 20000:
        d = 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = random_values(q, d, np.complex128 if complex_values else bool, rng)
    ys = data.draw(st.lists(st.lists(st.integers(-2 * q, 2 * q), min_size=d, max_size=d), max_size=6))
    out = domain.translate_values(domain.wrap(values, q, d), q, d, np.array(ys, dtype=np.int64).reshape(-1, d))
    assert out.shape == (len(ys), q ** d)
    for row, y in zip(out, ys):
        assert np.array_equal(row, roll_translate(values, q, d, y))


def product_span(vectors, q):
    """Oracle for domain.span_indices: the flat index of sum_i c_i v_i for
    each coefficient tuple of itertools.product, one point at a time."""
    d = len(vectors[0]) if len(vectors) else 0
    return [domain.index_of([sum(c * v[i] for c, v in zip(cs, vectors)) for i in range(d)], q)
            for cs in itertools.product(range(q), repeat=len(vectors))]


@pytest.mark.parametrize("q", [3, 7])
def test_span_indices_match_product_oracle(q):
    rng = np.random.default_rng(q)
    d = 3
    v, w = rng.integers(1, q, size=(2, d))
    cases = [
        np.zeros((2, 0, d), dtype=np.int64),  # the empty span {0}
        rng.integers(-q, 2 * q, size=(4, 1, d)),  # entries outside 0..q-1
        rng.integers(0, q, size=(3, 2, d)),
        rng.integers(0, q, size=(2, 3, d)),
        np.array([[v, 2 * v], [v, w + v], [v, 0 * v]]),  # dependent pairs but one
    ]
    for vectors in cases:
        out = domain.span_indices(vectors, q)
        m = vectors.shape[1]
        assert out.dtype == np.int64 and out.shape == (len(vectors), q ** m)
        for row, vs in zip(out, vectors.tolist()):
            assert row.tolist() == product_span(vs, q)
        # given coefficient rows pick those combinations, in their order
        picked = rng.permutation(q ** m)[:2]
        coeffs = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.int64).reshape(q ** m, m)
        assert np.array_equal(domain.span_indices(vectors, q, coeffs[picked]), out[:, picked])
    assert domain.span_indices(cases[0], q).tolist() == [[0], [0]]
    dependent = domain.span_indices(cases[-1], q)
    # a dependent pair spans a line: each of its q points repeats q times
    for row in dependent[[0, 2]]:
        assert sorted(np.unique(row, return_counts=True)[1].tolist()) == [q] * q



@pytest.mark.parametrize("q,d", [(3, 1), (3, 12), (5, 8), (7, 7), (101, 3), (1447, 2),
                                 (46349, 1), (65521, 1)])
def test_lengths_vector_matches_the_whole_matrix_formula(q, d):
    # the former construction: one int64 copy of the (q^d, d) coordinates,
    # squared and summed along each row.  Up to 2.1M points, and q past
    # the int32 limit of a step's sum.
    coords = domain.coords_matrix(q, d).astype(np.int64)
    want = ((coords * coords).sum(axis=1) % q).astype(np.int32)
    got = domain.lengths_vector(q, d)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert hashlib.sha256(got.tobytes()).hexdigest() == hashlib.sha256(want.tobytes()).hexdigest()


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("q,d", [(3, 1), (3, 12), (5, 8), (13, 5), (101, 3), (1447, 2),
                                 (46349, 1), (65521, 1)])
def test_tables_match_the_division_formula(q, d):
    # the former construction: every coordinate divided out of the flat
    # index array, and the lengths summed from those coordinates.  q = 46349
    # and 65521 store int32 coordinates, and their squares pass int32.
    idx = np.arange(q ** d, dtype=np.int64)
    coords = np.empty((q ** d, d), dtype=np.int16 if q - 1 <= np.iinfo(np.int16).max else np.int32)
    lengths = np.zeros(q ** d, dtype=np.int64)
    for c in range(d):
        coords[:, c] = (idx // q ** c) % q
        lengths += coords[:, c].astype(np.int64) ** 2
        lengths %= q
    lengths = lengths.astype(np.int32)
    for got, want in [(domain.coords_matrix(q, d), coords), (domain.lengths_vector(q, d), lengths)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert not got.flags.writeable
        assert sha256(got) == sha256(want)
