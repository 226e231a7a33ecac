import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_valid_simplex, standard_simplex
from fqsimplex.field import PrimeField
from fqsimplex.linalg import (
    Simplex,
    construct_extremal_simplex,
    construct_self_dual_subspace,
    dot,
    embed_simplex,
    extend_isometry,
    find_simplex_of_rank,
    gram_matrix,
    identity_matrix,
    is_isometric,
    is_isometric_ordered,
    length_sq,
    make_simplex,
    mat_mul,
    mat_transpose,
    mat_vec,
    matrix_rank,
    orthogonal_complement,
    prefix_rank_sequence,
    prefix_simplex,
    random_orthogonal,
    reorder_for_prefix_ranks,
    simplex_from_json,
    simplex_is_valid,
    simplex_rank,
    span_elements,
    subspace_contains,
    subspace_span,
    vec_sub,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


# -- dot product and lengths -------------------------------------------------

def test_dot_examples():
    assert dot(F5, (1, 0), (0, 1)) == 0
    assert dot(F5, (1, 2), (3, 4)) == 1  # 3 + 8 = 11 = 1 mod 5
    i = F5.sqrt_of_minus_one()
    assert dot(F5, (1, i), (1, i)) == 0  # self-orthogonal vector


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(F5, (1, 0), (1, 0, 0))


def test_length_examples():
    assert length_sq(F5, (0, 0)) == 0
    assert length_sq(F7, (1, 1, 1)) == 3
    assert length_sq(F5, (1, 2)) == 0


def test_dot_bilinear_symmetric():
    rnd = random.Random(7)
    for _ in range(50):
        q = 7
        v = tuple(rnd.randrange(q) for _ in range(3))
        w = tuple(rnd.randrange(q) for _ in range(3))
        u = tuple(rnd.randrange(q) for _ in range(3))
        c = rnd.randrange(q)
        assert dot(F7, v, w) == dot(F7, w, v)
        cv_w = dot(F7, tuple((c * a) % q for a in v), w)
        assert cv_w == (c * dot(F7, v, w)) % q
        vw_u = dot(F7, tuple((a + b) % q for a, b in zip(v, w)), u)
        assert vw_u == (dot(F7, v, u) + dot(F7, w, u)) % q
        assert length_sq(F7, tuple((c * a) % q for a in v)) == (c * c * length_sq(F7, v)) % q


# -- subspaces ----------------------------------------------------------------

def test_subspace_canonical_representation():
    rnd = random.Random(3)
    for _ in range(20):
        vecs = [tuple(rnd.randrange(5) for _ in range(4)) for _ in range(2)]
        v1 = subspace_span(F5, vecs, 4)
        scaled = [tuple((3 * c) % 5 for c in vecs[0]),
                  tuple((a + b) % 5 for a, b in zip(vecs[0], vecs[1]))]
        v2 = subspace_span(F5, scaled + vecs, 4)
        assert v1 == v2
        for v in vecs:
            assert subspace_contains(F5, v1, v)


def test_orthogonal_complement_examples():
    zero = subspace_span(F5, [], 3)
    assert orthogonal_complement(F5, zero).dim == 3
    e1 = subspace_span(F7, [(1, 0, 0)], 3)
    assert orthogonal_complement(F7, e1) == subspace_span(F7, [(0, 1, 0), (0, 0, 1)], 3)
    v = subspace_span(F5, [(1, 2)], 2)
    assert orthogonal_complement(F5, v) == v  # W = Wperp


def test_orthogonal_complement_properties():
    rnd = random.Random(11)
    for q, d in [(3, 3), (5, 4), (7, 3)]:
        f = PrimeField(q)
        for _ in range(15):
            n = rnd.randrange(0, d + 1)
            vecs = [tuple(rnd.randrange(q) for _ in range(d)) for _ in range(n)]
            v = subspace_span(f, vecs, d)
            perp = orthogonal_complement(f, v)
            assert v.dim + perp.dim == d
            assert orthogonal_complement(f, perp) == v
            for a in v.basis:
                for b in perp.basis:
                    assert dot(f, a, b) == 0


def test_span_elements_enumeration():
    v = subspace_span(F5, [(1, 2)], 2)
    elems = set(span_elements(F5, v))
    assert elems == {tuple((c * 1 % 5, c * 2 % 5)) for c in range(5)}
    zero = subspace_span(F5, [], 2)
    assert set(span_elements(F5, zero)) == {(0, 0)}


# -- simplices and rank --------------------------------------------------------

def test_simplex_validation():
    make_simplex(F5, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        make_simplex(F5, [(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ValueError):
        make_simplex(F5, [(0, 0)])
    s = make_simplex(F5, [(0, 0), (1, 0), (2, 0)], validate=False)
    assert not simplex_is_valid(F5, s)


def test_standard_simplex():
    s = standard_simplex(F5, 3, 2)
    assert s.points == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert gram_matrix(F5, s) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        standard_simplex(F5, 2, 3)


def test_gram_examples():
    std = standard_simplex(F5, 2, 2)
    assert gram_matrix(F5, std) == ((1, 0), (0, 1))
    t = (3, 4)
    moved = make_simplex(F5, [t, (1 + 3, 4), (3, 1 + 4)])
    assert gram_matrix(F5, moved) == ((1, 0), (0, 1))
    iso = make_simplex(F5, [(0, 0), (1, 2)])
    assert gram_matrix(F5, iso) == ((0,),)


def test_simplex_rank_examples():
    for k in (1, 2, 3):
        std = standard_simplex(F5, k, k)
        assert simplex_rank(F5, std) == k
    assert simplex_rank(F5, make_simplex(F5, [(0, 0), (1, 2)])) == 0


def test_simplex_rank_matches_gram_rank():
    # oracle: the radical of V = span(diffs) has q^dim points, the points of
    # V orthogonal to every difference; the rank is k minus that dim
    rng = np.random.default_rng(17)
    for q, d, k in [(3, 2, 2), (5, 3, 2), (7, 4, 3), (5, 4, 2), (3, 4, 3)]:
        f = PrimeField(q)
        for i in range(20):
            if i % 3:
                s = random_valid_simplex(f, d, k, rng)
            else:  # dependent: the last difference is a combination of the others
                pts = [tuple(int(x) for x in rng.integers(q, size=d)) for _ in range(k)]
                c = [int(x) for x in rng.integers(q, size=k)]
                last = tuple((pts[0][t] + sum(ci * (p[t] - pts[0][t]) for ci, p in zip(c, pts))) % q
                             for t in range(d))
                s = Simplex(q, tuple(pts) + (last,))
            diffs = s.diffs()
            radical_points = sum(all(dot(f, v, u) == 0 for u in diffs)
                                 for v in span_elements(f, subspace_span(f, diffs, d)))
            dim = round(math.log(radical_points, q))
            assert q ** dim == radical_points
            assert simplex_rank(f, s) == k - dim
            if simplex_is_valid(f, s):
                assert simplex_rank(f, s) == matrix_rank(f, gram_matrix(f, s))


def test_rank_dimension_constraint():
    import numpy as np

    rng = np.random.default_rng(23)
    for q, d, k in [(3, 2, 2), (5, 3, 2), (7, 4, 3), (13, 3, 3)]:
        f = PrimeField(q)
        for _ in range(25):
            s = random_valid_simplex(f, d, k, rng)
            assert d >= 2 * k - simplex_rank(f, s)


# -- isometry ------------------------------------------------------------------

def test_is_isometric_ordered_examples():
    std = standard_simplex(F5, 2, 2)
    assert is_isometric_ordered(F5, std, std)
    moved = make_simplex(F5, [(2, 2), (3, 2), (2, 3)])
    assert is_isometric_ordered(F5, std, moved)
    a = make_simplex(F5, [(0,), (1,)])
    b = make_simplex(F5, [(0,), (2,)])
    assert not is_isometric_ordered(F5, a, b)  # lengths 1 vs 4
    with pytest.raises(ValueError):
        is_isometric_ordered(F5, std, a)


def test_is_isometric_across_ambient_dimensions():
    flat = standard_simplex(F5, 2, 2)
    tall = embed_simplex(F5, flat, 4)
    assert is_isometric_ordered(F5, flat, tall)


def test_is_isometric_permutations():
    std = standard_simplex(F7, 3, 2)
    for perm in itertools.permutations(std.points):
        assert is_isometric(F7, std, Simplex(7, perm))
    swapped = make_simplex(F7, [(0, 0, 0), (0, 1, 0), (1, 0, 0)])
    assert is_isometric_ordered(F7, std, swapped)


def test_is_isometric_distinguishes_rank():
    full = standard_simplex(F5, 2, 1)
    degenerate = make_simplex(F5, [(0, 0), (1, 2)])
    assert not is_isometric(F5, full, degenerate)


def test_isometric_implies_equal_rank_exhaustive():
    # all base-zero simplices of F_3^2 for k <= 2 (translation covered above)
    f3 = PrimeField(3)
    pts = [p for p in itertools.product(range(3), repeat=2)]
    zero = (0, 0)
    singles = [Simplex(3, (zero, p)) for p in pts if p != zero]
    pairs = [
        Simplex(3, (zero, a, b))
        for a in pts
        for b in pts
        if matrix_rank(f3, [a, b]) == 2
    ]
    for group in (singles, pairs):
        ranks = {s: simplex_rank(f3, s) for s in group}
        for s1 in group:
            for s2 in group:
                if is_isometric(f3, s1, s2):
                    assert ranks[s1] == ranks[s2]


def test_isometric_images_share_rank_randomized():
    # orthogonal image + translation + reordering stays isometric, same rank
    import numpy as np

    rng = np.random.default_rng(41)
    rnd = random.Random(41)
    for q, d, k in [(5, 3, 2), (7, 4, 2), (5, 4, 3)]:
        f = PrimeField(q)
        for _ in range(10):
            s = random_valid_simplex(f, d, k, rng)
            u = random_orthogonal(f, d, rng)
            t = tuple(rnd.randrange(q) for _ in range(d))
            pts = [tuple((c + tc) % q for c, tc in zip(mat_vec(f, u, p), t)) for p in s.points]
            rnd.shuffle(pts)
            other = Simplex(q, tuple(pts))
            assert is_isometric(f, s, other)
            assert simplex_rank(f, s) == simplex_rank(f, other)


def test_is_isometric_size_guard():
    pts = [tuple(1 if i == j else 0 for i in range(8)) for j in range(8)]
    s = make_simplex(F5, [(0,) * 8] + pts[:7])
    with pytest.raises(ValueError):
        is_isometric(F5, s, s)


# -- prefix ordering -------------------------------------------------------------

def test_reorder_full_rank_is_noop_compatible():
    std = standard_simplex(F7, 3, 3)
    out = reorder_for_prefix_ranks(F7, std)
    assert prefix_rank_sequence(F7, out) == (1, 2, 3)


def test_reorder_puts_anisotropic_first():
    s = make_simplex(F5, [(0, 0, 0), (1, 2, 0), (0, 0, 1)])
    assert simplex_rank(F5, s) == 1
    out = reorder_for_prefix_ranks(F5, s)
    assert out.points[1] == (0, 0, 1)
    assert prefix_rank_sequence(F5, out) == (1, 1)


def test_reorder_rank_zero_identity():
    s = find_simplex_of_rank(F5, 4, 2, 0)
    out = reorder_for_prefix_ranks(F5, s)
    assert prefix_rank_sequence(F5, out) == (0, 0)


def test_reorder_random_property():
    import numpy as np

    rng = np.random.default_rng(29)
    for q, d, k in [(5, 3, 2), (5, 4, 3), (7, 4, 2)]:
        f = PrimeField(q)
        for _ in range(15):
            s = random_valid_simplex(f, d, k, rng)
            r = simplex_rank(f, s)
            out = reorder_for_prefix_ranks(f, s)
            assert simplex_rank(f, out) == r
            assert prefix_rank_sequence(f, out) == tuple(min(j, r) for j in range(1, k + 1))
            assert sorted(out.points) == sorted(s.points)


# -- isometry extension ----------------------------------------------------------

def test_extend_isometry_identity_case():
    src = [(1, 0, 0), (0, 1, 0)]
    u = extend_isometry(F5, src, src, 3)
    for v in src:
        assert mat_vec(F5, u, v) == v
    assert mat_mul(F5, mat_transpose(u), u) == identity_matrix(3)


def test_extend_isometry_examples():
    u = extend_isometry(F7, [(1, 0)], [(0, 1)], 2)
    assert mat_vec(F7, u, (1, 0)) == (0, 1)
    assert mat_mul(F7, mat_transpose(u), u) == identity_matrix(2)

    u2 = extend_isometry(F5, [(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 0, 1)], 3)
    assert mat_vec(F5, u2, (1, 0, 0)) == (0, 1, 0)
    assert mat_vec(F5, u2, (0, 1, 0)) == (0, 0, 1)
    assert mat_mul(F5, mat_transpose(u2), u2) == identity_matrix(3)


def test_extend_isometry_random_instances():
    import numpy as np

    rng = np.random.default_rng(31)
    rnd = random.Random(31)
    done = 0
    while done < 30:
        q = rnd.choice([5, 7, 13])
        f = PrimeField(q)
        d = rnd.choice([2, 3, 4])
        m = rnd.randrange(1, d + 1)
        src = [tuple(rnd.randrange(q) for _ in range(d)) for _ in range(m)]
        gram = [[dot(f, a, b) for b in src] for a in src]
        if matrix_rank(f, [tuple(r) for r in gram]) != m:
            continue
        # one shared orthogonal map so the tuples stay isometric
        u0 = random_orthogonal(f, d, rng)
        target = [mat_vec(f, u0, v) for v in src]
        u = extend_isometry(f, src, target, d)
        assert mat_mul(f, mat_transpose(u), u) == identity_matrix(d)
        for v, w in zip(src, target):
            assert mat_vec(f, u, v) == w
        for _ in range(5):
            x = tuple(rnd.randrange(q) for _ in range(d))
            y = tuple(rnd.randrange(q) for _ in range(d))
            assert dot(f, mat_vec(f, u, x), mat_vec(f, u, y)) == dot(f, x, y)
        done += 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 13]), d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_extend_isometry_property(data, q, d, seed):
    # the target is the source under a random orthogonal map, so the pair
    # is isometric; extend_isometry must give an orthogonal U doing the same
    f = PrimeField(q)
    m = data.draw(st.integers(1, d), label="m")
    vector = st.tuples(*[st.integers(0, q - 1)] * d)
    src = data.draw(st.lists(vector, min_size=m, max_size=m), label="source")
    assume(matrix_rank(f, [tuple(dot(f, a, b) for b in src) for a in src]) == m)
    target = [mat_vec(f, random_orthogonal(f, d, np.random.default_rng(seed)), v) for v in src]
    u = extend_isometry(f, src, target, d)
    assert mat_mul(f, mat_transpose(u), u) == identity_matrix(d)
    assert [mat_vec(f, u, v) for v in src] == target


def test_extend_isometry_all_isotropic_source():
    # both vectors are isotropic with dot 2, so Gram-Schmidt must start
    # from their sum, the only way to an anisotropic first pair
    src = [(1, 2, 0, 0), (1, 3, 0, 0)]
    tgt = [(0, 0, 1, 2), (0, 0, 1, 3)]
    assert [length_sq(F5, v) for v in src] == [0, 0] and dot(F5, *src) == 2
    u = extend_isometry(F5, src, tgt, 4)
    assert [mat_vec(F5, u, v) for v in src] == tgt
    assert mat_mul(F5, mat_transpose(u), u) == identity_matrix(4)


def test_extend_isometry_isotropic_difference():
    # u - t = (0, 4, 3) is isotropic and nonzero, so one reflection along
    # it is impossible; the map reflects along u + t and then along t
    src, tgt = (1, 0, 0), (1, 1, 2)
    assert length_sq(F5, vec_sub(src, tgt, 5)) == 0
    u = extend_isometry(F5, [src], [tgt], 3)
    assert mat_vec(F5, u, src) == tgt
    assert mat_mul(F5, mat_transpose(u), u) == identity_matrix(3)


def test_extend_isometry_length_gate_mod_seven():
    # |(2,2)|^2 = 8 = 1 mod 7, so e1 -> (2,2) is admissible; length 2 is not
    u = extend_isometry(F7, [(1, 0)], [(2, 2)], 2)
    assert mat_vec(F7, u, (1, 0)) == (2, 2)
    assert mat_mul(F7, mat_transpose(u), u) == identity_matrix(2)
    with pytest.raises(ValueError):
        extend_isometry(F7, [(1, 0)], [(1, 1)], 2)  # length 2 != 1


def test_extend_isometry_rejects_bad_input():
    with pytest.raises(ValueError):
        extend_isometry(F5, [(1, 0)], [(2, 0)], 2)  # lengths 1 vs 4
    with pytest.raises(ValueError):
        extend_isometry(F5, [(1, 2, 0)], [(1, 2, 0)], 3)  # isotropic: singular Gram
    with pytest.raises(ValueError):
        extend_isometry(F5, [(1, 0)], [(1, 0), (0, 1)], 2)


def test_random_orthogonal_is_orthogonal():
    import numpy as np

    rng = np.random.default_rng(37)
    for q, d in [(5, 3), (7, 4), (13, 2)]:
        f = PrimeField(q)
        u = random_orthogonal(f, d, rng)
        assert mat_mul(f, mat_transpose(u), u) == identity_matrix(d)


# -- constructions ------------------------------------------------------------------

def test_self_dual_subspace_examples():
    w1 = construct_self_dual_subspace(F5, 1)
    assert w1.basis == ((1, 2),)
    assert orthogonal_complement(F5, w1) == w1
    w2 = construct_self_dual_subspace(F5, 2)
    assert w2.basis == ((1, 2, 0, 0), (0, 0, 1, 2))
    assert orthogonal_complement(F5, w2) == w2
    w0 = construct_self_dual_subspace(F5, 0)
    assert w0.dim == 0 and w0.d == 0


def test_self_dual_requires_one_mod_four():
    with pytest.raises(ValueError):
        construct_self_dual_subspace(F7, 1)


def test_extremal_simplex():
    for q in (5, 13):
        f = PrimeField(q)
        for k in (1, 2, 3):
            for r in range(k + 1):
                s = construct_extremal_simplex(f, k, r)
                assert s.d == 2 * k - r
                assert simplex_rank(f, s) == r
                assert simplex_is_valid(f, s)


def test_extremal_simplex_preconditions():
    with pytest.raises(ValueError):
        construct_extremal_simplex(F7, 2, 1)  # q = 3 mod 4, r < k
    with pytest.raises(ValueError):
        construct_extremal_simplex(F5, 2, 3)
    assert simplex_rank(F7, construct_extremal_simplex(F7, 2, 2)) == 2


def test_find_simplex_of_rank_all_residue_classes():
    for q in (5, 7, 11):
        f = PrimeField(q)
        for d, k, r in [(3, 2, 1), (3, 2, 2), (4, 2, 0), (4, 3, 2)]:
            s = find_simplex_of_rank(f, d, k, r)
            assert simplex_rank(f, s) == r
            assert simplex_is_valid(f, s)
            assert prefix_rank_sequence(f, s) == tuple(min(j, r) for j in range(1, k + 1))
    with pytest.raises(ValueError):
        find_simplex_of_rank(F5, 3, 2, 0)  # needs d >= 4


# -- literals ------------------------------------------------------------------------

def test_simplex_json_round_trip():
    s = simplex_from_json(F5, "[[0,0,0],[1,0,0],[0,1,0]]")
    assert s.points == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    assert simplex_from_json(F5, json.dumps([list(p) for p in s.points])) == s


def test_simplex_json_rejects_bad_literals():
    with pytest.raises(ValueError):
        simplex_from_json(F5, "[[0,0],[1,0],[2,0]]")  # dependent differences
    with pytest.raises(ValueError):
        simplex_from_json(F5, "[[0,0],[1,\"x\"]]")
    with pytest.raises(ValueError):
        simplex_from_json(F5, "[]")
