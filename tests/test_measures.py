import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_points, random_valid_simplex, standard_simplex
from fqsimplex import domain
from fqsimplex.field import PrimeField
from fqsimplex.fourier import average, fourier_transform
from fqsimplex.linalg import (
    Simplex,
    find_simplex_of_rank,
    gram_matrix,
    length_sq,
    make_simplex,
    mat_vec,
    matrix_rank,
    random_orthogonal,
    simplex_rank,
    subspace_contains,
    subspace_span,
)
from fqsimplex.measures import (
    build_conditional,
    build_sigma,
    check_anchors,
    conditional_mask,
    conditional_masks,
    conditional_value,
    detection_product,
    measure_suite,
    sample_anchor_tuple,
    span_mask,
    step_targets,
    suite_ranks,
    verify_conditional_asymptotic,
    verify_sphere_asymptotic,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# -- supports -----------------------------------------------------------------

def test_sigma_support_q3_d1():
    sig = build_sigma(F3, 1, 1)
    assert sig((1,)) == 3 and sig((2,)) == 3 and sig((0,)) == 0


def test_sigma_zero_radius_includes_isotropic_points():
    sig = build_sigma(F5, 0, 2)
    assert sig((0, 0)) == 5
    assert sig((1, 2)) == 5
    assert sig((1, 0)) == 0


def test_sigma_unit_radius_avoids_origin():
    for q, d in [(3, 2), (5, 2), (7, 3)]:
        f = PrimeField(q)
        assert build_sigma(f, 1, d)((0,) * d) == 0


def test_sigma_support_characterization_exhaustive():
    for q, d in [(3, 2), (5, 2), (3, 3)]:
        f = PrimeField(q)
        for radius in range(q):
            sig = build_sigma(f, radius, d)
            for p in all_points(q, d):
                expected = q if length_sq(f, p) == radius else 0
                assert sig(p) == expected


def test_conditional_support_coordinate_case():
    # anchors {e1}, targets (0, 1): the support is {y : y_1 = 0, |y|^2 = 1}
    mu = build_conditional(F5, [(1, 0, 0)], (0, 1), 3)
    for p in all_points(5, 3):
        expected = 25 if (p[0] == 0 and length_sq(F5, p) == 1) else 0
        assert mu(p) == expected


def test_conditional_no_anchors_reduces_to_sigma():
    mu = build_conditional(F5, [], (1,), 2)
    sig = build_sigma(F5, 1, 2)
    assert np.array_equal(mu.values, sig.values)


def test_conditional_isotropic_anchor_contains_itself():
    mu = build_conditional(F5, [(1, 2)], (0, 0), 2)
    assert mu((1, 2)) == 25


def test_conditional_value_matches_mask_exhaustive():
    anchors = [(1, 0, 0), (1, 1, 0)]
    targets = (2, 1, 4)
    mask = conditional_mask(F5, anchors, targets, 3)
    for idx, p in enumerate(all_points(5, 3)):
        val = conditional_value(F5, anchors, targets, p)
        assert (val == 125) == bool(mask[idx])
        assert val in (0, 125)


@pytest.mark.parametrize("q,d", [(3, 1), (5, 2), (5, 3), (3, 4)])
def test_conditional_masks_match_integer_weights(q, d, rng):
    # every row of a block against the exact integer weight at every point,
    # for blocks of zero, one and two anchors (odd d splits unevenly)
    field = PrimeField(q)
    points = all_points(q, d)
    for level in range(3):
        chosen = rng.integers(0, q ** d, size=(4, level))
        targets = tuple(int(t) for t in rng.integers(0, q, size=level + 1))
        block = conditional_masks(q, d, chosen, targets)
        assert block.shape == (4, q ** d)
        for r in range(4):
            anchors = [domain.point_of(int(i), q, d) for i in chosen[r]]
            weights = [conditional_value(field, anchors, targets, p) for p in points]
            assert np.array_equal(block[r], np.array(weights) > 0)
            assert np.array_equal(block[r], conditional_mask(field, anchors, targets, d))
    with pytest.raises(ValueError):
        conditional_masks(q, d, np.zeros((3, 1), dtype=np.int64), (1,))


def test_conditional_target_arity_checked():
    with pytest.raises(ValueError):
        build_conditional(F5, [(1, 0)], (1, 2, 3), 2)
    with pytest.raises(ValueError):
        conditional_value(F5, [(1, 0)], (1,), (0, 1))


# -- detection ------------------------------------------------------------------

def test_detection_product_reference_tuple():
    for q, d, k in [(5, 3, 2), (7, 3, 2), (5, 4, 3)]:
        f = PrimeField(q)
        s = standard_simplex(f, d, k)
        assert detection_product(f, s.diffs(), s) == q ** (k * (k + 1) // 2)


def test_detection_product_zero_on_broken_condition():
    s = standard_simplex(F5, 3, 2)
    assert detection_product(F5, [(1, 0, 0), (1, 1, 0)], s) == 0
    assert detection_product(F5, [(0, 0, 0), (0, 1, 0)], s) == 0


def test_detection_product_arity():
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(ValueError):
        detection_product(F5, [(1, 0, 0)], s)


def test_detection_matches_gram_comparison_exhaustive_small():
    q, d, k = 3, 2, 2
    f = PrimeField(q)
    ref = standard_simplex(f, d, k)
    zero = (0,) * d
    ref_gram = gram_matrix(f, ref)
    for ys in itertools.product(all_points(q, d), repeat=k):
        detected = detection_product(f, list(ys), ref)
        same_gram = gram_matrix(f, Simplex(q, (zero,) + ys)) == ref_gram
        assert (detected > 0) == same_gram
        if detected:
            assert detected == q ** (k * (k + 1) // 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7]), d=st.integers(1, 4))
def test_detection_matches_gram_comparison_property(data, q, d):
    # brute force: the ys are detected exactly when their Gram matrix is the
    # reference's; half the draws are isometric images of the reference
    f = PrimeField(q)
    k = data.draw(st.integers(1, d), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ref = random_valid_simplex(f, d, k, rng)
    if data.draw(st.booleans(), label="isometric"):
        u = random_orthogonal(f, d, rng)
        ys = [mat_vec(f, u, v) for v in ref.diffs()]
    else:
        point = st.lists(st.integers(0, q - 1), min_size=d, max_size=d).map(tuple)
        ys = data.draw(st.lists(point, min_size=k, max_size=k), label="ys")
    detected = detection_product(f, ys, ref)
    same_gram = gram_matrix(f, Simplex(q, ((0,) * d,) + tuple(ys))) == gram_matrix(f, ref)
    assert detected == (q ** (k * (k + 1) // 2) if same_gram else 0)


# -- span indicators ---------------------------------------------------------------

def test_span_mask_enumeration():
    mask = span_mask(F5, [(1, 2)], 2)
    space = subspace_span(F5, [(1, 2)], 2)
    for idx, p in enumerate(all_points(5, 2)):
        assert mask[idx] == subspace_contains(F5, space, p)
    assert np.flatnonzero(span_mask(F5, [], 2)).tolist() == [0]


def test_span_mask_of_dependent_vectors():
    # repeated span points mark the same entries: the mask is the span of
    # a basis, whatever the spanning set
    line = span_mask(F5, [(1, 2, 0)], 3)
    assert np.count_nonzero(line) == 5
    assert np.array_equal(span_mask(F5, [(1, 2, 0), (2, 4, 0)], 3), line)
    plane = span_mask(F5, [(1, 0, 1), (0, 1, 4)], 3)
    assert np.count_nonzero(plane) == 25
    assert np.array_equal(span_mask(F5, [(1, 0, 1), (0, 1, 4), (1, 1, 0)], 3), plane)
    assert np.array_equal(span_mask(F5, [(-4, 7, 5)], 3), line)  # entries reduced mod q


def test_span_mask_rejects_more_vectors_than_the_dimension():
    with pytest.raises(ValueError, match="dimension d = 2"):
        span_mask(F5, [(1, 0), (0, 1), (1, 1)], 2)
    with pytest.raises(ValueError, match="ambient dimension"):
        span_mask(F5, [(1, 0, 0)], 2)


# -- spectral decay -----------------------------------------------------------------

def test_sphere_asymptotic_nonzero_radius():
    rep = verify_sphere_asymptotic(F7, 1, 2)
    assert rep["lemma"] == "3.2" and rep["rank"] == 1
    assert rep["implied_constant"] <= 3.0
    assert rep["err_at_zero"] <= 3.0 * rep["bound"]


def test_sphere_asymptotic_zero_radius():
    rep = verify_sphere_asymptotic(F5, 0, 2)
    assert rep["lemma"] == "3.4" and rep["rank"] == 0
    assert rep["bound"] == 1.0  # q^{1 - d/2} at d = 2
    assert rep["implied_constant"] <= 3.0


def test_sphere_asymptotic_requires_d_two():
    with pytest.raises(ValueError):
        verify_sphere_asymptotic(F5, 1, 1)


def test_sigma_near_l1_normalized():
    for q in (5, 7, 11):
        f = PrimeField(q)
        for d in (2, 3):
            sig = build_sigma(f, 1, d)
            assert abs(average(sig) - 1.0) <= 3.0 * q ** ((1 - d) / 2)


def test_conditional_asymptotic_full_rank():
    s = standard_simplex(F7, 3, 2)
    rng = np.random.default_rng(5)
    anchors = sample_anchor_tuple(F7, s, 2, rng)
    rep = verify_conditional_asymptotic(F7, s, 2, anchors)
    assert rep["lemma"] == "3.3" and rep["rank"] == 2
    assert rep["implied_constant"] <= 3.0


def test_conditional_asymptotic_rank_deficient():
    s = find_simplex_of_rank(F5, 4, 2, 0)
    rng = np.random.default_rng(6)
    anchors = sample_anchor_tuple(F5, s, 2, rng)
    rep = verify_conditional_asymptotic(F5, s, 2, anchors)
    assert rep["lemma"] == "3.5" and rep["rank"] == 0
    assert rep["implied_constant"] <= 3.0


def test_conditional_transform_near_one_at_zero():
    s = standard_simplex(F5, 3, 2)
    rng = np.random.default_rng(7)
    anchors = sample_anchor_tuple(F5, s, 2, rng)
    mu = build_conditional(F5, list(anchors), step_targets(F5, s, 2), 3)
    mu_hat = fourier_transform(mu)
    assert abs(abs(mu_hat.values[0]) - 1.0) <= 3.0 * 5 ** (2 - (3 + 2) / 2)


def test_conditional_asymptotic_validates_anchors():
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(ValueError):
        verify_conditional_asymptotic(F5, s, 2, [(1, 1, 0)])  # wrong length class
    with pytest.raises(ValueError):
        verify_conditional_asymptotic(F5, s, 2, [(1, 0, 0), (0, 1, 0)])  # arity


def test_check_anchors_rejects_dependent():
    s = standard_simplex(F5, 4, 3)
    with pytest.raises(ValueError):
        check_anchors(F5, s, [(1, 0, 0, 0), (2, 0, 0, 0)])


# -- sampling ---------------------------------------------------------------------

def test_sample_anchor_tuple_is_isometric_and_independent():
    rng = np.random.default_rng(11)
    cases = [
        (F7, standard_simplex(F7, 3, 2), 2),
        (F5, find_simplex_of_rank(F5, 4, 2, 1), 2),
        (F5, find_simplex_of_rank(F5, 4, 2, 0), 2),
        (F3, standard_simplex(F3, 4, 3), 3),
        (F3, find_simplex_of_rank(F3, 5, 3, 1), 3),  # degenerate deep prefix
    ]
    for f, s, j in cases:
        for _ in range(5):
            anchors = sample_anchor_tuple(f, s, j, rng)
            assert len(anchors) == j - 1
            assert matrix_rank(f, list(anchors)) == j - 1
            check_anchors(f, s, anchors)


def test_sample_anchor_tuple_varies():
    rng = np.random.default_rng(13)
    s = standard_simplex(F7, 3, 2)
    seen = {sample_anchor_tuple(F7, s, 2, rng) for _ in range(20)}
    assert len(seen) > 1


# -- suite ---------------------------------------------------------------------------

def test_measure_suite_covers_lemmas():
    reports = measure_suite(F5, 4, seed=2, samples=1)
    labels = {r["lemma"] for r in reports}
    assert {"3.2", "3.3", "3.4", "3.5"} <= labels
    for r in reports:
        assert r["implied_constant"] <= 3.0
        assert set(r) >= {"lemma", "q", "d", "j", "rank", "max_err", "bound", "implied_constant"}


@pytest.mark.parametrize("d,ranks", [(2, [2]), (3, [2, 1]), (4, [2, 1, 0])])
def test_suite_ranks_are_the_step_two_cases_measure_suite_runs(d, ranks):
    # check_lemma_work counts verify-measures transforms by suite_ranks
    assert suite_ranks(d) == ranks
    reports = measure_suite(F5, d, seed=1, samples=2)
    assert [r["rank"] for r in reports[3:]] == [r for r in ranks for _ in range(2)]
    assert suite_ranks(1) == [] and suite_ranks(7) == [2, 1, 0]
