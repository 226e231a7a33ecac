import gc
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_embedding_count, random_valid_simplex, roll_translate, standard_simplex
from fqsimplex import counting, domain
from fqsimplex.counting import (
    CountReport,
    PointSet,
    count_isometric_copies,
    gram_preserving_orderings,
    random_set_experiment,
    s_weight,
    script_S,
    script_S_indicator_exact,
    starred_average,
    support_tuples,
    verify_count_asymptotic,
    verify_dependent_bound,
    verify_error_lemma,
)
from fqsimplex.field import PrimeField
from fqsimplex.fourier import DenseFunction
from fqsimplex.linalg import (
    construct_extremal_simplex,
    embed_simplex,
    find_simplex_of_rank,
    gram_matrix,
    isometric_orderings,
    make_simplex,
    mat_vec,
    matrix_rank,
    random_orthogonal,
    reorder_for_prefix_ranks,
    simplex_rank,
)
from fqsimplex.measures import conditional_mask, detection_product, sample_anchor_tuple, step_targets

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# -- point sets ---------------------------------------------------------------

def test_pointset_basics():
    A = PointSet.from_points(5, 2, [(0, 0), (1, 2), (1, 2)])
    assert A.size == 2
    assert A.density == 2 / 25
    assert PointSet.full(3, 2).density == 1.0
    assert PointSet.empty(3, 2).size == 0


def test_pointset_random_density(rng):
    A = PointSet.random(7, 3, 0.3, rng)
    assert 0.15 < A.density < 0.45
    B = PointSet.random(7, 3, 0.3, rng, fixed_size=True)
    assert B.size == round(0.3 * 343)
    with pytest.raises(ValueError):
        PointSet.random(7, 3, 0.0, rng)


def test_pointset_translate():
    A = PointSet.from_points(5, 2, [(1, 1)])
    B = A.translate((2, 3))
    assert B.mask[domain.index_of((3, 4), 5)]
    assert B.size == 1


def test_pointset_translate_rejects_a_vector_of_another_length():
    A = PointSet.from_points(5, 3, [(0, 0, 0)])
    for t in [(1,), (1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="d = 3"):
            A.translate(t)
    assert A.translate((1, 1, 1)).mask[domain.index_of((1, 1, 1), 5)]


def test_pointset_apply_linear():
    A = PointSet.from_points(5, 2, [(1, 0), (0, 2)])
    swap = ((0, 1), (1, 0))
    B = A.apply_linear(swap)
    assert B.mask[domain.index_of((0, 1), 5)]
    assert B.mask[domain.index_of((2, 0), 5)]
    assert B.size == 2


# -- tuple weights ---------------------------------------------------------------

def test_s_weight_prefix_values():
    s = standard_simplex(F5, 3, 2)
    assert s_weight(F5, [(1, 0, 0)], s) == 5
    assert s_weight(F5, [(1, 0, 0), (0, 1, 0)], s) == 5 ** 3
    assert s_weight(F5, [(1, 1, 0)], s) == 0  # off the first sphere


def test_s_weight_matches_detection_product_exhaustive():
    q, d = 3, 2
    s = standard_simplex(F3, d, 2)
    pts = [domain.point_of(i, q, d) for i in range(q ** d)]
    for ys in itertools.product(pts, repeat=2):
        assert s_weight(F3, list(ys), s) == detection_product(F3, list(ys), s)


def test_support_tuples_match_weights():
    s = standard_simplex(F5, 3, 2)
    sup = support_tuples(F5, s, 2)
    assert sup
    for ys in sup:
        assert s_weight(F5, list(ys), s) == 5 ** 3


def test_support_tuples_result_is_freed_without_the_cyclic_gc():
    # the recursive walker must not keep its result alive through a
    # closure cycle: the dict holding it is its only referrer
    s = standard_simplex(F5, 3, 2)
    gc.collect()
    gc.disable()
    try:
        held = {"support": support_tuples(F5, s, 2)}
        assert gc.get_referrers(held["support"]) == [held]
    finally:
        gc.enable()


# -- starred averages -------------------------------------------------------------

def test_starred_average_single():
    for q, d in [(3, 2), (5, 2)]:
        f = PrimeField(q)
        val = starred_average(lambda y: 1.0, f, d, 1)
        assert abs(val - (q ** d - 1) / q ** d) < 1e-12


def test_starred_average_pair_count():
    val = starred_average(lambda y1, y2: 1.0, F3, 2, 2)
    assert abs(val - (9 - 1) * (9 - 3) / 81) < 1e-12


def test_starred_average_j_exceeds_d():
    with pytest.warns(UserWarning):
        assert starred_average(lambda *ys: 1.0, F3, 1, 2) == 0.0


def test_starred_average_cap():
    with pytest.raises(ValueError):
        starred_average(lambda *ys: 1.0, PrimeField(11), 3, 3)


def test_script_S_agrees_with_starred_average_of_weights():
    # two code paths for script_S_1(1, 1) on small domains
    for f, q, d in [(F3, 3, 2), (F5, 5, 2)]:
        s = standard_simplex(f, d, 1)
        ones = DenseFunction.constant(q, d, 1.0)
        via_support = script_S(f, [ones, ones], s)
        via_enum = starred_average(lambda y: float(s_weight(f, [y], s)), f, d, 1)
        assert abs(via_support - via_enum) < 1e-12


def test_script_S_factors_for_one_sided_indicator(rng):
    # f_0 = 1_A with the rest constant: the x-average factors out
    q, d = 5, 2
    s = standard_simplex(F5, d, 1)
    A = PointSet.random(q, d, 0.4, rng)
    ones = DenseFunction.constant(q, d, 1.0)
    got = script_S(F5, [A.indicator(), ones], s)
    sphere_factor = script_S(F5, [ones, ones], s)
    assert abs(got - A.density * sphere_factor) < 1e-12


def test_script_S_exact_matches_float_path(rng):
    q, d = 5, 3
    s = standard_simplex(F5, d, 2)
    A = PointSet.random(q, d, 0.5, rng)
    masks = [A.mask] * 3
    exact = script_S_indicator_exact(F5, masks, s)
    approx = script_S(F5, [A.indicator()] * 3, s)
    assert abs(float(exact) - approx) < 1e-9


# -- counting ---------------------------------------------------------------------

def test_count_empty_set_is_zero():
    s = standard_simplex(F5, 3, 2)
    rep = count_isometric_copies(PointSet.empty(5, 3), s, field=F5)
    assert rep.exact_count == 0 and rep.normalized_error >= 0


def test_count_full_space_orthonormal_pair_oracle():
    # independent enumeration of ordered orthonormal pairs
    s = standard_simplex(F5, 3, 2)
    rep = count_isometric_copies(PointSet.full(5, 3), s, field=F5)
    pts = [domain.point_of(i, 5, 3) for i in range(125)]
    pairs = 0
    for y1 in pts:
        if sum(c * c for c in y1) % 5 != 1:
            continue
        for y2 in pts:
            if sum(c * c for c in y2) % 5 != 1:
                continue
            if sum(a * b for a, b in zip(y1, y2)) % 5 != 0:
                continue
            pairs += 1
    assert rep.exact_count == 125 * pairs
    assert rep.s_value == float(Fraction(rep.exact_count, 5 ** (9 - 3)))


@pytest.mark.parametrize("q,d,k", [(3, 2, 1), (5, 2, 1), (3, 3, 2)])
def test_count_matches_naive_quadruple_loop(q, d, k, rng):
    f = PrimeField(q)
    s = standard_simplex(f, d, k)
    A = PointSet.random(q, d, 0.6, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = count_isometric_copies(A, s, field=f)
    assert rep.exact_count == naive_embedding_count(f, A, s)


def test_count_naive_loop_degenerate_reference(rng):
    # rank-0 reference: dependent tuples satisfy the Gram conditions and
    # must be excluded on both routes
    f = PrimeField(5)
    s = find_simplex_of_rank(f, 4, 2, 0)
    A = PointSet.random(5, 4, 0.2, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = count_isometric_copies(A, s, field=f)
    assert rep.exact_count == naive_embedding_count(f, A, s)


def test_count_integer_identity_random_instances(rng):
    f = F5
    for _ in range(10):
        s = random_valid_simplex(f, 3, 2, rng)
        A = PointSet.random(5, 3, float(rng.uniform(0.2, 0.9)), rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = count_isometric_copies(A, s, field=f)
        scale = 5 ** (3 * 3 - 3)
        exact = script_S_indicator_exact(f, [A.mask] * 3, s)
        assert Fraction(rep.exact_count, 1) == exact * scale


def test_count_translation_invariance(rng):
    s = standard_simplex(F5, 3, 2)
    A = PointSet.random(5, 3, 0.4, rng)
    base = count_isometric_copies(A, s, field=F5).exact_count
    for t in [(1, 0, 0), (2, 3, 4)]:
        assert count_isometric_copies(A.translate(t), s, field=F5).exact_count == base


def test_count_orthogonal_invariance(rng):
    s = standard_simplex(F5, 3, 2)
    A = PointSet.random(5, 3, 0.4, rng)
    base = count_isometric_copies(A, s, field=F5).exact_count
    u = random_orthogonal(F5, 3, rng)
    assert count_isometric_copies(A.apply_linear(u), s, field=F5).exact_count == base


def test_count_invariant_under_reference_reordering(rng):
    # permuting the reference vertices permutes the embedding tuples
    from fqsimplex.linalg import Simplex

    s = find_simplex_of_rank(F5, 4, 2, 1)
    A = PointSet.random(5, 4, 0.5, rng)
    base = count_isometric_copies(A, s, field=F5).exact_count
    swapped = Simplex(5, (s.points[0], s.points[2], s.points[1]))
    assert count_isometric_copies(A, swapped, field=F5).exact_count == base


def test_count_monotone_in_the_set(rng):
    s = standard_simplex(F5, 3, 2)
    A = PointSet.random(5, 3, 0.3, rng)
    bigger = A.mask | (rng.random(125) < 0.2)
    B = PointSet(5, 3, bigger)
    assert count_isometric_copies(A, s, field=F5).exact_count <= \
        count_isometric_copies(B, s, field=F5).exact_count


def test_count_warns_in_tight_dimension():
    # d = 2 = 2k - r: reported in the record only, never as a Python warning
    s = standard_simplex(F3, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = count_isometric_copies(PointSet.full(3, 2), s, field=F3)
    assert rep.dimension_warning is True


def test_count_rejects_mismatched_domain():
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(ValueError):
        count_isometric_copies(PointSet.full(5, 2), s, field=F5)


def test_symmetry_factor_and_unordered_count():
    s2 = standard_simplex(F5, 3, 2)
    assert gram_preserving_orderings(F5, s2) == 2  # swap of the two unit legs
    s1 = standard_simplex(F5, 3, 1)
    assert gram_preserving_orderings(F5, s1) == 2  # reversing a segment
    for s in (s1, s2, find_simplex_of_rank(F5, 4, 2, 0)):
        assert isometric_orderings(F5, s, s) == gram_preserving_orderings(F5, s)
    rep = count_isometric_copies(PointSet.full(5, 3), s2, field=F5)
    assert rep.exact_count == rep.unordered_count * rep.symmetry_factor


def test_unordered_count_refuses_a_remainder(monkeypatch):
    # 15000 ordered embeddings are not a multiple of 7: the report must not floor
    monkeypatch.setattr(counting, "gram_preserving_orderings", lambda field, simplex: 7)
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(RuntimeError):
        count_isometric_copies(PointSet.full(5, 3), s, field=F5)


def test_work_cap_refuses_before_any_walk(monkeypatch):
    # (5,3,2): 5^(3*3 - 3) = 15625 units per set; the walk must never start
    def no_walk(*args, **kwargs):
        raise AssertionError("walked past the work cap")

    s = standard_simplex(F5, 3, 2)
    assert counting.check_work(5, 3, 2) == 15625
    assert counting.check_work(5, 3, 2, trials=3) == 3 * 15625
    monkeypatch.setattr(counting, "WORK_CAP", 15624)
    monkeypatch.setattr(counting, "_walk", no_walk)
    with pytest.raises(ValueError, match=r"1\.56e\+04 exceeds"):
        count_isometric_copies(PointSet.full(5, 3), s, field=F5)
    monkeypatch.setattr(counting, "WORK_CAP", 2 * 15625 - 1)
    with pytest.raises(ValueError, match=r"3\.12e\+04 exceeds"):
        random_set_experiment(F5, s, 0.5, trials=2, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(counting, "WORK_CAP", 15625)
    assert count_isometric_copies(PointSet.full(5, 3), s, field=F5).exact_count == 15000


def test_memo_budget_refuses_a_count_whose_wrapped_copy_does_not_fit(monkeypatch):
    # at (5,3) the window spans all three coordinates: the copy is 9^3 bytes
    s = standard_simplex(F5, 3, 2)
    assert wrapped_bytes(5, 3) == 9 ** 3
    monkeypatch.setattr(counting, "TRANSLATE_MEMO_BYTES", 9 ** 3 - 1)
    with pytest.raises(ValueError, match=r"729 bytes"):
        counting.check_work(5, 3, 2)
    with pytest.raises(ValueError, match=r"729 bytes"):
        count_isometric_copies(PointSet.full(5, 3), s, field=F5)
    monkeypatch.setattr(counting, "TRANSLATE_MEMO_BYTES", 9 ** 3)
    assert counting.check_work(5, 3, 2) == 15625


# -- the two aggregation routes ------------------------------------------------------

def wrapped_bytes(q, d):
    """Bytes of the wrapped copy a translate memo of a q^d-point set holds."""
    return domain.wrap(np.zeros(q ** d, dtype=bool), q, d).nbytes


def _route_counts(f, A, s):
    """(embedding counter, prefix-shared fold): the two integer totals
    count_isometric_copies compares, read from one translate memo."""
    k = s.k
    translate = counting._translate_memo(A.mask, A.q, A.d, counting.TRANSLATE_MEMO_BYTES)
    packed = counting._pack(A.mask)
    tree = counting._count_embeddings(f, s, packed, translate)
    flat = counting._fold_support(counting._support_indices(f, s, k), packed, [translate] * k,
                                  np.bitwise_and, counting._popcount)
    return tree, flat


@pytest.mark.parametrize("q,d,k", [(5, 2, 1), (5, 3, 2), (3, 3, 3)])
@pytest.mark.parametrize("kind", ["empty", "full", 0.1, 0.5, 0.9])
def test_routes_match_naive_count_with_and_without_memo_cap(q, d, k, kind, monkeypatch):
    f = PrimeField(q)
    s = standard_simplex(f, d, k)
    if kind == "empty":
        A = PointSet.empty(q, d)
    elif kind == "full":
        A = PointSet.full(q, d)
    else:
        A = PointSet.random(q, d, kind, np.random.default_rng(int(kind * 10) + k))
    expected = naive_embedding_count(f, A, s)
    assert _route_counts(f, A, s) == (expected, expected)
    # a memo of three rows beside the wrapped copy: most translates are
    # recomputed past the cap
    monkeypatch.setattr(counting, "TRANSLATE_MEMO_BYTES", wrapped_bytes(q, d) + 3 * q ** d)
    assert _route_counts(f, A, s) == (expected, expected)


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=27, max_size=27), memo_rows=st.sampled_from([0, 1, 4, 100]))
def test_routes_match_naive_count_property(bits, memo_rows):
    A = PointSet(3, 3, np.array(bits))
    s = standard_simplex(F3, 3, 2)
    expected = naive_embedding_count(F3, A, s)
    saved = counting.TRANSLATE_MEMO_BYTES
    counting.TRANSLATE_MEMO_BYTES = wrapped_bytes(3, 3) + memo_rows * 27
    try:
        assert _route_counts(F3, A, s) == (expected, expected)
    finally:
        counting.TRANSLATE_MEMO_BYTES = saved


# BLOCK_BYTES = 1 cuts every block to one row: one node per walk block, one
# pair per grow call and one support row per fold block.
ONE_ROW = 1


@pytest.mark.parametrize("q,d,k", [(5, 2, 1), (3, 3, 2), (5, 3, 2), (3, 3, 3)])
@pytest.mark.parametrize("kind", ["empty", "full", 0.3, 0.7])
def test_routes_match_naive_count_across_block_sizes(q, d, k, kind, monkeypatch):
    # q^d = 25, 27 and 125 leave packbits padding in the last word of a row
    f = PrimeField(q)
    s = standard_simplex(f, d, k)
    if kind == "empty":
        A = PointSet.empty(q, d)
    elif kind == "full":
        A = PointSet.full(q, d)
    else:
        A = PointSet.random(q, d, kind, np.random.default_rng(int(kind * 10) + k))
    expected = naive_embedding_count(f, A, s)
    for block in [counting.BLOCK_BYTES, ONE_ROW, 3 * q ** d]:
        monkeypatch.setattr(counting, "BLOCK_BYTES", block)
        assert _route_counts(f, A, s) == (expected, expected)


@pytest.mark.parametrize("q,d,k", [(3, 3, 3), (3, 4, 4), (5, 3, 3), (5, 4, 2), (7, 3, 2)])
def test_support_tuples_do_not_depend_on_block_size(q, d, k, monkeypatch):
    field = PrimeField(q)
    for s in _oracle_simplices(field, d, k):
        for j in range(1, k + 1):
            ref = support_tuples(field, s, j)
            for block in [ONE_ROW, 2 * q ** d + 1]:
                monkeypatch.setattr(counting, "BLOCK_BYTES", block)
                assert support_tuples(field, s, j) == ref
            monkeypatch.undo()


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=27, max_size=27), memo_rows=st.sampled_from([0, 1, 4, 100]),
       block=st.sampled_from([ONE_ROW, 27, 2 * 27 + 5, counting.BLOCK_BYTES]))
def test_routes_match_naive_count_with_block_and_memo_sizes(bits, memo_rows, block):
    A = PointSet(3, 3, np.array(bits))
    s = standard_simplex(F3, 3, 2)
    expected = naive_embedding_count(F3, A, s)
    saved = counting.TRANSLATE_MEMO_BYTES, counting.BLOCK_BYTES
    # one packed row of 27 points is one word, stored beside the wrapped copy
    counting.TRANSLATE_MEMO_BYTES = wrapped_bytes(3, 3) + memo_rows * 8
    counting.BLOCK_BYTES = block
    try:
        assert _route_counts(F3, A, s) == (expected, expected)
    finally:
        counting.TRANSLATE_MEMO_BYTES, counting.BLOCK_BYTES = saved


@settings(max_examples=25, deadline=None)
@given(data=st.data(), case=st.sampled_from([(3, 3, 2), (5, 2, 1)]))
def test_float_fold_matches_exact_fold_on_indicators(data, case):
    # the float fold sums in another order than the exact one; on 0/1
    # functions both evaluate the same rational number
    q, d, k = case
    field = PrimeField(q)
    s = standard_simplex(field, d, k)
    masks = [np.array(data.draw(st.lists(st.booleans(), min_size=q ** d, max_size=q ** d)))
             for _ in range(k + 1)]
    fs = [DenseFunction(q, d, m.astype(np.complex128)) for m in masks]
    exact = script_S_indicator_exact(field, masks, s)
    assert script_S(field, fs, s) == pytest.approx(float(exact), rel=0, abs=1e-12)


@pytest.mark.parametrize("q,d,k", [(5, 3, 2), (3, 3, 3)])
def test_fold_does_not_depend_on_support_order(q, d, k):
    # walk order only lets adjacent rows share prefixes; rows sorted by
    # their last column put equal suffixes under different prefixes side
    # by side, which must not share an accumulator
    field = PrimeField(q)
    s = standard_simplex(field, d, k)
    rng = np.random.default_rng(q + k)
    masks = [rng.random(q ** d) < 0.6 for _ in range(k + 1)]
    support = counting._support_indices(field, s, k)

    def fold(rows):
        translates = [counting._translate_memo(m, q, d, counting.TRANSLATE_MEMO_BYTES) for m in masks[1:]]
        return counting._fold_support(rows, counting._pack(masks[0]), translates, np.bitwise_and,
                                      counting._popcount)

    total = fold(support)
    assert script_S_indicator_exact(field, masks, s) == Fraction(q ** math.comb(k + 1, 2) * total,
                                                                 q ** ((k + 1) * d))
    for order in [np.arange(len(support))[::-1], np.argsort(support[:, -1], kind="stable")]:
        assert fold(support[order]) == total


def test_tree_counter_prunes_where_enumeration_descends(monkeypatch):
    # A = {0}: A & A(. + y) is empty for every y != 0, so the tree counter
    # expands no level-1 node, while the enumeration expands all 30 points
    # of the first sphere; a level-1 node is expanded when grow keeps it
    expanded = []
    walk = counting._walk

    def counted_walk(field, simplex, j, grow, root):
        def counted_grow(level, states, parent, y):
            grown = grow(level, states, parent, y)
            if level == 0:
                expanded.append(int(np.count_nonzero(grown[0])))
            return grown

        walk(field, simplex, j, counted_grow, root)

    monkeypatch.setattr(counting, "_walk", counted_walk)
    s = standard_simplex(F5, 3, 2)
    mask = PointSet.from_points(5, 3, [(0, 0, 0)]).mask
    translate = counting._translate_memo(mask, 5, 3, counting.TRANSLATE_MEMO_BYTES)
    assert counting._count_embeddings(F5, s, counting._pack(mask), translate) == 0
    assert sum(expanded) == 0
    assert len(support_tuples(F5, s, 2)) == 120
    assert sum(expanded) == 30


def _oracle_simplices(field, d, k):
    """The standard simplex, a searched simplex of every rank r < k that
    fits in dimension d, and every extremal simplex that fits (rank-deficient
    ones need q = 1 mod 4), each in prefix-rank order."""
    low = max(0, 2 * k - d)
    shapes = [standard_simplex(field, d, k)]
    shapes += [find_simplex_of_rank(field, d, k, r) for r in range(low, k)]
    ext_ranks = range(low, k + 1) if field.q % 4 == 1 else [k]
    shapes += [embed_simplex(field, construct_extremal_simplex(field, k, r), d) for r in ext_ranks]
    return [reorder_for_prefix_ranks(field, s) for s in shapes]


@pytest.mark.parametrize("q,d,k", [(3, 2, 2), (3, 3, 3), (3, 4, 4), (5, 3, 3), (5, 4, 2), (7, 3, 2),
                                   (3, 3, 2), (3, 4, 2)])
def test_carried_span_matches_rank_filter(q, d, k):
    # the walk clears each node's span from its candidates; the reference
    # recurses one conditional mask per prefix, point by point, and keeps a
    # point when a row-reduction rank says it is independent of the
    # prefix.  A full-rank Gram matrix forces independence, so only
    # rank-deficient references (whose tuples can span self-orthogonal
    # subspaces) lose points to the rank test
    field = PrimeField(q)
    dropped = 0
    simplices = _oracle_simplices(field, d, k)
    for s in simplices:
        ref, rejected = _rank_filtered_tuples(field, s, k)
        dropped += rejected
        for j in range(1, k + 1):
            assert support_tuples(field, s, j) == ref[j]
    assert (dropped > 0) == any(simplex_rank(field, s) < k for s in simplices)


def _rank_filtered_tuples(field, s, k):
    """The independent Gram-matching tuples of every length j <= k, in
    lexicographic order of flat indices (the walk's order), from a
    depth-first recursion that shares no span code with the walk; and the
    number of step-support points the rank test rejected."""
    from fqsimplex.measures import conditional_mask, step_targets

    q, d = field.q, s.d
    tuples = {j: [] for j in range(1, k + 1)}
    rejected = 0

    def rec(prefix):
        nonlocal rejected
        j = len(prefix) + 1
        for idx in np.flatnonzero(conditional_mask(field, prefix, step_targets(field, s, j), d)):
            y = domain.point_of(int(idx), q, d)
            if matrix_rank(field, prefix + [y]) < j:
                rejected += 1
                continue
            tuples[j].append(tuple(prefix + [y]))
            if j < k:
                rec(prefix + [y])

    rec([])
    return tuples, rejected


@pytest.mark.parametrize("q,d,k", [(3, 3, 3), (5, 3, 3), (5, 4, 2), (7, 3, 2)])
def test_support_size_is_the_product_of_one_fanout_per_level(q, d, k):
    # Witt's theorem: every level-l node has the same number f_l of children
    field = PrimeField(q)
    for s in _oracle_simplices(field, d, k):
        size = 1
        for j in range(1, k + 1):
            support = counting._support_indices(field, s, j)
            _, children = np.unique(support[:, :-1], axis=0, return_counts=True)
            assert len(set(children.tolist())) == 1
            size *= int(children[0])
            assert len(support) == size


def test_walk_refuses_nodes_of_one_level_with_different_fanouts(monkeypatch):
    original = counting._meets

    def skewed(coords, q, points, ys, target):
        # the last node of every narrowing of two or more rows keeps one point fewer
        keep = original(coords, q, points, ys, target)
        if len(ys) > 1:
            keep[-1, np.flatnonzero(keep[-1])[:1]] = False
        return keep

    monkeypatch.setattr(counting, "_meets", skewed)
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(RuntimeError, match="level-1 nodes"):
        counting._support_indices(F5, s, 2)
    with pytest.raises(RuntimeError, match="level-1 nodes"):
        count_isometric_copies(PointSet.full(5, 3), s, field=F5)


def test_walk_refuses_a_narrowing_that_drops_a_dot_test(monkeypatch):
    # every node keeps its parent's whole pre-set: the widths stay equal
    # (Witt), so only the full scan of a level's first node sees it
    monkeypatch.setattr(counting, "_meets", lambda coords, q, points, ys, target: np.ones(points.shape, bool))
    s = standard_simplex(F7, 4, 2)
    with pytest.raises(RuntimeError, match="level-1 nodes .* full scan"):
        counting._support_indices(F7, s, 2)


def test_walk_refuses_a_pre_set_that_drops_a_span_point(monkeypatch):
    # on an all-isotropic reference every c y_1 meets the level-1 tests, 0
    # among them; pre-sets that lose the zero vector keep equal widths
    original = counting._meets

    def without_zero(coords, q, points, ys, target):
        return original(coords, q, points, ys, target) & (points != 0)

    s = embed_simplex(F5, construct_extremal_simplex(F5, 2, 0), 4)
    assert gram_matrix(F5, s) == ((0, 0), (0, 0))
    assert len(counting._support_indices(F5, s, 2)) > 0
    monkeypatch.setattr(counting, "_meets", without_zero)
    with pytest.raises(RuntimeError, match="span point of a level-1 node is missing"):
        counting._support_indices(F5, s, 2)


@pytest.mark.parametrize("q,d,k", [(3, 2, 2), (3, 3, 3), (3, 4, 4), (5, 3, 3), (5, 4, 2), (7, 3, 2),
                                   (3, 3, 2), (3, 4, 2)])
def test_span_solutions_list_the_span_points_that_meet_a_level(q, d, k):
    # C*_l against the whole span of sampled level-l nodes filtered by the
    # level-l conditional mask, in the same (itertools.product) order; a
    # span point meets some level's tests only when a leading block of the
    # Gram matrix is singular, that is on rank-deficient references
    field = PrimeField(q)
    coords = domain.coords_matrix(q, d)
    cleared = 0
    simplices = _oracle_simplices(field, d, k)
    for s in simplices:
        gram = gram_matrix(field, s)
        for level in range(k):
            nodes = counting._support_indices(field, s, level) if level else np.zeros((1, 0), dtype=np.int64)
            vectors = coords[nodes[::max(1, len(nodes) // 6)]]
            solutions = counting._span_solutions(gram, level, q)
            got = domain.span_indices(vectors, q, solutions)
            targets = step_targets(field, s, level + 1)
            for row, vecs in zip(got, vectors):
                full = domain.span_indices(vecs[None], q)[0]
                meets = conditional_mask(field, [tuple(v) for v in vecs], targets, d)
                assert row.tolist() == full[meets[full]].tolist()
            cleared += len(solutions)
    assert (cleared > 0) == any(simplex_rank(field, s) < k for s in simplices)


@pytest.fixture
def translate_batches(monkeypatch):
    """The rows asked of each domain.translate_values call, in call order."""
    batches = []
    original = domain.translate_values

    def counted(wrapped, q, d, ys):
        batches.append(len(ys))
        return original(wrapped, q, d, ys)

    monkeypatch.setattr(domain, "translate_values", counted)
    return batches


def test_translate_memo_stores_up_to_its_budget(translate_batches):
    batches = translate_batches
    mask = PointSet.random(5, 2, 0.5, np.random.default_rng(3)).mask
    ys = [(1, 0), (0, 1), (2, 3), (4, 4), (3, 1)]
    flat = np.array([domain.index_of(y, 5) for y in ys])
    for values, encode in [(mask, counting._pack), (mask.astype(np.complex128), np.asarray)]:
        expected = encode(np.stack([roll_translate(values, 5, 2, y) for y in ys]))
        width = expected[0].nbytes
        copy = domain.wrap(values, 5, 2).nbytes
        for rows, computed in [(10, 5), (2, 8), (0, 10)]:
            batches.clear()
            translate = counting._translate_memo(values, 5, 2, copy + rows * width)
            for _ in range(2):
                assert np.array_equal(translate(flat), expected)
            assert sum(batches) == computed
            # one translate_values call per batch of misses
            assert batches == ([5] if rows >= 5 else [5, 5 - rows])
        # the wrapped copy is charged to the budget: a byte short of the
        # copy and two rows stores one row
        batches.clear()
        translate = counting._translate_memo(values, 5, 2, copy + 2 * width - 1)
        for _ in range(2):
            assert np.array_equal(translate(flat), expected)
        assert batches == [5, 4]
        # a row asked for twice in one call is computed once
        batches.clear()
        translate = counting._translate_memo(values, 5, 2, 0)
        assert np.array_equal(translate(np.concatenate([flat, flat])), np.concatenate([expected, expected]))
        assert batches == [5]


def test_translate_memo_cuts_a_batch_to_block_bytes(translate_batches, monkeypatch):
    monkeypatch.setattr(counting, "BLOCK_BYTES", 2 * 25)  # two unpacked rows of 25 points
    mask = PointSet.random(5, 2, 0.5, np.random.default_rng(4)).mask
    flat = np.arange(25)
    translate = counting._translate_memo(mask, 5, 2, 0)
    expected = counting._pack(np.stack([roll_translate(mask, 5, 2, domain.point_of(y, 5, 2)) for y in flat]))
    assert np.array_equal(translate(flat), expected)
    assert translate_batches == [2] * 12 + [1]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(5, 2), (3, 3)]), dtype=st.sampled_from([bool, np.complex128]),
       rows=st.sampled_from([0, 1, 2, 3, None]))
def test_translate_memo_matches_the_roll_oracle_in_any_request_order(data, shape, dtype, rows):
    # one memo serves every request of a count, whatever their order: a
    # budget of 0 stores nothing, the wrapped copy plus 1-3 rows stores
    # that many rows and recomputes the rest, None stores every row
    q, d = shape
    n = q ** d
    values = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))).astype(dtype)
    encode = counting._pack if dtype is bool else np.asarray
    oracle = encode(np.stack([roll_translate(values, q, d, domain.point_of(y, q, d)) for y in range(n)]))
    copy = domain.wrap(values, q, d).nbytes
    budget = 0 if rows == 0 else copy + (n if rows is None else rows) * oracle[0].nbytes
    translate = counting._translate_memo(values, q, d, budget)
    calls = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
                               min_size=1, max_size=6))
    for ys in calls:
        assert np.array_equal(translate(np.array(ys)), oracle[ys])


@pytest.fixture
def wraps(monkeypatch):
    """One entry per domain.wrap call (the shape of the values wrapped)."""
    calls = []
    original = domain.wrap

    def counted(values, q, d):
        calls.append(values.shape)
        return original(values, q, d)

    monkeypatch.setattr(domain, "wrap", counted)
    return calls


def test_a_count_wraps_its_set_once(wraps):
    s = standard_simplex(F7, 4, 2)
    count_isometric_copies(PointSet.random(7, 4, 0.3, np.random.default_rng(1)), s, field=F7)
    assert len(wraps) == 1
    wraps.clear()
    assert len(random_set_experiment(F7, s, 0.3, 3, 1)) == 3
    assert len(wraps) == 3


@pytest.mark.parametrize("q,d,k,alpha", [(7, 4, 2, 0.3), (5, 4, 3, 0.1), (5, 3, 2, 1.0)])
def test_a_count_computes_each_translate_once(q, d, k, alpha, translate_batches):
    # the walk and the fold ask for translates in different orders; within
    # the memo budget each distinct vector of the support is computed once
    field = PrimeField(q)
    s = standard_simplex(field, d, k)
    distinct = len(np.unique(counting._support_indices(field, s, k)))
    A = PointSet.random(q, d, alpha, np.random.default_rng(q + k))
    translate_batches.clear()
    count_isometric_copies(A, s, field=field)
    assert sum(translate_batches) == distinct


def test_script_S_exact_rejects_non_indicator_masks():
    s = standard_simplex(F5, 3, 2)
    mask = np.zeros(125, dtype=np.int64)
    mask[:10] = 1
    as_float = mask.astype(np.float64)
    base = script_S_indicator_exact(F5, [mask.astype(bool)] * 3, s)
    assert script_S_indicator_exact(F5, [mask, as_float, mask], s) == base
    mask[3] = 2
    with pytest.raises(ValueError):
        script_S_indicator_exact(F5, [mask, mask, mask], s)
    with pytest.raises(ValueError):
        script_S_indicator_exact(F5, [np.ones(125, dtype=bool)] * 2 + [mask], s)


# -- inequality and asymptotic checks ----------------------------------------------

def test_dependent_bound_full_rank(rng):
    s = standard_simplex(F5, 3, 2)
    anchors = sample_anchor_tuple(F5, s, 2, rng)
    rep = verify_dependent_bound(F5, s, 2, anchors)
    assert rep["pass"] and rep["value"] <= rep["bound"]
    assert rep["bound"] == 5 ** (2 * 2 - 1 - 1)


def test_dependent_bound_rank_zero_is_tight(rng):
    s = find_simplex_of_rank(F5, 4, 2, 0)
    anchors = sample_anchor_tuple(F5, s, 2, rng)
    rep = verify_dependent_bound(F5, s, 2, anchors)
    assert rep["pass"]
    assert rep["value"] == rep["bound"]  # the whole span coset contributes


@pytest.mark.parametrize("q,d,k,r", [(5, 3, 2, 2), (5, 4, 3, 3), (5, 4, 2, 0), (5, 4, 3, 2), (3, 4, 3, 2)])
def test_dependent_bound_is_the_literal_span_sum(q, d, k, r):
    # the value read from the step mask at the span's flat indices equals
    # the sum of the step weight over the RREF span, point by point
    from fqsimplex.linalg import span_elements, subspace_span
    from fqsimplex.measures import conditional_value, step_targets

    field = PrimeField(q)
    s = reorder_for_prefix_ranks(field, find_simplex_of_rank(field, d, k, r) if r < k
                                 else standard_simplex(field, d, k))
    rng = np.random.default_rng(q * 100 + d * 10 + r)
    for j in range(2, k + 1):
        targets = step_targets(field, s, j)
        for _ in range(3):
            anchors = sample_anchor_tuple(field, s, j, rng)
            literal = sum(conditional_value(field, list(anchors), targets, y)
                          for y in span_elements(field, subspace_span(field, anchors, d)))
            assert verify_dependent_bound(field, s, j, anchors)["value"] == literal


def test_dependent_bound_rejects_bad_anchors():
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(ValueError):
        verify_dependent_bound(F5, s, 2, [(1, 1, 0)])


def test_count_asymptotic_constants():
    for q in (5, 7, 11):
        f = PrimeField(q)
        s = standard_simplex(f, 3, 2)
        for j in (1, 2):
            rep = verify_count_asymptotic(f, s, j)
            assert rep["implied_constant"] <= 3.0
            assert rep["lemma"] == "4.2"


def test_count_asymptotic_counts_the_walk_without_storing_tuples(monkeypatch):
    # the support size comes from the walk itself: no tuple list and no
    # index array, and it is the length of the support array
    cases = [(F5, standard_simplex(F5, 4, 3)),
             (F5, reorder_for_prefix_ranks(F5, find_simplex_of_rank(F5, 4, 3, 2))),
             (F3, standard_simplex(F3, 3, 2))]
    expected = [[verify_count_asymptotic(f, s, j) for j in range(1, s.k + 1)] for f, s in cases]
    for (f, s), reps in zip(cases, expected):
        for j, rep in enumerate(reps, start=1):
            n_tuples = len(counting._support_indices(f, s, j))
            assert rep["s_value"] == float(Fraction(f.q ** math.comb(j + 1, 2) * n_tuples, f.q ** (j * s.d)))

    def refuse(*args, **kwargs):
        raise AssertionError("materialized the support")

    monkeypatch.setattr(counting, "support_tuples", refuse)
    monkeypatch.setattr(counting, "_support_indices", refuse)
    for (f, s), reps in zip(cases, expected):
        for j, rep in enumerate(reps, start=1):
            assert verify_count_asymptotic(f, s, j) == rep
    for j in (0, 4):
        with pytest.raises(ValueError, match="need 1 <= j <= k"):
            verify_count_asymptotic(F5, standard_simplex(F5, 4, 3), j)


def test_lemma_work_cap_refuses_before_any_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked past the work cap")

    s = standard_simplex(F5, 4, 3)
    assert counting.check_lemma_work(5, 4, "4.2", 3) == 5 ** 9
    assert counting.check_lemma_work(5, 4, "4.3", 3) == 5 ** 5 * 4 * 5 ** 5
    assert counting.check_lemma_work(11, 3, "verify-gauss") == 10 * 11 ** 6
    # 3 spheres, then samples anchors for each of the d = 4 ranks 2, 1, 0
    assert counting.check_lemma_work(5, 4, "verify-measures", samples=2) == (3 + 2 * 3) * 4 * 5 ** 5
    assert counting.check_lemma_work(5, 2, "verify-measures", samples=2) == (3 + 2 * 1) * 2 * 5 ** 3
    with pytest.raises(ValueError):
        counting.check_lemma_work(5, 4, "4.4", 3)
    monkeypatch.setattr(counting, "_walk", no_walk)
    monkeypatch.setattr(counting, "WORK_CAP", 5 ** 9 - 1)
    with pytest.raises(ValueError, match=r"1\.95e\+06 exceeds"):
        verify_count_asymptotic(F5, s, 3)
    with pytest.raises(ValueError, match=r"3\.91e\+07 exceeds"):
        verify_error_lemma(F5, s, 3)


def test_memory_cap_refuses_verify_measures(monkeypatch):
    # (5,4): 72 bytes for each of 625 points
    assert counting.MEASURES_BYTES_PER_POINT * 5 ** 4 == 45000
    monkeypatch.setattr(counting, "MEMORY_CAP", 45000 - 1)
    with pytest.raises(ValueError, match=r"4\.5e\+04 bytes exceeds"):
        counting.check_lemma_work(5, 4, "verify-measures")
    monkeypatch.setattr(counting, "MEMORY_CAP", 45000)
    assert counting.check_lemma_work(5, 4, "verify-measures") == (3 + 3) * 4 * 5 ** 5
    monkeypatch.setattr(counting, "WORK_CAP", 6 * 4 * 5 ** 5 - 1)
    with pytest.raises(ValueError, match=r"7\.5e\+04 exceeds"):
        counting.check_lemma_work(5, 4, "verify-measures")


def _error_lemma_one_anchor_at_a_time(field, s, j):
    """verify_error_lemma's record with xis = None, built the way the lemma
    reads: one conditional measure and one transform per anchor tuple of the
    support, |muhat|^2 summed in anchor order."""
    from fqsimplex.fourier import fourier_transform
    from fqsimplex.linalg import prefix_simplex
    from fqsimplex.measures import build_conditional, step_targets

    q, d = field.q, s.d
    targets = step_targets(field, s, j)
    acc = np.zeros(q ** d)
    for anchors in support_tuples(field, s, j - 1):
        mu = build_conditional(field, list(anchors), targets, d)
        acc += np.abs(fourier_transform(mu).values) ** 2
    values = acc[1:] * float(q) ** (math.comb(j, 2) - (j - 1) * d)
    r_j = simplex_rank(field, prefix_simplex(s, j))
    bound = float(q) ** (2 * j - d - r_j)
    return {"lemma": "4.3", "q": q, "d": d, "j": j, "rank": r_j, "n_frequencies": q ** d - 1,
            "max_value": float(values.max()),
            "worst_xi": list(domain.point_of(int(np.argmax(values)) + 1, q, d)),
            "bound": bound, "implied_constant": float(values.max() / bound)}


@pytest.mark.parametrize("q,d,k,r", [(3, 4, 3, 3), (5, 3, 2, 2), (5, 4, 3, 2)])
def test_error_lemma_equals_one_anchor_at_a_time(q, d, k, r, monkeypatch):
    # exact equality, so worst_xi agrees too: at (3,4,3) the maximum is
    # shared by +xi and -xi and only the float bits pick one
    field = PrimeField(q)
    s = reorder_for_prefix_ranks(field, find_simplex_of_rank(field, d, k, r) if r < k
                                 else standard_simplex(field, d, k))
    expected = _error_lemma_one_anchor_at_a_time(field, s, k)
    assert verify_error_lemma(field, s, k) == expected
    monkeypatch.setattr(counting, "BLOCK_BYTES", 1)  # one anchor per block
    assert verify_error_lemma(field, s, k) == expected


def test_error_lemma_exhaustive_small():
    s = standard_simplex(F3, 3, 2)
    rep = verify_error_lemma(F3, s, 2)
    assert rep["implied_constant"] <= 3.0
    assert rep["n_frequencies"] == 26


def test_error_lemma_specific_frequencies():
    s = standard_simplex(F5, 3, 2)
    on_span = [(1, 0, 0)]
    off_span = [(0, 0, 1), (1, 2, 3)]
    rep_on = verify_error_lemma(F5, s, 2, on_span)
    rep_off = verify_error_lemma(F5, s, 2, off_span)
    assert rep_on["implied_constant"] <= 3.0
    assert rep_off["implied_constant"] <= 3.0


def test_error_lemma_rejects_zero_frequency():
    s = standard_simplex(F5, 3, 2)
    with pytest.raises(ValueError):
        verify_error_lemma(F5, s, 2, [(0, 0, 0)])


def test_error_lemma_matches_literal_enumeration():
    # dual route: the support-driven average vs the definition, term by term
    from fqsimplex.fourier import fourier_transform
    from fqsimplex.measures import build_conditional, step_targets

    q, d = 3, 2
    s = standard_simplex(F3, d, 2)
    xi = (1, 2)
    rep = verify_error_lemma(F3, s, 2, [xi])

    def summand(y1):
        w = s_weight(F3, [y1], s)
        if w == 0:
            return 0.0
        mu = build_conditional(F3, [y1], step_targets(F3, s, 2), d)
        val = fourier_transform(mu).values[domain.index_of(xi, q)]
        return w * abs(val) ** 2

    literal = starred_average(summand, F3, d, 1)
    assert abs(rep["max_value"] - literal) < 1e-9


def test_script_S_general_functions_literal_enumeration(rng):
    # dual route for non-indicator inputs on a tiny domain
    q, d = 3, 2
    s = standard_simplex(F3, d, 1)
    f0 = DenseFunction(q, d, rng.uniform(-1, 1, size=9))
    f1 = DenseFunction(q, d, rng.uniform(-1, 1, size=9))
    got = script_S(F3, [f0, f1], s)

    def summand(y):
        w = s_weight(F3, [y], s)
        if w == 0:
            return 0.0
        total = 0.0
        for idx in range(9):
            x = domain.point_of(idx, q, d)
            xpy = tuple((a + b) % q for a, b in zip(x, y))
            total += f0.values[idx].real * f1.values[domain.index_of(xpy, q)].real
        return w * total / 9

    literal = starred_average(summand, F3, d, 1)
    assert abs(got - literal) < 1e-9


# -- randomized experiments ----------------------------------------------------------

def test_experiment_deterministic_across_threads_and_runs():
    s = standard_simplex(F7, 3, 1)
    a = [r.to_dict() for r in random_set_experiment(F7, s, 0.3, 6, 99)]
    b = [r.to_dict() for r in random_set_experiment(F7, s, 0.3, 6, 99)]
    assert a == b
    different = [r.to_dict() for r in random_set_experiment(F7, s, 0.3, 6, 100)]
    assert different != a


def test_experiment_alpha_one_matches_full_space():
    s = standard_simplex(F7, 3, 1)
    reps = random_set_experiment(F7, s, 1.0, 2, 0)
    full = count_isometric_copies(PointSet.full(7, 3), s, field=F7)
    for rep in reps:
        assert rep.exact_count == full.exact_count
        assert rep.alpha == 1.0


def test_experiment_reports_realized_alpha():
    s = standard_simplex(F7, 3, 1)
    reps = random_set_experiment(F7, s, 0.3, 4, 5)
    for rep in reps:
        assert 0 <= rep.alpha <= 1
        assert rep.alpha == rep.set_size / 343  # realized density, exactly
        assert rep.trial in range(4)
        d = rep.to_dict()
        assert {"exact_count", "main_term", "error_bound", "normalized_error",
                "set_size", "density_threshold"} <= set(d)
        # threshold q^{(2k-d-r)/(k+1)} is reported, never enforced
        assert abs(rep.density_threshold - 7.0 ** ((2 - 3 - 1) / 2)) < 1e-12


def test_experiment_rejects_bad_parameters():
    s = standard_simplex(F7, 3, 1)
    with pytest.raises(ValueError):
        random_set_experiment(F7, s, 0.3, 0, 1)
