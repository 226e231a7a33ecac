"""Weighted spherical and conditional measures attached to a reference simplex.

For an ordered reference simplex {0, v_1, ..., v_k}, the step-j measure
weights the points y that extend an anchor tuple (y_1, ..., y_{j-1}) to a
tuple with the prescribed dot products:

    sigma(y_1)                  = q    on |y_1|^2 = |v_1|^2
    sigma_{y_1..y_{j-1}}(y_j)   = q^j  on y_i.y_j = v_i.v_j, 1 <= i <= j

(the i = j condition reads |y_j|^2 = |v_j|^2).  The product of the k
factors detects ordered isometry with total weight q^binom(k+1, 2).  The
weights make each measure essentially L1-normalized, and their Fourier
transforms concentrate near the indicator of the anchor span; the verify_*
functions measure those spectral errors against the expected power of q.

Measures are built by scanning the domain for the exact integer support,
never through character expansions, so the transform checks are genuine.
"""

from __future__ import annotations

import numpy as np

from . import domain
from .field import PrimeField
from .fourier import DenseFunction, fourier_transform
from .linalg import (
    Simplex,
    dot,
    extend_isometry,
    find_simplex_of_rank,
    gram_matrix,
    length_sq,
    matrix_rank,
    prefix_simplex,
    simplex_rank,
    vec_reduce,
)


# ---------------------------------------------------------------------------
# measure construction
# ---------------------------------------------------------------------------

def sphere_mask(field: PrimeField, d: int, radius_sq: int) -> np.ndarray:
    return domain.lengths_vector(field.q, d) == (radius_sq % field.q)


def build_sigma(field: PrimeField, radius_sq: int, d: int) -> DenseFunction:
    """The weight-q indicator of the sphere |y|^2 = radius_sq."""
    q = field.q
    vals = np.where(sphere_mask(field, d, radius_sq), float(q), 0.0)
    return DenseFunction(q, d, vals.astype(np.complex128))


def conditional_masks(q: int, d: int, chosen: np.ndarray, targets) -> np.ndarray:
    """Supports of the step measures extending a block of anchor tuples: row
    r of the (N, q^d) boolean result marks the points y with
    x_i.y = targets[i] for every anchor x_i (flat index chosen[r, i]) and
    |y|^2 = targets[-1], all mod q.

    A dot product x.u splits over the low h and high d - h coordinates of
    x, which are the low and high digits of its flat index, so the test
    x.u = t (mod q) over all x compares a q^(d-h)-entry table of the high
    part with a q^h-entry table of t minus the low part: one comparison per
    (row, point), and dots stay exact in int64 at every admitted (q, d).
    The anchors' coordinates are the digits of their flat indices, so no
    (q^d, d) coordinate table is built."""
    rows, level = chosen.shape
    if len(targets) != level + 1:
        raise ValueError("need one dot target per anchor plus a length target")
    n = domain.domain_size(q, d)
    anchors = np.asarray(chosen, dtype=np.int64)[:, :, None] // q ** np.arange(d, dtype=np.int64) % q
    h = d // 2
    low = domain.coords_matrix(q, h).astype(np.int64)
    high = domain.coords_matrix(q, d - h).astype(np.int64)
    mask = np.empty((rows, n), dtype=bool)
    mask[:] = domain.lengths_vector(q, d) == targets[-1] % q
    grid = mask.reshape(rows, high.shape[0], low.shape[0])
    for i in range(level):
        u = anchors[:, i]
        rest = (targets[i] - u[:, :h] @ low.T) % q
        grid &= ((u[:, h:] @ high.T) % q)[:, :, None] == rest[:, None, :]
    return mask


def conditional_mask(field: PrimeField, anchors, targets, d: int) -> np.ndarray:
    """Support of the step-j measure: one linear condition per anchor plus
    the quadratic length condition (the last target); the one-row case of
    conditional_masks."""
    q = field.q
    anchors = [vec_reduce(a, q) for a in anchors]
    chosen = domain.index_array(np.asarray(anchors, dtype=np.int64).reshape(len(anchors), d), q)
    return conditional_masks(q, d, chosen[None], targets)[0]


def build_conditional(field: PrimeField, anchors, targets, d: int) -> DenseFunction:
    """The weight-q^j measure extending the anchors; j = len(anchors) + 1."""
    j = len(anchors) + 1
    vals = np.where(conditional_mask(field, anchors, targets, d), float(field.q) ** j, 0.0)
    return DenseFunction(field.q, d, vals.astype(np.complex128))


def conditional_value(field: PrimeField, anchors, targets, y) -> int:
    """Exact integer weight (q^j or 0) of one point under the step measure."""
    q = field.q
    j = len(anchors) + 1
    if len(targets) != j:
        raise ValueError("need one dot target per anchor plus a length target")
    if length_sq(field, y) != targets[-1] % q:
        return 0
    for a, t in zip(anchors, targets):
        if dot(field, a, y) != t % q:
            return 0
    return q ** j


def step_targets(field: PrimeField, simplex: Simplex, j: int) -> tuple:
    """Dot targets (v_1.v_j, ..., v_{j-1}.v_j, |v_j|^2) for step j."""
    diffs = simplex.diffs()
    vj = diffs[j - 1]
    return tuple(dot(field, diffs[i], vj) for i in range(j - 1)) + (length_sq(field, vj),)


def s_weight(field: PrimeField, ys, simplex: Simplex) -> int:
    """Product of the first len(ys) step weights; q^binom(j+1,2) exactly on
    tuples gram-matching the reference prefix, else 0."""
    total = 1
    for j, y in enumerate(ys, start=1):
        w = conditional_value(field, list(ys[: j - 1]), step_targets(field, simplex, j), y)
        if w == 0:
            return 0
        total *= w
    return total


def detection_product(field: PrimeField, ys, simplex: Simplex) -> int:
    """Product of the k step weights at (y_1, ..., y_k); equals
    q^binom(k+1, 2) exactly when the ys reproduce the reference dot
    products, else 0.  Pure integer arithmetic."""
    ys = [vec_reduce(y, field.q) for y in ys]
    if len(ys) != simplex.k:
        raise ValueError(f"expected {simplex.k} vectors, got {len(ys)}")
    return s_weight(field, ys, simplex)


# ---------------------------------------------------------------------------
# span indicators
# ---------------------------------------------------------------------------

def span_mask(field: PrimeField, vectors, d: int) -> np.ndarray:
    """Boolean flat mask of Span(vectors); the empty span is {0}.  The
    q^m points of m vectors are listed by domain.span_indices, so more than
    d vectors raise ValueError rather than list more than q^d points."""
    q = field.q
    vecs = np.asarray(vectors, dtype=np.int64)
    if vecs.size == 0:
        vecs = vecs.reshape(0, d)
    if vecs.ndim != 2 or vecs.shape[1] != d:
        raise ValueError("vector length does not match ambient dimension")
    if len(vecs) > d:
        raise ValueError(f"{len(vecs)} vectors exceed the dimension d = {d}")
    mask = np.zeros(domain.domain_size(q, d), dtype=bool)
    mask[domain.span_indices(vecs[None], q)[0]] = True
    return mask


# ---------------------------------------------------------------------------
# spectral verification
# ---------------------------------------------------------------------------

def verify_sphere_asymptotic(field: PrimeField, radius_sq: int, d: int) -> dict:
    """Spectral decay of the sphere measure.

    Nonzero radius: fhat = delta + O(q^{(1-d)/2}).
    Zero radius:    fhat = delta + O(q^{1-d/2}).
    Reports the worst error over all frequencies and the implied constant
    against the matching power of q.
    """
    if d < 2:
        raise ValueError("the sphere asymptotic needs d >= 2")
    q = field.q
    radius_sq %= q
    sigma = build_sigma(field, radius_sq, d)
    sig_hat = fourier_transform(sigma).values
    err_at_zero = abs(sig_hat[0] - 1.0)
    off = np.abs(sig_hat).copy()
    off[0] = 0.0
    max_err_nonzero = float(off.max())
    zero_radius = radius_sq == 0
    exponent = (1 - d / 2) if zero_radius else ((1 - d) / 2)
    bound = float(q) ** exponent
    max_err = max(err_at_zero, max_err_nonzero)
    return {
        "lemma": "3.4" if zero_radius else "3.2",
        "q": q,
        "d": d,
        "j": 1,
        "rank": 0 if zero_radius else 1,
        "radius_sq": radius_sq,
        "err_at_zero": float(err_at_zero),
        "max_err_nonzero": max_err_nonzero,
        "max_err": float(max_err),
        "bound": bound,
        "implied_constant": float(max_err / bound),
    }


def check_anchors(field: PrimeField, simplex: Simplex, anchors) -> None:
    """Anchors must form an independent tuple with the dot products of the
    reference prefix of the same length."""
    j = len(anchors) + 1
    if not 2 <= j <= simplex.k:
        raise ValueError("need 1 <= len(anchors) <= k - 1")
    anchors = [vec_reduce(a, field.q) for a in anchors]
    if matrix_rank(field, anchors) != len(anchors):
        raise ValueError("anchor vectors are linearly dependent")
    zero = tuple([0] * len(anchors[0]))
    got = gram_matrix(field, Simplex(field.q, (zero,) + tuple(anchors)))
    ref = gram_matrix(field, prefix_simplex(simplex, j - 1))
    if got != ref:
        raise ValueError("anchors are not isometric to the reference prefix")


def verify_conditional_asymptotic(field: PrimeField, simplex: Simplex, j: int, anchors) -> dict:
    """Spectral decay of the step-j measure given anchors isometric to the
    reference prefix: |fhat| = span indicator + O(q^{j-(d+r_j)/2}), where
    r_j is the rank of the j-th prefix."""
    if len(anchors) != j - 1:
        raise ValueError("need exactly j - 1 anchors")
    check_anchors(field, simplex, anchors)
    q = field.q
    d = len(anchors[0])
    mu = build_conditional(field, anchors, step_targets(field, simplex, j), d)
    mu_hat_abs = np.abs(fourier_transform(mu).values)
    on_span = span_mask(field, anchors, d)
    err = np.where(on_span, np.abs(mu_hat_abs - 1.0), mu_hat_abs)
    r_j = simplex_rank(field, prefix_simplex(simplex, j))
    exponent = j - (d + r_j) / 2
    bound = float(q) ** exponent
    max_err = float(err.max())
    return {
        "lemma": "3.3" if r_j == j else "3.5",
        "q": q,
        "d": d,
        "j": j,
        "rank": r_j,
        "max_err": max_err,
        "max_err_on_span": float(np.where(on_span, err, 0.0).max()),
        "max_err_off_span": float(np.where(on_span, 0.0, err).max()),
        "bound": bound,
        "implied_constant": float(max_err / bound),
    }


# ---------------------------------------------------------------------------
# anchor sampling
# ---------------------------------------------------------------------------

def sample_anchor_tuple(field: PrimeField, simplex: Simplex, j: int, rng) -> tuple:
    """A random independent tuple (y_1, ..., y_{j-1}) isometric to the
    reference prefix, drawn by sequential constrained sampling over the
    exact step supports.

    When the prefix has full rank, the sampled tuple is re-derived through
    the constructive isometry extension (whose postconditions are exact),
    exercising the orthogonal-transport path as well.
    """
    q = field.q
    d = simplex.d
    anchors: list = []
    for step in range(1, j):
        targets = step_targets(field, simplex, step)
        mask = conditional_mask(field, anchors, targets, d)
        candidates = np.nonzero(mask)[0]
        if candidates.size == 0:
            raise RuntimeError("empty step support; reference prefix not realizable")
        order = rng.permutation(candidates.size)
        chosen = None
        for pos in order:
            y = domain.point_of(int(candidates[pos]), q, d)
            if matrix_rank(field, anchors + [y]) == len(anchors) + 1:
                chosen = y
                break
        if chosen is None:
            raise RuntimeError("every support point is spanned by the anchors")
        anchors.append(chosen)
    prefix = prefix_simplex(simplex, j - 1)
    if simplex_rank(field, prefix) == j - 1:
        extend_isometry(field, prefix.diffs(), anchors, d)
    return tuple(anchors)


def suite_ranks(d: int) -> list:
    """Ranks r of the step-2 reference simplices measure_suite checks in
    dimension d: 2, 1 and 0, each while d >= 2 * 2 - r."""
    return [r for r in (2, 1, 0) if d >= 2 * 2 - r]


def measure_suite(field: PrimeField, d: int, seed: int = 0, samples: int = 2) -> list:
    """Reports for the four spectral statements at one (q, d): both sphere
    radii classes, plus step-2 measures at samples (>= 1, else ValueError)
    anchor tuples for a full-rank and, when the dimension allows,
    rank-deficient reference simplices."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    reports = [
        verify_sphere_asymptotic(field, 1, d),
        verify_sphere_asymptotic(field, field.nonsquare(), d),
        verify_sphere_asymptotic(field, 0, d),
    ]
    for r in suite_ranks(d):
        simplex = find_simplex_of_rank(field, d, 2, r)
        for _ in range(samples):
            anchors = sample_anchor_tuple(field, simplex, 2, rng)
            reports.append(verify_conditional_asymptotic(field, simplex, 2, anchors))
    return reports
