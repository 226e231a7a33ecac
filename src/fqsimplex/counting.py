"""Counting isometric simplex copies inside subsets of F_q^d.

The central objects are the weighted tuple sums

    S_j(y_1..y_j)        product of the j step-measure weights
    script_S(f_0..f_j)   q^{-jd} sum over independent gram-matching tuples
                         of q^binom(j+1,2) E_x f_0(x) prod f_i(x + y_i)

For indicator inputs 1_A the normalized sum encodes the number of ordered
embeddings of the reference simplex in A:

    exact_count = q^{(k+1)d - binom(k+1,2)} * script_S(1_A, ..., 1_A)

which the code verifies as an exact integer identity along two aggregation
paths.  Both rest on one walker of the constrained tuple tree, _walk:
level l candidates are read off vectorized dot-product masks and span
exclusion, never a sweep of all q^{kd} tuples, so the work scales with the
support size q^{jd - binom(j+1,2)} plus O(q^d) per node.  The support list
it enumerates is summed by one prefix-shared fold, _fold_support.

Every vector of a support tuple lies on one of k spheres, so the tuples
reuse far fewer distinct vectors than they contain.  Each aggregation path
therefore memoizes the boolean translates y -> A(. + y) of the set it
counts: a translate is computed on first use and kept while the memo holds
at most TRANSLATE_MEMO_BYTES, then recomputed on use past that bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import domain
from .field import PrimeField
from .fourier import DenseFunction, fourier_transform
from .linalg import (
    Simplex,
    gram_matrix,
    isometric_orderings,
    matrix_rank,
    prefix_simplex,
    simplex_is_valid,
    simplex_rank,
    span_elements,
    subspace_span,
)
from .measures import (
    build_conditional,
    check_anchors,
    conditional_value,
    s_weight,  # noqa: F401  (re-exported as fqsimplex.counting.s_weight)
    span_mask,  # noqa: F401  (re-exported; the tuple walk does not call it)
    step_targets,
)

STARRED_ENUM_CAP = 1_000_000
# Bytes of memoized translates one aggregation path keeps; past this,
# translates are recomputed on use instead of stored.
TRANSLATE_MEMO_BYTES = 64 * 2 ** 20
# Largest estimated work a count may start (see check_work).  The counting
# routes run at about a nanosecond per unit, so this is ~20 minutes.
WORK_CAP = 10 ** 12


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

@dataclass
class PointSet:
    """A subset of F_q^d stored as a boolean membership array."""

    q: int
    d: int
    mask: np.ndarray

    def __post_init__(self):
        n = domain.domain_size(self.q, self.d)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"expected mask of length {n}")
        self.mask = mask

    @classmethod
    def full(cls, q: int, d: int) -> "PointSet":
        return cls(q, d, np.ones(domain.domain_size(q, d), dtype=bool))

    @classmethod
    def empty(cls, q: int, d: int) -> "PointSet":
        return cls(q, d, np.zeros(domain.domain_size(q, d), dtype=bool))

    @classmethod
    def random(cls, q: int, d: int, alpha: float, rng, fixed_size: bool = False) -> "PointSet":
        n = domain.domain_size(q, d)
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if fixed_size:
            size = int(round(alpha * n))
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=size, replace=False)] = True
        else:
            mask = rng.random(n) < alpha
        return cls(q, d, mask)

    @classmethod
    def from_points(cls, q: int, d: int, points) -> "PointSet":
        mask = np.zeros(domain.domain_size(q, d), dtype=bool)
        for p in points:
            mask[domain.index_of(p, q)] = True
        return cls(q, d, mask)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def density(self) -> float:
        return self.size / self.mask.shape[0]

    def indicator(self) -> DenseFunction:
        return DenseFunction(self.q, self.d, self.mask.astype(np.complex128))

    def translate(self, t) -> "PointSet":
        """The set A + t."""
        return PointSet(self.q, self.d, domain.translate_values(self.mask, self.q, self.d, [-c for c in t]))

    def apply_linear(self, matrix) -> "PointSet":
        """The image set U(A) for an invertible matrix U."""
        coords = domain.coords_matrix(self.q, self.d).astype(np.int64)
        u = np.asarray(matrix, dtype=np.int64) % self.q
        images = domain.index_array(coords @ u.T, self.q)
        out = np.zeros_like(self.mask)
        out[images] = self.mask
        return PointSet(self.q, self.d, out)


# ---------------------------------------------------------------------------
# weighted tuple sums
# ---------------------------------------------------------------------------

def _walk(field: PrimeField, simplex: Simplex, j: int, independent: bool,
          step: Callable, root) -> None:
    """Depth-first walk of the tuples (y_1, ..., y_j) matching the reference
    dot products, optionally restricted to linearly independent tuples.

    step(state, chosen, y) is called on every candidate y extending the
    tuple chosen, in index order, and returns the state of the child
    chosen + [y], or None to prune its subtree; the root carries root.
    Candidates at each level come from vectorized masks over the domain;
    cached dot arrays for already-chosen vectors keep each node at O(q^d).

    Independence is enforced by masking out Span(chosen), which each node
    receives from its parent as the array of its q^level points: the root
    holds {0}, and a child widens its parent's span by the line through y,
    span + t*y for t in F_q.  The mask has already removed Span(chosen), so
    y is independent of chosen and the widened points are distinct; no
    row reduction and no per-candidate rank computation is needed."""
    q = field.q
    d = simplex.d
    gram = gram_matrix(field, simplex)
    lengths = domain.lengths_vector(q, d)
    coords = domain.coords_matrix(q, d)
    line = np.arange(q, dtype=np.int64)[:, None, None]

    def descend(chosen: list, dot_arrays: list, span: np.ndarray, state):
        level = len(chosen)
        mask = lengths == gram[level][level]
        for i in range(level):
            mask &= dot_arrays[i] == gram[i][level]
        if independent:
            mask[domain.index_array(span, q)] = False
        for y in map(tuple, coords[mask].tolist()):
            child = step(state, chosen, y)
            if child is not None and level + 1 < j:
                wider = ((span[None] + line * np.asarray(y, dtype=np.int64)) % q).reshape(-1, d)
                descend(chosen + [y], dot_arrays + [domain.dots_with(q, d, y)], wider, child)

    descend([], [], np.zeros((1, d), dtype=np.int64), root)
    del descend  # the closure refers to itself; free it without the cyclic GC


def support_tuples(field: PrimeField, simplex: Simplex, j: int, independent: bool = True) -> list:
    """All tuples (y_1, ..., y_j) matching the reference dot products,
    optionally restricted to linearly independent tuples, in walk order
    (tuples sharing a prefix are adjacent)."""
    if j > simplex.k:
        raise ValueError("j exceeds the reference simplex size")
    out: list = []

    def step(state, chosen: list, y):
        if len(chosen) + 1 == j:
            out.append(tuple(chosen) + (y,))
        return state

    _walk(field, simplex, j, independent, step, root=True)
    return out


def starred_average(func: Callable, field: PrimeField, d: int, j: int) -> float:
    """q^{-jd} sum of func over linearly independent j-tuples of F_q^d,
    by literal enumeration of the whole tuple space (small cases only)."""
    q = field.q
    n = domain.domain_size(q, d)
    if j > d:
        warnings.warn(f"no independent {j}-tuples in dimension {d}; average is 0", stacklevel=2)
        return 0.0
    if n ** j > STARRED_ENUM_CAP:
        raise ValueError(f"q^(jd) = {n ** j} exceeds the enumeration cap {STARRED_ENUM_CAP}")
    points = [domain.point_of(i, q, d) for i in range(n)]
    total = 0.0

    def rec(chosen: list):
        nonlocal total
        if len(chosen) == j:
            total += func(*chosen)
            return
        for p in points:
            if matrix_rank(field, chosen + [p]) != len(chosen) + 1:
                continue
            rec(chosen + [p])

    rec([])
    del rec  # the closure refers to itself; free it without the cyclic GC
    return total / float(n) ** j


def script_S(field: PrimeField, fs: Sequence[DenseFunction], simplex: Simplex,
             support: Optional[list] = None) -> float:
    """The normalized weighted count script_S_j(f_0, ..., f_j) for the
    j = len(fs) - 1 prefix of the reference simplex."""
    j = len(fs) - 1
    if j < 1:
        raise ValueError("need at least two functions")
    q = field.q
    d = simplex.d
    for f in fs:
        if (f.q, f.d) != (q, d):
            raise ValueError("function shape does not match the simplex domain")
    if support is None:
        support = support_tuples(field, simplex, j)
    translates = [partial(domain.translate_values, f.values, q, d) for f in fs[1:]]
    total = _fold_support(support, fs[0].values, translates, np.multiply, np.mean)
    scale = float(q) ** (math.comb(j + 1, 2) - j * d)
    return float((total * scale).real)


def _fold_support(support: list, first: np.ndarray, translates: Sequence[Callable],
                  combine: Callable, reduce: Callable):
    """Sum over the support tuples ys of reduce(acc), where acc combines
    first with translates[i](ys[i]) for i = 0, 1, ... in that order.

    The support lists come out of the walk in prefix order, so the
    accumulators of a tuple prefix shared with the previous tuple are
    reused rather than recomputed."""
    total = 0
    prefix: list = []
    accs = [first]
    for ys in support:
        shared = 0
        while shared < len(prefix) and prefix[shared] == ys[shared]:
            shared += 1
        del prefix[shared:]
        del accs[shared + 1:]
        while len(prefix) < len(ys):
            y = ys[len(prefix)]
            accs.append(combine(accs[-1], translates[len(prefix)](y)))
            prefix.append(y)
        total += reduce(accs[-1])
    return total


def _indicator(mask) -> np.ndarray:
    """The 0/1 array mask as booleans; any other value raises ValueError."""
    arr = np.asarray(mask)
    if arr.dtype != bool:
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("indicator masks must hold only 0 and 1")
        arr = arr.astype(bool)
    return arr


def _translate_memo(values: np.ndarray, q: int, d: int, budget: int) -> Callable:
    """y -> values(. + y), each translate computed on first use and stored
    while the stored rows take at most budget bytes; past that, rows are
    recomputed on use."""
    rows: dict = {}
    room = budget // values.nbytes

    def translate(y) -> np.ndarray:
        y = tuple(y)
        row = rows.get(y)
        if row is None:
            row = domain.translate_values(values, q, d, y)
            if len(rows) < room:
                rows[y] = row
        return row

    return translate


def script_S_indicator_exact(field: PrimeField, masks: Sequence[np.ndarray], simplex: Simplex,
                             support: Optional[list] = None) -> Fraction:
    """Exact rational script_S for 0/1 indicator inputs, aggregated by
    boolean intersection and counting (a separate path from the embedding
    counter).  A mask holding any other value raises ValueError.

    The support list comes out of the enumeration in prefix order, so the
    intersections for a shared tuple prefix are computed once; translates
    come from a memo per distinct mask, bounded by TRANSLATE_MEMO_BYTES
    in total."""
    j = len(masks) - 1
    q = field.q
    d = simplex.d
    if support is None:
        support = support_tuples(field, simplex, j)
    distinct = {id(m): m for m in masks[1:]}
    memos = {key: _translate_memo(_indicator(m), q, d, TRANSLATE_MEMO_BYTES // len(distinct))
             for key, m in distinct.items()}
    translates = [memos[id(m)] for m in masks[1:]]
    total = _fold_support(support, _indicator(masks[0]), translates, np.logical_and, np.count_nonzero)
    return Fraction(q ** math.comb(j + 1, 2) * total, q ** ((j + 1) * d))


# ---------------------------------------------------------------------------
# copy counting
# ---------------------------------------------------------------------------

@dataclass
class CountReport:
    """Exact embedding count of a reference simplex in a point set, with
    the main term and normalized error of the expected asymptotic.

    alpha is the realized density set_size / q^d (set_size makes it exact);
    density_threshold is the reference scale q^{(2k-d-r)/(k+1)} below which
    the asymptotic carries no guarantee.  It is reported, never enforced.
    """

    q: int
    d: int
    k: int
    rank: int
    alpha: float
    set_size: int
    exact_count: int
    unordered_count: int
    symmetry_factor: int
    s_value: float
    main_term: float
    error_bound: float
    normalized_error: float
    density_threshold: float
    dimension_warning: bool
    trial: Optional[int] = None

    def to_dict(self) -> dict:
        out = {
            "q": self.q,
            "d": self.d,
            "k": self.k,
            "rank": self.rank,
            "alpha": self.alpha,
            "set_size": self.set_size,
            "exact_count": self.exact_count,
            "unordered_count": self.unordered_count,
            "symmetry_factor": self.symmetry_factor,
            "s_value": self.s_value,
            "main_term": self.main_term,
            "error_bound": self.error_bound,
            "normalized_error": self.normalized_error,
            "density_threshold": self.density_threshold,
            "dimension_warning": self.dimension_warning,
        }
        if self.trial is not None:
            out["trial"] = self.trial
        return out


def gram_preserving_orderings(field: PrimeField, simplex: Simplex) -> int:
    """Number of orderings of the simplex points with the same Gram matrix;
    the divisor converting ordered embeddings to unordered copies."""
    return isometric_orderings(field, simplex, simplex)


def _count_embeddings(field: PrimeField, A: PointSet, simplex: Simplex) -> int:
    """Boolean embedding counter: walks the constrained tuple tree carrying
    the running intersection of A and the translates A(. + y_i), so shared
    prefixes share work and empty intersections prune whole subtrees.
    Translates come from a memo bounded by TRANSLATE_MEMO_BYTES."""
    q, d, k = A.q, A.d, simplex.k
    translate = _translate_memo(A.mask, q, d, TRANSLATE_MEMO_BYTES)
    total = 0

    def step(hits: np.ndarray, chosen: list, y):
        nonlocal total
        deeper = hits & translate(y)
        if len(chosen) + 1 == k:
            total += int(np.count_nonzero(deeper))
            return None
        return deeper if deeper.any() else None

    _walk(field, simplex, k, True, step, root=A.mask)
    return total


def check_work(q: int, d: int, k: int, trials: int = 1) -> int:
    """Work estimate of counting k-simplices in F_q^d over trials sets:
    the count identity's scale q^{(k+1)d - binom(k+1,2)} times trials.
    Raises ValueError above WORK_CAP, so a run that cannot finish is
    refused before it starts."""
    work = q ** ((k + 1) * d - math.comb(k + 1, 2)) * trials
    if work > WORK_CAP:
        raise ValueError(f"estimated work q^((k+1)d - C(k+1,2)) x trials = {work:.3g} "
                         f"exceeds the cap {WORK_CAP:.3g}")
    return work


def count_isometric_copies(A: PointSet, simplex: Simplex, field: Optional[PrimeField] = None,
                           support: Optional[list] = None, trial: Optional[int] = None) -> CountReport:
    """Exact number of tuples (x, y_1..y_k) with independent y's such that
    x and every x + y_i lie in A and (0, y_1..y_k) is ordered-isometric to
    the reference simplex.

    Runs the boolean embedding counter and the exact rational script_S
    path (separate enumeration, separate aggregation, each with its own
    bounded memo of translates of A) and insists they agree as integers
    before reporting; unordered_count must divide exactly as well.
    """
    field = field or PrimeField(A.q)
    if (A.q, A.d) != (simplex.q, simplex.d):
        raise ValueError("point set and simplex live in different domains")
    if not simplex_is_valid(field, simplex):
        raise ValueError("reference is not a valid simplex")
    q, d, k = A.q, A.d, simplex.k
    check_work(q, d, k)
    r = simplex_rank(field, simplex)
    warn = d <= 2 * k - r
    if warn:
        warnings.warn(
            f"d = {d} is at most 2k - r = {2 * k - r}: the count may be degenerate",
            stacklevel=2,
        )

    exact = _count_embeddings(field, A, simplex)
    s_exact = script_S_indicator_exact(field, [A.mask] * (k + 1), simplex, support=support)
    scale = q ** ((k + 1) * d - math.comb(k + 1, 2))
    if s_exact * scale != exact:
        raise RuntimeError("embedding count and script_S disagree; internal inconsistency")

    sym = gram_preserving_orderings(field, simplex)
    if exact % sym:
        raise RuntimeError(f"embedding count {exact} is not a multiple of the symmetry factor {sym}")
    size = A.size
    af = size / q ** d
    main = af ** (k + 1) * scale
    err_scale = af ** ((k + 1) / 2) * float(q) ** (k - (d + r) / 2)
    num = abs(exact / scale - af ** (k + 1))
    normalized = 0.0 if num == 0.0 else num / err_scale
    return CountReport(
        q=q,
        d=d,
        k=k,
        rank=r,
        alpha=af,
        set_size=size,
        exact_count=exact,
        unordered_count=exact // sym,
        symmetry_factor=sym,
        s_value=float(s_exact),
        main_term=main,
        error_bound=err_scale * scale,
        normalized_error=normalized,
        density_threshold=float(q) ** ((2 * k - d - r) / (k + 1)),
        dimension_warning=warn,
        trial=trial,
    )


# ---------------------------------------------------------------------------
# inequality and asymptotic checks
# ---------------------------------------------------------------------------

def verify_dependent_bound(field: PrimeField, simplex: Simplex, j: int, anchors) -> dict:
    """Exact check that the step-j mass carried by Span(anchors) stays
    under q^{2j - 1 - r_{j-1}}."""
    check_anchors(field, simplex, anchors)
    if len(anchors) != j - 1:
        raise ValueError("need exactly j - 1 anchors")
    q = field.q
    d = simplex.d
    targets = step_targets(field, simplex, j)
    space = subspace_span(field, anchors, d)
    total = 0
    for y in span_elements(field, space):
        total += conditional_value(field, list(anchors), targets, y)
    r_prev = simplex_rank(field, prefix_simplex(simplex, j - 1))
    bound = q ** (2 * j - 1 - r_prev)
    return {
        "lemma": "4.1",
        "q": q,
        "d": d,
        "j": j,
        "rank": r_prev,
        "value": total,
        "bound": bound,
        "pass": total <= bound,
    }


def verify_count_asymptotic(field: PrimeField, simplex: Simplex, j: int,
                            support: Optional[list] = None) -> dict:
    """script_S_j(1,...,1) = 1 + O(q^{j-(d+r_j)/2}), evaluated exactly from
    the independent support size."""
    q = field.q
    d = simplex.d
    if support is None:
        support = support_tuples(field, simplex, j)
    n_tuples = len(support)
    s_val = Fraction(q ** math.comb(j + 1, 2) * n_tuples, q ** (j * d))
    r_j = simplex_rank(field, prefix_simplex(simplex, j))
    err = abs(float(s_val) - 1.0)
    bound = float(q) ** (j - (d + r_j) / 2)
    return {
        "lemma": "4.2",
        "q": q,
        "d": d,
        "j": j,
        "rank": r_j,
        "s_value": float(s_val),
        "max_err": err,
        "bound": bound,
        "implied_constant": err / bound,
    }


def verify_error_lemma(field: PrimeField, simplex: Simplex, j: int,
                       xis: Optional[Sequence] = None) -> dict:
    """Starred average of S_{j-1} |muhat(xi)|^2 against q^{2j - d - r_j},
    for the supplied nonzero frequencies (all of them by default)."""
    q = field.q
    d = simplex.d
    if not 2 <= j <= simplex.k:
        raise ValueError("need 2 <= j <= k")
    n = domain.domain_size(q, d)
    if xis is None:
        xi_idx = np.arange(1, n, dtype=np.int64)
    else:
        xi_idx = np.array([domain.index_of(x, q) for x in xis], dtype=np.int64)
        if np.any(xi_idx == 0):
            raise ValueError("xi = 0 is rejected")
        if xi_idx.size == 0:
            raise ValueError("need at least one frequency")
    anchors_support = support_tuples(field, simplex, j - 1)
    targets = step_targets(field, simplex, j)
    acc = np.zeros(n, dtype=np.float64)
    for anchors in anchors_support:
        mu = build_conditional(field, list(anchors), targets, d)
        acc += np.abs(fourier_transform(mu).values) ** 2
    weight = float(q) ** (math.comb(j, 2) - (j - 1) * d)
    values = acc[xi_idx] * weight
    r_j = simplex_rank(field, prefix_simplex(simplex, j))
    bound = float(q) ** (2 * j - d - r_j)
    worst = int(np.argmax(values))
    return {
        "lemma": "4.3",
        "q": q,
        "d": d,
        "j": j,
        "rank": r_j,
        "n_frequencies": int(xi_idx.size),
        "max_value": float(values.max()),
        "worst_xi": list(domain.point_of(int(xi_idx[worst]), q, d)),
        "bound": bound,
        "implied_constant": float(values.max() / bound),
    }


# ---------------------------------------------------------------------------
# randomized experiments
# ---------------------------------------------------------------------------

def random_set_experiment(field: PrimeField, simplex: Simplex, alpha: float, trials: int,
                          seed: int, fixed_size: bool = False) -> list:
    """Sample random sets of target density alpha and report the embedding
    count statistics per trial.

    The master seed expands through a splittable seed sequence, one child
    per trial, so each trial's set depends only on the seed and its index.
    Trials run one after another and share one enumerated support list.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    q, d = simplex.q, simplex.d
    check_work(q, d, simplex.k, trials)
    r = simplex_rank(field, simplex)
    if d <= 2 * simplex.k - r:
        warnings.warn(
            f"d = {d} is at most 2k - r = {2 * simplex.k - r}: the count may be degenerate",
            stacklevel=2,
        )
    support = support_tuples(field, simplex, simplex.k)
    children = np.random.SeedSequence(seed).spawn(trials)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [count_isometric_copies(PointSet.random(q, d, alpha, np.random.default_rng(child),
                                                       fixed_size=fixed_size),
                                       simplex, field=field, support=support, trial=i)
                for i, child in enumerate(children)]
