"""Counting isometric simplex copies inside subsets of F_q^d.

The central objects are the weighted tuple sums

    S_j(y_1..y_j)        product of the j step-measure weights
    script_S(f_0..f_j)   q^{-jd} sum over independent gram-matching tuples
                         of q^binom(j+1,2) E_x f_0(x) prod f_i(x + y_i)

For indicator inputs 1_A the normalized sum encodes the number of ordered
embeddings of the reference simplex in A:

    exact_count = q^{(k+1)d - binom(k+1,2)} * script_S(1_A, ..., 1_A)

which the code verifies as an exact integer identity along two aggregation
paths.  Both rest on one walker of the constrained tuple tree, _walk, which
visits the tree a block of nodes at a time.  Each node carries its
pre-sets: for every deeper level, the sorted points of that level's sphere
that already meet the dot tests against the node's vectors.  A child
narrows its parent's pre-sets by one dot test, and a node's candidates are
its own pre-set minus the few span points that meet its tests, listed by
domain.span_indices from the tuple itself; never a sweep of all q^{kd}
tuples, and no node scans the q^d points of the domain.  The work scales
with the support size q^{jd - binom(j+1,2)} times the pre-set widths, with
no Python-level loop over candidates.  The support it enumerates, an array
of flat point indices, is summed by one prefix-shared fold, _fold_support.

Every vector of a support tuple lies on one of k spheres, so the tuples
reuse far fewer distinct vectors than they contain.  A count therefore
memoizes the translates y -> A(. + y) of its set once, bit-packed, and both
aggregation paths read that one memo.  A memo wraps its set once
(domain.wrap) and computes the translates a call is missing in one batch,
each a window of that copy; it keeps them in the room TRANSLATE_MEMO_BYTES
leaves beside the copy, and recomputes them on use past that bound.  The
copy is up to 21.4 times its set, and check_work refuses a count whose copy
alone would exceed TRANSLATE_MEMO_BYTES, so every admitted count stays
within that budget.  Blocks of nodes, pairs, support rows and unpacked
translates are cut to at most BLOCK_BYTES, so memory stays bounded at any
support size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import domain
from .field import PrimeField
from .fourier import DenseFunction, transform_rows
from .linalg import (
    Simplex,
    gram_matrix,
    isometric_orderings,
    matrix_rank,
    prefix_simplex,
    simplex_is_valid,
    simplex_rank,
)
from .measures import (
    check_anchors,
    conditional_mask,
    conditional_masks,
    s_weight,  # noqa: F401  (re-exported as fqsimplex.counting.s_weight)
    span_mask,  # noqa: F401  (re-exported; the tuple walk does not call it)
    sphere_mask,
    step_targets,
    suite_ranks,
)

STARRED_ENUM_CAP = 1_000_000
# Bytes of memoized translates, with the wrapped copy they are read from,
# that one count keeps in the one memo both its paths read; past this,
# translates are recomputed on use instead of stored.  check_work refuses
# a count whose copy alone is larger (a boolean set at (q, 2) for
# q >= 5801 would need up to 199 MB), so counts stay within this budget.
TRANSLATE_MEMO_BYTES = 64 * 2 ** 20
# Bytes of one block of rows.  A block of tree nodes holds as many nodes as
# BLOCK_BYTES of their tuples and their parents' pre-set rows; a chunk of
# candidate pairs, and a block of support rows in a fold, holds as many rows
# as BLOCK_BYTES of bit-packed q^d-point rows.  Over 100 sparse (5,4,3)
# counts, 2^18 cost 3% more peak memory than 2^17 (41.3 against 40.0 MB) for
# at most a few percent of speed.
BLOCK_BYTES = 2 ** 17
# Largest estimated work a count may start (see check_work).  On 2 vCPUs the
# counting routes ran at 0.5-1.2 ns per unit at (5,5,2) and (3,6,3), so this
# is ~20 minutes; Lemma 4.2's pre-set walk ran at 2-3 ns per unit of its
# estimate at (5,5,3) and (3,6,4).
WORK_CAP = 10 ** 12
# Largest estimated peak memory a verification run may start (see
# check_lemma_work): a quarter of the 8 GB of RAM of the 2-vCPU machine the
# caps were measured on.
MEMORY_CAP = 2 * 2 ** 30
# Peak bytes per point of F_q^d that verify-measures holds: tracemalloc
# read 68.4-70.2 from (13,5) to (1447,2), and whole-process VmHWM, less the
# interpreter's, 68.7 at (3,14).
MEASURES_BYTES_PER_POINT = 72


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
        """The set A + t: x is in it when x - t is in A."""
        t = np.asarray(t, dtype=np.int64)
        if t.shape != (self.d,):
            raise ValueError(f"vectors must have d = {self.d} coordinates, got an array of shape {t.shape}")
        coords = domain.coords_matrix(self.q, self.d)
        return PointSet(self.q, self.d, self.mask[domain.index_array(coords - t, self.q)])

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

def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes bytes that one block of BLOCK_BYTES holds (at least 1)."""
    return max(1, BLOCK_BYTES // row_bytes)


def _span_solutions(gram, level: int, q: int) -> np.ndarray:
    """C*_l for l = level: the coefficient rows c of F_q^l, in
    itertools.product order, for which sum_i c_i y_i meets the level-l
    tests of a node (y_1, ..., y_l) of the walk, that is G c = g and
    c^T G c = gram[l][l] (mod q), with G the leading l x l block of gram
    and g the first l entries of its column l.  Every node of a level has
    that Gram matrix, so one solution set serves them all."""
    coeffs = domain.coords_matrix(q, level)[:, ::-1].astype(np.int64)
    prefix = np.array([row[:level] for row in gram[:level]], dtype=np.int64).reshape(level, level)
    column = np.array([gram[i][level] for i in range(level)], dtype=np.int64)
    dots = coeffs @ prefix % q
    meets = (dots == column % q).all(axis=1) & ((dots * coeffs).sum(axis=1) % q == gram[level][level] % q)
    return coeffs[meets]


def _meets(coords: np.ndarray, q: int, points: np.ndarray, ys: np.ndarray, target: int) -> np.ndarray:
    """The (N, w) boolean array points[r, i] . ys[r] = target (mod q), for
    an (N, w) array of flat indices points and N flat indices ys; the dots
    are accumulated one coordinate at a time, never as an (N, w, d) array,
    in int32 whenever their bound d (q-1)^2 fits."""
    d = coords.shape[1]
    dtype = np.int32 if d * (q - 1) ** 2 <= np.iinfo(np.int32).max else np.int64
    y = coords[ys].astype(dtype)
    dots = np.zeros(points.shape, dtype=dtype)
    for c in range(d):
        dots += coords[:, c][points] * y[:, c, None]
    return dots % q == target % q


def _walk(field: PrimeField, simplex: Simplex, j: int, grow: Callable, root) -> None:
    """Level-synchronous walk of the linearly independent tuples
    (y_1, ..., y_j) matching the reference dot products, a block of nodes
    at a time; j outside 1..k raises ValueError.

    A block of N level-l nodes is held as arrays: chosen, the (N, l) flat
    indices of each node's tuple; states, the route states of its nodes
    (the root block's states are root); and its pre-sets, one (N, w_m)
    array for each level m = l, ..., j - 1, whose row r lists in ascending
    order the points of sphere m (|y|^2 = gram[m][m]) that meet the dot
    tests y . y_i = gram[i][m] against node r's l vectors.  The root's
    pre-sets are the spheres.  A child that adds y at level l narrows each
    deeper pre-set of its parent by the one test y . p = gram[l][m]
    (_meets), so no node looks at the q^d points of the domain.

    A level-l node's candidates are its pre-set l minus Span(chosen).  A
    span point sum_i c_i y_i meets the level-l tests exactly when c lies in
    C*_l (_span_solutions), the same set for every node of the level, so
    each node clears its |C*_l| such points, listed by domain.span_indices,
    and no others; a point missing from the pre-set raises RuntimeError.
    No row reduction and no per-candidate rank computation is needed.

    The candidates' (parent, y) pairs, in walk order (rows ascending, y
    ascending), go to grow(level, states, parent, y) in chunks of at most
    BLOCK_BYTES // ceil(q^d / 8) pairs (one bit-packed row each), parent
    indexing the block's rows and y holding flat indices.  Below the last
    level grow returns (keep, child_states), keep a boolean array selecting
    the pairs to descend into; the kept children of a chunk are walked, in
    blocks holding at most BLOCK_BYTES of their tuples and their parents'
    deeper pre-set rows, before the next chunk, so tuples sharing a prefix
    stay adjacent and memory stays bounded.  At the last level its return
    value is ignored.

    Nodes at one level are independent tuples with one Gram matrix, so by
    Witt's theorem an isometry of F_q^d maps any one onto any other, with
    its pre-sets and candidates.  Every narrowing checks that each row
    keeps as many points as the first row seen at its (level, m), and the
    first node of each level is checked against a full scan of the domain
    (measures.conditional_masks, then its whole span cleared); either
    mismatch raises RuntimeError."""
    if not 1 <= j <= simplex.k:
        raise ValueError("need 1 <= j <= k")
    q = field.q
    d = simplex.d
    n = domain.domain_size(q, d)
    gram = gram_matrix(field, simplex)
    coords = domain.coords_matrix(q, d)
    pairs = _block_rows(-(-n // 8))
    solutions = [_span_solutions(gram, level, q) for level in range(j)]
    widths: dict = {}  # (level, m) -> width of the first level-`level` pre-set m seen
    scanned: set = set()  # levels whose first node was checked against a full scan

    def full_scan(level: int, chosen: np.ndarray) -> np.ndarray:
        mask = conditional_masks(q, d, chosen[:1], [gram[i][level] for i in range(level + 1)])[0]
        mask[domain.span_indices(coords[chosen[:1]], q)[0]] = False
        return np.flatnonzero(mask)

    def candidates(level: int, chosen: np.ndarray, pre: np.ndarray) -> np.ndarray:
        count, w = pre.shape
        span = domain.span_indices(coords[chosen], q, solutions[level])
        if span.size:
            # rows are ascending, so row-offset keys are ascending overall
            offsets = np.arange(count, dtype=np.int64)[:, None] * n
            keys = (pre + offsets).ravel()
            wanted = (span + offsets).ravel()
            at = np.searchsorted(keys, wanted)
            if (at >= keys.size).any() or not np.array_equal(keys[at], wanted):
                raise RuntimeError(f"a span point of a level-{level} node is missing from its pre-set; "
                                   "internal inconsistency")
            kept = np.ones(keys.size, dtype=bool)
            kept[at] = False
            pre = pre.ravel()[kept].reshape(count, w - span.shape[1])
        if level not in scanned:
            scanned.add(level)
            if not np.array_equal(pre[0], full_scan(level, chosen)):
                raise RuntimeError(f"level-{level} nodes of the walk have candidates other than a full scan finds; "
                                   "internal inconsistency")
        return pre

    def narrow(level: int, m: int, rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
        keep = _meets(coords, q, rows, ys, gram[level - 1][m])
        counts = np.count_nonzero(keep, axis=1)
        w = widths.setdefault((level, m), int(counts[0]))
        if (counts != w).any():
            raise RuntimeError(f"level-{level} nodes of the walk keep {sorted(set(counts.tolist()))} points of "
                               f"sphere {m}, not the same {w} for each; internal inconsistency")
        return rows[keep].reshape(len(rows), w)

    def descend(level: int, chosen: np.ndarray, pre: list, states) -> None:
        found = candidates(level, chosen, pre[0])
        parents = np.repeat(np.arange(len(found)), found.shape[1])
        ys = found.ravel()
        deeper = pre[1:]
        nodes = _block_rows(chosen.itemsize * (level + 1) + sum(rows.itemsize * rows.shape[1] for rows in deeper))
        for start in range(0, len(ys), pairs):
            parent, y = parents[start:start + pairs], ys[start:start + pairs]
            grown = grow(level, states, parent, y)
            if level + 1 == j:
                continue
            keep, child_states = grown
            parent, y = parent[keep], y[keep]
            for first in range(0, len(y), nodes):
                block = slice(first, first + nodes)
                p, yb = parent[block], y[block]
                descend(level + 1, np.column_stack([chosen[p], yb]),
                        [narrow(level + 1, m, rows[p], yb) for m, rows in enumerate(deeper, level + 1)],
                        child_states[block])

    spheres = [np.flatnonzero(sphere_mask(field, d, gram[m][m]))[None] for m in range(j)]
    descend(0, np.zeros((1, 0), dtype=np.int64), spheres, root)
    del descend  # the closure refers to itself; free it without the cyclic GC


def _support_indices(field: PrimeField, simplex: Simplex, j: int) -> np.ndarray:
    """The support tuples as an (N, j) int64 array of flat point indices,
    in walk order (rows sharing a prefix are adjacent)."""
    parts: list = []

    def grow(level: int, chosen: np.ndarray, parent: np.ndarray, y: np.ndarray):
        tuples = np.column_stack([chosen[parent], y])
        if level + 1 == j:
            parts.append(tuples)
            return None
        return np.ones(len(y), dtype=bool), tuples

    _walk(field, simplex, j, grow, root=np.zeros((1, 0), dtype=np.int64))
    return np.concatenate(parts) if parts else np.zeros((0, j), dtype=np.int64)


def support_tuples(field: PrimeField, simplex: Simplex, j: int) -> list:
    """All linearly independent tuples (y_1, ..., y_j) matching the
    reference dot products, in walk order (tuples sharing a prefix are
    adjacent).  A test and acceptance oracle: the counting routes use the
    flat-index array of _support_indices."""
    support = _support_indices(field, simplex, j)
    points = domain.coords_matrix(field.q, simplex.d)[support].tolist()
    return [tuple(map(tuple, ys)) for ys in points]


def starred_average(func: Callable, field: PrimeField, d: int, j: int) -> float:
    """q^{-jd} sum of func over linearly independent j-tuples of F_q^d,
    by literal enumeration of the whole tuple space (small cases only).
    A test oracle for the walk-driven sums."""
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


def script_S(field: PrimeField, fs: Sequence[DenseFunction], simplex: Simplex) -> float:
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
    support = _support_indices(field, simplex, j)
    translates = _translate_memos([f.values for f in fs[1:]], q, d)
    total = _fold_support(support, fs[0].values, translates, np.multiply,
                          lambda acc: acc.mean(axis=1).sum())
    scale = float(q) ** (math.comb(j + 1, 2) - j * d)
    return float((total * scale).real)


def _fold_support(support: np.ndarray, first: np.ndarray, translates: Sequence[Callable],
                  combine: Callable, reduce: Callable):
    """Sum of reduce(acc) over blocks of the support rows ys, where row r of
    acc combines first with translates[i](ys[r, i]) for i = 0, 1, ... in
    that order; translates[i] maps an array of flat indices to rows.

    A block holds as many support rows as BLOCK_BYTES of accumulator rows
    (rows shaped like first).
    The walk emits rows sharing a prefix adjacently, so within a block the
    accumulator of each distinct prefix is computed once: at column i the
    rows whose first i + 1 entries differ from the row before start a new
    prefix, and only those combine with a fresh translate."""
    total = 0
    rows = _block_rows(first.nbytes)
    for start in range(0, len(support), rows):
        ys = support[start:start + rows]
        acc = first[None]
        owner = np.zeros(len(ys), dtype=np.intp)
        for i, translate in enumerate(translates):
            fresh = np.ones(len(ys), dtype=bool)
            fresh[1:] = (ys[1:, :i + 1] != ys[:-1, :i + 1]).any(axis=1)
            starts = np.flatnonzero(fresh)
            acc = combine(acc[owner[starts]], translate(ys[starts, i]))
            owner = np.cumsum(fresh) - 1
        total += reduce(acc)
    return total


def _indicator(mask) -> np.ndarray:
    """The 0/1 array mask as booleans; any other value raises ValueError."""
    arr = np.asarray(mask)
    if arr.dtype != bool:
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("indicator masks must hold only 0 and 1")
        arr = arr.astype(bool)
    return arr


def _pack(mask: np.ndarray) -> np.ndarray:
    """Boolean rows (last axis) bit-packed into zero-padded uint64 words, so
    intersection is bitwise_and and counting is a popcount."""
    bits = np.packbits(mask, axis=-1)
    words = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 8) * 8,), dtype=np.uint8)
    words[..., :bits.shape[-1]] = bits
    return words.view(np.uint64)


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _translate_memo(values: np.ndarray, q: int, d: int, budget: int) -> Callable:
    """ys -> the rows values(. + y) for an array ys of flat indices, bit-packed
    by _pack when values is boolean.

    On its first miss the memo wraps values once (domain.wrap); the rows a
    call is missing are then read from that copy by domain.translate_values
    in one batch (cut to BLOCK_BYTES of unpacked rows) and packed together.
    Rows are stored while they fit in the budget bytes beside the wrapped
    copy, and past that a row is recomputed in every call that asks for
    it.  The copy is held whatever its size, so a memo holds at most
    max(budget, copy) bytes, the copy (2 - 1/q)^t times values (see
    domain)."""
    n = values.shape[0]
    points = domain.coords_matrix(q, d)
    encode = _pack if values.dtype == bool else np.asarray
    width = encode(values).nbytes
    batch = _block_rows(values.nbytes)
    slot = np.full(n, -1, dtype=np.int32)  # row of each stored translate; n <= DOMAIN_CAP < 2^31
    wrapped = None
    room = 0
    store = None
    used = 0

    def translate(ys: np.ndarray) -> np.ndarray:
        nonlocal wrapped, room, store, used
        where = slot[ys]
        missing = np.unique(ys[where < 0])
        if not missing.size:
            return store[where]
        if wrapped is None:
            wrapped = domain.wrap(values, q, d)
            room = min(n, max(0, budget - wrapped.nbytes) // width)
        rows = np.concatenate([encode(domain.translate_values(wrapped, q, d, points[missing[start:start + batch]]))
                               for start in range(0, len(missing), batch)])
        fit = min(len(missing), room - used)
        if fit:
            if store is None:
                store = np.empty((room,) + rows.shape[1:], dtype=rows.dtype)
            store[used:used + fit] = rows[:fit]
            slot[missing[:fit]] = np.arange(used, used + fit)
            used += fit
            where = slot[ys]
        out = np.empty((len(ys),) + rows.shape[1:], dtype=rows.dtype)
        stored = where >= 0
        if stored.any():
            out[stored] = store[where[stored]]
        out[~stored] = rows[np.searchsorted(missing, ys[~stored])]
        return out

    return translate


def _translate_memos(arrays: Sequence[np.ndarray], q: int, d: int) -> list:
    """One translate memo per distinct array (by identity), splitting
    TRANSLATE_MEMO_BYTES between them; the list follows arrays."""
    distinct = {id(a): a for a in arrays}
    memos = {key: _translate_memo(a, q, d, TRANSLATE_MEMO_BYTES // len(distinct))
             for key, a in distinct.items()}
    return [memos[id(a)] for a in arrays]


def script_S_indicator_exact(field: PrimeField, masks: Sequence[np.ndarray], simplex: Simplex) -> Fraction:
    """Exact rational script_S for 0/1 indicator inputs, aggregated by
    bit-packed intersection and popcount.  A mask holding any other value
    raises ValueError.

    The support rows come out of the enumeration in prefix order, so the
    intersections for a shared tuple prefix are computed once per block;
    translates come from a memo per distinct mask, bounded by
    TRANSLATE_MEMO_BYTES in total."""
    j = len(masks) - 1
    q = field.q
    d = simplex.d
    support = _support_indices(field, simplex, j)
    indicators = {id(m): _indicator(m) for m in masks}
    translates = _translate_memos([indicators[id(m)] for m in masks[1:]], q, d)
    total = _fold_support(support, _pack(indicators[id(masks[0])]), translates, np.bitwise_and, _popcount)
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
    dimension_warning records d <= 2k - r, where the dimension leaves the
    asymptotic no room; it is the one place that fact is reported.
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
        out = asdict(self)
        if self.trial is None:
            del out["trial"]
        return out


def gram_preserving_orderings(field: PrimeField, simplex: Simplex) -> int:
    """Number of orderings of the simplex points with the same Gram matrix;
    the divisor converting ordered embeddings to unordered copies."""
    return isometric_orderings(field, simplex, simplex)


def _count_embeddings(field: PrimeField, simplex: Simplex, packed: np.ndarray, translate: Callable) -> int:
    """Boolean embedding counter: walks the constrained tuple tree carrying
    the running intersection of the set A (packed, its bit-packed row) and
    its translates A(. + y_i) (translate, the count's memo) as bit-packed
    rows, so shared prefixes share work and empty intersections prune whole
    subtrees; leaves are counted by popcount."""
    k = simplex.k
    total = 0

    def grow(level: int, hits: np.ndarray, parent: np.ndarray, y: np.ndarray):
        nonlocal total
        deeper = hits[parent] & translate(y)
        if level + 1 == k:
            total += _popcount(deeper)
            return None
        keep = deeper.any(axis=1)
        return keep, deeper[keep]

    _walk(field, simplex, k, grow, root=packed[None])
    return total


def _refuse_above_cap(work: int, formula: str) -> int:
    """work, or ValueError naming formula when it exceeds WORK_CAP."""
    if work > WORK_CAP:
        raise ValueError(f"estimated work {formula} = {work:.3g} exceeds the cap {WORK_CAP:.3g}")
    return work


def check_work(q: int, d: int, k: int, trials: int = 1) -> int:
    """Work estimate of counting k-simplices in F_q^d over trials sets:
    the count identity's scale q^{(k+1)d - binom(k+1,2)} times trials.
    Raises ValueError above WORK_CAP, so a run that cannot finish is
    refused before it starts.  Raises ValueError as well when the wrapped
    copy that a count's one translate memo holds of a boolean set,
    q^(d-t) (2q-1)^t bytes with t = domain.window_coords(q, d), exceeds
    TRANSLATE_MEMO_BYTES, so a count stays within its memo budget."""
    work = _refuse_above_cap(q ** ((k + 1) * d - math.comb(k + 1, 2)) * trials,
                             "q^((k+1)d - C(k+1,2)) x trials")
    t = domain.window_coords(q, d)
    copy = q ** (d - t) * (2 * q - 1) ** t
    if copy > TRANSLATE_MEMO_BYTES:
        raise ValueError(f"the wrapped copy of a set in F_{q}^{d} takes {copy:.3g} bytes, "
                         f"over the translate memo budget of {TRANSLATE_MEMO_BYTES} bytes")
    return work


def check_lemma_work(q: int, d: int, which: str, j: int = 1, samples: int = 1) -> int:
    """Work estimate of one verification run, refused above WORK_CAP as in
    check_work.  which is "4.2" (q^d points for each of the
    ~q^{(j-1)d - binom(j,2)} level-(j-1) nodes of the walk, a bound on the
    pre-set walk, which tests only the ~q^{d-j+1} points a node's parent
    passes on), "4.3" (one d q^{d+1}
    transform per anchor, ~q^{(j-1)d - binom(j,2)} anchors),
    "verify-gauss" ((q - 1) q^d quadratic sums of q^d terms each) or
    "verify-measures" (one d q^{d+1} transform for each of 3 spheres and
    of samples anchors per rank of measures.suite_ranks).  A
    verify-measures run is refused as well when its peak memory,
    MEASURES_BYTES_PER_POINT bytes per point, would exceed MEMORY_CAP."""
    if which == "4.2":
        return _refuse_above_cap(q ** (j * d - j * (j - 1) // 2), "q^(jd - C(j,2))")
    if which == "4.3":
        return _refuse_above_cap(q ** ((j - 1) * d - math.comb(j, 2)) * d * q ** (d + 1),
                                 "q^((j-1)d - C(j,2)) x d q^(d+1)")
    if which == "verify-gauss":
        return _refuse_above_cap((q - 1) * q ** (2 * d), "(q-1) q^(2d)")
    if which == "verify-measures":
        transforms = 3 + samples * len(suite_ranks(d))
        work = _refuse_above_cap(transforms * d * q ** (d + 1), "(3 + samples x ranks) x d q^(d+1)")
        peak = MEASURES_BYTES_PER_POINT * q ** d
        if peak > MEMORY_CAP:
            raise ValueError(f"estimated peak memory {MEASURES_BYTES_PER_POINT} q^d = {peak:.3g} bytes "
                             f"exceeds the cap {MEMORY_CAP:.3g} bytes")
        return work
    raise ValueError(f"no work estimate for {which!r}")


def count_isometric_copies(A: PointSet, simplex: Simplex, field: Optional[PrimeField] = None,
                           support: Optional[np.ndarray] = None, trial: Optional[int] = None) -> CountReport:
    """Exact number of tuples (x, y_1..y_k) with independent y's such that
    x and every x + y_i lie in A and (0, y_1..y_k) is ordered-isometric to
    the reference simplex.

    Reads one bounded memo of translates of A in two aggregations, the
    boolean embedding counter (the walk, carrying pruned intersections) and
    the prefix-shared fold over the support (the integer behind script_S),
    and insists their totals agree before reporting; unordered_count must
    divide exactly as well.  Both enumerate through the one walker, _walk,
    so this cross-check does not test enumeration; that is checked
    independently by the naive counters in the tests and by perfbench's
    checks.count_over_set.
    support, if given, is the (N, k) flat-index support array of the walk,
    shared by calls on the same simplex.
    d <= 2k - r sets the report's dimension_warning; nothing is warned.
    """
    field = field or PrimeField(A.q)
    if (A.q, A.d) != (simplex.q, simplex.d):
        raise ValueError("point set and simplex live in different domains")
    if not simplex_is_valid(field, simplex):
        raise ValueError("reference is not a valid simplex")
    q, d, k = A.q, A.d, simplex.k
    check_work(q, d, k)
    r = simplex_rank(field, simplex)

    translate = _translate_memo(A.mask, q, d, TRANSLATE_MEMO_BYTES)
    packed = _pack(A.mask)
    exact = _count_embeddings(field, simplex, packed, translate)
    if support is None:
        support = _support_indices(field, simplex, k)
    if _fold_support(support, packed, [translate] * k, np.bitwise_and, _popcount) != exact:
        raise RuntimeError("embedding count and script_S disagree; internal inconsistency")
    scale = q ** ((k + 1) * d - math.comb(k + 1, 2))

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
        s_value=float(Fraction(exact, scale)),
        main_term=main,
        error_bound=err_scale * scale,
        normalized_error=normalized,
        density_threshold=float(q) ** ((2 * k - d - r) / (k + 1)),
        dimension_warning=d <= 2 * k - r,
        trial=trial,
    )


# ---------------------------------------------------------------------------
# inequality and asymptotic checks
# ---------------------------------------------------------------------------

def verify_dependent_bound(field: PrimeField, simplex: Simplex, j: int, anchors) -> dict:
    """Exact check that the step-j mass carried by Span(anchors) stays
    under q^{2j - 1 - r_{j-1}}.  The anchors are independent (check_anchors),
    so their span lists each of its q^{j-1} points once."""
    check_anchors(field, simplex, anchors)
    if len(anchors) != j - 1:
        raise ValueError("need exactly j - 1 anchors")
    q = field.q
    d = simplex.d
    support = conditional_mask(field, anchors, step_targets(field, simplex, j), d)
    span = domain.span_indices(np.asarray(anchors, dtype=np.int64)[None], q)[0]
    total = int(np.count_nonzero(support[span])) * q ** j
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


def verify_count_asymptotic(field: PrimeField, simplex: Simplex, j: int) -> dict:
    """script_S_j(1,...,1) = 1 + O(q^{j-(d+r_j)/2}), evaluated exactly from
    the independent support size, which the walk counts without storing
    the level-j tuples."""
    q = field.q
    d = simplex.d
    if not 1 <= j <= simplex.k:
        raise ValueError("need 1 <= j <= k")
    check_lemma_work(q, d, "4.2", j)
    n_tuples = 0

    def grow(level: int, states, parent: np.ndarray, y: np.ndarray):
        nonlocal n_tuples
        if level + 1 == j:
            n_tuples += len(y)
            return None
        return np.ones(len(y), dtype=bool), y

    _walk(field, simplex, j, grow, root=None)
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
    for the supplied nonzero frequencies (all of them by default).

    The anchors are the level-(j-1) support of the walk.  A block of them
    (BLOCK_BYTES of complex rows) gets its step-j measures from one
    conditional_masks call and its transforms from one transform_rows
    call; |muhat|^2 is added to the sum row by row in anchor order, so the
    float additions happen in the order of one anchor at a time."""
    q = field.q
    d = simplex.d
    if not 2 <= j <= simplex.k:
        raise ValueError("need 2 <= j <= k")
    check_lemma_work(q, d, "4.3", j)
    n = domain.domain_size(q, d)
    if xis is None:
        xi_idx = np.arange(1, n, dtype=np.int64)
    else:
        xi_idx = np.array([domain.index_of(x, q) for x in xis], dtype=np.int64)
        if np.any(xi_idx == 0):
            raise ValueError("xi = 0 is rejected")
        if xi_idx.size == 0:
            raise ValueError("need at least one frequency")
    anchors = _support_indices(field, simplex, j - 1)
    targets = step_targets(field, simplex, j)
    acc = np.zeros(n, dtype=np.float64)
    rows = _block_rows(16 * n)  # complex128 rows
    for start in range(0, len(anchors), rows):
        mask = conditional_masks(q, d, anchors[start:start + rows], targets)
        mu = np.where(mask, float(q) ** j, 0.0).astype(np.complex128)
        for power in np.abs(transform_rows(mu, q, d)) ** 2:
            acc += power
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

def random_set_experiment(field: PrimeField, simplex: Simplex, alpha: float, trials: int, seed: int) -> list:
    """Sample random sets of target density alpha and report the embedding
    count statistics per trial.

    The master seed expands through a splittable seed sequence, one child
    per trial, so each trial's set depends only on the seed and its index.
    Trials run one after another and share one enumerated support array.
    Each report sets dimension_warning when d <= 2k - r.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    q, d = simplex.q, simplex.d
    check_work(q, d, simplex.k, trials)
    support = _support_indices(field, simplex, simplex.k)
    children = np.random.SeedSequence(seed).spawn(trials)
    return [count_isometric_copies(PointSet.random(q, d, alpha, np.random.default_rng(child)),
                                   simplex, field=field, support=support, trial=i)
            for i, child in enumerate(children)]
