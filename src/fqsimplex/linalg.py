"""Vector and subspace algebra over F_q^d.

Vectors are tuples of ints in [0, q).  Subspaces are stored with a reduced
row-echelon basis, so equal subspaces compare equal as values.  The dot
product is the standard bilinear form sum(v_j * w_j); its quadratic form
|v|^2 = v.v is isotropic, which is what makes simplex rank a nontrivial
invariant here.

A k-simplex is an ordered tuple of k+1 points whose difference vectors from
the base point are linearly independent.  Two ordered simplices are
isometric when their Gram matrices of difference vectors agree entrywise;
the unordered notion quantifies over reorderings.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .field import PrimeField

Vector = tuple

# Factorial search over orderings is exact but only sane for small k.
MAX_SIMPLEX_K = 6


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

def vec_reduce(v: Sequence[int], q: int) -> Vector:
    return tuple(int(c) % q for c in v)


def vec_add(v: Vector, w: Vector, q: int) -> Vector:
    return tuple((a + b) % q for a, b in zip(v, w))


def vec_sub(v: Vector, w: Vector, q: int) -> Vector:
    return tuple((a - b) % q for a, b in zip(v, w))


def vec_scale(c: int, v: Vector, q: int) -> Vector:
    return tuple((c * a) % q for a in v)


def dot(field: PrimeField, v: Vector, w: Vector) -> int:
    if len(v) != len(w):
        raise ValueError(f"dimension mismatch: {len(v)} vs {len(w)}")
    return sum(a * b for a, b in zip(v, w)) % field.q


def length_sq(field: PrimeField, v: Vector) -> int:
    return sum(a * a for a in v) % field.q


def mat_vec(field: PrimeField, m: Sequence[Vector], v: Vector) -> Vector:
    return tuple(dot(field, row, v) for row in m)


def mat_mul(field: PrimeField, a: Sequence[Vector], b: Sequence[Vector]) -> tuple:
    q = field.q
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt) for row in a
    )


def mat_transpose(m: Sequence[Vector]) -> tuple:
    return tuple(zip(*m))


def identity_matrix(d: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def rref(field: PrimeField, rows: Iterable[Vector]) -> tuple:
    """Reduced row-echelon form, zero rows dropped.  Returns (rows, pivots)."""
    q = field.q
    work = [list(vec_reduce(r, q)) for r in rows]
    if not work:
        return (), ()
    d = len(work[0])
    pivots = []
    rank = 0
    for col in range(d):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        s = field.inv(work[rank][col])
        work[rank] = [(s * x) % q for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


def matrix_rank(field: PrimeField, rows: Iterable[Vector]) -> int:
    return len(rref(field, rows)[0])


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F_q^d with a canonical RREF basis.

    Two Subspace values are equal exactly when they describe the same
    subspace of the same ambient space.
    """

    q: int
    d: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace_span(field: PrimeField, vectors: Iterable[Vector], d: int) -> Subspace:
    vecs = [vec_reduce(v, field.q) for v in vectors]
    for v in vecs:
        if len(v) != d:
            raise ValueError("vector length does not match ambient dimension")
    basis, _ = rref(field, vecs)
    return Subspace(field.q, d, basis)


def zero_subspace(field: PrimeField, d: int) -> Subspace:
    return Subspace(field.q, d, ())


def subspace_contains(field: PrimeField, v_space: Subspace, v: Vector) -> bool:
    q = field.q
    w = list(vec_reduce(v, q))
    for row in v_space.basis:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if w[piv] != 0:
            f = w[piv]
            w = [(x - f * y) % q for x, y in zip(w, row)]
    return all(x == 0 for x in w)


def span_elements(field: PrimeField, v_space: Subspace) -> Iterator[Vector]:
    """All q^dim vectors of the subspace (desk scale only)."""
    q = field.q
    if v_space.dim == 0:
        yield tuple([0] * v_space.d)
        return
    for coeffs in itertools.product(range(q), repeat=v_space.dim):
        acc = [0] * v_space.d
        for c, row in zip(coeffs, v_space.basis):
            if c:
                acc = [(a + c * b) % q for a, b in zip(acc, row)]
        yield tuple(acc)


def orthogonal_complement(field: PrimeField, v_space: Subspace) -> Subspace:
    """All w with v.w = 0 for v in the subspace; dim V + dim Vperp = d."""
    q = field.q
    d = v_space.d
    rows, pivots = rref(field, v_space.basis)
    if not rows:
        return subspace_span(field, identity_matrix(d), d)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        w = [0] * d
        w[fc] = 1
        for r, pc in enumerate(pivots):
            w[pc] = (-rows[r][fc]) % q
        basis.append(tuple(w))
    out, _ = rref(field, basis)
    return Subspace(q, d, out)


# ---------------------------------------------------------------------------
# simplices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Simplex:
    """An ordered tuple of k+1 points of F_q^d.

    The simplex condition (difference vectors independent) is checked by
    simplex_is_valid / make_simplex; relaxed instances are allowed so that
    detection sweeps can compare arbitrary point tuples.
    """

    q: int
    points: tuple

    @property
    def k(self) -> int:
        return len(self.points) - 1

    @property
    def d(self) -> int:
        return len(self.points[0])

    def diffs(self) -> tuple:
        base = self.points[0]
        return tuple(vec_sub(p, base, self.q) for p in self.points[1:])


def make_simplex(field: PrimeField, points: Sequence[Sequence[int]], validate: bool = True) -> Simplex:
    pts = tuple(vec_reduce(p, field.q) for p in points)
    if len(pts) < 2:
        raise ValueError("a simplex needs at least two points")
    if len({len(p) for p in pts}) != 1:
        raise ValueError("points have mixed dimensions")
    s = Simplex(field.q, pts)
    if validate and not simplex_is_valid(field, s):
        raise ValueError("difference vectors are linearly dependent")
    return s


def standard_simplex(field: PrimeField, d: int, k: int) -> Simplex:
    """The simplex {0, e_1, ..., e_k} in F_q^d."""
    if d < k:
        raise ValueError("standard simplex needs d >= k")
    pts = [(0,) * d]
    for j in range(k):
        e = [0] * d
        e[j] = 1
        pts.append(tuple(e))
    return make_simplex(field, pts)


def simplex_is_valid(field: PrimeField, s: Simplex) -> bool:
    return matrix_rank(field, s.diffs()) == s.k


def gram_matrix(field: PrimeField, s: Simplex) -> tuple:
    diffs = s.diffs()
    return tuple(tuple(dot(field, u, v) for v in diffs) for u in diffs)


def simplex_rank(field: PrimeField, s: Simplex) -> int:
    """k minus the dimension of the radical V cap V^perp of the span V of
    the differences.  The Gram matrix has rank dim V - dim(V cap V^perp),
    so the rank is k - rank(diffs) + rank(Gram), for dependent tuples too."""
    return s.k - matrix_rank(field, s.diffs()) + matrix_rank(field, gram_matrix(field, s))


def prefix_simplex(s: Simplex, j: int) -> Simplex:
    return Simplex(s.q, s.points[: j + 1])


def is_isometric_ordered(field: PrimeField, s1: Simplex, s2: Simplex) -> bool:
    if s1.k != s2.k:
        raise ValueError(f"mismatched simplex sizes k={s1.k} vs k={s2.k}")
    return gram_matrix(field, s1) == gram_matrix(field, s2)


def isometric_orderings(field: PrimeField, s1: Simplex, s2: Simplex) -> int:
    """Number of reorderings of s2's points that match s1's Gram matrix."""
    g1 = gram_matrix(field, s1)
    return sum(1 for perm in itertools.permutations(s2.points)
               if gram_matrix(field, Simplex(s2.q, perm)) == g1)


def is_isometric(field: PrimeField, s1: Simplex, s2: Simplex) -> bool:
    """True when some reordering of s2 matches s1's Gram matrix."""
    if s1.k != s2.k:
        return False
    if s1.k > MAX_SIMPLEX_K:
        raise ValueError(f"k={s1.k} exceeds supported ordering search (k <= {MAX_SIMPLEX_K})")
    return isometric_orderings(field, s1, s2) > 0


def prefix_rank_sequence(field: PrimeField, s: Simplex) -> tuple:
    """The ranks of the prefixes {0, v_1..v_j}, j = 1..k.  A test oracle for
    the prefix-rank orderings built here."""
    return tuple(simplex_rank(field, prefix_simplex(s, j)) for j in range(1, s.k + 1))


def reorder_for_prefix_ranks(field: PrimeField, s: Simplex) -> Simplex:
    """Reorder the non-base points so every prefix has rank min(j, rank).

    Searches orderings depth-first with the base point fixed, falling back
    to permuting all points.  No reorderable simplex is known to lack such
    an ordering; if the search ever fails the error message preserves the
    offending simplex for inspection.
    """
    if s.k > MAX_SIMPLEX_K:
        raise ValueError(f"k={s.k} exceeds supported ordering search (k <= {MAX_SIMPLEX_K})")
    r = simplex_rank(field, s)
    want = [min(j, r) for j in range(1, s.k + 1)]

    def search(base, rest):
        def extend(chosen, remaining):
            j = len(chosen)
            if j == len(rest):
                return chosen
            for i, p in enumerate(remaining):
                cand = Simplex(s.q, (base,) + tuple(chosen) + (p,))
                if simplex_rank(field, cand) == want[j]:
                    got = extend(chosen + [p], remaining[:i] + remaining[i + 1:])
                    if got is not None:
                        return got
            return None

        return extend([], list(rest))

    found = search(s.points[0], s.points[1:])
    if found is not None:
        return Simplex(s.q, (s.points[0],) + tuple(found))
    for bi in range(1, len(s.points)):
        rest = s.points[:bi] + s.points[bi + 1:]
        found = search(s.points[bi], rest)
        if found is not None:
            return Simplex(s.q, (s.points[bi],) + tuple(found))
    raise RuntimeError(f"no prefix-rank ordering found; counterexample simplex: {s}")


# ---------------------------------------------------------------------------
# isometry extension (nonsingular Gram only)
# ---------------------------------------------------------------------------

def extend_isometry(field: PrimeField, source: Sequence[Vector], target: Sequence[Vector], d: int) -> tuple:
    """An orthogonal matrix U (U^T U = I) with U source_i = target_i.

    Requires the two tuples to have equal pairwise dot products and a
    nonsingular common Gram matrix; the degenerate case is out of scope.
    The construction follows the proof of Witt's extension theorem.
    Gram-Schmidt runs on the (source, target) pairs in lockstep: every
    choice depends only on dot products, so both sides take the same steps
    and yield orthogonal anisotropic pairs (s, t).  For each pair U is
    composed with one or two reflections (reflection_matrix) that carry
    U s onto t and fix the targets already matched.
    """
    q = field.q
    src = [vec_reduce(v, q) for v in source]
    tgt = [vec_reduce(v, q) for v in target]
    if len(src) != len(tgt):
        raise ValueError("source and target tuples differ in length")
    for v in src + tgt:
        if len(v) != d:
            raise ValueError("vector length does not match ambient dimension")
    m = len(src)
    if m > d:
        raise ValueError("more vectors than ambient dimension")
    gram_s = tuple(tuple(dot(field, u, v) for v in src) for u in src)
    gram_t = tuple(tuple(dot(field, u, v) for v in tgt) for u in tgt)
    if gram_s != gram_t:
        raise ValueError("tuples are not isometric (Gram matrices differ)")
    if m and matrix_rank(field, gram_s) != m:
        raise ValueError("singular Gram matrix: degenerate tuples are unsupported")

    u_mat = identity_matrix(d)
    pairs = list(zip(src, tgt))
    while pairs:
        i = next((i for i, (s, _) in enumerate(pairs) if length_sq(field, s)), None)
        if i is None:
            # all isotropic; a nonsingular Gram has some s_a.s_b != 0, and
            # then |s_a + s_b|^2 = 2 s_a.s_b != 0 since q is odd
            i, b = next((a, b) for a, b in itertools.combinations(range(len(pairs)), 2)
                        if dot(field, pairs[a][0], pairs[b][0]))
            pairs[i] = tuple(vec_add(x, y, q) for x, y in zip(pairs[i], pairs[b]))
        s, t = pairs.pop(i)
        inv_len = field.inv(length_sq(field, s))
        rest = []
        for s2, t2 in pairs:
            c = (dot(field, s2, s) * inv_len) % q
            rest.append((vec_sub(s2, vec_scale(c, s, q), q), vec_sub(t2, vec_scale(c, t, q), q)))
        pairs = rest
        # the targets matched so far are orthogonal to t and to u = U s,
        # so each reflection below fixes them
        u = mat_vec(field, u_mat, s)
        w = vec_sub(u, t, q)
        if not any(w):
            continue
        if length_sq(field, w):
            u_mat = mat_mul(field, reflection_matrix(field, w), u_mat)
        else:
            # |u - t|^2 = 0 gives u.t = |t|^2, so |u + t|^2 = 4|t|^2 != 0:
            # reflecting along u + t sends u to -t, and along t back to t
            u_mat = mat_mul(field, reflection_matrix(field, vec_add(u, t, q)), u_mat)
            u_mat = mat_mul(field, reflection_matrix(field, t), u_mat)

    ident = identity_matrix(d)
    if mat_mul(field, mat_transpose(u_mat), u_mat) != ident:
        raise RuntimeError("constructed map is not orthogonal")
    for v, w in zip(src, tgt):
        if mat_vec(field, u_mat, v) != w:
            raise RuntimeError("constructed map misses a prescribed image")
    return u_mat


def reflection_matrix(field: PrimeField, w: Vector) -> tuple:
    """Reflection through the hyperplane orthogonal to an anisotropic w."""
    q = field.q
    lw = length_sq(field, w)
    if lw == 0:
        raise ValueError("reflection axis must be anisotropic")
    inv_lw = field.inv(lw)
    d = len(w)
    return tuple(
        tuple(((1 if i == j else 0) - 2 * w[i] * w[j] * inv_lw) % q for j in range(d))
        for i in range(d)
    )


def random_orthogonal(field: PrimeField, d: int, rng) -> tuple:
    """A random orthogonal map built as a product of random reflections.
    A test and acceptance oracle: it draws the isometries that
    extend_isometry and the isometry invariance of counts are checked on."""
    q = field.q
    u_mat = identity_matrix(d)
    made = 0
    while made < d + 2:
        w = tuple(int(rng.integers(q)) for _ in range(d))
        if length_sq(field, w) == 0:
            continue
        u_mat = mat_mul(field, reflection_matrix(field, w), u_mat)
        made += 1
    return u_mat


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def construct_self_dual_subspace(field: PrimeField, m: int) -> Subspace:
    """W in F_q^{2m} with dim W = m and W equal to its own complement.

    Uses the pairs (1, i) with i^2 = -1, so q = 1 mod 4 is required.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return zero_subspace(field, 0)
    i = field.sqrt_of_minus_one()
    if i is None:
        raise ValueError("q = 3 mod 4: no square root of -1, construction unavailable")
    d = 2 * m
    basis = []
    for j in range(m):
        row = [0] * d
        row[2 * j] = 1
        row[2 * j + 1] = i
        basis.append(tuple(row))
    return Subspace(field.q, d, tuple(basis))


def construct_extremal_simplex(field: PrimeField, k: int, r: int) -> Simplex:
    """A k-simplex of rank r in ambient dimension exactly 2k - r.

    The first r difference vectors are standard basis vectors; the rest
    come from a self-dual subspace of the complementary block.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 <= r <= k:
        raise ValueError("need 0 <= r <= k")
    d = 2 * k - r
    if r < k and field.sqrt_of_minus_one() is None:
        raise ValueError("rank-deficient extremal construction needs q = 1 mod 4")
    diffs = []
    for j in range(r):
        e = [0] * d
        e[j] = 1
        diffs.append(tuple(e))
    if r < k:
        w_space = construct_self_dual_subspace(field, k - r)
        for row in w_space.basis:
            v = [0] * d
            v[r:] = list(row)
            diffs.append(tuple(v))
    zero = tuple([0] * d)
    s = Simplex(field.q, (zero,) + tuple(diffs))
    got = simplex_rank(field, s)
    if got != r:
        raise RuntimeError(f"extremal construction produced rank {got}, wanted {r}")
    return s


def find_simplex_of_rank(field: PrimeField, d: int, k: int, r: int) -> Simplex:
    """A prefix-rank-ordered k-simplex of rank r in F_q^d, found by direct
    search; works for every odd q (unlike the extremal construction).

    Builds the k - r dimensional totally isotropic radical first, then
    scans its complement for r mutually orthogonal anisotropic vectors;
    the anisotropic block goes first so prefixes have rank min(j, r).
    """
    if not 0 <= r <= k:
        raise ValueError("need 0 <= r <= k")
    if d < 2 * k - r:
        raise ValueError(f"rank {r} needs dimension at least {2 * k - r}")
    iso: list = []
    for _ in range(k - r):
        comp = orthogonal_complement(field, subspace_span(field, iso, d))
        cur = subspace_span(field, iso, d)
        found = None
        for v in span_elements(field, comp):
            if any(v) and length_sq(field, v) == 0 and not subspace_contains(field, cur, v):
                found = v
                break
        if found is None:
            raise ValueError(f"no rank-{r} {k}-simplex found in F_{field.q}^{d}")
        iso.append(found)
    aniso: list = []
    for _ in range(r):
        comp = orthogonal_complement(field, subspace_span(field, iso + aniso, d))
        found = next((v for v in span_elements(field, comp) if length_sq(field, v) != 0), None)
        if found is None:
            raise ValueError(f"no rank-{r} {k}-simplex found in F_{field.q}^{d}")
        aniso.append(found)
    zero = tuple([0] * d)
    s = Simplex(field.q, (zero,) + tuple(aniso) + tuple(iso))
    if simplex_rank(field, s) != r:
        raise RuntimeError("rank search produced the wrong rank")
    return s


def embed_simplex(field: PrimeField, s: Simplex, d: int) -> Simplex:
    """Pad points with zero coordinates up to ambient dimension d."""
    if d < s.d:
        raise ValueError("cannot shrink the ambient dimension")
    pad = (0,) * (d - s.d)
    return Simplex(s.q, tuple(p + pad for p in s.points))


# ---------------------------------------------------------------------------
# simplex literals
# ---------------------------------------------------------------------------

def simplex_from_json(field: PrimeField, text) -> Simplex:
    """Parse the CLI literal: a JSON array of equal-length point arrays."""
    obj = json.loads(text) if isinstance(text, str) else text
    if not isinstance(obj, list) or not obj:
        raise ValueError("simplex literal must be a nonempty JSON array of points")
    for p in obj:
        if not isinstance(p, list) or not all(isinstance(c, int) for c in p):
            raise ValueError("each simplex point must be an array of integers")
    return make_simplex(field, obj, validate=True)

