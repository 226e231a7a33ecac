"""Flat-array bookkeeping for the point domain F_q^d.

The flat index encoding is little endian in the coordinates:
index(x) = sum_c x_c * q**c, so coordinate 0 varies fastest.  Grids reshape
flat arrays to shape (q,)*d in Fortran order, which keeps grid axis c in
bijection with coordinate c.

Two tables are cached per (q, d) for the life of the process, both built
without dividing an index array: coords_matrix, the (q^d, d) coordinates
(2d bytes per point while q <= 32768), one broadcast digit pattern per
column; and lengths_vector, |x|^2 mod q in int32, by d outer sums of the
q-entry table of squares.  lengths_vector reads no coordinate table, so a
run that needs only lengths and the digits of a few indices (measures
.conditional_masks) never builds the (q^d, d) one.

Translates are read, a batch of vectors at a time, from one cyclically
wrapped copy of the values (wrap, translate_values).  The copy wraps the t
inner coordinates, t the fewest whose window of q^t points holds at least
WINDOW_POINTS = 256 points (all d if no fewer do); the outer d - t
coordinates are gathered by flat index.  The copy holds
q^(d-t) (2q-1)^t = (2 - 1/q)^t q^d entries: at most 21.4 times the values
(q = 3, t = 6), 10.5 at q = 5, about 7 for 7 <= q <= 13, under 4 for
17 <= q <= 255 and under 2 from q = 257 on, where t = 1.

Spans are listed as flat indices as well: span_indices enumerates
Span(v_1, ..., v_m), or the combinations of a given set of coefficient rows,
for a block of vector tuples at once.  It is the one span builder of the
tuple walk (which lists only the span points that meet a level's tests),
measures.span_mask and Lemma 4.1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Dense storage guard: q**d entries per function.
DOMAIN_CAP = 10 ** 8
# Fewest points of one translate window (see window_coords).
WINDOW_POINTS = 256


def domain_size(q: int, d: int) -> int:
    n = q ** d
    if n > DOMAIN_CAP:
        raise ValueError(f"domain q^d = {n} exceeds the dense-storage cap {DOMAIN_CAP}")
    return n


def index_of(point, q: int) -> int:
    idx = 0
    for c in reversed(point):
        idx = idx * q + (c % q)
    return idx


def point_of(idx: int, q: int, d: int) -> tuple:
    out = []
    for _ in range(d):
        out.append(idx % q)
        idx //= q
    return tuple(out)


@lru_cache(maxsize=None)
def coords_matrix(q: int, d: int) -> np.ndarray:
    """(q^d, d) matrix whose rows are the points in index order; int16 while
    every coordinate 0..q-1 fits, int32 above that.  Column c is a digit
    pattern, written by broadcasting: each digit 0..q-1 repeated q^c times,
    and that run tiled q^(d-1-c) times, so no index array is divided."""
    n = domain_size(q, d)
    out = np.empty((n, d), dtype=np.int16 if q - 1 <= np.iinfo(np.int16).max else np.int32)
    digits = np.arange(q, dtype=out.dtype)[:, None]
    for c in range(d):
        out.reshape(q ** (d - 1 - c), q, q ** c, d)[:, :, :, c] = digits
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def lengths_vector(q: int, d: int) -> np.ndarray:
    """|x|^2 mod q for every point, in index order, as int32.  Built from
    the q-entry table of squares mod q by d outer sums, each reduced mod q:
    after c sums, entry i is the length of the point with the c low digits
    of i.  It reads no coordinate table.  The working dtype is the
    narrowest unsigned one that holds a sum of two residues, 2(q-1)."""
    domain_size(q, d)
    work = np.min_scalar_type(2 * (q - 1))
    squares = (np.arange(q, dtype=np.int64) ** 2 % q).astype(work)
    acc = np.zeros(1, dtype=work)
    for _ in range(d):
        acc = (squares[:, None] + acc).reshape(-1)
        acc %= work.type(q)
    out = acc.astype(np.int32)
    out.flags.writeable = False
    return out


def as_grid(values: np.ndarray, q: int, d: int) -> np.ndarray:
    return values.reshape((q,) * d, order="F")


def as_flat(grid: np.ndarray) -> np.ndarray:
    return grid.reshape(-1, order="F")


def window_coords(q: int, d: int) -> int:
    """t, the inner coordinates a translate window spans: the fewest whose
    q^t points number at least WINDOW_POINTS, or d if no fewer do."""
    t = 0
    while t < d and q ** t < WINDOW_POINTS:
        t += 1
    return t


def wrap(values: np.ndarray, q: int, d: int) -> np.ndarray:
    """values (flat, q^d entries) cyclically wrapped for translate_values:
    shape (q^(d-t),) + (2q-1,)*t, the outer coordinates flattened into the
    first axis and each of the t inner coordinates, last axis fastest,
    extended by its first q-1 entries."""
    t = window_coords(q, d)
    grid = np.asarray(values).reshape((q ** (d - t),) + (q,) * t)
    return np.pad(grid, [(0, 0)] + [(0, q - 1)] * t, mode="wrap")


def translate_values(wrapped: np.ndarray, q: int, d: int, ys) -> np.ndarray:
    """The (M, q^d) rows g_m(x) = f(x + y_m) for an (M, d) array ys of
    integer vectors, read from wrapped = wrap(f, q, d).

    Row m is one window of wrapped: the inner coordinates start at
    y_m mod q, and each outer position reads the wrapped row of its
    translated outer point.  One fancy index gathers the whole batch."""
    t = window_coords(q, d)
    if wrapped.shape != (q ** (d - t),) + (2 * q - 1,) * t:
        raise ValueError(f"expected an array made by wrap(values, {q}, {d}), got shape {wrapped.shape}")
    ys = np.asarray(ys, dtype=np.int64)
    if ys.ndim != 2 or ys.shape[1] != d:
        raise ValueError(f"vectors must have d = {d} coordinates, got an array of shape {ys.shape}")
    ys = ys % q
    outer = coords_matrix(q, d - t)
    src = np.zeros((len(ys), len(outer)), dtype=np.intp)
    for c in range(d - t):
        src += ((outer[:, c] + ys[:, t + c, None]) % q) * q ** c
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, (q,) * t, axis=tuple(range(1, t + 1)))
    starts = tuple(ys[:, c, None] for c in reversed(range(t)))
    return windows[(src,) + starts].reshape(len(ys), q ** d)


def index_array(points: np.ndarray, q: int) -> np.ndarray:
    """Flat indices for an (n, d) array of points."""
    pts = np.asarray(points, dtype=np.int64) % q
    weights = q ** np.arange(pts.shape[1], dtype=np.int64)
    return pts @ weights


def span_indices(vectors, q: int, coeffs=None) -> np.ndarray:
    """Flat indices of Span(v_1, ..., v_m) for each row of an (N, m, d)
    integer array of vectors: the (N, s) int64 array whose row r lists
    sum_i c_i v_i for the s coefficient rows (c_1, ..., c_m) of coeffs, an
    (s, m) array of integers in 0..q-1; by default all q^m of them in
    itertools.product order.  m = 0 gives the span {0}; dependent vectors
    give repeated points.  Entries of one product stay below
    m (q-1)^2 < 2^63 at every q^m <= DOMAIN_CAP."""
    vectors = np.asarray(vectors, dtype=np.int64) % q
    rows, m, d = vectors.shape
    if coeffs is None:
        coeffs = coords_matrix(q, m)[:, ::-1]  # c_m varies fastest
    coeffs = np.asarray(coeffs, dtype=np.int64).T
    out = np.zeros((rows, coeffs.shape[1]), dtype=np.int64)
    for c in range(d):
        out += (vectors[:, :, c] @ coeffs % q) * q ** c
    return out
