"""Flat-array bookkeeping for the point domain F_q^d.

The flat index encoding is little endian in the coordinates:
index(x) = sum_c x_c * q**c, so coordinate 0 varies fastest.  Grids reshape
flat arrays to shape (q,)*d in Fortran order, which keeps grid axis c in
bijection with coordinate c.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Dense storage guard: q**d entries per function.
DOMAIN_CAP = 10 ** 8


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
    every coordinate 0..q-1 fits, int32 above that."""
    n = domain_size(q, d)
    idx = np.arange(n, dtype=np.int64)
    out = np.empty((n, d), dtype=np.int16 if q - 1 <= np.iinfo(np.int16).max else np.int32)
    for c in range(d):
        out[:, c] = (idx // q ** c) % q
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def lengths_vector(q: int, d: int) -> np.ndarray:
    """|x|^2 mod q for every point, in index order."""
    coords = coords_matrix(q, d).astype(np.int64)
    out = ((coords * coords).sum(axis=1) % q).astype(np.int32)
    out.flags.writeable = False
    return out


def dots_with(q: int, d: int, v) -> np.ndarray:
    """x.v mod q for every point x, in index order."""
    coords = coords_matrix(q, d)
    vv = np.asarray([c % q for c in v], dtype=np.int64)
    return (coords @ vv) % q


def as_grid(values: np.ndarray, q: int, d: int) -> np.ndarray:
    return values.reshape((q,) * d, order="F")


def as_flat(grid: np.ndarray) -> np.ndarray:
    return grid.reshape(-1, order="F")


def translate_values(values: np.ndarray, q: int, d: int, y) -> np.ndarray:
    """g with g(x) = f(x + y), via a cyclic roll along each coordinate."""
    grid = as_grid(values, q, d)
    shift = tuple(-(c % q) for c in y)
    return as_flat(np.roll(grid, shift, axis=tuple(range(d))))


def index_array(points: np.ndarray, q: int) -> np.ndarray:
    """Flat indices for an (n, d) array of points."""
    pts = np.asarray(points, dtype=np.int64) % q
    weights = q ** np.arange(pts.shape[1], dtype=np.int64)
    return pts @ weights
