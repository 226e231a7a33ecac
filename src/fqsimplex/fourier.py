"""Normalized Fourier analysis on F_q^d.

Conventions, fixed once and used by every asymptotic check downstream:

    average    E_x f(x)   = q^{-d} sum_x f(x)
    transform  fhat(xi)   = E_x f(x) chi(-xi.x)
    inversion  f(x)       = sum_xi fhat(xi) chi(xi.x)        (plain sum)
    Plancherel E_x f conj(g) = sum_xi fhat conj(ghat)
    convolution f*g(x)    = E_y f(y) g(x - y)

The transform factorizes over coordinates, so the production path applies a
length-q kernel along each axis (O(d q^{d+1})); a naive O(q^{2d}) transform
is kept as an oracle for small domains.

One axis-pass routine, transform_rows, serves a single function and a stack
of functions alike; fourier_transform and inverse_transform are its one-row
case.  Each axis pass runs one (q x q) @ (q x q^{d-1}) gemm per row, never
one fused gemm over the whole stack: BLAS rounds a fused product
differently, and at q = 3 that flips ties between frequencies +xi and -xi
whose values are equal in exact arithmetic, so a stack would not give the
bits of the same functions transformed one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import domain
from .field import PrimeField

# The naive oracle materializes a q^d x q^d phase table.
NAIVE_CAP = 4096


@dataclass
class DenseFunction:
    """A complex-valued function on F_q^d as a flat array of length q^d."""

    q: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        n = domain.domain_size(self.q, self.d)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} values, got shape {vals.shape}")
        self.values = vals

    @classmethod
    def constant(cls, q: int, d: int, value=1.0) -> "DenseFunction":
        n = domain.domain_size(q, d)
        return cls(q, d, np.full(n, value, dtype=np.complex128))

    @classmethod
    def zeros(cls, q: int, d: int) -> "DenseFunction":
        n = domain.domain_size(q, d)
        return cls(q, d, np.zeros(n, dtype=np.complex128))

    @classmethod
    def point_mass(cls, q: int, d: int, point=None, weight=1.0) -> "DenseFunction":
        f = cls.zeros(q, d)
        idx = 0 if point is None else domain.index_of(point, q)
        f.values[idx] = weight
        return f

    def grid(self) -> np.ndarray:
        return domain.as_grid(self.values, self.q, self.d)

    def copy(self) -> "DenseFunction":
        return DenseFunction(self.q, self.d, self.values.copy())

    def __call__(self, point) -> complex:
        return complex(self.values[domain.index_of(point, self.q)])


def _check_shapes(f: DenseFunction, g: DenseFunction):
    if (f.q, f.d) != (g.q, g.d):
        raise ValueError(f"shape mismatch: ({f.q},{f.d}) vs ({g.q},{g.d})")


@lru_cache(maxsize=None)
def _forward_kernel(q: int) -> np.ndarray:
    """K[t, x] = chi(-t x); one axis pass of the transform."""
    t = np.arange(q)
    k = np.exp(-2j * np.pi * np.outer(t, t) / q)
    k.flags.writeable = False
    return k


def average(f: DenseFunction) -> complex:
    return complex(f.values.mean())


def transform_rows(values: np.ndarray, q: int, d: int, inverse: bool = False) -> np.ndarray:
    """The transforms of a stack of functions on F_q^d, one per row of the
    (N, q^d) array values: fhat(xi) = q^{-d} sum_x f(x) chi(-xi.x) for each
    row, or with inverse the plain sum f(x) = sum_xi fhat(xi) chi(xi.x).

    Each row is viewed as its Fortran grid without a copy; the pass along
    coordinate c moves that axis next to the row axis, reshapes to
    (N, q, q^{d-1}) and multiplies by the kernel with np.matmul, one gemm
    per row, so every row gets the same operands as a transform of that row
    alone."""
    rows = values.shape[0]
    kernel = _forward_kernel(q).conj() if inverse else _forward_kernel(q)
    reverse = (0,) + tuple(range(d, 0, -1))
    # A C-ordered row reshaped to (q,)*d has coordinate d-1 first; reversing
    # the grid axes puts coordinate c on axis c + 1.
    arr = np.asarray(values, dtype=np.complex128).reshape((rows,) + (q,) * d).transpose(reverse)
    for axis in range(1, d + 1):
        b = np.moveaxis(arr, axis, 1)
        shape = b.shape
        b = b.reshape(rows, q, -1)
        arr = np.moveaxis(np.matmul(kernel, b).reshape(shape), 1, axis)
    out = arr.transpose(reverse).reshape(rows, -1)
    if not inverse:
        out *= float(q) ** (-d)
    return out


def fourier_transform(f: DenseFunction) -> DenseFunction:
    """fhat(xi) = q^{-d} sum_x f(x) chi(-xi.x), computed axis by axis."""
    return DenseFunction(f.q, f.d, transform_rows(f.values[None], f.q, f.d)[0])


def fourier_transform_naive(f: DenseFunction) -> DenseFunction:
    """Direct double sum.  A test and acceptance oracle: the slow path the
    fast transform is checked against."""
    n = f.values.shape[0]
    if n > NAIVE_CAP:
        raise ValueError(f"naive transform capped at {NAIVE_CAP} points")
    coords = domain.coords_matrix(f.q, f.d).astype(np.int64)
    phases = (coords @ coords.T) % f.q
    table = np.exp(-2j * np.pi * np.arange(f.q) / f.q)
    vals = (table[phases] @ f.values) * float(f.q) ** (-f.d)
    return DenseFunction(f.q, f.d, vals)


def inverse_transform(spectrum: DenseFunction) -> DenseFunction:
    """f(x) = sum_xi fhat(xi) chi(xi.x); inverts fourier_transform exactly."""
    return DenseFunction(spectrum.q, spectrum.d,
                         transform_rows(spectrum.values[None], spectrum.q, spectrum.d, inverse=True)[0])


def convolve(f: DenseFunction, g: DenseFunction) -> DenseFunction:
    """f*g(x) = E_y f(y) g(x - y).

    Evaluated as a cyclic convolution through numpy's FFT, which is an
    implementation path independent of the kernel transforms above; the
    convolution theorem then holds as a genuine two-route identity.
    """
    _check_shapes(f, g)
    fg = np.fft.fftn(f.grid()) * np.fft.fftn(g.grid())
    conv = np.fft.ifftn(fg) * float(f.q) ** (-f.d)
    return DenseFunction(f.q, f.d, domain.as_flat(np.ascontiguousarray(conv)))


def plancherel_check(f: DenseFunction, g: DenseFunction) -> float:
    """|E_x f conj(g) - sum_xi fhat conj(ghat)|."""
    _check_shapes(f, g)
    lhs = (f.values * g.values.conj()).mean()
    fh = fourier_transform(f).values
    gh = fourier_transform(g).values
    rhs = (fh * gh.conj()).sum()
    return abs(lhs - rhs)


def chi_values(field: PrimeField, residues: np.ndarray) -> np.ndarray:
    """chi applied entrywise to an integer residue array."""
    table = np.exp(2j * np.pi * np.arange(field.q) / field.q)
    return table[np.asarray(residues, dtype=np.int64) % field.q]
