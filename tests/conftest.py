import itertools
import os
import sys
from pathlib import Path

# Allow running from a bare checkout: fall back to src/ and propagate it to
# subprocess-based CLI tests.
try:
    import fqsimplex  # noqa: F401
except ImportError:
    _SRC = str(Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, _SRC)
    os.environ["PYTHONPATH"] = _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

import numpy as np
import pytest

from fqsimplex import domain
from fqsimplex.counting import PointSet
from fqsimplex.field import PrimeField, is_prime
# standard_simplex is re-exported: the test modules import it from here.
from fqsimplex.linalg import Simplex, gram_matrix, matrix_rank, standard_simplex  # noqa: F401

PRIMES_TO_101 = [p for p in range(3, 102, 2) if is_prime(p)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def all_points(q, d):
    return [domain.point_of(i, q, d) for i in range(q ** d)]


def roll_translate(values, q, d, y):
    """Oracle for domain.translate_values: the one row f(. + y) by a cyclic
    np.roll of the Fortran-order grid along every coordinate."""
    grid = np.asarray(values).reshape((q,) * d, order="F")
    return np.roll(grid, tuple(-(c % q) for c in y), axis=tuple(range(d))).reshape(-1, order="F")


def naive_embedding_count(field, A: PointSet, simplex: Simplex) -> int:
    """Quadruple-loop oracle: every tuple (x, y_1..y_k) with independent y's,
    all vertices inside A and the translated tuple Gram-equal to the
    reference.  Deliberately ignorant of the support enumeration.  The
    cheap tests run first: each y_i on its sphere |y_i|^2 = G_ii, then the
    whole Gram matrix, and the rank last; x runs over the points of A."""
    q, d, k = A.q, A.d, simplex.k
    pts = all_points(q, d)
    ref = gram_matrix(field, simplex)
    zero = (0,) * d
    spheres = [[y for y in pts if sum(c * c for c in y) % q == ref[i][i]] for i in range(k)]
    members = [x for x in pts if A.mask[domain.index_of(x, q)]]
    count = 0
    for ys in itertools.product(*spheres):
        if gram_matrix(field, Simplex(q, (zero,) + ys)) != ref:
            continue
        if matrix_rank(field, list(ys)) != k:
            continue
        for x in members:
            if all(A.mask[domain.index_of(tuple((a + b) % q for a, b in zip(x, y)), q)] for y in ys):
                count += 1
    return count


def random_valid_simplex(field, d, k, rng) -> Simplex:
    q = field.q
    while True:
        pts = [tuple(int(rng.integers(q)) for _ in range(d)) for _ in range(k + 1)]
        s = Simplex(q, tuple(pts))
        if matrix_rank(field, list(s.diffs())) == k:
            return s
