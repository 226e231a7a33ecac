"""Gauss sums, completed-square quadratic sums, and twisted Kloosterman sums.

The closed form verified here is

    sum_{x in F_q^d} chi(a|x|^2 + b.x) = G^d eta(a)^d chi(-|b|^2 / 4a),

with G = sum_x chi(x^2) and |G| = sqrt(q).  The twisted sums

    sum_{s != 0} eta(s)^n chi(a s + b / s)

cover the Kloosterman (n even, b != 0), Gauss (n odd, b = 0) and Salie
(n odd, b != 0) cases; for a != 0 all of them obey the Weil bound
|sum| <= 2 sqrt(q), which the audit asserts exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain
from .field import PrimeField, is_prime
from .fourier import chi_values
from .linalg import length_sq, vec_reduce

# Bytes of one block of quadratic_sum_table's chi values; a bound on its
# working memory at any q^d, not a tuning knob (blocks of 0.5 and 32 MB
# ran equally fast at (11,3)).
TABLE_BLOCK_BYTES = 2 ** 19

# The Weil bound |sum| <= WEIL_CONSTANT sqrt(q) that the audit asserts.
WEIL_CONSTANT = 2.0


def gauss_sum(field: PrimeField) -> complex:
    """G = sum_x chi(x^2), by direct summation."""
    q = field.q
    res = (np.arange(q, dtype=np.int64) ** 2) % q
    return complex(chi_values(field, res).sum())


def quadratic_sum_closed_form(field: PrimeField, a: int, b, d: int | None = None,
                              g: complex | None = None) -> complex:
    """The completed-square value G^d eta(a)^d chi(-|b|^2 / 4a); a != 0.
    g, if given, is gauss_sum(field), for callers that evaluate many (a, b)."""
    q = field.q
    a %= q
    if a == 0:
        raise ValueError("the closed form requires a != 0")
    b = vec_reduce(b, q)
    if d is None:
        d = len(b)
    elif d != len(b):
        raise ValueError("d does not match the length of b")
    if g is None:
        g = gauss_sum(field)
    arg = (-length_sq(field, b) * field.inv((4 * a) % q)) % q
    return (g ** d) * (field.eta(a) ** d) * field.chi(arg)


def quadratic_sum_bruteforce(field: PrimeField, a: int, b, d: int | None = None) -> complex:
    """Direct summation of chi(a|x|^2 + b.x) over the whole domain, one
    (a, b) at a time.  A test oracle: quadratic_sum_table is checked
    against it bit for bit."""
    q = field.q
    b = vec_reduce(b, q)
    if d is None:
        d = len(b)
    phases = (a % q) * domain.lengths_vector(q, d).astype(np.int64)
    phases = (phases + domain.coords_matrix(q, d) @ np.asarray(b, dtype=np.int64)) % q
    return complex(chi_values(field, phases).sum())


def quadratic_sum_table(field: PrimeField, d: int) -> np.ndarray:
    """sum_x chi(a|x|^2 + b.x) for every a in F_q^* and b in F_q^d: row
    a - 1, column the flat index of b.

    Built a block of b at a time: the dots x.b mod q of the block are
    computed once and shared by every a, and chi is read from a table of
    2q entries at (a|x|^2 mod q) + x.b, so no reduction mod q runs over the
    block.  Each entry sums the same chi values as quadratic_sum_bruteforce
    along one contiguous row, which numpy sums pairwise as it sums the
    1-D array there, so the two agree bit for bit."""
    q = field.q
    n = domain.domain_size(q, d)
    coords = domain.coords_matrix(q, d).astype(np.int64)
    lengths = domain.lengths_vector(q, d).astype(np.int64)
    chi = chi_values(field, np.arange(2 * q))
    out = np.empty((q - 1, n), dtype=np.complex128)
    rows = max(1, TABLE_BLOCK_BYTES // (chi.itemsize * n))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        dots = (coords[block] @ coords.T) % q
        for a in range(1, q):
            out[a - 1, block] = chi[((a * lengths) % q) + dots].sum(axis=1)
    return out


def twisted_kloosterman(field: PrimeField, n: int, a: int, b: int) -> complex:
    """sum_{s in F_q^*} eta(s)^n chi(a s + b / s), summed directly.

    Only the parity of n matters, and the implementation uses exactly
    n mod 2 so equal-parity twists return bit-identical values.  The Weil
    bound covers a != 0 only; the fully degenerate a = b = 0 even-twist
    case sums to q - 1 and is excluded from the audit.
    """
    q = field.q
    a %= q
    b %= q
    total = 0j
    if n % 2 == 0:
        for s in range(1, q):
            total += field.chi(a * s + b * field.inv(s))
    else:
        for s in range(1, q):
            total += field.eta(s) * field.chi(a * s + b * field.inv(s))
    return total


@dataclass
class WeilAuditRow:
    """Largest normalized twisted sum for one modulus."""

    q: int
    n: int
    a: int
    b: int
    abs_value: float
    ratio_to_sqrt_q: float
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "abs_value": self.abs_value,
            "ratio_to_sqrt_q": self.ratio_to_sqrt_q,
            "pass": self.passed,
        }


def _twisted_tables(field: PrimeField):
    """|sum| for all a in F_q^*, b in F_q, for n = 0 and then n = 1; rows
    a - 1, columns b.  The factors chi(a s) and chi(b / s) are built once
    for both parities; the two products stay separate gemms, so each table
    holds the bits of its own parity's product.  left[a - 1, s - 1] =
    chi(a s) is symmetric, so chi(b / s) for b >= 1 is its row inv(s) - 1,
    the same table entries a second mod-q gather would read."""
    q = field.q
    s = np.arange(1, q, dtype=np.int64)
    inv_s = np.array([field.inv(int(x)) for x in s], dtype=np.int64)
    eta_s = np.array([field.eta(int(x)) for x in s], dtype=np.float64)
    left = chi_values(field, s[:, None] * s[None, :])
    right = np.concatenate([chi_values(field, np.zeros((q - 1, 1), dtype=np.int64)), left[inv_s - 1]], axis=1)
    yield np.abs(left @ right)
    yield np.abs((left * eta_s[None, :]) @ right)


def weil_bound_audit(q_max: int) -> list:
    """For every odd prime q <= q_max and both twist parities, record the
    maximal |sum| / sqrt(q) over a in F_q^*, b in F_q and check it stays
    under WEIL_CONSTANT."""
    if q_max > 500:
        raise ValueError("audit capped at q_max = 500")
    rows = []
    for q in range(3, q_max + 1, 2):
        if not is_prime(q):
            continue
        field = PrimeField(q)
        best = None
        for n, table in enumerate(_twisted_tables(field)):
            flat = int(np.argmax(table))
            a = flat // q + 1
            b = flat % q
            val = float(table[flat // q, flat % q])
            ratio = val / math.sqrt(q)
            if best is None or ratio > best.ratio_to_sqrt_q:
                best = WeilAuditRow(q, n, a, b, val, ratio, ratio <= WEIL_CONSTANT)
        rows.append(best)
    return rows
