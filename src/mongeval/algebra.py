"""Division-algebra arithmetic, Hermitian matrices, and their determinants.

Scalars are stored componentwise over a fixed real basis:

* quaternions as ``(..., 4)`` arrays over ``(1, i, j, k)`` with
  ``i^2 = j^2 = k^2 = -1`` and ``ij = k``;
* octonions as ``(..., 8)`` arrays over ``(e0, ..., e7)``, built by
  Cayley-Dickson doubling of the quaternions,

      (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

  which makes ``e0`` the identity, fixes ``e1 e2 = e3``, and embeds the
  quaternions on ``e0..e3``.

Hermitian matrices over the four scalar fields carry real determinant
polynomials: the ordinary determinant for R and C, the Moore determinant
for H, and ``a b - |q|^2`` for 2x2 octonionic matrices.  The Moore
determinant is E. H. Moore's permutation formula, a polynomial with
integer coefficients in the real components: each permutation, written
as cycles that start at their smallest index and come in decreasing
order of it, adds its sign times the real part of the ordered
quaternion product of the entries along its cycles.

Polarizing any of these degree-n polynomials gives the mixed
determinant: a symmetric n-linear form restoring the determinant on the
diagonal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FIELDS",
    "FIELD_COMPONENTS",
    "quat_mul",
    "quat_conj",
    "oct_mul",
    "conj_transpose",
    "HermitianMatrix",
    "det_batch",
    "polarized_det_batch",
]

FIELDS = ("R", "C", "H", "O2")

#: real dimension of a single scalar over each field
FIELD_COMPONENTS = {"R": 1, "C": 2, "H": 4, "O2": 8}


def _whole_number(name, value, minimum):
    """``value`` as an int; ValueError unless it is an int or numpy integer
    of at least ``minimum`` (a bool is not one, nor is 10.0, as in numpy).
    The library's one whole-number rule, here because every module can
    import this one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def _read_only(array):
    """``array`` with writing switched off, for an array that an object or
    a memo shares with every caller; returned, for use in an expression."""
    array.flags.writeable = False
    return array


def _finite_copy(name, value, ndim, dtype=float, error=ValueError):
    """A read-only copy of ``value`` as an array of ``dtype`` with ``ndim``
    axes, whose entries are finite; ``error`` otherwise.  Fewer axes gain
    leading ones (``np.array``'s ``ndmin``): a scalar is a 1-D point, one
    1-D row a one-row matrix.  The one rule by which a value object takes
    a caller's array: the copy keeps the caller's later writes out, and
    read-only keeps one user of a shared object from changing it under
    the others (and under the value store's keys)."""
    array = np.array(value, dtype=dtype, ndmin=ndim)
    if array.ndim != ndim:
        raise error(f"{name} must be at most {ndim}-D, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise error(f"{name} must be finite")
    return _read_only(array)


def _row_sums(x):
    """Sums over the last axis of a float array, with the bits of
    ``np.sum(x, axis=-1)``.

    Below 8 entries numpy adds a row's entries one after another in axis
    order onto +0.0, so a row of -0.0 sums to +0.0; the column adds here
    start from ``x[..., 0] + 0.0`` for that reason and keep the order.  On
    4-wide rows they take 18 us against 116 us for 6,336 rows, and 2.9
    against 2.4 us for one 3-wide row.  From 8 entries numpy sums pairwise
    (a column replica of that is slower than numpy), so wider rows, and
    rows of no entries, call ``np.sum`` itself.
    """
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.sum(x, axis=-1)
    s = x[..., 0] + 0.0
    for k in range(1, d):
        s += x[..., k]
    return s


def _pow2(top):
    """2^round(log2 top), at most 2^1023, or 1.0 for a top of 0 or not
    finite: dividing by it is exact."""
    return 2.0 ** min(round(math.log2(top)), 1023) if 0.0 < top < math.inf else 1.0


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def quat_mul(p, q):
    """Quaternion product, vectorized over leading axes of (..., 4) arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    t1, x1, y1, z1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    t2, x2, y2, z2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
            t1 * x2 + x1 * t2 + y1 * z2 - z1 * y2,
            t1 * y2 - x1 * z2 + y1 * t2 + z1 * x2,
            t1 * z2 + x1 * y2 - y1 * x2 + z1 * t2,
        ],
        axis=-1,
    )


def quat_conj(p):
    """Conjugate: negate every imaginary component.  The same map
    conjugates octonions."""
    p = np.asarray(p, dtype=float)
    out = p.copy()
    out[..., 1:] = -out[..., 1:]
    return out


# ---------------------------------------------------------------------------
# octonions (Cayley-Dickson doubling of the quaternions)
# ---------------------------------------------------------------------------

def oct_mul(p, q):
    """Octonion product of (..., 8) coefficient arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a, b = p[..., :4], p[..., 4:]
    c, d = q[..., :4], q[..., 4:]
    left = quat_mul(a, c) - quat_mul(quat_conj(d), b)
    right = quat_mul(d, a) + quat_mul(b, quat_conj(c))
    return np.concatenate([left, right], axis=-1)


# ---------------------------------------------------------------------------
# Moore determinant
# ---------------------------------------------------------------------------

@functools.cache
def _moore_terms(n):
    """Moore's formula for n x n as read-only index arrays (rows, cols,
    signs): term t is signs[t] times the ordered product of the entries
    (rows[t, k], cols[t, k]), k = 0..n-1.  A permutation (in the order of
    ``itertools.permutations``) is written as its cycles, each from its
    smallest index i through sigma(i), sigma(sigma(i)), ..., with the
    cycles in decreasing order of that index; a fixed point i is the
    factor a_ii.  The sign is (-1)^(n - cycles)."""
    rows, cols, signs = [], [], []
    for sigma in itertools.permutations(range(n)):
        cycles = []
        for start in range(n):
            if all(start not in cycle for cycle in cycles):
                cycle = [start]
                while sigma[cycle[-1]] != start:
                    cycle.append(sigma[cycle[-1]])
                cycles.append(cycle)
        order = [i for cycle in reversed(cycles) for i in cycle]
        rows.append(order)
        cols.append([sigma[i] for i in order])
        signs.append(-1.0 if (n - len(cycles)) % 2 else 1.0)
    return tuple(_read_only(np.array(x)) for x in (rows, cols, signs))


# ---------------------------------------------------------------------------
# Hermitian matrices over a scalar field
# ---------------------------------------------------------------------------

def conj_transpose(field, data):
    """Conjugate transpose over ``field`` of a batch (..., n, n[, comps])."""
    if field == "R":
        return np.swapaxes(data, -2, -1)
    if field == "C":
        return np.conj(np.swapaxes(data, -2, -1))
    return quat_conj(np.swapaxes(data, -3, -2))


def hermitian_deviation(field, data):
    return float(np.abs(data - conj_transpose(field, data)).max())


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square Hermitian matrix over R, C, H, or O2 (the latter 2x2 only).

    Storage: R -> (n, n) float, C -> (n, n) complex, H -> (n, n, 4),
    O2 -> (2, 2, 8) with scalar components on the trailing axis, kept by
    ``_finite_copy``: a finite, read-only copy of the caller's array, of
    size n >= 1.
    """

    field: str
    data: np.ndarray

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        comps = () if self.field in ("R", "C") else (FIELD_COMPONENTS[self.field],)
        # finite before the deviation test, which a NaN passes and where inf - inf warns
        data = _finite_copy(f"a matrix over {self.field}", self.data, 2 + len(comps),
                            complex if self.field == "C" else float)
        if data.shape[0] != data.shape[1] or data.shape[2:] != comps:
            raise ValueError(f"bad shape {data.shape} for field {self.field}")
        if data.shape[0] == 0:  # before the deviation test, whose max has no entry to take
            raise ValueError(f"a matrix over {self.field} needs n >= 1, got shape {data.shape}")
        if self.field == "O2" and data.shape[0] != 2:
            raise ValueError("octonionic Hermitian matrices are supported for size 2 only")
        dev = hermitian_deviation(self.field, data)
        if dev > 1e-8 * (1.0 + float(np.abs(data).max(initial=0.0))):
            raise ValueError(f"matrix is not Hermitian over {self.field} (deviation {dev:.3e})")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        return HermitianMatrix(self.field, self.data + other.data)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self.field, self.data * float(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# mixed determinants by polarization
# ---------------------------------------------------------------------------

def _det_closed(m):
    """Cofactor expansion of det over a (..., n, n) batch with n <= 3."""
    if m.shape[-1] == 1:
        return m[..., 0, 0].copy()
    if m.shape[-1] == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    (a, b, c), (d, e, f), (g, h, k) = (
        (m[..., r, 0], m[..., r, 1], m[..., r, 2]) for r in range(3))
    return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)


def det_batch(field, data):
    """Determinant polynomial over a batch (..., n, n[, comps]) of matrices.

    Real n <= 3 and complex n <= 2 use the closed forms of ``_det_closed``
    (the real part of ``a d - b c`` over C); larger sizes go to LAPACK.
    H is Moore's formula over the terms of ``_moore_terms``: each term's
    factors multiplied left to right by ``quat_mul``, and the signed real
    parts added in the table's order: (n - 1) n! products, no tolerance (at
    n = 1 the entry's real part).  This is the library's one Moore
    determinant; the tests check it against det(realization) = Moore^4
    and against the eigenvalues of the complex embedding.
    """
    if field == "R":
        data = np.asarray(data, dtype=float)
        return _det_closed(data) if data.shape[-1] <= 3 else np.linalg.det(data)
    if field == "C":
        data = np.asarray(data, dtype=complex)
        return (_det_closed(data) if data.shape[-1] <= 2 else np.linalg.det(data)).real
    if field == "H":
        data = np.asarray(data, dtype=float)
        rows, cols, signs = _moore_terms(data.shape[-3])
        product = data[..., rows[:, 0], cols[:, 0], :]
        for r, c in zip(rows.T[1:], cols.T[1:]):
            product = quat_mul(product, data[..., r, c, :])
        terms = signs * product[..., 0]
        return functools.reduce(np.add, np.moveaxis(terms, -1, 0))
    if field == "O2":
        data = np.asarray(data, dtype=float)
        return data[..., 0, 0, 0] * data[..., 1, 1, 0] - np.sum(data[..., 0, 1, :] ** 2, axis=-1)
    raise ValueError(f"unknown field {field!r}")


def polarized_det_batch(field, slots):
    """Polarization of the determinant polynomial on batched slot arrays.

    ``slots`` is a list of n arrays (..., n, n[, c]) whose batch shapes
    broadcast, so a constant (n, n[, c]) slot stands for itself on every
    batch entry.  Uses the inclusion-exclusion form

        pbar(x_1, ..., x_n)
            = (1/n!) sum_{0 != S subset [n]} (-1)^{n - |S|} p(sum_{i in S} x_i):

    one determinant pass per subset, in the order of its bit mask, with
    the argument summed in slot order, and the terms added in that order.
    A term made only of constant slots is one determinant, not one per
    batch entry.  The library's callers pass constant matrices and the
    unit Hessians of a polynomial form's monomials
    (``valuation._polynomial_form``), never one array twice.
    """
    if not slots:
        raise ValueError("need at least one slot")
    n, terms = len(slots), []
    for mask in range(1, 1 << n):
        subset = [x for b, x in enumerate(slots) if mask >> b & 1]
        term = det_batch(field, sum(subset[1:], subset[0]))
        terms.append(-term if (n - len(subset)) % 2 else term)
    return sum(terms[1:], terms[0]) / math.factorial(n)
