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
determinant of an n x n quaternionic Hermitian matrix is recovered from
the spectrum of its 2n x 2n complex embedding, where every eigenvalue
appears exactly twice: the product of one representative per pair has
the right sign (a bare fourth root of the real realization does not),
and is cross-checked against ``det(realization) == moore^4``.

Polarizing any of these degree-n polynomials gives the mixed
determinant: a symmetric n-linear form restoring the determinant on the
diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FIELDS",
    "FIELD_COMPONENTS",
    "PairingError",
    "DeterminantConsistencyError",
    "quat_mul",
    "quat_conj",
    "quat_abs2",
    "quat_matmul",
    "oct_mul",
    "oct_unit",
    "realize_quat_matrix",
    "complex_embedding",
    "moore_det",
    "moore_det_batch",
    "conj_transpose",
    "HermitianMatrix",
    "mixed_det",
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


class PairingError(ArithmeticError):
    """The spectrum of a complex embedding did not split into duplicated
    pairs within tolerance, so the Moore determinant is ambiguous."""


class DeterminantConsistencyError(ArithmeticError):
    """det(realization) and moore_det**4 disagree beyond tolerance."""


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
    conjugates octonions, and ``quat_abs2`` is their squared norm too."""
    p = np.asarray(p, dtype=float)
    out = p.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_abs2(p):
    p = np.asarray(p, dtype=float)
    return np.sum(p * p, axis=-1)


# e_a e_b = sum_c _QTAB[a, b, c] e_c, every pair in one broadcast product
_QTAB = quat_mul(np.eye(4)[:, None], np.eye(4)[None])


def quat_matmul(A, B):
    """Matrix product of quaternionic matrices stored as (n, k, 4)/(k, m, 4)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.einsum("ika,kjb,abc->ijc", A, B, _QTAB)


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


def oct_unit(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# realization and complex embedding of quaternionic matrices
# ---------------------------------------------------------------------------

def realize_quat_matrix(A):
    """Real 4n x 4n matrix of x -> Ax under H^n ~ R^{4n}.

    Coordinates are interleaved per quaternionic entry:
    t_1, x_1, y_1, z_1, t_2, ...  A need not be Hermitian.  Block (a, b)
    is left multiplication by A[a, b], read off the product table.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return np.einsum("abd,dec->acbe", A, _QTAB).reshape(4 * n, 4 * n)


def complex_embedding(A):
    """Complex 2n x 2n matrix of x -> Ax on H^n viewed as a right C-module.

    Writing each entry q = (t + ix) + j (y - iz) = a + j c, the embedding is
    [[A1, -conj(A2)], [A2, conj(A1)]] with A1 = t + ix and A2 = y - iz.
    It is multiplicative, and Hermitian whenever A is quaternionic Hermitian.
    Vectorized over leading axes of (..., n, n, 4) input.
    """
    A = np.asarray(A, dtype=float)
    a1 = A[..., 0] + 1j * A[..., 1]
    a2 = A[..., 2] - 1j * A[..., 3]
    top = np.concatenate([a1, -np.conj(a2)], axis=-1)
    bot = np.concatenate([a2, np.conj(a1)], axis=-1)
    return np.concatenate([top, bot], axis=-2)


# ---------------------------------------------------------------------------
# Moore determinant
# ---------------------------------------------------------------------------

def _paired_product(eigs, pair_tol):
    """Product of one representative per duplicated eigenvalue pair.

    ``eigs`` has even trailing length and is sorted ascending along the
    last axis; pairs are taken by sorted adjacency.
    """
    pairs = eigs.reshape(*eigs.shape[:-1], -1, 2)
    gaps = pairs[..., 1] - pairs[..., 0]
    if np.any(gaps > pair_tol):
        raise PairingError(
            "eigenvalues of the complex embedding do not pair up "
            f"(max gap {float(np.max(gaps)):.3e} > tol {float(np.max(pair_tol)):.3e})"
        )
    return np.prod(pairs.mean(axis=-1), axis=-1)


def moore_det(A):
    """Moore determinant of one quaternionic Hermitian matrix.

    The one-matrix case of ``moore_det_batch``, after a Hermitian check.
    The value is verified against ``det(realization) == moore^4`` at
    relative tolerance 1e-8.
    """
    if not isinstance(A, HermitianMatrix):
        A = HermitianMatrix("H", A)  # validates the shape and Hermitian symmetry
    if A.field != "H":
        raise ValueError(f"expected a quaternionic matrix, got field {A.field!r}")
    A = A.data
    value = float(moore_det_batch(A[None])[0])
    det_real = float(np.linalg.det(realize_quat_matrix(A)))
    p4 = value**4
    rel = abs(det_real - p4) / max(1.0, abs(p4), abs(det_real))
    if rel > 1e-8:
        raise DeterminantConsistencyError(
            f"det(realization) = {det_real:.12e} vs moore^4 = {p4:.12e} "
            f"(relative gap {rel:.3e}), n = {A.shape[0]}"
        )
    return value


def moore_det_batch(data):
    """Vectorized Moore determinant of (..., n, n, 4) Hermitian arrays.

    Product of one representative per duplicated eigenvalue pair of the
    complex embedding (eigenvalues via LAPACK, pairs by sorted
    adjacency), normalized so the identity maps to 1.
    """
    data = np.asarray(data, dtype=float)
    if data.shape[-3] == 1:
        return data[..., 0, 0, 0].copy()
    norm = np.sqrt(np.sum(data * data, axis=(-3, -2, -1)))
    eigs = np.linalg.eigvalsh(complex_embedding(data))
    return _paired_product(eigs, 1e-7 * np.maximum(1.0, norm)[..., None])


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
    O2 -> (2, 2, 8) with scalar components on the trailing axis, in a
    read-only copy of the caller's array, whose entries must be finite.
    """

    field: str
    data: np.ndarray

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        dtype = complex if self.field == "C" else float
        data = _read_only(np.array(self.data, dtype=dtype))
        comps = FIELD_COMPONENTS[self.field]
        if self.field in ("R", "C"):
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError(f"bad shape {data.shape} for field {self.field}")
        else:
            if data.ndim != 3 or data.shape[0] != data.shape[1] or data.shape[2] != comps:
                raise ValueError(f"bad shape {data.shape} for field {self.field}")
        if self.field == "O2" and data.shape[0] != 2:
            raise ValueError("octonionic Hermitian matrices are supported for size 2 only")
        if not np.all(np.isfinite(data)):  # a NaN passes the deviation test; inf - inf warns
            raise ValueError(f"matrix entries must be finite over {self.field}")
        dev = hermitian_deviation(self.field, data)
        if dev > 1e-8 * (1.0 + float(np.abs(data).max(initial=0.0))):
            raise ValueError(f"matrix is not Hermitian over {self.field} (deviation {dev:.3e})")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def det(self) -> float:
        if self.field == "H":
            return moore_det(self.data)
        return float(det_batch(self.field, self.data[None])[0])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        return HermitianMatrix(self.field, self.data + other.data)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(self.field, self.data * float(scalar))

    __rmul__ = __mul__

    @staticmethod
    def identity(field: str, n: int) -> "HermitianMatrix":
        if field in ("R", "C"):
            data = np.eye(n, dtype=complex if field == "C" else float)
        else:
            data = np.zeros((n, n, FIELD_COMPONENTS[field]))
            data[np.arange(n), np.arange(n), 0] = 1.0
        return HermitianMatrix(field, data)


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
    """
    if field == "R":
        data = np.asarray(data, dtype=float)
        return _det_closed(data) if data.shape[-1] <= 3 else np.linalg.det(data)
    if field == "C":
        data = np.asarray(data, dtype=complex)
        return (_det_closed(data) if data.shape[-1] <= 2 else np.linalg.det(data)).real
    if field == "H":
        return moore_det_batch(data)
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
            = (1/n!) sum_{0 != S subset [n]} (-1)^{n - |S|} p(sum_{i in S} x_i).

    Slots that are the same object as ``slots[0]`` (i copies of one
    Hessian, say H) are grouped, and the other m = n - i slots are kept.
    Subsets S that take k of the copies and a subset T of the others share
    the argument k H + sum_T x, so the sum runs over these distinct terms
    with weight binomial(i, k) (-1)^{n - k - |T|}.  That costs
    (i + 1) 2^m - 1 determinant evaluations instead of 2^n - 1, and a single
    one, p(H) itself, when every slot is ``slots[0]`` (m = 0).  A term made
    only of constant slots is one determinant, not one per batch entry.
    """
    if not slots:
        raise ValueError("need at least one slot")
    n = len(slots)
    head = slots[0]
    i = sum(s is head for s in slots)
    others = [s for s in slots if s is not head]
    if not others:
        return det_batch(field, head)
    total = None
    # j = k + (i + 1) * mask: k copies of head, the others selected by mask
    for j in range(1, (i + 1) << len(others)):
        k, mask = j % (i + 1), j // (i + 1)
        acc = None if k == 0 else head if k == 1 else k * head
        for b, x in enumerate(others):
            if mask >> b & 1:
                acc = x if acc is None else acc + x
        sign = -1.0 if (n - k - bin(mask).count("1")) % 2 else 1.0
        term = math.comb(i, k) * sign * det_batch(field, acc)
        total = term if total is None else total + term
    return total / math.factorial(n)


def mixed_det(mats: Sequence[HermitianMatrix]) -> float:
    """Mixed determinant of n Hermitian matrices over a common field.

    This is the symmetric n-linear polarization of the determinant
    polynomial: mixed_det([H] * n) == det(H), and permuting the arguments
    leaves the value unchanged up to roundoff.  Evaluated as a batch of
    one matrix per slot by ``polarized_det_batch``.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    field, n = mats[0].field, mats[0].n
    if len(mats) != n:
        raise ValueError(f"expected {n} matrices, got {len(mats)}")
    for m in mats:
        if m.field != field:
            raise ValueError(f"field mismatch: {m.field} vs {field}")
        if m.n != n:
            raise ValueError(f"size mismatch: {m.n} vs {n}")
    return float(polarized_det_batch(field, [m.data[None] for m in mats])[0])
