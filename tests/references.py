"""Test-side references and helpers that no library caller needs.

The library keeps one route per concept: ``algebra.det_batch`` is its
one Moore determinant, ``algebra.polarized_det_batch`` its one
polarization, and ``assemble_structured(field, fd_hessian_batch(...))``
its one field-Hessian route.  The functions here are what the tests read
besides: the realization of quaternionic matrices and the Moore
determinant checked against it, the one-matrix mixed determinant, the
single-point Hessians, and small constructors (the identity, a
translated body, an affine shift, a report's observed and expected
columns).
"""

import numpy as np

from mongeval import algebra
from mongeval.algebra import FIELD_COMPONENTS, HermitianMatrix, _pow2, _row_sums, quat_mul
from mongeval.convex import PLConvexFunction, Polytope, SmoothProfileBody
from mongeval.hessian import _field_entries, assemble_structured, fd_hessian_batch


# ---------------------------------------------------------------------------
# quaternions and octonions
# ---------------------------------------------------------------------------

def quat_abs2(p):
    """|p|^2 over the last axis, by ``_row_sums``: a quaternion's 4 squares
    added in axis order, an octonion's 8 by ``np.sum``."""
    p = np.asarray(p, dtype=float)
    return _row_sums(p * p)


# e_a e_b = sum_c QTAB[a, b, c] e_c, every pair in one broadcast product
QTAB = quat_mul(np.eye(4)[:, None], np.eye(4)[None])


def quat_matmul(A, B):
    """Matrix product of quaternionic matrices stored as (n, k, 4)/(k, m, 4)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.einsum("ika,kjb,abc->ijc", A, B, QTAB)


def oct_unit(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# the realization and the Moore determinant checked against it
# ---------------------------------------------------------------------------

def realize_quat_matrix(A):
    """Real 4n x 4n matrix of x -> Ax under H^n ~ R^{4n}.

    Coordinates are interleaved per quaternionic entry:
    t_1, x_1, y_1, z_1, t_2, ...  A need not be Hermitian.  Block (a, b)
    is left multiplication by A[a, b], read off the product table.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return np.einsum("abd,dec->acbe", A, QTAB).reshape(4 * n, 4 * n)


class DeterminantConsistencyError(ArithmeticError):
    """det(realization) and moore_det**4 disagree beyond tolerance."""


def moore_det(A):
    """``algebra.det_batch("H", ...)`` of one (n, n, 4) matrix, an array or
    a HermitianMatrix, after a Hermitian check, checked against
    ``det(realization) == moore^4``.

    The check runs on A divided by s = ``_pow2`` of its largest entry, a
    power of two: the gap may be at most 1e-8 ||A / s||_F^(4n), a bound of
    the same degree 4n as both sides, so it reads the same at every scale,
    and neither side leaves the float range (unscaled, ``moore^4`` of 1e40
    I overflows, and at 1e-40 I the bound underflows to 0).  The value
    returned is computed on A itself.  ``det_batch`` is read from the
    module, so a test can patch it.
    """
    if not isinstance(A, HermitianMatrix):
        A = HermitianMatrix("H", A)  # validates the shape and Hermitian symmetry
    if A.field != "H":
        raise ValueError(f"expected a quaternionic matrix, got field {A.field!r}")
    A, n = A.data, A.n
    value = float(algebra.det_batch("H", A[None])[0])
    s = _pow2(float(np.abs(A).max()))
    unit = A / s
    det_real = float(np.linalg.det(realize_quat_matrix(unit)))
    p4 = float(algebra.det_batch("H", unit[None])[0]) ** 4
    scale = float(np.sum(unit * unit)) ** (2 * n)
    if abs(det_real - p4) > 1e-8 * scale:
        raise DeterminantConsistencyError(
            f"on A / s with s = {s:.3e}: det(realization) = "
            f"{det_real:.12e} vs moore^4 = {p4:.12e}: the gap exceeds "
            f"1e-8 ||A / s||_F^(4n) = {1e-8 * scale:.3e}, n = {n}"
        )
    return value


# ---------------------------------------------------------------------------
# Hermitian matrices and their determinants
# ---------------------------------------------------------------------------

def identity(field, n):
    """The n x n identity over ``field`` as a HermitianMatrix."""
    if field in ("R", "C"):
        data = np.eye(n, dtype=complex if field == "C" else float)
    else:
        data = np.zeros((n, n, FIELD_COMPONENTS[field]))
        data[np.arange(n), np.arange(n), 0] = 1.0
    return HermitianMatrix(field, data)


def det(m):
    """The determinant of one HermitianMatrix: ``moore_det`` over H,
    ``algebra.det_batch`` otherwise."""
    if m.field == "H":
        return moore_det(m.data)
    return float(algebra.det_batch(m.field, m.data[None])[0])


def mixed_det(mats):
    """Mixed determinant of n HermitianMatrix objects over one field: the
    symmetric n-linear polarization of the determinant, as a batch of one
    matrix per slot of ``algebra.polarized_det_batch``.  Refuses an empty
    list, a count other than n and mixed fields or sizes."""
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
    return float(algebra.polarized_det_batch(mats[0].field, [m.data[None] for m in mats])[0])


# ---------------------------------------------------------------------------
# bodies and PL functions
# ---------------------------------------------------------------------------

def translate(body, x0):
    """A Polytope or SmoothProfileBody moved by x0."""
    x0 = np.asarray(x0, dtype=float)
    if isinstance(body, Polytope):
        return Polytope(body.vertices + x0)
    return SmoothProfileBody(body.dim, body.profile, body.center + x0)


def add_affine(f, a, c=0.0):
    """The PL function f + <a, x> + c (every piece shifts)."""
    return PLConvexFunction(f.slopes + np.asarray(a, dtype=float), f.offsets + c)


# ---------------------------------------------------------------------------
# single-point Hessians
# ---------------------------------------------------------------------------

def fd_hessian(f, x, step=None):
    """Central-difference Hessian at a single point: ``fd_hessian_batch``
    of the one row."""
    return fd_hessian_batch(f, np.asarray(x, dtype=float)[None, :], step=step)[0]


def structured_hessian(field, f, p, step=None):
    """Field Hessian of a real-valued function at a point, as a
    HermitianMatrix, by the library's field-Hessian route."""
    p = np.asarray(p, dtype=float)
    hreal = fd_hessian_batch(f, p[None, :], step, _field_entries(p.size, FIELD_COMPONENTS[field]))
    return HermitianMatrix(field, assemble_structured(field, hreal[0]))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def observed(report):
    """The observed value of each check of an ExperimentReport."""
    return [c[1] for c in report.checks]


def expected(report):
    """The expected value of each check of an ExperimentReport."""
    return [c[2] for c in report.checks]
