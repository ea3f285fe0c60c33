import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mongeval import algebra
from mongeval.algebra import (
    HermitianMatrix,
    complex_embedding,
    conj_transpose,
    det_batch,
    mixed_det,
    moore_det,
    moore_det_batch,
    oct_mul,
    oct_unit,
    polarized_det_batch,
    quat_abs2,
    quat_conj,
    quat_matmul,
    quat_mul,
    realize_quat_matrix,
)

RNG = np.random.default_rng(1234)


def random_quat_hermitian(rng, n, scale=1.0):
    a = scale * rng.standard_normal((n, n, 4))
    return 0.5 * (a + conj_transpose("H", a))


def random_o2_hermitian(rng, scale=1.0):
    data = np.zeros((2, 2, 8))
    data[0, 0, 0] = scale * rng.standard_normal()
    data[1, 1, 0] = scale * rng.standard_normal()
    q = scale * rng.standard_normal(8)
    data[0, 1] = q
    data[1, 0] = quat_conj(q)
    return data


quat_coeffs = st.lists(st.floats(-10, 10), min_size=4, max_size=4)
oct_coeffs = st.lists(st.floats(-10, 10), min_size=8, max_size=8)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def test_quaternion_table():
    e = np.eye(4)
    one, i, j, k = e
    assert np.allclose(quat_mul(i, i), -one)
    assert np.allclose(quat_mul(j, j), -one)
    assert np.allclose(quat_mul(k, k), -one)
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, k), i)
    assert np.allclose(quat_mul(k, i), j)
    assert np.allclose(quat_mul(j, i), -k)


@settings(max_examples=100, deadline=None)
@given(quat_coeffs, quat_coeffs)
def test_quaternion_conj_reverses_products(p, q):
    p, q = np.array(p), np.array(q)
    lhs = quat_conj(quat_mul(p, q))
    rhs = quat_mul(quat_conj(q), quat_conj(p))
    assert np.allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(quat_coeffs, quat_coeffs, quat_coeffs)
def test_quaternion_associativity(p, q, r):
    p, q, r = map(np.array, (p, q, r))
    assert np.allclose(quat_mul(quat_mul(p, q), r), quat_mul(p, quat_mul(q, r)), atol=1e-6)


def test_quaternion_norm():
    q = RNG.standard_normal(4)
    prod = quat_mul(q, quat_conj(q))
    assert np.allclose(prod, quat_abs2(q) * np.eye(4)[0])


# ---------------------------------------------------------------------------
# octonions
# ---------------------------------------------------------------------------

def test_octonion_identity_and_units():
    e0 = oct_unit(0)
    for i in range(8):
        ei = oct_unit(i)
        assert np.allclose(oct_mul(e0, ei), ei)
        assert np.allclose(oct_mul(ei, e0), ei)
    assert np.allclose(oct_mul(oct_unit(1), oct_unit(2)), oct_unit(3))
    assert np.allclose(quat_conj(e0), e0)
    for i in range(1, 8):
        assert np.allclose(quat_conj(oct_unit(i)), -oct_unit(i))


def test_octonion_quaternion_subalgebra():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p4, q4 = rng.standard_normal(4), rng.standard_normal(4)
        p8 = np.concatenate([p4, np.zeros(4)])
        q8 = np.concatenate([q4, np.zeros(4)])
        prod = oct_mul(p8, q8)
        assert np.allclose(prod[:4], quat_mul(p4, q4))
        assert np.allclose(prod[4:], 0)


@settings(max_examples=100, deadline=None)
@given(oct_coeffs, oct_coeffs)
def test_octonion_norm_multiplicativity(p, q):
    p, q = np.array(p), np.array(q)
    assert abs(quat_abs2(oct_mul(p, q)) - quat_abs2(p) * quat_abs2(q)) <= 1e-12 * max(
        1.0, quat_abs2(p) * quat_abs2(q)
    )


def test_octonion_q_times_conj():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.standard_normal(8)
        assert np.abs(oct_mul(q, quat_conj(q)) - quat_abs2(q) * oct_unit(0)).max() <= 1e-12 * max(
            1.0, quat_abs2(q)
        )


# ---------------------------------------------------------------------------
# realization and complex embedding
# ---------------------------------------------------------------------------

def test_realize_identity():
    eye = np.zeros((3, 3, 4))
    eye[np.arange(3), np.arange(3), 0] = 1.0
    assert np.allclose(realize_quat_matrix(eye), np.eye(12))


def test_realize_left_mult_by_i():
    A = np.zeros((1, 1, 4))
    A[0, 0, 1] = 1.0
    R = realize_quat_matrix(A)
    expected = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    assert np.allclose(R, expected)
    assert np.isclose(np.linalg.det(R), 1.0)


def _quat_left_matrix(q):
    """4x4 real matrix of left multiplication by q, written out by hand."""
    t, x, y, z = q
    return np.array([[t, -x, -y, -z], [x, t, -z, y], [y, z, t, -x], [z, -y, x, t]])


def test_realize_matches_hand_written_blocks():
    # the product-table realization against the hand-written block matrix
    rng = np.random.default_rng(15)
    for k in range(200):
        n = 1 + k % 4
        A = rng.standard_normal((n, n, 4))
        ref = np.block([[_quat_left_matrix(A[a, b]) for b in range(n)] for a in range(n)])
        assert np.array_equal(realize_quat_matrix(A), ref)


def test_realize_is_action():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 2, 4))
    x = rng.standard_normal((2, 1, 4))
    lhs = realize_quat_matrix(A) @ x.reshape(-1)
    rhs = quat_matmul(A, x).reshape(-1)
    assert np.allclose(lhs, rhs)


def test_embedding_multiplicative_and_hermitian():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 3, 4))
    Y = rng.standard_normal((3, 3, 4))
    assert np.allclose(
        complex_embedding(quat_matmul(X, Y)), complex_embedding(X) @ complex_embedding(Y)
    )
    H = random_quat_hermitian(rng, 3)
    chi = complex_embedding(H)
    assert np.allclose(chi, chi.conj().T)


# ---------------------------------------------------------------------------
# Jacobi eigenvalues: the independent reference for the Moore determinant
# ---------------------------------------------------------------------------

def jacobi_eigvalsh(H, tol=1e-14, max_sweeps=60):
    """Eigenvalues of a (small, dense) Hermitian matrix by cyclic Jacobi.

    Each rotation is a complex Givens rotation annihilating one
    off-diagonal entry.  Returns eigenvalues in ascending order.
    """
    A = np.array(H, dtype=complex)
    m = A.shape[0]
    if m == 1:
        return A.diagonal().real.copy()
    scale = max(np.abs(A).max(), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                off = max(off, abs(A[p, q]))
        if off <= tol * scale:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                b = A[p, q]
                if abs(b) <= 1e-300:
                    continue
                theta = np.angle(b)
                tau = (A[q, q].real - A[p, p].real) / (2.0 * abs(b))
                # smaller-angle root of t^2 - 2 tau t - 1 = 0
                if tau == 0.0:
                    t = 1.0
                else:
                    t = -np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                U = np.eye(m, dtype=complex)
                U[p, p] = c
                U[q, q] = c
                U[p, q] = -s * np.exp(1j * theta)
                U[q, p] = s * np.exp(-1j * theta)
                A = U.conj().T @ A @ U
    return np.sort(A.diagonal().real)


def jacobi_moore_det(A):
    """Moore determinant from the Jacobi spectrum of the complex embedding:
    the product of one eigenvalue per (sorted, adjacent) duplicated pair."""
    eigs = jacobi_eigvalsh(complex_embedding(A))
    return float(np.prod(eigs.reshape(-1, 2).mean(axis=1)))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_jacobi_matches_lapack(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = a + a.conj().T
    mine = jacobi_eigvalsh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.abs(mine - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


# ---------------------------------------------------------------------------
# Moore determinant
# ---------------------------------------------------------------------------

def test_moore_2x2_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.standard_normal(2)
        q = rng.standard_normal(4)
        A = np.zeros((2, 2, 4))
        A[0, 0, 0], A[1, 1, 0] = a, b
        A[0, 1], A[1, 0] = q, quat_conj(q)
        assert abs(moore_det(A) - (a * b - quat_abs2(q))) <= 1e-10 * max(1.0, abs(a * b))


def test_moore_identity_exact():
    for n in range(1, 5):
        assert moore_det(HermitianMatrix.identity("H", n)) == 1.0


def test_moore_of_embedded_complex_matrix():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = c + c.conj().T
        A = np.zeros((n, n, 4))
        A[..., 0] = c.real
        A[..., 1] = c.imag
        assert abs(moore_det(A) - np.linalg.det(c).real) <= 1e-9 * max(
            1.0, abs(np.linalg.det(c))
        )


def test_moore_negative_eigenvalue_sign():
    A = np.zeros((2, 2, 4))
    A[0, 0, 0], A[1, 1, 0] = 1.0, -1.0
    assert np.isclose(moore_det(A), -1.0)


def test_moore_weak_multiplicativity():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        for _ in range(10):
            A = random_quat_hermitian(rng, n)
            C = rng.standard_normal((n, n, 4))
            CAC = quat_matmul(quat_matmul(conj_transpose("H", C), A), C)
            CC = quat_matmul(conj_transpose("H", C), C)
            lhs = moore_det(CAC)
            rhs = moore_det(A) * moore_det(CC)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_moore_batch_matches_scalar():
    rng = np.random.default_rng(10)
    batch = np.stack([random_quat_hermitian(rng, 3) for _ in range(20)])
    vals = moore_det_batch(batch)
    for k in range(20):
        assert abs(vals[k] - jacobi_moore_det(batch[k])) <= 1e-10 * max(1.0, abs(vals[k]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_moore_batch_matches_jacobi_property(n, seed):
    rng = np.random.default_rng(seed)
    batch = np.stack([random_quat_hermitian(rng, n) for _ in range(3)])
    vals = moore_det_batch(batch)
    for k in range(3):
        ref = jacobi_moore_det(batch[k])
        assert abs(vals[k] - ref) <= 1e-10 * max(1.0, np.sum(batch[k] ** 2) ** (n / 2))


def test_moore_rejects_non_hermitian():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        moore_det(rng.standard_normal((2, 2, 4)))


def test_moore_batch_raises_when_the_spectrum_does_not_pair():
    # the batch route has no Hermitian check: a non-Hermitian matrix's
    # embedding has no duplicated eigenvalue pairs
    data = np.random.default_rng(0).standard_normal((1, 2, 2, 4))
    with pytest.raises(algebra.PairingError, match="do not pair up"):
        algebra.moore_det_batch(data)


def test_moore_raises_when_the_realization_disagrees(monkeypatch):
    # moore_det checks its batch value against det(realization) = moore^4
    batch = algebra.moore_det_batch
    monkeypatch.setattr(algebra, "moore_det_batch", lambda data: 1.01 * batch(data))
    with pytest.raises(algebra.DeterminantConsistencyError, match="relative gap"):
        moore_det(HermitianMatrix.identity("H", 2))


# ---------------------------------------------------------------------------
# octonionic 2x2 determinant
# ---------------------------------------------------------------------------

def test_o2_det_examples():
    assert HermitianMatrix.identity("O2", 2).det() == 1.0
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(2)
    q = rng.standard_normal(8)
    A = np.zeros((2, 2, 8))
    A[0, 0, 0], A[1, 1, 0] = a, b
    A[0, 1], A[1, 0] = q, quat_conj(q)
    assert np.isclose(HermitianMatrix("O2", A).det(), a * b - quat_abs2(q))
    D = np.zeros((2, 2, 8))
    D[0, 0, 0], D[1, 1, 0] = a, b
    assert np.isclose(HermitianMatrix("O2", D).det(), a * b)


# ---------------------------------------------------------------------------
# Hermitian matrices and mixed determinants
# ---------------------------------------------------------------------------

def test_hermitian_matrix_validation():
    with pytest.raises(ValueError):
        HermitianMatrix("R", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix("O2", np.zeros((3, 3, 8)))
    with pytest.raises(ValueError):
        HermitianMatrix("Q", np.eye(2))
    m = HermitianMatrix("C", np.array([[1.0, 1j], [-1j, 2.0]]))
    assert m.n == 2
    assert np.isclose(m.det(), 2.0 - 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["R", "C", "H", "O2"])
def test_hermitian_matrix_rejects_non_finite_entries(field, bad):
    # the check runs before the Hermitian deviation, which a NaN passes
    # (its comparisons are false) and where inf - inf warns; [[1, nan], [5,
    # 1]] over R was accepted
    identity = HermitianMatrix.identity(field, 2).data
    off, diagonal = np.array(identity), np.array(identity)
    off[0, 1], off[1, 0] = bad, 5.0
    diagonal[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in (off, diagonal):
            with pytest.raises(ValueError, match="finite"):
                HermitianMatrix(field, data)


def _random_hermitian(field, n, rng, scale=1.0):
    if field == "R":
        a = scale * rng.standard_normal((n, n))
        return HermitianMatrix("R", 0.5 * (a + a.T))
    if field == "C":
        a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return HermitianMatrix("C", 0.5 * (a + a.conj().T))
    if field == "H":
        return HermitianMatrix("H", random_quat_hermitian(rng, n, scale))
    return HermitianMatrix("O2", random_o2_hermitian(rng, scale))


@pytest.mark.parametrize("field,n", [("R", 3), ("R", 5), ("C", 3), ("H", 2), ("H", 3), ("O2", 2)])
def test_mixed_det_diagonal_restoration(field, n):
    rng = np.random.default_rng(13)
    H = _random_hermitian(field, n, rng)
    val = mixed_det([H] * n)
    ref = H.det()
    assert abs(val - ref) <= 1e-9 * max(1.0, H.norm() ** n)


@pytest.mark.parametrize("field,n", [("R", 3), ("C", 2), ("H", 2), ("O2", 2)])
def test_mixed_det_symmetry(field, n):
    rng = np.random.default_rng(14)
    mats = [_random_hermitian(field, n, rng) for _ in range(n)]
    base = mixed_det(mats)
    for _ in range(4):
        perm = rng.permutation(n)
        val = mixed_det([mats[p] for p in perm])
        assert abs(val - base) <= 1e-12 * max(1.0, abs(base))


MIXED_CASES = [("R", 1), ("R", 2), ("R", 3), ("R", 4), ("C", 2), ("C", 3),
               ("H", 1), ("H", 2), ("H", 3), ("O2", 2)]


def _rounding_scale(mats, n):
    """Bound on every inclusion-exclusion determinant term."""
    return (1.0 + sum(m.norm() for m in mats)) ** n


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(MIXED_CASES), st.integers(0, 2**32 - 1), st.data())
def test_mixed_det_symmetric_under_permutation(case, seed, data):
    field, n = case
    rng = np.random.default_rng(seed)
    mats = [_random_hermitian(field, n, rng) for _ in range(n)]
    perm = data.draw(st.permutations(range(n)))
    base = mixed_det(mats)
    val = mixed_det([mats[p] for p in perm])
    assert abs(val - base) <= 1e-12 * _rounding_scale(mats, n)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(MIXED_CASES), st.integers(0, 2**32 - 1), st.data())
def test_mixed_det_linear_in_one_slot(case, seed, data):
    field, n = case
    rng = np.random.default_rng(seed)
    rest = [_random_hermitian(field, n, rng) for _ in range(n - 1)]
    X, Y = _random_hermitian(field, n, rng), _random_hermitian(field, n, rng)
    a, b = rng.uniform(-2.0, 2.0, 2)
    k = data.draw(st.integers(0, n - 1))

    def at_slot(m):
        return mixed_det(rest[:k] + [m] + rest[k:])

    lhs = at_slot(X * a + Y * b)
    rhs = a * at_slot(X) + b * at_slot(Y)
    assert abs(lhs - rhs) <= 1e-12 * _rounding_scale(rest + [X * a, Y * b], n)


def test_mixed_det_two_diag_example():
    D1 = HermitianMatrix("R", np.diag([1.0, 0.0]))
    D2 = HermitianMatrix("R", np.diag([0.0, 1.0]))
    assert np.isclose(mixed_det([D1, D2]), 0.5)


def test_mixed_det_form_validation():
    R2 = HermitianMatrix.identity("R", 2)
    with pytest.raises(ValueError):
        mixed_det([])
    with pytest.raises(ValueError):
        mixed_det([R2])
    with pytest.raises(ValueError):
        mixed_det([R2, HermitianMatrix.identity("C", 2)])
    with pytest.raises(ValueError):
        mixed_det([R2, HermitianMatrix.identity("R", 3)])
    with pytest.raises(ValueError):
        mixed_det([HermitianMatrix.identity("R", 3)] * 2)
    with pytest.raises(ValueError):
        HermitianMatrix("O2", np.zeros((3, 3, 8)))


def _psd(field, n, rng):
    if field == "R":
        a = rng.standard_normal((n, n))
        return HermitianMatrix("R", a @ a.T)
    if field == "C":
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return HermitianMatrix("C", a @ a.conj().T)
    if field == "H":
        a = rng.standard_normal((n, n, 4))
        return HermitianMatrix("H", quat_matmul(conj_transpose("H", a), a))
    data = np.zeros((2, 2, 8))
    q = rng.standard_normal(8)
    data[0, 0, 0] = rng.uniform(0.1, 2.0)
    norm_q = np.sqrt(quat_abs2(q))
    data[1, 1, 0] = quat_abs2(q) / data[0, 0, 0] + rng.uniform(0.1, 1.0)
    data[0, 1], data[1, 0] = q, quat_conj(q)
    assert data[0, 0, 0] * data[1, 1, 0] >= norm_q**2
    return HermitianMatrix("O2", data)


@pytest.mark.parametrize("field,n", [("R", 3), ("C", 2), ("H", 2), ("O2", 2)])
def test_mixed_det_nonnegative_on_psd(field, n):
    rng = np.random.default_rng(15)
    for _ in range(25):
        mats = [_psd(field, n, rng) for _ in range(n)]
        assert mixed_det(mats) >= -1e-10


def test_polarized_batch_matches_form():
    rng = np.random.default_rng(16)
    mats = [_random_hermitian("R", 3, rng) for _ in range(3)]
    batch = polarized_det_batch("R", [m.data[None] for m in mats])
    assert np.isclose(batch[0], mixed_det(mats))


def test_det_batch_fields():
    rng = np.random.default_rng(17)
    r = _random_hermitian("R", 3, rng)
    assert np.isclose(det_batch("R", r.data[None])[0], np.linalg.det(r.data))
    c = _random_hermitian("C", 3, rng)
    assert np.isclose(det_batch("C", c.data[None])[0], np.linalg.det(c.data).real)
    with pytest.raises(ValueError):
        det_batch("X", r.data[None])


def _rank_deficient_batch(field, n, rng, size):
    """Hessians like those of a 1-homogeneous h: positive semidefinite
    with the radial direction u in the kernel, P M P with P = I - u u*."""
    def draw(shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "C" else z
    u = draw((size, n, 1))
    u /= np.linalg.norm(u, axis=(-2, -1), keepdims=True)
    a = draw((size, n, n))
    proj = np.eye(n) - u @ np.conj(np.swapaxes(u, -2, -1))
    h = proj @ (a @ np.conj(np.swapaxes(a, -2, -1))) @ proj
    return 0.5 * (h + np.conj(np.swapaxes(h, -2, -1)))


# a rank-deficient 1 x 1 Hermitian matrix is 0, so near-singular starts at n = 2
@pytest.mark.parametrize("field,n,near_singular", [
    (field, n, near) for field, n in [("R", 1), ("R", 2), ("R", 3), ("C", 1), ("C", 2)]
    for near in (False, True) if n > 1 or not near])
def test_det_batch_closed_forms_match_lapack(field, n, near_singular):
    rng = np.random.default_rng(20 + 2 * n + (field == "C"))
    if near_singular:
        H = _rank_deficient_batch(field, n, rng, 400)
    else:
        H = _random_slot_batch(field, n, rng, size=400)
    got = det_batch(field, H)
    ref = np.linalg.det(H).real
    # relative to ||H||_F^n, which bounds |det H| and LAPACK's own error
    scale = np.sqrt(np.sum(np.abs(H) ** 2, axis=(-2, -1))) ** n
    assert got.shape == ref.shape and got.dtype == np.float64
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    if near_singular:
        assert np.all(np.abs(ref) <= 1e-13 * scale)


@pytest.mark.parametrize("field,n", [("R", 4), ("C", 3)])
def test_det_batch_uses_lapack_beyond_the_closed_forms(field, n):
    H = _random_slot_batch(field, n, np.random.default_rng(n))
    assert np.array_equal(det_batch(field, H), np.linalg.det(H).real)


# ---------------------------------------------------------------------------
# grouped polarization against the full inclusion-exclusion loop
# ---------------------------------------------------------------------------

def _polarized_reference(field, slots):
    """The ungrouped route: 2^n - 1 determinant passes, one per subset."""
    n = len(slots)
    total = 0.0
    for mask in range(1, 2**n):
        acc = sum(slots[i] for i in range(n) if mask >> i & 1)
        sign = -1.0 if (n - bin(mask).count("1")) % 2 else 1.0
        total = total + sign * det_batch(field, acc)
    return total / math.factorial(n)


def _random_slot_batch(field, n, rng, size=6):
    return np.stack([_random_hermitian(field, n, rng).data for _ in range(size)])


GROUPED_CASES = [(field, n, i) for field, n in MIXED_CASES for i in range(1, n + 1)]


@pytest.fixture
def det_calls(monkeypatch):
    """Count the det_batch passes that polarized_det_batch makes."""
    calls = []
    orig = algebra.det_batch

    def counting(field, data):
        calls.append(field)
        return orig(field, data)

    monkeypatch.setattr(algebra, "det_batch", counting)
    return calls


@pytest.mark.parametrize("field,n,i", GROUPED_CASES)
def test_grouped_polarization_matches_full_loop(field, n, i, det_calls):
    rng = np.random.default_rng(100 * n + i)
    H = _random_slot_batch(field, n, rng)
    others = [_random_slot_batch(field, n, rng) for _ in range(n - i)]
    slots = [H] * i + others
    ref = _polarized_reference(field, slots)
    del det_calls[:]
    got = polarized_det_batch(field, slots)
    m = n - i
    assert len(det_calls) == (1 if m == 0 else (i + 1) * 2**m - 1)
    scale = (1.0 + i * np.sqrt(np.sum(np.abs(H) ** 2))
             + sum(np.sqrt(np.sum(np.abs(x) ** 2)) for x in others)) ** n
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_grouped_polarization_counts_only_the_same_object(det_calls):
    # equal values in distinct arrays are separate slots: full 2^n - 1 passes
    rng = np.random.default_rng(18)
    H = _random_slot_batch("R", 3, rng)
    grouped = polarized_det_batch("R", [H, H, H])
    assert len(det_calls) == 1
    ungrouped = polarized_det_batch("R", [H, H.copy(), H.copy()])
    assert len(det_calls) == 1 + 7
    assert np.array_equal(grouped, det_batch("R", H))
    assert np.allclose(ungrouped, grouped, rtol=1e-10, atol=1e-12)


def test_polarized_det_batch_needs_a_slot():
    with pytest.raises(ValueError):
        polarized_det_batch("R", [])
