import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mongeval import algebra
from mongeval.algebra import (
    HermitianMatrix,
    conj_transpose,
    det_batch,
    oct_mul,
    polarized_det_batch,
    quat_conj,
    quat_mul,
)
from references import (
    DeterminantConsistencyError,
    det,
    identity,
    mixed_det,
    moore_det,
    oct_unit,
    quat_abs2,
    quat_matmul,
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


_SPECIAL_SUMMANDS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0, -3.0, np.inf, -np.inf,
                     np.nan, -np.nan]


def _plain_column_adds(x):
    """The column adds of ``_row_sums`` without the +0.0 start: the
    negative control of its signed-zero rule."""
    s = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        s += x[..., k]
    return s


@pytest.mark.parametrize("d", range(1, 17))
def test_row_sums_have_the_bits_of_numpys_sum(d):
    # below 8 entries numpy adds a row in axis order onto +0.0, as the
    # helper does; from 8 up it sums pairwise and the helper calls np.sum
    rng = np.random.default_rng(40 + d)
    x = rng.standard_normal((20000, d)) * np.exp(rng.uniform(-30.0, 30.0, (20000, d)))
    special = rng.choice(_SPECIAL_SUMMANDS, (5000, d))
    special[:4] = np.array([-0.0, np.inf, -np.inf, np.nan])[:, None]  # all -0.0, all ±inf, all NaN
    for rows in (x, special, x[:, ::-1], x[:0], x[7], special[0], x.reshape(20, 1000, d)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = algebra._row_sums(rows), np.sum(rows, axis=-1)
        assert type(got) is type(ref) and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", range(1, 8))
def test_column_adds_without_the_zero_start_miss_a_row_of_negative_zeros(d):
    rng = np.random.default_rng(60 + d)
    x = rng.standard_normal((500, d))
    assert _plain_column_adds(x).tobytes() == np.sum(x, axis=-1).tobytes()
    zeros = np.full((1, d), -0.0)
    assert algebra._row_sums(zeros).tobytes() == np.sum(zeros, axis=-1).tobytes()
    assert np.signbit(_plain_column_adds(zeros)[0]) and not np.signbit(np.sum(zeros, axis=-1)[0])


def test_quat_abs2_keeps_the_bits_of_numpys_sum():
    rng = np.random.default_rng(7)
    for comps in (4, 8):
        p = rng.standard_normal((3000, comps)) * np.exp(rng.uniform(-20.0, 20.0, (3000, 1)))
        p[0] = -0.0
        for q in (p, p[5], p[0]):
            ref = np.sum(q * q, axis=-1)
            assert quat_abs2(q).tobytes() == ref.tobytes()


def test_octonion_q_times_conj():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.standard_normal(8)
        assert np.abs(oct_mul(q, quat_conj(q)) - quat_abs2(q) * oct_unit(0)).max() <= 1e-12 * max(
            1.0, quat_abs2(q)
        )


# ---------------------------------------------------------------------------
# the eigenvalue route: the reference for Moore's formula
# ---------------------------------------------------------------------------

class PairingError(ArithmeticError):
    """The spectrum of a complex embedding did not split into duplicated
    pairs within tolerance, so the Moore determinant is ambiguous."""


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


def moore_det_batch(data):
    """Moore determinant of (..., n, n, 4) Hermitian arrays by eigenvalues:
    every eigenvalue of the complex embedding appears twice, and the
    product of one per pair (LAPACK's spectrum, pairs by sorted adjacency)
    has the sign that a fourth root of det(realization) cannot see."""
    data = np.asarray(data, dtype=float)
    if data.shape[-3] == 1:
        return data[..., 0, 0, 0].copy()
    norm = np.sqrt(np.sum(data * data, axis=(-3, -2, -1)))
    eigs = np.linalg.eigvalsh(complex_embedding(data))
    return _paired_product(eigs, 1e-7 * np.maximum(1.0, norm)[..., None])


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
        assert moore_det(identity("H", n)) == 1.0


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
    vals = det_batch("H", batch)
    for k in range(20):
        assert abs(vals[k] - jacobi_moore_det(batch[k])) <= 1e-10 * max(1.0, abs(vals[k]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_moore_batch_matches_jacobi_property(n, seed):
    rng = np.random.default_rng(seed)
    batch = np.stack([random_quat_hermitian(rng, n) for _ in range(3)])
    vals = det_batch("H", batch)
    for k in range(3):
        ref = jacobi_moore_det(batch[k])
        assert abs(vals[k] - ref) <= 1e-10 * max(1.0, np.sum(batch[k] ** 2) ** (n / 2))


def test_moore_rejects_non_hermitian():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        moore_det(rng.standard_normal((2, 2, 4)))


def test_moore_raises_when_the_realization_disagrees(monkeypatch):
    # moore_det checks det_batch's value against det(realization) = moore^4
    # with a gap of at most 1e-8 ||A||_F^(4n); the bound max(1, |moore^4|,
    # |det|) it replaces is 1 at 0.01 I, so a 1% error passed there
    batch = algebra.det_batch
    monkeypatch.setattr(algebra, "det_batch", lambda field, data: 1.01 * batch(field, data))
    for n, scale in [(2, 1.0), (2, 0.01), (3, 0.01), (2, 1e40), (3, 1e40)]:
        with pytest.raises(DeterminantConsistencyError, match="exceeds 1e-8"):
            moore_det(identity("H", n) * scale)


@pytest.mark.parametrize("scale", [1e40, 1e-40])
def test_moore_det_of_a_large_or_small_matrix_is_its_value(scale):
    # the check runs on A divided by a power of two near its largest entry.
    # Unscaled, the realization's determinant of 1e40 I overflows (a
    # warning) and moore^4 raises OverflowError; at 1e-40 I the bound
    # underflows to 0 and both sides to subnormals of a few digits
    A = identity("H", 2) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = moore_det(A)
        assert det(A) == value == det_batch("H", A.data[None])[0]
    assert value == scale * scale and value != 0.0


def test_moore_realization_check_passes_at_every_scale():
    # the gap of det(realization) to moore^4 scales as ||A||_F^(4n), as the
    # bound does: random matrices at 1e-3 to 1e3 read at most 3.5e-15 of it,
    # and at 1e-40 and 1e40 the check runs on a power-of-two scaled copy
    rng = np.random.default_rng(19)
    for n in range(1, 5):
        for scale in (1e-40, 1e-3, 1.0, 1e3, 1e40):
            for _ in range(5):
                A = random_quat_hermitian(rng, n, scale)
                assert moore_det(A) == det_batch("H", A[None])[0]


def _reversed_terms(data):
    """Moore's terms with each term's factors multiplied in reverse order,
    not conjugated: the negative control of the formula's gate."""
    rows, cols, signs = algebra._moore_terms(data.shape[-3])
    product = data[..., rows[:, -1], cols[:, -1], :]
    for r, c in zip(rows.T[-2::-1], cols.T[-2::-1]):
        product = quat_mul(product, data[..., r, c, :])
    return (signs * product[..., 0]).sum(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moore_formula_matches_the_eigenvalue_reference(n):
    # within 1e-13 ||A||_F^n of the eigenvalue route on random Hermitian
    # batches (the widest gap reads 5.5e-16 of it), and exactly 1.0 on the
    # identity; the reversed products miss by at least 1e-3 of it at n = 3
    # and 4 (0.21 and 0.038; at n = 2 a term's product and its reverse have
    # one real part)
    rng = np.random.default_rng(30 + n)
    data = np.stack([random_quat_hermitian(rng, n) for _ in range(500)])
    scale = np.sum(data * data, axis=(-3, -2, -1)) ** (n / 2)
    got, ref = det_batch("H", data), moore_det_batch(data)
    assert got.shape == ref.shape == (500,) and got.dtype == np.float64
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    assert det_batch("H", identity("H", n).data[None]).tolist() == [1.0]
    if n >= 3:
        assert np.max(np.abs(_reversed_terms(data) - ref) / scale) >= 1e-3


def test_moore_terms_are_the_cycle_form_of_every_permutation():
    # n! terms of n factors: each row visits every index once, each column
    # set is a permutation, a fixed point is a diagonal factor, and the
    # signs sum to 0 for n >= 2; the table is built once and read-only
    for n in range(1, 5):
        rows, cols, signs = algebra._moore_terms(n)
        assert algebra._moore_terms(n) is algebra._moore_terms(n)
        assert rows.shape == cols.shape == (math.factorial(n), n)
        assert not any(x.flags.writeable for x in (rows, cols, signs))
        assert np.all(np.sort(rows, axis=1) == np.arange(n))
        assert np.all(np.sort(cols, axis=1) == np.arange(n))
        assert len({tuple(c[np.argsort(r)]) for r, c in zip(rows, cols)}) == math.factorial(n)
        assert signs.sum() == (1.0 if n == 1 else 0.0)
    # at n = 3, as factors (row, col) in the order they are multiplied
    rows, cols, signs = algebra._moore_terms(3)
    assert [list(zip(r, c)) for r, c in zip(rows.tolist(), cols.tolist())] == [
        [(2, 2), (1, 1), (0, 0)],  # (0)(1)(2)
        [(1, 2), (2, 1), (0, 0)],  # (0)(1 2)
        [(2, 2), (0, 1), (1, 0)],  # (0 1)(2)
        [(0, 1), (1, 2), (2, 0)],  # (0 1 2)
        [(0, 2), (2, 1), (1, 0)],  # (0 2 1)
        [(1, 1), (0, 2), (2, 0)],  # (0 2)(1)
    ]
    assert signs.tolist() == [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]


# ---------------------------------------------------------------------------
# octonionic 2x2 determinant
# ---------------------------------------------------------------------------

def test_o2_det_examples():
    assert det(identity("O2", 2)) == 1.0
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(2)
    q = rng.standard_normal(8)
    A = np.zeros((2, 2, 8))
    A[0, 0, 0], A[1, 1, 0] = a, b
    A[0, 1], A[1, 0] = q, quat_conj(q)
    assert np.isclose(det(HermitianMatrix("O2", A)), a * b - quat_abs2(q))
    D = np.zeros((2, 2, 8))
    D[0, 0, 0], D[1, 1, 0] = a, b
    assert np.isclose(det(HermitianMatrix("O2", D)), a * b)


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
    with pytest.raises(ValueError):
        HermitianMatrix("H", np.random.default_rng(11).standard_normal((2, 2, 4)))
    m = HermitianMatrix("C", np.array([[1.0, 1j], [-1j, 2.0]]))
    assert m.n == 2
    assert np.isclose(det(m), 2.0 - 1.0)


@pytest.mark.parametrize("field,comps", [("R", ()), ("C", ()), ("H", (4,)), ("O2", (8,))])
def test_an_empty_hermitian_matrix_is_refused_with_a_message(field, comps):
    # n = 0 reached the deviation test, whose max over no entries raised
    # numpy's "zero-size array to reduction operation maximum"
    with pytest.raises(ValueError, match=f"a matrix over {field} needs n >= 1"):
        HermitianMatrix(field, np.zeros((0, 0) + comps))


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
    ref = det(H)
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
    R2 = identity("R", 2)
    with pytest.raises(ValueError):
        mixed_det([])
    with pytest.raises(ValueError):
        mixed_det([R2])
    with pytest.raises(ValueError):
        mixed_det([R2, identity("C", 2)])
    with pytest.raises(ValueError):
        mixed_det([R2, identity("R", 3)])
    with pytest.raises(ValueError):
        mixed_det([identity("R", 3)] * 2)
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
# polarization against the inclusion-exclusion loop written out
# ---------------------------------------------------------------------------

def _polarized_reference(field, slots):
    """Inclusion-exclusion written out: 2^n - 1 determinant passes, one per
    subset."""
    n = len(slots)
    total = 0.0
    for mask in range(1, 2**n):
        acc = sum(slots[i] for i in range(n) if mask >> i & 1)
        sign = -1.0 if (n - bin(mask).count("1")) % 2 else 1.0
        total = total + sign * det_batch(field, acc)
    return total / math.factorial(n)


def _random_slot_batch(field, n, rng, size=6):
    return np.stack([_random_hermitian(field, n, rng).data for _ in range(size)])


POLARIZED_CASES = [(field, n, i) for field, n in MIXED_CASES for i in range(1, n + 1)]


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


@pytest.mark.parametrize("field,n,i", POLARIZED_CASES)
def test_polarization_is_the_inclusion_exclusion_loop(field, n, i, det_calls):
    # i batches of Hessians and n - i constant matrices: one pass per
    # subset, summed in the loop's order, so the bits of the loop
    rng = np.random.default_rng(100 * n + i)
    slots = [_random_slot_batch(field, n, rng) for _ in range(i)]
    slots += [_random_hermitian(field, n, rng).data for _ in range(n - i)]
    ref = _polarized_reference(field, slots)
    del det_calls[:]
    got = polarized_det_batch(field, slots)
    assert len(det_calls) == 2**n - 1
    assert got.shape == ref.shape == (6,)
    assert got.tobytes() == ref.tobytes()


def test_a_repeated_slot_is_one_more_slot(det_calls):
    # the same array in every slot costs every subset, as distinct copies do,
    # and restores the determinant up to roundoff
    rng = np.random.default_rng(18)
    H = _random_slot_batch("R", 3, rng)
    same = polarized_det_batch("R", [H, H, H])
    assert len(det_calls) == 7
    copies = polarized_det_batch("R", [H, H.copy(), H.copy()])
    assert len(det_calls) == 14
    assert same.tobytes() == copies.tobytes()
    assert np.allclose(same, det_batch("R", H), rtol=1e-10, atol=1e-12)


def test_polarized_det_batch_needs_a_slot():
    with pytest.raises(ValueError):
        polarized_det_batch("R", [])
