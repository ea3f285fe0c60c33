import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mongeval import algebra, hessian, valuation, verify
from mongeval.algebra import FIELD_COMPONENTS, HermitianMatrix, hermitian_deviation
from mongeval.convex import ball_body, make_two_ball_body
from mongeval.hessian import (
    DEFAULT_STEP,
    assemble_structured,
    fd_hessian_batch,
    fd_laplacian_batch,
    grid_hessian,
    grid_hessian_adjoint,
)
from references import QTAB, fd_hessian, oct_unit, structured_hessian


def quadratic(Q):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, Q, x)
    return fn


# ---------------------------------------------------------------------------
# real finite differences
# ---------------------------------------------------------------------------

def test_hessian_of_isotropic_quadratic():
    H = fd_hessian(lambda x: 0.5 * np.sum(x**2, axis=-1), np.array([0.3, -0.7, 0.2]))
    assert np.abs(H - np.eye(3)).max() <= 1e-10


def test_hessian_exact_on_quadratics():
    rng = np.random.default_rng(0)
    for d in (2, 4):
        m = rng.standard_normal((d, d))
        Q = 0.5 * (m + m.T)
        x = rng.standard_normal(d)
        H = fd_hessian(quadratic(Q), x)
        assert np.abs(H - Q).max() <= 1e-9 * max(1.0, np.abs(Q).max())


def test_hessian_of_norm_at_unit_vector():
    v = np.array([1.0, 0.0, 0.0])
    H = fd_hessian(lambda x: np.linalg.norm(x, axis=-1), v)
    assert np.abs(H - (np.eye(3) - np.outer(v, v))).max() <= 1e-4


def test_step_halving_is_second_order():
    c = np.array([0.7, -0.4, 0.2])
    fn = lambda x: np.exp(np.asarray(x) @ c)
    x = np.array([0.1, 0.2, -0.3])
    exact = np.exp(x @ c) * np.outer(c, c)
    err = [np.abs(fd_hessian(fn, x, step=h) - exact).max() for h in (2e-2, 1e-2, 5e-3)]
    ratios = [err[k] / err[k + 1] for k in range(2)]
    assert all(2.5 <= r <= 5.5 for r in ratios)


def test_batch_matches_single():
    rng = np.random.default_rng(1)
    fn = lambda x: np.sum(np.asarray(x) ** 3, axis=-1)
    pts = rng.standard_normal((7, 3))
    batch = fd_hessian_batch(fn, pts)
    for k, p in enumerate(pts):
        assert np.allclose(batch[k], fd_hessian(fn, p))


def test_non_finite_values_raise():
    def fn(x):
        x = np.asarray(x)
        return np.where(np.abs(x[..., 0]) > 0.35, np.nan, np.sum(x**2, axis=-1))
    with pytest.raises(FloatingPointError):
        fd_hessian(fn, np.array([0.35, 0.0]))
    with pytest.raises(FloatingPointError):
        fd_laplacian_batch(fn, np.array([[0.35, 0.0]]))


def test_stencil_formation_on_stacked_functions_has_the_bits_of_one_call_each():
    # one point build, several functions of the same points, one formation
    # with the steps tiled: each function's Hessians have the bits of its
    # own fd_hessian_batch call, on every entry set
    rng = np.random.default_rng(44)
    pts = rng.standard_normal((5, 4))
    fns = [lambda x: np.sum(np.asarray(x) ** 3, axis=-1),
           lambda x: np.linalg.norm(x, axis=-1),
           lambda x: np.exp(0.3 * x[:, 0]) * np.cos(x[:, 1] - x[:, 3])]
    for entries in (None, hessian._field_entries(4, 2), hessian._field_entries(4, 4), [7]):
        x, h, *rows = hessian._stencil_points(pts, 3e-4, entries)
        flat = x.reshape(-1, 4)
        vals = np.concatenate([f(flat).reshape(len(x), -1) for f in fns], axis=1)
        stacked = hessian._stencil_hessians(vals, np.tile(h, len(fns)), 4, *rows)
        for k, f in enumerate(fns):
            one = fd_hessian_batch(f, pts, 3e-4, entries)
            assert stacked[5 * k:5 * k + 5].tobytes() == one.tobytes()
    # negative control: one NaN in one function's column raises
    vals[len(x) // 2, 7] = np.nan
    with pytest.raises(FloatingPointError, match="stencil"):
        hessian._stencil_hessians(vals, np.tile(h, len(fns)), 4, *rows)


def test_laplacian_batch():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((9, 3))
    lap = fd_laplacian_batch(lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1), pts)
    assert np.abs(lap - 3.0).max() <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_laplacian_is_hessian_trace_on_quadratics(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (d, d))
    fn = quadratic(0.5 * (m + m.T))
    pts = rng.uniform(-1.0, 1.0, (5, d))
    trace = np.trace(fd_hessian_batch(fn, pts), axis1=1, axis2=2)
    assert np.abs(fd_laplacian_batch(fn, pts) - trace).max() <= 1e-8


# ---------------------------------------------------------------------------
# the broadcast stencil against the loop route it replaced
# ---------------------------------------------------------------------------

def _read(field, d):
    """The flat entries a d + b, a <= b, that ``field`` reads in dimension d."""
    return hessian._field_entries(d, FIELD_COMPONENTS[field])


def _loop_stencil_points(points, step, m):
    """The stencil points of the loop route, one (N, d) block per offset:
    every pair a < b for m = 1, only pairs in different blocks of m axes
    otherwise, none for m = d."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    if step is None:
        step = DEFAULT_STEP
    h = step * (1.0 + np.linalg.norm(points, axis=1))
    eye = np.eye(d)
    stencil = [points]
    for a in range(d):
        stencil.append(points + h[:, None] * eye[a])
        stencil.append(points - h[:, None] * eye[a])
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d) if a // m != b // m]
    for a, b in pairs:
        ea, eb = eye[a], eye[b]
        stencil.append(points + h[:, None] * (ea + eb))
        stencil.append(points + h[:, None] * (ea - eb))
        stencil.append(points - h[:, None] * (ea - eb))
        stencil.append(points - h[:, None] * (ea + eb))
    return stencil, h, pairs


def _loop_stencil_values(f, points, step, m):
    stencil, h, pairs = _loop_stencil_points(points, step, m)
    vals = np.asarray(f(np.concatenate(stencil, axis=0)), dtype=float).reshape(len(stencil), len(h))
    return vals, h, pairs


def _loop_fd_hessian_batch(f, points, step=None):
    """The all-pairs route: every entry differenced, whatever the field."""
    vals, h, pairs = _loop_stencil_values(f, points, step, 1)
    N, d = len(h), np.shape(points)[-1]
    h2 = h * h
    H = np.empty((N, d, d))
    f0 = vals[0]
    for a in range(d):
        fp, fm = vals[1 + 2 * a], vals[2 + 2 * a]
        H[:, a, a] = (fp - 2.0 * f0 + fm) / h2
    base = 1 + 2 * d
    for k, (a, b) in enumerate(pairs):
        fpp, fpm, fmp, fmm = vals[base + 4 * k: base + 4 * k + 4]
        H[:, a, b] = H[:, b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h2)
    return H


def _loop_fd_laplacian_batch(f, points, step=None):
    vals, h, _ = _loop_stencil_values(f, points, step, np.shape(points)[-1])
    out = np.zeros(len(h))
    for k in range(1, len(vals), 2):
        out += vals[k] + vals[k + 1] - 2.0 * vals[0]
    return out / (h * h)


def _sign_sensitive(d):
    """A smooth f plus a term that reads the sign of zero coordinates."""
    c = np.random.default_rng(d).standard_normal((d, d))
    return lambda x: np.cos(x @ c).sum(axis=-1) + x[..., 0] ** 3 + 1e-3 * np.signbit(x).sum(axis=-1)


def _stencil_centres(d, N):
    pts = np.random.default_rng(10 + d).standard_normal((N, d))
    pts[::3, 0] = -0.0  # a zero coordinate the stencil must keep negative where it subtracts
    pts[1::3, -1] = 0.0
    return pts


@pytest.mark.parametrize("step", [None, 1e-3])
@pytest.mark.parametrize("N", [1, 700])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
def test_broadcast_stencil_matches_the_loop_route_bit_for_bit(d, N, step):
    f, pts = _sign_sensitive(d), _stencil_centres(d, N)
    h = _loop_stencil_points(pts, step, 1)[1]
    assert hessian._stencil_steps(pts, step).tobytes() == h.tobytes()
    assert hessian._stencil_steps(pts[0], step).tobytes() == h[0].tobytes()  # one atom's location
    assert fd_hessian_batch(f, pts, step).tobytes() == _loop_fd_hessian_batch(f, pts, step).tobytes()
    assert fd_laplacian_batch(f, pts, step).tobytes() == _loop_fd_laplacian_batch(f, pts, step).tobytes()


_SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2e-308, 1.5e154, -1e200, 1e308, np.inf, -np.inf,
            np.nan, -np.nan, 1.0, -3.0]


@pytest.mark.parametrize("d", range(1, 17))
def test_row_norms_have_the_bits_of_numpys_norm(d):
    # the norm is the square root of numpy's sum of x * x, which _row_sums
    # keeps at every width
    rng = np.random.default_rng(d)
    x = rng.standard_normal((20000, d)) * np.exp(rng.uniform(-30.0, 30.0, (20000, 1)))
    special = rng.choice(_SPECIAL, (5000, d))
    for rows in (x, special, x[:, ::-1], x[7], special[3], x.reshape(20, 1000, d)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = hessian._row_norms(rows), np.linalg.norm(rows, axis=-1)
        assert type(got) is type(ref) and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("d", [1, 3, 16])
def test_stencil_calls_f_once_in_the_documented_row_order(d, cross):
    # one (K N, d) call, offset-major: the tracer counts fevals from it.
    # The Hessian differences the entries its field reads, the Laplacian
    # the diagonal alone (m = d)
    pts = _stencil_centres(d, 5)
    routes = ([(lambda f, m=m: fd_hessian_batch(f, pts, 1e-3, hessian._field_entries(d, m)), m)
               for F, m in FIELD_COMPONENTS.items() if d % m == 0] if cross else
              [(lambda f: fd_laplacian_batch(f, pts, step=1e-3), d)])
    for route, m in routes:
        calls = []

        def f(x):
            calls.append(np.array(x))
            return np.sum(x * x, axis=-1)

        stencil, _, pairs = _loop_stencil_points(pts, 1e-3, m)
        route(f)
        K = 1 + 2 * d + 4 * len(pairs)
        assert len(calls) == 1 and calls[0].shape == (K * 5, d) and len(stencil) == K
        assert calls[0].tobytes() == np.concatenate(stencil).tobytes()


def _row_independent(d):
    """A smooth f whose row values are one row's arithmetic, whatever the
    batch: elementwise operations and a column sum in a fixed order, no
    BLAS.  Its square of a linear form couples every pair of axes."""
    c = np.random.default_rng(40 + d).standard_normal(d)

    def f(x):
        lin = sum((c[k] * x[:, k] for k in range(d)), 0.0)
        ring = sum((np.sin(x[:, k] * x[:, (k + 1) % d]) for k in range(d)), 0.0)
        return np.cos(lin) + lin * lin + ring + x[:, 0] ** 3

    return f


@pytest.mark.parametrize("step", [None, 1e-3])
@pytest.mark.parametrize("field,n", [("C", 2), ("C", 3), ("H", 1), ("H", 2), ("O2", 2)])
def test_field_stencil_assembles_the_all_pairs_field_hessian_bit_for_bit(field, n, step):
    # the pairs inside a coordinate's block, no longer differenced, fed only
    # imaginary parts that the Hermitian symmetrization cancels
    d = n * FIELD_COMPONENTS[field]
    f, pts = _row_independent(d), _stencil_centres(d, 50)
    H = fd_hessian_batch(f, pts, step, _read(field, d))
    ref = _loop_fd_hessian_batch(f, pts, step)
    block = np.arange(d) // FIELD_COMPONENTS[field]
    unread = (block[:, None] == block) & ~np.eye(d, dtype=bool)
    assert not H[:, unread].any() and ref[:, unread].all()
    assert H[:, ~unread].tobytes() == ref[:, ~unread].tobytes()
    assert assemble_structured(field, H).tobytes() == assemble_structured(field, ref).tobytes()


@pytest.mark.parametrize("field,n,rows", [("R", 3, 19), ("C", 2, 25), ("H", 1, 9), ("O2", 2, 289)])
def test_field_stencil_rows_per_call(field, n, rows):
    # 1 + 2 d + 4 P rows per node, P = C(d, 2) - n C(m, 2) read pairs
    m = FIELD_COMPONENTS[field]
    d = n * m
    assert rows == 1 + 2 * d + 4 * (math.comb(d, 2) - n * math.comb(m, 2))
    shapes = []
    fd_hessian_batch(lambda x: shapes.append(x.shape) or np.sum(x * x, axis=-1),
                     _stencil_centres(d, 3), entries=_read(field, d))
    assert shapes == [(3 * rows, d)]
    structured = []
    structured_hessian(field, lambda x: structured.append(x.shape) or np.sum(x * x, axis=-1),
                       np.full(d, 0.1))
    assert structured == [(rows, d)]


def test_one_dimensional_stencil_has_no_pairs():
    calls = []

    def cube(x):
        calls.append(x.shape)
        return x[..., 0] ** 3

    x = np.array([[0.5], [-1.0], [2.0]])
    H = fd_hessian_batch(cube, x)
    assert calls == [(9, 1)] and H.shape == (3, 1, 1)
    assert np.abs(H[:, 0, 0] - 6.0 * x[:, 0]).max() <= 1e-6
    assert hessian._stencil_offsets(1, (0,))[2].size == 0


def _field_stencil_offsets(d, m):
    """The offset table of a field's (d, m) key before the polynomial form
    named the entries (kept verbatim as the reference): the center, +e_a,
    -e_a for every axis a, then the four cross points of each pair a < b
    in different blocks of m axes, in ``np.triu_indices`` order."""
    a, b = np.triu_indices(d, 1)
    keep = a // m != b // m
    pairs = a[keep], b[keep]
    eye = np.eye(d)
    plus, minus = eye[pairs[0]] + eye[pairs[1]], eye[pairs[0]] - eye[pairs[1]]
    return np.concatenate([
        np.full((1, d), -0.0),
        np.stack([eye, -eye], axis=1).reshape(-1, d),
        np.stack([plus, minus, -minus, -plus], axis=1).reshape(-1, d),
    ])


@pytest.mark.parametrize("field,n", [("R", 1), ("R", 2), ("R", 3), ("R", 5), ("C", 1), ("C", 2),
                                     ("C", 3), ("H", 1), ("H", 2), ("O2", 2)])
def test_a_field_read_set_stencil_is_the_field_key_table_byte_for_byte(field, n):
    # the entries-keyed table of a field's whole read set is the table the
    # field's (d, m) key built, -0.0 center and signed zeros included
    m = FIELD_COMPONENTS[field]
    d = n * m
    offsets, axes, a, b = hessian._stencil_offsets(d, tuple(_read(field, d).tolist()))
    assert offsets.tobytes() == _field_stencil_offsets(d, m).tobytes()
    assert axes.tolist() == list(range(d)) and np.all(a < b) and np.all(a // m != b // m)


def test_stencil_offset_table_is_memoized_and_read_only():
    # one table per (d, entries), whatever int sequence holds the entries:
    # the center, then +-e_a per diagonal entry, then the four cross points
    # per other entry, in entry order
    for d, m, pairs in [(4, 1, 6), (4, 2, 4), (4, 4, 0), (16, 8, 64), (16, 16, 0)]:
        entries = tuple(hessian._field_entries(d, m).tolist())
        offsets, axes, a, b = hessian._stencil_offsets(d, entries)
        assert hessian._stencil_offsets(d, entries)[0] is offsets
        assert hessian._stencil_offsets(d, tuple(np.array(entries)))[0] is offsets
        for key in (hessian._field_entries(d, m), np.array(entries, dtype=np.int32)):
            assert hessian._stencil_offsets(d, key)[0] is offsets  # keyed on intp bytes
        assert offsets.shape == (1 + 2 * d + 4 * pairs, d)
        assert len(a) == pairs and np.all(a < b) and np.all(a // m != b // m)
        for table in (offsets, axes, a, b):
            with pytest.raises(ValueError):
                table[:1] = 1
    offsets, axes, a, b = hessian._stencil_offsets(3, (1, 8))  # (0, 1) and (2, 2)
    assert axes.tolist() == [2] and a.tolist() == [0] and b.tolist() == [1]
    eye = np.eye(3)
    plus, minus = eye[0] + eye[1], eye[0] - eye[1]
    want = [np.full(3, -0.0), eye[2], -eye[2], plus, minus, -minus, -plus]  # -0.0 where negated
    assert offsets.tobytes() == np.array(want).tobytes()
    assert hessian._stencil_offsets(3, ())[0].tobytes() == np.full((1, 3), -0.0).tobytes()
    for bad in ((9,), (-1,), (0, 2, 12)):
        with pytest.raises(ValueError, match="out of bounds"):
            hessian._stencil_offsets(3, bad)


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_bad_stencil_step_raises(step):
    f = lambda x: np.sum(np.asarray(x) ** 2, axis=-1)
    pts = np.array([[0.3, -0.2, 0.1]])
    for route in (fd_hessian_batch, fd_laplacian_batch):
        with pytest.raises(ValueError, match="step"):
            route(f, pts, step=step)
    p0 = pts[0]
    spec = valuation.ValuationSpec(
        "R", 3, 2, valuation.BumpWeight(p0, 0.4),
        (valuation.MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), p0),))
    with pytest.raises(ValueError, match="step"):
        valuation.eval_valuation(spec, f, step=step)


# ---------------------------------------------------------------------------
# homogeneity and convexity side conditions
# ---------------------------------------------------------------------------

def test_radial_kernel_of_one_homogeneous_support():
    body = make_two_ball_body(3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        # small step: the blend's fourth derivative drives the O(h^2) error
        H = fd_hessian(body.support, x, step=1e-4)
        assert np.linalg.norm(H @ x) <= 1e-6


def test_convexity_transfer():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3))
    Q = m @ m.T + 0.1 * np.eye(3)
    pts = rng.standard_normal((20, 3))
    H = fd_hessian_batch(quadratic(Q), pts)
    assert np.min(np.linalg.eigvalsh(H)) >= -1e-6


# ---------------------------------------------------------------------------
# grid stencils
# ---------------------------------------------------------------------------

def _cubic(rng, d):
    """A random cubic polynomial in d variables and its exact Hessian."""
    c1 = rng.standard_normal(d)
    c2 = rng.standard_normal((d, d))
    c2 = 0.5 * (c2 + c2.T)
    c3 = rng.standard_normal((d, d, d))
    c3 = sum(np.transpose(c3, p) for p in itertools.permutations(range(3))) / 6.0

    def value(x):
        return (x @ c1 + 0.5 * np.einsum("...i,ij,...j->...", x, c2, x)
                + np.einsum("...i,...j,...k,ijk->...", x, x, x, c3) / 6.0)

    return value, lambda x: c2 + np.einsum("...k,ijk->...ij", x, c3)


@pytest.mark.parametrize("sigma", [0.5, 1.5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_hessian_exact_on_cubic(d, sigma):
    # moment-exact derivative kernels differentiate cubics exactly: the
    # result is the Hessian at the core nodes, up to rounding
    value, hess = _cubic(np.random.default_rng(5 + d), d)
    kernels = valuation._gaussian_kernels(sigma)
    r = len(kernels[0]) // 2
    axes = [np.linspace(-1.0, 1.0 + 0.1 * a, {1: 40, 2: 24, 3: 17, 4: 14}[d] + a) for a in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    core = mesh[tuple(slice(r, len(ax) - r) for ax in axes)].reshape(-1, d)
    H = grid_hessian(value(mesh), [ax[1] - ax[0] for ax in axes], kernels, _read("R", d),
                     np.arange(len(core)), hessian._entry_major(len(core), d))
    ref = hess(core)
    assert np.max(np.abs(H - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_grid_hessian_margin_validation():
    # each product crops the kernel radius r per side: an axis needs 2 r + 1 samples
    kernels = valuation._gaussian_kernels(1.0)  # r = 4
    out = np.full((1, 2, 2), np.nan)
    every = _read("R", 2)
    assert grid_hessian(np.zeros((9, 9)), [0.1, 0.1], kernels, every, np.arange(1), out) is out
    assert not out.any()
    with pytest.raises(ValueError, match="at least 9 samples per axis"):
        grid_hessian(np.zeros((9, 8)), [0.1, 0.1], kernels, every, np.arange(1), out)


def _grid_hessian_dense(values, spacing, kernels, field="R"):
    """The banded-product route before its products were split into row
    blocks (kept verbatim as the reference): one ``np.tensordot`` with the
    full (n - 2 r) x n band per product, each last-axis product copied
    into (a, b) and (b, a)."""
    values = np.asarray(values, dtype=float)
    d, m = values.ndim, FIELD_COMPONENTS[field]
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    width = len(kernels[0])
    orders = [tuple((c == a) + (c == b) for c in range(d))
              for a in range(d) for b in range(a, d) if a == b or a // m != b // m]
    wanted = {o[:k] for o in orders for k in range(1, d + 1)}
    H = np.zeros((d, d) + tuple(n - width + 1 for n in values.shape))
    partial = {(): values}
    for a, n in enumerate(values.shape):
        rows = np.arange(n - width + 1)[:, None]
        scaled = np.asarray(kernels) / spacing[a] ** np.arange(3.0)[:, None]
        bands = np.zeros((3, len(rows), n))
        bands[:, rows, rows + np.arange(width)] = scaled[:, None, :]
        nxt = {}
        while partial:
            prefix, v = partial.popitem()
            for key in [prefix + (o,) for o in range(3 - sum(prefix)) if prefix + (o,) in wanted]:
                product = np.tensordot(v, bands[key[-1]], axes=(0, 1))
                if a == d - 1:
                    i, j = np.repeat(np.arange(d), key)
                    H[i, j] = product
                    H[j, i] = product
                else:
                    nxt[key] = product
        partial = nxt
    return np.moveaxis(H, (0, 1), (-2, -1))


#: output rows per axis: one row, one block, and every way a split into
#: blocks of at most ``hessian._BLOCK_ROWS`` rows can end
_NOUTS = (1, 2, 3, 4, 5, 7, 8, 9, 44)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("field,d", [("R", 1), ("R", 2), ("C", 2), ("R", 3), ("R", 4),
                                     ("C", 4), ("H", 4)])
def test_grid_hessian_blocks_match_the_dense_band_bit_for_bit(field, d, sigma):
    # the row-blocked products give the full band's bits for every block
    # split on each axis position, and for the products of one vector
    # (every other axis 1 row), which BLAS sends to gemv
    kernels = valuation._gaussian_kernels(sigma)
    r = len(kernels[0]) // 2
    rng = np.random.default_rng(d + int(4 * sigma))
    spacing = 0.1 + 0.01 * np.arange(d)
    shapes = [tuple(_NOUTS[(k + 2 * a) % len(_NOUTS)] for a in range(d)) for k in range(len(_NOUTS))]
    for shape in shapes + [(1,) * (d - 1) + (44,)]:
        values = rng.standard_normal(tuple(s + 2 * r for s in shape))
        ref = _grid_hessian_dense(values, spacing, kernels, field)
        assert ref.shape == shape + (d, d)
        n = math.prod(shape)
        got = grid_hessian(values, spacing, kernels, _read(field, d), np.arange(n),
                           hessian._entry_major(n, d))
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("field,d", [("R", 1), ("R", 2), ("R", 3), ("C", 2), ("C", 4), ("H", 4)])
def test_grid_hessian_cells_and_out_match_the_dense_band_bit_for_bit(field, d):
    # ``cells`` (none, every cell, a random subset) gathers the dense
    # reference's rows at those flat core indices into ``out``: one filled
    # with NaN, entry-major or batch-major, gets the reference's bytes,
    # unread entries 0 included
    kernels = valuation._gaussian_kernels(1.0)
    r = len(kernels[0]) // 2
    rng = np.random.default_rng(30 + d)
    spacing = 0.1 + 0.01 * np.arange(d)
    shapes = [tuple(_NOUTS[(k + 2 * a) % len(_NOUTS)] for a in range(d)) for k in range(len(_NOUTS))]
    for shape in shapes + [(1,) * (d - 1) + (44,)]:
        values = rng.standard_normal(tuple(s + 2 * r for s in shape))
        ref = _grid_hessian_dense(values, spacing, kernels, field).reshape(-1, d, d)
        subset = np.flatnonzero(rng.random(len(ref)) < 0.3)
        for cells in (np.empty(0, int), np.arange(len(ref)), subset):
            for out in (hessian._entry_major(len(cells), d), np.empty((len(cells), d, d))):
                out[...] = np.nan
                assert grid_hessian(values, spacing, kernels, _read(field, d), cells, out) is out
                assert out.tobytes() == ref[cells].tobytes()
        with pytest.raises(ValueError, match="out has shape"):
            grid_hessian(values, spacing, kernels, _read(field, d), np.arange(len(ref)),
                         np.empty((len(ref) + 1, d, d)))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_grid_hessian_rejects_an_out_that_is_not_float64(dtype):
    # only out.shape was checked: an int64 out truncated every Hessian to
    # an integer, a float32 one rounded it to about 3e-8 relative
    values = np.random.default_rng(0).standard_normal((11, 11))
    out = np.zeros((9, 2, 2), dtype)
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}"):
        grid_hessian(values, 0.1, valuation._gaussian_kernels(1.0), _read("R", 2), np.arange(9),
                     out)
    assert not out.any()


@pytest.mark.parametrize("field,d", [("R", 1), ("R", 3), ("C", 4), ("H", 4)])
def test_grid_hessian_adjoint_is_the_transpose_of_every_read_entry(field, d):
    # for random core weights W and samples h, <adjoint_e(W), h> equals
    # <W, plane_e(h)> from grid_hessian for every entry e the field reads;
    # coefficients on the flat entries give the sum of their terms
    kernels = valuation._gaussian_kernels(1.0)
    rng = np.random.default_rng(40 + d)
    core = (5, 3, 4, 6)[:d]
    shape = tuple(c + len(kernels[0]) - 1 for c in core)
    spacing = 0.1 + 0.01 * np.arange(d)
    cells = np.flatnonzero(rng.random(math.prod(core)) < 0.7)
    weights = rng.standard_normal(len(cells))
    values = rng.standard_normal(shape)
    entries = _read(field, d)
    H = grid_hessian(values, spacing, kernels, entries, cells, np.empty((len(cells), d, d)))
    planes = H.reshape(len(cells), -1)[:, entries]

    def check(entries, coefficients, want):
        K = grid_hessian_adjoint(weights, entries, coefficients, spacing, kernels, cells, shape)
        assert K.shape == shape and K.dtype == np.float64
        terms = K * values
        assert abs(terms.sum() - want) <= 1e-13 * np.abs(terms).sum()

    for k, e in enumerate(entries):
        check([e], [1.0], np.sum(weights * planes[:, k]))
    coefficients = rng.standard_normal(len(entries))
    check(entries, coefficients, np.sum(weights * (planes @ coefficients)))
    assert not grid_hessian_adjoint(weights, [], [], spacing, kernels, cells, shape).any()
    with pytest.raises(ValueError, match="at least 9 samples per axis"):
        grid_hessian_adjoint(weights, entries, coefficients, spacing, kernels, cells,
                             shape[:-1] + (8,))


@pytest.mark.parametrize("field,n", [("C", 1), ("C", 2), ("C", 3), ("H", 1), ("H", 2), ("O2", 2)])
def test_unread_entries_cancel_exactly_in_assembly(field, n):
    # zeroing what grid_hessian leaves unread changes no bit of the field
    # Hessian: those entries only feed imaginary parts that the Hermitian
    # symmetrization cancels
    d = n * FIELD_COMPONENTS[field]
    m = np.random.default_rng(d + n).standard_normal((64, d, d))
    hreal = m + np.swapaxes(m, -1, -2)
    block = np.arange(d) // FIELD_COMPONENTS[field]  # entries off the diagonal of a block are unread
    read = np.eye(d, dtype=bool) | (block[:, None] != block[None, :])
    assert (~read).any()
    cut = np.where(read, hreal, 0.0)
    assert assemble_structured(field, cut).tobytes() == assemble_structured(field, hreal).tobytes()


def test_hessian_routes_are_exactly_symmetric():
    # assemble_structured returns R Hessians unsymmetrized: both routes
    # write each off-diagonal value to (a, b) and (b, a)
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        c = rng.standard_normal((d, d))
        H = fd_hessian_batch(lambda x: np.cos(x @ c).sum(axis=-1) + x[..., 0] ** 3,
                             rng.standard_normal((50, d)))
        assert H.tobytes() == np.swapaxes(H, -1, -2).tobytes()
        values = rng.standard_normal((11,) * d)
        for field in ("R", "C") if d % 2 else ("R", "C", "H"):
            if d % FIELD_COMPONENTS[field]:
                continue
            G = grid_hessian(values, 0.1, valuation._gaussian_kernels(1.0), _read(field, d),
                             np.arange(3 ** d), hessian._entry_major(3 ** d, d))
            assert G.tobytes() == np.swapaxes(G, -1, -2).tobytes()
        R = assemble_structured("R", H)
        assert R.tobytes() == H.tobytes()


# ---------------------------------------------------------------------------
# the entry-major layout
# ---------------------------------------------------------------------------

def _planes_are_contiguous(H):
    """Each real entry H[:, i, j] of an (N, d, d) batch is one contiguous plane."""
    d = H.shape[-1]
    return all(H[:, i, j].flags.c_contiguous for i in range(d) for j in range(d))


def _layout_case(field, n, route):
    """Real Hessians (N, d, d) of ``field`` with n x n field matrices from
    ``route``: "atom" is one stencil node, "stencil" 9,000 nodes in
    ``chunked_apply``'s blocks of 8,192 (40 for O2, 289 points each),
    "grid" a random subset of a grid's cells written into a new
    entry-major array and "buffer" the same cells written into the
    thread's "hessians" buffer slot."""
    d = n * FIELD_COMPONENTS[field]
    rng = np.random.default_rng(d + n)
    if route in ("atom", "stencil"):
        c = rng.standard_normal((d, d)) / math.sqrt(d)
        f = lambda x: np.sum(np.cos(x @ c), axis=-1) + np.sum(x * x, axis=-1) ** 1.5
        points = rng.standard_normal((1 if route == "atom" else 40 if field == "O2" else 9000, d))
        return valuation.chunked_apply(lambda b: fd_hessian_batch(f, b, None, _read(field, d)),
                                       points)
    kernels = valuation._gaussian_kernels(1.0)
    core = (20,) * d if d == 3 else (8,) * d
    values = rng.standard_normal(tuple(k + len(kernels[0]) - 1 for k in core))
    cells = np.flatnonzero(rng.random(math.prod(core)) < 0.6)
    out = hessian._entry_major(len(cells), d, None if route == "grid" else "hessians")
    return grid_hessian(values, 0.1, kernels, _read(field, d), cells, out)


_LAYOUT_CASES = [(field, n, route) for field, n in (("R", 3), ("C", 2), ("H", 2), ("O2", 2))
                 for route in ("atom", "stencil")]
_LAYOUT_CASES += [(field, n, route) for field, n in (("R", 3), ("C", 2), ("H", 1))
                  for route in ("grid", "buffer")]  # no O2 grid: it would be 16-D


@pytest.mark.parametrize("field,n,route", _LAYOUT_CASES)
def test_entry_major_hessians_match_the_batch_major_reference_bit_for_bit(field, n, route):
    # both Hessian routes lay each real entry out as a contiguous plane; a
    # batch-major copy of the same values gives the field Hessians and every
    # polarized determinant (i Hessian copies against n - i constant
    # matrices) with the same bytes
    H = _layout_case(field, n, route)
    if route != "atom":
        assert len(H) > 1 and _planes_are_contiguous(H)
    ref = np.ascontiguousarray(H)
    assert ref.strides != H.strides or len(H) == 1
    hf, hf_ref = assemble_structured(field, H), assemble_structured(field, ref)
    assert hf.tobytes() == hf_ref.tobytes()
    rng = np.random.default_rng(7)
    d = H.shape[-1]
    consts = []
    for _ in range(n - 1):
        s = rng.standard_normal((d, d))
        consts.append(assemble_structured(field, s + s.T))
    for degree in range(1, n + 1):
        got = algebra.polarized_det_batch(field, [hf] * degree + consts[:n - degree])
        want = algebra.polarized_det_batch(field, [hf_ref] * degree + consts[:n - degree])
        assert got.tobytes() == want.tobytes()


def test_the_grid_route_hands_grid_hessian_its_entry_major_thread_buffer(monkeypatch):
    # eval_valuation's "hessians" slot is the buffer the Hessians are written
    # into, as planes, and no second array is made on the way
    spec, grid, body, sigma = verify._identity_config("R", np.random.default_rng(0))
    seen = []

    def spy(values, spacing, kernels, entries, cells, out):
        seen.append(out)
        return grid_hessian(values, spacing, kernels, entries, cells, out)

    ref = valuation.body_valuation(spec, body, grid, sigma_cells=sigma)
    monkeypatch.setattr(valuation, "grid_hessian", spy)
    assert valuation.body_valuation(spec, body, grid, sigma_cells=sigma).hex() == ref.hex()
    (out,) = seen
    assert len(out) > 1 and _planes_are_contiguous(out)
    assert np.shares_memory(out, hessian._buffers.hessians)


# ---------------------------------------------------------------------------
# structured Hessians
# ---------------------------------------------------------------------------

def norm_sq(x):
    return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def test_complex_hessian_of_norm_squared():
    H = structured_hessian("C", norm_sq, np.array([0.2, -0.1, 0.4, 0.3]))
    assert np.abs(H.data - np.eye(2)).max() <= 1e-6


def test_quaternionic_hessian_of_norm_squared():
    H = structured_hessian("H", norm_sq, np.array([0.2, -0.1, 0.4, 0.3]))
    expected = np.zeros((1, 1, 4))
    expected[0, 0, 0] = 8.0
    assert np.abs(H.data - expected).max() <= 1e-6


def test_octonionic_hessian_of_norm_squared():
    H = structured_hessian("O2", norm_sq, 0.1 * np.arange(16.0))
    expected = np.zeros((2, 2, 8))
    expected[0, 0, 0] = expected[1, 1, 0] = 16.0
    assert np.abs(H.data - expected).max() <= 1e-6


@pytest.mark.parametrize("field", ["C", "H", "O2"])
def test_structured_hessian_is_hermitian_for_random_smooth(field):
    rng = np.random.default_rng(6)
    d = 4 if field in ("C", "H") else 16
    m = rng.standard_normal((d, d))
    Q = m @ m.T
    c = rng.standard_normal(d)

    def fn(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, Q, x) + np.cos(x @ c)

    H = structured_hessian(field, fn, rng.standard_normal(d) * 0.3)
    assert hermitian_deviation(field, H.data) <= 1e-8


def test_product_tables_keep_the_bits_of_their_loop_form():
    # the tables are built by one broadcast product each; the loops they
    # replaced are the reference, and tobytes counts signed zeros too
    eye4, eye8 = np.eye(4), np.eye(8)
    qtab, coef_h, coef_o = np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), np.zeros((8, 8, 8))
    for a in range(4):
        for b in range(4):
            qtab[a, b] = algebra.quat_mul(eye4[a], eye4[b])
            coef_h[a, b] = algebra.quat_mul(eye4[a], algebra.quat_conj(eye4[b]))
    for i in range(8):
        for j in range(8):
            coef_o[i, j] = algebra.oct_mul(oct_unit(i), algebra.quat_conj(oct_unit(j)))
    for got, want in ((QTAB, qtab), (hessian._COEF_H, coef_h),
                      (hessian._COEF_O, coef_o)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_structured_dimension_validation():
    with pytest.raises(ValueError):
        assemble_structured("H", np.zeros((5, 6, 6)))


def test_assemble_matches_structured_on_batch():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((5, 4)) * 0.2
    hreal = fd_hessian_batch(norm_sq, pts)
    batch = assemble_structured("C", hreal)
    for k in range(5):
        single = structured_hessian("C", norm_sq, pts[k])
        assert np.abs(batch[k] - single.data).max() <= 1e-9


def test_scale_convention_per_field():
    # one real coordinate pair/quad/octet contributes 1, 8, and 16 per unit
    # of |x|^2 under the three conventions
    for field, expected in (("C", 1.0), ("H", 8.0), ("O2", 16.0)):
        d = {"C": 2, "H": 4, "O2": 16}[field]
        n = d // FIELD_COMPONENTS[field]
        H = structured_hessian(field, norm_sq, np.zeros(d))
        if field == "C":
            diag = np.diagonal(H.data).real
        else:
            diag = H.data[np.arange(n), np.arange(n), 0]
        assert np.allclose(diag, expected, atol=1e-8)


def test_ball_support_structured_hessian_cross_check():
    # Hess of |xi| over C^1: entries (f_xx + f_yy)/4 +- i(f_xy - f_yx)/4
    ball = ball_body(2, 1.0)
    p = np.array([0.6, 0.8])
    hreal = fd_hessian(ball.support, p)
    hc = assemble_structured("C", hreal)
    assert np.isclose(hc[0, 0].real, 0.25 * (hreal[0, 0] + hreal[1, 1]), atol=1e-10)
    assert abs(hc[0, 0].imag) <= 1e-10
