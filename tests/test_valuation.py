import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from mongeval.algebra import HermitianMatrix
from mongeval.convex import (
    PLConvexFunction,
    Polytope,
    generate_union_convex_pair,
    make_two_ball_body,
    random_shell_polytope,
    slab_intersection,
)
from mongeval.valuation import (
    AtomicMeasure,
    BumpWeight,
    Grid,
    MatrixAtom,
    MatrixBump,
    ValuationSpec,
    body_valuation,
    chunked_apply,
    eval_valuation,
    homogeneous_components,
    hull_volume,
    ma_measure_pl,
    pl_valuation,
)


def unit_cube(dim, lo=0.0, hi=1.0):
    return Polytope(np.array(np.meshgrid(*[[lo, hi]] * dim)).reshape(dim, -1).T)


def quadratic(Q):
    def fn(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, Q, x)
    return fn


# ---------------------------------------------------------------------------
# grid bookkeeping
# ---------------------------------------------------------------------------

def test_grid_cell_accounting():
    grid = Grid(np.array([-1.0, 0.0]), np.array([1.0, 3.0]), (10, 15))
    assert np.isclose(grid.cell_volume * grid.n_cells, 2.0 * 3.0)
    nodes = grid.nodes()
    assert nodes.shape == (150, 2)
    assert np.isclose(nodes[:, 0].min(), -1.0 + 0.1)
    ext = grid.with_margin(3)
    assert np.allclose(ext.spacing, grid.spacing)
    assert ext.shape == (16, 21)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(np.array([0.0]), np.array([0.0]), (4,))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.0]), np.array([1.0, 1.0]), (4,))


# ---------------------------------------------------------------------------
# hull volumes
# ---------------------------------------------------------------------------

def test_hull_volume_closed_forms():
    assert np.isclose(hull_volume(unit_cube(3).vertices), 1.0)
    simplex = np.vstack([np.zeros(4), np.eye(4)])
    assert np.isclose(hull_volume(simplex), 1.0 / math.factorial(4))
    assert hull_volume(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])) == 0.0
    assert np.isclose(hull_volume(np.array([[0.0], [2.0], [1.0]])), 2.0)


def test_hull_volume_matches_qhull_on_random_sets():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        pts = rng.standard_normal((12, dim))
        assert np.isclose(hull_volume(pts), ConvexHull(pts).volume, rtol=1e-10)


# ---------------------------------------------------------------------------
# PL measure
# ---------------------------------------------------------------------------

def test_pl_measure_of_affine_is_zero():
    f = PLConvexFunction(np.array([[1.0, 2.0]]), np.array([0.3]))
    mu = ma_measure_pl(f)
    assert mu.total_mass == 0.0 and len(mu.masses) == 0


def test_pl_measure_of_cube_support():
    f = PLConvexFunction.from_polytope_support(unit_cube(3))
    mu = ma_measure_pl(f)
    assert len(mu.masses) == 1
    assert np.allclose(mu.locations[0], 0.0)
    assert np.isclose(mu.total_mass, 1.0)


def test_pl_measure_of_cross_polytope_support():
    f = PLConvexFunction(np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]))
    mu = ma_measure_pl(f)
    assert len(mu.masses) == 1 and np.isclose(mu.total_mass, 2.0)
    assert np.allclose(mu.locations[0], 0.0)


def test_pl_measure_two_cells():
    f = PLConvexFunction(np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]),
                         np.array([0.0, -1, -1, -3]))
    mu = ma_measure_pl(f)
    order = np.argsort(mu.locations[:, 0])
    assert np.allclose(mu.locations[order], [[1, 1], [2, 2]])
    assert np.allclose(mu.masses[order], [0.5, 0.5])
    assert np.isclose(mu.total_mass, 1.0)


def test_pl_measure_translation_moves_atom():
    # f(x) = h_K(x) + <a, x> shifts every subgradient by a
    K = unit_cube(3, -0.5, 0.5)
    a = np.array([0.25, -0.5, 0.125])
    f = PLConvexFunction.from_polytope_support(K).add_affine(a)
    mu = ma_measure_pl(f)
    assert len(mu.masses) == 1
    assert np.allclose(mu.locations[0], 0.0)  # atom location in x-space stays
    assert np.isclose(mu.total_mass, 1.0)  # gradient hull is only translated


def test_pl_measure_degenerate_gradients():
    f = PLConvexFunction(np.array([[1.0, 0], [2.0, 0], [3.0, 0]]), np.array([0, -1, -3.0]))
    assert ma_measure_pl(f).total_mass == 0.0


def test_pl_measure_dimension_guard():
    f = PLConvexFunction(np.eye(4))
    with pytest.raises(ValueError):
        ma_measure_pl(f)


def test_atomic_measure_invariants():
    mu = AtomicMeasure(np.array([[0.0, 0], [1, 1]]), np.array([0.25, 0.5]))
    assert abs(mu.total_mass - 0.75) <= 1e-12
    assert np.isclose(mu.integrate(lambda x: x[:, 0] + 1.0), 0.25 + 2 * 0.5)
    with pytest.raises(ValueError):
        AtomicMeasure(np.zeros((2, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# quadrature evaluation
# ---------------------------------------------------------------------------

def bump_integral(radius, dim, plateau=0.0):
    # dense radial quadrature of the bump profile (independent oracle)
    r = np.linspace(0, 1, 20001)[1:]
    prof = np.where(
        np.clip((r - plateau) / (1 - plateau) if plateau else r, 0, 1) < 1,
        (1 - np.clip((r - plateau) / (1 - plateau) if plateau else r, 0, 1) ** 2) ** 3,
        0.0,
    )
    surface = 2 * np.pi ** (dim / 2) / math.gamma(dim / 2)
    return float(np.trapezoid(prof * surface * r ** (dim - 1), r) * radius**dim)


def test_quadrature_of_smooth_quadratic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    Q = m @ m.T + 0.5 * np.eye(3)
    weight = BumpWeight(np.zeros(3), 0.45)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 24, 3)
    val = eval_valuation(spec, quadratic(Q), grid)
    ref = np.linalg.det(Q) * bump_integral(0.45, 3)
    assert abs(val - ref) <= 0.02 * abs(ref)


def test_degree_zero_is_constant_in_argument():
    weight = BumpWeight(np.zeros(2), 0.4)
    mats = tuple(
        MatrixBump(HermitianMatrix("R", np.diag(d)), np.zeros(2), 0.4)
        for d in ([1.0, 0.0], [0.0, 1.0])
    )
    spec = ValuationSpec("R", 2, 0, weight, mats)
    grid = Grid.cube(np.zeros(2), 0.5, 40, 2)
    v1 = eval_valuation(spec, quadratic(np.eye(2)), grid)
    v2 = eval_valuation(spec, lambda x: np.abs(np.asarray(x)).sum(axis=-1), grid)
    assert np.isclose(v1, v2)
    # unit-diagonal slot matrices leave B times the two bump profiles;
    # reference by dense trapezoid quadrature
    xs = np.linspace(-0.5, 0.5, 801)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    integrand = weight(mesh) * mats[0].scalar(mesh) * mats[1].scalar(mesh)
    ref = float(integrand.reshape(801, 801).sum() * (xs[1] - xs[0]) ** 2)
    assert abs(v1 - ref) <= 0.02 * abs(ref)


def test_linear_invariance_exact_level():
    rng = np.random.default_rng(5)
    Q = np.eye(3)
    weight = BumpWeight(np.zeros(3), 0.45)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 16, 3)
    base = eval_valuation(spec, quadratic(Q), grid)
    for _ in range(5):
        ell = rng.uniform(-1, 1, 3)
        val = eval_valuation(spec, lambda x: quadratic(Q)(x) + np.asarray(x) @ ell, grid)
        assert abs(val - base) <= 1e-9 * abs(base)


def test_atom_weight_collapses_to_point_evaluation():
    p0 = np.array([0.5, -0.25, 0.3])
    weight = BumpWeight(p0, 0.4, height=2.0)
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), p0)
    spec = ValuationSpec("R", 3, 2, weight, (atom,))
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 3))
    Q = m @ m.T + 0.5 * np.eye(3)
    val = eval_valuation(spec, quadratic(Q), None)
    # slot normalization: weights E_1..E_{n-i} extract the complementary
    # principal minor over binomial(n, i)
    expected = 2.0 * np.linalg.det(Q[1:, 1:]) / math.comb(3, 2)
    assert abs(val - expected) <= 1e-6 * max(1.0, abs(expected))


def test_minor_extraction_identity_via_atoms():
    rng = np.random.default_rng(7)
    for n, i in ((3, 1), (4, 2), (5, 3)):
        m = rng.standard_normal((n, n))
        Q = m @ m.T + 0.5 * np.eye(n)
        p0 = np.full(n, 0.2)
        weights = [MatrixAtom(HermitianMatrix("R", np.diag(np.eye(n)[0])), p0)]
        weights += [
            MatrixBump(HermitianMatrix("R", np.diag(np.eye(n)[l])), p0, 0.5, plateau=0.9)
            for l in range(1, n - i)
        ]
        spec = ValuationSpec("R", n, i, BumpWeight(p0, 0.5, plateau=0.9), tuple(weights))
        val = eval_valuation(spec, quadratic(Q), None)
        expected = np.linalg.det(Q[n - i:, n - i:]) / math.comb(n, i)
        assert abs(val - expected) <= 1e-5 * max(1.0, abs(expected))


def test_two_atoms_rejected():
    p0 = np.zeros(3)
    atom = MatrixAtom(HermitianMatrix("R", np.eye(3)), p0)
    with pytest.raises(ValueError):
        ValuationSpec("R", 3, 1, BumpWeight(p0, 0.4), (atom, atom))


def test_weight_support_outside_box_raises():
    weight = BumpWeight(np.zeros(3), 0.9)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 8, 3)
    with pytest.raises(ValueError):
        eval_valuation(spec, quadratic(np.eye(3)), grid)


def test_disjoint_weight_supports_integrate_to_zero():
    b = BumpWeight(np.array([0.3, 0.0]), 0.1)
    mat = MatrixBump(HermitianMatrix("R", np.eye(2)), np.array([-0.3, 0.0]), 0.1)
    spec = ValuationSpec("R", 2, 1, b, (mat,))
    grid = Grid.cube(np.zeros(2), 0.5, 8, 2)
    assert eval_valuation(spec, quadratic(np.eye(2)), grid) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        ValuationSpec("R", 3, 4, BumpWeight(np.zeros(3), 0.4))
    with pytest.raises(ValueError):
        ValuationSpec("O2", 3, 1, BumpWeight(np.zeros(24), 0.4))
    with pytest.raises(ValueError):
        ValuationSpec("R", 3, 1, BumpWeight(np.zeros(3), 0.4), ())
    with pytest.raises(ValueError):
        ValuationSpec(
            "R", 3, 2, BumpWeight(np.zeros(3), 0.4),
            (MatrixAtom(HermitianMatrix("C", np.eye(2, dtype=complex)), np.zeros(3)),),
        )


# ---------------------------------------------------------------------------
# body valuations
# ---------------------------------------------------------------------------

def test_body_valuation_origin_guard():
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.4))
    grid = Grid.cube(np.zeros(3), 0.5, 8, 3)
    with pytest.raises(ValueError):
        body_valuation(spec, unit_cube(3), grid, sigma_body=0.0)


def test_body_valuation_origin_outside_joint_support():
    # B covers the origin but the matrix bump does not, so the integrand
    # vanishes near 0 and the stencil route applies
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5)
    spec = ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 1.6), (psi,))
    grid = Grid.cube(v0, 0.5, 8, 3)
    value = body_valuation(spec, body, grid, sigma_body=0.0)
    assert value > 0.0
    assert value == eval_valuation(spec, body.support, grid)


def test_body_valuation_rejects_polytope_on_stencil_route():
    # h_K of a cube is kinked on the coordinate planes, which cross the grid
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5)
    spec = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5), (atom, psi))
    with pytest.raises(ValueError):
        body_valuation(spec, unit_cube(3, -0.35, 0.35), sigma_body=0.0)


def test_body_valuation_scaling_homogeneity():
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5, plateau=0.5)
    spec = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5, plateau=0.5), (atom, psi))
    base = body_valuation(spec, body)
    for lam in (2.0, 3.0):
        assert abs(body_valuation(spec, body.scale(lam)) - lam * base) <= 0.01 * abs(base) * lam


def test_parity_split_of_centered_ball():
    from mongeval.convex import ball_body

    ball = ball_body(3, 1.0)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5, plateau=0.5)
    spec = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5, plateau=0.5), (atom, psi))
    plus, minus = body_valuation(spec, ball), body_valuation(spec, ball.negate())
    even, odd = 0.5 * (plus + minus), 0.5 * (plus - minus)
    assert abs(odd) <= 1e-6 * abs(even)


def test_parity_split_two_ball_values():
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5, plateau=0.5)
    spec = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5, plateau=0.5), (atom, psi))
    plus, minus = body_valuation(spec, body), body_valuation(spec, body.negate())
    even, odd = 0.5 * (plus + minus), 0.5 * (plus - minus)
    third = 1.0 / 3.0
    assert abs(even - (third + 2 * third) / 2) <= 1e-2 * third
    assert abs(odd - (third - 2 * third) / 2) <= 1e-2 * third


def test_homogeneous_components_concentrate():
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    spec = ValuationSpec("R", 3, 2, BumpWeight(v0, 0.5, plateau=0.5), (atom,))
    comps = homogeneous_components(lambda K: body_valuation(spec, K), body, 3)
    assert abs(comps[2] - 1.0 / 3.0) <= 1e-2 / 3
    others = np.abs(np.delete(comps, 2))
    assert others.max() <= 1e-3 * abs(comps[2])


def test_homogeneous_components_of_volume():
    rng = np.random.default_rng(8)
    K = random_shell_polytope(rng)
    vol = hull_volume(K.vertices)
    phi = lambda body: ma_measure_pl(PLConvexFunction.from_polytope_support(body)).total_mass
    comps = homogeneous_components(phi, K, 3)
    assert np.isclose(comps[3], vol, rtol=1e-9)
    assert np.abs(comps[:3]).max() <= 1e-9 * vol


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_union_convex_identity_on_random_pl_pairs(seed, axis, a, b):
    # phi(A) + phi(B) = phi(A u B) + phi(A n B) through the exact PL route,
    # for a random shell polytope K = A u B cut by a random slab
    assume(abs(a - b) > 0.05)
    rng = np.random.default_rng(seed)
    K = random_shell_polytope(rng)
    coords = K.vertices[:, axis]
    s, t = coords.min() + np.sort([a, b]) * np.ptp(coords)
    A, B = generate_union_convex_pair(K, s, t, axis)
    AB = slab_intersection(K, s, t, axis)
    weight = BumpWeight(np.zeros(3), 0.45, rng.uniform(0.5, 2.0), plateau=0.7)
    vals = [pl_valuation(weight, PLConvexFunction.from_polytope_support(X))
            for X in (A, B, K, AB)]
    assert abs(vals[2] + vals[3] - vals[0] - vals[1]) <= 1e-9 * max(abs(v) for v in vals)


def test_homogeneous_components_constant():
    comps = homogeneous_components(lambda K: 2.5, unit_cube(3), 3)
    assert np.isclose(comps[0], 2.5)
    assert np.abs(comps[1:]).max() <= 1e-9


# ---------------------------------------------------------------------------
# smoothed route details
# ---------------------------------------------------------------------------

def test_pl_and_quadrature_routes_agree():
    K = unit_cube(3, -0.35, 0.35)
    weight = BumpWeight(np.zeros(3), 0.45, plateau=0.7)
    exact = pl_valuation(weight, PLConvexFunction.from_polytope_support(K))
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 40, 3)
    quad = body_valuation(spec, K, grid, sigma_body=2.0)
    assert abs(quad - exact) <= 0.02 * abs(exact)


def test_restriction_locality():
    # shrinking the box to an aligned sub-box containing the weight support
    # only drops exactly-zero integrand cells
    K = unit_cube(3, -0.35, 0.35)
    weight = BumpWeight(np.zeros(3), 0.2)
    spec = ValuationSpec("R", 3, 3, weight)
    big = Grid.cube(np.zeros(3), 0.5, 40, 3)  # cell 0.025
    small = Grid.cube(np.zeros(3), 0.25, 20, 3)  # same spacing, aligned
    v_big = body_valuation(spec, K, big, sigma_body=2.0)
    v_small = body_valuation(spec, K, small, sigma_body=2.0)
    assert abs(v_big - v_small) <= 1e-12 * max(1.0, abs(v_big))


def test_nonnegativity_for_convex_input():
    rng = np.random.default_rng(9)
    weight = BumpWeight(np.zeros(3), 0.45)
    mat = MatrixBump(HermitianMatrix("R", np.diag([1.0, 0.5, 0.25])), np.zeros(3), 0.45)
    spec = ValuationSpec("R", 3, 2, weight, (mat,))
    grid = Grid.cube(np.zeros(3), 0.5, 12, 3)
    m = rng.standard_normal((3, 3))
    Q = m @ m.T + 0.1 * np.eye(3)
    assert eval_valuation(spec, quadratic(Q), grid) >= -1e-10


def test_threads_bit_identical():
    K = unit_cube(3, -0.35, 0.35)
    weight = BumpWeight(np.zeros(3), 0.45, plateau=0.7)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 32, 3)
    vals = {body_valuation(spec, K, grid, sigma_body=2.0, threads=t) for t in (1, 2, 8)}
    assert len(vals) == 1


def test_chunked_apply_order_independent_of_threads():
    pts = np.arange(300000, dtype=float)[:, None]
    fn = lambda b: np.sin(b[:, 0])
    a = chunked_apply(fn, pts, threads=1, chunk=7777)
    b = chunked_apply(fn, pts, threads=6, chunk=7777)
    assert np.array_equal(a, b)


def test_atom_bump_approximation_converges():
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    spec = ValuationSpec("R", 3, 2, BumpWeight(v0, 0.5, plateau=0.5), (atom,))
    ref = body_valuation(spec, body)
    gaps = []
    for w in (0.3, 0.15, 0.075):
        wide = spec.with_atom_widened(w)
        grid = Grid.cube(v0, w, 12, 3)
        gaps.append(abs(eval_valuation(wide, body.support, grid) - ref) / abs(ref))
    assert gaps[-1] <= 0.01
    assert gaps[0] >= gaps[-1]


def test_widen_requires_atom():
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.4))
    with pytest.raises(ValueError):
        spec.with_atom_widened(0.1)
