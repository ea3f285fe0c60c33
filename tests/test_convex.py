import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from mongeval import convex
from mongeval.convex import (
    GeometryError,
    PLConvexFunction,
    Polytope,
    SmoothProfileBody,
    ball_body,
    ball_slab_support,
    certify_support_convexity,
    generate_union_convex_pair,
    halfspace_clip,
    make_two_ball_body,
    random_shell_polytope,
    unit_directions,
)
from mongeval.hessian import fd_hessian


def unit_cube(dim, lo=0.0, hi=1.0):
    return Polytope(np.array(np.meshgrid(*[[lo, hi]] * dim)).reshape(dim, -1).T)


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------

def test_ball_support_is_norm():
    ball = ball_body(3, 1.0)
    xi = np.random.default_rng(0).standard_normal((50, 3))
    assert np.allclose(ball.support(xi), np.linalg.norm(xi, axis=1))


def test_cube_support_positive_part():
    cube = unit_cube(3)
    xi = np.random.default_rng(1).standard_normal((100, 3))
    assert np.allclose(cube.support(xi), np.sum(np.maximum(xi, 0.0), axis=1))


def test_translation_shifts_support_linearly():
    K = random_shell_polytope(np.random.default_rng(2))
    x0 = np.array([0.3, -0.1, 0.2])
    xi = np.random.default_rng(3).standard_normal((40, 3))
    assert np.allclose(K.translate(x0).support(xi), K.support(xi) + xi @ x0)


def test_interior_points_do_not_change_support():
    cube = unit_cube(2)
    padded = Polytope(np.vstack([cube.vertices, [[0.5, 0.5], [0.2, 0.7]]]))
    xi = unit_directions(2, 64)
    assert np.allclose(cube.support(xi), padded.support(xi))


def test_homogeneity_and_sublinearity():
    rng = np.random.default_rng(4)
    for body in (unit_cube(3), ball_body(3, 1.3), make_two_ball_body(3)):
        xi = rng.standard_normal((30, 3))
        lam = rng.uniform(0.01, 10.0, 30)
        h = body.support(xi)
        assert np.all(np.abs(body.support(lam[:, None] * xi) - lam * h)
                      <= 1e-10 * np.maximum(1.0, np.abs(lam * h)))
        eta = rng.standard_normal((30, 3))
        assert np.all(body.support(xi + eta) <= body.support(xi) + body.support(eta) + 1e-10)


def test_body_ops():
    cube = unit_cube(3)
    xi = unit_directions(3, 128)
    assert np.allclose(cube.scale(2.0).support(xi), 2.0 * cube.support(xi))
    assert np.allclose(cube.negate().support(xi), cube.support(-xi))
    neg = cube.negate()
    assert np.allclose(np.sort(neg.vertices, axis=0), np.sort(-cube.vertices, axis=0))
    with pytest.raises(GeometryError):
        cube.scale(-1.0)
    with pytest.raises(GeometryError):
        ball_body(3).scale(0.0)


def test_support_function_dispatch():
    # a single direction gives a scalar, a batch gives one value per row
    cube = unit_cube(2)
    assert np.isclose(cube.support(np.array([1.0, 1.0])), 2.0)
    assert np.allclose(cube.support(np.array([[1.0, 1.0], [-1.0, 0.5]])), [2.0, 0.5])


# ---------------------------------------------------------------------------
# sampled directions
# ---------------------------------------------------------------------------

def test_hausdorff_monotone_in_sample_density():
    # direction sets are prefixes of each other, so the sampled
    # sup |h_A - h_B| can only grow with the sample count
    A = unit_cube(3)
    B = random_shell_polytope(np.random.default_rng(6))
    d = []
    for m in (8, 64, 512, 4096):
        xi = unit_directions(3, m)
        d.append(np.max(np.abs(A.support(xi) - B.support(xi))))
    assert all(b >= a for a, b in zip(d, d[1:]))


# ---------------------------------------------------------------------------
# the two-ball body
# ---------------------------------------------------------------------------

def test_two_ball_hessians_at_poles():
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0.0, 0.0])
    H = fd_hessian(body.support, v0)
    assert np.abs(H - np.diag([0.0, 1.0, 1.0])).max() <= 1e-4
    Hm = fd_hessian(body.support, -v0)
    assert np.abs(Hm - 2.0 * np.diag([0.0, 1.0, 1.0])).max() <= 1e-4


def test_two_ball_convexity_certificate():
    body = make_two_ball_body(4)
    assert certify_support_convexity(body) >= -1e-6


def test_two_ball_requires_dim_2():
    with pytest.raises(GeometryError):
        make_two_ball_body(1)


def test_two_ball_body_is_built_and_certified_once_per_dimension(monkeypatch):
    calls = []
    certify = convex.certify_support_convexity
    monkeypatch.setattr(convex, "certify_support_convexity",
                        lambda body: calls.append(body.dim) or certify(body))
    convex._two_ball_body.cache_clear()
    bodies = [make_two_ball_body(d) for d in (2, 3, 3, np.int64(2), np.int32(3))]
    assert calls == [2, 3]
    assert bodies[0] is bodies[3] and bodies[1] is bodies[2] is bodies[4]
    assert [type(b.dim) for b in bodies] == [int] * 5
    with pytest.raises(ValueError):  # every caller shares the body, so none may move it
        bodies[1].center[0] = 1.0


def _two_ball_profile_reference(u):
    """The two-ball profile as it was before its plateaus were skipped,
    kept verbatim as the reference."""
    th_lo = float(np.arccos(0.8))
    th_hi = float(np.arccos(-0.8))
    theta = np.arccos(np.clip(u, -1.0, 1.0))
    return 1.0 + convex._smoothstep((theta - th_lo) / (th_hi - th_lo))


def test_two_ball_profile_blends_only_off_its_plateaus():
    # from u = 0.8 up the profile is exactly 1.0 and from -0.8 down exactly
    # 2.0, so the blend runs only between; every value keeps its bits
    edges = [np.nextafter(e, t) for e in (0.8, -0.8) for t in (-1.0, 1.0)]
    u = np.concatenate([np.random.default_rng(0).uniform(-1.0, 1.0, 4000),
                        [1.0, -1.0, 0.8, -0.8, 0.0, -0.0, math.nan], edges,
                        np.linspace(0.79, 0.81, 301), np.linspace(-0.81, -0.79, 301)])
    for d in (2, 3):
        profile = make_two_ball_body(d).profile
        got = profile(u)
        assert got.tobytes() == _two_ball_profile_reference(u).tobytes()
        assert np.all(got[u >= 0.8] == 1.0) and np.all(got[u <= -0.8] == 2.0)
        for one in (0.3, 0.9, -0.9, -0.0):  # one direction: a 0-d value
            assert float(profile(np.float64(one))) == float(_two_ball_profile_reference(one))
    xi = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert make_two_ball_body(3).support(xi).tolist() == [1.0, 2.0, 1.5]


@pytest.mark.parametrize("dim,error", [(2.5, "whole number"), (3.0, "whole number"),
                                       (True, "whole number"), ("3", "whole number"),
                                       (None, "whole number"), (-1, "at least 0"),
                                       (0, "dimension >= 2")])
def test_two_ball_checks_dim_before_its_cache(dim, error):
    # 3.0 == 3 hashes as 3 does: a cache asked first would hand back the 3-D body
    make_two_ball_body(3)
    cached = convex._two_ball_body.cache_info().currsize
    with pytest.raises(ValueError, match=error):
        make_two_ball_body(dim)
    assert convex._two_ball_body.cache_info().currsize == cached


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_ball_radius_is_finite_and_positive(radius):
    # ball_body(3, -1.0) gave h = -|xi|, which is not convex, and ran
    with pytest.raises(ValueError, match="ball radius must be finite and > 0"):
        ball_body(3, radius)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_scale_rejects_a_non_finite_factor(lam):
    # the smooth body's support was NaN everywhere; the polytope raised
    # only through its vertex check
    for body in (make_two_ball_body(3), unit_cube(3)):
        with pytest.raises(GeometryError, match="scale factor must be finite"):
            body.scale(lam)


@pytest.mark.parametrize("count", [0, -1, 2.5, True, "6", None])
def test_unit_directions_count_is_a_whole_number_of_at_least_1(count):
    # -1 returned 5 directions and 0 none, without a word
    with pytest.raises(ValueError, match="count"):
        unit_directions(3, count)


@pytest.mark.parametrize("dim", [0, -2, 2.5, 3.0, False, "3", None])
def test_smooth_body_dim_is_a_whole_number_of_at_least_1(dim):
    # ball_body(0) built and raised IndexError at its first support call;
    # ball_body(2.5) raised TypeError from np.zeros
    with pytest.raises(ValueError, match="dim"):
        ball_body(dim)
    with pytest.raises(ValueError, match="dim"):
        SmoothProfileBody(dim, np.cos, np.zeros(3))
    assert type(SmoothProfileBody(np.int64(3), np.cos).dim) is int


def _support_by_norm(body, xi):
    """``SmoothProfileBody.support`` with |xi| from np.linalg.norm, the
    route ``hessian._row_norms`` replaced."""
    xi = np.asarray(xi, dtype=float)
    r = np.linalg.norm(xi, axis=-1)
    u = np.divide(xi[..., 0], r, out=np.zeros_like(r), where=r > 0)
    return r * body.profile(np.clip(u, -1.0, 1.0)) + xi @ body.center


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_smooth_support_matches_the_norm_route_bit_for_bit(d):
    rng = np.random.default_rng(30 + d)
    two = make_two_ball_body(d)
    bodies = [two, ball_body(d, 1.3), two.negate(), ball_body(d).negate(), two.scale(0.3),
              two.translate(rng.standard_normal(d)), two.negate().scale(2.5).translate(np.ones(d))]
    xi = rng.standard_normal((3000, d)) * rng.uniform(1e-3, 1e3, (3000, 1))
    xi[:3] = 0.0
    xi[1, 0] = -0.0
    xi[2, 0] = -1.0  # a pole
    xi[3:30, 1:] = rng.choice([0.0, -0.0, 5e-324], (27, d - 1))
    # the stencil points around v0 = e_1 that parity-break's bump calls read
    near = np.eye(d)[0] + 0.3 * rng.uniform(-1.0, 1.0, (2000, d))
    for body in bodies:
        for x in (xi, near, xi[5], xi[0], xi.reshape(30, 100, d)):
            got, ref = body.support(x), _support_by_norm(body, x)
            assert type(got) is type(ref) and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# clipping and union-convex pairs
# ---------------------------------------------------------------------------

def test_clip_cube_support_oracle():
    # brute-force oracle: support of the clipped cube via dense point sampling
    cube = unit_cube(3)
    A = halfspace_clip(cube, np.array([1.0, 0, 0]), 0.6)
    rng = np.random.default_rng(7)
    pts = rng.random((4000, 3))
    pts = pts[pts[:, 0] <= 0.6]
    xi = unit_directions(3, 200)
    brute = np.max(xi @ pts.T, axis=1)
    assert np.all(A.support(xi) >= brute - 1e-9)
    assert np.abs(A.support(xi) - brute).max() <= 0.15  # sampling slack


def test_clip_empty_raises():
    with pytest.raises(GeometryError):
        halfspace_clip(unit_cube(3), np.array([1.0, 0, 0]), -0.5)


def test_union_pair_lattice_identities():
    cube = unit_cube(3)
    A, B = generate_union_convex_pair(cube, 0.3, 0.7)
    e = np.eye(3)[0]
    AB = halfspace_clip(halfspace_clip(cube, e, 0.7), -e, -0.3)
    xi = unit_directions(3, 2048)
    assert np.abs(np.maximum(A.support(xi), B.support(xi)) - cube.support(xi)).max() <= 1e-9
    assert np.abs(np.minimum(A.support(xi), B.support(xi)) - AB.support(xi)).max() <= 1e-9


def test_union_pair_min_is_convex_function():
    # midpoint convexity of min(h_A, h_B) on random pairs in a box
    cube = unit_cube(3)
    A, B = generate_union_convex_pair(cube, 0.3, 0.7)
    fa = PLConvexFunction.from_polytope_support(A)
    fb = PLConvexFunction.from_polytope_support(B)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-2.0, 2.0, (2, 10000, 3))

    def fmin(z):
        return np.minimum(fa(z), fb(z))

    assert np.max(fmin(0.5 * (x + y)) - 0.5 * (fmin(x) + fmin(y))) <= 1e-8


def test_degenerate_slab_returns_whole_body():
    cube = unit_cube(3)
    A, B = generate_union_convex_pair(cube, -5.0, 5.0)
    xi = unit_directions(3, 256)
    assert np.allclose(A.support(xi), cube.support(xi))
    assert np.allclose(B.support(xi), cube.support(xi))


def test_union_pair_validation():
    with pytest.raises(GeometryError):
        generate_union_convex_pair(unit_cube(3), 0.7, 0.3)


def test_clip_exact_in_dim4():
    cube = unit_cube(4, -0.5, 0.5)
    A = halfspace_clip(cube, np.eye(4)[1], 0.2)
    xi = unit_directions(4, 512)
    # oracle: support of {x in cube: x_1 <= 0.2} splits coordinatewise
    brute = 0.5 * np.sum(np.abs(xi[:, [0, 2, 3]]), axis=1) + np.maximum(
        0.2 * xi[:, 1], -0.5 * xi[:, 1]
    )
    assert np.abs(A.support(xi) - brute).max() <= 1e-9


def _clip_points_unpruned(P, normal, offset):
    """The unpruned clip: inside vertices plus every inside-outside crossing."""
    d = P.vertices @ normal - offset
    inside = d <= 1e-12 * (1.0 + np.abs(d).max())
    vi, di = P.vertices[inside], d[inside]
    vo, do = P.vertices[~inside], d[~inside]
    lam = di[:, None] / (di[:, None] - do[None, :])
    cross = vi[:, None, :] + lam[..., None] * (vo[None, :, :] - vi[:, None, :])
    return np.unique(np.round(np.vstack([vi, cross.reshape(-1, P.dim)]), 12), axis=0)


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (3, 2), (4, 3), (4, 4)])
def test_clip_keeps_hull_vertices_only(dim, seed):
    rng = np.random.default_rng(seed)
    K = random_shell_polytope(rng, dim=dim, n_vertices=10, min_sep=0.3)
    normal = rng.standard_normal(dim)
    offset = 0.2 * np.median(K.vertices @ normal)
    pruned = halfspace_clip(K, normal, offset)
    points = _clip_points_unpruned(K, normal, offset)
    assert len(ConvexHull(pruned.vertices).vertices) == len(pruned.vertices)
    assert len(pruned.vertices) <= len(points)
    xi = unit_directions(dim, 512)
    ref = np.max(xi @ points.T, axis=1)
    assert np.max(np.abs(pruned.support(xi) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_clip_of_4d_cube_slab_is_16_vertices():
    cube4 = unit_cube(4, -0.35, 0.35)
    e = np.eye(4)[0]
    AB = halfspace_clip(halfspace_clip(cube4, e, 0.08), -e, 0.08)
    assert AB.vertices.shape == (16, 4)
    assert np.allclose(np.sort(np.abs(AB.vertices[:, 0])), 0.08)
    upper = _clip_points_unpruned(cube4, np.eye(4)[0], 0.08)
    assert len(_clip_points_unpruned(Polytope(upper), -np.eye(4)[0], 0.08)) == 576


def test_clip_of_flat_polygon_keeps_its_points():
    # a square in the plane z = 0 of R^3: qhull refuses the flat set
    square = Polytope(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float))
    A = halfspace_clip(square, np.array([1.0, 0, 0]), 0.5)
    points = _clip_points_unpruned(square, np.array([1.0, 0, 0]), 0.5)
    assert np.array_equal(A.vertices, points)  # 5 points: the centre stays


@pytest.mark.parametrize("n_vertices", [1, 2, 10, 40])
def test_vertex_loop_support_matches_matmul_max(n_vertices):
    rng = np.random.default_rng(n_vertices)
    P = Polytope(rng.standard_normal((n_vertices, 4)))
    for shape in ((257, 4), (3, 5, 4), (0, 4)):
        xi = rng.standard_normal(shape)
        ref = np.max(xi @ P.vertices.T, axis=-1, initial=-np.inf)
        got = P.support(xi)
        assert got.shape == shape[:-1]
        assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)
    one = rng.standard_normal(4)
    got = P.support(one)
    assert np.ndim(got) == 0 and isinstance(got, np.floating)
    assert np.isclose(got, np.max(P.vertices @ one), rtol=1e-14, atol=1e-15)


def _support_grid_body(case):
    """The polytopes the tensor-grid support is checked on, by name."""
    rng = np.random.default_rng(len(case))
    if case == "one-vertex":
        return Polytope(np.array([[0.3, -0.2, 0.1]]))
    if case == "segment-1d":
        return Polytope(np.array([[-0.2], [0.35]]))
    dim = 3 if case.endswith("3") else 4
    P = random_shell_polytope(rng, dim=dim, n_vertices=10, min_sep=0.6)
    if not case.startswith("clipped"):
        return P
    e = np.eye(dim)[1]
    return halfspace_clip(halfspace_clip(P, e, 0.12), -e, 0.08)


SUPPORT_GRID_CASES = ["shell3", "shell4", "clipped3", "clipped4", "one-vertex", "segment-1d"]


@pytest.mark.parametrize("case", SUPPORT_GRID_CASES)
def test_support_grid_matches_support_on_nodes(case):
    P = _support_grid_body(case)
    d = P.dim
    rng = np.random.default_rng(3)
    res = {1: 40, 3: 13, 4: 7}[d]
    axes = [np.sort(rng.uniform(-0.8, 0.8, res + a)) for a in range(d)]
    for rows in (slice(None), slice(2, 5), np.array([0, 3, 4])):
        sub = [axes[0][rows], *axes[1:]]
        got = P.support_grid(sub)
        mesh = np.meshgrid(*sub, indexing="ij")
        nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        assert got.shape == mesh[0].shape
        ref = P.support(nodes).reshape(got.shape)
        # a few ulp of the largest sum |v_a x_a| over the vertices
        scale = np.max(np.abs(nodes) @ np.abs(P.vertices).T, axis=-1).reshape(got.shape)
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)


def _support_grid_by_rows(P, axes):
    """``Polytope.support_grid`` before it folded blocks of leading rows
    (kept verbatim as the reference): one add and one ``np.maximum`` per
    leading row and vertex."""
    x0 = np.asarray(axes[0], dtype=float)
    tail = [np.asarray(a, dtype=float) for a in axes[1:]]
    part = np.empty(tuple(len(a) for a in tail))
    buf = np.empty_like(part)
    h = None
    for v in P.vertices:
        part[...] = 0.0
        for k, (w, a) in enumerate(zip(v[1:], tail)):
            part += (w * a).reshape((-1,) + (1,) * (len(tail) - k - 1))
        if h is None:
            h = np.add.outer(v[0] * x0, part)
            continue
        for r, c in enumerate(v[0] * x0):
            row = h[r, ...]
            np.add(part, c, out=buf)
            np.maximum(row, buf, out=row)
    return h


@pytest.mark.parametrize("lead", [1, 7, 9, 20, 60])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_support_grid_blocks_match_the_row_route_bit_for_bit(dim, lead):
    rng = np.random.default_rng(10 * dim + lead)
    axes = [np.sort(rng.uniform(-0.8, 0.8, lead))] + [
        np.sort(rng.uniform(-0.8, 0.8, 6 + a)) for a in range(dim - 1)]
    for n_vertices in (1, 2, 12):
        P = Polytope(rng.standard_normal((n_vertices, dim)))
        got, ref = P.support_grid(axes), _support_grid_by_rows(P, axes)
        assert got.shape == ref.shape == tuple(len(a) for a in axes)
        assert got.tobytes() == ref.tobytes()
    # bodies whose vertices share leading coordinates, which support_grid
    # folds on the tail grid before one full-grid pass per distinct v_0
    for V, sub in _shared_lead_bodies(rng, dim, axes):
        P = Polytope(V)
        # a 1-D box (and the box with its midpoint) has distinct v_0
        assert dim == 1 or len(np.unique(P.vertices[:, 0])) < len(P.vertices)
        got, ref = P.support_grid(sub), _support_grid_by_rows(P, sub)
        assert got.shape == ref.shape == tuple(len(a) for a in sub)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_support_grid_leads_with_the_axis_of_fewest_coordinates(dim):
    # a shell clipped twice across axis a > 0 is summed with v_a x_a
    # outermost: the row route on the axes moved to put a first, moved
    # back, bit for bit, and returned as a view of the lead-first buffer
    # (no transposing copy)
    rng = np.random.default_rng(40 + dim)
    axes = [np.sort(rng.uniform(-0.8, 0.8, 9 + a)) for a in range(dim)]
    for a in range(1, dim):
        e = np.eye(dim)[a]
        shell = random_shell_polytope(rng, dim=dim, n_vertices=2 * dim + 2, min_sep=0.6)
        P = halfspace_clip(halfspace_clip(shell, e, 0.1), -e, 0.05)
        distinct = [len(np.unique(P.vertices[:, b])) for b in range(dim)]
        assert distinct.index(min(distinct)) == a
        order = [a] + [b for b in range(dim) if b != a]
        ref = _support_grid_by_rows(Polytope(P.vertices[:, order]), [axes[b] for b in order])
        got = P.support_grid(axes)
        assert got.shape == tuple(len(x) for x in axes) and np.moveaxis(got, a, 0).flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(np.moveaxis(ref, 0, a)).tobytes()


@pytest.mark.parametrize("count", [3, 5])
def test_support_grid_needs_one_axis_per_coordinate(count):
    # three axes for a 4-D polytope raised IndexError; five gave a 4-D array
    P = random_shell_polytope(np.random.default_rng(6), dim=4, n_vertices=10)
    with pytest.raises(ValueError, match=f"{count} axes for a 4-dimensional polytope"):
        P.support_grid([np.linspace(-0.5, 0.5, 6)] * count)


def test_support_grid_holds_one_box_sized_array():
    # a body that leads with axis 2 is summed lead-first and returned as a
    # view: the transposing copy into the axes' order (a second 1.28 MB
    # array on 20^4 samples) read a traced peak of 2.5x the box's bytes
    rng = np.random.default_rng(0)
    e = np.eye(4)[2]
    shell = random_shell_polytope(rng, dim=4, n_vertices=10, min_sep=0.6)
    P = halfspace_clip(halfspace_clip(shell, e, 0.12), -e, 0.08)
    distinct = [len(np.unique(P.vertices[:, b])) for b in range(4)]
    assert distinct.index(min(distinct)) == 2
    axes = [np.linspace(-0.7, 0.7, 20)] * 4
    tracemalloc.start()
    try:
        h = P.support_grid(axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.shape == (20,) * 4
    assert peak <= 1.75 * h.nbytes


def _shared_lead_bodies(rng, dim, axes):
    """(vertices, axes) pairs with repeated leading coordinates: an axis
    box, the box with an interior point, repeated vertices, a shell clipped
    twice across axis 0 (the crossing points share v_0), and v_0 = -0.0
    beside +0.0 on axes that hold both zeros."""
    lo, hi = rng.uniform(-0.6, -0.1, dim), rng.uniform(0.1, 0.6, dim)
    box = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(dim, -1).T
    yield box, axes
    yield np.vstack([box, 0.5 * (lo + hi)]), axes
    W = rng.standard_normal((5, dim))
    yield np.vstack([W, W[[3, 0, 3]]]), axes
    if dim > 1:
        e = np.eye(dim)[0]
        shell = random_shell_polytope(rng, dim=dim, n_vertices=2 * dim + 2, min_sep=0.6)
        yield halfspace_clip(halfspace_clip(shell, e, 0.1), -e, 0.05).vertices, axes
    Z = rng.standard_normal((6, dim))
    Z[[0, 2, 5], 0] = [-0.0, 0.0, -0.0]
    zeros = [np.concatenate([a, [-0.0, 0.0]]) for a in axes]
    yield Z, zeros


# ---------------------------------------------------------------------------
# piecewise-linear convex functions
# ---------------------------------------------------------------------------

def test_pl_evaluation_matches_max():
    f = PLConvexFunction(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                         np.array([0.0, -0.5, 0.25]))
    x = np.random.default_rng(8).standard_normal((64, 2))
    ref = np.max(x @ f.slopes.T + f.offsets, axis=1)
    assert np.allclose(f(x), ref)
    assert f.dim == 2


@pytest.mark.parametrize("slopes", [np.zeros((0, 2)), []])
def test_pl_rejects_an_empty_piece_list(slopes):
    # zero pieces gave pl_valuation 0.0
    with pytest.raises(ValueError, match="at least one piece"):
        PLConvexFunction(slopes)


def test_pl_lattice_max_is_union_of_pieces():
    rng = np.random.default_rng(9)
    f = PLConvexFunction(rng.standard_normal((4, 2)), rng.standard_normal(4))
    g = PLConvexFunction(rng.standard_normal((3, 2)), rng.standard_normal(3))
    fmax = PLConvexFunction(np.vstack([f.slopes, g.slopes]),
                            np.concatenate([f.offsets, g.offsets]))
    x = rng.standard_normal((128, 2))
    assert np.allclose(fmax(x), np.maximum(f(x), g(x)))


def test_pl_add_affine():
    f = PLConvexFunction(np.array([[1.0], [-1.0]]))
    g = f.add_affine(np.array([0.5]), 1.0)
    x = np.linspace(-2, 2, 21)[:, None]
    assert np.allclose(g(x), f(x) + 0.5 * x[:, 0] + 1.0)


# ---------------------------------------------------------------------------
# sliced-ball closed forms
# ---------------------------------------------------------------------------

def test_ball_slab_support_against_brute_force():
    rng = np.random.default_rng(10)
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    h = ball_slab_support(u, -0.4, 0.3)
    # oracle: dense sampling of the body {|x|<=1, -0.4 <= <u,x> <= 0.3}
    pts = rng.standard_normal((200000, 5))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.random((200000, 1)) ** (1 / 5)
    keep = (pts @ u >= -0.4) & (pts @ u <= 0.3)
    pts = pts[keep]
    xi = rng.standard_normal((30, 5))
    brute = np.max(xi @ pts.T, axis=1)
    exact = h(xi)
    assert np.all(exact >= brute - 1e-9)
    assert np.abs(exact - brute).max() <= 0.05 * np.abs(exact).max()  # sampling slack


def test_ball_slab_closed_form_on_norm_and_projection_has_the_bits_of_h():
    # h(xi) is the closed form on (|xi|, <xi, direction>), each numpy's sum
    # over the row, and direction is u / |u|, read-only; each value has the
    # bits of the callable written out (the reference below), in both cut
    # cones and on the ball between them
    rng = np.random.default_rng(44)
    for d in (3, 16):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)  # a unit u, as the O2 probe identity passes it
        s, t = -0.3, 0.25
        h = ball_slab_support(u, s, t)
        assert h.direction.tobytes() == (u / np.linalg.norm(u)).tobytes()
        assert not h.direction.flags.writeable
        xi = rng.standard_normal((3000, d)) * rng.uniform(0.5, 2.0, (3000, 1))
        xi = np.vstack([xi, 1.3 * u, -0.7 * u, np.zeros(d)])
        r, p = np.linalg.norm(xi, axis=-1), np.sum(xi * h.direction, axis=-1)
        top, bot = p > t * r, p < s * r
        assert top.sum() > 100 and bot.sum() > 100 and (~top & ~bot).sum() > 100
        perp = np.sqrt(np.maximum(r * r - p * p, 0.0))
        ref = np.select([top, bot], [t * p + np.sqrt(1.0 - t**2) * perp,
                                     s * p + np.sqrt(1.0 - s**2) * perp], default=r)
        assert h(xi).tobytes() == ref.tobytes()
        assert h.closed_form(r, p).tobytes() == ref.tobytes()
        grid = h.closed_form(r.reshape(-1, 1), p.reshape(-1, 1))  # elementwise on any shape
        assert grid.shape == (len(xi), 1) and grid.ravel().tobytes() == ref.tobytes()


def test_ball_slab_support_of_a_point_has_the_bits_of_its_row_in_a_stack():
    # each row's <xi, u> is its own sum: as a BLAS dot on one point and a
    # gemv on a stack (rows four at a time, the rest by another kernel),
    # h(x[i]) and h(x)[i] read apart on about 2% of 16-D rows.  2,003
    # rows, so a stack ends in a remainder, and prefixes of every length
    # mod 4
    rng = np.random.default_rng(49)
    for _ in range(20):
        u = rng.standard_normal(16)
        h = ball_slab_support(u, rng.uniform(-0.9, -0.05), rng.uniform(0.05, 0.9))
        x = rng.standard_normal((2003, 16)) * rng.uniform(0.2, 2.0, (2003, 1))
        x[:3] = [1.3 * h.direction, -0.7 * h.direction, np.zeros(16)]
        stack = h(x)
        assert np.array([h(row) for row in x]).tobytes() == stack.tobytes()
        assert h(x[0]).shape == ()
        for k in (1, 2, 3, 5, 6, 7, 1001):
            assert h(x[:k]).tobytes() == stack[:k].tobytes()


def test_ball_slab_closed_form_picks_its_piece_as_np_select_does():
    # the nested np.where has np.select's bytes (the first true condition
    # wins, a NaN comparison falls to r) on the cone boundaries p = t r and
    # p = s r, at r = 0, on signed zeros, NaN and inf
    s, t = -0.3, 0.25
    h = ball_slab_support(np.eye(4)[0], s, t)
    r = np.array([1.0, 0.7, 2.5, 1e-300, 3.0])
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]
    pairs = [(r, t * r), (r, s * r), (np.zeros(5), np.array([0.0, -0.0, 1.0, -1.0, np.nan])),
             (np.full(5, -0.0), np.array([0.0, -0.0, 1.0, -1.0, np.inf]))]
    pairs += [(np.full(len(special), a), np.array(special)) for a in special]
    pairs += [(np.array(special), np.full(len(special), b)) for b in special]
    with np.errstate(invalid="ignore", over="ignore"):
        for r, p in pairs:
            perp = np.sqrt(np.maximum(r * r - p * p, 0.0))
            ref = np.select([p > t * r, p < s * r], [t * p + np.sqrt(1.0 - t**2) * perp,
                                                     s * p + np.sqrt(1.0 - s**2) * perp], default=r)
            assert h.closed_form(r, p).tobytes() == ref.tobytes(), (r, p)
    on_cones = h.closed_form(np.array([2.0, 2.0]), np.array([t * 2.0, s * 2.0]))
    assert on_cones.tolist() == [2.0, 2.0]  # neither strict comparison holds: the ball's r


def test_ball_slab_float_margin_has_the_bits_of_the_array_margin():
    # interface_margin(r, p) on floats against the array formula on
    # xi[None] it replaced, on many 16-D draws as the O2 probe makes them,
    # on the cut cones themselves and at xi = 0; r is the square root of
    # numpy's sum of the squares, np.linalg.norm(xi[None], axis=-1)'s bits
    rng = np.random.default_rng(45)
    for _ in range(20):
        u = rng.standard_normal(16)
        s, t = rng.uniform(-0.45, -0.1), rng.uniform(0.1, 0.45)
        h = ball_slab_support(u, s, t)
        xi = rng.standard_normal((500, 16)) * rng.uniform(0.8, 1.4, (500, 1))
        cone = np.sqrt(1.0 - t * t) * np.eye(16)[np.argmin(np.abs(h.direction))] + t * h.direction
        for x in np.vstack([xi, np.zeros(16), cone, -cone]):
            r_row = np.linalg.norm(x[None], axis=-1)  # one row at a time: a stack's gemv
            c = (x[None] @ h.direction) / np.where(r_row > 0, r_row, 1.0)  # sums otherwise
            want = np.minimum(np.abs(c - t), np.abs(c - s))
            r = math.sqrt(np.add.reduce(x * x))
            assert r == r_row[0]
            got = h.interface_margin(r, x @ h.direction)
            assert np.float64(got).tobytes() == want.tobytes()
        assert h.interface_margin(0.0, 0.0) == min(t, -s)  # c = 0 at r = 0


def test_ball_slab_validation():
    with pytest.raises(GeometryError):
        ball_slab_support(np.ones(3), 0.5, 0.2)
    # u = 0 divided by 0 and read |xi| (1.732 at (1, 1, 1)), since every
    # comparison with NaN is false
    for u in (np.zeros(3), np.array([1.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])):
        with pytest.raises(GeometryError, match="direction"):
            ball_slab_support(u, -0.4, 0.3)


def _ref_random_shell_polytope(rng, dim=3, n_vertices=10, min_sep=0.7, limit=10000, draws=None):
    """The loop ``random_shell_polytope`` runs in blocks: one draw, one
    scaling and one chord test per kept direction at a time; ``limit``
    is its ``_SHELL_TRIES``.  A completed body appends its number of draws
    to the list ``draws``, when one is given."""
    dirs = []
    tries = 0
    while len(dirs) < n_vertices:
        v = rng.standard_normal(dim)
        v /= math.sqrt(v.dot(v))
        if all(math.sqrt(d.dot(d)) > min_sep for d in (v - w for w in dirs)):
            dirs.append(v)
        tries += 1
        if tries > limit:
            raise GeometryError("could not place separated vertices; lower min_sep")
    if draws is not None:
        draws.append(tries)
    radii = 0.35 * rng.uniform(0.85, 1.0, (n_vertices, 1))
    return Polytope(np.array(dirs) * radii)


def _shell_outcome(make, seed, **kwargs):
    """The vertex bytes (or the error) and the generator's next draw."""
    rng = np.random.default_rng(seed)
    try:
        out = make(rng, **kwargs).vertices.tobytes()
    except GeometryError as exc:
        out = str(exc)
    return out, rng.standard_normal()


#: (dim, n_vertices, min_sep) -> the most draws any of seeds 0-99 takes to
#: complete its body (0 when none does) and how many of them cannot be
#: placed, both at the loop's 10,000 draws
_SHELL_SWEEP = {
    (2, 6, 0.3): (13, 0), (2, 6, 0.6): (63, 0), (2, 6, 0.7): (4533, 2),
    (2, 8, 0.3): (20, 0), (2, 8, 0.6): (9215, 31), (2, 8, 0.7): (1104, 98),
    (2, 10, 0.3): (36, 0), (2, 10, 0.6): (0, 100), (2, 10, 0.7): (0, 100),
    (3, 8, 0.3): (12, 0), (3, 8, 0.6): (23, 0), (3, 8, 0.7): (28, 0),
    (3, 10, 0.3): (15, 0), (3, 10, 0.6): (40, 0), (3, 10, 0.7): (52, 0),
    (4, 8, 0.3): (9, 0), (4, 8, 0.6): (15, 0), (4, 8, 0.7): (17, 0),
    (4, 10, 0.3): (12, 0), (4, 10, 0.6): (20, 0), (4, 10, 0.7): (23, 0),
}


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_shell_polytope_has_the_bits_of_the_loop(dim, monkeypatch):
    # each configuration gives up at the next hundred draws above the most
    # any of its bodies takes, on the route and on the loop alike, so that
    # the 331 planar bodies that cannot be placed cost the loop that many
    # draws each and not 10,001; every outcome is the one at 10,000 draws,
    # since as many bodies complete, the slowest in as many draws
    for n_vertices in sorted({8, 10, 2 * dim + 2}):
        for min_sep in (0.3, 0.6, 0.7):
            most, failures = _SHELL_SWEEP[dim, n_vertices, min_sep]
            limit = (most // 100 + 1) * 100
            monkeypatch.setattr(convex, "_SHELL_TRIES", limit)
            draws = []
            loop = functools.partial(_ref_random_shell_polytope, limit=limit, draws=draws)
            for seed in range(100):
                kwargs = dict(dim=dim, n_vertices=n_vertices, min_sep=min_sep)
                assert (_shell_outcome(random_shell_polytope, seed, **kwargs)
                        == _shell_outcome(loop, seed, **kwargs)), kwargs
            assert (max(draws, default=0), 100 - len(draws)) == (most, failures)


# chords of 1.0 leave room for at most 5 directions in the plane
_INFEASIBLE_SHELL = dict(dim=2, n_vertices=8, min_sep=1.0)


def test_random_shell_polytope_gives_up_as_the_loop_does():
    for seed in (0, 1):
        new = _shell_outcome(random_shell_polytope, seed, **_INFEASIBLE_SHELL)
        assert new == _shell_outcome(_ref_random_shell_polytope, seed, **_INFEASIBLE_SHELL)
        assert new[0] == "could not place separated vertices; lower min_sep"
        rng = np.random.default_rng(seed)
        rng.standard_normal((10001, 2))  # the generator is 10,001 draws on
        assert new[1] == rng.standard_normal()


def test_random_shell_polytope_gives_up_at_the_loops_draw(monkeypatch):
    # a body completed on draw limit + 1 still raises; limits about a block
    # edge, where ten directions 0.7 apart take about 25 draws in 3-D
    outcomes = set()
    for limit in (9, 10, 24, 25, 26, 31, 32, 33, 64, 65):
        monkeypatch.setattr(convex, "_SHELL_TRIES", limit)
        for seed in range(30):
            new = _shell_outcome(random_shell_polytope, seed)
            assert new == _shell_outcome(_ref_random_shell_polytope, seed, limit=limit), limit
            outcomes.add(isinstance(new[0], str))  # the error message
    assert outcomes == {True, False}


def test_random_shell_polytope_decides_band_pairs_by_the_chord(monkeypatch):
    # a band of 0.5 sends most pairs to the chord test itself
    monkeypatch.setattr(convex, "_SHELL_BAND", 0.5)
    for dim in (2, 3, 4):
        for min_sep in (0.0, 0.3, 0.7):
            for seed in range(20):
                kwargs = dict(dim=dim, n_vertices=2 * dim + 2, min_sep=min_sep)
                assert (_shell_outcome(random_shell_polytope, seed, **kwargs)
                        == _shell_outcome(_ref_random_shell_polytope, seed, **kwargs)), kwargs
    assert (_shell_outcome(random_shell_polytope, 3, **_INFEASIBLE_SHELL)
            == _shell_outcome(_ref_random_shell_polytope, 3, **_INFEASIBLE_SHELL))


def test_random_shell_polytope_memory_does_not_grow_with_the_draws():
    # one Gram over all 10,001 candidates would hold 800 MB
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError):
            random_shell_polytope(np.random.default_rng(0), **_INFEASIBLE_SHELL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kwargs,message", [
    (dict(dim=0), "dim must be at least 1, got 0"),
    (dict(dim=2.0), "dim must be a whole number, got 2.0"),
    (dict(dim=True), "dim must be a whole number, got True"),
    (dict(n_vertices=0), "n_vertices must be at least 1, got 0"),
    (dict(n_vertices=2.5), "n_vertices must be a whole number, got 2.5"),
    (dict(min_sep=math.nan), "min_sep must be finite and >= 0, got nan"),
    (dict(min_sep=math.inf), "min_sep must be finite and >= 0, got inf"),
    (dict(min_sep=-1.0), "min_sep must be finite and >= 0, got -1.0"),
])
def test_random_shell_polytope_checks_its_arguments_before_a_draw(kwargs, message):
    # dim = 0 and min_sep = nan drew 10,001 times and asked for a lower
    # min_sep, n_vertices = 2.5 raised numpy's TypeError after its draws,
    # and min_sep = -1 kept every draw
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError) as info:
        random_shell_polytope(rng, **kwargs)
    assert str(info.value) == message and type(info.value) is ValueError
    assert rng.standard_normal() == np.random.default_rng(4).standard_normal()


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("k,d", [(1, 3), (32, 2), (32, 3), (17, 4), (5, 16)])
def test_a_block_draw_is_successive_row_draws(seed, k, d):
    # random_shell_polytope draws blocks and replays a block's prefix
    # from its saved state; a numpy that breaks either fails here
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    block = rng.standard_normal((k, d))
    after = rng.standard_normal()
    rows = np.random.default_rng(seed)
    assert block.tobytes() == np.array([rows.standard_normal(d) for _ in range(k)]).tobytes()
    assert rows.standard_normal() == after
    for used in (1, k):
        rng.bit_generator.state = state
        assert rng.standard_normal((used, d)).tobytes() == block[:used].tobytes()
        rows = np.random.default_rng(seed)
        for _ in range(used):
            rows.standard_normal(d)
        assert rng.standard_normal() == rows.standard_normal()


def test_random_shell_polytope_separation():
    rng = np.random.default_rng(11)
    P = random_shell_polytope(rng, dim=3, n_vertices=8, min_sep=0.7)
    dirs = P.vertices / np.linalg.norm(P.vertices, axis=1, keepdims=True)
    gram = dirs @ dirs.T
    np.fill_diagonal(gram, -1.0)
    # chordal separation 0.7 means max cosine 1 - 0.7^2/2
    assert gram.max() <= 1 - 0.7**2 / 2 + 1e-9
