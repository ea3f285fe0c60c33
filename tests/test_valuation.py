import collections
import functools
import gc
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings, strategies as st
from scipy.ndimage import correlate1d, gaussian_filter
from scipy.spatial import ConvexHull, QhullError

from mongeval import algebra, cli, convex, hessian, valuation, verify
from mongeval.algebra import FIELD_COMPONENTS, HermitianMatrix, polarized_det_batch, quat_mul
from mongeval.convex import (
    PLConvexFunction,
    Polytope,
    SmoothProfileBody,
    ball_body,
    generate_union_convex_pair,
    halfspace_clip,
    make_two_ball_body,
    random_shell_polytope,
)
from mongeval.hessian import assemble_structured, fd_hessian_batch, grid_hessian
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


def clear_quadrature():
    """Empty both levels of ``valuation._quadrature``, the identity memo and
    the value store behind it, so that the next call builds its entry."""
    valuation._quadrature.cache_clear()
    valuation._BUILT.clear()


def read_entries(field, d):
    """The flat real Hessian entries a d + b, a <= b, that ``field`` reads
    in dimension d: a whole field Hessian's entries."""
    return hessian._field_entries(d, FIELD_COMPONENTS[field])


def form_entries(spec):
    """The flat real Hessian entries of a spec's polynomial form, sorted:
    every head and last entry of its groups."""
    return tuple(sorted({e for head, _, last in valuation._polynomial_form(spec)
                         for e in head + tuple(last.tolist())}))


def stencil_points(spec):
    """Stencil points per node of a spec's stencil route, 1 + 2 D + 4 P for
    the D diagonal and P other entries of its polynomial form."""
    entries = form_entries(spec)
    diagonal = sum(e // spec.real_dim == e % spec.real_dim for e in entries)
    return 1 + 2 * diagonal + 4 * (len(entries) - diagonal)


def held_arrays(entry):
    """The distinct arrays a built entry holds, through its tuples and
    partials."""
    arrays, stack = {}, [entry]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            arrays[id(value)] = value
        elif isinstance(value, tuple):
            stack += value
        elif isinstance(value, functools.partial):
            stack += value.args + tuple(value.keywords.values())
    return list(arrays.values())


# ---------------------------------------------------------------------------
# grid bookkeeping
# ---------------------------------------------------------------------------

def test_a_grid_needs_at_least_one_axis():
    # Grid([], [], ()) was a grid of dimension 0 whose nodes() failed in
    # numpy ("need at least one array to stack") and whose n_cells read 1
    for lo, hi in (([], []), (np.zeros(0), np.zeros(0))):
        with pytest.raises(ValueError, match="at least one axis"):
            Grid(lo, hi, ())


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
    # a fractional cell count was truncated: (10.7, 3) built (10, 3) and
    # Grid.cube(c, 0.5, 10.5, 2) 10 cells per axis, a different quadrature
    with pytest.raises(ValueError, match="whole"):
        Grid(np.zeros(2), np.ones(2), (10.7, 3))
    with pytest.raises(ValueError, match="whole"):
        Grid.cube(np.zeros(2), 0.5, 10.5, 2)
    for whole in (10, np.int64(10)):
        assert Grid.cube(np.zeros(2), 0.5, whole, 2).shape == (10, 10)
    # a count is an int, as a numpy shape is (np.zeros(10.0) raises): 10.0
    # and True passed, and Grid.cube(c, 0.5, True, 2) was a 1 x 1 grid.
    # Each count is checked as given: np.atleast_1d((True, 3)) reads True as 1
    for bad in (10.0, True):
        with pytest.raises(ValueError, match="grid cell count must be a whole number"):
            Grid.cube(np.zeros(2), 0.5, bad, 2)
    with pytest.raises(ValueError, match="grid cell count must be a whole number, got True"):
        Grid(np.zeros(2), np.ones(2), (True, 3))
    with pytest.raises(ValueError, match="grid cell count must be at least 1, got 0"):
        Grid(np.zeros(2), np.ones(2), (0, 3))


@pytest.mark.parametrize("n,degree,message", [
    (3.0, 3, "n must be a whole number, got 3.0"),
    (0, 0, "n must be at least 1, got 0"),
    (3, True, "degree must be a whole number, got True"),
    (3, -1, "degree must be at least 0, got -1"),
])
def test_valuation_spec_takes_whole_n_and_degree(n, degree, message):
    # ValuationSpec("R", 3.0, 3.0, B) was built, and eval_valuation then
    # failed on "can't multiply sequence by non-int of type 'float'"
    with pytest.raises(ValueError, match=re.escape(message)):
        ValuationSpec("R", n, degree, BumpWeight(np.zeros(3), 0.45))


# ---------------------------------------------------------------------------
# hull volumes
# ---------------------------------------------------------------------------

def test_hull_volume_closed_forms():
    assert np.isclose(hull_volume(unit_cube(3).vertices), 1.0)
    simplex = np.vstack([np.zeros(4), np.eye(4)])
    assert np.isclose(hull_volume(simplex), 1.0 / math.factorial(4))
    assert hull_volume(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])) == 0.0
    assert np.isclose(hull_volume(np.array([[0.0], [2.0], [1.0]])), 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hull_volume_rejects_non_finite_points(bad):
    # a NaN row raised LinAlgError from the rank test
    pts = unit_cube(3).vertices.copy()
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        hull_volume(pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hull_volume_of_fewer_than_dim_plus_one_points_is_zero(dim, monkeypatch):
    # an empty 1-D set raised numpy's zero-size reduction error
    def refuse(*args, **kwargs):
        raise AssertionError("qhull was called")
    # the hull is imported where it is built, so the seam is scipy.spatial
    monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
    rng = np.random.default_rng(dim)
    for m in range(dim + 1):
        assert hull_volume(rng.standard_normal((m, dim))) == 0.0


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (3,), (2, 2, 2)])
def test_hull_volume_rejects_arrays_that_are_not_m_by_n(shape):
    # an (m, 0) array raised qhull's own message
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        hull_volume(np.zeros(shape))


def test_hull_volume_matches_qhull_on_random_sets():
    # reference: qhull's facets coned to the vertex centroid, |det| / n! each
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        pts = rng.standard_normal((12, dim))
        hull = ConvexHull(pts)
        centroid = pts[np.unique(hull.simplices)].mean(axis=0)
        cones = sum(abs(np.linalg.det(pts[s] - centroid)) for s in hull.simplices)
        assert np.isclose(hull_volume(pts), cones / math.factorial(dim), rtol=1e-10)


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


# the exact PL route before it paid for one hull, kept verbatim as the
# reference for the bit-for-bit comparison below, except that the rows
# are rounded relative to a power-of-two scale, as the route does since
# rounding them in absolute terms merged every piece of tiny slopes

def _ref_hull_volume(points) -> float:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("expected an (m, n) point array")
    n = points.shape[1]
    if n == 1:
        return float(points.max() - points.min())
    if valuation._affine_rank(points) < n:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def _ref_scale(x):
    top = np.abs(x).max(initial=0.0)
    return 1.0 if top == 0.0 else float(np.exp2(np.rint(np.log2(top))))


def _ref_dedupe_pieces(slopes, offsets):
    stacked = np.round(np.column_stack([slopes / _ref_scale(slopes),
                                        offsets / _ref_scale(offsets)]), 12)
    _, idx = np.unique(stacked, axis=0, return_index=True)
    idx = np.sort(idx)
    return slopes[idx], offsets[idx]


def _ref_ma_measure_pl(f: PLConvexFunction) -> AtomicMeasure:
    n = f.dim
    if n > 3:
        raise ValueError("exact PL measure supports dimension <= 3")
    slopes, offsets = _ref_dedupe_pieces(f.slopes, f.offsets)
    if len(slopes) == 1 or valuation._affine_rank(slopes) < n:
        return valuation._empty_measure(n)

    total_expected = _ref_hull_volume(slopes)

    # exact affine dependence of -b on a: a single cell, one atom at the
    # supporting-plane gradient (support functions land here: b = 0 -> atom
    # at the origin with mass vol of the gradient hull)
    design = np.column_stack([slopes, np.ones(len(slopes))])
    coef, *_ = np.linalg.lstsq(design, -offsets, rcond=None)
    resid = design @ coef + offsets
    scale = 1.0 + np.abs(offsets).max(initial=0.0)
    if np.abs(resid).max() <= 1e-10 * scale:
        return AtomicMeasure(coef[:n][None, :], np.array([total_expected]))

    lifted = np.column_stack([slopes, -offsets])
    hull = ConvexHull(lifted)
    atoms = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        nu, _off = eq[:-1], eq[-1]
        if nu[n] >= -1e-9:  # not a lower facet
            continue
        grad = -nu[:n] / nu[n]
        verts = slopes[simplex]
        mass = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(n)
        if mass <= 0.0:
            continue
        key = tuple(np.round(grad, 7))
        if key in atoms:
            atoms[key][1] += mass
        else:
            atoms[key] = [grad, mass]

    if not atoms:
        return valuation._empty_measure(n)
    keys = sorted(atoms.keys())
    locations = np.array([atoms[k][0] for k in keys])
    masses = np.array([atoms[k][1] for k in keys])
    measure = AtomicMeasure(locations, masses)
    gap = abs(measure.total_mass - total_expected)
    if gap > 1e-8 * max(1.0, total_expected):
        raise ArithmeticError(
            f"PL measure lost mass: atoms sum to {measure.total_mass:.12e}, "
            f"gradient hull volume is {total_expected:.12e}"
        )
    return measure


def _pl_family(seed, count):
    """Seeded (offset kind, slopes, offsets) cases in dims 1-3: zero, general
    or constant nonzero offsets; duplicated pieces, some within 1e-13 of the
    original so that they round equal, and rows whose coordinates round to
    -0.0 or +0.0; slopes in a hyperplane; a nearly flat set qhull refuses."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim = 1 + i % 3
        kind = ("zero", "general", "constant")[(i // 3) % 3]
        shape = (i // 9) % 4
        a = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 12)), dim))
        if shape == 1:  # duplicates, nudged below the rounding grid, and signed zeros
            dup = a[rng.integers(0, len(a), 4)] + rng.uniform(-1e-13, 1e-13, (4, dim))
            signed = np.tile(a[:1], (2, 1))
            signed[:, -1] = [-1e-14, 1e-14]
            a = np.vstack([a, dup, signed])[rng.permutation(len(a) + 6)]
        elif shape == 2 and dim > 1:  # rank deficient: slopes in a hyperplane
            a[:, -1] = a[:, :-1] @ rng.uniform(-1.0, 1.0, dim - 1)
        elif shape == 3 and dim == 3:  # full rank, but too flat for qhull
            a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 1e-8]]) + 1e7
        if kind == "zero":
            b = np.zeros(len(a))
        elif kind == "constant":
            b = np.full(len(a), rng.uniform(-2.0, 2.0))
        else:
            b = rng.uniform(-1.0, 0.0, len(a))
            if shape == 1:  # the duplicated pieces keep their own offsets
                b[rng.integers(0, len(a), 3)] = -1e-14
        yield kind, a, b


def _tangent_plane_family():
    """Many-piece (kind, slopes, offsets) cases: the tangent planes of the
    smooth convex u = x.Qx/2 + 0.3 sum_k (u_k.x)^4 at the k^d nodes of a
    lattice on [-0.5, 0.5]^d, plain and jittered by 1% of its spacing, for
    k = 6, 9 in dims 2 and 3 (up to 729 pieces and about 4,900 atoms).  Then
    f = max(-x - 1e-9, 0, x - 2e-9), whose two lower facets have the
    gradients -1e-9 and 2e-9: they round to -0.0 and +0.0, one atom."""
    for dim, k, jitter in itertools.product((2, 3), (6, 9), (0.0, 0.01)):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((dim, dim))
        Q = m @ m.T + 0.5 * np.eye(dim)
        u = rng.standard_normal((dim, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        nodes = np.array(list(itertools.product(np.linspace(-0.5, 0.5, k), repeat=dim)))
        nodes += rng.uniform(-1.0, 1.0, nodes.shape) * jitter / (k - 1)
        proj = nodes @ u.T
        grads = nodes @ Q + 1.2 * proj**3 @ u
        values = 0.5 * np.einsum("ji,ik,jk->j", nodes, Q, nodes) + 0.3 * (proj**4).sum(axis=1)
        yield "tangent", grads, values - np.einsum("ji,ji->j", grads, nodes)
    yield "signed-zero", np.array([[-1.0], [0.0], [1.0]]), np.array([-1e-9, 0.0, -2e-9])


def _pl_outcome(route, f):
    try:
        mu = route(f)
    except (ArithmeticError, QhullError) as exc:
        return type(exc), None
    return mu.locations, mu.masses


def test_pl_route_matches_the_reference_bit_for_bit():
    flat_refused = constant_moved = 0
    for kind, a, b in itertools.chain(_pl_family(seed=22, count=540), _tangent_plane_family()):
        for got, ref in zip(valuation._dedupe_pieces(a, b), _ref_dedupe_pieces(a, b)):
            assert got.tobytes() == ref.tobytes()
        f = PLConvexFunction(a, b)
        loc, mass = _pl_outcome(ma_measure_pl, f)
        ref_loc, ref_mass = _pl_outcome(_ref_ma_measure_pl, f)
        if mass is None:
            assert loc is ref_loc
            continue
        assert mass.tobytes() == ref_mass.tobytes()
        if kind == "constant" and len(mass):
            # the one atom sits at exactly 0 where least squares landed within
            # its rounding of 0: about 1e-16, or 1e-7 on the flat set
            assert loc.shape == ref_loc.shape == (1, f.dim) and not loc.any()
            cond = np.linalg.cond(np.column_stack([a, np.ones(len(a))]))
            eps = np.finfo(float).eps
            assert np.abs(ref_loc).max() <= 8 * eps * cond * (1.0 + abs(b[0]))
            constant_moved += bool(ref_loc.any())
        else:
            assert loc.tobytes() == ref_loc.tobytes()
        if kind == "signed-zero":  # merged, at the first facet's gradient
            assert mass.tolist() == [2.0] and loc.tolist() == [[-1e-9]]
        flat_refused += a[0, 0] == 1e7 and len(mass) == 1 and mass[0] == 0.0
    # the family reaches the cases it is built for
    assert flat_refused > 0 and constant_moved > 0


def test_dedupe_merges_rows_that_round_to_signed_zeros():
    # the rows round to (-0.0, 1) and (0.0, 1): equal as floats, not as bytes
    slopes = np.array([[0.5, 0.5], [-1e-14, 1.0], [1e-14, 1.0], [0.5, 0.5 + 1e-13]])
    for dedupe in (valuation._dedupe_pieces, _ref_dedupe_pieces):
        a, b = dedupe(slopes, np.zeros(4))
        assert a.tobytes() == slopes[:2].tobytes() and b.tobytes() == np.zeros(2).tobytes()


def test_dedupe_keeps_its_keys_at_every_scale():
    # the rows that merge are the reference's at every scale, down to
    # subnormal slopes, and with no merge the caller's own arrays come back
    cases = list(itertools.chain(_pl_family(seed=46, count=180), _tangent_plane_family()))
    merged = returned = tiny = 0
    for scale, (a_scale, b_scale) in itertools.product(
            [1.0, 1e-13, 1e-160, 1e120, 1e300, 1e-300, 1e-310],
            [(1, 1), (1, 0), (0, 1)]):
        for _, a, b in cases:
            a = a * scale if a_scale else a
            b = b * scale if b_scale else b
            got = valuation._dedupe_pieces(a, b)
            for x, ref in zip(got, _ref_dedupe_pieces(a, b)):
                assert x.tobytes() == ref.tobytes()
            if len(got[0]) < len(a):
                merged += 1
            else:
                assert got[0] is a and got[1] is b
                returned += 1
            tiny += algebra._pow2(np.abs(a).max()) < 2.0**-984
    assert merged > 0 and returned > 0 and tiny > 0


def _pl_value_outcome(route, weight, f):
    try:
        return route(weight, f).hex()
    except (ArithmeticError, QhullError) as exc:
        return type(exc)


def test_pl_valuation_has_the_bits_of_the_reference_measure():
    # the bits, the 0.0 of no atoms and the error type of the reference
    # measure summed by np.sum, as AtomicMeasure.integrate summed it before
    # np.add.reduce
    def ref(weight, f):
        mu = _ref_ma_measure_pl(f)
        if len(mu.masses) == 0:
            return 0.0
        loc = mu.locations
        if kind == "constant":  # the one atom at exactly 0, as the route places it
            loc = np.zeros_like(loc)
        return float(np.sum(weight(loc) * mu.masses))

    seen = collections.Counter()
    for kind, a, b in itertools.chain(_pl_family(seed=22, count=540), _tangent_plane_family()):
        f = PLConvexFunction(a, b)
        # centred, off-centre with plateau 0.5, and of negative height
        for weight in (BumpWeight(np.zeros(f.dim), 0.45),
                       BumpWeight(np.linspace(0.1, -0.05, f.dim), 0.6, 1.3, 0.5),
                       BumpWeight(np.full(f.dim, -0.02), 0.5, -0.7)):
            got = _pl_value_outcome(pl_valuation, weight, f)
            want = _pl_value_outcome(ref, weight, f)
            assert got == want
            assert _pl_value_outcome(lambda w, f: ma_measure_pl(f).integrate(w), weight, f) == want
            if isinstance(want, type):
                seen["raised"] += 1
            elif len(_pl_outcome(_ref_ma_measure_pl, f)[1]) == 0:
                assert got == (0.0).hex()
                seen["empty"] += 1
            else:
                seen["zero" if float.fromhex(got) == 0.0 else "nonzero"] += 1
    assert seen["empty"] > 0 and seen["raised"] > 0 and seen["nonzero"] > seen["zero"] > 0


@pytest.mark.parametrize("scale", [1e-13, 1e-20, 1e6])
def test_pl_measure_of_tiny_or_large_slopes_keeps_its_mass(scale):
    # rounding the pieces to 12 decimals in absolute terms merged 2-D slopes
    # of order 1e-13 into one piece: the empty measure, total mass 0.0
    a = np.random.default_rng(0).standard_normal((8, 2)) * scale
    offsets = np.random.default_rng(1).uniform(-1.0, 0.0, 8) * scale
    want = hull_volume(a)
    assert want > 0.0
    for f in (PLConvexFunction(a), PLConvexFunction(a, offsets)):
        got = ma_measure_pl(f).total_mass
        assert abs(got - want) <= 1e-12 * want


def test_support_function_pl_valuation_pays_for_one_hull(monkeypatch):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(valuation, "_affine_rank", counting("rank", valuation._affine_rank))
    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting("hull", ConvexHull))
    monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
    K = random_shell_polytope(np.random.default_rng(0))
    f = PLConvexFunction.from_polytope_support(K)
    assert pl_valuation(BumpWeight(np.zeros(3), 0.5), f) > 0.0
    # the hull's volume certifies the slopes' full rank: no rank test
    assert calls == {"hull": 1}
    # general offsets still take the least squares and the lifted hull, and
    # one determinant call over the stack of every lower facet
    calls.clear()
    offsets = np.random.default_rng(1).uniform(-1.0, 0.0, len(K.vertices))
    assert len(ma_measure_pl(PLConvexFunction(K.vertices, offsets)).masses) > 1
    assert calls == {"hull": 2, "lstsq": 1, "det": 1}


def _flat_sets():
    """(kind, points) in dims 1-3: a unit cube and five random points with the
    last axis scaled by 10^-e, e = 2, 4, ..., 14, turned and moved at random,
    so that sigma / s (the least singular value of p_j - p_0 over their
    largest coordinate) is about 10^-e from dim 2 on, and at least 1 in 1-D.
    The kind is "flat" where sigma <= 1e-6 s, which bounds the hull's volume
    below the certificate, and "spread" in 1-D and at e = 2.  The 1e7 + 1e-8
    set that qhull refuses ends the flat sets; a spread 2-D set scaled by
    1e-160 and a 3-D one by 1e120, whose certificate bound leaves the normal
    floats, end the family."""
    rng = np.random.default_rng(34)
    for dim in (1, 2, 3):
        cube = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
        for e in range(2, 15, 2):
            pts = np.vstack([cube, rng.uniform(0.0, 1.0, (5, dim))])
            pts[:, -1] *= 10.0**-e
            turn = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            pts = (pts - 0.5) @ turn.T + rng.uniform(-2.0, 2.0, dim)
            rel = pts[1:] - pts[0]
            sigma = np.linalg.svd(rel, compute_uv=False)[-1]
            if sigma <= 1e-6 * np.abs(rel).max():
                yield "flat", pts
            else:
                yield "spread" if dim == 1 or e == 2 else "between", pts
    yield "flat", np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 1e-8]]) + 1e7
    yield "outside", rng.uniform(-1.0, 1.0, (8, 2)) * 1e-160
    yield "outside", rng.uniform(-1.0, 1.0, (8, 3)) * 1e120


def test_near_flat_sets_pay_for_the_rank_test_and_keep_their_bits(monkeypatch):
    ranks = collections.Counter()
    rank = valuation._affine_rank

    def counted(points):
        ranks["rank"] += 1
        return rank(points)

    flat_volumes = []
    for kind, pts in _flat_sets():
        offsets = np.random.default_rng(len(pts)).uniform(-1.0, 0.0, len(pts))
        pieces = [PLConvexFunction(pts), PLConvexFunction(pts, offsets)]
        for f in [None] + pieces:
            ranks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(valuation, "_affine_rank", counted)
                got = hull_volume(pts) if f is None else _pl_outcome(ma_measure_pl, f)
            if f is None:
                assert got.hex() == _ref_hull_volume(pts).hex()
                flat_volumes += [got] if kind == "flat" else []
            else:
                want = _pl_outcome(_ref_ma_measure_pl, f)
                if got[1] is None:
                    assert got[0] is want[0]
                else:
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
            if kind in ("flat", "outside"):
                assert ranks == {"rank": 1}
            elif kind == "spread":
                assert not ranks
    # the flat sets span numerically (sigma above 1e-10 s) or not, and the
    # refused one gives 0.0 although it spans
    assert len(flat_volumes) == 9
    assert 0 < sum(v > 0.0 for v in flat_volumes) < 8 and flat_volumes[-1] == 0.0


def test_atomic_measure_invariants():
    mu = AtomicMeasure(np.array([[0.0, 0], [1, 1]]), np.array([0.25, 0.5]))
    assert abs(mu.total_mass - 0.75) <= 1e-12
    assert np.isclose(mu.integrate(lambda x: x[:, 0] + 1.0), 0.25 + 2 * 0.5)
    with pytest.raises(ValueError):
        AtomicMeasure(np.zeros((2, 2)), np.zeros(3))


def test_atomic_measure_rejects_shapes_that_would_broadcast():
    # a mass column broadcast against the values: 1.5 where 0.75 is right
    with pytest.raises(ValueError, match=re.escape("(2, 1)")):
        AtomicMeasure(np.zeros((2, 2)), [[0.25], [0.5]])
    # values as a column gave 2.25 where 1.25 is right; a scalar broadcast too
    mu = AtomicMeasure(np.array([[0.0, 0], [1, 1]]), np.array([0.25, 0.5]))
    for fn in (lambda x: (x[:, 0] + 1.0)[:, None], lambda x: 1.0, lambda x: np.ones(3)):
        with pytest.raises(ValueError, match="shape"):
            mu.integrate(fn)
    assert AtomicMeasure(np.zeros((1, 3)), 0.5).integrate(lambda x: x[:, 0] + 2.0) == 1.0


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

    def never(x):
        pytest.fail("a degree-0 functional read its argument")

    # the call that builds the memo entry and a call that reuses it
    clear_quadrature()
    v1 = eval_valuation(spec, never, grid)
    v2 = eval_valuation(spec, lambda x: never(x), grid)
    assert v1 == v2
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


def _eval_atom_reference(spec, f, step=None):
    """The point-atom route before atoms became a one-node quadrature: its
    own slots, polarization and product at the atom location."""
    loc = spec.atom.location[None, :]
    slots = []
    if spec.degree > 0:
        hf = assemble_structured(spec.field, fd_hessian_batch(f, loc, step=step))
        slots.extend([hf] * spec.degree)
    for w in spec.weights:
        if isinstance(w, MatrixAtom):
            slots.append(w.matrix.data[None])
        else:
            data = w.matrix.data
            slots.append(w.scalar(loc).reshape((1,) + (1,) * data.ndim) * data[None])
    det = polarized_det_batch(spec.field, slots)[0]
    b = float(np.asarray(spec.scalar_weight(loc))[0])
    return float(math.factorial(spec.n - spec.degree) * b * det)


def _atom_cases():
    """(spec, f, step): the parity-break specs on the two-ball body and
    its reflection, and the linear-invariance R, C and O2 atom specs on
    their base function and on one linear shift of it."""
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    unit = [HermitianMatrix("R", np.diag(e)) for e in np.eye(3)]
    cases = []
    for degree in (1, 2):
        weights = [MatrixAtom(unit[0], v0)]
        weights += [MatrixBump(unit[l], v0, 0.5, plateau=0.5) for l in range(1, 3 - degree)]
        spec = ValuationSpec("R", 3, degree, BumpWeight(v0, 0.5, 1.0, plateau=0.5),
                             tuple(weights))
        cases += [(spec, body.support, None), (spec, body.negate().support, None)]
    for field in ("R", "C", "O2"):
        rng = np.random.default_rng(0)
        spec, _grid, fn, _x0 = verify._invariance_case(field, rng)
        ell = rng.uniform(-1.0, 1.0, spec.real_dim)
        cases += [(spec, fn, 1e-3), (spec, lambda x, fn=fn, ell=ell: fn(x) + x @ ell, 1e-3)]
    return cases


def test_atom_quadrature_matches_the_atom_route_reference():
    # the value is the polynomial form of the real Hessian, a sum in
    # another order than the reference's polarization, so it is within 1e-13
    for spec, f, step in _atom_cases():
        got = eval_valuation(spec, f, step=step)
        ref = _eval_atom_reference(spec, f, step)
        assert got != 0.0
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _atom_route_per_call(spec, f, step):
    """An atom call as the stencil route made it before an atom key held
    its stencil: ``chunked_apply`` of ``fd_hessian_batch`` at the atom's
    one node on every call, with the form's entries, the key's step and
    the key's weight, integrand and scale."""
    weight, integral = valuation._build_quadrature(spec, None, 0.0, step)
    integrand, scale = integral.keywords["integrand"], integral.keywords["scale"]
    entries = np.array(form_entries(spec), dtype=np.intp)
    values = chunked_apply(lambda b: integrand(fd_hessian_batch(f, b, step, entries)),
                           spec.atom.location[None, :])
    return float(scale * (weight * values).sum())


def _held_stencil_cases():
    """name -> (spec, f): parity-break's two-ball specs at n = 3, i = 1 and
    2, on the body and its reflection, the linear-invariance R, C and O2
    atom specs on their base function, and the R spec moved to (0.4, +-0.0,
    0.0) on an f that reads the sign of that coordinate's zero."""
    body, cases = make_two_ball_body(3), {}
    for spec, f, _step in _atom_cases()[:4]:
        cases[f"parity-{spec.degree}-{'minus' if f.__self__ is not body else 'plus'}"] = spec, f
    for field in ("R", "C", "O2"):
        spec, _grid, fn, _x0 = verify._invariance_case(field, np.random.default_rng(0))
        cases[f"invariance-{field}"] = spec, fn
    spec, fn = cases["invariance-R"]
    signed = lambda x: fn(x) + np.where(np.signbit(np.asarray(x)[:, 1]), 1e-3, 0.0)
    for sign, name in ((1.0, "plus"), (-1.0, "minus")):
        location = np.array([0.4, sign * 0.0, 0.0])
        atom = MatrixAtom(spec.atom.matrix, location)
        cases[f"zero-{name}"] = (ValuationSpec("R", 3, 2, BumpWeight(location, 0.3), (atom,)),
                                 signed)
    return cases


@pytest.mark.parametrize("step", [None, 1e-3, 2.5e-4])
@pytest.mark.parametrize("case", sorted(_held_stencil_cases()))
def test_the_held_atom_stencil_keeps_the_bits_of_the_per_call_route(case, step):
    # the key's one stencil, built at its first call, gives every call the
    # bits the per-call fd_hessian_batch route gives, at each step
    spec, f = _held_stencil_cases()[case]
    clear_quadrature()
    ref = _atom_route_per_call(spec, f, step)
    assert ref != 0.0
    for _ in range(2):
        assert eval_valuation(spec, f, step=step).hex() == ref.hex()


def test_the_held_atom_stencil_keeps_the_sign_of_a_zero_coordinate():
    # the stencil's center is the location itself, its -0.0 included, so an
    # f that reads the sign sees it; the two locations are two keys
    cases = _held_stencil_cases()
    clear_quadrature()
    values = [eval_valuation(*cases[f"zero-{name}"]) for name in ("plus", "minus")]
    assert values[0] != values[1]
    for name, sign in (("plus", False), ("minus", True)):
        points = valuation._quadrature(cases[f"zero-{name}"][0], None, 0.0, None)[1].keywords[
            "stencil"][0]
        assert bool(np.signbit(points[0, 1])) is sign
    assert len(valuation._BUILT.entries) == 2


def test_step_is_part_of_the_atom_key(monkeypatch):
    # one spec object's calls interleaved over two steps: each gives its
    # step's bits from an emptied memo, and each (spec, step) is one build
    # and one stored entry
    spec, _grid, fn, _x0 = verify._invariance_case("R", np.random.default_rng(0))
    fresh = {}
    for step in (None, 1e-3):
        clear_quadrature()
        fresh[step] = eval_valuation(spec, fn, step=step)
    assert fresh[None] != fresh[1e-3]
    clear_quadrature()
    builds = _counting(monkeypatch, ["_build_quadrature"])
    for step in (None, 1e-3, None, 1e-3, 1e-3, None):
        assert eval_valuation(spec, fn, step=step).hex() == fresh[step].hex()
    assert builds == {"_build_quadrature": 2}
    assert len(valuation._BUILT.entries) == 2


def test_an_atom_key_builds_its_stencil_once(monkeypatch):
    # one stencil build, at the key's first call; identity and store hits
    # build no point, compute no step and split no block
    calls = collections.Counter()

    def count(module, name):
        route = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return route(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((hessian, "_stencil_points"), (valuation, "_stencil_points"),
                         (hessian, "_stencil_steps"), (valuation, "chunked_apply"),
                         (valuation, "fd_hessian_batch")):
        count(module, name)
    make = lambda: verify._invariance_case("O2", np.random.default_rng(0))
    spec, _grid, fn, _x0 = make()
    clear_quadrature()
    first = eval_valuation(spec, fn, step=1e-3)
    assert calls == {"_stencil_points": 1, "_stencil_steps": 1}
    calls.clear()
    again = [eval_valuation(spec, fn, step=1e-3) for _ in range(2)]  # identity hits
    equal, _grid, _fn, _x0 = make()
    assert equal is not spec
    again.append(eval_valuation(equal, fn, step=1e-3))  # a store hit
    assert valuation._quadrature.cache_info().misses == 2
    assert not calls
    assert {v.hex() for v in again} == {first.hex()}


def test_an_f_that_writes_into_its_argument_keeps_the_atom_bits():
    # every call passes f a fresh writable copy of the held points, so an f
    # that overwrites its argument changes neither the entry nor a later call
    spec, _grid, fn, _x0 = verify._invariance_case("C", np.random.default_rng(0))

    def scribble(x):
        value = fn(x)
        x[...] = np.nan
        return value

    clear_quadrature()
    clean = eval_valuation(spec, fn)
    entry = valuation._quadrature(spec, None, 0.0, None)
    points = entry[1].keywords["stencil"][0].copy()
    assert {eval_valuation(spec, scribble).hex() for _ in range(3)} == {clean.hex()}
    assert eval_valuation(spec, fn).hex() == clean.hex()
    assert entry[1].keywords["stencil"][0].tobytes() == points.tobytes()
    for array in held_arrays(entry):
        assert not array.flags.writeable


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
        body_valuation(spec, unit_cube(3), grid, sigma_cells=0.0)


def test_body_valuation_origin_outside_joint_support():
    # B covers the origin but the matrix bump does not, so the integrand
    # vanishes near 0 and the stencil route applies
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5)
    spec = ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 1.6), (psi,))
    grid = Grid.cube(v0, 0.5, 8, 3)
    value = body_valuation(spec, body, grid, sigma_cells=0.0)
    assert value > 0.0
    assert value == eval_valuation(spec, body.support, grid)


def test_body_valuation_rejects_polytope_on_stencil_route():
    # h_K of a cube is kinked on the coordinate planes, which cross the grid
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    psi = MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5)
    spec = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5), (atom, psi))
    with pytest.raises(ValueError):
        body_valuation(spec, unit_cube(3, -0.35, 0.35), sigma_cells=0.0)


def test_eval_valuation_rejects_polytope_on_stencil_route():
    # the same guard as body_valuation's, for h_K as a polytope, its bound
    # support and a PLConvexFunction: difference stencils across the normal
    # fan of h_K read 2.8e-33 where B(0) vol(K) = 0.343 is expected
    K = unit_cube(3, -0.35, 0.35)
    f = PLConvexFunction.from_polytope_support(K)
    B = BumpWeight(np.zeros(3), 0.45, plateau=0.7)
    spec = ValuationSpec("R", 3, 3, B)
    grid = Grid.cube(np.zeros(3), 0.5, 24, 3)
    for h in (K, K.support, f):
        with pytest.raises(ValueError, match="kinked"):
            eval_valuation(spec, h, grid)
    assert abs(eval_valuation(spec, K, grid, sigma_cells=2.0) - 0.343) <= 0.02 * 0.343
    ref = pl_valuation(B, f)
    assert abs(eval_valuation(spec, f, grid, sigma_cells=2.0) - ref) <= 1e-3 * ref


def test_negative_or_atom_smoothing_width_raises_on_every_route():
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    grid = Grid.cube(np.zeros(3), 0.5, 8, 3)
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0, 0])
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    atom_spec = ValuationSpec("R", 3, 2, BumpWeight(v0, 0.5, plateau=0.5), (atom,))
    for call in (lambda: eval_valuation(spec, quadratic(np.eye(3)), grid, sigma_cells=-1.0),
                 lambda: eval_valuation(atom_spec, body.support, sigma_cells=-1.0),
                 lambda: body_valuation(atom_spec, body, sigma_cells=-1.0),
                 lambda: body_valuation(atom_spec, body, sigma_cells=2.0)):
        with pytest.raises(ValueError, match="sigma_cells"):
            call()


@pytest.mark.parametrize("sigma", [1e308, np.float64(1e308), sys.float_info.max, 4.5e307])
def test_a_width_whose_kernel_radius_overflows_raises_value_error(sigma, monkeypatch):
    # 4 sigma + 0.5 is inf, so int() raised OverflowError from the kernel
    # radius; the width check refuses it now with ValueError, before any
    # array is built (the quadrature, which builds them, is never reached)
    assert not math.isfinite(4.0 * float(sigma) + 0.5)
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, plateau=0.7))
    grid = Grid.cube(np.zeros(3), 0.5, 8, 3)
    monkeypatch.setattr(valuation, "_quadrature", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: eval_valuation(spec, quadratic(np.eye(3)), grid, sigma_cells=sigma),
                     lambda: body_valuation(spec, make_two_ball_body(3), grid, sigma_cells=sigma)):
            with pytest.raises(ValueError, match="with a finite kernel reach"):
                call()


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_non_finite_smoothing_width_raises(sigma):
    # NaN passed the < 0 and == 0 checks and took the stencil route, which
    # skipped the kinked-input guard: the R identity spec read 1.85e-34 on
    # the +-0.35 cube at 16^3, where the grid route reads 0.332 at sigma 2.
    # An infinite width raised OverflowError from the kernel radius.
    K = verify._centered_cube(3, 0.35)
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, plateau=0.7))
    grid = Grid.cube(np.zeros(3), 0.5, 16, 3)
    f = PLConvexFunction.from_polytope_support(K)
    for call in (lambda: eval_valuation(spec, f, grid, sigma_cells=sigma),
                 lambda: eval_valuation(spec, K.support, grid, sigma_cells=sigma),
                 lambda: body_valuation(spec, K, grid, sigma_cells=sigma)):
        with pytest.raises(ValueError, match="finite"):
            call()


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
    e = np.eye(3)[axis]
    AB = halfspace_clip(halfspace_clip(K, e, t), -e, -s)
    weight = BumpWeight(np.zeros(3), 0.45, rng.uniform(0.5, 2.0), plateau=0.7)
    vals = [pl_valuation(weight, PLConvexFunction.from_polytope_support(X))
            for X in (A, B, K, AB)]
    assert abs(vals[2] + vals[3] - vals[0] - vals[1]) <= 1e-9 * max(abs(v) for v in vals)


def test_homogeneous_components_constant():
    comps = homogeneous_components(lambda K: 2.5, unit_cube(3), 3)
    assert np.isclose(comps[0], 2.5)
    assert np.abs(comps[1:]).max() <= 1e-9


@pytest.mark.parametrize("max_degree,message", [
    (2.5, "max_degree must be a whole number, got 2.5"),
    (True, "max_degree must be a whole number, got True"),
    (-1, "max_degree must be at least 0, got -1"),
])
def test_homogeneous_components_takes_a_whole_max_degree(max_degree, message):
    # 2.5 solved for 3 components, True for 2, and -1 raised LinAlgError
    with pytest.raises(ValueError, match=re.escape(message)):
        homogeneous_components(lambda K: pytest.fail("phi was called"), unit_cube(3), max_degree)


# ---------------------------------------------------------------------------
# phi(K) = Phi(h_K): one contract for every form of h_K
# ---------------------------------------------------------------------------

def _contract_cases():
    """spec name -> (spec, grid) for a joint support that holds the
    origin, one that avoids it, an atom at e_1 with B near it or with B
    over the origin too, an atom at the origin, and the R identity
    configuration."""
    v0 = np.array([1.0, 0, 0])
    grid = Grid.cube(np.zeros(3), 0.5, 16, 3)
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0)
    at_origin = MatrixAtom(atom.matrix, np.zeros(3))
    identity, identity_grid, _body, _sigma = verify._identity_config("R", None)
    return {
        "origin": (ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, plateau=0.5)), grid),
        "off-origin": (ValuationSpec("R", 3, 3, BumpWeight(np.array([0.25, 0, 0]), 0.18)), grid),
        "atom": (ValuationSpec("R", 3, 2, BumpWeight(v0, 0.5, plateau=0.5), (atom,)), None),
        "atom-wide-B": (ValuationSpec("R", 3, 2, BumpWeight(np.array([0.5, 0, 0]), 0.6),
                                      (atom,)), None),
        "atom-origin": (ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.5), (at_origin,)),
                        None),
        "identity-R": (identity, identity_grid),
    }


_CONTRACT_BODIES = {
    "polytope": lambda: verify._centered_cube(3, 0.35),  # the R identity body
    "ball": lambda: ball_body(3, 0.3),
    "two-ball": lambda: make_two_ball_body(3),
}

# (spec, body, sigma) -> the message of the ValueError every form raises,
# or None where every form returns the same bits
_CONTRACT = {
    ("origin", "polytope", 0.0): "kinked",
    ("origin", "polytope", 2.0): None,
    ("origin", "ball", 0.0): "origin lies inside the joint weight support",
    ("origin", "ball", 2.0): None,
    ("off-origin", "polytope", 0.0): "kinked",
    ("off-origin", "polytope", 2.0): None,
    ("off-origin", "ball", 0.0): None,
    ("off-origin", "ball", 2.0): None,
    ("atom", "polytope", 0.0): "kinked",
    ("atom", "polytope", 2.0): "sigma_cells",
    ("atom", "ball", 0.0): None,
    ("atom", "ball", 2.0): "sigma_cells",
    # the atom's Hessian is read only on its stencil, so B's box may hold
    # the origin; this raised "origin lies inside the joint weight support"
    ("atom-wide-B", "two-ball", 0.0): None,
    ("atom-origin", "ball", 0.0): "origin lies inside",
    ("identity-R", "polytope", 2.0): None,
}


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("spec_name,body_name,sigma", sorted(_CONTRACT))
def test_body_valuation_is_eval_valuation_of_the_support(spec_name, body_name, sigma):
    # body_valuation raised for the ball at the origin spec, where the
    # bound support read 3.45e-5 for B(0) vol = 0.113, and a polytope's
    # bound support was sampled node by node: 3.2e-16 relative off K itself
    # on the R identity configuration
    spec, grid = _contract_cases()[spec_name]
    K = _CONTRACT_BODIES[body_name]()
    forms = [lambda: body_valuation(spec, K, grid, sigma_cells=sigma),
             lambda: eval_valuation(spec, K.support, grid, sigma_cells=sigma)]
    if isinstance(K, Polytope):
        forms.append(lambda: eval_valuation(spec, K, grid, sigma_cells=sigma))
    outcomes = [_outcome(form) for form in forms]
    message = _CONTRACT[spec_name, body_name, sigma]
    if message is None:
        assert all(type(o) is float for o in outcomes), outcomes
        assert len(set(outcomes)) == 1, outcomes
    else:
        assert all(isinstance(o, str) and message in o for o in outcomes), outcomes


@pytest.mark.parametrize("b_center", [0.11, 0.5], ids=["B-at-atom", "B-zero-at-atom"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_an_atom_raises_exactly_when_its_stencil_reaches_the_origin(degree, b_center):
    # the stencil at distance r reaches r - h with h = step (1 + r): the
    # origin at step 0.1 up to r = 1/9, whether the key holds the stencil
    # (degrees 1 and 2 with B nonzero at the atom) or not (degree 0, B = 0)
    ball = ball_body(3, 0.3)
    for r, reaches in ((0.11, True), (0.1125, False)):
        atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), np.array([r, 0, 0]))
        bumps = tuple(MatrixBump(HermitianMatrix("R", np.eye(3)), np.zeros(3), 0.5)
                      for _ in range(2 - degree))
        spec = ValuationSpec("R", 3, degree, BumpWeight(np.array([b_center, 0, 0]), 0.05),
                             (atom,) + bumps)
        for _ in range(2):  # the key's build, then its memo
            if reaches:
                with pytest.raises(ValueError, match="origin lies inside"):
                    eval_valuation(spec, ball.support, step=0.1)
            else:
                assert math.isfinite(eval_valuation(spec, ball.support, step=0.1))


@pytest.mark.parametrize("sigma", [0.0, 1.5])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_f_raises_on_both_routes(bad, sigma):
    # the grid route returned nan without an error
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    grid = Grid.cube(np.zeros(3), 0.5, 16, 3)
    quad = quadratic(np.eye(3))
    f = lambda x: np.where(np.asarray(x)[..., 0] > 0.3, bad, quad(x))
    assert math.isfinite(eval_valuation(spec, quad, grid, sigma_cells=sigma))
    with pytest.raises(FloatingPointError, match="finite"), np.errstate(invalid="ignore"):
        eval_valuation(spec, f, grid, sigma_cells=sigma)  # the products warn on nan


# case id -> (sigma_cells, the bad keyword argument)
_BAD_BEFORE_B = {
    **{f"{sigma}-{step}": (sigma, {"step": step})
       for sigma, step in [(2.0, -1.0), (2.0, math.nan), (2.0, 1e-3), (0.0, -1.0), (0.0, math.nan)]},
    **{f"{sigma}-threads={threads!r}": (sigma, {"threads": threads})
       for sigma in (0.0, 2.0) for threads in (0, -3, 2.5, True, "2", None)},
}


@pytest.mark.parametrize("case", sorted(_BAD_BEFORE_B))
def test_a_bad_step_or_a_step_on_the_grid_route_raises_before_b_is_read(case, monkeypatch):
    # the grid route ignored step: -1.0 or nan gave the value of None; the
    # stencil route checked it only after B had been read.  threads 0, -3,
    # 2.5 and True gave the value of 1 on both routes, and "2" and None a
    # TypeError inside chunked_apply
    sigma, bad = _BAD_BEFORE_B[case]
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    grid = Grid.cube(np.zeros(3), 0.5, 16, 3)
    quad = quadratic(np.eye(3))
    assert math.isfinite(eval_valuation(spec, quad, grid, sigma_cells=sigma, step=None))
    monkeypatch.setattr(BumpWeight, "on_axes", lambda self, axes: pytest.fail("B was read"))
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        eval_valuation(spec, quad, grid, sigma_cells=sigma, **bad)
    if name == "threads" and sigma > 0:  # body_valuation forwards it
        with pytest.raises(ValueError, match=name):
            body_valuation(spec, unit_cube(3, -0.2, 0.2), grid, sigma_cells=sigma, **bad)


_SHIFTS = {"small": np.array([0.3, -0.2, 0.1]), "large": np.array([2.0, 1.0, -3.0])}


def _translation_cases():
    """route -> (phi on bodies, bodies, tolerance, shifts it is gated on):
    the exact and grid routes at 1e-12 for every shift, the stencil
    routes at 1e-9 for |x| <= 1."""
    B = BumpWeight(np.zeros(3), 0.45, plateau=0.7)
    shells = [verify._centered_cube(3, 0.35), random_shell_polytope(np.random.default_rng(3))]
    r_spec, r_grid, _body, r_sigma = verify._identity_config("R", None)
    c_spec, c_grid, c_body, c_sigma = verify._identity_config("C", np.random.default_rng(0))
    v0 = np.array([1.0, 0, 0])
    weights = (MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), v0),
               MatrixBump(HermitianMatrix("R", np.diag([0.0, 1, 0])), v0, 0.5, plateau=0.5))
    parity = ValuationSpec("R", 3, 1, BumpWeight(v0, 0.5, plateau=0.5), weights)
    wide_grid = Grid.cube(v0, 0.075, 12, 3)
    two_ball = [make_two_ball_body(3)]
    return {
        "exact": (lambda K: pl_valuation(B, PLConvexFunction.from_polytope_support(K)),
                  shells, 1e-12, ("small", "large")),
        "grid-R": (lambda K: body_valuation(r_spec, K, r_grid, sigma_cells=r_sigma),
                   shells, 1e-12, ("small", "large")),
        "grid-C": (lambda K: body_valuation(c_spec, K, c_grid, sigma_cells=c_sigma),
                   [c_body], 1e-12, ("small", "large")),
        "atom": (lambda K: body_valuation(parity, K), two_ball, 1e-9, ("small",)),
        "widened-bump": (lambda K: body_valuation(parity.with_atom_widened(0.075), K, wide_grid),
                         two_ball, 1e-9, ("small",)),
    }


@pytest.mark.parametrize("route", ["exact", "grid-R", "grid-C", "atom", "widened-bump"])
def test_body_valuations_are_translation_invariant(route):
    # phi(K + x) = phi(K): h_{K+x} = h_K + <x, .>, and a linear term adds
    # nothing to a Hessian.  Negative control: phi + h_K(e_1) moves by x_1.
    phi, bodies, tol, shifts = _translation_cases()[route]
    for K in bodies:
        base = phi(K)
        e1 = np.eye(K.dim)[0]
        assert base != 0.0
        for name in shifts:
            x = np.resize(_SHIFTS[name], K.dim)
            moved = phi(K.translate(x))
            assert abs(moved - base) <= tol * abs(base), (name, moved, base)
            mutated = (moved + K.translate(x).support(e1)) - (base + K.support(e1))
            assert abs(mutated - x[0]) <= 1e-9 + tol * abs(base)
            assert abs(mutated) > tol * abs(base)  # the gate sees the control


def _complex_as_real(U):
    """The real 2n x 2n matrix of z -> Uz on (Re z_1, Im z_1, ..., Re z_n, Im z_n)."""
    real = np.zeros((2 * len(U), 2 * len(U)))
    for (a, b), z in np.ndenumerate(U):
        real[2 * a:2 * a + 2, 2 * b:2 * b + 2] = [[z.real, -z.imag], [z.imag, z.real]]
    return real


def _symmetry_cases(field):
    """phi(P, M) on the grid route, M, three bodies P, and the maps as
    (g, M moved to the side that keeps phi, [M moved to a wrong side]).
    B and the bump are radial about 0, and each g is a signed permutation
    of the real coordinates, which maps the grid onto itself.

    R (n = 3, i = 2): h_{gP}(x) = h_P(g^T x), so Hess h_{gP} = g H g^T at
    g x, and D(g H g^T [2], M) = D(H [2], g^T M g).  C (the identity
    configuration, n = 2, i = 1): the field Hessian reads
    H_ab = d^2 f / dz_a dzbar_b (``hessian._COEF_C``), so f(U* z) has
    Hessian conj(U) H U^T and M moves to U^T M conj(U).  That is U M U*
    for U = diag(i, 1), and neither U M U* nor U* M U for the U that
    sends (z_1, z_2) to (i z_2, z_1)."""
    if field == "R":
        B = BumpWeight(np.zeros(3), 0.45, 1.0, plateau=0.7)
        grid, sigma = Grid.cube(np.zeros(3), 0.5, 24, 3), 2.0
        M = np.array([[1.0, 0.5, 0.2], [0.5, 0.8, 0.3], [0.2, 0.3, 0.4]])
        g = np.eye(3)[[2, 0, 1]]  # e_0 -> e_1 -> e_2 -> e_0
        maps = [(g, g.T @ M @ g, [g @ M @ g.T])]
        bodies = [random_shell_polytope(np.random.default_rng(seed)) for seed in range(3)]
    else:
        spec, grid, _, sigma = verify._identity_config("C", np.random.default_rng(0))
        B, M = spec.scalar_weight, spec.weights[0].matrix.data
        diag, swap = np.diag([1j, 1.0]), np.array([[0.0, 1j], [1.0, 0.0]])
        maps = []
        for U, wrong in [(diag, [diag.conj().T @ M @ diag]),
                         (swap, [swap.conj().T @ M @ swap, swap @ M @ swap.conj().T])]:
            maps.append((_complex_as_real(U), U.T @ M @ U.conj(), wrong))
        bodies = [random_shell_polytope(np.random.default_rng(seed), dim=4, n_vertices=10,
                                        min_sep=0.6) for seed in range(3)]

    def phi(P, weight):
        bump = MatrixBump(HermitianMatrix(field, weight), np.zeros(P.dim), 0.45, plateau=0.7)
        spec = ValuationSpec(field, len(weight), len(weight) - 1, B, (bump,))
        return body_valuation(spec, P, grid, sigma_cells=sigma)

    return phi, M, bodies, maps


@pytest.mark.parametrize("field", ["R", "C"])
def test_matrix_weights_move_by_the_field_linear_map_of_the_body(field):
    # phi(gP; M) = phi(P; M moved by g), to rounding on the grid route;
    # M moved the other way is off by at least 1e-3 (1.7e-2 to 2.6e-1)
    phi, M, bodies, maps = _symmetry_cases(field)
    for P in bodies:
        for g, moved, wrong in maps:
            value = phi(Polytope(P.vertices @ g.T), M)
            assert abs(phi(P, moved) - value) <= 1e-13 * abs(value)
            for control in wrong:
                assert abs(phi(P, control) - value) >= 1e-3 * abs(value)


def _quartic_convex(d, seed):
    """1/2 x^T Q x + 0.3 sum_k (u_k . x)^4, Q = m m^T + 0.5 I and d unit
    vectors u_k, all random: smooth and convex."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    quad = quadratic(m @ m.T + 0.5 * np.eye(d))
    u = rng.standard_normal((d, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return lambda x: quad(x) + 0.3 * np.sum((np.asarray(x) @ u.T) ** 4, axis=-1)


def test_quaternionic_linear_maps_keep_phi_and_the_other_maps_move_it():
    # H, n = 2, i = 2 on the stencil route, B radial about 0: phi(f o g) =
    # phi(f) to 1e-13 for the signed permutations g of H^2 = R^8 below, and
    # each control moves it by at least 1e-3 (read: 1.7e-2 to 2.3e-1).
    # Which side is H-linear: ``hessian._COEF_H`` reads H_ab as the sum of
    # f_{a mu, b nu} e_mu conj(e_nu), so a left product q_1 -> lam q_1 (a
    # unit lam) gives f o g the Hessian D* H D, D = diag(lam, 1), with the
    # same Moore determinant: H^2 is a right H-module and H-linear maps
    # act by left products.  A right product by one unit on both q_1 and
    # q_2 leaves the Hessian as it is, and q_1 <-> q_2 permutes it.  A right
    # product on q_1 alone turns H_12 into a sum of e_mu conj(lam) conj(e_nu)
    # terms, which is no congruence, and negating one imaginary axis of q_1
    # is not H-linear.
    spec = ValuationSpec("H", 2, 2, BumpWeight(np.zeros(8), 0.45, 1.0, plateau=0.7))
    grid = Grid.cube(np.zeros(8), 0.5, 4, 8)
    basis = np.eye(4)
    _, i, j, _ = basis
    left = lambda q: quat_mul(q, basis).T  # the real matrix of x -> q x
    right = lambda q: quat_mul(basis, q).T  # of x -> x q

    def blocks(g1, g2):
        return np.block([[g1, np.zeros((4, 4))], [np.zeros((4, 4)), g2]])

    keep = [blocks(left(i), np.eye(4)), blocks(left(j), np.eye(4)),
            blocks(right(i), right(i)), np.roll(np.eye(8), 4, axis=0)]
    move = [blocks(right(i), np.eye(4)), blocks(right(j), np.eye(4)),
            np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])]
    for seed in (0, 1):
        f = _quartic_convex(8, seed)
        value = eval_valuation(spec, f, grid, step=1e-3)
        moved = [eval_valuation(spec, lambda x, g=g: f(np.asarray(x) @ g.T), grid, step=1e-3)
                 for g in keep + move]
        for v in moved[:len(keep)]:
            assert abs(v - value) <= 1e-13 * abs(value)
        for v in moved[len(keep):]:
            assert abs(v - value) >= 1e-3 * abs(value)


def test_complex_linear_maps_keep_phi_and_the_other_maps_move_it():
    # C, n = 2, i = 2 on the grid route, B radial about 0: phi(gK) = phi(K)
    # to 1e-13 for the C-linear signed permutations g of C^2 = R^4 below
    # (read: at most 2.9e-16), and each control moves it by at least 1e-3
    # (read: 2.5e-2 to 8.9e-2).
    # ``hessian._COEF_C`` reads the coordinates as (Re z_1, Im z_1, Re z_2,
    # Im z_2).  z_1 -> i z_1 and z_1 <-> z_2 are unitary, so the complex
    # Hessian of h_gK is a unitary congruence of h_K's, with the same
    # determinant; conj z_1 and Re z_1 <-> Re z_2 are orthogonal but not
    # C-linear.  These maps send the grid centred at 0 onto itself, and the
    # Gaussian kernels are symmetric, so the kept values agree to rounding.
    spec = ValuationSpec("C", 2, 2, BumpWeight(np.zeros(4), 0.45, 1.0, plateau=0.7))
    grid = Grid.cube(np.zeros(4), 0.5, 10, 4)
    times_i = np.block([[np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))],
                        [np.zeros((2, 2)), np.eye(2)]])
    keep = [times_i, np.roll(np.eye(4), 2, axis=0)]
    move = [np.diag([1.0, -1.0, 1.0, 1.0]), np.eye(4)[[2, 1, 0, 3]]]
    rng = np.random.default_rng(18)
    for _ in range(3):
        K = random_shell_polytope(rng, dim=4)
        value = body_valuation(spec, K, grid, sigma_cells=1.5)
        moved = [body_valuation(spec, Polytope(K.vertices @ g.T), grid, sigma_cells=1.5)
                 for g in keep + move]
        for v in moved[:len(keep)]:
            assert abs(v - value) <= 1e-13 * abs(value)
        for v in moved[len(keep):]:
            assert abs(v - value) >= 1e-3 * abs(value)


# ---------------------------------------------------------------------------
# smoothed route details
# ---------------------------------------------------------------------------

def test_pl_and_quadrature_routes_agree():
    K = unit_cube(3, -0.35, 0.35)
    weight = BumpWeight(np.zeros(3), 0.45, plateau=0.7)
    exact = pl_valuation(weight, PLConvexFunction.from_polytope_support(K))
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 40, 3)
    quad = body_valuation(spec, K, grid, sigma_cells=2.0)
    assert abs(quad - exact) <= 0.02 * abs(exact)


def test_restriction_locality():
    # shrinking the box to an aligned sub-box containing the weight support
    # only drops exactly-zero integrand cells
    K = unit_cube(3, -0.35, 0.35)
    weight = BumpWeight(np.zeros(3), 0.2)
    spec = ValuationSpec("R", 3, 3, weight)
    big = Grid.cube(np.zeros(3), 0.5, 40, 3)  # cell 0.025
    small = Grid.cube(np.zeros(3), 0.25, 20, 3)  # same spacing, aligned
    v_big = body_valuation(spec, K, big, sigma_cells=2.0)
    v_small = body_valuation(spec, K, small, sigma_cells=2.0)
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
    vals = {body_valuation(spec, K, grid, sigma_cells=2.0, threads=t) for t in (1, 2, 8)}
    assert len(vals) == 1


def test_grid_route_threads_bit_identical_in_4d(monkeypatch):
    # ``threads`` does not split the grid route: one tensor-grid support per
    # evaluation, whatever ``threads`` says
    K = random_shell_polytope(np.random.default_rng(5), dim=4, n_vertices=12)
    spec = ValuationSpec("C", 2, 2, BumpWeight(np.zeros(4), 0.45, plateau=0.6))
    grid = Grid.cube(np.zeros(4), 0.5, 8, 4)
    shapes = []
    support_grid = Polytope.support_grid

    def recording(self, axes):
        shapes.append(tuple(len(a) for a in axes))
        return support_grid(self, axes)

    monkeypatch.setattr(Polytope, "support_grid", recording)
    vals = set()
    for t in (1, 2):
        del shapes[:]
        vals.add(body_valuation(spec, K, grid, sigma_cells=1.5, threads=t))
        # B vanishes on the outer layer of cells: the active box is 6 cells
        # wide, plus the kernel radius 6 per side
        assert shapes == [(6 + 2 * 6,) * 4]
    assert len(vals) == 1


def test_grid_route_bits_do_not_depend_on_blas_threads():
    # the grid route smooths by BLAS matrix products, and at degree 1 builds
    # its kernel K by them; a degree-2 and a degree-1 4D call each give the
    # same bits on one and on two OpenBLAS threads
    code = (
        "import numpy as np\n"
        "from mongeval.algebra import HermitianMatrix\n"
        "from mongeval.convex import random_shell_polytope\n"
        "from mongeval.valuation import (BumpWeight, Grid, MatrixBump, ValuationSpec,\n"
        "                                body_valuation)\n"
        "K = random_shell_polytope(np.random.default_rng(5), dim=4, n_vertices=12)\n"
        "spec = ValuationSpec('C', 2, 2, BumpWeight(np.zeros(4), 0.45, plateau=0.6))\n"
        "grid = Grid.cube(np.zeros(4), 0.5, 16, 4)\n"
        "print(body_valuation(spec, K, grid, sigma_cells=1.5).hex())\n"
        "mat = HermitianMatrix('C', np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]]))\n"
        "bump = MatrixBump(mat, np.zeros(4), 0.45, plateau=0.7)\n"
        "spec = ValuationSpec('C', 2, 1, BumpWeight(np.zeros(4), 0.45, plateau=0.6), (bump,))\n"
        "print(body_valuation(spec, K, grid, sigma_cells=1.5).hex())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    bits = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        bits.add(run.stdout)
    assert len(bits) == 1 and len(bits.pop().split()) == 2


_MOMENT_WIDTHS = [0.125, 0.5, 1.5, 2.0, 3.3]


@pytest.mark.parametrize("sigma", _MOMENT_WIDTHS)
def test_gaussian_kernel_moments(sigma):
    g, g1, g2 = valuation._gaussian_kernels(sigma)
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1.0)
    assert len(g) == len(g1) == len(g2) == 2 * r + 1
    # scipy's weights stay the reference of the numpy formula, bit for bit,
    # on this width and on every fifth of a sweep of 600 widths from 1/8 to
    # 12 cells, which the five cases share
    sweep = np.linspace(0.125, 12.0, 600)[_MOMENT_WIDTHS.index(sigma)::len(_MOMENT_WIDTHS)]
    for s in (sigma, *sweep):
        s = float(s)
        rs = int(4.0 * s + 0.5)
        want = gaussian_filter(np.eye(2 * rs + 1), (s, 0), mode="nearest", radius=rs)[rs]
        assert valuation._gaussian_kernels(s)[0].tobytes() == want.tobytes(), s
    assert np.array_equal(g1, -g1[::-1]) and np.array_equal(g2, g2[::-1])
    for value, target in ((np.sum(g), 1.0), (np.sum(k * g1), 1.0),
                          (np.sum(g2), 0.0), (np.sum(k**2 * g2), 2.0)):
        assert abs(value - target) <= 1e-15


@pytest.mark.parametrize("sigma", [0.1, 0.124])
def test_widths_below_an_eighth_cell_raise_before_sampling(sigma, monkeypatch):
    # r = int(4 sigma + 0.5) = 0: no derivative kernels (g1 and g2 would be 0/0)
    K = random_shell_polytope(np.random.default_rng(3), dim=3)
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    monkeypatch.setattr(Polytope, "support_grid", lambda self, axes: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="1/8 cell"):
        body_valuation(spec, K, Grid.cube(np.zeros(3), 0.5, 12, 3), sigma_cells=sigma)


def _degree_spec(degree):
    """A 4-D grid spec on the degree-1 (H, n = 1) or the degree-2 (C, n = 2)
    grid route."""
    B = BumpWeight(np.zeros(4), 0.45, plateau=0.6)
    return ValuationSpec("H", 1, 1, B) if degree == 1 else ValuationSpec("C", 2, 2, B)


@pytest.mark.parametrize("form", ["polytope", "support", "body_valuation"])
@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("degree", [1, 2])
def test_a_polytope_of_another_dimension_raises_before_sampling(degree, dim, form, monkeypatch):
    # a 3-D polytope on a 4-D degree-1 spec gave a number in every form:
    # support_grid skipped the fourth axis and the product with K broadcast
    # the samples; a 5-D one raised IndexError
    P = random_shell_polytope(np.random.default_rng(2), dim=dim, n_vertices=2 * dim + 2)
    spec, grid = _degree_spec(degree), Grid.cube(np.zeros(4), 0.5, 8, 4)
    monkeypatch.setattr(Polytope, "support_grid", lambda self, axes: pytest.fail("sampled"))
    with pytest.raises(ValueError, match=f"f is a {dim}-dimensional Polytope, but the spec's "
                                         f"real dimension is 4"):
        if form == "body_valuation":
            body_valuation(spec, P, grid, sigma_cells=1.5)
        else:
            eval_valuation(spec, P if form == "polytope" else P.support, grid, sigma_cells=1.5)


@pytest.mark.parametrize("kind", ["SmoothProfileBody", "PLConvexFunction"])
@pytest.mark.parametrize("degree", [1, 2])
def test_a_body_backed_f_of_another_dimension_raises_before_it_is_read(degree, kind):
    # a matmul shape error used to be the first word on it
    if kind == "SmoothProfileBody":
        f = ball_body(3, 0.3).support
    else:
        f = PLConvexFunction.from_polytope_support(
            random_shell_polytope(np.random.default_rng(2), dim=3, n_vertices=8))
    with pytest.raises(ValueError, match=f"f is a 3-dimensional {kind}, but the spec's "
                                         f"real dimension is 4"):
        eval_valuation(_degree_spec(degree), f, Grid.cube(np.zeros(4), 0.5, 8, 4), sigma_cells=1.5)


def _leads_with(axis, dim, seed):
    """A shell clipped twice across ``axis``: ``support_grid`` leads with it."""
    e = np.eye(dim)[axis]
    shell = random_shell_polytope(np.random.default_rng(seed), dim=dim, n_vertices=2 * dim + 2,
                                  min_sep=0.6)
    P = halfspace_clip(halfspace_clip(shell, e, 0.12), -e, 0.08)
    distinct = [len(np.unique(P.vertices[:, b])) for b in range(dim)]
    assert distinct.index(min(distinct)) == axis
    return P


def test_the_degree_one_sum_reads_a_lead_first_view_as_its_contiguous_copy():
    # support_grid returns the lead-first buffer viewed in the axes' order;
    # the products go to a contiguous buffer, so the sum has the bits of
    # the same sum over a C-contiguous copy of the samples
    P, spec, grid = _leads_with(3, 4, 11), _degree_spec(1), Grid.cube(np.zeros(4), 0.5, 8, 4)
    route = valuation._quadrature(spec, grid, 1.5, None)[1]
    assert route.func is valuation._kernel_sum
    axes, kernel = route.keywords["axes"], route.keywords["kernel"]
    samples = P.support_grid(axes)
    assert not samples.flags.c_contiguous and np.moveaxis(samples, 3, 0).flags.c_contiguous
    ref = float((kernel * np.ascontiguousarray(samples)).sum())
    assert eval_valuation(spec, P, grid, sigma_cells=1.5).hex() == ref.hex()


def test_the_degree_two_grid_route_reads_a_lead_first_view_as_its_contiguous_copy(monkeypatch):
    P = _leads_with(2, 3, 12)
    spec = ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.45, plateau=0.6),
                         (MatrixBump(HermitianMatrix("R", np.diag([1.0, 0.6, 0.3])), np.zeros(3),
                                     0.45, plateau=0.7),))
    grid = Grid.cube(np.zeros(3), 0.5, 12, 3)
    assert not P.support_grid([np.linspace(-0.5, 0.5, 6)] * 3).flags.c_contiguous
    got = eval_valuation(spec, P, grid, sigma_cells=2.0)
    support_grid = Polytope.support_grid
    monkeypatch.setattr(Polytope, "support_grid",
                        lambda self, axes: np.ascontiguousarray(support_grid(self, axes)))
    assert got.hex() == eval_valuation(spec, P, grid, sigma_cells=2.0).hex()


def _stencil_hessian(values, spacing, margin):
    """The fourth-order difference stencil the kernel route replaced:
    reach 2 cells, ``margin`` cells cropped per side."""
    d = values.ndim

    def region(shift):
        return tuple(slice(margin + s, size - margin + s) for s, size in zip(shift, values.shape))

    eye = np.eye(d, dtype=int)
    core = values[region(np.zeros(d, dtype=int))]
    H = np.empty(core.shape + (d, d))
    for a in range(d):
        ea = eye[a]
        H[..., a, a] = (-values[region(2 * ea)] + 16.0 * values[region(ea)] - 30.0 * core
                        + 16.0 * values[region(-ea)] - values[region(-2 * ea)]
                        ) / (12.0 * spacing[a] ** 2)
        for b in range(a + 1, d):
            eb = eye[b]
            near, far = (values[region(s * (ea + eb))] - values[region(s * (ea - eb))]
                         - values[region(s * (eb - ea))] + values[region(-s * (ea + eb))]
                         for s in (1, 2))
            H[..., a, b] = H[..., b, a] = (16.0 * near - far) / (48.0 * spacing[a] * spacing[b])
    return H


def _field_hessians_on(spec, f, grid, sigma_cells, active, out):
    """The grid route's field Hessians on the caller's flat boolean
    ``active`` cells: ``_box_integral`` on the ``_grid_box`` of that mask,
    with an integrand that copies its real Hessians into ``out``."""
    box = valuation._grid_box(grid, sigma_cells, active)

    def copy(hreal):
        out[...] = hreal
        return np.zeros(len(hreal))

    valuation._box_integral(f, 1, entries=read_entries(spec.field, spec.real_dim),
                            integrand=copy,
                            weight=np.ones(len(out)), scale=1.0, box=box)
    return assemble_structured(spec.field, out)


def _stencil_route(f, grid, sigma_cells):
    """Gaussian smoothing by scipy on the whole extended grid, then the
    fourth-order stencil: real Hessians on every cell of ``grid``."""
    margin = int(np.ceil(4.0 * sigma_cells)) + 3
    ext = grid.with_margin(margin)
    values = gaussian_filter(f(ext.nodes()).reshape(ext.shape), sigma=sigma_cells,
                             mode="nearest")
    return _stencil_hessian(values, ext.spacing, margin).reshape(-1, grid.dim, grid.dim)


def test_kernel_route_recovers_the_simplex_volume_where_the_stencil_did_not():
    # simplex3's kinks have non-axis normals; the stencil left spurious
    # determinant mass along its normal fan (2.44%), the moment-exact
    # kernels do not (0.47%)
    K = verify.NAMED_BODIES["simplex3"]()
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, plateau=0.7))
    grid = Grid.cube(np.zeros(3), 0.5, 48, 3)
    bvals, vol = spec.scalar_weight(grid.nodes()), hull_volume(K.vertices)

    def rel_err(hreal):
        dets = polarized_det_batch("R", [assemble_structured("R", hreal)] * 3)
        return abs(grid.cell_volume * np.sum(bvals * dets) / vol - 1.0)

    assert rel_err(_stencil_route(K.support, grid, 2.0)) > 0.02
    every = np.ones(grid.n_cells, bool)
    new = rel_err(_field_hessians_on(spec, K, grid, 2.0, every,
                                     np.empty((grid.n_cells, 3, 3))))
    assert new < 0.01
    assert abs(abs(body_valuation(spec, K, grid, sigma_cells=2.0) / vol - 1.0) - new) <= 1e-12


def _grid_hessians_full(spec, f, grid, sigma_cells, margin=None):
    """The full-grid reference: f on every node of a wider margin (r + 3
    by default), each Hessian entry by scipy's line-by-line
    ``correlate1d`` with the route's kernels along every axis, then
    cropped."""
    kernels = valuation._gaussian_kernels(sigma_cells)
    if margin is None:
        margin = len(kernels[0]) // 2 + 3
    ext = grid.with_margin(margin)
    values = f(ext.nodes()).reshape(ext.shape)
    d = grid.dim
    core = tuple(slice(margin, margin + s) for s in grid.shape)
    H = np.empty(grid.shape + (d, d))
    for a in range(d):
        for b in range(a, d):
            out = values
            for c in range(d):
                order = (c == a) + (c == b)
                out = correlate1d(out, kernels[order] / ext.spacing[c] ** order, axis=c,
                                  mode="nearest")
            H[..., a, b] = H[..., b, a] = out[core]
    return assemble_structured(spec.field, H.reshape(-1, d, d))


def _grid_hessians_banded(spec, f, grid, sigma_cells, margin):
    """The kernel route on every node of a wider ``margin``, cropped to
    ``grid``.  The rows the grid keeps hold the same weights against the
    same samples; the wider margin only adds products with exact zeros."""
    kernels = valuation._gaussian_kernels(sigma_cells)
    ext = grid.with_margin(margin)
    values = f(ext.nodes()).reshape(ext.shape)
    extra, d = margin - len(kernels[0]) // 2, grid.dim
    core = tuple(s + 2 * extra for s in grid.shape)
    crop = tuple(slice(extra, extra + s) for s in grid.shape)
    cells = np.arange(math.prod(core)).reshape(core)[crop]
    hreal = grid_hessian(values, ext.spacing, kernels, read_entries("R", d), cells.ravel(),
                         np.empty((cells.size, d, d)))
    return assemble_structured(spec.field, hreal)


_GRID_ROUTE_CASES = [("R", 3, 3, 3, 12), ("C", 2, 2, 4, 6), ("H", 1, 1, 4, 6)]


@pytest.mark.parametrize("sigma", [0.5, 1.5, 2.0])
@pytest.mark.parametrize("field,n,degree,dim,res", _GRID_ROUTE_CASES)
def test_grid_route_matches_full_grid_reference(field, n, degree, dim, res, sigma):
    spec = ValuationSpec(field, n, degree, BumpWeight(np.zeros(dim), 0.45))
    K = random_shell_polytope(np.random.default_rng(dim), dim=dim)
    grid = Grid.cube(np.full(dim, 0.01), 0.5, res, dim)  # no dyadic node coordinates
    new = _field_hessians_on(spec, K.support, grid, sigma, np.ones(grid.n_cells, bool),
                             np.empty((grid.n_cells, dim, dim)))
    ref = _grid_hessians_full(spec, K.support, grid, sigma)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))

    # dyadic spacing: node coordinates are exact at any margin, so the
    # kernel route on a wider margin gives the same bits, and scipy's
    # line-by-line correlation differs only by its summation order;
    # "nearest" never clamps inside what is kept
    dyadic = Grid(np.full(dim, -0.5), np.full(dim, 0.5), (16 if dim == 3 else 8,) * dim)
    new = _field_hessians_on(spec, K.support, dyadic, sigma,
                             np.ones(dyadic.n_cells, bool),
                             np.empty((dyadic.n_cells, dim, dim)))
    ref = _grid_hessians_full(spec, K.support, dyadic, sigma)
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
    wide = int(4.0 * sigma + 0.5) + 3
    assert np.array_equal(new, _grid_hessians_banded(spec, K.support, dyadic, sigma, wide))


@pytest.mark.parametrize("sigma", [0.0, 1.0, 1.5, 2.0])
def test_grid_route_reach_is_exact(sigma):
    # f is never sampled beyond the kernel radius r; the kernel route
    # several cells wider gives the same bits, and scipy's line-by-line
    # correlation the same values up to its summation order.  Below 1/8
    # cell there is no kernel, and f is not sampled at all.
    K = random_shell_polytope(np.random.default_rng(2), dim=3)
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    grid = Grid(np.full(3, -0.5), np.full(3, 0.5), (16,) * 3)
    every, out = np.ones(grid.n_cells, bool), np.empty((grid.n_cells, 3, 3))
    seen = []

    def f(x):
        seen.append(np.array(x))
        return K.support(x)

    if sigma == 0.0:
        with pytest.raises(ValueError):
            _field_hessians_on(spec, f, grid, sigma, every, out)
        assert not seen
        return
    new = _field_hessians_on(spec, f, grid, sigma, every, out)
    pts = np.concatenate(seen)
    outside = np.maximum(grid.lo - pts, pts - grid.hi).max()
    reach = int(4.0 * sigma + 0.5)
    assert reach - 1 < outside / grid.spacing[0] <= reach
    ref = _grid_hessians_full(spec, K.support, grid, sigma, margin=reach + 4)
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
    for extra in (3, 5):
        wide = _grid_hessians_banded(spec, K.support, grid, sigma, reach + extra)
        assert np.array_equal(new, wide)


@pytest.mark.parametrize("field,n,degree,dim,res", _GRID_ROUTE_CASES)
def test_grid_route_active_box_matches_unmasked_route(field, n, degree, dim, res):
    # the masked route samples, smooths and differences only the active
    # cells' box; on the cells it keeps it gives the unmasked route's bits
    spec = ValuationSpec(field, n, degree, BumpWeight(np.full(dim, 0.08), 0.3))
    K = random_shell_polytope(np.random.default_rng(dim), dim=dim)
    grid = Grid.cube(np.zeros(dim), 0.5, 2 * res, dim)
    active = spec.scalar_weight(grid.nodes()) != 0
    assert 0 < np.count_nonzero(active) < grid.n_cells
    for f in (K, K.support):
        full = _field_hessians_on(spec, f, grid, 1.5, np.ones(grid.n_cells, bool),
                                  np.empty((grid.n_cells, dim, dim)))
        masked = _field_hessians_on(spec, f, grid, 1.5, active,
                                    np.empty((np.count_nonzero(active), dim, dim)))
        assert np.array_equal(masked, full[active])


def _grid_hessian_all_entries(values, spacing, kernels):
    """The banded-product route before it read the field: every entry (a,
    b), a <= b, written to both (a, b) and (b, a) of the ``(d, d) + core``
    planes (kept verbatim as the reference)."""
    values = np.asarray(values, dtype=float)
    d = values.ndim
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    width = len(kernels[0])
    H = np.empty((d, d) + tuple(n - width + 1 for n in values.shape))
    partial = {(): values}
    for a, n in enumerate(values.shape):
        rows = np.arange(n - width + 1)[:, None]
        scaled = np.asarray(kernels) / spacing[a] ** np.arange(3.0)[:, None]
        bands = np.zeros((3, len(rows), n))
        bands[:, rows, rows + np.arange(width)] = scaled[:, None, :]
        last, nxt = a == d - 1, {}
        while partial:
            prefix, v = partial.popitem()
            for order in ([2 - sum(prefix)] if last else range(3 - sum(prefix))):
                product = np.tensordot(v, bands[order], axes=(0, 1))
                if last:
                    i, j = np.repeat(np.arange(d), prefix + (order,))
                    H[i, j] = product
                    H[j, i] = product
                else:
                    nxt[prefix + (order,)] = product
        partial = nxt
    return np.moveaxis(H, (0, 1), (-2, -1))


@pytest.mark.parametrize("field,d,products", [
    ("R", 1, 1), ("R", 2, 6), ("R", 3, 15), ("R", 4, 29),
    ("C", 2, 4), ("C", 4, 24), ("H", 4, 13)])
def test_grid_hessian_computes_only_the_entries_the_field_reads(field, d, products, monkeypatch):
    # the entries read are the bits of the all-entry route, the others are
    # exactly 0, and the products are those of the entries read only: each
    # product's row blocks write columns of one (rest, n_out) array, so a
    # block of w columns is w / n_out of a product
    rng = np.random.default_rng(d)
    values = rng.standard_normal(tuple(9 + 5 * a for a in range(d)))  # 1, 6, 11, 16 rows out
    spacing = 0.1 + 0.01 * np.arange(d)
    kernels = valuation._gaussian_kernels(1.0)
    blocks = []  # (columns written, n_out of the product)
    matmul = np.matmul

    def recording(*args, out):
        blocks.append((out.shape[1], out.strides[0] // out.itemsize))
        return matmul(*args, out=out)

    ref = _grid_hessian_all_entries(values, spacing, kernels).reshape(-1, d, d)
    out = hessian._entry_major(len(ref), d)
    monkeypatch.setattr(np, "matmul", recording)
    H = grid_hessian(values, spacing, kernels, read_entries(field, d), np.arange(len(ref)), out)
    monkeypatch.undo()
    assert sum(Fraction(w, n_out) for w, n_out in blocks) == products
    assert all(w > 1 or n_out == 1 for w, n_out in blocks)  # a one-row block would go to gemv
    block = np.arange(d) // FIELD_COMPONENTS[field]  # entries off the diagonal of a block are unread
    read = np.eye(d, dtype=bool) | (block[:, None] != block[None, :])
    assert H[..., read].tobytes() == ref[..., read].tobytes()
    assert not np.any(H[..., ~read])
    assert np.all(H[..., read])


def _field_hessians_previous(spec, f, grid, sigma_cells, active=slice(None)):
    """The grid route before it read only the field's entries (kept as the
    reference): the active box from ``np.nonzero``, every Hessian entry,
    the moved view reshaped and gathered by the boolean mask, and R
    symmetrized."""
    d = grid.dim
    kernels = valuation._gaussian_kernels(sigma_cells)
    r = len(kernels[0]) // 2
    ext = grid.with_margin(r)
    box, keep = [slice(0, s) for s in grid.shape], slice(None)
    if not isinstance(active, slice):
        mask = np.reshape(active, grid.shape)
        box = [slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(mask)]
        keep = mask[tuple(box)].ravel()
    axes = [ext.axis_nodes(a)[s.start:s.stop + 2 * r] for a, s in enumerate(box)]
    if isinstance(f, Polytope):
        values = f.support_grid(axes)
    else:
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        values = f(nodes).reshape(tuple(len(x) for x in axes))
    hreal = _grid_hessian_all_entries(values, ext.spacing, kernels).reshape(-1, d, d)[keep]
    if spec.field == "R":
        return 0.5 * (hreal + np.swapaxes(hreal, -2, -1))
    return assemble_structured(spec.field, hreal)


@pytest.mark.parametrize("field,n,degree,dim,res", _GRID_ROUTE_CASES)
def test_grid_route_hessians_match_the_previous_route_bit_for_bit(field, n, degree, dim, res):
    # fewer entries, the box from per-axis ``any`` and the plane gather
    # change no bit, for a polytope and for a callable, masked or not
    spec = ValuationSpec(field, n, degree, BumpWeight(np.full(dim, 0.08), 0.3, plateau=0.7))
    K = random_shell_polytope(np.random.default_rng(dim + n), dim=dim)
    grid = Grid.cube(np.full(dim, 0.01), 0.5, 2 * res, dim)
    active = spec.scalar_weight(grid.nodes()) != 0
    assert 0 < np.count_nonzero(active) < grid.n_cells
    for f in (K, K.support):
        for sigma in (1.0, 1.5):
            ref = _field_hessians_previous(spec, f, grid, sigma, active)
            new = _field_hessians_on(spec, f, grid, sigma, active,
                                     np.empty((len(ref), dim, dim)))
            assert new.shape == ref.shape
            assert new.tobytes() == ref.tobytes()
    full = _field_hessians_on(spec, K, grid, 1.5, np.ones(grid.n_cells, bool),
                              np.empty((grid.n_cells, dim, dim)))
    assert full.tobytes() == _field_hessians_previous(spec, K, grid, 1.5).tobytes()


@pytest.mark.parametrize("field,dim,res", [("R", 3, 14), ("C", 4, 7)])
def test_plane_gather_matches_reshape_and_keep(field, dim, res):
    # scattered masks, one cell and every cell: the cells gathered from the
    # (d, d) planes are those the moved view's reshape and [keep] picked
    spec = ValuationSpec(field, dim // FIELD_COMPONENTS[field], dim // FIELD_COMPONENTS[field],
                         BumpWeight(np.zeros(dim), 0.45))
    K = random_shell_polytope(np.random.default_rng(7), dim=dim)
    grid = Grid.cube(np.zeros(dim), 0.5, res, dim)
    rng = np.random.default_rng(res)
    one = np.zeros(grid.n_cells, bool)
    one[grid.n_cells // 3] = True
    for active in (rng.random(grid.n_cells) < 0.3, rng.random(grid.n_cells) < 0.9, one,
                   np.ones(grid.n_cells, bool)):
        n_active = np.count_nonzero(active)
        new = _field_hessians_on(spec, K, grid, 1.0, active,
                                 np.empty((n_active, dim, dim)))
        ref = _field_hessians_previous(spec, K, grid, 1.0, active)
        assert len(ref) == n_active
        assert new.tobytes() == ref.tobytes()


_BUMPS = {  # (center, radius, height, plateau), grid (lo, hi, shape)
    "centred-3d": ((0.0, 0.0, 0.0), 0.45, 1.0, 0.0, (-0.5, 0.5, (20, 20, 20))),
    "plateau-3d": ((0.0, 0.0, 0.0), 0.45, 1.0, 0.7, (-0.5, 0.5, (24, 24, 24))),
    "off-centre-3d": ((0.05, -0.1, 0.02), 0.3, 2.5, 0.7, (-0.47, 0.53, (17, 20, 23))),
    "negative-height-3d": ((0.1, 0.0, -0.03), 0.37, -0.6, 0.0, (-0.5, 0.5, (19, 19, 19))),
    "plateau-4d": ((0.0, 0.0, 0.0, 0.0), 0.45, 1.0, 0.7, (-0.5, 0.5, (10, 10, 10, 10))),
    "off-centre-4d": ((0.02, -0.05, 0.1, 0.0), 0.35, 0.3, 0.0, (-0.51, 0.49, (9, 10, 11, 12))),
    "1d": ((0.1,), 0.4, 1.7, 0.5, (-0.5, 0.5, (61,))),
    "2d": ((0.0, 0.2), 0.45, 1.0, 0.7, (-0.5, 0.5, (33, 31))),
    "scalar-centre-3d": ((0.1,), 0.4, 1.0, 0.0, (-0.5, 0.5, (15, 15, 15))),
    "7d": (tuple(np.linspace(-0.05, 0.07, 7)), 0.5, 1.3, 0.6, (-0.5, 0.5, (5, 6, 5, 4, 5, 6, 5))),
    "8d": (tuple(np.linspace(-0.05, 0.07, 8)), 0.5, 1.3, 0.6, (-0.5, 0.5, (4, 5, 4, 4, 5, 4, 4, 4))),
}


@pytest.mark.parametrize("case", sorted(_BUMPS))
def test_bump_call_keeps_the_bits_of_numpys_sum(case):
    # |x - center|^2 by _row_sums, against the np.sum it replaced, on one
    # node and on 10^4 random nodes around the support
    center, radius, height, plateau, (lo, hi, shape) = _BUMPS[case]
    B = BumpWeight(np.array(center), radius, height, plateau)
    rng = np.random.default_rng(len(case))
    nodes = rng.uniform(lo, hi, (10_000, len(shape)))
    for x in (nodes, nodes[3], nodes[:1]):
        ref = B._profile(np.sum((x - B.center) ** 2, axis=-1))
        assert B(x).shape == ref.shape and B(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", sorted(_BUMPS))
def test_bump_on_axes_matches_the_node_array(case, monkeypatch):
    center, radius, height, plateau, (lo, hi, shape) = _BUMPS[case]
    d = len(shape)
    B = BumpWeight(np.array(center), radius, height, plateau)
    grid = Grid(np.full(d, lo), np.full(d, hi), shape)
    values = B.on_axes(grid.axes())
    ref = B(grid.nodes())
    assert 0 < np.count_nonzero(ref) < grid.n_cells
    assert values.shape == ref.shape
    assert np.array_equal(values != 0, ref != 0)
    if d <= 7:
        # + 0.0 makes the -0.0 of a negative height 0.0 and keeps every other bit
        assert values.tobytes() == (ref + 0.0).tobytes()
        return
    # from 8 terms np.sum adds pairwise, by 8 accumulators: the squared
    # distances, read through an identity profile, agree within 4 ulp
    monkeypatch.setattr(BumpWeight, "_profile", lambda self, dist2: dist2)
    dist2 = B.on_axes(grid.axes())
    inside = dist2 != 0
    np.testing.assert_array_max_ulp(dist2[inside], B(grid.nodes())[inside], maxulp=4)


def _ref_profile(B, dist2):
    # BumpWeight._profile before its clip, where and minimum gave way to
    # maximum and fmax, kept as the reference for the bit-for-bit test below
    r = np.sqrt(np.maximum(dist2 / B.radius**2, 0.0))
    if B.plateau > 0:
        r = np.clip((r - B.plateau) / (1.0 - B.plateau), 0.0, None)
    return B.height * np.where(r < 1.0, (1.0 - np.minimum(r, 1.0) ** 2) ** 3, 0.0)


@pytest.mark.parametrize("case", sorted(_BUMPS))
def test_bump_profile_keeps_the_bits_of_its_reference(case):
    # random squared distances, r at 1 and at the plateau's edge and a ulp
    # either side, 0 and inf; points with a NaN coordinate (0.0, or -0.0 for
    # a negative height); and the tensor-grid form up to 7-D
    center, radius, height, plateau, (lo, hi, shape) = _BUMPS[case]
    B = BumpWeight(np.array(center), radius, height, plateau)
    rng = np.random.default_rng(len(case) + 46)
    edges = np.array([radius, plateau * radius])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    dist2 = np.concatenate([rng.uniform(0.0, 1.5 * radius**2, 10_000), edges**2,
                            [radius**2, (plateau * radius) ** 2, 0.0, np.inf]])
    got = B._profile(dist2)
    assert got.tobytes() == _ref_profile(B, dist2).tobytes()
    assert (dist2 / radius**2 == 1.0).any() and (got[-4:-2] == [0.0, height]).all()
    x = rng.uniform(lo, hi, (1_000, len(shape)))
    x[rng.integers(0, len(x), 50), rng.integers(0, len(shape), 50)] = np.nan
    got = B(x)
    assert got.tobytes() == _ref_profile(B, np.sum((x - B.center) ** 2, axis=-1)).tobytes()
    nan_rows = np.isnan(x).any(axis=1)
    assert np.array_equal(got[nan_rows], np.zeros(nan_rows.sum()))
    assert (np.signbit(got[nan_rows]) == (height < 0)).all()
    if len(shape) <= 7:
        grid = Grid(np.full(len(shape), lo), np.full(len(shape), hi), shape)
        ref = _ref_profile(B, np.sum((grid.nodes() - B.center) ** 2, axis=-1)) + 0.0
        assert B.on_axes(grid.axes()).tobytes() == ref.tobytes()


def _factor_on_nodes(weight, nodes, grid, active=slice(None)):
    """A matrix bump's scalar factor on ``nodes[active]``, normalized over
    every node first: the node-array reference of ``_bump_factor``."""
    scal = weight.scalar(nodes if weight.normalize else nodes[active])
    if weight.normalize:
        scal = scal[active] / (float(np.sum(scal)) * grid.cell_volume)
    return scal


def _slot_on_nodes(weight, nodes, grid, active=slice(None)):
    """A matrix bump as the (N, n, n[, c]) slot s * M on ``nodes[active]``,
    as every route built it before the constant matrix M entered the
    polarization on its own (kept as the reference)."""
    scal = _factor_on_nodes(weight, nodes, grid, active)
    data = weight.matrix.data
    return scal.reshape(scal.shape + (1,) * data.ndim) * data[None]


def _hessians_on_nodes(spec, f, grid, nodes, active, sigma_cells, step):
    """The field Hessians at ``nodes[active]``: difference stencils in
    blocks of 8,192 nodes, or the smoothed grid route."""
    if sigma_cells == 0:
        hreal = chunked_apply(lambda b: fd_hessian_batch(f, b, step=step), nodes[active])
        return assemble_structured(spec.field, hreal)
    out = np.empty((np.count_nonzero(active), grid.dim, grid.dim))
    return _field_hessians_on(spec, f, grid, sigma_cells, active, out)


def _eval_broadcast_slots(spec, f, grid, sigma_cells=0.0, step=None):
    """The grid route before matrix weights entered the polarization as
    constant matrices (kept as the reference): B and the matrix bumps on
    ``Grid.nodes``, Hessians at every cell where B != 0, and each bump as
    the broadcast slot s * M there."""
    nodes = grid.nodes()
    bvals = spec.scalar_weight(nodes)
    active = bvals != 0
    slots = []
    if spec.degree > 0:
        slots += [_hessians_on_nodes(spec, f, grid, nodes, active, sigma_cells, step)] * spec.degree
    slots += [_slot_on_nodes(w, nodes, grid, active) for w in spec.weights]
    dets = polarized_det_batch(spec.field, slots)
    scale = math.factorial(spec.n - spec.degree) * grid.cell_volume
    return float(scale * (bvals[active] * dets).sum())


def _weight_on_nodes(spec, grid):
    """B times every matrix bump's factor on ``Grid.nodes``."""
    nodes = grid.nodes()
    weight = spec.scalar_weight(nodes)
    for w in spec.weights:
        weight = weight * _factor_on_nodes(w, nodes, grid)
    return weight


def _eval_on_nodes(spec, f, grid, sigma_cells=0.0, step=None):
    """The grid route of ``eval_valuation`` on ``Grid.nodes``: B times each
    matrix bump's factor, Hessians where that product is nonzero, and the
    constant matrices as slots."""
    nodes = grid.nodes()
    weight = _weight_on_nodes(spec, grid)
    active = weight != 0
    slots = []
    if spec.degree > 0:
        slots += [_hessians_on_nodes(spec, f, grid, nodes, active, sigma_cells, step)] * spec.degree
    slots += [w.matrix.data for w in spec.weights]
    dets = polarized_det_batch(spec.field, slots)
    scale = math.factorial(spec.n - spec.degree) * grid.cell_volume
    return float(scale * (weight[active] * dets).sum())


def _no_nodes(self):
    raise AssertionError("the grid route built a node array")


@pytest.mark.parametrize("d,res", [(3, 14), (4, 8)])
def test_normalized_bump_on_the_tensor_axes_keeps_the_node_array_total(d, res):
    # the bump's exact zeros fill every cell, so the pairwise sum that
    # normalizes it has the node array's bits (summing only its mask
    # would not, on these grids)
    grid = Grid.cube(np.zeros(d), 0.5, res, d)
    mat = HermitianMatrix("R", np.diag(np.arange(1.0, d + 1.0)))
    weight = MatrixBump(mat, np.full(d, 0.013), 0.45 + 0.04 * (d == 3), normalize=True)
    scal = weight.scalar(grid.nodes())
    assert np.sum(scal[scal != 0]) != np.sum(scal)
    active = np.random.default_rng(d).random(grid.n_cells) < 0.5
    got = valuation._bump_factor(weight, grid)[active]
    ref = _factor_on_nodes(weight, grid.nodes(), grid, active)
    assert got.tobytes() == ref.tobytes()


def _tensor_route_specs():
    specs = dict(_active_cell_specs())
    for field in "RCH":
        spec, grid, _body, _sigma = verify._identity_config(field, np.random.default_rng(1))
        specs[f"identity-{field}"] = (spec, Grid.cube(np.zeros(grid.dim), 0.5, 8 + grid.dim, grid.dim))
    return specs


@pytest.mark.parametrize("case", ["R", "C", "identity-C", "identity-H", "identity-R"])
def test_grid_route_builds_no_nodes_and_matches_the_node_route(case, monkeypatch):
    # B and the matrix bumps on the tensor axes give the node route's
    # weights bit for bit, and the smoothed route never calls Grid.nodes;
    # the value, <K, samples> at degree 1 and the polynomial form of the
    # Hessians above it (sums in another order), is within 1e-13
    spec, grid = _tensor_route_specs()[case]
    K = random_shell_polytope(np.random.default_rng(3), dim=grid.dim)
    ref = _eval_on_nodes(spec, K, grid, sigma_cells=1.5)
    weight = _weight_on_nodes(spec, grid)
    monkeypatch.setattr(Grid, "nodes", _no_nodes)
    clear_quadrature()
    got = eval_valuation(spec, K, grid, sigma_cells=1.5)
    assert valuation._quadrature(spec, grid, 1.5, None)[0].tobytes() == weight[weight != 0].tobytes()
    assert ref != 0.0
    assert abs(got - ref) <= 1e-13 * abs(ref)


def _stencil_route_cases():
    """(spec, f, grid, step): H's linear-invariance case on 8^4,
    parity-break's normalized-bump spec on 12^3 and the R active-cell
    spec on 14^3."""
    h_spec, h_grid, h_fn, _x0 = verify._invariance_case("H", np.random.default_rng(0))
    parity_spec, body, _step = _atom_cases()[0]
    v0 = np.array([1.0, 0, 0])
    r_spec, r_grid = _active_cell_specs()["R"]
    quad = quadratic(np.diag([1.0, 2.0, 3.0]))
    return {"linear-invariance-H": (h_spec, h_fn, h_grid, 1e-3),
            "parity-bump": (parity_spec.with_atom_widened(0.15), body, Grid.cube(v0, 0.15, 12, 3),
                            None),
            "active-R": (r_spec, lambda x: quad(x) + 0.3 * np.sum(np.asarray(x) ** 4, axis=-1),
                         r_grid, None)}


@pytest.mark.parametrize("case", ["linear-invariance-H", "parity-bump", "active-R"])
def test_stencil_route_builds_no_nodes_and_matches_the_node_route(case, monkeypatch):
    # the stencils run at the active midpoints gathered from the axes; H
    # (n = 1, where the linear form is the determinant term for term) keeps
    # the node route's bits, and the degree-1 specs with n = 3, whose linear
    # form sums in another order than the polarization, are within 1e-13
    spec, f, grid, step = _stencil_route_cases()[case]
    ref = _eval_on_nodes(spec, f, grid, step=step)
    monkeypatch.setattr(Grid, "nodes", _no_nodes)
    got = eval_valuation(spec, f, grid, step=step)
    assert ref != 0.0
    if case == "linear-invariance-H":
        assert got.hex() == ref.hex()
    else:
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _parity_spec(n, i):
    """parity-break's spec: a unit-diagonal atom E_1 at e_1 and unit
    diagonal bumps E_2, ..., E_{n-i} there, B = 1 near e_1."""
    v0 = np.eye(n)[0]
    unit = [HermitianMatrix("R", np.diag(e)) for e in np.eye(n)]
    weights = [MatrixAtom(unit[0], v0)]
    weights += [MatrixBump(unit[l], v0, 0.5, plateau=0.5) for l in range(1, n - i)]
    return ValuationSpec("R", n, i, BumpWeight(v0, 0.5, 1.0, plateau=0.5), tuple(weights))


@pytest.mark.parametrize("n,i", [(3, 1), (3, 2), (4, 2), (5, 1), (5, 3)])
def test_a_parity_form_reads_one_principal_minor(n, i):
    # D(H [i], E_1, ..., E_{n-i}) is the minor of the last i axes: its
    # entries a <= b with a >= n - i, 1 of 6 at (3, 1), 3 of 6 at (3, 2), 3
    # of 10 at (4, 2), 1 of 15 at (5, 1) and 6 of 15 at (5, 3)
    want = tuple(a * n + b for a in range(n - i, n) for b in range(a, n))
    assert form_entries(_parity_spec(n, i)) == want


def test_identity_and_invariance_forms_read_every_field_entry():
    # their weights are not diagonal units, so each form reads every entry
    # its field reads: 6, 8 and 4 for the identity specs R, C and H, and
    # 6, 8, 4 and 80 for the linear-invariance specs R, C, H and O2
    rng = np.random.default_rng(0)
    specs = [verify._identity_config(f, rng)[0] for f in ("R", "C", "H")]
    specs += [verify._invariance_case(f, rng)[0] for f in ("R", "C", "H", "O2")]
    for spec, count in zip(specs, (6, 8, 4, 6, 8, 4, 80)):
        assert form_entries(spec) == tuple(read_entries(spec.field, spec.real_dim).tolist())
        assert len(form_entries(spec)) == count


def _stencil_values(monkeypatch):
    """Each Hessian formation from here on, on the stencil route (through
    ``fd_hessian_batch``) and on the atom route alike, as (nodes, values of
    f it reads): ``_stencil_hessians`` takes f's values at every point of
    the call's stencils and the nodes' steps h."""
    calls = []

    def wrap(route):
        def recording(vals, h, d, axes, a, b):
            calls.append((len(h), np.size(vals)))
            return route(vals, h, d, axes, a, b)
        return recording

    for module in (hessian, valuation):
        monkeypatch.setattr(module, "_stencil_hessians", wrap(module._stencil_hessians))
    return calls


@pytest.mark.parametrize("run,points", [
    (lambda: verify.parity_break(dim=3, degree=1), 3),
    (lambda: verify.parity_break(dim=3, degree=2), 9),
    (lambda: verify.linear_invariance(fields="H", trials=1), 9),
    (lambda: verify.linear_invariance(fields="R", trials=1), 19),
    (lambda: verify.linear_invariance(fields="C", trials=1), 25),
    (lambda: verify.linear_invariance(fields="O2", trials=1), 289)],
    ids=["parity-3-1", "parity-3-2", "invariance-H", "invariance-R", "invariance-C",
         "invariance-O2"])
def test_a_stencil_call_evaluates_f_at_the_points_of_its_form(run, points, monkeypatch):
    # f is read at 1 + 2 D + 4 P points a node for the D diagonal and P
    # other entries of the form, on the stencil route's blocks and at an
    # atom's one node: parity-break's minor costs 3 points a node at degree
    # 1 and 9 at degree 2, where every R entry took 19; R, C and O2's
    # linear-invariance specs are atoms, H's a grid
    calls = _stencil_values(monkeypatch)
    run()
    assert calls
    for nodes, fevals in calls:
        assert fevals == nodes * points


@pytest.mark.parametrize("degree", [1, 2])
def test_stencil_route_calls_f_one_block_at_a_time(degree):
    # parity-break --dim 5 differences 41,856 nodes x 3 stencil points (its
    # form reads f_55 alone) x 5 coordinates, 5.0 MB in one call of f against
    # 1.0 MB per block of 8,192 nodes (85 MB when every entry took its 51
    # points); its 4-D spec widened to 0.15 on 16^4 has 20,352 nodes where B
    # and every matrix bump are nonzero, x 3 points for the one entry f_44 at
    # degree 1 and 9 for f_33, f_34 and f_44 at degree 2 (33 for all 10).  At
    # degree 2 each block's polynomial is evaluated on its own, and on these
    # unit-diagonal weights has the bits of the route that polarized all the
    # nodes at once
    n = 4
    v0 = np.eye(n)[0]
    unit = [HermitianMatrix("R", np.diag(e)) for e in np.eye(n)]
    weights = [MatrixAtom(unit[0], v0)]
    weights += [MatrixBump(unit[l], v0, 0.5, plateau=0.5) for l in range(1, n - degree)]
    spec = ValuationSpec("R", n, degree, BumpWeight(v0, 0.5, 1.0, plateau=0.5), tuple(weights))
    spec = spec.with_atom_widened(0.15)
    grid = Grid.cube(v0, 0.15, 16, n)
    body = make_two_ball_body(n)
    sizes = []

    def recording(x):
        sizes.append(len(x))
        return body.support(x)

    value = eval_valuation(spec, recording, grid)
    points = stencil_points(spec)
    assert points == {1: 3, 2: 9}[degree]
    assert sum(sizes) == np.count_nonzero(_weight_on_nodes(spec, grid)) * points
    assert len(sizes) >= 2
    assert max(sizes) <= 8192 * points
    if degree == 2:
        ref = _eval_before_memo(spec, body.support, grid)
        assert ref != 0.0
        assert value.hex() == ref.hex()


@pytest.mark.parametrize("case", ["R", "C", "identity-C", "identity-H", "identity-R",
                                  "parity-bump", "active-R"])
def test_constant_matrix_slots_match_the_broadcast_slot_route(case):
    # each matrix bump s * M enters the polarization as M, and s joins B;
    # on these n <= 3 specs the broadcast-slot route is accurate
    if case in ("parity-bump", "active-R"):
        spec, f, grid, step = _stencil_route_cases()[case]
        sigma_cells = 0.0
    else:
        spec, grid = _tensor_route_specs()[case]
        f, step, sigma_cells = random_shell_polytope(np.random.default_rng(3), dim=grid.dim), None, 1.5
    ref = _eval_broadcast_slots(spec, f, grid, sigma_cells=sigma_cells, step=step)
    got = eval_valuation(spec, f, grid, sigma_cells=sigma_cells, step=step)
    assert ref != 0.0
    assert abs(got - ref) <= 1e-13 * abs(ref)


def _det_exact(m):
    """Leibniz determinant of a square list of Fractions."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += sign * math.prod(m[a][perm[a]] for a in range(n))
    return total


def _mixed_det_exact(mats):
    """Mixed determinant of n square lists of Fractions by inclusion-exclusion."""
    n = len(mats)
    total = Fraction(0)
    for r in range(1, n + 1):
        for subset in itertools.combinations(mats, r):
            acc = [[sum((m[a][b] for m in subset), Fraction(0)) for b in range(n)]
                   for a in range(n)]
            total += (-1) ** (n - r) * _det_exact(acc)
    return total / math.factorial(n)


def _full_rank_4d_relative_error(first_scale, degree=1):
    """The relative error of the n = 4 stencil value of ``degree`` with
    full-rank weights (the first 4 - degree of three), the first M times
    ``first_scale``, against the same midpoint sum in rationals."""
    n = 4
    rng = np.random.default_rng(2)

    def spd():
        m = rng.standard_normal((n, n))
        return HermitianMatrix("R", m @ m.T / n + 0.5 * np.eye(n))

    c = np.array([0.02, -0.01, 0.015, 0.0])
    first = HermitianMatrix("R", first_scale * spd().data)
    weights = (MatrixBump(first, c, 0.28, normalize=True), MatrixBump(spd(), -c, 0.45, plateau=0.5),
               MatrixBump(spd(), np.zeros(n), 0.4))[:n - degree]
    spec = ValuationSpec("R", n, degree, BumpWeight(np.zeros(n), 0.45, plateau=0.3), weights)
    grid = Grid.cube(np.zeros(n), 0.5, 8, n)
    quad = quadratic(spd().data)
    f = lambda x: quad(x) + 0.3 * np.sum(np.asarray(x) ** 4, axis=-1)
    got = eval_valuation(spec, f, grid)

    # the same midpoint sum in rationals: B, the factors and the Hessians are
    # the route's floats, and with U_ab = E_ab + E_ba (a < b) and U_aa = E_aa,
    # D(H [i], M_1, ...) is the sum over i-tuples of entries a <= b of prod
    # H_ab D(U_ab, ..., M_1, ...), which is symmetric in the U_ab
    nodes = grid.nodes()
    cell = Fraction(grid.cell_volume)
    weight = [Fraction(x) for x in spec.scalar_weight(nodes).tolist()]
    for w in weights:
        scal = [Fraction(x) for x in w.scalar(nodes).tolist()]
        if w.normalize:
            mass = sum(scal) * cell
            scal = [x / mass for x in scal]
        weight = [a * b for a, b in zip(weight, scal)]
    active = np.array([x != 0 for x in weight])
    assert np.max(_factor_on_nodes(weights[0], nodes, grid)) > 200
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    hess = [[Fraction(h[a][b]) for a, b in pairs] for h in fd_hessian_batch(f, nodes[active])
            .tolist()]
    mats = [[[Fraction(x) for x in row] for row in w.matrix.data.tolist()] for w in weights]
    unit = lambda e: [[Fraction(int({r, s} == set(pairs[e]))) for s in range(n)] for r in range(n)]
    coef = {key: _mixed_det_exact([unit(e) for e in key] + mats)
            for key in itertools.combinations_with_replacement(range(len(pairs)), degree)}
    tuples = [(t, coef[tuple(sorted(t))])
              for t in itertools.product(range(len(pairs)), repeat=degree)]
    total = sum(wk * sum(math.prod(h[e] for e in t) * ct for t, ct in tuples)
                for wk, h in zip((x for x in weight if x != 0), hess))
    exact = math.factorial(n - degree) * cell * total
    return abs(Fraction(got) - exact) / abs(exact)


def test_full_rank_matrix_weights_in_4d_match_an_exact_rational_sum():
    # n = 4, i = 1 with full-rank weights and a normalized bump whose factor
    # reaches 213: the broadcast slots s * M made the polarization cancel
    # terms of order s^3 and read 3.5e-10 relative off the exact sum
    assert _full_rank_4d_relative_error(1.0) <= Fraction(1, 10**12)


@pytest.mark.parametrize("degree", [1, 2])
def test_a_matrix_weight_of_norm_1e3_keeps_the_exact_rational_sum(degree):
    # the same spec with its first M times 1e3: the polynomial form
    # polarizes unit Hessians against the weights, so without scaling each M
    # by a power of two near its norm it read about 1e-7 relative off the
    # exact sum at degree 1; at degree 2, polarizing each node's assembled
    # Hessian against the unscaled weights read 8.3e-8
    assert _full_rank_4d_relative_error(1e3, degree) <= Fraction(1, 10**12)


def test_hessians_only_where_b_and_every_matrix_bump_are_nonzero():
    # parity-break's widened 3-D spec: B is nonzero on all 12^3 cells, the
    # normalized bump on fewer; f is differenced only where both are
    spec, body, grid, _step = _stencil_route_cases()["parity-bump"]
    weight = _weight_on_nodes(spec, grid)
    assert np.all(spec.scalar_weight(grid.nodes()) != 0) and np.any(weight == 0)
    rows = []

    def recording(x):
        rows.append(len(x))
        return body(x)

    ref = eval_valuation(spec, recording, grid)
    assert stencil_points(spec) == 3  # the form reads f_33 alone; 19 for every entry
    assert sum(rows) == np.count_nonzero(weight) * 3
    # a NaN in the stencil of a corner cell, where only the bump vanishes
    corner = grid.nodes()[0]
    assert weight[0] == 0

    def nan_at_corner(x):
        out = body(x)
        out[np.linalg.norm(x - corner, axis=-1) < 0.01] = np.nan
        return out

    assert eval_valuation(spec, nan_at_corner, grid).hex() == ref.hex()


def test_zero_b_on_every_cell_returns_before_any_matrix_weight_is_read():
    # an 8-D H spec whose B and normalized bump miss every node: B is read
    # first, so the bump's zero mass never raises
    grid = Grid.cube(np.zeros(8), 0.5, 4, 8)
    bump = MatrixBump(HermitianMatrix.identity("H", 2), np.zeros(8), 0.2, normalize=True)
    spec = ValuationSpec("H", 2, 1, BumpWeight(np.zeros(8), 0.2), (bump,))

    def never(x):
        raise AssertionError("f was evaluated")

    assert eval_valuation(spec, never, grid) == 0.0
    assert eval_valuation(spec, never, grid, sigma_cells=1.0) == 0.0


def test_scalar_weight_must_be_a_bump_and_its_support_is_guarded():
    # a callable B skipped both support guards: on |x|^2 / 2 it read 0.0551
    # on a box too small for its support (0.0582 on one that holds it), and
    # on the unit ball at sigma_cells = 0, where h_K is kinked at the
    # origin, about 0.001 for B(0) vol = 4.19
    B = BumpWeight(np.zeros(1), 0.45)
    with pytest.raises(TypeError, match="BumpWeight"):
        ValuationSpec("R", 3, 3, lambda x: B(x))
    spec = ValuationSpec("R", 3, 3, B)
    with pytest.raises(ValueError, match="joint weight support exceeds the quadrature box"):
        eval_valuation(spec, quadratic(np.eye(3)), Grid.cube(np.zeros(3), 0.3, 12, 3))
    from mongeval.convex import ball_body

    with pytest.raises(ValueError, match="origin lies inside the joint weight support"):
        body_valuation(spec, ball_body(3), Grid.cube(np.zeros(3), 0.5, 12, 3))


# the tensor-grid support against the node-array route: bodies by name
_POLYTOPE_CASES = {
    "shell3": lambda rng: random_shell_polytope(rng, dim=3),
    "shell4": lambda rng: random_shell_polytope(rng, dim=4, n_vertices=12),
    "clipped3": lambda rng: halfspace_clip(halfspace_clip(
        random_shell_polytope(rng, dim=3), np.eye(3)[0], 0.1), -np.eye(3)[0], 0.1),
    "clipped4": lambda rng: halfspace_clip(halfspace_clip(
        random_shell_polytope(rng, dim=4, n_vertices=12), np.eye(4)[2], 0.15), -np.eye(4)[2], 0.05),
    "one-vertex": lambda rng: Polytope(np.array([[0.2, -0.1, 0.05]])),
    "segment-1d": lambda rng: Polytope(np.array([[-0.2], [0.3]])),
}


@pytest.mark.parametrize("sigma", [0.5, 1.5])
@pytest.mark.parametrize("case", sorted(_POLYTOPE_CASES))
def test_grid_route_polytope_path_matches_callable_path(case, sigma):
    K = _POLYTOPE_CASES[case](np.random.default_rng(11))
    d = K.dim
    field, n = ("C", 2) if d == 4 else ("R", d)
    spec = ValuationSpec(field, n, n, BumpWeight(np.zeros(d), 0.45))
    grid = Grid.cube(np.full(d, 0.01), 0.5, {1: 40, 3: 12, 4: 6}[d], d)
    every = np.ones(grid.n_cells, bool)
    new = _field_hessians_on(spec, K, grid, sigma, every,
                             np.empty((grid.n_cells, d, d)))
    ref = _field_hessians_on(spec, K.support, grid, sigma, every,
                             np.empty((grid.n_cells, d, d)))
    # the largest entry; a linear h (one vertex) has only rounding noise
    # there, so its floor is the second difference |v| / cell of a kink
    scale = max(np.max(np.abs(ref)), np.abs(K.vertices).max() / grid.spacing.min())
    assert np.max(np.abs(new - ref)) <= 1e-12 * scale


def test_grid_route_in_one_dimension_through_the_public_api():
    # h of the segment [a, b] is max(a x, b x): h'' = (b - a) delta_0, so the
    # degree-1 valuation is B(0) (b - a), here with B = 1 near 0
    K = _POLYTOPE_CASES["segment-1d"](None)
    spec = ValuationSpec("R", 1, 1, BumpWeight(np.zeros(1), 0.45, plateau=0.6))
    grid = Grid.cube(np.zeros(1), 0.5, 64, 1)
    value = body_valuation(spec, K, grid, sigma_cells=1.5)
    assert abs(value - 0.5) <= 1e-9
    ref = eval_valuation(spec, K.support, grid, sigma_cells=1.5)
    assert value == ref  # in 1-D both routes compute 0.0 + v x, the same bits


def _eval_unmasked(spec, f, grid, smooth, sigma_cells=1.5):
    """The route before active cells: Hessians, slot values and
    determinants on every cell, B times det summed over the whole grid."""
    nodes = grid.nodes()
    bvals = spec.scalar_weight(nodes)
    if smooth:
        hf = assemble_structured(spec.field, fd_hessian_batch(f, nodes))
    else:
        hf = _field_hessians_on(spec, f, grid, sigma_cells, np.ones(grid.n_cells, bool),
                                np.empty((grid.n_cells, grid.dim, grid.dim)))
    slots = [hf] * spec.degree
    slots += [_slot_on_nodes(w, nodes, grid) for w in spec.weights]
    dets = polarized_det_batch(spec.field, slots)
    scale = math.factorial(spec.n - spec.degree) * grid.cell_volume
    return float(scale * np.sum(bvals * dets))


def _active_cell_specs():
    """An R spec whose normalized matrix bump reaches past B, and a C spec."""
    wide = MatrixBump(HermitianMatrix("R", np.diag([1.0, 0.5, 0.2])), np.zeros(3), 0.49,
                      normalize=True)
    narrow = MatrixBump(HermitianMatrix("R", np.diag([0.3, 1.0, 0.6])), np.zeros(3), 0.4)
    r_spec = ValuationSpec("R", 3, 1, BumpWeight(np.zeros(3), 0.3, plateau=0.5), (wide, narrow))
    cmat = HermitianMatrix("C", np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]]))
    c_spec = ValuationSpec("C", 2, 1, BumpWeight(np.zeros(4), 0.35, plateau=0.7),
                           (MatrixBump(cmat, np.zeros(4), 0.45, normalize=True),))
    return {"R": (r_spec, Grid.cube(np.zeros(3), 0.5, 14, 3)),
            "C": (c_spec, Grid.cube(np.zeros(4), 0.5, 8, 4))}


@pytest.mark.parametrize("smooth", [True, False])
@pytest.mark.parametrize("field", ["R", "C"])
def test_active_cells_match_unmasked_reference(field, smooth):
    spec, grid = _active_cell_specs()[field]
    d = grid.dim
    rng = np.random.default_rng(4)
    m = rng.standard_normal((d, d))
    Q = m @ m.T + 0.5 * np.eye(d)
    quad = quadratic(Q)
    f = (lambda x: quad(x) + 0.3 * np.sum(np.asarray(x) ** 4, axis=-1)) if smooth else \
        random_shell_polytope(rng, dim=d)
    if not smooth:
        assert np.count_nonzero(spec.scalar_weight(grid.nodes())) < grid.n_cells
    got = eval_valuation(spec, f, grid, sigma_cells=0.0 if smooth else 1.5)
    ref = _eval_unmasked(spec, f if smooth else f.support, grid, smooth)
    assert ref != 0.0
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_non_finite_f_raises_only_on_active_cells():
    # B vanishes for |x| >= 0.3; nan beyond x_0 = 0.45 touches only the
    # stencils of inactive nodes, nan beyond x_0 = 0 touches active ones
    spec, grid = _active_cell_specs()["R"]
    quad = quadratic(np.diag([1.0, 2.0, 3.0]))

    def poisoned(edge):
        return lambda x: np.where(np.asarray(x)[..., 0] > edge, np.nan, quad(x))

    assert eval_valuation(spec, poisoned(0.45), grid) == eval_valuation(spec, quad, grid)
    with pytest.raises(FloatingPointError):
        eval_valuation(spec, poisoned(0.0), grid)


def test_chunked_apply_order_independent_of_threads():
    pts = np.arange(300000, dtype=float)[:, None]
    sizes = []

    def fn(b):
        sizes.append(len(b))
        return np.sin(b[:, 0])

    a = chunked_apply(fn, pts, threads=1)
    assert sizes == [8192] * 36 + [5088]  # fixed blocks of 8,192 rows
    b = chunked_apply(fn, pts, threads=6)
    assert sorted(sizes[37:]) == sorted(sizes[:37])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2", None])
def test_chunked_apply_rejects_a_bad_thread_count(threads):
    # 0, -3, True and 1.5 ran sequentially without a word, and "2" and
    # None raised TypeError even for one block
    with pytest.raises(ValueError, match="threads must be"):
        chunked_apply(lambda b: pytest.fail("fn was called"), np.zeros((3, 1)), threads=threads)


@pytest.mark.parametrize("plateau", [-0.1, 1.0, 1.5])
def test_matrix_bump_rejects_plateau_outside_unit_interval(plateau):
    # with plateau 1.5 the profile was 0 at the center and 0.26 at r = 0.6,
    # outside the declared support
    with pytest.raises(ValueError, match="plateau"):
        MatrixBump(HermitianMatrix.identity("R", 3), np.zeros(3), 0.5, plateau=plateau)


@pytest.mark.parametrize("name,value", [("radius", math.nan), ("radius", math.inf),
                                        ("height", math.nan), ("height", -math.inf)])
def test_bump_weights_reject_non_finite_parameters(name, value):
    # a NaN radius made eval_valuation return 0.0 without an error, and a
    # NaN height returned nan; MatrixBump builds its scalar as a
    # BumpWeight, so it rejects the same radius (the center's rule is
    # ``test_value_objects_keep_finite_read_only_copies``)
    args = {"center": np.zeros(3), "radius": 0.45, "height": 1.0}
    args[name] = value
    with pytest.raises(ValueError, match="finite"):
        BumpWeight(**args)
    if name != "height":
        with pytest.raises(ValueError, match="finite"):
            MatrixBump(HermitianMatrix.identity("R", 3), args["center"], args["radius"])


def test_a_spec_takes_bump_centers_of_size_one_or_its_real_dimension():
    # a 3-D B center on a 4-D H spec died in numpy's broadcast of (3,)
    # against (4,); a matrix bump's center had no check at all
    with pytest.raises(ValueError, match="BumpWeight dimension 3 != real dimension 4"):
        ValuationSpec("H", 1, 1, BumpWeight(np.zeros(3), 0.4))
    mat = HermitianMatrix.identity("C", 2)
    with pytest.raises(ValueError, match="MatrixBump dimension 2 != real dimension 4"):
        ValuationSpec("C", 2, 1, BumpWeight(np.zeros(4), 0.4),
                      (MatrixBump(mat, np.zeros(2), 0.4),))
    # a size-1 center broadcasts (``on_axes``), as a full one of equal
    # coordinates does
    grid = Grid.cube(np.zeros(4), 0.5, 6, 4)
    f = lambda x: np.sum(np.asarray(x) ** 2, axis=-1) + np.asarray(x)[:, 0] ** 4
    values = [eval_valuation(ValuationSpec("C", 2, 1, BumpWeight(c, 0.4),
                                           (MatrixBump(mat, c, 0.45),)), f, grid)
              for c in (0.0, np.zeros(4))]
    assert values[0] != 0.0 and values[0] == values[1]


@pytest.mark.parametrize("size", [1, 2, 4])
def test_a_spec_checks_its_atom_location_dimension(size):
    # the check eval_valuation made on every call is the spec's own, in the
    # one place with the bump centers' check; an atom does not broadcast
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0, 0])), np.zeros(size))
    with pytest.raises(ValueError, match=f"MatrixAtom dimension {size} != real dimension 3"):
        ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.4), (atom,))


@pytest.mark.parametrize("weight", [BumpWeight(np.zeros(3), 0.4), HermitianMatrix.identity("R", 3),
                                    None])
def test_matrix_weights_are_bumps_or_atoms(weight):
    # a BumpWeight in a matrix slot died with AttributeError on .matrix
    with pytest.raises(TypeError, match="MatrixBump or a MatrixAtom"):
        ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.4), (weight,))


def test_matrix_bump_scalar_is_the_unit_bump():
    bump = MatrixBump(HermitianMatrix.identity("R", 3), [0.1, 0.0, -0.2], 0.5, 0.4, True)
    ref = BumpWeight(np.array([0.1, 0.0, -0.2]), 0.5, plateau=0.4)
    x = np.random.default_rng(2).uniform(-0.5, 0.5, (200, 3))
    assert np.array_equal(bump.scalar(x), ref(x))
    assert np.array_equal(bump.center, ref.center) and bump.normalize


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


def test_a_point_atom_beside_a_normalized_bump_is_rejected_at_construction():
    # a normalized bump is normalized on the quadrature grid, and an atom
    # spec has none; widening the atom gives a grid spec with one
    v0 = np.array([1.0, 0, 0])
    unit = [HermitianMatrix("R", np.diag(e)) for e in np.eye(3)]
    B = BumpWeight(v0, 0.5, plateau=0.5)
    atom = MatrixAtom(unit[0], v0)
    normalized = MatrixBump(unit[1], v0, 0.3, normalize=True)
    for weights in ((atom, normalized), (normalized, atom)):
        with pytest.raises(ValueError, match="normalized bump needs a quadrature grid"):
            ValuationSpec("R", 3, 1, B, weights)
    spec = ValuationSpec("R", 3, 1, B, (atom, MatrixBump(unit[1], v0, 0.5, plateau=0.5)))
    wide = spec.with_atom_widened(0.15)
    assert wide.atom is None
    assert [w.normalize for w in wide.weights] == [True, False]
    grid = Grid.cube(v0, 0.15, 12, 3)
    body = make_two_ball_body(3)
    got, ref = eval_valuation(wide, body.support, grid), _eval_on_nodes(wide, body.support, grid)
    assert ref != 0.0
    assert abs(got - ref) <= 1e-13 * abs(ref)  # degree 1: the linear form sums in another order


# ---------------------------------------------------------------------------
# the grid route's buffers
# ---------------------------------------------------------------------------

def test_grid_route_threads_get_the_bits_of_a_sequential_run():
    # each thread owns its grid-route buffers, and the two keep replacing
    # each other's entry in the one-entry memo: two threads, each running
    # one acceptance-05 config (R on 48^3, C on 10^4) 5 times with a short
    # switch interval, get the bits of the same calls run one by one
    cases = [verify._identity_config(field, np.random.default_rng(5)) for field in ("R", "C")]

    def run(case):
        spec, grid, body, sigma = case
        return [body_valuation(spec, body, grid, sigma_cells=sigma).hex() for _ in range(5)]

    ref = [run(case) for case in cases]
    got = [None] * len(cases)

    def work(k):
        got[k] = run(cases[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == ref


def test_warmed_r_identity_call_allocates_no_grid_sized_transients():
    # after one warm-up call the products and the Hessians live in this
    # thread's buffers, so a traced R identity call (48^3) peaks at about
    # 3.6 MB, mostly the support samples and the bump on the axes; with a
    # dict of live products and the full plane stack it peaked at 15.6 MB
    spec, grid, body, sigma = verify._identity_config("R", np.random.default_rng(0))
    body_valuation(spec, body, grid, sigma_cells=sigma)
    tracemalloc.start()
    try:
        body_valuation(spec, body, grid, sigma_cells=sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


# ---------------------------------------------------------------------------
# the memo of the call-invariant half of eval_valuation
# ---------------------------------------------------------------------------

def _eval_before_memo(spec, f, grid, sigma_cells=0.0, step=None):
    """``eval_valuation`` after its checks, as it ran before its
    call-invariant half was memoized (kept as the reference): B, the
    matrix bumps, the mask, the weights, the kernels, the box, its cells
    and axes, and the active midpoints are rebuilt on every call.  ``f``
    is a ``Polytope`` itself on the grid route."""
    d = spec.real_dim
    atom = spec.atom
    if atom is not None:
        grid, node, cell = None, atom.location[None, :], 1.0
        weight = spec.scalar_weight(node)
    else:
        node, cell = None, grid.cell_volume
        weight = spec.scalar_weight.on_axes(grid.axes())
    if weight.any():
        for w in spec.weights:
            weight = weight * valuation._bump_factor(w, grid, node)
    active = weight != 0
    if not active.any():
        return 0.0
    weight = weight[active]
    slots = []
    if spec.degree > 0:
        if sigma_cells > 0:
            kernels = valuation._gaussian_kernels(sigma_cells)
            r = len(kernels[0]) // 2
            ext = grid.with_margin(r)
            mask = np.reshape(active, grid.shape)
            hits = [np.flatnonzero(mask.any(axis=tuple(b for b in range(d) if b != a)))
                    for a in range(d)]
            box = [slice(int(hit[0]), int(hit[-1]) + 1) for hit in hits]
            cells = np.flatnonzero(mask[tuple(box)])
            axes = [ext.axis_nodes(a)[s.start:s.stop + 2 * r] for a, s in enumerate(box)]
            if isinstance(f, Polytope):
                values = f.support_grid(axes)
            else:
                nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
                values = f(nodes).reshape(tuple(len(x) for x in axes))
            out = hessian._entry_major(len(weight), d)
            hreal = grid_hessian(values, ext.spacing, kernels, read_entries(spec.field, d), cells,
                                 out)
        else:
            if grid is None:
                points = node
            else:
                cells = np.unravel_index(np.flatnonzero(active), grid.shape)
                points = np.stack([x[i] for x, i in zip(grid.axes(), cells)], axis=-1)
            entries = read_entries(spec.field, spec.real_dim)
            hreal = chunked_apply(lambda b: fd_hessian_batch(f, b, step, entries), points)
        slots.extend([assemble_structured(spec.field, hreal)] * spec.degree)
    slots.extend(w.matrix.data for w in spec.weights)
    dets = polarized_det_batch(spec.field, slots)
    return float(math.factorial(spec.n - spec.degree) * cell * (weight * dets).sum())


def _memo_cases(route):
    """(two specs, grid, sigma_cells, two functions): the grid route on two
    polytopes, the stencil route on two smooth functions, and the atom
    route's parity-break specs on the two-ball body and its dilate."""
    if route == "atom":
        (s1, _f, _), _, (s2, _g, _), _ = _atom_cases()[:4]
        body = make_two_ball_body(3)
        return (s1, s2), None, 0.0, (body.support, body.scale(1.5).support)
    r_spec, grid = _active_cell_specs()["R"]
    top = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, plateau=0.7))
    rng = np.random.default_rng(11)
    if route == "grid":
        return (r_spec, top), grid, 1.5, (random_shell_polytope(rng), random_shell_polytope(rng))
    quads = [quadratic(np.diag(rng.uniform(0.5, 2.0, 3))) for _ in range(2)]
    fs = tuple(lambda x, q=q: q(x) + 0.3 * np.sum(np.asarray(x) ** 4, axis=-1) for q in quads)
    return (r_spec, top), grid, 0.0, fs


def _assert_matches_the_route_before_the_memo(got, spec, f, grid, sigma):
    """``got`` is within 1e-13 of ``_eval_before_memo``: a degree-1 grid
    value is a sum <K, samples>, and every other value the polynomial form
    of each node's real Hessian, sums in another order."""
    ref = _eval_before_memo(spec, f, grid, sigma)
    assert ref != 0.0
    assert abs(got - ref) <= 1e-13 * abs(ref)


def _fresh_values(calls, grid, sigma):
    """Each (spec, f) call's value from an emptied memo."""
    values = {}
    for spec, f in calls:
        clear_quadrature()
        values[spec, f] = eval_valuation(spec, f, grid, sigma_cells=sigma)
    return values


@pytest.mark.parametrize("route", ["grid", "stencil", "atom"])
def test_the_memo_keeps_one_key_and_the_bits_of_the_route_before_it(route):
    # specs interleaved on one grid, a second function under the same key,
    # and a call after clear_quadrature each give the bits of the same call from
    # an emptied memo, and are within 1e-13 of the route before the memo,
    # whose sums run in another order
    (s1, s2), grid, sigma, (f1, f2) = _memo_cases(route)
    memo = valuation._quadrature
    calls = [(s1, f1), (s1, f2), (s2, f1), (s1, f2), "clear", (s1, f1)]
    fresh = _fresh_values([c for c in calls if c != "clear"], grid, sigma)
    clear_quadrature()
    for call in calls:
        if call == "clear":
            assert memo.cache_info().hits == 1 and memo.cache_info().misses == 3
            clear_quadrature()
            continue
        spec, f = call
        got = eval_valuation(spec, f, grid, sigma_cells=sigma)
        assert got.hex() == fresh[call].hex()
        _assert_matches_the_route_before_the_memo(got, spec, f, grid, sigma)
        assert memo.cache_info().currsize == 1
    assert memo.cache_info().maxsize == 1
    key = (s1, None if route == "atom" else grid, sigma, None)
    arrays = held_arrays(memo(*key))
    # degree-1 entries: on the grid route the weights, the three box axes and
    # K; on the stencil route the weights, the nodes, the coefficients and
    # their indices; on the atom route the weight, the stencil's points, h
    # and offset rows, the coefficients and their indices
    assert len(arrays) >= {"grid": 5, "stencil": 4, "atom": 4}[route]
    assert memo.cache_info().hits == 1
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 1.0


def test_the_memo_takes_sigma_into_its_key():
    (spec, _), grid, _sigma, (K, _) = _memo_cases("grid")
    fresh = {sigma: _fresh_values([(spec, K)], grid, sigma)[spec, K] for sigma in (1.5, 1.0)}
    clear_quadrature()
    for sigma in (1.5, 1.0, 1.5):
        got = eval_valuation(spec, K, grid, sigma_cells=sigma)
        assert got.hex() == fresh[sigma].hex()
        _assert_matches_the_route_before_the_memo(got, spec, K, grid, sigma)
    assert valuation._quadrature.cache_info().misses == 3


def _degree_one_cases():
    """case -> (spec, grid, body): the R spec with two matrix bumps and the C
    spec of ``_active_cell_specs``, the C and H identity configurations, and
    a degree-2 C spec, which keeps the Hessian route."""
    cases = {name: (*_active_cell_specs()[name], None) for name in ("R", "C")}
    for field in "CH":
        spec, grid, body, _sigma = verify._identity_config(field, np.random.default_rng(2))
        cases[f"identity-{field}"] = spec, grid, body
    cases["degree-2-C"] = (ValuationSpec("C", 2, 2, BumpWeight(np.zeros(4), 0.45, plateau=0.6)),
                           Grid.cube(np.zeros(4), 0.5, 8, 4), None)
    return cases


@pytest.mark.parametrize("case", ["R", "C", "identity-C", "identity-H", "degree-2-C"])
def test_degree_one_grid_values_match_the_hessian_route(case):
    # at degree 1 the grid route returns <K, samples>: within 1e-13 of the
    # Hessian route kept verbatim (_eval_before_memo) on a polytope and on a
    # smooth callable, with a memo of the axes, K and the weights, not the
    # kernels or the box cells; a degree-2 spec keeps the Hessian route's bits
    spec, grid, body = _degree_one_cases()[case]
    rng = np.random.default_rng(6)
    d = grid.dim
    body = body or random_shell_polytope(rng, dim=d)
    m = rng.standard_normal((d, d))
    quad = quadratic(m @ m.T + 0.5 * np.eye(d))
    smooth = lambda x: quad(x) + 0.3 * np.sum(np.cos(2.0 * np.asarray(x)), axis=-1)
    for f in (body, smooth):
        got = eval_valuation(spec, f, grid, sigma_cells=1.5)
        ref = _eval_before_memo(spec, f, grid, 1.5)
        assert ref != 0.0
        if spec.degree == 1:
            assert abs(got - ref) <= 1e-13 * abs(ref)
        else:
            assert got.hex() == ref.hex()
    integral = valuation._quadrature(spec, grid, 1.5, None)[1]
    if spec.degree == 1:
        assert integral.func is valuation._kernel_sum
        axes, kernel = integral.keywords["axes"], integral.keywords["kernel"]
        assert len(axes) == d and kernel.shape == tuple(len(x) for x in axes)
        assert not kernel.flags.writeable
    else:
        assert integral.func is valuation._box_integral
        assert len(integral.keywords["box"]) == 4  # the kernels, spacing, axes and cells


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_sample_anywhere_in_the_box_raises_at_degree_1(bad):
    # <K, samples> multiplies every sample of the box, so one non-finite
    # value at its corner, beyond the kernel's reach of every active cell
    # (where K is 0), makes the sum non-finite
    spec, grid = _active_cell_specs()["C"]
    quad = quadratic(np.eye(4))
    corner = lambda x: np.where(np.all(np.asarray(x) < -1.0, axis=-1), bad, quad(x))
    clear_quadrature()
    assert math.isfinite(eval_valuation(spec, quad, grid, sigma_cells=1.5))
    keywords = valuation._quadrature(spec, grid, 1.5, None)[1].keywords
    axes, kernel = keywords["axes"], keywords["kernel"]
    assert [x[0] < -1.0 < x[1] for x in axes] == [True] * 4  # one corner sample
    assert kernel[0, 0, 0, 0] == 0.0
    with pytest.raises(FloatingPointError, match="finite"), np.errstate(invalid="ignore"):
        eval_valuation(spec, corner, grid, sigma_cells=1.5)


@pytest.mark.parametrize("case", ["zero-mass", "narrow-kernel"])
def test_a_spec_that_raises_in_the_memo_raises_on_every_call(case):
    # a normalized bump of radius 0.1 reaches no midpoint of a 4^3 grid; a
    # width of 0.1 cell truncates the Gaussian to one cell
    grid = Grid.cube(np.zeros(3), 0.5, 4, 3)
    mat = HermitianMatrix("R", np.eye(3))
    if case == "zero-mass":
        tiny = MatrixBump(mat, np.zeros(3), 0.1, normalize=True)
        spec = ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.45), (tiny,))
        sigma, message = 0.0, "zero mass"
    else:
        spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
        sigma, message = 0.1, "below 1/8 cell"
    good = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    K = random_shell_polytope(np.random.default_rng(2))
    memo = valuation._quadrature
    clear_quadrature()
    eval_valuation(good, K, grid, sigma_cells=1.0)
    f = quadratic(np.eye(3)) if sigma == 0 else K
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            eval_valuation(spec, f, grid, sigma_cells=sigma)
    assert memo.cache_info().currsize == 1
    eval_valuation(good, K, grid, sigma_cells=1.0)  # the last good key is still held
    assert memo.cache_info().hits == 1


_R3 = HermitianMatrix.identity("R", 3)
_C2 = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]])
#: each array a value object keeps: (build from the array, an array it
#: takes, the array it keeps)
_HELD_ARRAYS = {
    "Grid.lo": (lambda a: Grid(a, np.ones(3), (2, 2, 2)), np.full(3, -0.5), lambda g: g.lo),
    "Grid.hi": (lambda a: Grid(-np.ones(3), a, (2, 2, 2)), np.full(3, 0.5), lambda g: g.hi),
    "BumpWeight.center": (lambda a: BumpWeight(a, 0.45), np.array([0.1, 0.0, -0.1]),
                          lambda b: b.center),
    "MatrixBump.center": (lambda a: MatrixBump(_R3, a, 0.45), np.array([0.1, 0.0, -0.1]),
                          lambda m: m.center),
    "MatrixAtom.location": (lambda a: MatrixAtom(_R3, a), np.array([0.1, 0.0, 0.0]),
                            lambda m: m.location),
    **{f"HermitianMatrix.data[{field}]": (lambda a, field=field: HermitianMatrix(field, a), data,
                                          lambda m: m.data)
       for field, data in [("R", np.diag([1.0, 2.0, 3.0])), ("C", _C2),
                           ("H", HermitianMatrix.identity("H", 2).data),
                           ("O2", HermitianMatrix.identity("O2", 2).data)]},
    "SmoothProfileBody.center": (lambda a: SmoothProfileBody(3, np.cos, a),
                                 np.array([0.1, -0.2, 0.3]), lambda b: b.center),
    "Polytope.vertices": (Polytope, unit_cube(3).vertices, lambda K: K.vertices),
    "PLConvexFunction.slopes": (PLConvexFunction, unit_cube(3).vertices, lambda f: f.slopes),
    "PLConvexFunction.offsets": (lambda a: PLConvexFunction(np.eye(3), a),
                                 np.array([0.0, 0.5, -1.0]), lambda f: f.offsets),
}


@pytest.mark.parametrize("rule", ["non-finite", "too-many-axes", "caller-writes", "object-writes"])
@pytest.mark.parametrize("case", _HELD_ARRAYS)
def test_value_objects_keep_finite_read_only_copies(case, rule):
    # every value object takes its arrays through ``algebra._finite_copy``.
    # Before it: a Polytope kept the caller's array, so writing v[1, 0] = 5
    # moved K.support([1, 0, 0]) from 1.0 to 5.0; PL slopes and offsets
    # were writable; a NaN SmoothProfileBody center was accepted; a NaN
    # Hermitian entry passed the deviation test, where inf - inf warns
    build, good, held = _HELD_ARRAYS[case]
    if rule == "non-finite":
        for bad, index in itertools.product((math.nan, math.inf, -math.inf), (0, 1)):
            a = good.copy()
            a.flat[index] = bad  # 1: an off-diagonal entry of an R or C matrix
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    build(a)
    elif rule == "too-many-axes":
        # a column bump center broadcast against the nodes into a matrix of
        # distances; a (2, 3, 4) vertex array was taken as a 3-D polytope
        for a in (good[None], good[..., None]):
            with pytest.raises(ValueError, match=re.escape(f"-D, got shape {a.shape}")):
                build(a)
    elif rule == "caller-writes":
        a = good.copy()
        kept = held(build(a))
        a[...] = 7.0
        assert kept.tobytes() == good.astype(kept.dtype).tobytes()
    else:
        kept = held(build(good.copy()))
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            kept += 1.0


def test_a_finite_copy_gives_fewer_axes_leading_ones():
    # a scalar bump center is a 1-D point, one 1-D vertex or slope a row
    copy = algebra._finite_copy("x", [1.5, 2.0], 2)
    assert copy.shape == (1, 2) and not copy.flags.writeable
    assert algebra._finite_copy("x", 3, 1, dtype=complex).tolist() == [3.0 + 0.0j]
    assert BumpWeight(0.2, 0.3).center.tolist() == [0.2]
    assert Polytope(np.ones(3)).vertices.shape == (1, 3)
    assert PLConvexFunction(np.ones(3)).slopes.shape == (1, 3)
    with pytest.raises(convex.GeometryError, match="body center must be finite"):
        SmoothProfileBody(2, np.cos, [0.0, math.nan])


def test_arrays_held_by_grids_weights_and_matrices_are_read_only_copies():
    # a key's arrays cannot change under the memo: the caller's own arrays
    # were copied, so writing into them moves no value
    lo, hi, center = np.full(3, -0.5), np.full(3, 0.5), np.zeros(3)
    location, data = np.array([0.1, 0.0, 0.0]), np.diag([1.0, 2.0, 3.0])
    grid = Grid(lo, hi, (12, 12, 12))
    bump = BumpWeight(center, 0.45)
    atom = MatrixAtom(HermitianMatrix("R", data), location)
    held = (grid.lo, grid.hi, bump.center, atom.location, atom.matrix.data)
    grid_spec = ValuationSpec("R", 3, 3, bump)
    atom_spec = ValuationSpec("R", 3, 2, bump, (atom,))
    K = random_shell_polytope(np.random.default_rng(5))
    f = quadratic(np.diag([1.0, 2.0, 3.0]))
    before = [eval_valuation(grid_spec, K, grid, sigma_cells=1.5), eval_valuation(atom_spec, f)]
    copies = [a.copy() for a in held]
    for source in (lo, hi, center, location, data):
        source[...] = 0.25
    assert all(np.array_equal(a, c) for a, c in zip(held, copies))
    after = [eval_valuation(grid_spec, K, grid, sigma_cells=1.5), eval_valuation(atom_spec, f)]
    assert [v.hex() for v in after] == [v.hex() for v in before]


# ---------------------------------------------------------------------------
# the degree-1 linear form on the stencil and atom routes
# ---------------------------------------------------------------------------

def _parity_spec(n, degree):
    """parity-break's spec: a unit-diagonal atom at e_1, unit-diagonal
    bumps, and B = 1 near e_1."""
    v0 = np.eye(n)[0]
    weights = [MatrixAtom(verify._basis_matrix(n, 0), v0)]
    weights += [MatrixBump(verify._basis_matrix(n, l), v0, 0.5, plateau=0.5)
                for l in range(1, n - degree)]
    return ValuationSpec("R", n, degree, BumpWeight(v0, 0.5, 1.0, plateau=0.5), tuple(weights))


def _linear_form_cases(case):
    """(spec, grid or None, functions, step) on the stencil or atom route:
    parity-break's atom spec at n = 3 and 5 and its widened spec on a
    coarse bump grid, both on the two-ball body and its reflection, and
    linear-invariance's C, H and O2 specs on their base function and on
    one linear shift of it."""
    if case.startswith("R"):
        n = int(case[2])
        body = make_two_ball_body(n)
        fs, spec = (body.support, body.negate().support), _parity_spec(n, 1)
        if case.endswith("atom"):
            return spec, None, fs, None
        v0 = np.eye(n)[0]
        return spec.with_atom_widened(0.15), Grid.cube(v0, 0.15, 12 if n == 3 else 5, n), fs, None
    rng = np.random.default_rng(0)
    spec, grid, fn, _x0 = verify._invariance_case(case, rng)
    ell = rng.uniform(-1.0, 1.0, spec.real_dim)
    return spec, grid, (fn, verify._plus_linear(fn, ell)), 1e-3


_LINEAR_FORM_CASES = ["R-3-atom", "R-3-bump", "R-5-atom", "R-5-bump", "C", "H", "O2"]


@pytest.mark.parametrize("case", _LINEAR_FORM_CASES)
def test_degree_one_stencil_and_atom_values_match_the_polarized_route(case):
    # at degree 1 each node's determinant is the linear form of its real
    # Hessian; the polarized routes kept verbatim give the same values to
    # within 1e-13, and H (n = 1, no matrix weight) keeps their bits
    spec, grid, fs, step = _linear_form_cases(case)
    assert spec.degree == 1
    for f in fs:
        got = eval_valuation(spec, f, grid, step=step)
        if grid is None:
            ref = _eval_atom_reference(spec, f, step)
        else:
            ref = _eval_on_nodes(spec, f, grid, step=step)
        assert ref == _eval_before_memo(spec, f, grid, step=step)
        assert ref != 0.0
        assert abs(got - ref) <= 1e-13 * abs(ref)
        if case == "H":
            assert got.hex() == ref.hex()


def _counting(monkeypatch, names):
    """Replace each ``valuation`` function in ``names`` by a wrapper that
    counts its calls; returns the counter."""
    calls = collections.Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(valuation, name, wrap(name, getattr(valuation, name)))
    return calls


def _smooth_convex(d, seed):
    """A quadratic plus 0.3 sum x^4 in ``d`` dimensions."""
    m = np.random.default_rng(seed).standard_normal((d, d))
    quad = quadratic(m @ m.T / d + 0.5 * np.eye(d))
    return lambda x: quad(x) + 0.3 * np.sum(np.asarray(x) ** 4, axis=-1)


def _higher_degree_cases():
    """case -> (spec, grid or None, sigma_cells, step, two functions) at
    degree >= 2: parity-break's atom spec at n = 3 and its widened spec on
    the stencil route, an R spec with a matrix bump and R's top degree on
    the grid route, C's top degree on the grid, and H's and O2's on the
    stencil route."""
    v0 = np.eye(3)[0]
    two_ball = make_two_ball_body(3)
    balls = (two_ball.support, two_ball.negate().support)
    rng = np.random.default_rng(21)
    shells = {d: (random_shell_polytope(rng, dim=d), random_shell_polytope(rng, dim=d))
              for d in (3, 4)}
    bump = MatrixBump(HermitianMatrix("R", np.diag([1.0, 0.6, 0.3])), np.zeros(3), 0.45,
                      plateau=0.7)
    B = lambda d: BumpWeight(np.zeros(d), 0.45, plateau=0.6)
    cube = lambda d, res: Grid.cube(np.zeros(d), 0.5, res, d)
    parity = _parity_spec(3, 2)
    return {
        "R-3-2-atom": (parity, None, 0.0, None, balls),
        "R-3-2-bump": (parity.with_atom_widened(0.15), Grid.cube(v0, 0.15, 12, 3), 0.0, None,
                       balls),
        "R-3-2-grid": (ValuationSpec("R", 3, 2, B(3), (bump,)), cube(3, 12), 2.0, None, shells[3]),
        "R-3-3-grid": (ValuationSpec("R", 3, 3, B(3)), cube(3, 12), 1.5, None, shells[3]),
        "C-2-2-grid": (ValuationSpec("C", 2, 2, B(4)), cube(4, 8), 1.5, None, shells[4]),
        "H-2-2-stencil": (ValuationSpec("H", 2, 2, B(8)), cube(8, 3), 0.0, 1e-3,
                          (_smooth_convex(8, 1), _smooth_convex(8, 2))),
        "O2-2-2-stencil": (ValuationSpec("O2", 2, 2, B(16)),
                           Grid(np.full(16, -0.5), np.full(16, 0.5), (3,) + (1,) * 15), 0.0,
                           1e-3, (_smooth_convex(16, 3), _smooth_convex(16, 4))),
    }


def _repeat_cases(case):
    """(spec, grid, sigma_cells, step, functions) of a degree-1 case of
    ``_linear_form_cases`` or a case of ``_higher_degree_cases``."""
    if case in _LINEAR_FORM_CASES:
        spec, grid, fs, step = _linear_form_cases(case)
        return spec, grid, 0.0, step, fs
    return _higher_degree_cases()[case]


@pytest.mark.parametrize("case", ["R-3-atom", "R-3-bump", "C", "H", "O2", "R-3-2-atom",
                                  "R-3-2-bump", "R-3-3-grid", "C-2-2-grid", "H-2-2-stencil"])
def test_a_repeat_call_neither_assembles_nor_polarizes(case, monkeypatch):
    # a key's first call polarizes once, for the coefficients of its
    # polynomial form; after it no call of that key assembles a field
    # Hessian or polarizes, and each gives the first call's bits
    spec, grid, sigma, step, (f, g) = _repeat_cases(case)
    clear_quadrature()
    valuation._unit_hessians(spec.field, spec.real_dim)
    calls = _counting(monkeypatch, ["assemble_structured", "polarized_det_batch"])
    first = eval_valuation(spec, f, grid, sigma_cells=sigma, step=step)
    assert calls == {"polarized_det_batch": 1}
    calls.clear()
    again = [eval_valuation(spec, h, grid, sigma_cells=sigma, step=step) for h in (g, f)]
    assert not calls
    assert again[1].hex() == first.hex()


# ---------------------------------------------------------------------------
# the value store behind the memo
# ---------------------------------------------------------------------------

def _next(x):
    """The float 1 ulp above ``x``."""
    return float(np.nextafter(x, math.inf))


def _grid_key(**changed):
    """(spec, grid, sigma_cells, step) made anew: a degree-2 R spec with one
    matrix bump on 8^3 at 1.5 cells, with the parts in ``changed`` in place
    of the defaults below."""
    p = dict(center=np.zeros(3), radius=0.45, height=1.0, plateau=0.5, degree=2,
             matrix=np.diag([1.0, 2.0, 3.0]) + 0.25, bump_plateau=0.3, normalize=False,
             lo=np.full(3, -0.5), hi=np.full(3, 0.5), shape=(8, 8, 8), sigma=1.5)
    p.update(changed)
    bump = MatrixBump(HermitianMatrix("R", p["matrix"]), np.zeros(3), 0.4, p["bump_plateau"],
                      p["normalize"])
    B = BumpWeight(p["center"], p["radius"], p["height"], p["plateau"])
    spec = ValuationSpec("R", 3, p["degree"], B, (bump,)[:3 - p["degree"]])
    return spec, Grid(p["lo"], p["hi"], p["shape"]), p["sigma"], None


def _complex_key(imag=0.5):
    """The degree-1 C key of the K route on 6^4 at 1.0 cell, its matrix's
    entry (0, 1) with imaginary part ``imag`` (and (1, 0) with -0.5)."""
    mat = HermitianMatrix("C", np.array([[1.0, 0.2 + imag * 1j], [0.2 - 0.5j, 2.0]]))
    spec = ValuationSpec("C", 2, 1, BumpWeight(np.zeros(4), 0.45),
                         (MatrixBump(mat, np.zeros(4), 0.4),))
    return spec, Grid.cube(np.zeros(4), 0.5, 6, 4), 1.0, None


def _atom_key(x=0.1, step=None):
    """A degree-2 R atom key, the atom at (x, 0, 0), with stencil ``step``."""
    atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 2.0, 3.0])), np.array([x, 0.0, 0.0]))
    return ValuationSpec("R", 3, 2, BumpWeight(np.zeros(3), 0.45), (atom,)), None, 0.0, step


def _top_degree_key(field, n):
    """A degree-n key over ``field`` in real dimension 4, the stencil route on 4^4."""
    return ValuationSpec(field, n, n, BumpWeight(np.zeros(4), 0.45)), Grid.cube(
        np.zeros(4), 0.5, 4, 4), 0.0, None


_MOVED_ENTRY = np.diag([1.0, 2.0, 3.0]) + 0.25
_MOVED_ENTRY[0, 1] = _next(_MOVED_ENTRY[0, 1])

#: name -> (the base key, the key with that one part changed), each made anew
_KEY_CHANGES = {
    "field and n": (lambda: _top_degree_key("R", 4), lambda: _top_degree_key("C", 2)),
    "field, n and degree": (lambda: _top_degree_key("C", 2), lambda: _top_degree_key("H", 1)),
    "degree": (_grid_key, lambda: _grid_key(degree=3)),
    "B center -0.0": (_grid_key, lambda: _grid_key(center=np.array([-0.0, 0.0, 0.0]))),
    "B radius": (_grid_key, lambda: _grid_key(radius=_next(0.45))),
    "B height": (_grid_key, lambda: _grid_key(height=_next(1.0))),
    "B plateau": (_grid_key, lambda: _grid_key(plateau=_next(0.5))),
    "matrix entry": (_grid_key, lambda: _grid_key(matrix=_MOVED_ENTRY)),
    "imaginary part": (_complex_key, lambda: _complex_key(_next(0.5))),
    "bump plateau": (_grid_key, lambda: _grid_key(bump_plateau=_next(0.3))),
    "bump normalize": (_grid_key, lambda: _grid_key(normalize=True)),
    "atom location": (_atom_key, lambda: _atom_key(_next(0.1))),
    "step": (_atom_key, lambda: _atom_key(step=1e-3)),
    "step 1 ulp": (lambda: _atom_key(step=1e-3), lambda: _atom_key(step=_next(1e-3))),
    "grid lo": (_grid_key, lambda: _grid_key(lo=np.array([_next(-0.5), -0.5, -0.5]))),
    "grid hi": (_grid_key, lambda: _grid_key(hi=np.array([0.5, 0.5, _next(0.5)]))),
    "grid shape": (_grid_key, lambda: _grid_key(shape=(8, 8, 9))),
    "sigma": (_grid_key, lambda: _grid_key(sigma=_next(1.5))),
}


def _entry_bits(entry, key):
    """A built entry's route function, the bytes of its arrays and its value
    on a smooth f."""
    integral = entry[1]
    f = _smooth_convex(key[0].real_dim, 5)
    return (integral.func, [a.tobytes() for a in held_arrays(entry)],
            integral(f, 1).hex())


@pytest.mark.parametrize("name", sorted(_KEY_CHANGES))
def test_a_key_that_differs_in_one_part_is_built_again(name, monkeypatch):
    # a float moved by 1 ulp, -0.0 for +0.0, an imaginary part, a flag or a
    # shape is a second build, never the first key's entry, and that entry
    # has the bits of a fresh build
    base, changed = _KEY_CHANGES[name]
    clear_quadrature()
    builds = _counting(monkeypatch, ["_build_quadrature"])
    valuation._quadrature(*base())
    key = changed()
    entry = valuation._quadrature(*key)
    assert builds == {"_build_quadrature": 2}
    assert _entry_bits(entry, key) == _entry_bits(valuation._build_quadrature(*key), key)


@pytest.mark.parametrize("route", ["grid", "stencil", "atom"])
def test_an_equal_key_made_again_shares_its_entry(route, monkeypatch):
    # equal objects made again miss the identity memo and hit the value
    # store: no build, the first entry, and the bits of a fresh build
    make = {"grid": _grid_key, "stencil": lambda: _grid_key(sigma=0.0), "atom": _atom_key}[route]
    clear_quadrature()
    builds = _counting(monkeypatch, ["_build_quadrature"])
    first = valuation._quadrature(*make())
    key = make()
    assert valuation._quadrature(*key) is first
    assert builds == {"_build_quadrature": 1}
    assert valuation._quadrature.cache_info().misses == 2
    assert _entry_bits(first, key) == _entry_bits(valuation._build_quadrature(*key), key)


#: a module-level lambda, which pickle looks up by a name it does not have
_NAMELESS = lambda: None


def _refused_parts():
    """One part of each kind that pickle refuses: a local function, a
    module-level lambda, a generator and a lock."""
    def local():
        pass
    return {"local function": local, "lambda": _NAMELESS,
            "generator": (x for x in ()), "lock": threading.Lock()}


def test_the_value_key_holds_types_and_bits():
    # the store's key is the pickle of (spec, grid, sigma_cells, step)
    key = functools.partial(pickle.dumps, protocol=5)
    assert key(0.0) != key(-0.0) and key(0.5) != key(_next(0.5))
    assert key(np.float64(0.0)) != key(np.float64(-0.0))
    assert len({key(1.0), key(1), key(True), key(np.float64(1.0)), key(np.int64(1))}) == 5
    assert key(np.zeros(2)) != key(np.zeros(2, dtype=np.float32))
    assert key(np.zeros(2)) != key(np.zeros((1, 2)))
    assert key(np.zeros(2)) != key(np.array([0.0, -0.0]))
    assert key((1.0, 2.0)) != key((1.0, 2))
    assert key(_grid_key()) == key(_grid_key())
    for part in _refused_parts().values():
        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
            key((_grid_key(), part))


@pytest.mark.parametrize("kind", sorted(_refused_parts()))
def test_a_key_with_a_part_of_no_value_is_built_and_never_stored(monkeypatch, kind):
    # a truthy flag that pickle refuses has no value key: every identity
    # miss builds, as before the store, and nothing is stored
    clear_quadrature()
    builds = _counting(monkeypatch, ["_build_quadrature"])
    flag = _refused_parts()[kind]
    for _ in range(2):
        valuation._quadrature(*_grid_key(normalize=flag))
    assert builds == {"_build_quadrature": 2}
    assert not valuation._BUILT.entries


def test_the_store_evicts_the_least_recently_used_entries_down_to_its_bound():
    entry = lambda nbytes: (np.zeros(nbytes, dtype=np.uint8), None)
    size = valuation._held_bytes(("a", entry(40_000)))  # with its key
    store = valuation._ValueStore(size * 5 // 2)
    store.put("a", entry(40_000))
    store.put("b", entry(40_000))
    assert store.get("a") is not None  # now "b" is the least recently used
    store.put("c", entry(40_000))
    assert list(store.entries) == ["a", "c"] and store.nbytes == 2 * size
    store.put("big", entry(store.limit))  # over the bound alone: never stored
    shared = np.zeros(100, dtype=np.uint8)
    store.put("d", (shared, functools.partial(max, shared)))
    assert list(store.entries) == ["a", "c", "d"]
    assert store.nbytes == 2 * size + valuation._held_bytes(("d", store.get("d")))
    assert store.get("b") is None and store.get("big") is None
    store.clear()
    assert not store.entries and store.nbytes == 0


def test_putting_a_held_key_again_replaces_its_charge():
    # two threads that miss one key both put it: the second put added its
    # charge to the first's, and the extra charge outlived the entry
    store = valuation._ValueStore(1000)
    entry = (np.zeros(100, dtype=np.uint8), None)
    store.put("a", entry)
    store.put("a", entry)
    assert list(store.entries) == ["a"] and store.nbytes == valuation._held_bytes(("a", entry))


def test_the_store_keeps_its_charge_under_threads():
    # eight threads put and get twelve keys in a shared store of room for
    # about five; with a short switch interval a lost update shows as a
    # charge that is not the sum of the held entries'
    store = valuation._ValueStore(5 * valuation._held_bytes(("k0", (np.zeros(200), None))))

    def work(seed):
        for k in np.random.default_rng(seed).integers(0, 12, 300).tolist():
            if store.get(f"k{k}") is None:
                store.put(f"k{k}", (np.zeros(200), None))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert store.nbytes == sum(nbytes for _, nbytes in store.entries.values()) <= store.limit


def test_held_bytes_counts_an_object_once_and_a_view_with_its_data():
    x = np.zeros(1000)
    once = valuation._held_bytes((x,)) - sys.getsizeof((x,))
    assert once == sys.getsizeof(x) >= x.nbytes
    assert valuation._held_bytes((x, x)) - sys.getsizeof((x, x)) == once
    assert valuation._held_bytes(x[:500]) == sys.getsizeof(x[:500]) + 4000
    pair = (x, 1.5)
    inner = functools.partial(max, x, key={"k": pair})  # dict keys are not walked
    assert valuation._held_bytes(inner) == sum(map(sys.getsizeof, (
        inner, inner.args, inner.keywords, inner.keywords["key"], pair, x, 1.5)))


def test_the_store_bounds_the_memory_of_many_small_entries():
    # distinct atom keys with about 640 bytes of arrays each (the held
    # stencil's 19 points), and about 5 kB of key, partials and array
    # headers: the store charges all of it, so what it holds stays near
    # its bound (charging the arrays alone held 1.7 MB here); the store's
    # dict slots and the arrays' shape buffers are not charged, about 7%
    # here
    clear_quadrature()
    valuation._quadrature(*_atom_key(0.0))
    clear_quadrature()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(300):
            valuation._quadrature(*_atom_key(0.1 + 1e-6 * k))
        valuation._quadrature.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    store = valuation._BUILT
    assert 0 < len(store.entries) < 300 and store.nbytes <= store.limit
    assert held <= 1.25 * store.limit


def test_the_identity_keys_are_over_the_bound_and_never_stored():
    # the R identity entry (0.68 MB) and each C and H identity K on 20^4
    # samples (1.28 MB) are over the 512 KiB bound: those keys keep the
    # one-entry identity memo alone, and the store holds none of their arrays
    clear_quadrature()
    store = valuation._BUILT
    for field in "RCH":
        spec, grid, body, sigma = verify._identity_config(field, np.random.default_rng(0))
        eval_valuation(spec, body, grid, sigma_cells=sigma)
        entry = valuation._quadrature(spec, grid, sigma, None)
        assert valuation._held_bytes(entry) > store.limit
        assert not store.entries and store.nbytes == 0
    assert store.limit == 2**19
    assert entry[1].keywords["kernel"].shape == (20,) * 4


def test_parity_break_at_a_second_seed_builds_nothing(monkeypatch):
    # parity_break makes its specs and grids anew on every call, and a
    # second seed gives equal ones: the run neither builds nor polarizes,
    # and its report has the bytes of a run from an emptied store
    clear_quadrature()
    verify.parity_break(dim=3, degree=1, seed=0)
    calls = _counting(monkeypatch, ["_build_quadrature", "polarized_det_batch"])
    shared = verify.parity_break(dim=3, degree=1, seed=1)
    assert not calls
    clear_quadrature()
    fresh = verify.parity_break(dim=3, degree=1, seed=1)
    assert calls["_build_quadrature"] == 4  # the atom spec and one bump spec per width
    assert (json.dumps(shared.canonical(), sort_keys=True)
            == json.dumps(fresh.canonical(), sort_keys=True))


def test_two_in_process_cli_runs_write_the_same_bytes(tmp_path, monkeypatch):
    # the second run's keys are all in the store
    clear_quadrature()
    argv = ["run", "parity-break", "--quiet", "--out"]
    assert cli.main(argv + [str(tmp_path / "first")]) == 0
    builds = _counting(monkeypatch, ["_build_quadrature"])
    assert cli.main(argv + [str(tmp_path / "second")]) == 0
    assert not builds
    first, second = ((tmp_path / run / "parity-break.json").read_bytes()
                     for run in ("first", "second"))
    assert first == second


def _polarized(hreal, field, degree, matrices):
    """The degree >= 2 integrand D(H [degree], *matrices) per field Hessian
    H, assembled and polarized on every call, as the routes evaluated it
    before the polynomial form (kept as the reference)."""
    return polarized_det_batch(field, (assemble_structured(field, hreal),) * degree + matrices)


_FORM_SPECS = {  # (field, n, degree, the matrix weights' seed or None)
    "R-3-2": ("R", 3, 2, 0), "R-3-3": ("R", 3, 3, None), "R-4-2": ("R", 4, 2, 1),
    "R-4-3": ("R", 4, 3, 2), "C-2-2": ("C", 2, 2, None), "C-3-2": ("C", 3, 2, 3),
    "H-2-2": ("H", 2, 2, None), "H-3-2": ("H", 3, 2, 4), "O2-2-2": ("O2", 2, 2, None),
}


def _random_weight_matrix(field, n, rng):
    """The field Hessian of a random symmetric real matrix: Hermitian over
    ``field``."""
    s = rng.standard_normal((n * FIELD_COMPONENTS[field],) * 2)
    return HermitianMatrix(field, assemble_structured(field, s + s.T))


@pytest.mark.parametrize("case", sorted(_FORM_SPECS))
def test_the_polynomial_form_matches_the_polarized_integrand(case):
    # random symmetric Hessians in the entry-major layout against random
    # Hermitian weights: the form's values are within 1e-13 of the largest
    # polarized value (the widest gap, 2.5e-14 on R-4-2, is the reference's
    # own rounding: against exact sums the form reads 8.8e-16 there)
    field, n, degree, seed = _FORM_SPECS[case]
    rng = np.random.default_rng(len(case))
    d = n * FIELD_COMPONENTS[field]
    hreal = hessian._entry_major(500, d)
    sym = rng.standard_normal((500, d, d))
    hreal[...] = sym + np.swapaxes(sym, 1, 2)
    weights = ()
    if seed is not None:
        wrng = np.random.default_rng(seed)
        weights = tuple(MatrixBump(_random_weight_matrix(field, n, wrng), np.zeros(d), 0.5)
                        for _ in range(n - degree))
    spec = ValuationSpec(field, n, degree, BumpWeight(np.zeros(d), 0.5), weights)
    got = valuation._polynomial_values(hreal, valuation._polynomial_form(spec))
    ref = _polarized(hreal, field, degree, tuple(w.matrix.data for w in weights))
    assert got.shape == ref.shape == (500,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", sorted(_higher_degree_cases()))
def test_every_higher_degree_route_matches_the_polarized_route(case):
    # the grid, stencil and atom routes at degree >= 2, over R, C, H and O2:
    # within 1e-13 of the route that assembled and polarized every Hessian
    spec, grid, sigma, step, fs = _higher_degree_cases()[case]
    for f in fs:
        got = eval_valuation(spec, f, grid, sigma_cells=sigma, step=step)
        ref = _eval_before_memo(spec, f, grid, sigma, step)
        assert ref != 0.0
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _form_coefficients(spec):
    """The (d, d) coefficients of a degree-1 spec's polynomial form, 0 on
    the entries without a term."""
    d = spec.real_dim
    coefficients = np.zeros(d * d)
    for head, c, last in valuation._polynomial_form(spec):
        assert head == ()
        coefficients[last] = c
    return coefficients.reshape(d, d)


def test_unit_hessians_are_built_once_per_field_and_dimension():
    # the units depend on (field, d) alone: R in 3-D and 5-D are two
    # entries, and a second spec of a pair reuses its read-only arrays
    units = valuation._unit_hessians
    units.cache_clear()
    specs = [_parity_spec(3, 1), _parity_spec(5, 1)]
    for case in ("C", "O2"):
        rng = np.random.default_rng(0)
        specs.append(verify._invariance_case(case, rng)[0])
    rng = np.random.default_rng(7)
    specs.append(ValuationSpec("O2", 2, 1, BumpWeight(np.zeros(16), 0.5),
                               (MatrixAtom(HermitianMatrix("O2", verify._random_o2_hermitian(rng)),
                                           np.zeros(16)),)))
    for spec in specs:
        d = spec.real_dim
        coefficients = _form_coefficients(spec)
        a, b, _ = units(spec.field, d)
        assert np.all(np.diff(a * d + b) > 0)  # row-major
        fresh = np.zeros((len(a), d, d))
        fresh[np.arange(len(a)), a, b] = fresh[np.arange(len(a)), b, a] = 1.0
        ref = polarized_det_batch(spec.field, [assemble_structured(spec.field, fresh)]
                                  + [w.matrix.data for w in spec.weights])
        assert np.allclose(coefficients[a, b], ref, rtol=1e-13, atol=1e-15)
    info = units.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 6, 4)  # R 3, R 5, C 4, O2 16
    for field, d in [("R", 3), ("R", 5), ("C", 4), ("O2", 16)]:
        for array in units(field, d):
            assert not array.flags.writeable
        assert units(field, d)[2].shape[0] == len(units(field, d)[0])


def test_power_of_two_scales_are_exact_and_leave_a_unit_norm_matrix_alone():
    e1 = verify._basis_matrix(3, 0)
    assert valuation._pow2(e1.norm()) == 1.0
    assert valuation._pow2(HermitianMatrix("R", np.zeros((3, 3))).norm()) == 1.0
    for factor, scale in [(1e3, 1024.0), (3e-3, 2.0**-8), (0.75, 1.0), (1.5, 2.0)]:
        assert valuation._pow2((e1 * factor).norm()) == scale
    # the dedupe's clamp and the matrices' guard: one helper holds both
    assert valuation._pow2(1.7e308) == 2.0**1023
    assert valuation._pow2(math.inf) == valuation._pow2(math.nan) == 1.0
    # the scaled form is the unscaled one for unit-norm weights, bit for bit
    spec = _parity_spec(5, 1)
    d = spec.real_dim
    a, b, units = valuation._unit_hessians("R", d)
    plain = np.zeros((d, d))
    plain[a, b] = polarized_det_batch("R", [units] + [w.matrix.data for w in spec.weights])
    assert _form_coefficients(spec).tobytes() == plain.tobytes()


def test_the_form_counts_each_multiset_of_entries_by_its_orderings():
    # det of a symmetric 3 x 3 H is h00 h11 h22 + 2 h01 h02 h12 - h00 h12^2
    # - h11 h02^2 - h22 h01^2: five monomials over the flat entries 0, 1, 2,
    # 4, 5, 8 (a <= b), grouped by their first two entries
    spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45))
    groups = valuation._polynomial_form(spec)
    terms = {head + (int(e),): float(c) for head, cs, last in groups for c, e in zip(cs, last)}
    assert terms == {(0, 4, 8): 1.0, (0, 5, 5): -1.0, (1, 1, 8): -1.0, (1, 2, 5): 2.0,
                     (2, 2, 4): -1.0}
    assert [head for head, _c, _last in groups] == sorted({k[:2] for k in terms})
    for _head, c, last in groups:
        assert not c.flags.writeable and not last.flags.writeable


def test_the_quaternionic_forms_have_integer_coefficients():
    # Moore's formula has integer coefficients: the H (n = 2, i = 2) form
    # keeps exactly 56 monomials, each -2, -1, 1 or 2 (by the eigenvalues
    # of the complex embedding it kept 280, 224 of them roundoff of about
    # 1e-16); the H (n = 1, i = 1) form, which the identity and invariance
    # experiments use, is h_00 + h_11 + h_22 + h_33 with the bits it had
    B = lambda d: BumpWeight(np.zeros(d), 0.45)
    groups = valuation._polynomial_form(ValuationSpec("H", 2, 2, B(8)))
    coefficients = np.concatenate([c for _head, c, _last in groups])
    assert len(coefficients) == 56
    assert set(coefficients.tolist()) == {-2.0, -1.0, 1.0, 2.0}
    (head, c, last), = valuation._polynomial_form(ValuationSpec("H", 1, 1, B(4)))
    assert head == () and last.tolist() == [0, 5, 10, 15]
    assert c.tobytes() == np.ones(4).tobytes()


# ---------------------------------------------------------------------------
# which values of f each route reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", [1, 2])
def test_the_stencil_route_reads_only_the_active_stencils(degree):
    # a NaN just beyond the reach of every active node's stencil does not
    # raise; a NaN at the outermost active nodes' +e_1 stencil points does
    spec, grid = _active_cell_specs()["R"]
    spec = ValuationSpec("R", 3, degree, spec.scalar_weight, spec.weights[:3 - degree])
    quad = quadratic(np.diag([1.0, 2.0, 3.0]))
    clear_quadrature()
    clean = eval_valuation(spec, quad, grid)
    points = valuation._quadrature(spec, grid, 0.0, None)[1].keywords["points"]
    outer = points[:, 0].max()
    reach = np.max(points[:, 0] + hessian._stencil_steps(points))

    def poisoned(edge):
        return lambda x: np.where(np.asarray(x)[..., 0] > edge, np.nan, quad(x))

    assert eval_valuation(spec, poisoned(reach), grid).hex() == clean.hex()
    with pytest.raises(FloatingPointError, match="stencil"):
        eval_valuation(spec, poisoned(outer), grid)


def test_a_nan_at_the_box_corner_raises_on_the_degree_two_grid_route():
    # no active cell's Hessian reads the corner sample, but the banded
    # products multiply every sample of a row block, by the band corner's
    # zeros too, and NaN * 0 is NaN
    spec = ValuationSpec("C", 2, 2, BumpWeight(np.zeros(4), 0.35))
    grid = Grid.cube(np.zeros(4), 0.5, 8, 4)
    quad = quadratic(np.eye(4))
    clear_quadrature()
    assert math.isfinite(eval_valuation(spec, quad, grid, sigma_cells=1.5))
    _kernels, _spacing, axes, cells = valuation._quadrature(spec, grid, 1.5, None)[1].keywords["box"]
    assert len(cells) == 304 and cells[0] != 0  # core cell 0 alone reads the corner
    corner = lambda x: np.where(np.all(np.asarray(x) < axes[0][1], axis=-1), np.nan, quad(x))
    with pytest.raises(FloatingPointError, match="finite"), np.errstate(invalid="ignore"):
        eval_valuation(spec, corner, grid, sigma_cells=1.5)
