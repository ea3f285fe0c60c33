"""Valuation functionals built from mixed Hessian determinants.

The central object evaluates

    Phi(f) = integral of B(x) * det(Hess_F(f)(x) [i times], A_1(x), ..., A_{n-i}(x))

over a box, where F is one of the scalar fields R, C, H, O2, B is a
continuous compactly supported scalar weight (a ``BumpWeight``), and the
A_k are Hermitian matrix weights: bumps (a constant matrix M times a
``BumpWeight`` s) or single point atoms.  Every case is one quadrature:
the weight B * prod s (the mixed determinant is multilinear, so M enters
its slot as a constant), Hessians where it is nonzero, the determinant
and the weighted sum, by one route chosen once per (spec, grid, width).
At degree i >= 1 the determinant is a homogeneous polynomial of degree i
in the real Hessian entries, whose coefficients are polarized once per
spec.  On a grid the bumps are read on its tensor axes, so no node array
is built.  A point atom makes it a one-node quadrature at the atom's
location with weight 1 (by multilinearity a delta factor pulls
everything there); at most one atom is allowed since a product of deltas
at distinct points vanishes and at a common point is undefined.

Quadrature is a midpoint Riemann sum with deterministic index-ordered
accumulation, so repeated runs are bit-identical.  Hessians come from
difference stencils at the active nodes (sigma_cells = 0; optional
threading only splits them into fixed chunks and never changes a bit)
or, for non-smooth inputs such as support functions, as D^2 (G_sigma *
f) on the grid: separable derivative-of-Gaussian kernels of width
sigma_cells > 0 cells smooth and differentiate in one pass.

For piecewise-linear convex inputs and i = n over R there is an exact
route: the determinant-of-Hessian measure of a PL convex function is
atomic, one atom per vertex of its max-structure, with mass equal to the
volume of the convex hull of the active gradients.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import (FIELD_COMPONENTS, FIELDS, HermitianMatrix, _finite_copy, _pow2, _read_only,
                      _row_sums, _whole_number, polarized_det_batch)
from .convex import ConvexBody, PLConvexFunction, Polytope, SmoothProfileBody
from .hessian import (_entry_major, _field_entries, _stencil_hessians, _stencil_points,
                      _stencil_steps, _thread_buffer, assemble_structured, fd_hessian_batch,
                      grid_hessian, grid_hessian_adjoint)

__all__ = [
    "Grid",
    "BumpWeight",
    "MatrixBump",
    "MatrixAtom",
    "ValuationSpec",
    "AtomicMeasure",
    "hull_volume",
    "ma_measure_pl",
    "pl_valuation",
    "eval_valuation",
    "body_valuation",
    "homogeneous_components",
    "chunked_apply",
]

#: rows per block of ``chunked_apply``, whatever the thread count
_CHUNK_ROWS = 8192
#: the least positive normal float
_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned box with a fixed midpoint-rule resolution per axis:
    ``lo`` and ``hi`` are 1-D points of at least one axis, kept by
    ``_finite_copy``, with lo < hi on every axis, and ``shape`` whole
    numbers, each >= 1."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple

    def __post_init__(self):
        lo = _finite_copy("grid lo", self.lo, 1)
        hi = _finite_copy("grid hi", self.hi, 1)
        shape = tuple(_whole_number("grid cell count", s, 1) for s in self.shape)
        if lo.size == 0:
            raise ValueError("a grid needs at least one axis")
        if lo.shape != hi.shape or len(shape) != lo.size:
            raise ValueError("grid bounds and shape are inconsistent")
        if not np.all(lo < hi):
            raise ValueError("grid bounds need lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @staticmethod
    def cube(center, halfwidth: float, resolution: int, dim: int) -> "Grid":
        c = np.broadcast_to(np.asarray(center, dtype=float), (dim,))
        return Grid(c - halfwidth, c + halfwidth, (resolution,) * dim)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def axis_nodes(self, a: int) -> np.ndarray:
        h = self.spacing[a]
        return self.lo[a] + h * (0.5 + np.arange(self.shape[a]))

    def axes(self) -> list:
        return [self.axis_nodes(a) for a in range(self.dim)]

    def nodes(self) -> np.ndarray:
        """Cell midpoints as an (n_cells, dim) array, C-ordered."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def with_margin(self, cells: int) -> "Grid":
        """Same spacing, ``cells`` extra cells on every side."""
        pad = cells * self.spacing
        return Grid(self.lo - pad, self.hi + pad, tuple(s + 2 * cells for s in self.shape))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BumpWeight:
    """Continuous compactly supported scalar weight around a center.

    value = height * profile(|x - center| / radius); with plateau > 0 the
    profile is exactly ``height`` on the inner fraction of the support.
    The center, radius and height must be finite: a NaN would make every
    comparison false and the weight 0 or NaN on every cell.  The center, a
    scalar or a 1-D point, is kept by ``_finite_copy`` (ValueError
    otherwise: a column center broadcast against the nodes into a matrix
    of distances).
    ``on_axes`` gives the same bits on a tensor grid up to 7-D without a
    node array.
    """

    center: np.ndarray
    radius: float
    height: float = 1.0
    plateau: float = 0.0

    def __post_init__(self):
        c = _finite_copy("a bump center", self.center, 1)
        if not np.isfinite([self.radius, self.height]).all():
            raise ValueError("the bump radius and height must be finite")
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")
        if not 0.0 <= self.plateau < 1.0:
            raise ValueError("plateau must lie in [0, 1)")
        object.__setattr__(self, "center", c)

    def __call__(self, x):
        """B at the points on the last axis of ``x``; |x - center|^2 is
        ``_row_sums``, numpy's sum without its per-row cost."""
        x = np.asarray(x, dtype=float)
        return self._profile(_row_sums((x - self.center) ** 2))

    def _profile(self, dist2):
        """height * (1 - r^2)^3 on r < 1 and 0 elsewhere, a C^2 radial
        profile in r = |x - center| / radius, with r measured from the
        plateau's edge when plateau > 0, so that it is ``height`` on
        r <= plateau.  ``dist2`` is a sum of squares, never negative.
        ``np.fmax(1 - r*r, 0)`` gives 0.0 from r = 1 on and at a NaN r,
        as a ``where`` on r < 1 does.  The cube stays numpy's float64
        ``power``: libm's ``pow`` rounds some values in [0, 1] otherwise."""
        r = np.sqrt(dist2 / self.radius**2)
        if self.plateau > 0:
            r = np.maximum((r - self.plateau) / (1.0 - self.plateau), 0.0)
        return self.height * np.fmax(1.0 - r * r, 0.0) ** 3

    def on_axes(self, axes):
        """B on every cell of the tensor grid of ``axes``, flat in C order
        and 0 outside the support.  |x - center|^2 is an outer sum of
        (x_a - c_a)^2 from the first axis on, which is the order in which
        ``_row_sums`` adds a node's coordinates for d <= 7, so the bits are
        those of ``self(nodes)`` there (a zero of a negative height is
        +0.0 here).  From d = 8 it is numpy's pairwise sum, 8 accumulators,
        and the squared distances may differ by a few ulp (3 in the
        tests), which the profile amplifies near the edge of the support.
        The profile runs only where that sum is below radius^2, which
        holds wherever r < 1."""
        center = np.broadcast_to(self.center, (len(axes),))  # as ``x - center`` broadcasts
        dist2 = functools.reduce(np.add.outer, [
            (np.asarray(x, dtype=float) - c) ** 2 for x, c in zip(axes, center)])
        inside = dist2 < self.radius**2
        values = np.zeros(dist2.shape)
        values[inside] = self._profile(dist2[inside])
        return values.reshape(-1)

    @property
    def support_lo(self):
        return self.center - self.radius

    @property
    def support_hi(self):
        return self.center + self.radius


@dataclass(frozen=True, eq=False)
class MatrixBump:
    """Hermitian-matrix weight: a constant matrix times a scalar bump.

    ``scalar`` is the unit-height ``BumpWeight`` of the same center,
    radius and plateau.  With ``normalize=True`` it is rescaled on the
    evaluation grid so its midpoint-rule integral is exactly 1; this is
    the continuous approximation of a unit point atom.
    """

    matrix: HermitianMatrix
    center: np.ndarray
    radius: float
    plateau: float = 0.0
    normalize: bool = False
    scalar: BumpWeight = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scalar", BumpWeight(self.center, self.radius, 1.0, self.plateau))
        object.__setattr__(self, "center", self.scalar.center)


@dataclass(frozen=True, eq=False)
class MatrixAtom:
    """Point mass: matrix * delta(location); the location is one point,
    kept by ``_finite_copy`` (ValueError otherwise)."""

    matrix: HermitianMatrix
    location: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "location", _finite_copy("atom location", self.location, 1))


# ---------------------------------------------------------------------------
# valuation specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValuationSpec:
    """Field, whole matrix size n >= 1, whole degree i in 0..n, and weights.

    ``scalar_weight`` is B, a ``BumpWeight``, so that its support box is
    always checked against the quadrature box and the origin.
    ``weights`` carries the n - i matrix slots, each a ``MatrixBump`` or
    a ``MatrixAtom`` (TypeError otherwise), with at most one atom, and
    none beside a normalized bump, which is normalized on the grid an atom
    spec does not have; for degree n it is empty, and for degree 0 the
    functional is constant in its argument.  An atom's location has
    ``real_dim`` coordinates, and the center of B or of a bump 1 (it
    broadcasts, see ``on_axes``) or ``real_dim`` (ValueError otherwise).
    """

    field: str
    n: int
    degree: int
    scalar_weight: BumpWeight
    weights: tuple = ()

    def __post_init__(self):
        if not isinstance(self.scalar_weight, BumpWeight):
            raise TypeError(f"scalar_weight must be a BumpWeight, not {self.scalar_weight!r}")
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if _whole_number("degree", self.degree, 0) > _whole_number("n", self.n, 1):
            raise ValueError(f"degree {self.degree} out of range 0..{self.n}")
        if self.field == "O2":
            if self.n != 2:
                raise ValueError("field O2 requires n = 2")
            if self.degree not in (1, 2):
                raise ValueError("field O2 supports degrees 1 and 2 only")
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.n - self.degree:
            raise ValueError(
                f"expected {self.n - self.degree} matrix weights, got {len(self.weights)}"
            )
        if sum(isinstance(w, MatrixAtom) for w in self.weights) > 1:
            raise ValueError("at most one matrix weight may be a point atom")
        for w in self.weights:
            if not isinstance(w, (MatrixBump, MatrixAtom)):
                raise TypeError(f"a matrix weight must be a MatrixBump or a MatrixAtom, not {w!r}")
            if w.matrix.field != self.field or w.matrix.n != self.n:
                raise ValueError("matrix weight does not match the valuation's field/size")
        if self.atom is not None and any(isinstance(w, MatrixBump) and w.normalize
                                           for w in self.weights):
            raise ValueError("a normalized bump needs a quadrature grid to normalize on, and a "
                             "spec with a point atom has none")
        d = self.real_dim
        for w in (self.scalar_weight, *self.weights):
            point, sizes = (w.location, (d,)) if isinstance(w, MatrixAtom) else (w.center, (1, d))
            if point.size not in sizes:
                raise ValueError(f"{type(w).__name__} dimension {point.size} != real dimension {d}")

    @property
    def real_dim(self) -> int:
        return self.n * FIELD_COMPONENTS[self.field]

    @property
    def atom(self):
        for w in self.weights:
            if isinstance(w, MatrixAtom):
                return w
        return None

    def with_atom_widened(self, width: float) -> "ValuationSpec":
        """Replace the point atom by the normalized bump of radius ``width``
        at its location, which converges to the atom as width -> 0."""
        atom = self.atom
        if atom is None:
            raise ValueError("spec has no point atom to widen")
        bump = MatrixBump(atom.matrix, atom.location, float(width), normalize=True)
        new = tuple(bump if w is atom else w for w in self.weights)
        return ValuationSpec(self.field, self.n, self.degree, self.scalar_weight, new)


# ---------------------------------------------------------------------------
# convex-hull volume and the exact PL route
# ---------------------------------------------------------------------------

def _affine_rank(points):
    """Affine rank of a point set: the numerical rank of p_j - p_0 by
    ``np.linalg.matrix_rank``, counting singular values above 1e-10 * s
    with s = max |p_j - p_0| over every coordinate.  One point, or points
    that all coincide, have rank 0."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return 0
    rel = points[1:] - points[0]
    scale = np.abs(rel).max(initial=0.0)
    if scale == 0.0:
        return 0
    return int(np.linalg.matrix_rank(rel, tol=1e-10 * scale))


def hull_volume(points) -> float:
    """Volume of the convex hull of an (m, n) point set, by qhull.

    A 1-D set gives its extent.  Fewer than n + 1 points, and sets of
    lower affine rank, give 0.0, as does a nearly flat set qhull refuses.
    Non-finite points, and an array that is not (m, n) with n >= 1,
    raise ValueError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError(f"expected an (m, n) point array with n >= 1, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("hull points must be finite")
    volume = _spanning_volume(points)
    return 0.0 if volume is None else volume


def _spanning_volume(points):
    """The hull volume of finite (m, n) points if their affine rank is n,
    else None: fewer than n + 1 points are None, and qhull is not called.

    The volume comes first, and it certifies the rank itself.  Let s be
    max |p_j - p_0| over every coordinate and sigma the least singular
    value of the differences p_j - p_0.  Every point lies in a slab of
    width 2 sigma, and across it within sqrt(n) s of p_0, so the volume V
    is at most 2 sigma (2 sqrt(n) s)^(n - 1).  V above 2e-6 s
    (2 sqrt(n) s)^(n - 1), a normal float, thus proves sigma > 1e-6 s,
    10^4 times ``_affine_rank``'s tolerance, and its SVD would count full
    rank too.  Only a set this does not certify (nearly flat, refused by
    qhull, or so small or large that the bound leaves the normal floats)
    pays for ``_affine_rank``."""
    m, n = points.shape
    if m <= n:
        return None
    if n == 1:
        volume = float(points.max() - points.min())
    else:
        from scipy.spatial import ConvexHull, QhullError
        try:
            volume = float(ConvexHull(points).volume)
        except QhullError:
            volume = 0.0
    scale = float(np.abs(points[1:] - points[0]).max())
    # a product, not **, which raises OverflowError where this gives inf
    bound = math.prod([2e-6 * scale] + [2.0 * math.sqrt(n) * scale] * (n - 1))
    if volume > bound >= _TINY or _affine_rank(points) == n:
        return volume
    return None


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely many point masses; total_mass is their exact sum.

    The m locations are rows, and the masses must have shape (m,)
    (ValueError otherwise): an (m, 1) column would broadcast against the
    values ``integrate`` reads and sum every value times every mass.
    Unlike the value objects of the inputs, it keeps its arrays without
    ``_finite_copy``: it is the exact route's own output, built once per
    ``pl_valuation`` call, where the copy and the finiteness test would
    take its construction from about 1.8 to 6.5 us, some 5% of a call of
    about 90 us.
    """

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.shape != (loc.shape[0],):
            raise ValueError(f"masses of shape {m.shape} do not match {loc.shape[0]} locations")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def integrate(self, fn) -> float:
        """The sum of fn(location) * mass; ``fn`` maps the (m, n)
        locations to m values, of shape (m,) (ValueError otherwise).
        The sum is ``np.add.reduce``, the reduction ``np.sum`` makes on a
        1-D array, without its dispatch."""
        if len(self.masses) == 0:
            return 0.0
        values = np.asarray(fn(self.locations), dtype=float)
        if values.shape != self.masses.shape:
            raise ValueError(f"fn gave values of shape {values.shape} for "
                             f"{len(self.masses)} locations; expected {self.masses.shape}")
        return float(np.add.reduce(values * self.masses))


def _empty_measure(dim):
    return AtomicMeasure(np.zeros((0, dim)), np.zeros(0))


def _dedupe_pieces(slopes, offsets):
    """The pieces whose (a_j, b_j) rounded to 12 decimals is new, in their
    first-seen order, with the slopes and the offsets each divided first by
    its own power of two ``_pow2`` of its largest magnitude.

    The scales make the rounding relative: without them, 2-D slopes of
    order 1e-13 all rounded to one row and gave the empty measure.  The
    keys are the scaled values in units of 1e-12, rounded to whole
    numbers: ``np.round(x, 12)`` is that divided back by 1e12, which
    merges no other rows.  One pass keeps the first index of each key in
    a dict.  Tuples compare their floats by value, so -0.0 and +0.0 merge
    (they are equal, and hash alike).  When no row merges, the caller's
    own arrays come back, not copies.
    """
    rows = np.concatenate([slopes, offsets[:, None]], axis=1)
    top = np.abs(rows).max(axis=0).tolist()
    rows /= [_pow2(max(top[:-1]))] * (len(top) - 1) + [_pow2(top[-1])]
    rows *= 1e12
    rows = np.rint(rows, out=rows).tolist()
    first = {}
    for i, row in enumerate(map(tuple, rows)):
        first.setdefault(row, i)
    if len(first) == len(rows):
        return slopes, offsets
    idx = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return slopes[idx], offsets[idx]


def ma_measure_pl(f: PLConvexFunction) -> AtomicMeasure:
    """Determinant-of-Hessian measure of a PL convex function (exact).

    The gradient map of f sends each cell of its max-structure to the
    hull of the active gradients; the measure is atomic with one atom per
    vertex of the structure and mass the n-volume of that hull.  The
    vertex/cell combinatorics are read off the lower convex hull of the
    lifted points (a_j, -b_j): every lower facet is a cell of the induced
    regular subdivision of conv{a_j}, its supporting-plane gradient is the
    primal point where those pieces are all active, and its projected
    volume is the atom mass.  Total mass is vol(conv{a_j}).

    The cost is one hull and no SVD for a support function: duplicate
    pieces go in one dict pass (no copy when none merge), the hull of the
    slopes certifies their full rank from its volume (``_spanning_volume``;
    only a nearly flat set pays for the rank test, and rank-deficient
    slopes give the empty measure), and constant offsets skip the least
    squares and the lifted hull, since their one atom sits at exactly 0.

    Other offsets read the lower facets in one array pass: one batched
    ``np.linalg.det`` over their (F, n, n) edge stack, one rounding of
    their gradients to 7 decimals, and ``np.unique`` over the rounded rows.
    Each atom keeps its first facet's gradient and adds its facets' masses
    in facet order (``np.bincount``), so the bits are those of a loop that
    keys a dict by the rounded tuples and sorts the keys: ``np.unique``
    orders rows by value as tuples compare, and merges -0.0 with +0.0.

    Exact mode is limited to dimension <= 3.
    """
    n = f.dim
    if n > 3:
        raise ValueError("exact PL measure supports dimension <= 3")
    slopes, offsets = _dedupe_pieces(f.slopes, f.offsets)
    total_expected = _spanning_volume(slopes)
    if total_expected is None:
        return _empty_measure(n)

    # constant b: -b is affine in a with zero gradient, so there is a single
    # cell whose atom sits at exactly 0 (support functions land here, b = 0)
    if (offsets == offsets[0]).all():
        return AtomicMeasure(np.zeros((1, n)), np.array([total_expected]))

    # any other exact affine dependence of -b on a: a single cell, one atom
    # at the supporting-plane gradient
    design = np.column_stack([slopes, np.ones(len(slopes))])
    coef, *_ = np.linalg.lstsq(design, -offsets, rcond=None)
    resid = design @ coef + offsets
    scale = 1.0 + np.abs(offsets).max(initial=0.0)
    if np.abs(resid).max() <= 1e-10 * scale:
        return AtomicMeasure(coef[:n][None, :], np.array([total_expected]))

    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([slopes, -offsets]))
    eq = hull.equations
    lower = eq[:, n] < -1e-9
    grads = -eq[lower, :n] / eq[lower, n:n + 1]
    verts = slopes[hull.simplices[lower]]
    masses = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(n)
    keep = masses > 0.0
    if not keep.any():
        return _empty_measure(n)
    grads, masses = grads[keep], masses[keep]
    _, first, group = np.unique(np.round(grads, 7), axis=0, return_index=True,
                                return_inverse=True)
    measure = AtomicMeasure(grads[first], np.bincount(group, masses))
    gap = abs(measure.total_mass - total_expected)
    if gap > 1e-8 * max(1.0, total_expected):
        raise ArithmeticError(
            f"PL measure lost mass: atoms sum to {measure.total_mass:.12e}, "
            f"gradient hull volume is {total_expected:.12e}"
        )
    return measure


def pl_valuation(scalar_weight, f: PLConvexFunction) -> float:
    """Exact value of integral B d(det Hess f) for PL convex f (i = n, R)."""
    return ma_measure_pl(f).integrate(scalar_weight)


# ---------------------------------------------------------------------------
# quadrature evaluation
# ---------------------------------------------------------------------------

def chunked_apply(fn, points, threads: int = 1):
    """Apply a vectorized map over fixed row blocks, concatenated in order.

    The blocks do not depend on the thread count, so results are
    bit-identical for any ``threads``, a whole number of at least 1.
    """
    threads = _whole_number("threads", threads, 1)
    points = np.asarray(points)
    blocks = [points[i:i + _CHUNK_ROWS] for i in range(0, max(len(points), 1), _CHUNK_ROWS)]
    if threads <= 1 or len(blocks) == 1:
        parts = map(fn, blocks)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, blocks))
    parts = [np.asarray(p) for p in parts]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def _joint_support(spec: ValuationSpec):
    """Intersection (lo, hi) of the support boxes of B and the matrix
    bumps; a point atom adds none (its location is the one node).

    The integrand vanishes wherever any single weight vanishes (mixed
    determinants are multilinear), so it is supported in this box.
    """
    bumps = [spec.scalar_weight] + [w.scalar for w in spec.weights if isinstance(w, MatrixBump)]
    return (functools.reduce(np.maximum, [b.support_lo for b in bumps]),
            functools.reduce(np.minimum, [b.support_hi for b in bumps]))


def gaussian_filter(k, sigma_cells):
    """Gaussian weights of width ``sigma_cells`` cells on the offsets k:
    exp(-0.5 / sigma^2 k^2) over its sum.

    This is scipy's own ``_gaussian_kernel1d`` formula in its order of
    operations, so the weights keep the bits of
    ``scipy.ndimage.gaussian_filter`` on the identity, which stays the
    reference in the tests, without importing ``scipy.ndimage``.  The
    name is the benchmark tracer's patch point (``valuation.smooth``),
    so ``_gaussian_kernels`` calls it through the module global.
    """
    g = np.exp(-0.5 / (sigma_cells * sigma_cells) * k**2)
    return g / g.sum()


def _kernel_radius(sigma_cells):
    """r = int(4 sigma + 0.5), the reach in cells of the Gaussian kernels
    of ``sigma_cells`` cells (scipy's default, truncate = 4): the one
    radius by which the grid route samples and
    ``verify.smoothing_schedule`` bounds a run."""
    return int(4.0 * sigma_cells + 0.5)


def _gaussian_kernels(sigma_cells):
    """Correlation kernels of orders 0, 1 and 2 for a Gaussian of
    ``sigma_cells`` cells, on offsets k = -r..r with r = ``_kernel_radius``.

    g holds the weights of ``gaussian_filter``.  The derivative kernels
    are k g and (k^2 - m2) g, scaled so that their discrete moments are
    exact: sum g = 1, sum k g1 = 1 (g1 odd), sum g2 = 0 and sum k^2 g2 =
    2, with m2 = sum k^2 g and m4 = sum k^4 g.  So a
    linear h adds nothing to g2, and the three differentiate cubics
    exactly.  A width below 1/8 cell has r = 0 and no derivative kernels.
    """
    r = _kernel_radius(sigma_cells)
    if r < 1:
        raise ValueError(f"sigma_cells = {sigma_cells} is below 1/8 cell: the Gaussian "
                         "truncates to one cell and cannot be differentiated")
    k = np.arange(-r, r + 1.0)
    g = gaussian_filter(k, sigma_cells)
    m2, m4 = np.sum(k**2 * g), np.sum(k**4 * g)
    return g, k * g / m2, (k**2 - m2) * g * 2.0 / (m4 - m2**2)


def _grid_box(grid, sigma_cells, active):
    """Where the grid route samples ``f`` for the flat boolean ``active``
    cells of ``grid``, in read-only arrays: the kernels of
    ``_gaussian_kernels``, the extended grid's spacing, the sample axes
    and the active cells' flat C-order indices in the box.

    The box is the bounding box of the active cells, from one ``any``
    over the mask per axis; its sample axes are sliced from the extended
    grid's and reach r = ``_kernel_radius`` cells further on every side.
    """
    d = grid.dim
    kernels = tuple(map(_read_only, _gaussian_kernels(sigma_cells)))
    r = len(kernels[0]) // 2
    ext = grid.with_margin(r)
    mask = np.reshape(active, grid.shape)
    hits = [np.flatnonzero(mask.any(axis=tuple(b for b in range(d) if b != a))) for a in range(d)]
    box = [slice(int(hit[0]), int(hit[-1]) + 1) for hit in hits]
    cells = np.flatnonzero(mask[tuple(box)])
    axes = tuple(_read_only(ext.axis_nodes(a)[s.start:s.stop + 2 * r]) for a, s in enumerate(box))
    return kernels, _read_only(ext.spacing), axes, _read_only(cells)


def _box_samples(f, axes):
    """``f`` on the tensor grid of ``axes``, shaped ``(len(axes[0]), ...)``:
    a ``Polytope`` by ``support_grid`` (for a lead axis l > 0 a view of
    its lead-first buffer, not C-contiguous; ``_kernel_sum`` multiplies
    it into a contiguous buffer, ``grid_hessian`` copies it once), a
    callable in one call on the grid's nodes."""
    if isinstance(f, Polytope):
        return f.support_grid(axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return np.asarray(f(nodes), dtype=float).reshape(tuple(len(x) for x in axes))


@functools.cache
def _unit_hessians(field, d):
    """The real entries (a, b), a <= b, that ``field`` reads in dimension
    ``d`` (``_field_entries``), in row-major order, and the field Hessian
    of each entry's unit symmetric matrix, in read-only arrays.  They
    depend on (field, d) alone, so each pair is assembled once per
    process: O2's 80 units in 16-D cost more to assemble than a spec's
    polarization.  ``_monomial_table`` reads the entries, and each key's
    ``_polynomial_form`` gathers its slots from the units."""
    a, b = np.divmod(_field_entries(d, FIELD_COMPONENTS[field]), d)
    units = np.zeros((len(a), d, d))
    units[np.arange(len(a)), a, b] = units[np.arange(len(a)), b, a] = 1.0
    return _read_only(a), _read_only(b), _read_only(assemble_structured(field, units))


@functools.cache
def _monomial_table(field, d, i):
    """The part of ``_polynomial_form`` that (field, d, i), i >= 1, alone
    fixes, built once per process in read-only index arrays: the
    monomials, every multiset of i of ``_unit_hessians``' entries in
    ``itertools.combinations_with_replacement`` order, as i columns of
    unit indices (one slot each); the number i! / prod m_e! of orderings
    of each; the (M, i) flat entries a d + b of their factors, in
    lexicographic order; and each monomial's head, the index of its first
    i - 1 entries among the distinct ones, which never decreases (all 0
    at i = 1).  Only indices are held, not the gathered unit matrices,
    which would take about 1.7 MB for O2 at i = 2 and 2.4 MB for R in 5-D
    at i = 4; a key's build gathers its slots itself."""
    a, b, _ = _unit_hessians(field, d)
    monos = np.array(list(itertools.combinations_with_replacement(range(len(a)), i)))
    orderings = math.factorial(i) / np.tril(monos[:, :, None] == monos[:, None]).sum(2).prod(1)
    entries = (a * d + b)[monos]
    heads = np.cumsum(np.any(entries[1:, :-1] != entries[:-1, :-1], axis=1)).tolist()
    columns = tuple(_read_only(np.ascontiguousarray(m)) for m in monos.T)
    return columns, _read_only(orderings), _read_only(entries), _read_only(np.array([0] + heads))


def _polynomial_form(spec):
    """A spec's integrand D(Hess_F f [i], M_1, ..., M_{n-i}) as a homogeneous
    polynomial of degree i >= 1 in the real Hessian entries h_e the field
    reads (``_unit_hessians``; an off-diagonal e = (a, b) stands for f_ab
    and f_ba, which are equal): the sum of c_m prod_k h_{e_mk} over the
    monomials m, multisets of i entries.

    The determinant is multilinear and symmetric, so c_m is D(U_{e_m1},
    ..., U_{e_mi}, M_1, ...) of the unit Hessians U_e, times the number
    i! / prod m_e! of orderings of the multiset, with m_e the multiplicity
    of e (prod m_e! is the product over the factors of how many factors up
    to it equal it).  The monomials, their orderings and their entries
    depend on (field, d, i) alone and come from ``_monomial_table``, so a
    key's build does only what its weights fix: one
    ``polarized_det_batch`` gives every monomial's mixed determinant, on
    the unit Hessians gathered by the table's columns.  It cancels terms
    of the size of its largest slot, so each M_k enters divided by s_k =
    ``_pow2(|M_k|_F)``, and c is multiplied by the product of the s_k: the
    units have norm about 1, and so has M_k / s_k within a factor sqrt(2)
    (a large M_k would otherwise cost digits).  Both steps are exact in
    binary, so an M of unit norm keeps the bits of the unscaled form.

    Only the nonzero c_m are kept, as read-only groups (head, c, last): the
    monomials, in lexicographic order of their flat entry indices a d + b,
    that share their first i - 1 entries ``head``, with their coefficients
    and last entries; the groups are slices of the kept monomials between
    the rows where the head changes, and none when every c_m is 0.  At i =
    1 that is one group, every read entry with a nonzero coefficient in
    row-major order, with an empty head.  The heads' and last entries are
    the only real entries a call of the spec computes
    (``_build_quadrature``): parity-break's unit-diagonal weights leave one
    principal minor, the entry f_33 alone at n = 3, i = 1."""
    d = spec.real_dim
    columns, orderings, entries, heads = _monomial_table(spec.field, d, spec.degree)
    units = _unit_hessians(spec.field, d)[2]
    scales = [_pow2(w.matrix.norm()) for w in spec.weights]
    slots = [units[m] for m in columns] + [w.matrix.data / s for w, s in zip(spec.weights, scales)]
    coefficients = polarized_det_batch(spec.field, slots) * orderings * math.prod(scales)
    keep = np.flatnonzero(coefficients)
    if not len(keep):
        return ()
    entries, coefficients, heads = entries[keep], coefficients[keep], heads[keep]
    cuts = [0, *(np.flatnonzero(heads[1:] != heads[:-1]) + 1).tolist(), len(keep)]
    return tuple((tuple(entries[s, :-1].tolist()), _read_only(coefficients[s:t]),
                  _read_only(entries[s:t, -1])) for s, t in zip(cuts, cuts[1:]))


def _polynomial_values(hreal, groups):
    """The polynomial of ``_polynomial_form``'s ``groups`` at each Hessian of
    an entry-major (N, d, d) batch H (``_entry_major``), whose entry e =
    a d + b is the contiguous plane e of the (d d, N) view.  A group is one
    ``einsum`` of its coefficients against its last entries' planes, which
    adds the terms in their order and calls no BLAS routine (at degree 1
    the whole value), or for a lone monomial of degree >= 2 its plane times
    its coefficient; then times each plane of its head.  The groups are
    added in order, and no (monomials, i, N) gather is formed."""
    planes = hreal.transpose(1, 2, 0).reshape(-1, len(hreal))
    total = np.zeros(len(hreal)) if not groups else None
    for head, coefficients, last in groups:
        values = (planes[last[0]] * coefficients[0] if head and len(last) == 1
                  else np.einsum("k,kn->n", coefficients, planes[last]))
        for e in head:
            values *= planes[e]
        total = values if total is None else np.add(total, values, out=total)
    return total


def _bump_factor(weight, grid: Grid, node=None):
    """The scalar times one matrix weight's constant matrix on every cell
    of ``grid`` (read on its tensor axes) or at an atom spec's one
    ``node``: the bump, over its midpoint mass when normalized (on a grid
    only, see ``ValuationSpec``), or 1 for an atom.  That mass sums the
    per-cell array, its exact zeros included, so it has the node array's bits."""
    if isinstance(weight, MatrixAtom):
        return 1.0
    scal = weight.scalar(node) if grid is None else weight.scalar.on_axes(grid.axes())
    if weight.normalize:
        total = float(np.sum(scal)) * grid.cell_volume
        if total <= 0:
            raise ValueError("normalized bump has zero mass on this grid")
        scal = scal / total
    return scal


def _constant(f, threads, value):
    """The integral at degree 0 or with no active cell, which reads no f."""
    return value


def _kernel_sum(f, threads, axes, kernel):
    """The degree-1 grid integral <K, samples> on the box of ``axes``:
    numpy's pairwise sum of K * samples, never a BLAS dot, which splits a
    long sum by its thread count; the products go to this thread's
    "hessians" buffer."""
    products = _thread_buffer("hessians", kernel.shape)
    return float(np.multiply(kernel, _box_samples(f, axes), out=products).sum())


def _box_integral(f, threads, entries, integrand, weight, scale, box):
    """scale * sum w * integrand(H) on the active cells of ``box``
    (``_grid_box``), H the real Hessians of the smoothed f at ``entries``
    from one ``grid_hessian`` call into this thread's "hessians" buffer."""
    kernels, spacing, axes, cells = box
    out = _entry_major(len(weight), len(axes), "hessians")
    hreal = grid_hessian(_box_samples(f, axes), spacing, kernels, entries, cells, out)
    return float(scale * (weight * integrand(hreal)).sum())


def _stencil_integral(f, threads, step, entries, integrand, weight, scale, points):
    """scale * sum w * integrand(H) at ``points``, H the difference
    stencils' real Hessians at ``entries`` with ``step``, one
    ``chunked_apply`` block of 8,192 points (and one call of ``f``) at a
    time."""
    values = chunked_apply(lambda b: integrand(fd_hessian_batch(f, b, step, entries)), points,
                           threads)
    return float(scale * (weight * values).sum())


def _atom_integral(f, threads, stencil, integrand, weight, scale):
    """scale * w * integrand(H) at an atom's one node, from the key's
    ``stencil`` (``_stencil_points``' read-only (K, d) points, h and the
    offset table's axes and rows, built once per key): one call of ``f``
    on a fresh writable copy of the points, so an f that writes into its
    argument changes no later call, and ``_stencil_hessians``.  The bits
    are those of ``_stencil_integral`` on the node."""
    points, h, *rows = stencil
    hreal = _stencil_hessians(f(points.copy()), h, points.shape[1], *rows)
    return float(scale * (weight * integrand(hreal)).sum())


def _held_bytes(value):
    """The memory of the distinct objects in ``value``, through its tuples,
    dicts and partials (not the partial's function): ``sys.getsizeof`` of
    each, which holds an array's data when the array owns it, and a view's
    ``nbytes``."""
    seen, total, stack = set(), 0, [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            total += obj.nbytes if obj.base is not None else 0
        elif isinstance(obj, tuple):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, functools.partial):
            stack += obj.args, obj.keywords
    return total


class _ValueStore:
    """Built entries by value key, least recently used first, that hold at
    most ``limit`` bytes with their keys (``_held_bytes``), counted as
    entries come and go; an entry larger than ``limit`` is never kept, and
    putting a held key again replaces its entry and its charge.  One lock
    guards every method: two threads that miss one key both put it."""

    def __init__(self, limit):
        self.limit, self.nbytes, self.entries = limit, 0, {}
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            held = self.entries.pop(key, None)
            if held is None:
                return None
            self.entries[key] = held  # now the most recently used
            return held[0]

    def put(self, key, entry):
        nbytes = _held_bytes((key, entry))
        if nbytes > self.limit:
            return
        with self.lock:
            if key in self.entries:
                self.nbytes -= self.entries.pop(key)[1]
            self.entries[key], self.nbytes = (entry, nbytes), self.nbytes + nbytes
            while self.nbytes > self.limit:
                self.nbytes -= self.entries.pop(next(iter(self.entries)))[1]

    def clear(self):
        with self.lock:
            self.entries.clear()
            self.nbytes = 0


#: ``_quadrature``'s store behind its identity memo, 512 KiB: a 12^3
#: stencil entry is about 32 kB with its key, and each identity key's entry
#: is over the bound (R on 48^3 0.68 MB, a degree-1 C or H K on 20^4 samples
#: 1.28 MB), so those keys keep the one-entry memo alone, and its memory
_BUILT = _ValueStore(1 << 19)


@functools.lru_cache(maxsize=1)
def _quadrature(spec, grid, sigma_cells, step):
    """The entry of ``_build_quadrature`` for a checked call's spec, grid
    (None for an atom spec), width and stencil step (a float, or None for
    ``DEFAULT_STEP``; always None on the grid route), built once per value.

    Two levels.  In front, a memo of one entry keyed by the objects: the
    experiments evaluate one functional on many bodies in a row, and the
    spec and the grid are ``eq=False`` objects, which hash by identity, so
    a hit costs one lookup; the entry keeps them alive, so no other object
    takes over their ids.  On a miss, ``_BUILT``, keyed by the pickle of
    ``(spec, grid, sigma_cells, step)``, which writes every part's type, an
    array's dtype, shape and bytes and a float's bits, so -0.0 and +0.0, a
    1-ulp move or an int for a float never share an entry: an equal spec
    or grid made again (``parity_break`` makes its own on every call)
    shares the entry built for the first, whose arrays are read-only.  A
    key with a part that pickle refuses (a local function, a lambda, a
    generator, a lock) is built and never stored, and an exception is
    never cached, so a spec that raises here raises on every call.
    """
    try:
        key = pickle.dumps((spec, grid, sigma_cells, step), protocol=5)
    except (pickle.PicklingError, TypeError, AttributeError):
        return _build_quadrature(spec, grid, sigma_cells, step)
    entry = _BUILT.get(key)
    if entry is None:
        entry = _build_quadrature(spec, grid, sigma_cells, step)
        _BUILT.put(key, entry)
    return entry


def _build_quadrature(spec, grid, sigma_cells, step):
    """A checked call of ``eval_valuation`` fixed by its spec, grid (None
    for an atom spec), width and stencil step: the pair (w, integral) of
    the read-only weight w on the active cells and the one route
    ``integral(f, threads) -> float`` chosen for the key, a
    ``functools.partial`` of a module function over read-only arrays:

    - ``_constant`` at degree 0, (n - i)! * cell * sum w * D(M_1, ...,
      M_n), or 0.0 when no cell is active: f is never read;
    - ``_kernel_sum`` at degree 1 with a positive width: the determinant
      is a linear form of the real Hessian (``_polynomial_form`` at i =
      1), and the Hessians are fixed linear maps of the box samples, so
      the integral is <K, samples> with K the adjoint of the box's Hessian
      products (``grid_hessian_adjoint``) applied to w and to the form's
      coefficients, times (n - 1)! * cell;
    - else the key's ``_polynomial_form``, evaluated per Hessian batch by
      ``_polynomial_values``: ``_box_integral`` runs it once on the
      ``_grid_box``'s gathered Hessians at a positive width,
      ``_stencil_integral`` once per stencil block of the active
      midpoints, each block's points built by ``fd_hessian_batch`` with
      the key's step, and ``_atom_integral`` once at the atom's one node.
      The atom key holds that node's stencil, built here by one
      ``_stencil_points`` call, so an atom call builds no point and
      computes no step (``eval_valuation``'s origin check reads the
      key's h); a multi-node key holds no stencil, which for
      ``parity_break``'s widened 12^3 keys (about 200 kB each) would
      crowd the store.  The form is built once per key, so no call
      assembles a field Hessian or polarizes.

    The form owns which real Hessian entries a call computes: the union
    of its groups' head and last entries, marked in a mask of the d d
    flat indices a d + b and read off it sorted (no Python set of ints),
    goes to ``grid_hessian``, ``fd_hessian_batch`` or the atom's
    ``_stencil_points`` in place of the field's whole read set, and the
    other entries are 0 and never read.  The routes look up
    ``grid_hessian``, ``fd_hessian_batch`` and ``_stencil_hessians`` in
    this module when they run, and the build looks up ``_stencil_points``
    and ``polarized_det_batch`` (and, once per field and dimension,
    ``assemble_structured``).  It
    reads only the values of its arguments, so equal keys build the same
    bits (``_quadrature`` builds each value once).
    """
    if grid is None:  # an atom spec: one node, at the atom's location
        node, cell = spec.atom.location[None, :], 1.0
        weight = spec.scalar_weight(node)
    else:
        node, cell = None, grid.cell_volume
        weight = spec.scalar_weight.on_axes(grid.axes())
    if weight.any():  # B first: a B of 0 on every cell reads no matrix weight
        for w in spec.weights:  # each is its constant matrix times this factor
            weight = weight * _bump_factor(w, grid, node)
    active = weight != 0  # w = 0 cells add 0 * det
    weight = _read_only(weight[active])
    scale = math.factorial(spec.n - spec.degree) * cell
    if spec.degree == 0 or not weight.size:  # an empty sum is 0.0 and polarizes nothing
        matrices = [w.matrix.data for w in spec.weights]
        dets = polarized_det_batch(spec.field, matrices) if weight.size else 0.0
        return weight, functools.partial(_constant, value=float(scale * (weight * dets).sum()))
    box = _grid_box(grid, sigma_cells, active) if sigma_cells > 0 else None
    groups = _polynomial_form(spec)
    read = np.zeros(spec.real_dim ** 2, dtype=bool)
    for head, _, last in groups:
        read[list(head)] = read[last] = True
    entries = _read_only(np.flatnonzero(read))
    if box is not None and spec.degree == 1:
        kernels, spacing, axes, cells = box
        # at i = 1 one group, or none, whose last entries are ``entries``
        coefficients = np.concatenate([scale * c for _, c, _ in groups] or [[]])
        kernel = grid_hessian_adjoint(weight, entries, coefficients, spacing, kernels, cells,
                                      tuple(len(x) for x in axes))
        return weight, functools.partial(_kernel_sum, axes=axes, kernel=_read_only(kernel))
    integrand = functools.partial(_polynomial_values, groups=groups)
    if box is not None:
        route = functools.partial(_box_integral, entries=entries, box=box)
    elif grid is None:  # the atom's one stencil, its points flat offset-major
        x, h, *rows = _stencil_points(node, step, entries)
        stencil = (_read_only(x.reshape(-1, x.shape[-1])), _read_only(h), *rows)
        route = functools.partial(_atom_integral, stencil=stencil)
    else:  # the active midpoints gathered from the axes
        cells = np.unravel_index(np.flatnonzero(active), grid.shape)
        points = _read_only(np.stack([x[i] for x, i in zip(grid.axes(), cells)], axis=-1))
        route = functools.partial(_stencil_integral, step=step, entries=entries, points=points)
    return weight, functools.partial(route, integrand=integrand, weight=weight, scale=scale)


def eval_valuation(spec: ValuationSpec, f, grid: Grid = None, *, sigma_cells: float = 0.0,
                   step: float = None, threads: int = 1) -> float:
    """Evaluate the valuation functional on a convex (or C^2) function.

    ``f`` is vectorized, (m, d) -> (m,) with d = spec.real_dim, or a
    ``Polytope`` for its support function.  Every spec is one quadrature:
    the weight w = B * prod s_k on the cells, the real Hessian entries
    that the integrand reads where w != 0, and (n - i)! * cell * sum w *
    D(Hess_F f [i], M_1, ..., M_{n-i}) against the weights' constant
    matrices M_k.
    A bump s_k M_k has the factor s_k (over its midpoint mass when
    normalized), an atom 1.  A spec with a point atom has one node, the
    atom location, with weight 1 and no grid; otherwise ``grid`` supplies
    the cell volume and B and the matrix bumps are read on its tensor
    axes (``on_axes``).  A B that vanishes on every cell gives 0.0 before
    any matrix weight is read.

    ``sigma_cells`` picks the Hessians: 0 means difference stencils at
    the active midpoints, in fixed blocks of 8,192 nodes over
    ``threads``, one call of ``f`` per block; a positive width means the
    smoothed grid route: f is sampled on the active cells' bounding box
    plus the kernel radius ``int(4 sigma + 0.5)`` in one call, and each
    entry of the Gaussian of ``sigma_cells`` cells convolved with f is
    one banded product per axis with a derivative-of-Gaussian kernel.
    The M_k are constant, so the determinant is a polynomial of degree i
    in the real Hessian entries, and a call computes only the entries with
    a nonzero coefficient (a principal minor's, for unit-diagonal M_k) and
    evaluates it on them without assembling or polarizing.  At degree 1 it
    is a linear form, and on the grid route the value is <K, samples> for
    a kernel K on the box.

    The checks below run on every call.  What (spec, grid, sigma_cells,
    step) fixes, the route and the polynomial's coefficients included, is
    built once per value of that key (``_quadrature``): a call with the
    last call's objects, or with equal ones made again while the store
    (512 KiB of built entries) holds theirs, is its checks and that route
    on f.  A degree-1 grid key's first call also pays for its K, and an
    atom key's for its node's stencil points, which its calls share: each
    call passes f a fresh copy of them.

    One contract holds for every form of h_K and both routes:

    - A body's bound ``support`` stands for the body, so a polytope, passed
      itself or as ``K.support``, is sampled by ``Polytope.support_grid``:
      both forms give the same bits.
    - A body-backed f (a ``Polytope``, ``SmoothProfileBody`` or
      ``PLConvexFunction``, or a body's bound ``support``) whose ``dim``
      is not the spec's real dimension raises ``ValueError`` before f is
      read.
    - At sigma_cells = 0 a ``Polytope`` or ``PLConvexFunction``, in any
      form, is kinked and raises; a ``SmoothProfileBody`` support is
      singular at 0 and raises when the origin lies in the joint support
      box of B and the matrix bumps (with an atom: in its stencil).  A
      negative or non-finite width, one whose kernel reach 4 sigma + 0.5
      is not finite, or a positive one with an atom or below 1/8 cell,
      raises.  So does a ``step`` other than None that is not
      finite and > 0, or that comes with a positive width (the grid route
      has no stencil), and a ``threads`` that is not a whole number >= 1;
      all three are checked before B is read.
    - A non-finite value of f that a call reads raises
      ``FloatingPointError``, and which values it reads depends on the
      route.  The stencil route (and an atom) reads f only at the stencil
      points of the entries its polynomial form reads, around the active
      nodes, where B and every bump are nonzero, so a non-finite f
      elsewhere does not raise.  The degree-1 grid route reads every
      sample of the box, and each enters the sum.  The degree >= 2 grid
      route reads every sample of the box into its banded products, and a
      row block's product multiplies each sample in it, by the band's
      zeros too (NaN * 0 is NaN): a non-finite sample may reach the active
      cells although none of their Hessians depends on it, and then it
      raises.

    Normalization of the integrand: the mixed determinant of the i Hessian
    copies against the n - i matrix weights is scaled by (n - i)!, so that
    weights E_1, ..., E_{n-i} (unit diagonal atoms) extract exactly
    binomial(n, i)^{-1} times the complementary principal minor of the
    Hessian, and a degree-0 functional with such weights integrates B
    against 1.  The bare symmetric polarization would carry an extra
    1/(n - i)! here; see ``mixed_det`` for that form.
    """
    atom = spec.atom
    reach = 4.0 * float(sigma_cells) + 0.5  # _kernel_radius's; a Python float overflows to inf
    if not math.isfinite(reach) or sigma_cells < 0 or (atom is not None and sigma_cells > 0):
        raise ValueError("sigma_cells must be finite and >= 0 with a finite kernel reach "
                         "4 sigma + 0.5, and 0 when a weight is a point atom")
    if step is not None and (sigma_cells > 0 or not (math.isfinite(step) and step > 0)):
        raise ValueError(f"stencil step must be None or finite and > 0, and None when "
                         f"sigma_cells > 0 (the grid route has no stencil), got {step!r}")
    _whole_number("threads", threads, 1)
    owner, d = getattr(f, "__self__", f), spec.real_dim  # owner: a bound support's body
    if isinstance(owner, (Polytope, SmoothProfileBody, PLConvexFunction)) and owner.dim != d:
        raise ValueError(f"f is a {owner.dim}-dimensional {type(owner).__name__}, but the spec's "
                         f"real dimension is {d}")
    if sigma_cells == 0 and isinstance(owner, (Polytope, PLConvexFunction)):
        raise ValueError("a piecewise-linear f (a Polytope, its support or a PLConvexFunction) "
                         "is kinked; pass sigma_cells > 0 to smooth it")
    f = owner if isinstance(owner, Polytope) else f  # sampled by support_grid
    singular = sigma_cells == 0 and isinstance(owner, SmoothProfileBody)
    step = None if step is None else float(step)  # a hashable key part
    if atom is None:
        lo, hi = _joint_support(spec)
    else:  # one node: no grid, and the key holds its stencil's h
        entry = _quadrature(spec, None, float(sigma_cells), step)
        stencil = entry[1].keywords.get("stencil")  # none at degree 0 or a weight of 0
        if singular:  # the Hessian is read only on the atom's stencil
            reach = _stencil_steps(atom.location, step) if stencil is None else stencil[1]
            lo, hi = atom.location - reach, atom.location + reach
    if singular and np.all(lo <= 0) and np.all(hi >= 0):
        raise ValueError("origin lies inside the joint weight support (or the atom's stencil) "
                         "but sigma_cells = 0; h_K is singular there (smooth it on a grid)")
    if atom is None:
        if grid is None:
            raise ValueError("a quadrature grid is required unless a weight is a point atom")
        if grid.dim != d:
            raise ValueError(f"grid dimension {grid.dim} != spec real dimension {d}")
        if np.any(lo >= hi):  # an empty joint support: the integral is exactly 0
            return 0.0
        if np.any(lo < grid.lo - 1e-12) or np.any(hi > grid.hi + 1e-12):
            raise ValueError("joint weight support exceeds the quadrature box")
        entry = _quadrature(spec, grid, float(sigma_cells), step)
    value = entry[1](f, threads)
    if not math.isfinite(value):
        raise FloatingPointError(f"the integrand sum {value} is not finite")
    return value


# ---------------------------------------------------------------------------
# induced valuations on convex bodies
# ---------------------------------------------------------------------------

def body_valuation(spec: ValuationSpec, K: ConvexBody, grid: Grid = None, *,
                   sigma_cells: float = 0.0, threads: int = 1) -> float:
    """phi(K) = Phi(h_K), the induced i-homogeneous valuation on bodies:
    ``eval_valuation`` on ``K.support``, whose docstring states every rule."""
    return eval_valuation(spec, K.support, grid, sigma_cells=sigma_cells, threads=threads)


def homogeneous_components(phi, K: ConvexBody, max_degree: int):
    """Coefficients c_0..c_n of phi(lambda K) = sum c_i lambda^i.

    Probes lambda = 1..n+1 and solves the Vandermonde system; for an
    i-homogeneous phi everything except c_i vanishes to solver precision.
    n = ``max_degree`` is a whole number >= 0, checked before phi is called.
    """
    n = _whole_number("max_degree", max_degree, 0)
    lambdas = np.arange(1, n + 2, dtype=float)
    values = np.array([phi(K.scale(lam)) for lam in lambdas])
    V = np.vander(lambdas, N=n + 1, increasing=True)
    cond = float(np.linalg.cond(V))
    if cond > 1e12:
        raise ArithmeticError(f"Vandermonde system is ill-conditioned (cond ~ {cond:.3e})")
    return np.linalg.solve(V, values)
