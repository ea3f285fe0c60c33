"""Convex bodies, support functions, and piecewise-linear convex functions.

Bodies are represented either by a vertex list (Polytope) or by an
explicit 1-homogeneous support function h(xi) = |xi| g(xi_1 / |xi|)
built from a scalar profile g on [-1, 1] (SmoothProfileBody).

Support functions satisfy the lattice identities that make valuations on
bodies talk to valuations on functions: if A, B and A u B are all convex
then h_{A u B} = max(h_A, h_B) and h_{A n B} = min(h_A, h_B).  The slab
generator below manufactures such pairs by cutting one body with two
overlapping half-spaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .algebra import _finite_copy, _read_only, _row_sums, _whole_number
from .hessian import _row_norms, fd_hessian_batch

__all__ = [
    "GeometryError",
    "Polytope",
    "SmoothProfileBody",
    "ConvexBody",
    "PLConvexFunction",
    "unit_directions",
    "ball_body",
    "make_two_ball_body",
    "certify_support_convexity",
    "halfspace_clip",
    "generate_union_convex_pair",
    "random_shell_polytope",
    "ball_slab_support",
]


class GeometryError(ValueError):
    """A body operation produced an empty or invalid configuration."""


#: leading rows ``Polytope.support_grid`` folds into h per ufunc call, from
#: a table measured on the R, C and H grid routes
_SUPPORT_ROWS = 8


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a finite vertex list; h(xi) = max_v <v, xi>.

    Points inside the hull may appear in the list; they do not change the
    support function.  The vertices are the rows of an (m, d) array, or
    one 1-D vertex, kept by ``_finite_copy``; any other shape raises
    GeometryError.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = _finite_copy("polytope vertices", self.vertices, 2, error=GeometryError)
        if v.size == 0:
            raise GeometryError(f"a polytope needs at least one vertex; got shape {v.shape}")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def support(self, xi):
        """max_v <v, xi> over the last axis of ``xi``; a scalar for one direction.

        Folds one vertex at a time into a running ``np.maximum``, so the
        temporary is one value per direction rather than a directions x
        vertices matrix.
        """
        xi = np.asarray(xi, dtype=float)
        v = self.vertices
        h = np.asarray(xi @ v[0])
        for w in v[1:]:
            np.maximum(h, xi @ w, out=h)
        return h[()]

    def support_grid(self, axes):
        """h on the tensor grid ``axes[0] x axes[1] x ...``, shaped
        ``(len(axes[0]), len(axes[1]), ...)``; one axis per coordinate of
        the vertices (ValueError otherwise).

        No node array is built.  The sum runs over a lead axis ``l``, the
        one whose vertex coordinates take the fewest distinct values
        (axis 0 on a tie): ``<v, x>`` is ``c = v_l x_l`` plus the outer
        sum ``part_v`` of ``v_a x_a`` over the other axes in increasing
        order, on the tail grid of those axes.  ``part_v`` is built by
        prefix outer sums: ``0.0 + v_a x_a`` on the first tail axis, then
        one ``np.add.outer`` per next axis, the last straight into a
        reused tail buffer, so each element is ``((0.0 + p_1) + p_2) +
        ...`` and only the last level is tail-sized.  The ``part_v`` of
        the vertices that share ``v_l`` are folded into one running
        ``np.maximum`` on the tail grid, and ``c`` is added once per
        distinct ``v_l``: one full-grid pass per distinct ``v_l`` (2 for
        an axis box in any dimension, a few for a body clipped across any
        one axis) plus one tail pass per vertex.  Rounding to nearest is
        monotone, so ``fl(c + max_v part_v) = max_v fl(c + part_v)`` and
        the bits are those of one add per vertex in this order; ``part_v``
        starts at +0.0, so neither it nor any sum is -0.0, and no signed
        zero depends on the order of the maxima.  A full-grid pass takes
        blocks of ``_SUPPORT_ROWS`` rows of the lead axis, one add and one
        running ``np.maximum`` per block into a preallocated
        ``(rows,) + tail`` buffer.  The sum is laid out lead axis first,
        so for ``l > 0`` the result is a view of that lead-first buffer in
        the axes' order: the same shape and values, not C-contiguous, and
        no copy.  Agrees with ``support`` on the same points to a few ulp
        of ``sum |v_a x_a|`` (the summation order differs).
        """
        if len(axes) != self.dim:
            raise ValueError(f"support_grid needs one axis per coordinate: {len(axes)} axes "
                             f"for a {self.dim}-dimensional polytope")
        # a set of floats holds -0.0 and 0.0 once, as the groups below do
        distinct = [len(set(coords)) for coords in self.vertices.T.tolist()]
        lead = distinct.index(min(distinct))
        order = [lead] + [a for a in range(len(distinct)) if a != lead]
        xl = np.asarray(axes[lead], dtype=float)
        tail = [np.asarray(axes[a], dtype=float) for a in order[1:]]
        groups = {}  # v_l -> tails; -0.0 and 0.0 share a key and the same bits
        for v in self.vertices[:, order]:
            groups.setdefault(v[0], []).append(v[1:])
        # reused for every vertex: fresh tail-sized arrays (140 KB in 4D)
        # would each page-fault on allocation
        top = np.empty(tuple(len(a) for a in tail))
        part = np.empty_like(top)
        buf = np.empty((min(_SUPPORT_ROWS, len(xl)),) + top.shape)

        def outer_sum(w, out):
            if not tail:
                out[...] = 0.0
            s = 0.0  # the +0.0 start: no part_v is -0.0
            for k, (wa, a) in enumerate(zip(w, tail), 1):
                s = np.add.outer(s, wa * a, out=out if k == len(tail) else None)

        h = None
        for vl, ws in groups.items():
            outer_sum(ws[0], top)
            for w in ws[1:]:
                outer_sum(w, part)
                np.maximum(top, part, out=top)
            c = (vl * xl).reshape((-1,) + (1,) * len(tail))
            if h is None:
                h = c + top
                continue
            for r0 in range(0, len(xl), _SUPPORT_ROWS):
                rows = h[r0:r0 + _SUPPORT_ROWS]
                out = buf[:len(rows)]
                np.add(top, c[r0:r0 + _SUPPORT_ROWS], out=out)
                np.maximum(rows, out, out=rows)
        return np.moveaxis(h, 0, lead)

    def scale(self, lam: float) -> "Polytope":
        if not (math.isfinite(lam) and lam > 0):
            raise GeometryError(f"scale factor must be finite and positive, got {lam}")
        return Polytope(lam * self.vertices)

    def negate(self) -> "Polytope":
        return Polytope(-self.vertices)

    def translate(self, x0) -> "Polytope":
        return Polytope(self.vertices + np.asarray(x0, dtype=float))


@dataclass(frozen=True, eq=False)
class SmoothProfileBody:
    """Body of revolution about the first axis, given by its support profile.

    h(xi) = |xi| g(xi_1 / |xi|) + <center, xi>, with g smooth on [-1, 1].
    1-homogeneity holds by construction; convexity of h is a property of g
    and is certified numerically (see certify_support_convexity).  ``dim``
    must be a whole number >= 1 (ValueError otherwise); the center, a
    ``dim`` point, is kept by ``_finite_copy``, so a shared body cannot be
    moved by one of its users.
    """

    dim: int
    profile: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        dim = _whole_number("dim", self.dim, 1)
        c = _finite_copy("body center", np.zeros(dim) if self.center is None else self.center, 1,
                         error=GeometryError)
        if c.shape != (dim,):
            raise GeometryError(f"center shape {c.shape} does not match dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "center", c)

    def support(self, xi):
        """h over the last axis of ``xi``; a scalar for one direction.

        |xi| is ``hessian._row_norms``, the square root of the squares'
        ``_row_sums``: the bits of ``np.linalg.norm(xi, axis=-1)``, a
        third to a fifth of its cost on a few thousand 3-wide rows.
        """
        xi = np.asarray(xi, dtype=float)
        r = _row_norms(xi)
        u = np.divide(xi[..., 0], r, out=np.zeros_like(r), where=r > 0)
        return r * self.profile(np.clip(u, -1.0, 1.0)) + xi @ self.center

    def scale(self, lam: float) -> "SmoothProfileBody":
        if not (math.isfinite(lam) and lam > 0):
            raise GeometryError(f"scale factor must be finite and positive, got {lam}")
        g = self.profile
        return SmoothProfileBody(self.dim, lambda u: lam * g(u), lam * self.center)

    def negate(self) -> "SmoothProfileBody":
        g = self.profile
        return SmoothProfileBody(self.dim, lambda u: g(-u), -self.center)

    def translate(self, x0) -> "SmoothProfileBody":
        return SmoothProfileBody(self.dim, self.profile, self.center + np.asarray(x0, dtype=float))


ConvexBody = Union[Polytope, SmoothProfileBody]


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------

def unit_directions(dim: int, count: int):
    """Deterministic unit directions: +-axes first, then a fixed random stream.

    The first m directions are a prefix of the first m' > m, so sampled suprema
    are monotone in the sample count, a whole number >= 1 (ValueError otherwise).
    """
    count = _whole_number("count", count, 1)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)], axis=0)
    if count <= len(axes):
        return axes[:count]
    rng = np.random.default_rng(7)
    extra = rng.standard_normal((count - len(axes), dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([axes, extra], axis=0)


# ---------------------------------------------------------------------------
# the two-ball parity body and convexity certification
# ---------------------------------------------------------------------------

def ball_body(dim: int, radius: float = 1.0) -> SmoothProfileBody:
    """The ball of ``radius``, finite and > 0 (ValueError otherwise), about 0."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be finite and > 0, got {radius!r}")
    return SmoothProfileBody(dim, lambda u: np.full_like(np.asarray(u, dtype=float), radius))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def make_two_ball_body(dim: int) -> SmoothProfileBody:
    """Smoothed intersection of balls of radii 1 and 2 along the first axis.

    ``dim`` must be a whole number (ValueError otherwise: 3.0 and True are
    not) and at least 2 (GeometryError).  The body is built and its
    convexity certificate run once per dimension in a process: every call
    with the same ``dim``, an int or a numpy integer, returns the same
    body, whose ``dim`` is an int.

    The support profile equals 1 on directions with xi_1/|xi| >= 0.8 and 2
    for xi_1/|xi| <= -0.8, so near +-e_1 the support function is exactly
    |xi| resp. 2 |xi| and its Hessians there are diag(0, 1, ..., 1) and
    2 diag(0, 1, ..., 1).  The plateaus are joined by a quintic smoothstep
    in the polar angle: blending in the angle rather than in xi_1/|xi|
    keeps h convex (the angular blend has min principal curvature ~ 0.25,
    while the same blend in the cosine variable dips negative).
    """
    dim = _whole_number("dim", dim, 0)
    if dim < 2:
        raise GeometryError("the two-ball body needs dimension >= 2")
    return _two_ball_body(dim)


@functools.cache
def _two_ball_body(dim):
    """The two-ball body of a checked ``dim``, certified on its first call."""
    th_lo = float(np.arccos(0.8))
    th_hi = float(np.arccos(-0.8))

    def profile(u):
        # the smoothstep clips to exactly 1.0 from u = 0.8 up and 2.0 from
        # -0.8 down, so the blend runs only between them (and on NaN)
        u = np.asarray(u, dtype=float)
        g = np.where(u < 0.0, 2.0, 1.0)
        blend = ~(np.abs(u) >= 0.8)
        if blend.any():
            theta = np.arccos(u[blend])
            g[blend] = 1.0 + _smoothstep((theta - th_lo) / (th_hi - th_lo))
        return g

    body = SmoothProfileBody(dim, profile)
    min_eig = certify_support_convexity(body)
    if min_eig < -1e-6:
        raise GeometryError(
            f"two-ball profile failed its convexity certificate (min eig {min_eig:.3e})"
        )
    return body


def certify_support_convexity(body: ConvexBody) -> float:
    """Smallest Hessian eigenvalue of the support function on 400 sphere
    directions.

    A 1-homogeneous h always has the radial direction in the kernel, so a
    convex h yields a value ~ 0 up to difference error; clearly negative
    values disprove convexity.  Advisory, not a proof.
    """
    dirs = unit_directions(body.dim, 400)
    H = fd_hessian_batch(body.support, dirs, step=1e-4)
    return float(np.min(np.linalg.eigvalsh(H)))


# ---------------------------------------------------------------------------
# half-space clipping and union-convex pairs
# ---------------------------------------------------------------------------

def halfspace_clip(P: Polytope, normal, offset: float) -> Polytope:
    """Hull vertices of P cut by the half-space {x : <normal, x> <= offset}.

    Takes the inside vertices and the plane crossing of every segment
    from an inside to an outside vertex.  Since hull edges are among all
    vertex pairs, these points span the exact intersection in any
    dimension.  Most of them lie inside the hull or on its faces, so only
    the qhull vertices of the deduplicated set are kept; a
    lower-dimensional set, which qhull refuses, is kept whole.
    """
    normal = np.asarray(normal, dtype=float)
    d = P.vertices @ normal - offset
    tol = 1e-12 * (1.0 + np.abs(d).max())
    inside = d <= tol
    if not np.any(inside):
        raise GeometryError("half-space clip produced an empty intersection")
    pts = [P.vertices[inside]]
    outside = ~inside
    if np.any(outside):
        vi, di = P.vertices[inside], d[inside]
        vo, do = P.vertices[outside], d[outside]
        # lam[i, o] in [0, 1]: crossing of the segment v_i -> v_o
        lam = di[:, None] / (di[:, None] - do[None, :])
        cross = vi[:, None, :] + lam[..., None] * (vo[None, :, :] - vi[:, None, :])
        pts.append(cross.reshape(-1, P.dim))
    verts = np.unique(np.round(np.vstack(pts), 12), axis=0)
    if P.dim > 1:  # qhull needs points of dimension 2 or more
        from scipy.spatial import ConvexHull, QhullError
        try:
            verts = verts[np.sort(ConvexHull(verts).vertices)]
        except QhullError:
            pass
    return Polytope(verts)


def generate_union_convex_pair(K: Polytope, s: float, t: float, axis: int = 0):
    """Bodies A = K n {x_axis <= t}, B = K n {x_axis >= s} with s < t.

    Because the half-spaces overlap, A u B = K is convex, so the pair
    satisfies max(h_A, h_B) = h_K and min(h_A, h_B) = h_{A n B}.
    """
    if not s < t:
        raise GeometryError(f"need s < t, got s = {s}, t = {t}")
    e = np.zeros(K.dim)
    e[axis] = 1.0
    A = halfspace_clip(K, e, t)
    B = halfspace_clip(K, -e, -s)
    return A, B


#: candidate directions ``random_shell_polytope`` draws and decides per
#: Gram product
_SHELL_BLOCK = 32
#: cosines this close to a shell's cut take the chord test itself
_SHELL_BAND = 1e-9
#: draws after which ``random_shell_polytope`` gives up
_SHELL_TRIES = 10000
#: bit i marks candidate i of a block in ``random_shell_polytope``'s masks
_SHELL_BITS = 1 << np.arange(_SHELL_BLOCK, dtype=np.int64)


def _units(rows):
    """The rows of ``rows`` each divided by ``sqrt(v . v)``, with ``v . v``
    numpy's dot on the one row (a BLAS dot, whose bits a vectorized sum of
    squares does not give): the bits of ``v /= math.sqrt(v.dot(v))``."""
    return rows / np.sqrt([v.dot(v) for v in rows])[:, None]


def random_shell_polytope(rng, dim: int = 3, n_vertices: int = 10,
                          min_sep: float = 0.7) -> Polytope:
    """Random polytope with well-separated vertices near the sphere of radius 0.35.

    A minimum chordal separation between vertex directions keeps the
    normal fan well conditioned: near-duplicate vertices produce weak,
    slowly decaying kinks in the support function, which smoothed-grid
    quadratures resolve poorly.

    The directions are those of a loop over the draws of ``rng`` (a numpy
    ``Generator``): draw ``v = rng.standard_normal(dim)``, scale it by
    ``1 / sqrt(v . v)``, and keep it when ``sqrt(d . d) > min_sep`` for
    ``d = v - w`` and every kept ``w``, until ``n_vertices`` are kept; the
    radii are then ``0.35 * rng.uniform(0.85, 1.0, (n_vertices, 1))``.
    More than 10,000 draws raise GeometryError with the generator 10,001
    draws on.  The loop is run in blocks: one ``standard_normal((32,
    dim))`` call gives the rows of 32 successive draws, and one Gram
    product of the block against the kept directions and itself gives
    every cosine a block's decisions read, made in draw order.  A chord
    is longer than ``min_sep`` exactly when the cosine is below ``1 -
    min_sep^2 / 2``; a cosine within ``_SHELL_BAND`` (1e-9) of that cut,
    far wider than the Gram's roundoff, takes the chord test itself on
    the scaled rows, so every decision is the loop's.  The block that
    completes the set is drawn again from the generator's state before
    it, up to its last kept row, so the radii and the caller's next draw
    are those of the loop.  A block's arrays take 32 x (32 + the kept
    directions) floats, whatever the number of draws.

    ``dim`` and ``n_vertices`` must be whole numbers >= 1 and ``min_sep``
    finite and >= 0; ValueError otherwise, before any draw.
    """
    dim = _whole_number("dim", dim, 1)
    n_vertices = _whole_number("n_vertices", n_vertices, 1)
    if not (math.isfinite(min_sep) and min_sep >= 0):
        raise ValueError(f"min_sep must be finite and >= 0, got {min_sep!r}")
    cut = 1.0 - 0.5 * min_sep * min_sep
    bits = rng.bit_generator
    dirs, drawn = np.empty((0, dim)), 0
    while True:
        state = bits.state
        raw = rng.standard_normal((min(_SHELL_BLOCK, _SHELL_TRIES + 1 - drawn), dim))
        kept = len(dirs)
        unit = raw / np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
        cos = unit @ np.concatenate((dirs, unit)).T
        close, gap = cos > cut, np.abs(cos - cut)
        if gap.min() <= _SHELL_BAND:
            units = _units(raw)
            for i, j in np.argwhere(gap <= _SHELL_BAND):
                if j < kept + i:  # a kept direction, or an earlier row of the block
                    d = units[i] - (dirs[j] if j < kept else units[j - kept])
                    close[i, j] = not math.sqrt(d.dot(d)) > min_sep
        # bit i: close to row i; bits from _SHELL_BLOCK up: close to a kept direction
        weights = np.concatenate((np.full(kept, 1 << _SHELL_BLOCK), _SHELL_BITS[:len(raw)]))
        taken, held = [], -1 << _SHELL_BLOCK
        for i, mask in enumerate((close @ weights)[:_SHELL_TRIES - drawn].tolist()):
            if not mask & held:
                taken.append(i)
                held |= 1 << i
                if kept + len(taken) == n_vertices:
                    break
        dirs = np.concatenate((dirs, _units(raw[taken])))
        drawn += len(raw)
        if len(dirs) == n_vertices:
            bits.state = state
            rng.standard_normal((taken[-1] + 1, dim))
            break
        if drawn > _SHELL_TRIES:
            raise GeometryError("could not place separated vertices; lower min_sep")
    radii = 0.35 * rng.uniform(0.85, 1.0, (n_vertices, 1))
    return Polytope(dirs * radii)


# ---------------------------------------------------------------------------
# piecewise-linear convex functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PLConvexFunction:
    """f(x) = max_j (<a_j, x> + b_j): a finite max of affine pieces.

    Needs at least one piece, and the slopes as the rows of an (m, d)
    array or one 1-D slope, with m offsets (ValueError otherwise); both are
    kept by ``_finite_copy``.
    """

    slopes: np.ndarray
    offsets: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        a = _finite_copy("PL slopes", self.slopes, 2)
        if a.size == 0:
            raise ValueError(f"a PL convex function needs at least one piece; got shape {a.shape}")
        b = _finite_copy("PL offsets",
                         np.zeros(len(a)) if self.offsets is None else self.offsets, 1)
        if b.shape != (len(a),):
            raise ValueError(f"offsets shape {b.shape} does not match {len(a)} pieces")
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.max(x @ self.slopes.T + self.offsets, axis=-1)

    def add_affine(self, a, c: float = 0.0) -> "PLConvexFunction":
        """The function f + <a, x> + c (every piece shifts)."""
        return PLConvexFunction(self.slopes + np.asarray(a, dtype=float), self.offsets + c)

    @classmethod
    def from_polytope_support(cls, P: Polytope) -> "PLConvexFunction":
        return cls(P.vertices)


# ---------------------------------------------------------------------------
# closed-form support functions of sliced balls
# ---------------------------------------------------------------------------

def ball_slab_support(u, s: float, t: float):
    """Support function of {|x| <= 1, s <= <u, x> <= t} as a callable.

    Piecewise closed form in r = |xi| and p = <xi, u>: the unconstrained
    spherical maximizer wins when its u-coordinate p / r lies in [s, t];
    otherwise the maximizer sits on the rim at height t (or s).  C^1
    across the two interface cones, smooth elsewhere away from 0.  A zero
    or non-finite u raises GeometryError.

    The callable h has three attributes.  ``h.direction`` is the unit
    vector u / |u| that h projects on (normalizing an already-unit u can
    move its last bit, and p with it).  ``h.closed_form(r, p)`` is the
    closed form itself, elementwise on any shapes: h(xi) is
    ``h.closed_form(np.linalg.norm(xi, axis=-1), np.sum(xi * h.direction,
    axis=-1))``, two sums over each row (``_row_norms``, ``_row_sums``),
    so h(x[i]) has the bits of h(x)[i].  (``xi @ u`` is a BLAS dot on one
    point and a gemv on a stack, whose bits for a row depend on its place
    in the stack.)  The O2 probe identity projects a whole stencil by one
    gemv and evaluates its bodies cut from one ball along one direction by
    the closed form.  The closed form picks its piece by two nested
    ``np.where``: ``np.select``'s rule (the first true condition wins, a
    NaN comparison falls to r) without its Python-level broadcasting.
    ``h.interface_margin(r, p)`` is min(|c - t|, |c - s|) for c = p / r
    (p at r = 0), on the floats r = |xi| and p = <xi, h.direction> of one
    direction, with the bits of the same formula on arrays; r =
    ``math.sqrt(np.add.reduce(xi * xi))`` has those of
    ``np.linalg.norm(xi[None], axis=-1)``.
    """
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u)
    if not 0.0 < norm < np.inf:
        raise GeometryError(f"direction u must be nonzero and finite, got norm {norm}")
    u = u / norm
    if not (-1.0 <= s < t <= 1.0):
        raise GeometryError(f"need -1 <= s < t <= 1, got s={s}, t={t}")
    wt = np.sqrt(1.0 - t**2)
    ws = np.sqrt(1.0 - s**2)

    def closed_form(r, p):
        perp = np.sqrt(np.maximum(r * r - p * p, 0.0))
        return np.where(p > t * r, t * p + wt * perp, np.where(p < s * r, s * p + ws * perp, r))

    def h(xi):
        xi = np.asarray(xi, dtype=float)
        return closed_form(_row_norms(xi), _row_sums(xi * u))

    def interface_margin(r, p):
        """Distance of one direction from the two non-smooth cones, in the
        cosine variable p / r; used to filter sample points."""
        c = p / (r if r > 0 else 1.0)
        return min(abs(c - t), abs(c - s))

    h.direction = _read_only(u)
    h.closed_form = closed_form
    h.interface_margin = interface_margin
    return h
