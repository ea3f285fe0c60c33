"""Real Hessians (pointwise difference stencils, or banded products with
derivative kernels on a grid) and structured field Hessians.

Real coordinate layout is fixed per field so assembly is bit-reproducible:

* C:   x1, y1, x2, y2, ...            (z_p = x_p + i y_p)
* H:   t1, x1, y1, z1, t2, ...        (q_a = t_a + i x_a + j y_a + k z_a)
* O2:  x10..x17, x20..x27             (q_a = sum_i x_ai e_i)

For a real-valued C^2 function the structured Hessians reduce to fixed
linear combinations of real second partials:

* complex entry (p, q):  (1/4) * sum_{mu,nu} conj(u_mu) u_nu f_{mu_p nu_q}
  with units u = (1, i), i.e. ((f_xx + f_yy) + i (f_{x y} - f_{y x})) / 4;
* quaternionic entry (a, b): sum_{mu,nu} u_mu conj(u_nu) f_{mu_a nu_b}
  with units u = (1, i, j, k) - the conjugate-derivative operator applied
  to the plain one, whose unit coefficients sit on the right with flipped
  signs (no 1/4 normalization, so e.g. the Hessian of |q|^2 is 8);
* octonionic entry (a, b): sum_{i,j} e_i conj(e_j) f_{x_ai x_bj}.

These combinations are precomputed once as coefficient tables and
contracted against a real Hessian, rather than nesting first-difference
quotients.

The pointwise stencil route runs no Python loop per offset or axis pair:
one broadcast over a memoized offset table forms every stencil point, ``f``
is called once on all of them, and the Hessian entries are array formulas.
Each value has the bits a loop over the offsets gives.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .algebra import (
    FIELD_COMPONENTS,
    HermitianMatrix,
    conj_transpose,
    oct_mul,
    oct_unit,
    quat_conj,
    quat_mul,
)

__all__ = [
    "DEFAULT_STEP",
    "fd_hessian",
    "fd_hessian_batch",
    "fd_laplacian_batch",
    "grid_hessian",
    "assemble_structured",
    "structured_hessian",
]

#: relative central-difference step; the effective step is step * (1 + |x|).
#: 5e-4 balances O(h^2) truncation against the eps/h^2 rounding floor, which
#: has to sit below 1e-9 relative for the linear-invariance checks.
DEFAULT_STEP = 5e-4


@functools.cache
def _stencil_offsets(d, cross):
    """Read-only (K, d) stencil offsets in units of h, and the pairs a < b.

    Rows: the center, then +e_a, -e_a for each axis a, then (with
    ``cross``) e_a + e_b, e_a - e_b, -(e_a - e_b), -(e_a + e_b) for each
    pair in ``np.triu_indices`` order.  Where a row subtracts, its zeros are
    -0.0, and the center is all -0.0: x + h * (-0.0) is x - 0.0, so every
    point, the sign of a zero coordinate included, is the one x - h e
    gives.
    """
    eye = np.eye(d)
    pairs = np.triu_indices(d, 1) if cross else (np.empty(0, int), np.empty(0, int))
    plus, minus = eye[pairs[0]] + eye[pairs[1]], eye[pairs[0]] - eye[pairs[1]]
    offsets = np.concatenate([
        np.full((1, d), -0.0),
        np.stack([eye, -eye], axis=1).reshape(-1, d),
        np.stack([plus, minus, -minus, -plus], axis=1).reshape(-1, d),
    ])
    for table in (offsets, *pairs):
        table.flags.writeable = False
    return offsets, pairs


def _stencil_steps(points, step=None):
    """The stencil step h = step * (1 + |x|) of each row (DEFAULT_STEP for None)."""
    if step is None:
        step = DEFAULT_STEP
    elif not (np.isfinite(step) and step > 0):
        raise ValueError(f"stencil step must be finite and > 0, got {step!r}")
    return step * (1.0 + np.linalg.norm(points, axis=-1))


def _stencil_values(f, points, step, cross):
    """Values of ``f`` on the central-difference stencil around each row.

    Row k of the returned (K, N) array is f at points + h * offsets[k], for
    the rows of ``_stencil_offsets(d, cross)``, with h from
    ``_stencil_steps``.  All K * N points come from one broadcast and go to
    ``f`` in one (K * N, d) call, offset-major.  Returns (values, h, pairs).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    h = _stencil_steps(points, step)  # (N,)

    offsets, pairs = _stencil_offsets(d, cross)
    stencil = h[:, None] * offsets[:, None, :]  # (K, N, d)
    stencil += points
    vals = np.asarray(f(stencil.reshape(-1, d)), dtype=float).reshape(len(offsets), N)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite function value inside the Hessian stencil")
    return vals, h, pairs


def fd_hessian_batch(f, points, step=None):
    """Central-difference Hessians of ``f`` at rows of ``points``.

    ``f`` must be vectorized: (m, d) -> (m,); it is called once, on all
    stencil points (see ``_stencil_values``).  Returns (N, d, d) symmetric
    arrays; the stencil is the standard 3-point one on the diagonal and the
    4-point cross formula off-diagonal, exact on quadratics up to roundoff.
    Both are formed for all axes or pairs at once, and each cross value is
    written to (a, b) and (b, a).
    """
    vals, h, (a, b) = _stencil_values(f, points, step, cross=True)
    N, d = len(h), np.shape(points)[-1]
    h2 = h * h
    H = np.empty((N, d, d))
    axes = np.arange(d)
    H[:, axes, axes] = ((vals[1:2 * d + 1:2] - 2.0 * vals[0] + vals[2:2 * d + 2:2]) / h2).T
    fpp, fpm, fmp, fmm = (vals[2 * d + 1 + k::4] for k in range(4))
    H[:, a, b] = H[:, b, a] = ((fpp - fpm - fmp + fmm) / (4.0 * h2)).T
    return H


def fd_hessian(f, x, step=None):
    """Central-difference Hessian at a single point; see fd_hessian_batch."""
    x = np.asarray(x, dtype=float)
    return fd_hessian_batch(f, x[None, :], step=step)[0]


def fd_laplacian_batch(f, points, step=None):
    """Central-difference Laplacian (diagonal stencil only) at each row."""
    vals, h, _ = _stencil_values(f, points, step, cross=False)
    # the built-in sum adds the axes' terms in order from 0.0; np.sum may pair them
    return sum(vals[1::2] + vals[2::2] - 2.0 * vals[0], 0.0) / (h * h)


#: output rows per block of a banded product, from a table of block sizes
#: measured on the R, C and H grid routes.  Near-equal blocks of at most 4
#: rows are one row wide only when the axis has one output row: a one-row
#: block would go to gemv, which sums in another order than the full band.
_BLOCK_ROWS = 4

#: per-thread work buffers of the grid route, by slot
_buffers = threading.local()


def _thread_buffer(slot, shape):
    """This thread's float buffer ``slot``, viewed with ``shape``.

    The buffer lives as long as the thread and is replaced by a larger
    one only when a call needs more, so a warmed caller touches no fresh
    page.  It holds whatever its last writer left there; the caller must
    be done with it before the next call that takes the same slot on this
    thread.
    """
    size = math.prod(shape)
    buf = _buffers.__dict__.get(slot)
    if buf is None or buf.size < size:
        buf = _buffers.__dict__[slot] = np.empty(size)
    return buf[:size].reshape(shape)


def grid_hessian(values, spacing, kernels, field="R", cells=None, out=None):
    """Hessians from samples on a uniform grid, by banded matrix products.

    ``kernels`` are the 1-D correlation kernels of orders 0, 1 and 2, all
    of length 2 r + 1 and in units of cells.  Entry (a, b) applies one
    banded matrix per axis: order 2 on axis a when a = b, order 1 on a and
    b otherwise, order 0 on every other axis.  Each product contracts the
    leading axis, crops r cells per side and appends the result, so after
    d products the axes are back in order; entries share the products of
    their common axis prefix.  Only the entries ``field`` reads are
    computed, the others are 0: over C and H an off-diagonal entry inside
    one coordinate's block feeds only the imaginary part of a diagonal
    field entry, which the Hermitian symmetrization cancels exactly.  So R
    takes 3 + 6 + 6 products in 3D, C with n = 2 takes 24 of 29 in 4D and
    H with n = 1 (the diagonal) 13.

    The products walk the tree of axis-order prefixes depth first.  Each
    axis has one product buffer (``_thread_buffer``, kept by the thread
    between calls), reused for every sibling prefix: a prefix's children
    read it before the next sibling overwrites it.  So a call holds one
    product per axis, not one per live prefix, and a thread that has made
    a call as large allocates no product.

    A product skips most of the band's zeros: its output rows are split
    into near-equal blocks of at most ``_BLOCK_ROWS`` rows, and block [i0,
    i1) is one ``np.matmul`` of input rows [i0, i1 + 2 r) with the
    top-left corner of the axis's Toeplitz band, written in place into
    the axis's buffer (no transposed copy of the input).  A product of
    one vector, where every other axis has one cell, keeps the full band
    as one block: BLAS sends it to gemv, whose sums depend on the band's
    length.  Each value has the bits of the full band's product.

    The core is the grid with each axis shortened by 2 r.  ``cells``
    picks flat C-order core indices; the last axis's product of each
    entry (a, b) is a contiguous core plane, gathered at ``cells`` into
    columns (a, b) and (b, a) of an (N, d, d) result.  With ``cells``
    None every cell is taken, in order, and the result is returned with
    shape ``core_shape + (d, d)``.  ``out``, if given, is that (N, d, d)
    result, owned by the caller (for None, ``prod(core_shape)`` rows);
    otherwise a new array is returned.
    """
    values = np.asarray(values, dtype=float)
    d, m = values.ndim, FIELD_COMPONENTS[field]
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    width = len(kernels[0])
    if min(values.shape) < width:
        raise ValueError(f"grid_hessian needs at least {width} samples per axis")

    orders = [tuple((c == a) + (c == b) for c in range(d))
              for a in range(d) for b in range(a, d) if a == b or a // m != b // m]
    wanted = {o[:k] for o in orders for k in range(1, d + 1)}  # every axis-order prefix read
    core = tuple(n - width + 1 for n in values.shape)
    shape = (math.prod(core) if cells is None else len(cells), d, d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    block = np.arange(d) // m  # entries off the diagonal of a block are unread, so 0
    out[:, (block[:, None] == block) & ~np.eye(d, dtype=bool)] = 0.0

    blocks, bands = [], []
    for a, n in enumerate(values.shape):
        nout, rest = core[a], math.prod(core[:a] + values.shape[a + 1:])
        # one vector (rest 1) goes to gemv, whose sums depend on the band's length
        count = 1 if rest == 1 else -(-nout // _BLOCK_ROWS)
        bounds = [nout * k // count for k in range(count + 1)]  # near-equal blocks
        blocks.append(list(zip(bounds, bounds[1:])))
        tall = -(-nout // count)
        rows = np.arange(tall)[:, None]
        scaled = np.asarray(kernels) / spacing[a] ** np.arange(3.0)[:, None]  # per unit length
        bands.append(np.zeros((3, tall, tall + width - 1)))  # [order][i, i + j] = scaled[order, j]
        bands[a][:, rows, rows + np.arange(width)] = scaled[:, None, :]

    # depth first: a key's children are stacked on top of its later siblings,
    # so they read its product before the next sibling overwrites the buffer
    stack = [(0, (o,), values) for o in range(3) if (o,) in wanted]
    while stack:
        a, key, v = stack.pop()
        flat = v.reshape(values.shape[a], -1)
        product = _thread_buffer(a, (flat.shape[1], core[a]))
        for i0, i1 in blocks[a]:
            corner = bands[a][key[-1], :i1 - i0, :i1 - i0 + width - 1]
            np.matmul(flat[i0:i1 + width - 1].T, corner.T, out=product[:, i0:i1])
        if a < d - 1:
            v = product.reshape(v.shape[1:] + (core[a],))
            stack += [(a + 1, key + (o,), v) for o in range(3 - sum(key)) if key + (o,) in wanted]
        else:  # the last axis completes order 2: its product is entry (i, j)'s plane
            i, j = np.repeat(np.arange(d), key)
            plane = product.reshape(-1)
            out[:, i, j] = plane if cells is None else plane[cells]
            if i != j:
                out[:, j, i] = out[:, i, j]

    return out.reshape(core + (d, d)) if cells is None else out


# ---------------------------------------------------------------------------
# structured Hessians
# ---------------------------------------------------------------------------

# complex: conj(u_mu) u_nu / 4 with u = (1, i)
_COEF_C = np.array([[1.0, 1.0j], [-1.0j, 1.0]]) / 4.0

# quaternionic: u_mu * conj(u_nu), components on the trailing axis
_COEF_H = np.zeros((4, 4, 4))
for _m in range(4):
    for _n in range(4):
        _COEF_H[_m, _n] = quat_mul(np.eye(4)[_m], quat_conj(np.eye(4)[_n]))

# octonionic: e_i * conj(e_j)
_COEF_O = np.zeros((8, 8, 8))
for _i in range(8):
    for _j in range(8):
        _COEF_O[_i, _j] = oct_mul(oct_unit(_i), quat_conj(oct_unit(_j)))


def assemble_structured(field, hreal):
    """Contract real Hessians (..., d, d) into field-Hessian matrices.

    Returns (..., n, n) complex for C and (..., n, n, comps) for H/O2,
    Hermitian-symmetrized.  R input is returned as it is: both Hessian
    routes write each off-diagonal value to (a, b) and (b, a), so it is
    exactly symmetric already.
    """
    hreal = np.asarray(hreal, dtype=float)
    if field == "R":
        return hreal
    m = FIELD_COMPONENTS[field]
    d = hreal.shape[-1]
    if d % m:
        raise ValueError(f"real dimension {d} is not a multiple of {m} for field {field}")
    n = d // m
    lead = hreal.shape[:-2]
    blocks = hreal.reshape(lead + (n, m, n, m))
    if field == "C":
        out = np.einsum("...ambn,mn->...ab", blocks, _COEF_C)
    else:
        coef = _COEF_H if field == "H" else _COEF_O
        out = np.einsum("...ambn,mnc->...abc", blocks, coef)
    return 0.5 * (out + conj_transpose(field, out))


def structured_hessian(field, f, p, step=None):
    """Field Hessian of a real-valued function at a point, as a HermitianMatrix."""
    hreal = fd_hessian(f, p, step=step)
    return HermitianMatrix(field, assemble_structured(field, hreal))
