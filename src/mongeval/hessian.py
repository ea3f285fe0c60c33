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
quotients: a field Hessian at points p is ``assemble_structured(field,
fd_hessian_batch(f, p, entries=_field_entries(d, m)))`` for m real
components per coordinate; the O2 probe identity forms the same values
from the stencil's two halves.

Both Hessian routes compute only the real entries they are given, as flat
indices a d + b, and write the others as 0.  A valuation gives the entries
its polynomial form reads (``valuation._polynomial_form``); a whole field
Hessian takes the entries its field reads (``_field_entries``): the
diagonal and the pairs a < b in different coordinate blocks.  The others
would feed only imaginary parts that the Hermitian symmetrization cancels
exactly, so the field Hessians keep their bits.

Both routes lay a batch of real Hessians out entry-major (``_entry_major``):
the (N, d, d) result is the transposed view of a C-ordered (d, d, N) array,
so each entry ``H[:, i, j]`` is one contiguous plane.  The routes write
whole planes, and the valuation's integrand, a polynomial in the real
entries (``valuation._polynomial_values``), reads them as planes, not a
stride of d * d values: no valuation call assembles a field Hessian or
takes its determinant.  Each value is elementwise or an ``einsum`` summing
its terms in the same order, so the layout changes no bit.

The pointwise stencil route runs no Python loop per offset or axis pair:
one broadcast over a memoized offset table forms every stencil point
(``_stencil_points``), ``f`` is called once on all of them, and the
Hessian entries are array formulas (``_stencil_hessians``).  Each value
has the bits a loop over the offsets gives.  ``fd_hessian_batch`` is the
two halves composed; a caller with several functions of the same points
(the O2 probe identity's four sliced-ball supports) builds the points
once and forms all their Hessians in one call, and a valuation's atom
key builds its one node's points once for all its calls
(``valuation._atom_integral``).  A node costs
1 + 2 D + 4 P points for D diagonal and P other entries.  A field's read
set costs 19 for R with n = 3, 25 for C with n = 2, 9 for H with n = 1
and 289 for O2, where every pair would cost 513; parity-break's form at
n = 3 reads 1 entry (3 points) at i = 1 and 3 (9 points) at i = 2.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .algebra import (
    FIELD_COMPONENTS,
    _read_only,
    _row_sums,
    conj_transpose,
    oct_mul,
    quat_conj,
    quat_mul,
)

__all__ = [
    "fd_hessian_batch",
    "fd_laplacian_batch",
    "grid_hessian",
    "grid_hessian_adjoint",
    "assemble_structured",
]

#: relative central-difference step; the effective step is step * (1 + |x|).
#: 5e-4 balances O(h^2) truncation against the eps/h^2 rounding floor, which
#: has to sit below 1e-9 relative for the linear-invariance checks.
DEFAULT_STEP = 5e-4


@functools.cache
def _field_entries(d, m):
    """The real Hessian entries that a field with ``m`` real components per
    coordinate reads, as a read-only array of flat indices a d + b, a <=
    b, in row-major order: the diagonal and the pairs in different blocks,
    a // m != b // m.  R (m = 1) reads every entry, and m = d the diagonal
    alone.  Memoized: a whole field Hessian's caller (the O2 identity
    probe, one stencil per pair) would otherwise pay about 40 us a call
    to rebuild it."""
    a, b = np.triu_indices(d)
    return _read_only((a * d + b)[(a == b) | (a // m != b // m)])


def _stencil_offsets(d, entries):
    """Read-only stencil offsets for the flat ``entries`` a d + b, a
    sequence of ints each in [0, d d) (numpy's ValueError otherwise), one
    table per distinct (d, entries): the (K, d) offsets in units of h, the
    axes a of the diagonal entries and the rows a and columns b of the
    others.  The table is memoized on d and the entries' ``intp`` bytes,
    a key that costs no Python int per entry: 0.7 against 1.4 us a call
    for O2's 80 entries keyed as a tuple.

    Rows: the center, then +e_a, -e_a for each diagonal entry, then e_a +
    e_b, e_a - e_b, -(e_a - e_b), -(e_a + e_b) for each other one, in the
    order of ``entries``.  So K = 1 + 2 D + 4 P for D diagonal and P other
    entries: a field's read set (``_field_entries``) gives 19 points for R
    with n = 3, 25 for C with n = 2, 9 for H with n = 1 and 289 for O2,
    and parity-break's form at n = 3, i = 1, the entry f_33 alone, 3.
    Where a row subtracts, its zeros are -0.0, and the center is all -0.0:
    x + h * (-0.0) is x - 0.0, so every point, the sign of a zero
    coordinate included, is the one x - h e gives.
    """
    return _offset_table(d, np.asarray(entries, dtype=np.intp).tobytes())


@functools.cache
def _offset_table(d, key):
    """``_stencil_offsets`` of the entries whose ``intp`` bytes are key."""
    eye = np.eye(d)
    a, b = np.unravel_index(np.frombuffer(key, dtype=np.intp), (d, d))
    axes, a, b = a[a == b], a[a != b], b[a != b]
    plus, minus = eye[a] + eye[b], eye[a] - eye[b]
    offsets = np.concatenate([
        np.full((1, d), -0.0),
        np.stack([eye[axes], -eye[axes]], axis=1).reshape(-1, d),
        np.stack([plus, minus, -minus, -plus], axis=1).reshape(-1, d),
    ])
    return tuple(map(_read_only, (offsets, axes, a, b)))


def _row_norms(x):
    """|x| over the last axis of a float array, ``np.sqrt(_row_sums(x * x))``,
    with the bits of ``np.linalg.norm(x, axis=-1)`` at every width: that
    norm is the square root of numpy's sum of ``x * x``.  On 3-wide rows
    it takes 7.7 against 23 us for 1,000 rows and 130 against 640 us for
    32,768; for one row, 3.7 against 2.7 us.
    """
    return np.sqrt(_row_sums(x * x))


def _stencil_steps(points, step=None):
    """The stencil step h = step * (1 + |x|) of each row (DEFAULT_STEP for
    None), with |x| from ``_row_norms``."""
    if step is None:
        step = DEFAULT_STEP
    elif not (np.isfinite(step) and step > 0):
        raise ValueError(f"stencil step must be finite and > 0, got {step!r}")
    return step * (1.0 + _row_norms(np.asarray(points, dtype=float)))


def _stencil_points(points, step, entries):
    """The central-difference stencil of ``entries`` (every entry for None)
    around each row of ``points``: the point build of the stencil route.

    Returns (x, h, axes, a, b): x is the (K, N, d) array whose row k is
    points + h * offsets[k], for the rows of ``_stencil_offsets``, from
    one broadcast; h is the (N,) step of ``_stencil_steps``; axes, a and
    b are the offset table's diagonal axes, rows and columns.  A caller
    evaluates f on ``x.reshape(-1, d)``, offset-major, and forms the
    Hessians with ``_stencil_hessians``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    h = _stencil_steps(points, step)  # (N,)

    offsets, axes, a, b = _stencil_offsets(d, _field_entries(d, 1) if entries is None else entries)
    x = h[:, None] * offsets[:, None, :]  # (K, N, d)
    x += points
    return x, h, axes, a, b


def _finite_values(vals, shape):
    """The stencil values ``vals`` as a float array of ``shape``, (K, N)
    for K offsets and N stencils; FloatingPointError if one is not
    finite."""
    vals = np.asarray(vals, dtype=float).reshape(shape)
    if not np.isfinite(vals).all():
        raise FloatingPointError("non-finite function value inside the Hessian stencil")
    return vals


def _stencil_hessians(vals, h, d, axes, a, b):
    """Hessians from stencil values: the formation of the stencil route.

    ``vals`` holds f on the stencils of ``_stencil_points``, as (K, N) or
    flat offset-major, one column per stencil with step ``h`` (N,); axes,
    a and b are that call's.  Returns (N, d, d) symmetric arrays laid out
    entry-major (``_entry_major``): the 3-point formula on the diagonal
    and the 4-point cross formula off it, for all axes or pairs at once,
    as (axes, N) and (pairs, N) rows written straight into the (d, d, N)
    array under the view, each cross value to (a, b) and (b, a); the
    other entries are 0.  Each value depends on its own column alone, so
    columns of several functions on stencils of one build, with h tiled
    (the O2 probe identity's four bodies), get the bits of one call each.
    """
    k = 2 * len(axes)
    vals = _finite_values(vals, (1 + k + 4 * len(a), len(h)))
    h2 = h * h
    H = _entry_major(len(h), d)
    planes = H.transpose(1, 2, 0)  # the (d, d, N) array under the view
    planes[axes, axes] = (vals[1:k + 1:2] - 2.0 * vals[0] + vals[2:k + 2:2]) / h2
    fpp, fpm, fmp, fmm = (vals[k + 1 + i::4] for i in range(4))
    planes[a, b] = planes[b, a] = (fpp - fpm - fmp + fmm) / (4.0 * h2)
    return H


def fd_hessian_batch(f, points, step=None, entries=None):
    """Central-difference Hessians of ``f`` at rows of ``points``.

    ``f`` must be vectorized: (m, d) -> (m,); it is called once, on all
    stencil points of ``_stencil_points``, and ``_stencil_hessians`` forms
    the (N, d, d) result, entry-major; the stencil is the standard
    3-point one on the diagonal and the 4-point cross formula
    off-diagonal, exact on quadratics up to roundoff.  Only the flat
    ``entries`` a d + b, a sequence of ints, are differenced (None: every
    entry), the others are 0, and each entry has the bits it has in the
    all-entries call.  A valuation passes its polynomial form's entries;
    a field's own (``_field_entries``) give the field Hessian
    ``assemble_structured(field, ...)`` the all-entries bits.
    """
    x, h, *rows = _stencil_points(points, step, entries)
    d = x.shape[-1]
    return _stencil_hessians(f(x.reshape(-1, d)), h, d, *rows)


def fd_laplacian_batch(f, points, step=None):
    """Central-difference Laplacian (diagonal stencil only) at each row."""
    d = np.shape(points)[-1]
    x, h, *_ = _stencil_points(points, step, _field_entries(d, d))
    vals = _finite_values(f(x.reshape(-1, d)), x.shape[:2])
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


def _entry_major(n, d, slot=None):
    """An (n, d, d) float array laid out entry-major: the transposed view
    of a C-ordered (d, d, n) array, so each entry's plane ``[:, i, j]`` is
    contiguous.  Zeros in a new array for ``slot`` None, else this
    thread's buffer ``slot`` (see ``_thread_buffer``), holding whatever
    its last writer left.  Every real-Hessian batch of both routes is
    made here (see the module docstring)."""
    planes = np.zeros((d, d, n)) if slot is None else _thread_buffer(slot, (d, d, n))
    return planes.transpose(2, 0, 1)


def _bands(kernels, spacing, rows, columns):
    """The (3, rows, columns) Toeplitz bands of the kernels of orders 0, 1
    and 2 per unit length on an axis of ``spacing``: [order][i, i + j] =
    kernels[order][j] / spacing^order, 0 elsewhere."""
    i = np.arange(rows)[:, None]
    bands = np.zeros((3, rows, columns))
    bands[:, i, i + np.arange(len(kernels[0]))] = (
        np.asarray(kernels) / spacing ** np.arange(3.0)[:, None])[:, None, :]
    return bands


def _orders(entries, d):
    """Each flat entry a d + b's derivative order on every axis c < d, (c ==
    a) + (c == b), as a tuple; an entry must lie in [0, d d) (numpy's
    ValueError otherwise)."""
    a, b = np.unravel_index(np.array(entries, dtype=np.intp), (d, d))
    return [tuple((c == i) + (c == j) for c in range(d)) for i, j in zip(a.tolist(), b.tolist())]


def grid_hessian(values, spacing, kernels, entries, cells, out):
    """Hessians from samples on a uniform grid, by banded matrix products.

    ``kernels`` are the 1-D correlation kernels of orders 0, 1 and 2, all
    of length 2 r + 1 and in units of cells.  Entry (a, b) applies one
    banded matrix per axis: order 2 on axis a when a = b, order 1 on a and
    b otherwise, order 0 on every other axis.  Each product contracts the
    leading axis, crops r cells per side and appends the result, so after
    d products the axes are back in order; entries share the products of
    their common axis prefix.  Only the flat ``entries`` a d + b are
    computed, each in [0, d d), the others are 0, as on the stencil route.
    With a field's read set (``_field_entries``) R takes 3 + 6 + 6
    products in 3D, C with n = 2 takes 24 of 29 in 4D and H with n = 1
    (the diagonal) 13.

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

    The core is the grid with each axis shortened by 2 r.  The last
    axis's product of entry (a, b) is a contiguous core plane, gathered at
    ``cells``, N flat C-order core indices, into columns (a, b) and (b, a)
    of ``out``: the caller's (N, d, d) float64 array, returned, with the
    same values in any layout (the grid route's is ``_entry_major``).
    """
    values = np.asarray(values, dtype=float)
    d = values.ndim
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    width = len(kernels[0])
    if min(values.shape) < width:
        raise ValueError(f"grid_hessian needs at least {width} samples per axis")

    orders = _orders(entries, d)
    read = np.zeros((d, d), dtype=bool)
    read.flat[list(entries)] = True
    read |= read.T
    wanted = {o[:k] for o in orders for k in range(1, d + 1)}  # every axis-order prefix read
    core = tuple(n - width + 1 for n in values.shape)
    shape = (len(cells), d, d)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    elif out.dtype != np.float64:
        raise ValueError(f"out has dtype {out.dtype}, expected float64")
    out[:, ~read] = 0.0

    blocks, bands = [], []
    for a, n in enumerate(values.shape):
        nout, rest = core[a], math.prod(core[:a] + values.shape[a + 1:])
        # one vector (rest 1) goes to gemv, whose sums depend on the band's length
        count = 1 if rest == 1 else -(-nout // _BLOCK_ROWS)
        bounds = [nout * k // count for k in range(count + 1)]  # near-equal blocks
        blocks.append(list(zip(bounds, bounds[1:])))
        tall = -(-nout // count)
        bands.append(_bands(kernels, spacing[a], tall, tall + width - 1))

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
            out[:, i, j] = plane[cells]
            if i != j:
                out[:, j, i] = out[:, i, j]

    return out


def grid_hessian_adjoint(weights, entries, coefficients, spacing, kernels, cells, shape):
    """The adjoint of ``grid_hessian`` against a linear form of its entries.

    Returns the float64 array K, of the samples' ``shape``, with <K,
    values> = sum_k coefficients[k] sum_c weights[c] H_e[c], e =
    entries[k], for every ``values``, where H is ``grid_hessian``'s result
    on ``values`` with the same ``spacing``, ``kernels`` and ``cells``.
    The ``entries`` are distinct flat indices a d + b, a <= b, as
    ``grid_hessian`` takes them; an off-diagonal entry stands for H_ab and
    H_ba together, which are one plane.

    Entry (a, b)'s plane is one banded product per axis, so its adjoint
    scatters the weights onto the core (the sample box shortened by 2 r
    per axis) and applies each axis's transposed band, of the same
    kernels scaled per unit length: a product contracts the leading core
    axis and appends the box axis, so after d products the axes are back
    in order.  The entries walk the tree of their order suffixes, the
    mirror of ``grid_hessian``'s prefix tree.  An entry's suffix after
    axis 0 is its own, so its coefficient is folded into its axis-0 band.
    At each later axis the suffixes that share every order after it are
    adjacent in the stack (colexicographic order), and one ``np.matmul``
    of their stacked arrays with their stacked bands sums their products;
    the last one writes K.  So no product is added outside a matrix
    product.  The stacks of two consecutive axes lie at either end of one
    buffer: this thread's "hessians" slot (``_thread_buffer``), which
    holds the grid route's Hessians at degree >= 2 and only the products
    K * samples of a degree-1 call, so a thread that has made a larger
    Hessian call allocates no stack.
    The bands are dense (core by box cells), which on the C and H
    identity boxes (8 core and 20 box cells per axis) costs half again
    the multiply-adds of their nonzeros.
    """
    d, width = len(shape), len(kernels[0])
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (d,))
    core = tuple(n - width + 1 for n in shape)
    if min(core) < 1:
        raise ValueError(f"grid_hessian_adjoint needs at least {width} samples per axis")

    terms = dict(zip(_orders(entries, d), coefficients))  # by axis orders
    if not terms:
        return np.zeros(shape)
    kernel = np.empty(shape)  # the last product writes every value
    bands = [_bands(kernels, spacing[a], core[a], n) for a, n in enumerate(shape)]

    def colex(keys):
        return sorted(set(keys), key=lambda k: k[::-1])

    levels = [colex(terms)]  # levels[a]: the suffixes from axis a on
    for a in range(d):
        levels.append(colex(k[1:] for k in levels[a]))
    sizes = [len(levels[a + 1]) * math.prod(core[a + 1:] + shape[:a + 1]) for a in range(d - 1)]
    span = max([s + t for s, t in zip(sizes, sizes[1:])] + sizes, default=0)
    buffer = _thread_buffer("hessians", (span,))
    stack = np.zeros((1,) + core)
    stack.reshape(-1)[cells] = weights
    for a, n in enumerate(shape):
        if a == d - 1:
            out = kernel.reshape(1, -1)
        else:
            out = buffer[:sizes[a]] if a % 2 == 0 else buffer[span - sizes[a]:]
            out = out.reshape(len(levels[a + 1]), -1)
        first = 0
        for q, key in enumerate(levels[a + 1]):
            run = [k for k in levels[a] if k[1:] == key]
            if a == 0:  # one entry: its coefficient scales its band
                (entry,) = run
                rows, band = stack[0].reshape(core[0], -1), terms[entry] * bands[0][entry[0]]
            else:
                rows = stack[first:first + len(run)].reshape(len(run) * core[a], -1)
                band = bands[a][[k[0] for k in run]].reshape(len(run) * core[a], n)
                first += len(run)
            np.matmul(rows.T, band, out=out[q].reshape(-1, n))
        stack = out
    return kernel


# ---------------------------------------------------------------------------
# structured Hessians
# ---------------------------------------------------------------------------

# complex: conj(u_mu) u_nu / 4 with u = (1, i)
_COEF_C = np.array([[1.0, 1.0j], [-1.0j, 1.0]]) / 4.0

# quaternionic: u_mu * conj(u_nu), components on the trailing axis; each
# table is one broadcast product over every (mu, nu) pair
_COEF_H = quat_mul(np.eye(4)[:, None], quat_conj(np.eye(4))[None])

# octonionic: e_i * conj(e_j)
_COEF_O = oct_mul(np.eye(8)[:, None], quat_conj(np.eye(8))[None])


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
