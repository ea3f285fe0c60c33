"""Named experiments checking every computable claim of the library.

Each experiment builds a report of (label, observed, expected, tolerance)
checks; the report passes iff every check satisfies
|observed - expected| <= tolerance.  Boolean claims are encoded as 0/1
observations with tolerance 0.5.  Negative controls (mutated functionals,
centrally symmetric bodies) are part of the reports, asserting that the
harness detects what it is supposed to detect.

Reports are reproducible bit-for-bit for a fixed seed, grid, and schedule;
they carry no wall-clock time for that reason.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import convex as cx
from .algebra import (FIELDS, HermitianMatrix, _row_sums, _whole_number, det_batch,
                      polarized_det_batch)
from .hessian import (_field_entries, _row_norms, _stencil_hessians, _stencil_points,
                      assemble_structured, fd_hessian_batch, fd_laplacian_batch)
from .valuation import (
    BumpWeight,
    Grid,
    MatrixAtom,
    MatrixBump,
    ValuationSpec,
    _kernel_radius,
    body_valuation,
    eval_valuation,
    hull_volume,
    pl_valuation,
)

__all__ = [
    "ExperimentReport",
    "valuation_identity",
    "linear_invariance",
    "continuity",
    "parity_break",
    "volume_identity",
    "kernel_laplacian",
    "EXPERIMENTS",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    checks: list  # (label, observed, expected, tolerance)
    details: dict = dc_field(default_factory=dict)

    @property
    def observed(self):
        return [c[1] for c in self.checks]

    @property
    def expected(self):
        return [c[2] for c in self.checks]

    @property
    def verdicts(self) -> list:
        """Each check's pass, |observed - expected| <= tolerance (NaN fails)."""
        return [bool(abs(o - e) <= t) for _, o, e, t in self.checks]

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    def canonical(self) -> dict:
        """Deterministic payload: reruns with the same inputs are byte-equal."""
        verdicts = self.verdicts
        return {
            "name": self.name,
            "parameters": self.parameters,
            "checks": [
                {"label": l, "observed": o, "expected": e, "tolerance": t, "pass": ok}
                for (l, o, e, t), ok in zip(self.checks, verdicts)
            ],
            "passed": all(verdicts),
            "details": self.details,
        }

    def summary_lines(self):
        verdicts = self.verdicts
        return [f"[{'PASS' if all(verdicts) else 'FAIL'}] {self.name}"] + [
            f"  {'ok ' if ok else 'FAIL'} {l}: observed {o:.6g}, expected {e:.6g}, tol {t:.2g}"
            for (l, o, e, t), ok in zip(self.checks, verdicts)]


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _centered_cube(dim, halfwidth):
    corners = np.array(np.meshgrid(*[[-halfwidth, halfwidth]] * dim)).reshape(dim, -1).T
    return cx.Polytope(corners)


def _finite(name, value, many=False):
    """``value``, a finite real number (not a bool or text), as a float, or
    with ``many`` a list, tuple or 1-D array of them as floats; else ValueError."""
    listed = isinstance(value, (list, tuple)) or np.ndim(value) == 1
    if listed != many or not all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in (value if many else [value])):
        form = "a list of finite numbers" if many else "a finite number"
        raise ValueError(f"{name} must be {form}, got {value!r}")
    return [float(v) for v in value] if many else float(value)


def field_subset(fields, seed, threads, **count):
    """valuation-identity's and linear-invariance's check: the fields, a
    non-empty list or tuple of R, C, H, O2, as a tuple (a str is one field),
    the seed and the count (``n_pairs`` or ``trials``); ValueError unless
    the seed is a whole number >= 0 and ``threads`` and the count >= 1."""
    _whole_number("threads", threads, 1)
    (name, value), = count.items()
    seed, value = _whole_number("seed", seed, 0), _whole_number(name, value, 1)
    if not isinstance(fields, (str, list, tuple)):
        raise ValueError(f"fields must be a str or a list of them, got {fields!r}")
    fields = (fields,) if isinstance(fields, str) else tuple(fields)
    if not fields:
        raise ValueError("fields must not be empty")
    bad = [f for f in fields if f not in FIELDS]
    if bad:
        raise ValueError(f"unknown fields {bad}; choose from {', '.join(FIELDS)}")
    return fields, seed, value


def _slab_quad(K, rng):
    """A union-convex pair of K and its intersection body, cut along a
    random axis near the 30% and 70% vertex quantiles."""
    axis = int(rng.integers(0, K.dim))
    coords = K.vertices[:, axis]
    s, t = np.quantile(coords, [0.3, 0.7])
    mid = 0.5 * (s + t)
    spread = rng.uniform(0.5, 1.0)
    s = mid + (s - mid) * spread
    t = mid + (t - mid) * spread
    if t - s < 0.08:
        s, t = mid - 0.04, mid + 0.04
    A, B = cx.generate_union_convex_pair(K, s, t, axis)
    return A, B, cx.halfspace_clip(A, -np.eye(K.dim)[axis], -s)


# ---------------------------------------------------------------------------
# experiment: valuation identity
# ---------------------------------------------------------------------------

def _identity_config(field, rng):
    """The spec, grid, body and smoothing width of ``field``'s identity check."""
    if field == "R":
        spec = ValuationSpec("R", 3, 3, BumpWeight(np.zeros(3), 0.45, 1.0, plateau=0.7))
        return spec, Grid.cube(np.zeros(3), 0.5, 48, 3), _centered_cube(3, 0.35), 2.0
    B = BumpWeight(np.zeros(4), 0.45, 1.0, plateau=0.7)
    if field == "C":
        mat = HermitianMatrix("C", np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]]))
        spec = ValuationSpec("C", 2, 1, B, (MatrixBump(mat, np.zeros(4), 0.45, plateau=0.7),))
    else:  # H
        spec = ValuationSpec("H", 1, 1, B)
    body = cx.random_shell_polytope(rng, dim=4, n_vertices=10, min_sep=0.6)
    return spec, Grid.cube(np.zeros(4), 0.5, 10, 4), body, 1.5


def _identity_grid_residuals(field, n_pairs, rng, threads):
    spec, grid, body, sigma = _identity_config(field, rng)

    def phi(K):
        return body_valuation(spec, K, grid, sigma_cells=sigma, threads=threads)

    phi_union = phi(body)  # the union body is the same for every slab pair
    residuals = []
    for _ in range(n_pairs):
        A, B, AB = _slab_quad(body, rng)
        vals = [phi(A), phi(B), phi_union, phi(AB)]
        scale = max(1e-30, max(abs(v) for v in vals))
        residuals.append(abs(vals[2] + vals[3] - vals[0] - vals[1]) / scale)
    # mutated functional Phi + max_x f on a cube pair whose far corner is
    # clipped by the slab: the sampled maxima then cannot telescope
    cube = _centered_cube(body.dim, 0.35)
    A, B = cx.generate_union_convex_pair(cube, -0.08, 0.08, 0)
    AB = cx.halfspace_clip(A, -np.eye(body.dim)[0], 0.08)
    dirs = cx.unit_directions(body.dim, 256)
    # for R the union body is this cube, whose value is already known
    same = np.array_equal(cube.vertices, body.vertices)
    values = [phi(A), phi(B), phi_union if same else phi(cube), phi(AB)]
    mutated = [v + float(np.max(X.support(dirs))) for v, X in zip(values, (A, B, cube, AB))]
    scale = max(abs(v) for v in mutated)
    control = abs(mutated[2] + mutated[3] - mutated[0] - mutated[1]) / scale
    return residuals, control


def _random_o2_hermitian(rng):
    data = np.zeros((2, 2, 8))
    data[0, 0, 0] = rng.uniform(0.5, 1.5)
    data[1, 1, 0] = rng.uniform(0.5, 1.5)
    q = 0.4 * rng.standard_normal(8)
    data[0, 1] = data[1, 0] = q
    data[1, 0, 1:] *= -1
    return data


def _identity_probe_residuals_o2(n_pairs, rng):
    """Pointwise identity for O^2 via closed-form sliced-ball supports.

    Full 16-dimensional quadrature is out of reach, so the check probes
    the integrand at six sampled locations per pair, kept away from the
    C^1 interface cones of the sliced supports; there the four Hessians
    and hence the determinant sums satisfy the identity pointwise.

    The four bodies A, B, K (the ball, h_K = |x|) and AB are cut from one
    ball along one direction, so their supports are closed forms in |x|
    and <x, u> (``cx.ball_slab_support``).  A pair builds the probes'
    stencil once (``_stencil_points``), takes one norm and one projection
    of its points, and forms the four bodies' Hessians in one call
    (``_stencil_hessians``, the steps tiled 4x), then assembles and takes
    the determinants of all 24 in one pass each.  Every value has the
    bits of one ``fd_hessian_batch``, ``assemble_structured`` and
    determinant call per body.  Each pair starts with its three
    ``cx.ball_slab_support`` calls, and its draws keep their order.

    A candidate probe costs what its arithmetic costs: it is normalized by
    ``math.sqrt(xi.dot(xi))``, ``np.linalg.norm``'s own formula on a
    vector, and accepted on two floats, |xi| (the square root of numpy's
    sum of its squares, the norm's bits on a row) and <xi, u>, through
    ``hAB.interface_margin(r, p)``, with the bits of the array margin.
    """
    entries = _field_entries(16, 8)  # the entries O2 (8 real components per coordinate) reads
    residuals = []
    control = 0.0
    for pair in range(n_pairs):
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        s = rng.uniform(-0.45, -0.1)
        t = rng.uniform(0.1, 0.45)
        hA = cx.ball_slab_support(u, -1.0, t)
        hB = cx.ball_slab_support(u, s, 1.0)
        hAB = cx.ball_slab_support(u, s, t)

        def supports(x):
            """h_A, h_B, h_K and h_AB on the rows of x: one norm, one projection."""
            r, p = _row_norms(x), x @ hAB.direction
            return [hA.closed_form(r, p), hB.closed_form(r, p), r, hAB.closed_form(r, p)]

        probes = []
        while len(probes) < 6:
            xi = rng.standard_normal(16)
            xi *= rng.uniform(0.8, 1.4) / math.sqrt(xi.dot(xi))  # np.linalg.norm(xi)
            r = math.sqrt(np.add.reduce(xi * xi))  # np.linalg.norm(xi[None], axis=-1)[0]
            if hAB.interface_margin(r, xi @ hAB.direction) > 0.2:
                probes.append(xi)
        probes = np.array(probes)
        degree = 2 if pair % 2 == 0 else 1
        weight = None if degree == 2 else _random_o2_hermitian(rng)
        x, h, *rows = _stencil_points(probes, 2e-4, entries)
        vals = np.concatenate([v.reshape(len(x), -1) for v in supports(x.reshape(-1, 16))], axis=1)
        hess = assemble_structured("O2", _stencil_hessians(vals, np.tile(h, 4), 16, *rows))
        if degree == 2:
            dets = det_batch("O2", hess)
        else:
            dets = polarized_det_batch("O2", [hess, weight])
        dets = dets.reshape(4, -1)  # A, B, K, AB
        dA, dB, dK, dAB = dets
        resid = dK + dAB - dA - dB
        scale = np.maximum(1e-30, np.max(np.abs(dets), axis=0))
        residuals.extend((np.abs(resid) / scale).tolist())
        # control: the squared probe sum is not a valuation.  With +-1.2u
        # among the probes both cut cones are hit, so the defect
        # 2 (S_A - S_AB)(S_B - S_AB) is strictly positive.
        sums = [float(np.sum(v)) for v in supports(np.vstack([probes, 1.2 * u, -1.2 * u]))]
        sA, sB, sK, sAB = sums
        defect = sK ** 2 + sAB ** 2 - sA ** 2 - sB ** 2
        control = max(control, abs(defect) / max(v**2 for v in sums))
    return residuals, control


def valuation_identity(fields=("R", "C", "H", "O2"), n_pairs=20, seed=0, threads=1):
    """Phi(max) + Phi(min) = Phi(f) + Phi(g) over union-convex pairs.

    Support-function pairs come from slab cuts, so max/min of the pair
    are again support functions of convex bodies.  R/C/H run smoothed
    grid quadrature; O2 probes the integrand pointwise.  A mutated
    functional (adding max f) must break the identity.
    """
    fields, seed, n_pairs = field_subset(fields, seed, threads, n_pairs=n_pairs)
    checks = []
    details = {}
    rng = np.random.default_rng(seed)
    for field in fields:
        if field == "O2":
            residuals, control = _identity_probe_residuals_o2(n_pairs, rng)
            tol = 1e-6
        else:
            residuals, control = _identity_grid_residuals(field, n_pairs, rng, threads)
            tol = 0.02
        checks.append((f"{field}: max residual over {n_pairs} pairs", max(residuals), 0.0, tol))
        checks.append((f"{field}: mutated functional breaks identity",
                       1.0 if control > 3 * tol else 0.0, 1.0, 0.5))
        details[field] = {"residuals": residuals, "control_residual": control}
    return ExperimentReport(
        "valuation-identity",
        {"fields": list(fields), "pairs": n_pairs, "seed": seed},
        checks,
        details,
    )


# ---------------------------------------------------------------------------
# experiment: invariance under adding linear functionals
# ---------------------------------------------------------------------------

def _invariance_case(field, rng):
    """(spec, grid-or-None, base function, control point) per field."""
    if field == "R":
        p0 = np.array([0.4, -0.2, 0.3])
        m = rng.standard_normal((3, 3))
        q = m @ m.T + 0.5 * np.eye(3)
        fn = _quad_plus_quartic(q, 0.2)
        atom = MatrixAtom(HermitianMatrix("R", np.diag([1.0, 0.5, 0.2])), p0)
        return ValuationSpec("R", 3, 2, BumpWeight(p0, 0.3), (atom,)), None, fn, p0
    if field == "C":
        p0 = np.array([0.3, 0.1, -0.2, 0.25])
        m = rng.standard_normal((4, 4))
        q = m @ m.T + 0.5 * np.eye(4)
        fn = _quad_plus_quartic(q, 0.15)
        mat = HermitianMatrix("C", np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]))
        return ValuationSpec("C", 2, 1, BumpWeight(p0, 0.3), (MatrixAtom(mat, p0),)), None, fn, p0
    if field == "H":
        q = np.eye(4)
        fn = _quad_plus_quartic(q, 0.15)
        spec = ValuationSpec("H", 1, 1, BumpWeight(np.zeros(4), 0.45, 1.0, plateau=0.5))
        return spec, Grid.cube(np.zeros(4), 0.5, 8, 4), fn, np.full(4, 0.3)
    p0 = np.concatenate([[1.0], np.full(15, 0.1)])  # O2
    fn = _quad_plus_quartic(np.eye(16), 0.1)
    atom = MatrixAtom(HermitianMatrix("O2", _random_o2_hermitian(rng)), p0)
    return ValuationSpec("O2", 2, 1, BumpWeight(p0, 0.5), (atom,)), None, fn, p0


def _quad_plus_quartic(q, amp):
    """x -> x^T q x / 2 + amp sum_i (x_i - 0.1)^4 over the last axis; the
    quartic's sum is ``_row_sums``, the bits of ``np.sum`` (4-wide stencil
    rows of the H check: 18 against 116 us on 6,336 rows)."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        quad = 0.5 * np.einsum("...i,...i->...", x @ q, x)  # one BLAS product
        t = (x - 0.1) ** 2
        t *= t  # the 4th power by squaring twice; pow is about 50x slower
        return quad + amp * _row_sums(t)
    return fn


def _plus_linear(fn, ell):
    """x -> fn(x) + <x, ell>, where each row's <x, ell> has the same bits in
    any batch (the gemv ``x @ ell`` rounds a row differently by batch length)."""
    return lambda x: fn(x) + np.einsum("...i,i->...", x, ell)


def linear_invariance(fields=("R", "C", "H", "O2"), trials=50, seed=0, threads=1):
    """Phi(f + linear) = Phi(f) down to the difference-stencil noise floor.

    The linear part survives the centered second differences only through
    rounding, which the chosen step keeps below 1e-9 relative.  A control
    functional f -> f(x0) with x0 != 0 is shifted by every linear term.
    """
    fields, seed, trials = field_subset(fields, seed, threads, trials=trials)
    rng = np.random.default_rng(seed)
    checks = []
    details = {}
    step = 1e-3  # larger than the Hessian default: pure noise-floor regime
    for field in fields:
        spec, grid, fn, x0 = _invariance_case(field, rng)
        base = eval_valuation(spec, fn, grid, step=step, threads=threads)
        if abs(base) < 1e-9:
            raise ArithmeticError(f"degenerate base value for field {field}")
        worst = 0.0
        control = 0.0
        d = spec.real_dim
        for _ in range(trials):
            ell = rng.uniform(-1.0, 1.0, d)
            shifted = eval_valuation(spec, _plus_linear(fn, ell), grid,
                                     step=step, threads=threads)
            worst = max(worst, abs(shifted - base) / abs(base))
            control = max(control, abs(float(x0 @ ell)))
        checks.append((f"{field}: max |Phi(f+l)-Phi(f)| / |Phi(f)| over {trials} l",
                       worst, 0.0, 1e-9))
        checks.append((f"{field}: control functional f(x0) shifts under l",
                       1.0 if control > 1e-3 else 0.0, 1.0, 0.5))
        details[field] = {"base": base, "worst_relative": worst,
                          "control_shift": control}
    return ExperimentReport(
        "linear-invariance",
        {"fields": list(fields), "trials": trials, "seed": seed},
        checks,
        details,
    )


# ---------------------------------------------------------------------------
# experiment: continuity of the smoothed route
# ---------------------------------------------------------------------------

def smoothing_schedule(sigmas_cells, resolution):
    """continuity's check: its schedule as floats and the resolution.

    Raises ValueError unless the resolution is a whole number >= 1 and the
    schedule a list of two or more finite widths (one would pass the
    monotone check vacuously), each >= 1 cell, strictly decreasing, and
    unless resolution + 2 r <= 160 for the ``valuation._kernel_radius`` r
    of the widest sigma: the grid route samples that many points per
    axis, and at 160 its float64 samples and Hessians take up to 0.3 GB.
    """
    resolution = _whole_number("resolution", resolution, 1)
    sigmas = _finite("sigmas_cells", sigmas_cells, many=True)
    if len(sigmas) < 2:
        raise ValueError(f"smoothing schedule needs at least two widths, got {sigmas}")
    if any(s < 1.0 for s in sigmas):
        raise ValueError("smoothing schedule is too coarse for the grid (sigma < 1 cell)")
    if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError(f"smoothing schedule must strictly decrease, got {sigmas}")
    # r >= sigma, so a sigma of 160 is past the bound at every resolution;
    # the cap keeps 4 sigma from overflowing to inf
    if resolution + 2 * _kernel_radius(min(sigmas[0], 160.0)) > 160:
        raise ValueError(f"resolution {resolution} with sigma {sigmas[0]} samples more than 160 "
                         "points per axis (resolution + 2 r, r the kernel radius); at 160 the "
                         "grid route's float64 samples and Hessians take up to 0.3 GB")
    return sigmas, resolution


def continuity(sigmas_cells=(12.0, 6.0, 3.0, 1.5), resolution=48):
    """Smoothed quadrature converges to the exact PL value as sigma -> 0.

    Target: the support function of a centered cube, whose measure is a
    single atom at the origin of mass vol(cube); gaps must decrease
    monotonically (10% slack) and end below 2%.
    """
    sigmas, resolution = smoothing_schedule(sigmas_cells, resolution)
    cube = _centered_cube(3, 0.5)
    weight = BumpWeight(np.zeros(3), 0.45, 1.0, plateau=0.6)
    ref = pl_valuation(weight, cx.PLConvexFunction.from_polytope_support(cube))
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, resolution, 3)
    values = [body_valuation(spec, cube, grid, sigma_cells=s) for s in sigmas]
    gaps = [abs(v - ref) / abs(ref) for v in values]
    rates = [float(np.log2(max(gaps[k], 1e-300) / max(gaps[k + 1], 1e-300)))
             for k in range(len(gaps) - 1)]
    monotone = all(gaps[k + 1] <= gaps[k] * 1.10 for k in range(len(gaps) - 1))
    repeat = body_valuation(spec, cube, grid, sigma_cells=sigmas[-1])
    checks = [
        ("gap sequence decreases monotonically (10% slack)", 1.0 if monotone else 0.0, 1.0, 0.5),
        ("final gap", gaps[-1], 0.0, 0.02),
        ("repeat at fixed sigma is bit-identical", 1.0 if repeat == values[-1] else 0.0, 1.0, 0.5),
    ]
    return ExperimentReport(
        "continuity",
        {"sigmas_cells": sigmas, "resolution": resolution},
        checks,
        {"pl_reference": ref, "values": values, "gaps": gaps,
         "empirical_halving_rates": rates},
    )


# ---------------------------------------------------------------------------
# experiment: parity breaking on the two-ball body
# ---------------------------------------------------------------------------

def _basis_matrix(n, p):
    m = np.zeros((n, n))
    m[p, p] = 1.0
    return HermitianMatrix("R", m)


def parity_shape(dim, degree, widths, seed, threads):
    """parity-break's check: (n, i), the widths as floats and the seed.

    Raises ValueError unless the whole numbers n and i have 1 <= i <= n - 1
    and n <= 5 (each width differences a 12^n-cell grid, whose float64
    Hessians alone take 14 GB at n = 7), the widths are one or more finite
    positive numbers, the seed is whole and >= 0, and ``threads`` >= 1.
    """
    _whole_number("threads", threads, 1)
    seed = _whole_number("seed", seed, 0)
    n, i = _whole_number("dim", dim, 2), _whole_number("degree", degree, 1)
    if n > 5:
        raise ValueError(f"dim {n} is above 5: parity-break differences a 12^dim-cell grid")
    if i > n - 1:
        raise ValueError(f"degree out of range 1..{n - 1}")
    widths = _finite("widths", widths, many=True)
    if not (widths and all(w > 0 for w in widths)):
        raise ValueError(f"widths must be one or more positive numbers, got {widths}")
    return n, i, widths, seed


def parity_break(dim=3, degree=1, widths=(0.3, 0.15, 0.075), seed=0, threads=1):
    """A body valuation that is neither even nor odd.

    On the two-ball body the weights (one unit-diagonal atom at v0 = e_1,
    unit-diagonal bumps elsewhere, B = 1 near v0) evaluate the valuation
    to binomial(n, i)^{-1} at K and binomial(n, i)^{-1} 2^i at -K: the
    support Hessians at +-v0 are diag(0, 1, ..., 1) and twice that.  The
    atom is also approximated by shrinking normalized bumps, and a round
    ball is the symmetric control with equal values.
    """
    n, i, widths, seed = parity_shape(dim, degree, widths, seed, threads)
    from math import comb

    body = cx.make_two_ball_body(n)
    v0 = np.zeros(n)
    v0[0] = 1.0
    weight_b = BumpWeight(v0, 0.5, 1.0, plateau=0.5)
    weights = [MatrixAtom(_basis_matrix(n, 0), v0)]
    weights += [MatrixBump(_basis_matrix(n, l), v0, 0.5, plateau=0.5) for l in range(1, n - i)]
    spec = ValuationSpec("R", n, i, weight_b, tuple(weights))

    expect_plus = 1.0 / comb(n, i)
    expect_minus = 2.0**i / comb(n, i)
    phi_plus = body_valuation(spec, body, threads=threads)
    phi_minus = body_valuation(spec, body.negate(), threads=threads)

    bump_vals = []
    for w in widths:
        wide = spec.with_atom_widened(w)
        grid = Grid.cube(v0, w, 12, n)
        bump_vals.append(eval_valuation(wide, body.support, grid, threads=threads))
    bump_gaps = [abs(v - phi_plus) / abs(phi_plus) for v in bump_vals]

    neither = min(abs(phi_minus - phi_plus), abs(phi_minus + phi_plus)) > 0.05 * abs(phi_plus)

    ball = cx.ball_body(n, 1.0)
    ball_plus = body_valuation(spec, ball, threads=threads)
    ball_minus = body_valuation(spec, ball.negate(), threads=threads)
    ball_sym = abs(ball_minus - ball_plus) <= 1e-9 * max(1.0, abs(ball_plus))

    checks = [
        ("phi(K) via atom weights", phi_plus, expect_plus, 0.01 * expect_plus),
        ("phi(-K) via atom weights", phi_minus, expect_minus, 0.01 * expect_minus),
        ("phi(K) via finest bump approximation", bump_vals[-1], expect_plus, 0.03 * expect_plus),
        ("bump values converge to the atom value (final gap)", bump_gaps[-1], 0.0, 0.01),
        ("neither even nor odd", 1.0 if neither else 0.0, 1.0, 0.5),
        ("round-ball control is symmetric", 1.0 if ball_sym else 0.0, 1.0, 0.5),
    ]
    return ExperimentReport(
        "parity-break",
        {"dim": n, "degree": i, "widths": widths, "seed": seed},
        checks,
        {"phi_plus": phi_plus, "phi_minus": phi_minus,
         "bump_values": bump_vals, "bump_gaps": bump_gaps,
         "ball_values": [ball_plus, ball_minus]},
    )


# ---------------------------------------------------------------------------
# experiment: determinant of a support-function Hessian sees only volume
# ---------------------------------------------------------------------------

NAMED_BODIES = {
    "cube3": lambda: cx.Polytope(np.array(np.meshgrid(*[[0.0, 1.0]] * 3)).reshape(3, -1).T),
    "ccube3": lambda: _centered_cube(3, 0.35),
    "simplex3": lambda: cx.Polytope(np.vstack([np.zeros(3), 0.7 * np.eye(3)])),
}


def named_body(b_height, body, seed):
    """volume-identity's check: B(0) as a float and the seed; ValueError
    unless B(0) is finite, ``body`` None or named, and the seed whole, >= 0."""
    seed = _whole_number("seed", seed, 0)
    if body is not None and not (isinstance(body, str) and body in NAMED_BODIES):
        raise ValueError(f"unknown body {body!r}; choose from {', '.join(NAMED_BODIES)}")
    return _finite("b_height", b_height), seed


def _kernel_images(weights, bodies, volumes, grid):
    """The images of top-degree weights with B(0) = 0 on the bodies, which
    the body-valuation map sends to 0: the largest |phi(K)| by the exact PL
    route and the largest |phi(K)| / vol(K) by the smoothed quadrature."""
    exact = max(abs(pl_valuation(w, cx.PLConvexFunction.from_polytope_support(K)))
                for w in weights for K in bodies)
    specs = [ValuationSpec("R", 3, 3, w) for w in weights]  # one per weight, prepared once
    quad = max(abs(body_valuation(spec, K, grid, sigma_cells=2.0)) / vol
               for spec in specs for K, vol in zip(bodies, volumes))
    return exact, quad


def volume_identity(b_height=1.0, body=None, seed=0):
    """Phi(h_K) = B(0) * vol(K) for the top-degree functional over R.

    The exact route reads the PL measure of h_K (a single atom at the
    origin); the independent volume reference is qhull's.  The smoothed
    quadrature route must agree within 2%.  A weight vanishing at the
    origin lands in the kernel of the body-valuation map: its exact route
    gives 0, while the functional itself stays nonzero on a quadratic.
    """
    b_height, seed = named_body(b_height, body, seed)
    rng = np.random.default_rng(seed)
    bodies = ([NAMED_BODIES[body]()] if body is not None else
              [cx.random_shell_polytope(rng) for _ in range(10)])

    weight = BumpWeight(np.zeros(3), 0.45, b_height, plateau=0.7)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, 48, 3)

    exact_errs, quad_errs, volumes = [], [], []
    for K in bodies:
        vol = hull_volume(K.vertices)
        volumes.append(vol)
        exact = pl_valuation(weight, cx.PLConvexFunction.from_polytope_support(K))
        exact_errs.append(abs(exact - b_height * vol))
        quad = body_valuation(spec, K, grid, sigma_cells=2.0)
        quad_errs.append(abs(quad - b_height * vol) / max(1e-30, abs(b_height) * vol))

    scale = max(1.0, max(volumes) * abs(b_height))
    checks = [
        (f"exact PL route max |Phi(h_K) - B(0) vol| over {len(bodies)} bodies",
         max(exact_errs), 0.0, 1e-9 * scale),
        ("smoothed quadrature route max relative error", max(quad_errs), 0.0, 0.02),
    ]

    # a weight with B(0) = 0: image under the body-valuation map vanishes
    kernel_weight = BumpWeight(np.array([0.25, 0.0, 0.0]), 0.18, 1.0)
    kernel_exact, kernel_quad = _kernel_images([kernel_weight], bodies, volumes, grid)
    nonzero = eval_valuation(ValuationSpec("R", 3, 3, kernel_weight),
                             lambda x: 0.5 * _row_sums(x**2), grid)
    checks += [
        ("B(0) = 0: exact image on bodies is 0", kernel_exact, 0.0, 1e-12),
        ("B(0) = 0: quadrature image relative to vol", kernel_quad, 0.0, 0.02),
        ("B(0) = 0: functional itself is nonzero on a quadratic",
         1.0 if abs(nonzero) > 1e-3 else 0.0, 1.0, 0.5),
    ]
    return ExperimentReport(
        "volume-identity",
        {"bodies": body if body else 10, "b_height": b_height, "seed": seed},
        checks,
        {"volumes": volumes, "exact_errors": exact_errs, "quad_rel_errors": quad_errs,
         "kernel_nonzero_value": nonzero},
    )


# ---------------------------------------------------------------------------
# experiment: first-order response is the weighted Laplacian
# ---------------------------------------------------------------------------

def _bump4(x, center=0.0, radius=0.45):
    """The C^2 bump (1 - |x - center|^2 / radius^2)_+^4; with the defaults,
    the perturbation psi of |x|^2/2.  The squared distance is
    ``_row_sums``, the bits of ``np.sum``."""
    r2 = _row_sums(((np.asarray(x, dtype=float) - center) / radius) ** 2)
    return np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)


def perturbation_schedule(eps_schedule, resolution, seed, threads):
    """kernel-laplacian's check: its schedule as floats, the resolution and
    the seed as ints, and the smallest eigenvalue of I + eps Hess(psi) over
    every fifth node of its grid, at the largest eps.

    Raises ValueError unless the seed is a whole number of at least 0, the
    resolution and ``threads`` of at least 1, the schedule a list of two
    or more finite positive values (for a halving ratio), the resolution
    at most 96 (the reference Laplacian evaluates psi at 7 resolution^3
    stencil points in one call, 149 MB of float64 coordinates at 96) and
    |x|^2/2 + eps psi is convex there, hence at every eps.
    """
    seed, resolution = _whole_number("seed", seed, 0), _whole_number("resolution", resolution, 1)
    _whole_number("threads", threads, 1)
    eps = _finite("eps_schedule", eps_schedule, many=True)
    if len(eps) < 2 or not all(e > 0 for e in eps):
        raise ValueError(f"perturbation schedule needs at least two eps values > 0, got {eps}")
    if resolution > 96:
        raise ValueError(f"resolution {resolution} is above 96: the reference Laplacian "
                         "evaluates psi at 7 resolution^3 stencil points at once, 149 MB of "
                         "float64 coordinates at 96")
    nodes = Grid.cube(np.zeros(3), 0.5, resolution, 3).nodes()
    hpsi = fd_hessian_batch(_bump4, nodes[::5])
    min_eig = float(np.min(np.linalg.eigvalsh(np.eye(3) + max(eps) * hpsi)))
    if min_eig < 0:
        raise ValueError(f"f_eps is not convex at eps={max(eps)} (min eig {min_eig})")
    return eps, resolution, seed, min_eig


def kernel_laplacian(eps_schedule=(1e-2, 5e-3, 2.5e-3), resolution=32, seed=0, threads=1):
    """(Phi(|x|^2/2 + eps psi) - Phi(|x|^2/2)) / eps -> integral of B Lap(psi).

    det(I + eps H) = 1 + eps tr(H) + O(eps^2), so the divided difference
    approaches the weighted Laplacian at first order: halving eps halves
    the gap (ratio in [1.5, 2.5]).  Also exhibits three linearly
    independent weights with B(0) = 0 whose induced body valuations
    vanish while the functionals stay distinguishable.
    """
    eps_schedule, resolution, seed, min_eig = perturbation_schedule(
        eps_schedule, resolution, seed, threads)
    rng = np.random.default_rng(seed)
    weight = BumpWeight(np.zeros(3), 0.45, 1.0)
    spec = ValuationSpec("R", 3, 3, weight)
    grid = Grid.cube(np.zeros(3), 0.5, resolution, 3)
    nodes = grid.nodes()

    def f0(x):
        return 0.5 * _row_sums(np.asarray(x, dtype=float) ** 2)

    reference = float(np.sum(np.asarray(weight(nodes)) * fd_laplacian_batch(_bump4, nodes))
                      * grid.cell_volume)
    phi0 = eval_valuation(spec, f0, grid, threads=threads)
    gaps = []
    divided = []
    for eps in eps_schedule:
        phi = eval_valuation(spec, lambda x, e=eps: f0(x) + e * _bump4(x), grid,
                             threads=threads)
        divided.append((phi - phi0) / eps)
        gaps.append(abs(divided[-1] - reference))
    ratios = [gaps[k] / max(gaps[k + 1], 1e-300) for k in range(len(gaps) - 1)]

    # psi = 0 control: the divided difference vanishes identically
    phi_same = eval_valuation(spec, f0, grid, threads=threads)
    zero_control = abs(phi_same - phi0)

    # three independent kernel weights (B_k(0) = 0) and their test matrix
    centers = [np.array([0.25, 0.0, 0.0]), np.array([-0.12, 0.22, 0.0]),
               np.array([-0.12, -0.22, 0.0])]
    kweights = [BumpWeight(c, 0.18, 1.0) for c in centers]
    kspecs = [ValuationSpec("R", 3, 3, w) for w in kweights]

    def f_probe(c):
        return lambda x: f0(x) + 0.4 * _bump4(x, c, 0.18)

    gram = []
    for ks in kspecs:  # each spec's base next to its probes, so the memo keeps its key
        base = eval_valuation(ks, f0, grid, threads=threads)
        gram.append([eval_valuation(ks, f_probe(c), grid, threads=threads) - base
                     for c in centers])
    gram = np.array(gram)
    svals = np.linalg.svd(gram, compute_uv=False)
    independence = float(svals[-1] / svals[0])

    kernel_bodies = [cx.random_shell_polytope(rng) for _ in range(5)]
    kernel_image, kernel_image_quad = _kernel_images(
        kweights, kernel_bodies, [hull_volume(K.vertices) for K in kernel_bodies],
        Grid.cube(np.zeros(3), 0.5, 48, 3))

    checks = [
        ("halving ratio (coarsest)", ratios[0], 2.0, 0.5),
        ("halving ratio (finest)", ratios[-1], 2.0, 0.5),
        ("psi = 0 control: divided difference vanishes", zero_control, 0.0, 1e-12),
        ("three kernel weights are independent (sigma_min/sigma_max)",
         1.0 if independence > 0.01 else 0.0, 1.0, 0.5),
        ("kernel weights: exact image on 5 bodies", kernel_image, 0.0, 1e-12),
        ("kernel weights: quadrature image relative to vol", kernel_image_quad, 0.0, 0.02),
    ]
    return ExperimentReport(
        "kernel-laplacian",
        {"eps_schedule": eps_schedule, "resolution": resolution, "seed": seed},
        checks,
        {"reference": reference, "divided_differences": divided, "gaps": gaps,
         "ratios": ratios, "min_convexity_eig": min_eig,
         "independence_ratio": independence},
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: name -> (experiment, its check, what it checks).  A check takes all the
#: experiment's keyword arguments and raises ValueError on inputs it
#: rejects; the experiment calls it as its first statement.
EXPERIMENTS = {
    "valuation-identity": (
        valuation_identity, field_subset,
        "max/min additivity of weighted mixed-Hessian-determinant integrals "
        "over union-convex support-function pairs, all four scalar fields",
    ),
    "linear-invariance": (
        linear_invariance, field_subset,
        "invariance of the functionals under adding linear terms to the argument",
    ),
    "continuity": (
        continuity, smoothing_schedule,
        "smoothed quadrature converges to the exact piecewise-linear value "
        "as the smoothing width shrinks",
    ),
    "parity-break": (
        parity_break, parity_shape,
        "two-ball body valuation with values 1/binom(n,i) at K and "
        "2^i/binom(n,i) at -K: neither even nor odd",
    ),
    "volume-identity": (
        volume_identity, named_body,
        "top-degree functional of a support function equals B(0) times the "
        "body volume; weights vanishing at 0 induce the zero body valuation",
    ),
    "kernel-laplacian": (
        kernel_laplacian, perturbation_schedule,
        "first-order response of the determinant integral around |x|^2/2 is "
        "the B-weighted Laplacian; exhibits independent kernel weights",
    ),
}


def run_experiment(name, **kwargs) -> ExperimentReport:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name][0](**kwargs)
