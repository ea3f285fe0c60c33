"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import os
import tempfile
import time

import numpy as np
import pytest

from mongeval.algebra import (
    FIELD_COMPONENTS,
    HermitianMatrix,
    conj_transpose,
    det_batch,
    polarized_det_batch,
    quat_conj,
)
from mongeval.cli import main
from mongeval.convex import PLConvexFunction, make_two_ball_body, random_shell_polytope
from mongeval.hessian import _field_entries, assemble_structured, fd_hessian_batch
from mongeval.valuation import (
    BumpWeight,
    Grid,
    MatrixAtom,
    body_valuation,
    eval_valuation,
    homogeneous_components,
    ma_measure_pl,
    ValuationSpec,
)
from mongeval.verify import (
    kernel_laplacian,
    linear_invariance,
    parity_break,
    valuation_identity,
    volume_identity,
)
from references import identity, observed, quat_abs2, quat_matmul, realize_quat_matrix


def _report(num, label, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_acceptance_01_mixed_determinant_minor_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 7))
        i = int(rng.integers(1, n))
        a = rng.standard_normal((n, n))
        H = 0.5 * (a + a.T)
        slots = [HermitianMatrix("R", H)] * i + [
            HermitianMatrix("R", np.diag(np.eye(n)[l])) for l in range(n - i)
        ]
        val = math.factorial(n - i) * polarized_det_batch("R", [s.data[None] for s in slots])[0]
        minor = np.linalg.det(H[n - i:, n - i:]) if i else 1.0
        expected = minor / math.comb(n, i)
        tol = 1e-9 * max(1.0, np.linalg.norm(H) ** n)
        ok &= abs(val - expected) <= tol
    _report(1, "slot-normalized mixed determinant extracts the principal minor",
            ok, time.perf_counter() - t0, 10)


def test_acceptance_02_moore_determinant():
    t0 = time.perf_counter()

    def moore(A):  # the library's one Moore determinant, on one matrix
        return det_batch("H", A[None])[0]

    rng = np.random.default_rng(102)
    ok = True
    # 2x2 closed form on 500 random Hermitian matrices
    for _ in range(500):
        a, b = rng.standard_normal(2)
        q = rng.standard_normal(4)
        A = np.zeros((2, 2, 4))
        A[0, 0, 0], A[1, 1, 0] = a, b
        A[0, 1], A[1, 0] = q, quat_conj(q)
        closed = a * b - quat_abs2(q)
        ok &= abs(moore(A) - closed) <= 1e-10 * max(1.0, abs(closed))
    # identity normalization, exactly
    for n in range(1, 5):
        ok &= moore(identity("H", n).data) == 1.0
    # realization consistency, relative to ||A||_F^(4n), the degree of both
    # sides, at three scales, and at scale 1 also relative to the values,
    # the tighter of the two there; weak multiplicativity
    for n in (2, 3):
        for _ in range(20):
            x = rng.standard_normal((n, n, 4))
            A = 0.5 * (x + conj_transpose("H", x))
            p = moore(A)
            det_real = np.linalg.det(realize_quat_matrix(A))
            ok &= abs(det_real - p**4) <= 1e-8 * max(1.0, abs(p**4), abs(det_real))
            for scaled in (A, 1e-2 * A, 1e2 * A):
                p = moore(scaled)
                det_real = np.linalg.det(realize_quat_matrix(scaled))
                ok &= abs(det_real - p**4) <= 1e-8 * np.sum(scaled * scaled) ** (2 * n)
            C = rng.standard_normal((n, n, 4))
            cac = quat_matmul(quat_matmul(conj_transpose("H", C), A), C)
            cc = quat_matmul(conj_transpose("H", C), C)
            rhs = moore(A) * moore(cc)
            ok &= abs(moore(cac) - rhs) <= 1e-8 * max(1.0, abs(rhs))
    _report(2, "Moore determinant: closed form, unit normalization, realization, "
               "weak multiplicativity", ok, time.perf_counter() - t0, 30)


def test_acceptance_03_parity_breaking_values():
    t0 = time.perf_counter()
    ok = True
    for degree in (1, 2):
        rep = parity_break(dim=3, degree=degree)
        ok &= rep.passed
        expect = 1.0 / math.comb(3, degree)
        obs = dict(zip([c[0] for c in rep.checks], observed(rep)))
        ok &= abs(obs["phi(K) via atom weights"] - expect) <= 0.01 * expect
        ok &= abs(obs["phi(-K) via atom weights"] - 2.0**degree * expect) <= (
            0.01 * 2.0**degree * expect
        )
        ok &= abs(obs["phi(K) via finest bump approximation"] - expect) <= 0.03 * expect
    _report(3, "parity-breaking values (1/3, 2/3) and (1/3, 4/3) with flags",
            ok, time.perf_counter() - t0, 60)


def test_acceptance_04_volume_identity():
    t0 = time.perf_counter()
    rep = volume_identity(seed=104)
    _report(4, "Phi(h_K) = B(0) vol(K): exact to 1e-9, quadrature to 2%",
            rep.passed, time.perf_counter() - t0, 60)


def test_acceptance_05_valuation_identity_suite():
    t0 = time.perf_counter()
    rep = valuation_identity(n_pairs=20, seed=105)
    _report(5, "valuation identity over >= 20 union-convex pairs per field "
               "(R, C, H quadrature; O2 sparse probing) with failing control",
            rep.passed, time.perf_counter() - t0, 600)


def test_acceptance_06_linear_invariance():
    t0 = time.perf_counter()
    rep = linear_invariance(trials=50, seed=106)
    worst = max(rep.details[f]["worst_relative"] for f in ("R", "C", "H", "O2"))
    _report(6, f"linear-addition invariance <= 1e-9 relative (worst {worst:.1e})",
            rep.passed, time.perf_counter() - t0, 30)


def test_acceptance_07_homogeneous_decomposition():
    t0 = time.perf_counter()
    ok = True
    body = make_two_ball_body(3)
    v0 = np.array([1.0, 0.0, 0.0])
    for degree in (1, 2):
        weights = [MatrixAtom(HermitianMatrix("R", np.diag(np.eye(3)[0])), v0)]
        weights += [
            __import__("mongeval").valuation.MatrixBump(
                HermitianMatrix("R", np.diag(np.eye(3)[l])), v0, 0.5, plateau=0.5)
            for l in range(1, 3 - degree)
        ]
        spec = ValuationSpec("R", 3, degree, BumpWeight(v0, 0.5, plateau=0.5), tuple(weights))
        comps = homogeneous_components(lambda K: body_valuation(spec, K), body, 3)
        lead = comps[degree]
        leak = np.abs(np.delete(comps, degree)).max()
        ok &= leak <= 1e-3 * abs(lead)
    K = random_shell_polytope(np.random.default_rng(107))
    vol_phi = lambda body: ma_measure_pl(PLConvexFunction.from_polytope_support(body)).total_mass
    comps = homogeneous_components(vol_phi, K, 3)
    ok &= np.abs(comps[:3]).max() <= 1e-3 * abs(comps[3])
    _report(7, "Vandermonde components concentrate at the functional's degree; "
               "volume concentrates at n", ok, time.perf_counter() - t0, 60)


def test_acceptance_08_kernel_laplacian():
    t0 = time.perf_counter()
    rep = kernel_laplacian(seed=108)
    ratios = rep.details["ratios"]
    ok = rep.passed and all(1.5 <= r <= 2.5 for r in ratios)
    _report(8, "first-order Laplacian response with halving ratios in [1.5, 2.5]; "
               "3 independent kernel weights with vanishing body image",
            ok, time.perf_counter() - t0, 120)


def test_acceptance_09_structured_hessians():
    t0 = time.perf_counter()
    ok = True

    def norm_sq(x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)

    def field_hessian(field, p):
        # the library's one field-Hessian route, as the O2 probe identity forms it
        d, m = p.size, FIELD_COMPONENTS[field]
        return assemble_structured(field, fd_hessian_batch(
            norm_sq, p[None], entries=_field_entries(d, m)))[0]

    hc = field_hessian("C", np.array([0.2, -0.1, 0.3, 0.4]))
    ok &= np.abs(hc - np.eye(2)).max() <= 1e-6
    hh = field_hessian("H", np.array([0.2, -0.1, 0.3, 0.4]))
    ok &= abs(hh[0, 0, 0] - 8.0) <= 1e-6 and np.abs(hh[0, 0, 1:]).max() <= 1e-6
    ho = field_hessian("O2", 0.05 * np.arange(16.0))
    expected = np.zeros((2, 2, 8))
    expected[0, 0, 0] = expected[1, 1, 0] = 16.0
    ok &= np.abs(ho - expected).max() <= 1e-6
    # cross-check against an independently assembled real difference Hessian
    hreal = fd_hessian_batch(norm_sq, np.array([[0.2, -0.1, 0.3, 0.4]]))[0]
    ok &= np.abs(0.25 * (hreal[0, 0] + hreal[1, 1]) - hc[0, 0].real) <= 1e-8
    ok &= abs(np.trace(hreal) - hh[0, 0, 0]) <= 1e-8
    _report(9, "structured Hessians: C -> I, H -> (8), O2 -> 16 I, vs difference "
               "stencils", ok, time.perf_counter() - t0, 10)


def test_acceptance_10_deterministic_reports():
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        ok = True
        # the north star's gate: a report has the same bytes at every
        # --threads value (each experiment checks it; the library below
        # takes none) and on a rerun; kernel-laplacian's stencil route
        # runs in more than one block
        for name, options in (("parity-break", ["--dim", "3", "--degree", "1"]),
                              ("kernel-laplacian", [])):
            out1, out2 = os.path.join(tmp, name, "a"), os.path.join(tmp, name, "b")
            args = ["run", name, *options, "--seed", "3", "--quiet"]
            assert main(args + ["--threads", "1", "--out", out1]) == 0
            assert main(args + ["--threads", "8", "--out", out2]) == 0
            with open(os.path.join(out1, f"{name}.json"), "rb") as fh:
                b1 = fh.read()
            with open(os.path.join(out2, f"{name}.json"), "rb") as fh:
                ok &= fh.read() == b1
            # and a second rerun at --threads 1 is byte-identical too
            assert main(args + ["--threads", "1", "--out", out2]) == 0
            with open(os.path.join(out2, f"{name}.json"), "rb") as fh:
                ok &= fh.read() == b1
    _report(10, "reports byte-identical across reruns and --threads 1 vs 8",
            ok, time.perf_counter() - t0, 60)
