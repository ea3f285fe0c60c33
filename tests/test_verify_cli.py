import argparse
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mongeval import algebra, cli, convex, hessian, valuation, verify
from mongeval.cli import ConfigError, main, validate_config
from mongeval.verify import (
    EXPERIMENTS,
    ExperimentReport,
    continuity,
    kernel_laplacian,
    linear_invariance,
    parity_break,
    run_experiment,
    valuation_identity,
    volume_identity,
)
from references import expected, observed


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_pass_iff_within_tolerance():
    ok = ExperimentReport("x", {}, [("a", 1.0, 1.0, 0.0), ("b", 0.5, 0.4, 0.2)])
    assert ok.passed
    bad = ExperimentReport("x", {}, [("a", 1.0, 0.0, 0.5)])
    assert not bad.passed
    assert bad.canonical()["checks"][0]["pass"] is False
    assert observed(ok) == [1.0, 0.5] and expected(ok) == [1.0, 0.4]
    # a NaN observation is outside every tolerance, in all three readings
    nan = ExperimentReport("x", {}, [("a", 1.0, 1.0, 0.0), ("n", float("nan"), 0.0, 1.0)])
    assert not nan.passed and nan.verdicts == [True, False]
    assert [c["pass"] for c in nan.canonical()["checks"]] == [True, False]
    assert nan.canonical()["passed"] is False
    lines = nan.summary_lines()
    assert [line.split(":")[0] for line in lines] == ["[FAIL] x", "  ok  a", "  FAIL n"]


# ---------------------------------------------------------------------------
# experiments (reduced sizes for speed; full sizes run in acceptance)
# ---------------------------------------------------------------------------

def test_parity_break_defaults():
    rep = parity_break(dim=3, degree=1)
    assert rep.passed
    obs = dict(zip([c[0] for c in rep.checks], observed(rep)))
    assert abs(obs["phi(K) via atom weights"] - 1 / 3) <= 0.01 / 3
    assert abs(obs["phi(-K) via atom weights"] - 2 / 3) <= 0.02 / 3


def test_parity_break_degree_two():
    rep = parity_break(dim=3, degree=2, widths=(0.2, 0.1))
    assert rep.passed
    assert abs(observed(rep)[1] - 4 / 3) <= 0.04 / 3


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_parity_break_in_4d(degree):
    assert parity_break(dim=4, degree=degree).passed


def test_parity_break_rejects_bad_degree():
    with pytest.raises(ValueError):
        parity_break(dim=3, degree=3)


def test_volume_identity_named_cube():
    rep = volume_identity(body="cube3")
    assert rep.passed
    assert np.isclose(rep.details["volumes"][0], 1.0)


def test_cli_volume_identity_on_the_simplex_exits_zero(tmp_path, capsys):
    # the simplex's kinks have non-axis normals; the grid route must still
    # recover B(0) vol within the 2% gate
    code = main(["run", "volume-identity", "--body", "simplex3", "--b-height", "2.5",
                 "--seed", "3", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    with open(tmp_path / "volume-identity.json") as fh:
        assert all(check["pass"] for check in json.load(fh)["checks"])


def test_volume_identity_scaled_body_is_cubic():
    from mongeval.convex import PLConvexFunction, random_shell_polytope
    from mongeval.valuation import BumpWeight, pl_valuation

    K = random_shell_polytope(np.random.default_rng(0))
    weight = BumpWeight(np.zeros(3), 0.45, 1.0, plateau=0.7)
    v1 = pl_valuation(weight, PLConvexFunction.from_polytope_support(K))
    v2 = pl_valuation(weight, PLConvexFunction.from_polytope_support(K.scale(2.0)))
    assert np.isclose(v2, 8.0 * v1, rtol=1e-9)


def test_continuity_small():
    rep = continuity(sigmas_cells=(6.0, 3.0, 1.5), resolution=32)
    assert rep.passed
    gaps = rep.details["gaps"]
    assert gaps[-1] <= 0.02


def test_continuity_rejects_subcell_sigma():
    with pytest.raises(ValueError):
        continuity(sigmas_cells=(2.0, 0.5))


def test_linear_invariance_single_field():
    rep = linear_invariance(fields="R", trials=10)
    assert rep.passed
    assert rep.details["R"]["worst_relative"] <= 1e-9


def test_linear_shift_rows_do_not_depend_on_the_batch_length():
    # the stencil sends f 289 rows per O2 node and blocks of other lengths;
    # the gemv x @ ell rounded the first k rows of a 513-row batch
    # differently at k = 2, 3, 7 and 289 on these rows
    rng = np.random.default_rng(3)
    x, ell = rng.uniform(-1.0, 1.0, (513, 16)), rng.uniform(-1.0, 1.0, 16)
    shifted = verify._plus_linear(lambda y: np.zeros(len(y)), ell)
    full = shifted(x)
    for k in (1, 2, 3, 7, 289):
        assert shifted(x[:k]).tobytes() == full[:k].tobytes()


def test_valuation_identity_O2_only():
    rep = valuation_identity(fields="O2", n_pairs=4)
    assert rep.passed
    assert max(rep.details["O2"]["residuals"]) <= 1e-6
    assert rep.details["O2"]["control_residual"] > 1e-3


def _array_margin(xi, u, s, t):
    """The sliced ball's interface margin on the rows of xi, as the array
    formula ``ball_slab_support`` kept before its margin took floats, on
    the direction it normalized itself."""
    r = np.linalg.norm(xi, axis=-1)
    c = (xi @ (u / np.linalg.norm(u))) / np.where(r > 0, r, 1.0)
    return np.minimum(np.abs(c - t), np.abs(c - s))


def _gemv_support(h):
    """A sliced-ball support as its callable evaluated stacks before it took
    <xi, u> as a row sum: the closed form on |xi| and ``xi @ direction``,
    one gemv over the stack, as the probe identity still projects."""
    return lambda xi: h.closed_form(np.linalg.norm(xi, axis=-1), xi @ h.direction)


def _per_body_probe_residuals_o2(n_pairs, rng):
    """The O2 probe identity as it ran before one stencil served a pair:
    one ``fd_hessian_batch``, ``assemble_structured`` and determinant call
    per body, each support through its own callable (``_gemv_support``),
    and each candidate probe normalized and kept by the array formulas on
    ``xi[None]``.  The reference for the one-stencil loop and its float
    margin."""
    residuals = []
    control = 0.0
    for pair in range(n_pairs):
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        s = rng.uniform(-0.45, -0.1)
        t = rng.uniform(0.1, 0.45)
        hA, hB, hAB = (_gemv_support(convex.ball_slab_support(u, lo, hi))
                       for lo, hi in ((-1.0, t), (s, 1.0), (s, t)))
        hK = lambda xi: np.linalg.norm(np.asarray(xi, dtype=float), axis=-1)
        probes = []
        while len(probes) < 6:
            xi = rng.standard_normal(16)
            xi *= rng.uniform(0.8, 1.4) / np.linalg.norm(xi)
            if _array_margin(xi[None], u, s, t)[0] > 0.2:
                probes.append(xi)
        probes = np.array(probes)
        degree = 2 if pair % 2 == 0 else 1
        weight = None if degree == 2 else verify._random_o2_hermitian(rng)
        hess = {}
        for name, h in (("A", hA), ("B", hB), ("K", hK), ("AB", hAB)):
            hreal = hessian.fd_hessian_batch(h, probes, step=2e-4,
                                             entries=hessian._field_entries(16, 8))
            hess[name] = hessian.assemble_structured("O2", hreal)
        if degree == 2:
            dets = {k: algebra.det_batch("O2", v) for k, v in hess.items()}
        else:
            dets = {k: algebra.polarized_det_batch("O2", [v, weight]) for k, v in hess.items()}
        resid = dets["K"] + dets["AB"] - dets["A"] - dets["B"]
        scale = np.maximum(1e-30, np.max(np.abs(np.stack(list(dets.values()))), axis=0))
        residuals.extend((np.abs(resid) / scale).tolist())
        cpts = np.vstack([probes, 1.2 * u, -1.2 * u])
        sums = {k: float(np.sum(h(cpts))) for k, h in
                (("A", hA), ("B", hB), ("K", hK), ("AB", hAB))}
        defect = sums["K"] ** 2 + sums["AB"] ** 2 - sums["A"] ** 2 - sums["B"] ** 2
        control = max(control, abs(defect) / max(s**2 for s in sums.values()))
    return residuals, control


def test_o2_probe_identity_has_the_bits_of_one_stencil_per_body():
    # one stencil, one norm and one projection per pair, and one formation,
    # assembly and determinant pass on the four bodies' 24 Hessians: the
    # residuals and the control keep the per-body route's bits
    for seed in range(200):  # pairs of degree 2 and 1
        got = verify._identity_probe_residuals_o2(2, np.random.default_rng(seed))
        ref = _per_body_probe_residuals_o2(2, np.random.default_rng(seed))
        assert np.array(got[0]).tobytes() == np.array(ref[0]).tobytes(), seed
        assert got[1] == ref[1], seed
    rep = valuation_identity(fields="O2", n_pairs=20, seed=105)
    residuals, control = _per_body_probe_residuals_o2(20, np.random.default_rng(105))
    assert np.array(rep.details["O2"]["residuals"]).tobytes() == np.array(residuals).tobytes()
    assert rep.details["O2"]["control_residual"] == control


def test_o2_probe_pairs_start_with_their_three_supports(monkeypatch):
    # perfbench's Recorder.o2_pairs splits pairs on these triples: each
    # pair makes three ball_slab_support calls, all before it samples a
    # probe, and builds one stencil; no per-body fd_hessian_batch is left
    events = []
    make = convex.ball_slab_support

    def counted(*args):
        events.append("S")
        h = make(*args)
        margin = h.interface_margin
        h.interface_margin = lambda r, p: events.append("P") or margin(r, p)
        return h

    build = verify._stencil_points
    monkeypatch.setattr(convex, "ball_slab_support", counted)
    monkeypatch.setattr(verify, "_stencil_points",
                        lambda *args: events.append("H") or build(*args))
    monkeypatch.setattr(verify, "fd_hessian_batch", None)
    verify._identity_probe_residuals_o2(5, np.random.default_rng(3))
    pairs = re.sub("P+", "P", "".join(events))
    assert pairs == "SSSPH" * 5, pairs


def test_o2_probe_identity_refuses_a_nan_support_in_the_stencil(monkeypatch):
    # negative control: the one finiteness check of the stacked values
    # still sees each body's column, here one NaN in AB's stencil values
    make = convex.ball_slab_support

    def poisoned(u, s, t):
        h = make(u, s, t)
        if s > -1.0 and t < 1.0:  # AB, the one body cut on both sides
            closed = h.closed_form

            def nan_at_one_point(r, p):
                out = closed(r, p)
                if out.size > 8:  # the stencil, not the control's 8 points
                    out[out.size // 2] = np.nan
                return out

            h.closed_form = nan_at_one_point
        return h

    monkeypatch.setattr(convex, "ball_slab_support", poisoned)
    with pytest.raises(FloatingPointError, match="stencil"):
        verify._identity_probe_residuals_o2(1, np.random.default_rng(0))


def test_valuation_identity_R_small():
    rep = valuation_identity(fields="R", n_pairs=3)
    assert rep.passed
    assert rep.details["R"]["control_residual"] > 0.06


@pytest.mark.parametrize("field,calls", [("R", 7), ("C", 8)])
def test_identity_evaluates_each_body_once(field, calls, monkeypatch):
    # R's union body is the control's centred cube, whose value is reused;
    # C's union body is a random polytope, so its control cube is evaluated
    seen = []
    body_valuation = verify.body_valuation

    def recording(spec, K, *args, **kwargs):
        seen.append(K.vertices)
        return body_valuation(spec, K, *args, **kwargs)

    monkeypatch.setattr(verify, "body_valuation", recording)
    residuals, control = verify._identity_grid_residuals(field, 1, np.random.default_rng(3))
    assert len(seen) == calls
    assert not any(np.array_equal(a, b) for k, a in enumerate(seen) for b in seen[:k])
    assert residuals[0] <= 0.02 < control / 3


def test_quartic_squared_twice_matches_the_power():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.5, 1.5, (200, 4))
    fn = verify._quad_plus_quartic(np.eye(4), 0.15)
    ref = 0.5 * np.sum(x * x, axis=-1) + 0.15 * np.sum((x - 0.1) ** 4, axis=-1)
    assert np.allclose(fn(x), ref, rtol=4 * np.finfo(float).eps, atol=0.0)
    # a general q: the quadratic form is one BLAS product, against the
    # three-operand einsum it replaced (3 ulp apart at most on these rows)
    m = rng.standard_normal((4, 4))
    q = m @ m.T + 0.5 * np.eye(4)
    fn = verify._quad_plus_quartic(q, 0.15)
    ref = 0.5 * np.einsum("...i,ij,...j->...", x, q, x) + 0.15 * np.sum((x - 0.1) ** 4, axis=-1)
    assert np.allclose(fn(x), ref, rtol=8 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("d", [3, 4, 16])
def test_quartic_row_sum_keeps_the_bits_of_numpys_sum(d):
    # the quartic's sum is _row_sums, against the np.sum it replaced
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d, d))
    q = m @ m.T + 0.5 * np.eye(d)
    fn = verify._quad_plus_quartic(q, 0.15)
    x = rng.uniform(-1.5, 1.5, (6336, d))
    for pts in (x, x[0]):
        t = (pts - 0.1) ** 2
        t *= t
        ref = 0.5 * np.einsum("...i,...i->...", pts @ q, pts) + 0.15 * np.sum(t, axis=-1)
        assert fn(pts).tobytes() == ref.tobytes()


def test_bump4_keeps_the_bits_of_numpys_sum():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.6, 0.6, (20000, 3))
    for pts, center, radius in ((x, 0.0, 0.45), (x[2], 0.0, 0.45), (x, x[1], 0.3)):
        r2 = np.sum(((pts - center) / radius) ** 2, axis=-1)
        ref = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 4, 0.0)
        got = verify._bump4(pts, center, radius)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_kernel_laplacian_small():
    rep = kernel_laplacian(eps_schedule=(1e-2, 5e-3), resolution=24)
    ratios = rep.details["ratios"]
    assert all(1.5 <= r <= 2.5 for r in ratios)
    assert rep.details["independence_ratio"] > 0.01


def _recording(monkeypatch, name):
    """The row counts of each call of ``verify.<name>`` from here on."""
    rows, route = [], getattr(verify, name)

    def recording(f, points, *args, **kwargs):
        rows.append(len(points))
        return route(f, points, *args, **kwargs)

    monkeypatch.setattr(verify, name, recording)
    return rows


def test_kernel_laplacian_differences_psi_in_blocks(monkeypatch):
    # psi's Hessians on every fifth node (22,119 at 48) and the reference
    # Laplacian on every node (13,824 at 24) run in 8,192-node blocks, with
    # the bits of one call on all the nodes
    hessians = _recording(monkeypatch, "fd_hessian_batch")
    nodes = valuation.Grid.cube(np.zeros(3), 0.5, 48, 3).nodes()[::5]
    *_, min_eig = verify.perturbation_schedule((1e-2, 5e-3), 48, 0, 1)
    assert hessians == [8192, 8192, len(nodes) - 2 * 8192]
    whole = hessian.fd_hessian_batch(verify._bump4, nodes)
    assert min_eig == float(np.min(np.linalg.eigvalsh(np.eye(3) + 1e-2 * whole)))

    laplacians = _recording(monkeypatch, "fd_laplacian_batch")
    rep = kernel_laplacian(eps_schedule=(1e-2, 5e-3), resolution=24)
    grid = valuation.Grid.cube(np.zeros(3), 0.5, 24, 3)
    nodes = grid.nodes()
    assert laplacians == [8192, len(nodes) - 8192]
    weight = valuation.BumpWeight(np.zeros(3), 0.45, 1.0)
    whole = hessian.fd_laplacian_batch(verify._bump4, nodes)
    reference = float(np.sum(weight(nodes) * whole) * grid.cell_volume)
    assert rep.details["reference"].hex() == reference.hex()


def test_run_experiment_unknown_name():
    with pytest.raises(KeyError):
        run_experiment("nope")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_writes_report(tmp_path, capsys):
    out = str(tmp_path / "reports")
    code = main(["run", "parity-break", "--dim", "3", "--degree", "1", "--out", out])
    assert code == 0
    with open(os.path.join(out, "parity-break.json")) as fh:
        doc = json.load(fh)
    assert doc["passed"] is True
    obs = [c["observed"] for c in doc["checks"][:2]]
    assert abs(obs[0] - 1 / 3) < 0.01 and abs(obs[1] - 2 / 3) < 0.01


def test_cli_unknown_experiment(tmp_path, capsys):
    assert main(["run", "nonsense", "--out", str(tmp_path)]) == 2


def test_cli_option_for_wrong_experiment(tmp_path, capsys):
    code = main(["run", "continuity", "--degree", "2", "--out", str(tmp_path)])
    assert code == 2


def test_cli_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MONGEVAL_OUT", str(tmp_path / "envout"))
    code = main(["run", "parity-break", "--quiet"])
    assert code == 0
    assert (tmp_path / "envout" / "parity-break.json").exists()


@pytest.mark.parametrize("via", ["flag", "env"])
def test_cli_unusable_output_dir_exits_two_before_computing(tmp_path, capsys, monkeypatch, via):
    # a regular file on the path used to raise NotADirectoryError with a
    # traceback after the whole experiment had run
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    argv = ["run", "valuation-identity", "--fields", "R", "--pairs", "2"]
    if via == "flag":
        argv += ["--out", out]
    else:
        monkeypatch.setenv("MONGEVAL_OUT", out)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: cannot create output directory {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_cli_read_only_output_dir_exits_two_before_computing(tmp_path, capsys, monkeypatch):
    # mode bits do not bind root, so the access check itself is stubbed
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    assert main(["run", "parity-break", "--out", str(tmp_path)]) == 2
    assert (capsys.readouterr().err
            == f"invalid config: output directory {tmp_path} is not writable\n")


def test_cli_threads_byte_identical_reports(tmp_path, monkeypatch):
    # kernel-laplacian's stencil route runs in several blocks, and its
    # report has the same bytes at --threads 1 and 2: the experiment's
    # check reads ``threads`` and no layer below it takes one
    blocks = []
    chunked_apply = valuation.chunked_apply

    def recording(fn, points):
        blocks.append(-(-len(points) // valuation._CHUNK_ROWS))
        return chunked_apply(fn, points)

    monkeypatch.setattr(valuation, "chunked_apply", recording)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "kernel-laplacian", "--threads", "1", "--out", out1, "--quiet"]) == 0
    assert main(["run", "kernel-laplacian", "--threads", "2", "--out", out2, "--quiet"]) == 0
    assert max(blocks) >= 2
    with open(os.path.join(out1, "kernel-laplacian.json"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "kernel-laplacian.json"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


@pytest.mark.parametrize("name,option", [("continuity", "seed"), ("continuity", "threads"),
                                         ("volume-identity", "threads"),
                                         ("volume-identity", "bodies")])
def test_cli_option_an_experiment_does_not_read_exits_two(tmp_path, capsys, name, option):
    # no experiment takes --bodies (volume-identity draws ten shells), so
    # the parser itself rejects it
    value = {"seed": "3", "bodies": "7"}.get(option, "2")
    out = str(tmp_path / "r")
    try:
        code = main(["run", name, f"--{option}", value, "--out", out])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert (f"option '{option}' does not apply to {name}" in err
            or option == "bodies" and "unrecognized arguments: --bodies 7" in err)
    assert not os.path.exists(out)


def test_cli_validate_config(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"experiment": "parity-break", "dim": 3, "degree": 2}))
    assert main(["validate-config", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "parity-break", "degree": 5}))
    assert main(["validate-config", str(bad)]) == 2

    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["validate-config", str(junk)]) == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 3, "degree": 1, "widths": [0.2, 0.1]}))
    out = str(tmp_path / "r")
    code = main(["run", "parity-break", "--config", str(cfg), "--degree", "2",
                 "--out", out, "--quiet"])
    assert code == 0
    with open(os.path.join(out, "parity-break.json")) as fh:
        doc = json.load(fh)
    assert doc["parameters"]["degree"] == 2


def test_validate_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        validate_config("valuation-identity", {"fields": ["R", "X"]})
    with pytest.raises(ConfigError):
        validate_config("continuity", {"resolution": -4})
    with pytest.raises(ConfigError):
        validate_config("nope", {})


def test_cli_failing_experiment_exits_one(tmp_path, monkeypatch):
    # an impossible tolerance forces a clean failure path
    from mongeval import verify as v

    def fake(dim=3, degree=1, widths=(0.3, 0.15, 0.075), seed=0, threads=1):
        return ExperimentReport("parity-break", {}, [("x", 1.0, 0.0, 0.1)])

    monkeypatch.setitem(v.EXPERIMENTS, "parity-break", (fake, lambda **_: None, "doc"))
    code = main(["run", "parity-break", "--out", str(tmp_path), "--quiet"])
    assert code == 1
    with open(os.path.join(tmp_path, "parity-break.json")) as fh:
        assert json.load(fh)["passed"] is False


def test_continuity_rejects_increasing_schedule():
    with pytest.raises(ValueError, match="strictly decrease"):
        continuity(sigmas_cells=(1.5, 3.0, 6.0), resolution=8)


@pytest.mark.parametrize("sigmas", ["1.5,3,6", "0.5"])
def test_cli_bad_sigma_schedule_is_config_error(tmp_path, capsys, sigmas):
    code = main(["run", "continuity", "--sigmas", sigmas, "--out", str(tmp_path)])
    assert code == 2
    assert "smoothing schedule" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "continuity.json"))


@pytest.mark.parametrize("entry,key", [({"resolution": "abc"}, "resolution"),
                                       ({"sigmas": 5}, "sigmas")])
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_cli_config_type_error_exits_two(tmp_path, capsys, entry, key, command):
    # text that does not parse is the CLI's type error; a bare number for
    # a list option is no text, so it reaches continuity's check
    message = {"resolution": "resolution has the wrong type",
               "sigmas": "sigmas_cells must be a list of finite numbers, got 5"}[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "continuity", **entry}))
    if command == "run":
        argv = ["run", "continuity", "--config", str(cfg), "--out", str(tmp_path / "r")]
    else:
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")

# one bad input per rule of each registry check: (experiment, config keyed
# by flag name, part of the message)
_CHECK_RULES = {
    "valuation-identity-unknown-field": ("valuation-identity", {"fields": ["O2", "X"]},
                                         "unknown fields ['X']; choose from R, C, H, O2"),
    "valuation-identity-no-field": ("valuation-identity", {"fields": []},
                                    "fields must not be empty"),
    # integer minimums: n_pairs=0 raised "max() arg is an empty sequence"
    # after the union valuation, trials=0 returned a FAIL report, and a
    # negative seed raised numpy's message after the check
    "valuation-identity-no-pair": ("valuation-identity", {"pairs": 0},
                                   "n_pairs must be at least 1, got 0"),
    "valuation-identity-negative-seed": ("valuation-identity", {"seed": -1},
                                         "seed must be at least 0, got -1"),
    "valuation-identity-no-thread": ("valuation-identity", {"threads": 0},
                                     "threads must be at least 1, got 0"),
    "linear-invariance-unknown-field": ("linear-invariance", {"fields": ["R", "X"]},
                                        "unknown fields ['X']; choose from R, C, H, O2"),
    "linear-invariance-no-field": ("linear-invariance", {"fields": []},
                                   "fields must not be empty"),
    "linear-invariance-no-trial": ("linear-invariance", {"trials": 0},
                                   "trials must be at least 1, got 0"),
    "linear-invariance-negative-seed": ("linear-invariance", {"seed": -2},
                                        "seed must be at least 0, got -2"),
    "linear-invariance-no-thread": ("linear-invariance", {"threads": -1},
                                    "threads must be at least 1, got -1"),
    "continuity-one-width": ("continuity", {"sigmas": [3.0]}, "at least two widths"),
    "continuity-subcell": ("continuity", {"sigmas": [2.0, 0.5]}, "sigma < 1 cell"),
    "continuity-increasing": ("continuity", {"sigmas": [1.5, 3.0, 6.0]}, "strictly decrease"),
    "continuity-no-resolution": ("continuity", {"resolution": 0},
                                 "resolution must be at least 1, got 0"),
    # run sizes: widths of 1e9 cells made _gaussian_kernels build a 64 GB
    # offset array, and a resolution of 10^6 a 10^18-cell grid
    "continuity-wide-sigma": ("continuity", {"sigmas": [1e9, 1e8]},
                              "sigma 1000000000.0 samples more than 160 points per axis"),
    "continuity-large-resolution": ("continuity", {"resolution": 1_000_000},
                                    "resolution 1000000 with sigma 12.0 samples more than 160"),
    "kernel-laplacian-one-eps": ("kernel-laplacian", {"eps": [0.01]}, "at least two eps"),
    "kernel-laplacian-no-eps": ("kernel-laplacian", {"eps": []}, "at least two eps"),
    "kernel-laplacian-negative-eps": ("kernel-laplacian", {"eps": [-0.01, -0.005]},
                                      "eps values > 0, got [-0.01, -0.005]"),
    "kernel-laplacian-nonconvex": ("kernel-laplacian", {"eps": [5.0, 1.0], "resolution": 8},
                                   "f_eps is not convex at eps=5.0"),
    "kernel-laplacian-no-resolution": ("kernel-laplacian", {"resolution": 0},
                                       "resolution must be at least 1, got 0"),
    "kernel-laplacian-large-resolution": ("kernel-laplacian", {"resolution": 1_000_000},
                                          "resolution 1000000 is above 96"),
    "kernel-laplacian-negative-seed": ("kernel-laplacian", {"seed": -1},
                                       "seed must be at least 0, got -1"),
    "kernel-laplacian-no-thread": ("kernel-laplacian", {"threads": 0},
                                   "threads must be at least 1, got 0"),
    "parity-break-dim": ("parity-break", {"dim": 6}, "dim 6 is above 5"),
    "parity-break-degree": ("parity-break", {"dim": 3, "degree": 9}, "degree out of range 1..2"),
    "parity-break-no-width": ("parity-break", {"widths": []},
                              "widths must be one or more positive numbers, got []"),
    "parity-break-negative-width": ("parity-break", {"widths": [0.3, -0.1]},
                                    "widths must be one or more positive numbers"),
    "parity-break-no-thread": ("parity-break", {"threads": 0},
                               "threads must be at least 1, got 0"),
    "volume-identity-body": ("volume-identity", {"body": "nosuch"},
                             "unknown body 'nosuch'; choose from cube3, ccube3, simplex3"),
    "volume-identity-negative-seed": ("volume-identity", {"seed": -1},
                                      "seed must be at least 0, got -1"),
    # a whole-number argument that is not an int: parity_break ran on
    # int(3.6) and int(1.9) and reported dim 3 and degree 1, kernel-laplacian
    # reported resolution 32 for 32.5, continuity raised only after its
    # exact PL reference, n_pairs=2.5 raised TypeError after the union
    # valuation (and True ran one pair), and seed 0.5 raised in numpy
    "parity-break-fractional-dim": ("parity-break", {"dim": 3.6},
                                    "dim must be a whole number, got 3.6"),
    "parity-break-fractional-degree": ("parity-break", {"degree": 1.9},
                                       "degree must be a whole number, got 1.9"),
    "parity-break-small-dim": ("parity-break", {"dim": 1}, "dim must be at least 2, got 1"),
    "kernel-laplacian-fractional-resolution": ("kernel-laplacian", {"resolution": 32.5},
                                               "resolution must be a whole number, got 32.5"),
    "continuity-fractional-resolution": ("continuity", {"resolution": 48.5},
                                         "resolution must be a whole number, got 48.5"),
    "valuation-identity-fractional-pairs": ("valuation-identity", {"pairs": 2.5},
                                            "n_pairs must be a whole number, got 2.5"),
    "valuation-identity-fractional-threads": ("valuation-identity",
                                              {"fields": "O2", "threads": 1.5},
                                              "threads must be a whole number, got 1.5"),
    "volume-identity-fractional-seed": ("volume-identity", {"seed": 0.5},
                                        "seed must be a whole number, got 0.5"),
    # parity_break does not read its seed, and no check held it: a NaN seed
    # ran the experiment and wrote a bare NaN, which is not JSON
    "parity-break-nan-seed": ("parity-break", {"seed": _NAN},
                              "seed must be a whole number, got nan"),
    "parity-break-negative-seed": ("parity-break", {"seed": -1},
                                   "seed must be at least 0, got -1"),
    # a number that is not finite: an infinite eps raised LinAlgError, a NaN
    # sigma passed the check and raised in eval_valuation after the PL
    # reference, and the CLI's own finite rule held for no library call
    "kernel-laplacian-infinite-eps": (
        "kernel-laplacian", {"eps": [_INF, 5e-3]},
        "eps_schedule must be a list of finite numbers, got [inf, 0.005]"),
    "continuity-nan-sigma": ("continuity", {"sigmas": [_NAN, 2.0]},
                             "sigmas_cells must be a list of finite numbers, got [nan, 2.0]"),
    "parity-break-bool-width": ("parity-break", {"widths": [True]},
                                "widths must be a list of finite numbers, got [True]"),
    # fields that are neither a str nor a list raised TypeError
    "valuation-identity-number-fields": ("valuation-identity", {"fields": 5},
                                         "fields must be a str or a list of them, got 5"),
    "linear-invariance-null-fields": ("linear-invariance", {"fields": None},
                                      "fields must be a str or a list of them, got None"),
}

# flag name -> parameter name, where they differ
_PARAMS = {flag: param for param, flag in cli._FLAG_NAMES.items()}


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


# rules whose JSON value no flag text gives: "2.5" for an int flag and
# "nan" for the seed are the CLI's type error, "True" for --widths too, and
# "5" or "None" for --fields is a field name
_CONFIG_ONLY = {
    "parity-break-fractional-dim", "parity-break-fractional-degree",
    "continuity-fractional-resolution", "kernel-laplacian-fractional-resolution",
    "valuation-identity-fractional-pairs", "valuation-identity-fractional-threads",
    "volume-identity-fractional-seed", "parity-break-nan-seed", "parity-break-bool-width",
    "valuation-identity-number-fields", "linear-invariance-null-fields",
}


def test_check_rules_cover_every_check():
    assert {name for name, _config, _msg in _CHECK_RULES.values()} == set(EXPERIMENTS)
    assert _CONFIG_ONLY <= set(_CHECK_RULES)


def _forbid_computing(monkeypatch):
    """Fail the test if anything is valued or an experiment is run; the O2
    identity probes build their stencil through _stencil_points, and
    fd_hessian_batch is refused for all but Hess(psi), which
    kernel-laplacian's check calls."""
    for fn in ("eval_valuation", "body_valuation", "pl_valuation", "_stencil_points"):
        monkeypatch.setattr(verify, fn, lambda *a, **kw: pytest.fail("computed"))
    fd_hessian_batch = verify.fd_hessian_batch
    monkeypatch.setattr(verify, "fd_hessian_batch", lambda f, *a, **kw: (
        fd_hessian_batch(f, *a, **kw) if f is verify._bump4 else pytest.fail("computed")))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))


@pytest.mark.parametrize("rule", sorted(_CHECK_RULES))
def test_check_rule_fails_the_same_everywhere(tmp_path, capsys, monkeypatch, rule):
    # a rule that only the CLI knew let a library call run until it failed
    # (kernel_laplacian(eps_schedule=(0.01,)) raised IndexError after every
    # valuation), and one that only the library knew passed validate-config
    name, config, message = _CHECK_RULES[rule]
    _forbid_computing(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        EXPERIMENTS[name][0](**{_PARAMS.get(k, k): v for k, v in config.items()})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": name, **config}))
    out = str(tmp_path / "r")
    argvs = [["validate-config", str(cfg)], ["run", name, "--config", str(cfg), "--out", out]]
    if rule not in _CONFIG_ONLY:
        # --eps=-0.01,... keeps argparse from reading the value as a flag
        argvs.append(["run", name, *[f"--{k.replace('_', '-')}={_flag_text(v)}"
                                     for k, v in config.items()], "--out", out])
    for argv in argvs:
        assert main(argv) == 2
        assert f"invalid config: {exc.value}\n" in capsys.readouterr().err
    assert not os.path.exists(out)


_TAKES_THREADS = sorted(name for name, (fn, *_rest) in EXPERIMENTS.items()
                        if "threads" in inspect.signature(fn).parameters)
_BAD_THREADS = {0: "at least 1, got 0", -3: "at least 1, got -3",
                2.5: "a whole number, got 2.5", True: "a whole number, got True",
                "2": "a whole number, got '2'", None: "a whole number, got None"}


def test_the_experiments_that_take_threads_are_pinned():
    assert _TAKES_THREADS == ["kernel-laplacian", "linear-invariance", "parity-break",
                              "valuation-identity"]


@pytest.mark.parametrize("threads", list(_BAD_THREADS), ids=repr)
@pytest.mark.parametrize("name", _TAKES_THREADS)
def test_an_experiment_refuses_a_bad_thread_count_before_computing(name, threads, monkeypatch):
    # the experiments are the one layer that takes a thread count, so each
    # holds the rule eval_valuation held: there 0, -3, 2.5 and True gave
    # the value of 1, and "2" and None a TypeError inside chunked_apply
    _forbid_computing(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"threads must be {_BAD_THREADS[threads]}")):
        EXPERIMENTS[name][0](threads=threads)


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_cli_unknown_body_exits_two(tmp_path, capsys, command):
    if command == "run":
        argv = ["run", "volume-identity", "--body", "nosuch", "--out", str(tmp_path)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "volume-identity", "body": "nosuch"}))
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown body 'nosuch'" in err
    assert all(name in err for name in ("cube3", "ccube3", "simplex3"))
    assert not os.path.exists(os.path.join(tmp_path, "volume-identity.json"))


def test_validate_config_accepts_named_bodies():
    for name in ("cube3", "ccube3", "simplex3"):
        assert validate_config("volume-identity", {"body": name})["body"] == name
    with pytest.raises(ConfigError, match="unknown body"):
        validate_config("volume-identity", {"body": ["cube3"]})


def test_validate_config_splits_string_fields_on_commas():
    assert validate_config("valuation-identity", {"fields": "O2"})["fields"] == ["O2"]
    assert validate_config("valuation-identity", {"fields": "R, C"})["fields"] == ["R", "C"]
    with pytest.raises(ConfigError, match="unknown fields"):
        validate_config("valuation-identity", {"fields": "RC"})


@pytest.mark.parametrize("fields,code", [("O2", 0), ("R,O2", 0), ("RC", 2)])
def test_cli_string_fields_in_config(tmp_path, capsys, fields, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "valuation-identity", "fields": fields}))
    assert main(["validate-config", str(cfg)]) == code


def _run_flags():
    parser = cli._build_parser(cli._options())
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices["run"]._actions for s in a.option_strings} - {"-h", "--help"}


def test_cli_run_flags_are_pinned():
    # the flags come from the experiment signatures; a parameter that is
    # added, renamed or removed there must show up here
    assert _run_flags() == {
        "--fields", "--pairs", "--trials", "--dim", "--degree", "--widths", "--sigmas",
        "--eps", "--resolution", "--body", "--b-height", "--seed", "--threads",
        "--config", "--out", "--quiet",
    }


def test_cli_help_names_the_experiments_of_each_flag(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "for continuity, kernel-laplacian" in out  # --resolution
    assert "for volume-identity" in out and "cube3, ccube3, simplex3" in out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_negative_seed_exits_two(tmp_path, capsys, source):
    out = str(tmp_path / "r")
    if source == "flag":
        argv = ["run", "volume-identity", "--body", "cube3", "--seed", "-1", "--out", out]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "volume-identity", "body": "cube3", "seed": -1}))
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_nonconvex_perturbation_exits_two(tmp_path, capsys, monkeypatch, source):
    # eps = 5 makes |x|^2/2 + eps psi non-convex on the 8-cell grid; this is
    # a config error, caught before any valuation runs
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    out = str(tmp_path / "r")
    if source == "flag":
        argv = ["run", "kernel-laplacian", "--eps", "5,1", "--resolution", "8", "--out", out]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "kernel-laplacian", "eps": [5, 1],
                                   "resolution": 8}))
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert "invalid config: f_eps is not convex at eps=5.0" in capsys.readouterr().err
    assert not os.path.exists(out)
    with pytest.raises(ValueError, match="not convex"):
        kernel_laplacian(eps_schedule=(5.0, 1.0), resolution=8)


_WRONG = [(name, key, value, None)
          for name, key in (("continuity", "resolution"), ("valuation-identity", "pairs"),
                            ("volume-identity", "seed"))
          for value in (2.7, 3.0, True, False, "2.7")]


@pytest.mark.parametrize("name,key,value,kwargs", [
    ("continuity", "resolution", "24", {"resolution": 24}),
    ("volume-identity", "seed", 0, {"seed": 0}),
    ("continuity", "sigmas", [4, 2], {"sigmas_cells": [4.0, 2.0]}),
    ("valuation-identity", "pairs", 3, {"n_pairs": 3}),
    *_WRONG,
])
def test_config_options_by_flag_or_parameter_name(tmp_path, capsys, name, key, value, kwargs):
    # int options take int strings (as flags give them); a string that does
    # not parse is the CLI's type error, and a float or a bool reaches the
    # check, whose whole-number rule names the parameter
    if kwargs is not None:
        assert validate_config(name, {key: value}) == kwargs
        return
    param = _PARAMS.get(key, key)
    message = (f"{key} has the wrong type" if isinstance(value, str) else
               f"{param} must be a whole number, got {value!r}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(name, {key: value})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": name, key: value}))
    assert main(["validate-config", str(cfg)]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


def _config_value(default):
    """A valid config entry for an option with this default."""
    if default is None:
        return "cube3"
    return list(default) if isinstance(default, tuple) else default


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_config_keys_are_the_flag_names(tmp_path, capsys, monkeypatch, name):
    # a config key is the option's flag name, as 'mongeval run --help' lists
    # it; a parameter name that differs from its flag is an unknown option
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    takes = {key: default for key, (default, names) in cli._options().items()
             if name in names}
    for key, default in takes.items():
        validate_config(name, {key: _config_value(default)})
    params = inspect.signature(EXPERIMENTS[name][0]).parameters
    assert len(takes) == len(params)  # one flag per parameter
    for param in [p for p in params if p not in takes]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": name,
                                   param: _config_value(params[param].default)}))
        assert main(["validate-config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"invalid config: option '{param}' does not apply to {name}; it takes " in err
        assert set(err.split("it takes ")[1].strip().split(", ")) == set(takes)


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_config_with_flag_and_parameter_name_exits_two(tmp_path, capsys, monkeypatch,
                                                        command):
    # both keys passed validation, and whichever came last set the pair count
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "valuation-identity", "pairs": 1, "n_pairs": 3}))
    out = str(tmp_path / "r")
    argv = (["validate-config", str(cfg)] if command == "validate-config" else
            ["run", "valuation-identity", "--config", str(cfg), "--out", out])
    assert main(argv) == 2
    assert ("option 'n_pairs' does not apply to valuation-identity; "
            "it takes fields, pairs, seed, threads") in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("name,key,flag,value", [
    ("continuity", "sigmas", "inf,3", [float("inf"), 3.0]),
    ("volume-identity", "b_height", "nan", float("nan")),
    ("parity-break", "widths", "nan", [float("nan")]),
    ("volume-identity", "b_height", "1e400", float("-inf")),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_non_finite_number_exits_two(tmp_path, capsys, monkeypatch, name, key, flag,
                                         value, source):
    # inf reached _gaussian_kernels as an OverflowError, and nan wrote a
    # bare NaN into the report, which is not JSON; the check names the
    # parameter (sigmas_cells for --sigmas)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    param = _PARAMS.get(key, key)
    form = "a list of finite numbers" if isinstance(value, list) else "a finite number"
    out = str(tmp_path / "r")
    if source == "flag":
        argv = ["run", name, "--" + key.replace("_", "-"), flag, "--out", out]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": name, key: value}))
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert f"invalid config: {param} must be {form}, got " in capsys.readouterr().err
    assert not os.path.exists(out)


# JSON values that an option's kind does not take, by ``cli._kind``
_BAD_VALUES = {"int": [None, True, 2.5, {}], "float": [_NAN, _INF, [1.0]], "floats": [5, [True]],
               "fields": [5], "body": [5, ["cube3"]]}


@pytest.mark.parametrize("name,param,value", [
    (name, p.name, value) for name in sorted(EXPERIMENTS)
    for p in cli._parameters(name).values()
    for value in _BAD_VALUES[cli._kind(p.default)]])
def test_every_option_rejects_what_its_kind_does_not_take(monkeypatch, name, param, value):
    # generated from the signatures, so a new experiment or option is
    # covered; a TypeError, IndexError or LinAlgError from a check fails
    # here instead of reaching the user as a traceback
    _forbid_computing(monkeypatch)
    with pytest.raises(ValueError):
        EXPERIMENTS[name][0](**{param: value})
    with pytest.raises(ConfigError):
        validate_config(name, {cli._FLAG_NAMES.get(param, param): value})


@pytest.mark.parametrize("name,kwargs", [
    ("valuation-identity", {"fields": "O2", "n_pairs": 1, "seed": 2, "threads": 1}),
    ("linear-invariance", {"fields": "R", "trials": 1, "seed": 2, "threads": 1}),
    ("continuity", {"sigmas_cells": (2.0, 1.5), "resolution": 16}),
    ("parity-break", {"dim": 3, "degree": 1, "widths": (0.3,), "seed": 2, "threads": 1}),
    ("volume-identity", {"body": "cube3", "seed": 2}),
    ("kernel-laplacian", {"eps_schedule": (1e-2, 5e-3), "resolution": 8, "seed": 2,
                          "threads": 1}),
])
def test_numpy_integer_arguments_report_as_ints(name, kwargs):
    # a check returns each whole number as an int, which the report copies:
    # kernel_laplacian(resolution=np.int64(32)) reported the numpy integer,
    # and json.dumps of its report raised after the whole computation
    rep = EXPERIMENTS[name][0](**{k: np.int64(v) if isinstance(v, int) else v
                                  for k, v in kwargs.items()})
    json.dumps(rep.canonical())
    ints = [v for v in rep.parameters.values() if isinstance(v, (int, np.integer))]
    assert ints and all(type(v) is int for v in ints)


@pytest.mark.parametrize("experiment", [["continuity"], {"a": 1}, 3])
def test_cli_experiment_that_is_not_a_name_exits_two(tmp_path, capsys, experiment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment}))
    assert main(["validate-config", str(cfg)]) == 2
    assert f"unknown experiment {experiment!r}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_parity_break_dim_above_five_exits_two(tmp_path, capsys, monkeypatch, source):
    # each width differences a 12^dim-cell grid, whose Hessians alone take
    # 14 GB at dim 7; nothing may run
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ConfigError, match="dim 6 is above 5"):
        validate_config("parity-break", {"dim": 6})
    assert validate_config("parity-break", {"dim": 5}) == {"dim": 5}
    out = str(tmp_path / "r")
    if source == "flag":
        argv = ["run", "parity-break", "--dim", "6", "--out", out]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "parity-break", "dim": 6, "degree": 2}))
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert "invalid config: dim 6 is above 5" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_size_bounds_accept_their_edge():
    # continuity takes resolution + 2 int(4 sigma + 0.5) <= 160 for its
    # widest sigma, kernel-laplacian a resolution <= 96; one past is refused
    for resolution, sigmas in [(60, [12.5, 1.0]), (152, [1.1, 1.0])]:
        config = {"resolution": resolution, "sigmas": sigmas}
        assert validate_config("continuity", config) == {"resolution": resolution,
                                                         "sigmas_cells": sigmas}
    for resolution, sigmas in [(60, [12.625, 1.0]), (153, [1.1, 1.0])]:
        with pytest.raises(ConfigError, match="samples more than 160 points per axis"):
            validate_config("continuity", {"resolution": resolution, "sigmas": sigmas})
    assert validate_config("kernel-laplacian", {"resolution": 96}) == {"resolution": 96}
    with pytest.raises(ConfigError, match="resolution 97 is above 96"):
        validate_config("kernel-laplacian", {"resolution": 97})


def test_the_schedule_bound_is_the_kernel_radius_at_160():
    # continuity refuses exactly the schedules whose widest sigma makes the
    # grid route sample more than 160 points per axis, resolution + 2 r
    # for the reach r of its Gaussian kernels, and exactly those the
    # inequality it replaced refused, 4 sigma + 0.5 >= (160 - resolution)
    # // 2 + 1.  The widths are each r's first sigma, (r - 0.5) / 4, and
    # the float below it, then widths whose 4 sigma overflows
    jumps = [(r - 0.5) / 4.0 for r in range(5, 82)]
    small = sorted(jumps + [float(np.nextafter(s, 0.0)) for s in jumps])
    for sigma in small:
        r = valuation._kernel_radius(sigma)
        assert len(valuation._gaussian_kernels(sigma)[0]) == 2 * r + 1
    for resolution in range(1, 161):
        for sigma in small + [40.0, 160.0, 1e9, 1e308, sys.float_info.max]:
            refused = 4.0 * sigma + 0.5 >= (160 - resolution) // 2 + 1
            # above sigma 20, r > 80 refuses at every resolution (and 4 sigma may overflow)
            assert refused == (sigma > 20 or resolution + 2 * valuation._kernel_radius(sigma) > 160)
            try:
                verify.smoothing_schedule([sigma, 1.0], resolution)
            except ValueError as exc:
                assert refused and "samples more than 160 points per axis" in str(exc)
            else:
                assert not refused


def test_cli_config_seed_is_not_overridden(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda name, **kw: calls.append(kw) or
                        ExperimentReport(name, {}, []))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "threads": 2}))
    assert main(["run", "parity-break", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    assert main(["run", "parity-break", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert calls == [{"seed": 5, "threads": 2}, {"seed": 7, "threads": 2}]


@pytest.mark.parametrize("options", [["--pairs", "3", "--resolution", "8"], ["--dim", "4"]])
def test_cli_run_all_rejects_options_it_would_drop(tmp_path, capsys, monkeypatch, options):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda name, **kw: calls.append(name) or
                        ExperimentReport(name, {}, []))
    assert main(["run", "all", *options, "--out", str(tmp_path)]) == 2
    assert "takes only seed and threads" in capsys.readouterr().err
    assert calls == [] and not os.listdir(tmp_path)


def test_cli_run_all_passes_seed_and_threads(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda name, **kw: calls.append((name, kw)) or
                        ExperimentReport(name, {}, []))
    assert main(["run", "all", "--seed", "3", "--threads", "2", "--out", str(tmp_path),
                 "--quiet"]) == 0
    # each experiment gets only the options its signature takes
    assert calls == [
        ("continuity", {}),
        ("kernel-laplacian", {"seed": 3, "threads": 2}),
        ("linear-invariance", {"seed": 3, "threads": 2}),
        ("parity-break", {"seed": 3, "threads": 2}),
        ("valuation-identity", {"seed": 3, "threads": 2}),
        ("volume-identity", {"seed": 3}),
    ]
    with open(os.path.join(tmp_path, "index.json")) as fh:
        assert json.load(fh)["passed"] == len(EXPERIMENTS)


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

_COLD_START = """
import sys

import mongeval
import mongeval.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


assert not [m for m in scipy_modules() if m.startswith(("scipy.ndimage", "scipy.spatial"))], \\
    scipy_modules()
for name in ("parity-break", "linear-invariance"):
    assert mongeval.cli.main(["run", name, "--out", sys.argv[1], "--quiet"]) == 0
    assert not scipy_modules(), (name, scipy_modules())
# a hull imports scipy.spatial where it is built
assert mongeval.hull_volume([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]]) == 2.0
assert mongeval.cli.main(["run", "volume-identity", "--out", sys.argv[1], "--quiet"]) == 0
assert "scipy.spatial" in sys.modules and "scipy.ndimage" not in sys.modules
"""


def test_a_cold_start_imports_no_scipy_module_that_the_run_does_not_use(tmp_path):
    # scipy.spatial and scipy.ndimage were most of a cold CLI run: the
    # Gaussian weights are numpy, and hulls import scipy.spatial when built
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert sorted(os.listdir(tmp_path)) == ["linear-invariance.json", "parity-break.json",
                                            "volume-identity.json"]
