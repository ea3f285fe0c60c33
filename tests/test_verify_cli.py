import json
import os

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_pass_iff_within_tolerance():
    ok = ExperimentReport("x", {}, [("a", 1.0, 1.0, 0.0), ("b", 0.5, 0.4, 0.2)])
    assert ok.passed
    bad = ExperimentReport("x", {}, [("a", 1.0, 0.0, 0.5)])
    assert not bad.passed
    assert bad.canonical()["checks"][0]["pass"] is False
    assert ok.observed == [1.0, 0.5] and ok.expected == [1.0, 0.4]


def test_canonical_excludes_runtime():
    r = ExperimentReport("x", {}, [("a", 0.0, 0.0, 0.0)], runtime_seconds=12.5)
    assert "runtime" not in json.dumps(r.canonical())


# ---------------------------------------------------------------------------
# experiments (reduced sizes for speed; full sizes run in acceptance)
# ---------------------------------------------------------------------------

def test_parity_break_defaults():
    rep = parity_break(dim=3, degree=1)
    assert rep.passed
    obs = dict(zip([c[0] for c in rep.checks], rep.observed))
    assert abs(obs["phi(K) via atom weights"] - 1 / 3) <= 0.01 / 3
    assert abs(obs["phi(-K) via atom weights"] - 2 / 3) <= 0.02 / 3


def test_parity_break_degree_two():
    rep = parity_break(dim=3, degree=2, widths=(0.2, 0.1))
    assert rep.passed
    assert abs(rep.observed[1] - 4 / 3) <= 0.04 / 3


def test_parity_break_rejects_bad_degree():
    with pytest.raises(ValueError):
        parity_break(dim=3, degree=3)


def test_volume_identity_named_cube():
    rep = volume_identity(body="cube3")
    assert rep.passed
    assert np.isclose(rep.details["volumes"][0], 1.0)


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


def test_valuation_identity_O2_only():
    rep = valuation_identity(fields="O2", n_pairs=4)
    assert rep.passed
    assert max(rep.details["O2"]["residuals"]) <= 1e-6
    assert rep.details["O2"]["control_residual"] > 1e-3


def test_valuation_identity_R_small():
    rep = valuation_identity(fields="R", n_pairs=3)
    assert rep.passed
    assert rep.details["R"]["control_residual"] > 0.06


def test_kernel_laplacian_small():
    rep = kernel_laplacian(eps_schedule=(1e-2, 5e-3), resolution=24)
    ratios = rep.details["ratios"]
    assert all(1.5 <= r <= 2.5 for r in ratios)
    assert rep.details["independence_ratio"] > 0.01


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


def test_cli_invalid_degree_is_config_error(tmp_path, capsys):
    code = main(["run", "parity-break", "--degree", "9", "--dim", "3",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "degree out of range 1..2" in capsys.readouterr().err


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


def test_cli_threads_byte_identical_reports(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "continuity", "--sigmas", "4,2", "--resolution", "24",
                 "--threads", "1", "--out", out1, "--quiet"]) == 0
    assert main(["run", "continuity", "--sigmas", "4,2", "--resolution", "24",
                 "--threads", "8", "--out", out2, "--quiet"]) == 0
    with open(os.path.join(out1, "continuity.json"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "continuity.json"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


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

    def fake(**kwargs):
        return ExperimentReport("parity-break", {}, [("x", 1.0, 0.0, 0.1)])

    monkeypatch.setitem(v.EXPERIMENTS, "parity-break", (fake, "doc"))
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "continuity", **entry}))
    if command == "run":
        argv = ["run", "continuity", "--config", str(cfg), "--out", str(tmp_path / "r")]
    else:
        argv = ["validate-config", str(cfg)]
    assert main(argv) == 2
    assert f"invalid config: {key} has the wrong type" in capsys.readouterr().err


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
