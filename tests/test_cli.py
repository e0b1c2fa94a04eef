import json
import os
from pathlib import Path

import pytest

from mvlab.cli import ConfigError, main, validate_config

OU = {"family": "meanfield-ou", "lambda0": 1.0, "kappa0": 0.5, "sigma0": 1.0}
SMALL = {"dt": 2e-3, "dx": 0.02, "x_min": -8.0, "n_cells": 800, "horizon": 0.2,
         "n_particles": 500, "record_every": 50, "quad_points": 16, "n_boot": 10}


def write_config(tmp_path, name, **overrides):
    cfg = {
        "experiment": "solve-fpe",
        "seed": 11,
        "coefficients": dict(OU),
        "numerics": dict(SMALL),
        "initial": {"kind": "gaussian", "mean": 1.0, "var": 0.25},
    }
    cfg.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p), cfg


@pytest.mark.parametrize("experiment", [
    "simulate-mkv", "solve-fpe", "frozen-compare", "check-ck",
    "feynman-kac", "gradient-check", "validate-hypotheses",
])
def test_each_experiment_runs(tmp_path, experiment):
    out = str(tmp_path / experiment)
    path, _ = write_config(tmp_path, f"{experiment}.json", experiment=experiment)
    assert main(["run", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    results = json.loads(Path(out, "results.json").read_text())
    assert results["experiment"] == experiment
    assert results["exit_code"] == 0


def test_ergodicity_experiment(tmp_path):
    out = str(tmp_path / "erg")
    num = dict(SMALL)
    num.update({"horizon": 2.0, "checkpoints": 5, "n_particles": 800})
    path, _ = write_config(tmp_path, "erg.json", experiment="ergodicity", numerics=num)
    assert main(["run", path, "--out", out]) == 0
    results = json.loads(Path(out, "results.json").read_text())
    assert results["envelope_holds"] is True


def test_validate_subcommand(tmp_path, capsys):
    path, _ = write_config(tmp_path, "ok.json")
    assert main(["validate", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_unknown_top_key_rejected(tmp_path):
    path, _ = write_config(tmp_path, "bad.json", bogus=1)
    assert main(["validate", path]) == 1


@pytest.mark.parametrize("record_every", [0, -5])
def test_record_every_below_one_rejected(tmp_path, capsys, record_every):
    path, _ = write_config(tmp_path, "rec.json", numerics={**SMALL, "record_every": record_every})
    assert main(["validate", path]) == 1
    assert "record_every" in capsys.readouterr().err


def test_unknown_numerics_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config({
            "experiment": "solve-fpe", "seed": 1,
            "coefficients": {"family": "heat"},
            "numerics": {"grid_pts": 100},
        })


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({
            "experiment": "make-coffee", "seed": 1,
            "coefficients": {"family": "heat"}, "numerics": {},
        })


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="missing"):
        validate_config({"experiment": "solve-fpe", "seed": 1, "numerics": {}})


def test_wrong_type_rejected():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({
            "experiment": "solve-fpe", "seed": "eleven",
            "coefficients": {"family": "heat"}, "numerics": {},
        })


def test_unreadable_config_is_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_invariant_violation_exits_two(tmp_path):
    out = str(tmp_path / "viol")
    num = dict(SMALL)
    num["tolerance"] = 1e-30
    num["replicas"] = 1
    path, _ = write_config(tmp_path, "viol.json", experiment="gradient-check",
                           numerics=num)
    assert main(["run", path, "--out", out]) == 2


def test_seed_override_lands_in_manifest(tmp_path):
    out = str(tmp_path / "seeded")
    path, _ = write_config(tmp_path, "seeded.json", experiment="gradient-check")
    assert main(["run", path, "--out", out, "--seed", "99"]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    assert man["config"]["seed"] == 99
    assert "versions" in man


def test_rerun_bitwise_identical(tmp_path):
    path, _ = write_config(tmp_path, "det.json", experiment="simulate-mkv")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", path, "--out", out_a]) == 0
    assert main(["run", path, "--out", out_b]) == 0
    for name in sorted(os.listdir(out_a)):
        a = Path(out_a, name).read_bytes()
        b = Path(out_b, name).read_bytes()
        assert a == b, name
