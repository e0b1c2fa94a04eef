import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvlab import cli
from mvlab.cli import ConfigError, main, validate_config
from mvlab.ergodicity import decay_study
from mvlab.fpe import MAX_PICARD

OU = {"family": "meanfield-ou", "lambda0": 1.0, "kappa0": 0.5, "sigma0": 1.0}
NLDBM = {"family": "nldbm-arctan", "C": 1.0, "alpha": 0.5}
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


# every experiment but ergodicity, which takes mean-field OU only
RUNS = ["simulate-mkv", "solve-fpe", "frozen-compare", "check-ck",
        "feynman-kac", "gradient-check", "validate-hypotheses"]


@pytest.mark.parametrize("experiment, family", [(e, OU) for e in RUNS] + [(e, NLDBM) for e in RUNS],
                         ids=RUNS + [f"{e}-nldbm-arctan" for e in RUNS])
def test_each_experiment_runs(tmp_path, experiment, family):
    out = str(tmp_path / experiment)
    path, _ = write_config(tmp_path, f"{experiment}.json", experiment=experiment,
                           coefficients=family)
    assert main(["run", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    results = json.loads(Path(out, "results.json").read_text())
    assert results["experiment"] == experiment
    assert results["exit_code"] == 0


def test_solve_fpe_reports_steps_and_field_evals(tmp_path):
    out = str(tmp_path / "fpe")
    path, _ = write_config(tmp_path, "fpe.json")
    assert main(["run", path, "--out", out]) == 0
    log = json.loads(Path(out, "results.json").read_text())["conservation"]
    # horizon 0.2 at dt 2e-3; the first step evaluates its left end, and
    # every Picard solve its right end
    assert log["steps"] == 100
    assert log["steps"] + 1 < log["field_evals"] <= log["steps"] * (MAX_PICARD + 1) + 1


def test_ergodicity_experiment(tmp_path):
    out = str(tmp_path / "erg")
    num = dict(SMALL)
    num.update({"horizon": 2.0, "checkpoints": 5, "n_particles": 800})
    path, _ = write_config(tmp_path, "erg.json", experiment="ergodicity", numerics=num)
    assert main(["run", path, "--out", out]) == 0
    results = json.loads(Path(out, "results.json").read_text())
    assert results["envelope_holds"] is True


def test_ergodicity_bootstrap_does_not_replay_the_cloud_stream(tmp_path, monkeypatch):
    # default_rng(seed) draws the initial clouds; a bootstrap seeded the same
    # way would resample them with the very words that drew them
    seen = []

    def spy(*args, boot_seed, **kwargs):
        seen.append(boot_seed)
        return decay_study(*args, boot_seed=boot_seed, **kwargs)

    monkeypatch.setattr(cli, "decay_study", spy)
    num = dict(SMALL)
    num.update({"horizon": 0.4, "checkpoints": 3})
    path, cfg = write_config(tmp_path, "erg.json", experiment="ergodicity", numerics=num)
    main(["run", path, "--out", str(tmp_path / "erg")])
    [boot_seed] = seen
    words = lambda s: np.random.default_rng(s).bit_generator.random_raw(4)
    assert not np.array_equal(words(boot_seed), words(cfg["seed"]))


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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_object_config_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    out = tmp_path / "out"
    flags = {"validate": [], "run": ["--out", str(out), "--seed", "3"]}[command]
    assert main([command, str(path), *flags]) == 1
    assert "config error: config: expected an object" in capsys.readouterr().err
    assert not out.exists()


def test_invariant_violation_exits_two(tmp_path):
    out = str(tmp_path / "viol")
    num = dict(SMALL)
    num["tolerance"] = 1e-30
    num["replicas"] = 1
    path, _ = write_config(tmp_path, "viol.json", experiment="gradient-check",
                           numerics=num)
    assert main(["run", path, "--out", out]) == 2


@pytest.mark.parametrize("experiment, name", [("check-ck", "chapman_kolmogorov_residual"),
                                              ("gradient-check", "l_derivative_fd")])
def test_nan_check_exits_two(tmp_path, monkeypatch, experiment, name):
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: float("nan"))
    path, _ = write_config(tmp_path, "nan.json", experiment=experiment)
    assert main(["run", path, "--out", str(tmp_path / "nan")]) == 2


@pytest.mark.parametrize("experiment, n_grids", [("frozen-compare", 2), ("solve-fpe", 1)])
def test_run_builds_each_input_once(tmp_path, monkeypatch, experiment, n_grids):
    calls = []
    for name in ("_inputs", "build_coefficients", "_initial_grid"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    path, cfg = write_config(tmp_path, "once.json", experiment=experiment,
                             numerics={**SMALL, "horizon": 0.02})
    # the library call, `mvlab run` and `mvlab validate` each check once
    for run in (lambda: cli.run_experiment(cfg, str(tmp_path / "lib")),
                lambda: main(["run", path, "--out", str(tmp_path / "cli")]),
                lambda: main(["validate", path])):
        calls.clear()
        assert run() == 0
        assert calls.count("_inputs") == 1
        assert calls.count("build_coefficients") == 1
        assert calls.count("_initial_grid") == n_grids


def test_seed_override_lands_in_manifest(tmp_path):
    out = str(tmp_path / "seeded")
    path, _ = write_config(tmp_path, "seeded.json", experiment="gradient-check")
    assert main(["run", path, "--out", out, "--seed", "99"]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    assert man["config"]["seed"] == 99
    assert "versions" in man


def test_seed_override_checked_before_any_file(tmp_path, capsys):
    out = tmp_path / "seeded"
    path, _ = write_config(tmp_path, "seeded.json", experiment="gradient-check")
    assert main(["run", path, "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "seed" in err
    assert not out.exists()


def test_rerun_bitwise_identical(tmp_path):
    path, _ = write_config(tmp_path, "det.json", experiment="simulate-mkv")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", path, "--out", out_a]) == 0
    assert main(["run", path, "--out", out_b]) == 0
    for name in sorted(os.listdir(out_a)):
        a = Path(out_a, name).read_bytes()
        b = Path(out_b, name).read_bytes()
        assert a == b, name


def test_rerun_bitwise_identical_at_any_blas_thread_count(tmp_path):
    # OpenBLAS splits a vector product across threads only from about 1e4
    # elements, so the cloud needs N >= 2e4 for the second thread to run
    num = {**SMALL, "dt": 1e-2, "horizon": 0.1, "n_particles": 20000, "record_every": 5}
    path, _ = write_config(tmp_path, "threads.json", experiment="simulate-mkv", seed=5,
                           numerics=num)
    src = str(Path(cli.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "mvlab.cli", "run", path, "--out", out],
                       env=env, check=True, timeout=300)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert Path(outs[0], name).read_bytes() == Path(outs[1], name).read_bytes(), name


def test_readme_config_is_valid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    validate_config(json.loads(example))


def test_validate_fills_numerics_defaults():
    num = validate_config({
        "experiment": "solve-fpe", "seed": 1,
        "coefficients": {"family": "heat"}, "numerics": {"dt": 2e-3, "n_cells": 10},
    })
    assert num == {**cli.NUMERICS, "dt": 2e-3, "n_cells": 10}


def test_coefficient_key_of_another_family_rejected():
    with pytest.raises(ConfigError, match="unknown keys.*lambda0"):
        validate_config({
            "experiment": "solve-fpe", "seed": 1,
            "coefficients": {"family": "heat", "lambda0": 1.0}, "numerics": {},
        })


HEAT = {"family": "heat"}
PROBE_NUMERICS = {"dt": 2e-3, "dx": 0.02, "n_cells": 800, "horizon": 0.05}


# Configs that the library rejects (or passes vacuously): `validate` and
# `run` must each reject them as a config error that names the key, and
# `run` must write no file.
@pytest.mark.parametrize("experiment, coefficients, numerics, top, key", [
    ("solve-fpe", HEAT, {"dt": 0.0}, {}, "dt"),
    ("solve-fpe", HEAT, {"n_cells": 0}, {}, "n_cells"),
    ("solve-fpe", HEAT, {"horizon": -1.0}, {}, "horizon"),
    ("solve-fpe", HEAT, {"scheme": "rk4"}, {}, "scheme"),
    ("ergodicity", HEAT, {}, {}, "family"),
    ("feynman-kac", HEAT, {}, {"terminal": "cube"}, "terminal"),
    ("validate-hypotheses", HEAT, {}, {}, "family"),
    ("gradient-check", HEAT, {"replicas": 0, "tolerance": 1e-30}, {}, "replicas"),
    ("simulate-mkv", HEAT, {"n_particles": 0}, {}, "n_particles"),
    ("check-ck", OU, {"horizon": 0.2, "quad_points": 0}, {}, "quad_points"),
    ("check-ck", OU, {"horizon": 0.2, "split_time": 0.3}, {}, "split_time"),
    ("check-ck", OU, {}, {}, "split_time"),
    ("feynman-kac", OU, {"horizon": 0.2, "eval_time": 0.3}, {}, "eval_time"),
    ("check-ck", OU, {"horizon": 0.2, "eval_point": 100.0}, {}, "eval_point"),
    ("feynman-kac", OU, {"horizon": 0.2, "eval_point": 100.0}, {}, "eval_point"),
    ("solve-fpe", OU, {"horizon": 0.2}, {"initial": {"kind": "gaussian", "mean": 100.0}},
     "initial"),
    ("simulate-mkv", HEAT, {}, {"seed": -1}, "seed"),
    ("simulate-mkv", HEAT, {"bandwidth": -0.1}, {}, "bandwidth"),
    ("gradient-check", HEAT, {"tolerance": -1.0}, {}, "tolerance"),
    # one checkpoint runs no step: the envelope holds vacuously
    ("ergodicity", OU, {"horizon": 1.0, "n_particles": 200, "checkpoints": 1}, {}, "checkpoints"),
    # the binned KDE splits each atom between two cells
    ("simulate-mkv", HEAT, {"n_cells": 1}, {}, "n_cells"),
], ids=[f"probe{i}" for i in range(1, 22)])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, experiment, coefficients,
                                          numerics, top, key):
    path, _ = write_config(tmp_path, "probe.json", experiment=experiment,
                           coefficients=coefficients,
                           numerics={**PROBE_NUMERICS, **numerics}, **top)
    out = tmp_path / "out"
    for argv in (["validate", path], ["run", path, "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and key in err
    assert not out.exists()
