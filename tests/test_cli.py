import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import platform
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from hvi import cli
from hvi.cli import _COMMANDS, _build_parser, main
from hvi.estimators import PartitionSchedule, bound_report, draw_batch
from hvi.gradients import BoundObjective, train
from hvi.models import make_conjugate_gaussian, make_sin_toy
from hvi.paths import PathSpec
from hvi.tuning import DEFAULT_TEST_BETAS, tune_alpha_bisect, tune_alpha_grid
from oracles import quadrature_local_evidence


ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    return main([str(a) for a in args])


def run_python(args, **env_vars):
    """Python in a subprocess, with this checkout's sources first on the path."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=120)


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return header, rows


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_scaled_factor_closed_forms(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor",
        "model_params": {"scale": 2.0},
        "sample_size": 128,
        "seeds": [1, 2, 3],
        "bounds": ["elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo", "tvo"],
    })
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["seed", "elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo", "tvo"]
    log2 = math.log(2.0)
    for row in rows:
        values = [float(v) for v in row[1:]]
        for v in (values[0], values[1], values[2], values[3], values[6]):
            assert v == pytest.approx(log2, abs=1e-12)
        assert values[4] == pytest.approx(0.5, abs=1e-12)
        assert values[5] == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "bounds.csv.config.json").exists()


def test_bounds_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy",
        "sample_size": 256,
        "seeds": [5, 6],
        "bounds": ["elbo", "tvo", "hbo[0.8]"],
    })
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["bounds", "--config", cfg, "--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    echo_a = json.loads((tmp_path / "a.csv.config.json").read_text())
    echo_b = json.loads((tmp_path / "b.csv.config.json").read_text())
    assert {k: v for k, v in echo_a.items() if k != "out"} == \
        {k: v for k, v in echo_b.items() if k != "out"}


def test_bounds_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy"})
    assert run_cli(["bounds", "--config", cfg]) == 1
    assert "seed" in capsys.readouterr().err


def test_seed_flag_replaces_config_seeds(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "sample_size": 32, "seeds": [1, 2], "bounds": ["elbo"]})
    out = tmp_path / "b.csv"
    assert run_cli(["bounds", "--config", cfg, "--seed", 9, "--out", out]) == 0
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == ["9"]
    echo = json.loads((tmp_path / "b.csv.config.json").read_text())
    assert echo["seed"] == 9 and "seeds" not in echo


def test_bounds_schedule_given_by_betas_runs_on_those_knots(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "sample_size": 200, "seed": 3, "bounds": ["hbo[0.5]", "tvo"],
        "schedule": {"betas": [0.0, 0.3, 1.0]}, "tvo_schedule": {"betas": [0.0, 0.6, 1.0]}})
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    batch = draw_batch(make_sin_toy(), 200, 3)
    assert [float(v) for v in rows[0][1:]] == list(bound_report(
        batch, ["hbo[0.5]", "tvo"], hbo_schedule=PartitionSchedule([0.0, 0.3, 1.0]),
        tvo_schedule=PartitionSchedule([0.0, 0.6, 1.0])).values())


def test_config_that_is_not_json_is_a_named_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "sin_toy", "seed": 1,}')
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: config: invalid JSON (")
    assert not out.exists()


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_constant_for_scaled_factor(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor",
        "model_params": {"scale": 2.0},
        "sample_size": 64,
        "seed": 4,
        "schedule": {"kind": "uniform", "partitions": 10},
        "path": {"kind": "geometric"},
    })
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["beta", "value", "std_err", "ess"]
    betas = [float(r[0]) for r in rows]
    np.testing.assert_allclose(betas, np.linspace(0, 1, 11), atol=1e-15)
    for row in rows:
        assert float(row[1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_curve_null_schedule_takes_the_default(tmp_path):
    outs = []
    for name, extra in (("absent", {}), ("null", {"schedule": None})):
        cfg = write_config(tmp_path, f"{name}.json",
                           {"model": "sin_toy", "sample_size": 32, "seed": 4, **extra})
        outs.append(tmp_path / f"{name}.csv")
        assert run_cli(["curve", "--config", cfg, "--out", outs[-1]]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bounds_matched_budget_configuration(tmp_path):
    # the standard comparison setting: 100 partitions, batches of 10, order 0.8
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy",
        "sample_size": 10,
        "seeds": [0, 1, 2],
        "schedule": {"kind": "uniform", "partitions": 100},
        "bounds": ["elbo", "iw_elbo", "rvi[0.5]", "tvo", "hbo[0.8]"],
    })
    out = tmp_path / "matched.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "hbo[0.8]"
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row[1:])


def test_curve_alpha_surface(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy",
        "sample_size": 128,
        "seed": 4,
        "schedule": {"kind": "uniform", "partitions": 4},
        "alphas": [0.2, 0.8],
    })
    out = tmp_path / "surface.csv"
    assert run_cli(["curve", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "beta", "value", "std_err", "ess"]
    assert len(rows) == 2 * 5


@pytest.mark.parametrize("data", [{"path": {"kind": "holder", "alpha": "0.5"}},
                                  {"alphas": [True]}])
def test_curve_reads_its_whole_config_before_sampling(tmp_path, capsys, monkeypatch, data):
    drawn = []
    monkeypatch.setattr("hvi.cli.draw_batch", lambda *args: drawn.append(args))
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", "seed": 1,
                                              "sample_size": 50, **data})
    assert run_cli(["curve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: config.{next(iter(data))}: ")
    assert drawn == []


# ---------------------------------------------------------------------------
# tune / train / diagnose / oracle
# ---------------------------------------------------------------------------

def test_tune_rejects_zero_bisection_iterations(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "sample_size": 10_000, "seed": 3,
        "tuning": {"method": "bisect", "max_iters": 0, "betas": [0.0, 0.25, 0.5, 0.75]}})
    out = tmp_path / "tune.json"
    assert run_cli(["tune", "--config", cfg, "--out", out]) == 1
    assert "max_iters" in capsys.readouterr().err
    assert not out.exists()


def test_tune_emits_result_json(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy",
        "sample_size": 2000,
        "seed": 3,
        "tuning": {"method": "grid", "candidates": [0.2, 0.5, 0.8],
                   "betas": [0.0, 0.25, 0.5, 0.75]},
    })
    out = tmp_path / "tune.json"
    assert run_cli(["tune", "--config", cfg, "--out", out]) == 0
    result = json.loads(out.read_text())
    assert result["method"] == "grid"
    assert result["alpha"] in (0.2, 0.5, 0.8)
    assert len(result["table"]) == 3


_BETAS = [0.0, 0.25, 0.5, 0.75]


@pytest.mark.parametrize("tuning, tune", [
    ({"candidates": [0.2, 0.8]},
     lambda model: tune_alpha_grid(model, [0.2, 0.8], sample_size=10_000, seed=3)),
    ({"method": "bisect", "betas": _BETAS, "max_iters": 3},
     lambda model: tune_alpha_bisect(model, betas=_BETAS, sample_size=10_000, max_iters=3,
                                     seed=3)),
])
def test_tune_json_holds_each_result_field(tmp_path, tuning, tune):
    # hvi tune writes the result dataclasses' own fields, arrays as lists: the
    # library keeps no serializer of its own
    cfg = write_config(tmp_path, "cfg.json",
                       {"model": "sin_toy", "sample_size": 10_000, "seed": 3, "tuning": tuning})
    out = tmp_path / "tune.json"
    assert run_cli(["tune", "--config", cfg, "--out", out]) == 0
    written = json.loads(out.read_text())
    fields = dataclasses.asdict(tune(make_sin_toy()))
    assert written == json.loads(json.dumps(fields, default=np.ndarray.tolist))
    for summary in (written["summary"], *written["table"]):
        assert summary["range"] == max(summary["values"]) - min(summary["values"])


def test_train_flat_trace_with_zero_learning_rate(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "conjugate_gaussian",
        "model_params": {"sigma": 1.0, "x_obs": 0.0},
        "sample_size": 64,
        "seed": 2,
        "training": {"bound": "elbo", "steps": 5, "learning_rate": 0.0},
    })
    out = tmp_path / "trace.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[:2] == ["step", "objective"]
    assert len(rows) == 6
    first_params = rows[0][2:]
    for row in rows:
        assert row[2:] == first_params


def test_train_partial_schedule_takes_the_bound_default_kind(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy",
        "sample_size": 50,
        "seed": 4,
        "training": {"bound": "tvo", "schedule": {"partitions": 10},
                     "steps": 3, "learning_rate": 1e-2},
    })
    out = tmp_path / "trace.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    objective = BoundObjective(bound="tvo", schedule=PartitionSchedule.log(10), sample_size=50)
    trace = train(make_sin_toy(), None, objective, 3, 1e-2, 4)
    assert [[float(v) for v in row[1:]] for row in rows] == [
        [trace.objective[i], *trace.params[i]] for i in range(len(trace))]


def test_train_reads_its_rule_only_from_the_top_level(tmp_path, capsys):
    # a training.rule used to override --rule, whose echo then named a rule that did not run
    data = {"model": "sin_toy", "sample_size": 50, "seed": 4,
            "training": {"bound": "tvo", "steps": 2, "learning_rate": 1e-2}}
    cfg, traces = write_config(tmp_path, "cfg.json", data), []
    for rule in ("left", "trapezoid"):
        out = tmp_path / f"{rule}.csv"
        assert run_cli(["train", "--config", cfg, "--rule", rule, "--out", out]) == 0
        traces.append(out.read_bytes())
        assert json.loads((tmp_path / f"{rule}.csv.config.json").read_text())["rule"] == rule
    assert traces[0] != traces[1]
    data["training"]["rule"] = "left"
    cfg = write_config(tmp_path, "cfg.json", data)
    assert run_cli(["train", "--config", cfg, "--rule", "trapezoid"]) == 1
    assert capsys.readouterr().err == "error: config.training: unknown keys ['rule']\n"


def test_train_with_mmd_column(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "bayes_regression",
        "model_params": {"seed": 0},
        "sample_size": 50,
        "seed": 2,
        "training": {"bound": "hbo", "alpha": 0.05,
                     "schedule": {"kind": "uniform", "partitions": 4},
                     "steps": 4, "learning_rate": 1e-4,
                     "mmd_every": 2, "mmd_sample": 200,
                     "mcmc": {"chains": 2, "steps": 3000, "burn_in": 1000, "thin": 10}},
    })
    out = tmp_path / "trace.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "mmd"
    assert rows[0][-1] != "" and rows[1][-1] == ""


def test_train_divergence_exits_nonzero_with_marker(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "conjugate_gaussian",
        "model_params": {"sigma": 1.0, "x_obs": 0.0},
        "sample_size": 16,
        "seed": 0,
        "training": {"bound": "elbo", "steps": 50, "learning_rate": 1e18},
    })
    out = tmp_path / "diverged.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 1
    # the marker and the error line name the step and the cause
    cause = "training diverged at step 1: log_proposal reads nan at 16 of 16 samples"
    assert capsys.readouterr().err == f"error: {cause}; partial trace written with a failure marker\n"
    assert out.read_text().rstrip().endswith(f"# FAILED: {cause}")


def test_train_parameters_that_overflow_are_a_named_cause(tmp_path, capsys):
    # the second update overflows lambda = log c; the update ran outside the
    # trainer's errstate and printed "overflow encountered in add"
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor", "model_params": {"scale": 2.0}, "sample_size": 10, "seed": 0,
        "training": {"bound": "elbo", "steps": 5, "learning_rate": 1e308}})
    out = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["train", "--config", cfg, "--out", out]) == 1
    cause = "training diverged at step 2: non-finite parameters"
    assert capsys.readouterr().err == f"error: {cause}; partial trace written with a failure marker\n"
    _, rows = read_csv(out)
    assert len(rows) == 2 and out.read_text().splitlines()[-1] == f"# FAILED: {cause}"


@pytest.mark.parametrize("training", [{"bound": "wlbo"}, {"bound": "perturbed_hbo", "delta": 0.05}])
def test_train_divergence_prints_no_numpy_warning(tmp_path, capsys, training):
    # both runs drive a proposal std to 0 within 10 steps, where log(std) read
    # -inf with a RuntimeWarning on stderr before the error line
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "bayes_regression", "sample_size": 100, "seed": 0,
        "training": {**training, "steps": 10, "learning_rate": 1e-3}})
    out = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["train", "--config", cfg, "--out", out]) == 1
    assert [line.split(":")[0] for line in capsys.readouterr().err.splitlines()] == ["error"]
    assert out.read_text().splitlines()[-1].startswith("# FAILED: training diverged")


def test_train_with_an_mcmc_reference_that_accepts_nothing_is_an_error(tmp_path, capsys):
    # a step this wide proposes z ~ 1e147, where sin_toy's log target is about
    # -1e294, so nothing is accepted; a second acceptance check in the sampler
    # raised a RuntimeError there, which escaped as a traceback
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 3,
        "training": {"steps": 2, "mmd_every": 1, "mmd_sample": 5,
                     "mcmc": {"steps": 300, "burn_in": 100, "step_size": 1e150, "chains": 1}}})
    out = tmp_path / "trace.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == ("error: acceptance rate must lie strictly in (0, 1), "
                                       "got 0; check step_size\n")
    assert not out.exists()


def test_diagnose_profile(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor",
        "model_params": {"scale": 2.0},
        "sample_size": 64,
        "seed": 8,
        "diagnose": {"betas": [0.0, 0.5, 1.0], "replicates": 5},
    })
    out = tmp_path / "prof.csv"
    assert run_cli(["diagnose", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["beta", "mean", "variance", "mean_ess"]
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-12)


def test_oracle_report(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "conjugate_gaussian",
        "model_params": {"sigma": 1.0, "x_obs": 0.0},
        "oracle": {"alphas": [0.0, 0.5, 1.0]},
    })
    out = tmp_path / "oracle.json"
    assert run_cli(["oracle", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["log_marginal"] == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-8)
    model = make_conjugate_gaussian(1.0, 0.0)
    assert list(report["local_evidence"]) == ["0", "0.5", "1"]
    for alpha in (0.0, 0.5, 1.0):
        values = report["local_evidence"][f"{alpha:g}"]
        assert list(values) == [f"{b:g}" for b in DEFAULT_TEST_BETAS]
        for beta in DEFAULT_TEST_BETAS:
            assert values[f"{beta:g}"] == pytest.approx(
                quadrature_local_evidence(model, alpha, beta), rel=1e-12, abs=1e-15)


def test_oracle_does_not_require_seed(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--model", "sin_toy", "--out", out]) == 0


def test_oracle_beyond_the_float_range_is_an_error_not_an_infinity(tmp_path, capsys):
    # the ring's local evidence at alpha = 3, beta = 1 lies far below -1e308:
    # written as -Infinity it was JSON that the config loader itself rejects
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "ring", "oracle": {"grid_points": 201, "alphas": [3], "betas": [0.5, 1]}})
    out = tmp_path / "o.json"
    assert run_cli(["oracle", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha = 3, beta = 1 " in err
    assert not out.exists()


_BEYOND = {"model": "bayes_regression", "sample_size": 2000, "seed": 5}


@pytest.mark.parametrize("command, config", [
    ("curve", {"alphas": [3], "schedule": {"kind": "uniform", "partitions": 2}}),
    ("diagnose", {"diagnose": {"path": {"kind": "holder", "alpha": 3}, "betas": [0, 1],
                               "replicates": 2}}),
])
def test_curve_and_diagnose_beyond_the_float_range_are_errors(tmp_path, capsys, command, config):
    # the local evidence at alpha = 3, beta = 1 reads -inf on this batch: it
    # was written as -inf with a NaN std err or variance, after numpy warnings
    cfg = write_config(tmp_path, "cfg.json", {**_BEYOND, **config})
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.splitlines()[0]] and err.startswith("error: ")
    assert "beta = 1 reads -inf: beyond the float range" in err
    assert not out.exists()


def test_curve_with_a_finite_value_and_an_infinite_std_err_writes_it(tmp_path, capsys):
    # at alpha = 1.5 the value -3.6e154 is finite but its square is not
    cfg = write_config(tmp_path, "cfg.json", {
        **_BEYOND, "alphas": [1.5], "schedule": {"kind": "uniform", "partitions": 2}})
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["curve", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(out)
    assert float(rows[-1][2]) < -1e154 and rows[-1][3] == "inf"


def test_oracle_evaluates_the_grid_once(tmp_path, monkeypatch):
    from hvi import models

    calls = []
    grid = models.quadrature_grid
    monkeypatch.setattr(models, "quadrature_grid", lambda *args: calls.append(1) or grid(*args))
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "ring", "oracle": {"grid_points": 101, "alphas": [0.0, 0.5, 1.0]}})
    assert run_cli(["oracle", "--config", cfg, "--out", tmp_path / "o.json"]) == 0
    assert len(calls) == 1


# Per command: a config whose output goes through products that BLAS could
# split across its threads.  The oracle's moments are einsums; tune takes the
# slope's std err as coef @ phi over the samples, and train the gradient as
# phi @ grad L0 and its kin, each a BLAS product.
_BLAS_CONFIGS = {
    "oracle": {"model": "ring", "oracle": {
        "alphas": [0.2, 0.5, 0.8, -0.5, 1.5], "betas": [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]}},
    "tune": {"model": "sin_toy", "seed": 1, "sample_size": 10_000, "tuning": {"method": "grid"}},
    "train": {"model": "ring", "seed": 1, "sample_size": 2000, "training": {
        "bound": "hbo", "alpha": 0.5, "schedule": {"partitions": 20}, "steps": 10,
        "learning_rate": 0.01}},
}


@pytest.mark.parametrize("command", list(_BLAS_CONFIGS))
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # OpenBLAS splits a long dot product across its threads, so a moment taken
    # as one changed in its last bits with the thread count (the oracle's at
    # beta 0 and 1).  train matches at this S; at S = 50 000 its bytes still
    # differ between 1 and 2 threads, since BLAS splits the gradient's sums over samples
    cfg = write_config(tmp_path, "cfg.json", _BLAS_CONFIGS[command])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}_{threads}.out"
        proc = run_python(["-m", "hvi.cli", command, "--config", cfg, "--out", out],
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_mmd_does_not_depend_on_the_blas_thread_count():
    # criterion 11's shape: a block's exponents are a BLAS product, split over
    # OpenBLAS's threads by rows and columns, never along its d + 2 terms
    script = ("import numpy as np; from hvi.diagnostics import mmd; "
              "rng = np.random.default_rng(11); "
              "print(mmd(rng.normal(size=(2000, 3)), rng.normal(0.2, 1.1, (5000, 3))).hex())")
    printed = []
    for threads in ("1", "2"):
        proc = run_python(["-c", script], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]


# ---------------------------------------------------------------------------
# validation and environment
# ---------------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", "seed": 1, "wrong": 2})
    assert run_cli(["bounds", "--config", cfg]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_model_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"model": "mystery", "seed": 1})
    assert run_cli(["bounds", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config.model" in err


def test_bad_bound_id_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 1, "bounds": ["elbo", "nope"]})
    assert run_cli(["bounds", "--config", cfg]) == 1
    assert "config.bounds" in capsys.readouterr().err


def test_duplicate_bound_ids_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 1, "bounds": ["elbo", "tvo", "elbo"]})
    assert run_cli(["bounds", "--config", cfg]) == 1
    assert "config.bounds" in capsys.readouterr().err


def test_bad_training_bound_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 1, "training": {"bound": "iw_elbo"}})
    assert run_cli(["train", "--config", cfg]) == 1
    assert "config.training.bound" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["elbo", "eubo", "wlbo", "wubo"])
def test_train_rejects_schedule_for_single_knot_bound(tmp_path, capsys, bound):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 1,
        "training": {"bound": bound, "schedule": {"partitions": 10}, "steps": 2}})
    out = tmp_path / "trace.csv"
    assert run_cli(["train", "--config", cfg, "--out", out]) == 1
    assert "config.training.schedule" in capsys.readouterr().err
    assert not out.exists()


def test_seed_and_seeds_together_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "sample_size": 32, "seed": 5, "seeds": [1, 2], "bounds": ["elbo"]})
    out = tmp_path / "b.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == "error: config.seeds: give seed or seeds, not both\n"
    assert not out.exists()
    # --seed replaces both keys
    assert run_cli(["bounds", "--config", cfg, "--seed", 9, "--out", out]) == 0
    assert [row[0] for row in read_csv(out)[1]] == ["9"]


# The section each single-run command reads, set so that it would run.
_RUNNABLE_SECTIONS = {"train": {"training": {"steps": 2}},
                      "diagnose": {"diagnose": {"replicates": 2, "betas": [0.0, 1.0]}}}


@pytest.mark.parametrize("command", ["curve", "tune", "train", "diagnose"])
def test_single_run_commands_reject_several_seeds(tmp_path, capsys, command):
    # only bounds loops over seeds; the others must not drop all but the first
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seeds": [1, 2], "sample_size": 50,
        **_RUNNABLE_SECTIONS.get(command, {})})
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert "config.seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, field, path", [
    ("curve", "config.path", {"kind": "holder", "delta": 0.3}),
    ("curve", "config.path", "holder"),
    ("diagnose", "config.diagnose.path", {"kind": "geometric", "alpha": 0.8}),
])
def test_path_errors_name_their_field(tmp_path, capsys, command, field, path):
    data = {"model": "sin_toy", "seed": 1, "sample_size": 50}
    data.update({"path": path} if command == "curve" else {"diagnose": {"path": path}})
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", write_config(tmp_path, "cfg.json", data),
                    "--out", out]) == 1
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_path_cast_reads_each_kind():
    for data, spec in (({"kind": "geometric"}, PathSpec("geometric")),
                       ({"kind": "holder", "alpha": 0.3}, PathSpec("holder", alpha=0.3)),
                       ({"kind": "wasserstein"}, PathSpec("wasserstein")),
                       ({"kind": "perturbed", "delta": 0.01}, PathSpec("perturbed", delta=0.01))):
        assert cli._path(data) == spec


_BAD_PATHS = {
    "holder-delta": ({"kind": "holder", "delta": 0.3}, "path kind 'holder' takes no delta"),
    "geometric-alpha": ({"kind": "geometric", "alpha": 0.8},
                        "path kind 'geometric' takes no alpha"),
    "perturbed-alpha": ({"kind": "perturbed", "alpha": 0.1, "delta": 0.05},
                        "path kind 'perturbed' takes no alpha"),
    "not-an-object": ("holder", "must be an object with a 'kind', got 'holder'"),
    "unknown-key": ({"kind": "holder", "alpha": 0.5, "oops": 1}, "unknown keys ['oops']"),
    "unknown-kind": ({"kind": "powermean"}, "unknown path kind 'powermean'"),
    "null-alpha": ({"kind": "holder", "alpha": None}, "alpha must be a number, got None"),
}


@pytest.mark.parametrize("path, message", _BAD_PATHS.values(), ids=_BAD_PATHS.keys())
def test_path_cast_rejects_foreign_parameters_and_non_objects(tmp_path, capsys, monkeypatch,
                                                              path, message):
    # dropping a parameter of another kind would silently run a different path
    drawn = []
    monkeypatch.setattr("hvi.cli.draw_batch", lambda *args: drawn.append(args))
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", "seed": 1, "path": path})
    assert run_cli(["curve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: config.path: {message}")
    assert drawn == []


# One malformed field per command: each must end in an error line that names
# the field, not a traceback.  A case's id is its key, so no row renames
# another.  The "-field<n>" ids are the list positions the rows had when ids
# were positions, kept so runs before and after compare; a new row is keyed
# by its command and field, with a suffix only where that key is taken.
_MALFORMED = {
    "bounds-field0": ("bounds", {"sample_size": None}, "config.sample_size"),
    "curve-field1": ("curve", {"schedule": 5}, "config.schedule"),
    "tune-field2": ("tune", {"tuning": {"candidates": 0.5}}, "config.tuning.candidates"),
    "train-field3": ("train", {"training": 5}, "config.training"),
    "diagnose-field4": ("diagnose", {"diagnose": {"replicates": None}},
                        "config.diagnose.replicates"),
    "oracle-field5": ("oracle", {"oracle": {"alphas": 0.5}}, "config.oracle.alphas"),
    "bounds-field6": ("bounds", {"bounds": [None]}, "config.bounds"),
    "oracle-field7": ("oracle", {"oracle": {"grid_points": "x"}}, "config.oracle.grid_points"),
    "train-field8": ("train", {"training": {"mmd_every": -1, "steps": 2}},
                     "config.training.mmd_every"),
    "train-field9": ("train", {"training": {"init": [], "steps": 2}}, "config.training.init"),
    "bounds-field10": ("bounds", {"bounds": ["hbo[nan]"]}, "config.bounds"),
    "bounds-field11": ("bounds", {"bounds": ["hbo[inf]"]}, "config.bounds"),
    "bounds-field12": ("bounds", {"bounds": ["perturbed_hbo[nan]"]}, "config.bounds"),
    "bounds-field13": ("bounds", {"bounds": ["rvi[0]"]}, "config.bounds"),
    "bounds-field14": ("bounds", {"bounds": ["rvi[-1]"]}, "config.bounds"),
    "bounds-field15": ("bounds", {"bounds": ["rvi[inf]"]}, "config.bounds"),
    "tune-field16": ("tune", {"tuning": {"betas": [0, 2]}}, "config.tuning.betas"),
    "diagnose-field17": ("diagnose", {"diagnose": {"betas": [0, 2]}}, "config.diagnose.betas"),
    "oracle-field18": ("oracle", {"oracle": {"alphas": [0.5], "betas": [-1]}},
                       "config.oracle.betas"),
    "train-field19": ("train", {"training": {"learning_rate": 10 ** 400, "steps": 2}},
                      "config.training.learning_rate"),
    # integer settings that int() truncated or coerced, and float settings
    # that float() coerced
    "bounds-field20": ("bounds", {"sample_size": 100.9}, "config.sample_size"),
    "bounds-field21": ("bounds", {"seed": 1.7}, "config.seed"),
    "bounds-field22": ("bounds", {"sample_size": "100"}, "config.sample_size"),
    "bounds-field23": ("bounds", {"sample_size": True}, "config.sample_size"),
    "bounds-field24": ("bounds", {"seeds": [1.5, 2]}, "config.seeds"),
    "bounds-field25": ("bounds", {"schedule": {"partitions": 10.7}}, "config.schedule.partitions"),
    "bounds-field26": ("bounds", {"schedule": {"betas": [False, True]}}, "config.schedule.betas"),
    "curve-field27": ("curve", {"alphas": [True]}, "config.alphas"),
    "train-field28": ("train", {"training": {"learning_rate": "1e-3", "steps": 2}},
                      "config.training.learning_rate"),
    "train-field29": ("train", {"training": {"steps": True}}, "config.training.steps"),
    "oracle-field30": ("oracle", {"oracle": {"grid_points": 101.5}}, "config.oracle.grid_points"),
    # model parameters that the builders coerced
    "oracle-field31": ("oracle", {"model": "conjugate_gaussian",
                                  "model_params": {"sigma": True, "x_obs": 0.0}},
                       "config.model_params.sigma"),
    "oracle-field32": ("oracle", {"model": "conjugate_gaussian",
                                  "model_params": {"sigma": 1.0, "x_obs": "0"}},
                       "config.model_params.x_obs"),
    "bounds-field33": ("bounds", {"model": "bayes_regression", "model_params": {"n": 20.5}},
                       "config.model_params.n"),
    # values whose oracle output keys (f"{v:g}") coincide, which dropped curves
    "oracle-field34": ("oracle", {"oracle": {"alphas": [0.5, 0.5000001]}}, "config.oracle.alphas"),
    "oracle-field35": ("oracle", {"oracle": {"alphas": [0.5],
                                             "betas": [0.1234567, 0.1234568, 1.0]}},
                       "config.oracle.betas"),
    "oracle-field36": ("oracle", {"oracle": {"alphas": [0.5], "betas": [0.5, 0.5]}},
                       "config.oracle.betas"),
    # test betas with no spread, which wrote a NaN slope
    "tune-field37": ("tune", {"tuning": {"betas": [0.5, 0.5]}}, "config.tuning.betas"),
    # settings out of range, which failed without a field (mmd_sample only
    # after the MCMC reference and the training run)
    "train-field38": ("train", {"training": {"steps": -3}}, "config.training.steps"),
    "train-field39": ("train", {"training": {"steps": 2, "mmd_every": 1, "mmd_sample": 0}},
                      "config.training.mmd_sample"),
    "diagnose-field40": ("diagnose", {"diagnose": {"replicates": 1}},
                         "config.diagnose.replicates"),
    "tune-field41": ("tune", {"tuning": {"method": "bisect", "max_iters": 0}},
                     "config.tuning.max_iters"),
    "oracle-field42": ("oracle", {"oracle": {"grid_points": 1}}, "config.oracle.grid_points"),
    "train-field43": ("train", {"training": {"steps": 2, "mmd_every": 1, "mcmc": {"steps": 100}}},
                      "config.training.mcmc.steps"),
    "train-field44": ("train", {"training": {"steps": 2, "mmd_every": 1,
                                             "mcmc": {"steps": 500, "burn_in": 500}}},
                      "config.training.mcmc.steps"),
    "train-field45": ("train", {"training": {"steps": 2, "mmd_every": 1, "mcmc": {"chains": 0}}},
                      "config.training.mcmc.chains"),
    # settings the library rejected without a field (bisect), or ran with: a
    # negative burn-in ran more sweeps than steps, and step_size 0 failed
    # only after the whole MCMC reference
    "tune-field46": ("tune", {"tuning": {"method": "bisect", "tolerance": 0}},
                     "config.tuning.tolerance"),
    "tune-field47": ("tune", {"tuning": {"method": "bisect", "alpha_lo": 0.9, "alpha_hi": 0.1}},
                     "config.tuning.alpha_hi"),
    "train-field48": ("train", {"training": {"steps": 2, "mmd_every": 1, "mcmc": {
                          "steps": 300, "burn_in": -100, "chains": 2}}},
                      "config.training.mcmc.burn_in"),
    "train-field49": ("train", {"training": {"steps": 2, "mmd_every": 1,
                                             "mcmc": {"step_size": 0}}},
                      "config.training.mcmc.step_size"),
    # path parameters that float() coerced
    "curve-field50": ("curve", {"path": {"kind": "holder", "alpha": "0.5"}}, "config.path"),
    "curve-field51": ("curve", {"path": {"kind": "holder", "alpha": True}}, "config.path"),
    "diagnose-field52": ("diagnose", {"diagnose": {"path": {"kind": "perturbed",
                                                            "delta": "0.05"}}},
                         "config.diagnose.path"),
    # negative seeds, which numpy rejected under no field
    "bounds-field53": ("bounds", {"seed": -1}, "config.seed"),
    "bounds-field54": ("bounds", {"seeds": [1, -2]}, "config.seeds"),
    "train-field55": ("train", {"training": {"steps": 2, "mmd_every": 1, "mcmc": {"seed": -5}}},
                      "config.training.mcmc.seed"),
    # a dataset's seed and size, which numpy or math.log rejected under no field
    # (two points fit the OLS line exactly)
    "bounds-field56": ("bounds", {"model": "bayes_regression", "model_params": {"seed": -3}},
                       "config.model_params.seed"),
    "bounds-field57": ("bounds", {"model": "bayes_regression", "model_params": {"n": -4}},
                       "config.model_params.n"),
    "bounds-field58": ("bounds", {"model": "bayes_regression", "model_params": {"n": 2}},
                       "config.model_params.n"),
    # a thinning interval longer than the sampled steps, which kept no draw and
    # failed after the whole burn-in with numpy's "need at least one array to stack"
    "train-field59": ("train", {"training": {"steps": 2, "mmd_every": 1, "mcmc": {
                          "steps": 300, "burn_in": 100, "thin": 1000, "chains": 2}}},
                      "config.training.mcmc.thin"),
    # a null seed list, and sample sizes past numpy's largest array and past
    # the address space (1e18, which no machine can allocate)
    "bounds-seeds": ("bounds", {"seeds": None}, "config.seeds"),
    "bounds-sample_size-1e308": ("bounds", {"sample_size": 1e308}, "config.sample_size"),
    "bounds-sample_size-1e18": ("bounds", {"sample_size": 1e18}, "out of memory"),
}


@pytest.mark.parametrize("command, field, expected", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_config_is_an_error_not_a_traceback(tmp_path, capsys, command, field,
                                                       expected):
    seed = {} if command == "oracle" or "seeds" in field else {"seed": 1}
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", **seed, **field})
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {expected}: ")
    assert not out.exists()


def test_integral_floats_are_accepted_as_integers(tmp_path):
    outputs = []
    for numbers in ({"sample_size": 100, "seeds": [1, 2]},
                    {"sample_size": 1e2, "seeds": [1.0, 2e0]}):
        out = tmp_path / f"out{len(outputs)}.csv"
        cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", **numbers,
                                                  "schedule": {"partitions": 4.0}})
        assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text, key", [
    ('"seed": 1, "sample_size": 50, "seed": 3', "seed"),
    ('"seed": 1, "tuning": {"candidates": [0.5], "candidates": [0.1, 0.9]}', "candidates"),
])
def test_duplicate_keys_are_rejected(tmp_path, capsys, text, key):
    # json.load keeps the last of repeated keys, which ran without a word
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "sin_toy", ' + text + "}")
    out = tmp_path / "out.txt"
    assert run_cli(["tune", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: config: duplicate key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("bound_id", ["hbo[nan]", "hbo[inf]", "perturbed_hbo[nan]",
                                      "rvi[0]", "rvi[-1]", "rvi[inf]"])
def test_bad_bound_parameter_fails_before_sampling(tmp_path, capsys, monkeypatch, bound_id):
    drawn = []
    monkeypatch.setattr("hvi.cli.draw_batch", lambda *args: drawn.append(args))
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", "seed": 1,
                                              "bounds": ["elbo", bound_id]})
    assert run_cli(["bounds", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: config.bounds: ")
    assert drawn == []


# json.load accepts these literals; each would fail late under no field, or
# (a NaN learning rate) write a trace flagged as diverged.
_NON_FINITE = [
    ("curve", '"seed": 1, "alphas": [NaN]'),
    ("oracle", '"oracle": {"alphas": [Infinity]}'),
    ("tune", '"seed": 1, "tuning": {"candidates": [0.5, -Infinity]}'),
    ("train", '"seed": 1, "training": {"steps": 2, "learning_rate": NaN}'),
    ("train", '"seed": 1, "training": {"steps": 2, "learning_rate": 1e999}'),
]


@pytest.mark.parametrize("command, text", _NON_FINITE,
                         ids=[f"{case[0]}-number{i}" for i, case in enumerate(_NON_FINITE)])
def test_non_finite_numbers_are_rejected_at_load(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "sin_toy", ' + text + "}")
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: config: non-finite number ")
    assert not out.exists()


# A list shorter than its command needs: each must name its field, not fail
# inside the estimators or, for oracle alphas, silently drop the curves.
_SHORT_LISTS = [
    ("diagnose", {"diagnose": {"betas": [], "replicates": 2}}, "config.diagnose.betas"),
    ("oracle", {"oracle": {"alphas": [0.5], "betas": []}}, "config.oracle.betas"),
    ("oracle", {"oracle": {"alphas": []}}, "config.oracle.alphas"),
    ("tune", {"tuning": {"candidates": [0.5], "betas": []}}, "config.tuning.betas"),
    ("tune", {"tuning": {"method": "bisect", "betas": [0.5]}}, "config.tuning.betas"),
    ("tune", {"tuning": {"candidates": []}}, "config.tuning.candidates"),
]


@pytest.mark.parametrize("command, section, field", _SHORT_LISTS,
                         ids=[f"{case[0]}-list{i}" for i, case in enumerate(_SHORT_LISTS)])
def test_short_list_names_its_field(tmp_path, capsys, command, section, field):
    sampling = {} if command == "oracle" else {"seed": 1, "sample_size": 50}
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", **sampling, **section})
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: must list at least ")
    assert not out.exists()


# A key the command reads only under a condition, given without it: each ran
# and changed nothing.
_CONDITIONAL_KEYS = [
    ("curve", {"alphas": [0.5], "path": {"kind": "perturbed", "delta": 0.05}}, "config.path"),
    ("train", {"training": {"steps": 2, "mcmc": {"chains": 2}}}, "config.training.mcmc"),
    ("train", {"training": {"steps": 2, "mmd_every": 0, "mmd_sample": 100}},
     "config.training.mmd_sample"),
    ("oracle", {"oracle": {"betas": [0.5]}}, "config.oracle.betas"),
    ("bounds", {"bounds": ["hbo[0.5]"],
                "schedule": {"kind": "log", "partitions": 7, "betas": [0, 0.5, 1]}},
     "config.schedule.kind"),
    ("train", {"training": {"bound": "tvo", "steps": 2,
                            "schedule": {"partitions": 7, "betas": [0, 0.5, 1]}}},
     "config.training.schedule.partitions"),
]


@pytest.mark.parametrize("command, data, field", _CONDITIONAL_KEYS,
                         ids=[f"{case[0]}-key{i}" for i, case in enumerate(_CONDITIONAL_KEYS)])
def test_key_read_only_under_a_condition_is_rejected_without_it(tmp_path, capsys, command,
                                                                 data, field):
    sampling = {} if command == "oracle" else {"seed": 1, "sample_size": 50}
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", **sampling, **data})
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: is not read ")
    assert not out.exists()


# Top-level keys each command reads besides model, model_params and out.
_READ_KEYS = {
    "bounds": {"seed", "seeds", "sample_size", "rule", "bounds", "schedule", "tvo_schedule"},
    "curve": {"seed", "seeds", "sample_size", "schedule", "alphas", "path"},
    "tune": {"seed", "seeds", "sample_size", "tuning"},
    "train": {"seed", "seeds", "sample_size", "rule", "training"},
    "diagnose": {"seed", "seeds", "sample_size", "diagnose"},
    "oracle": {"oracle"},
}


@pytest.mark.parametrize("command", sorted(_READ_KEYS))
def test_each_command_rejects_the_keys_it_does_not_read(tmp_path, capsys, command):
    # an accepted but unread key would look like a setting and change nothing
    for key in sorted(set().union(*_READ_KEYS.values()) - _READ_KEYS[command]):
        cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", key: 1})
        assert run_cli([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: config.<root>: unknown keys ['{key}']\n"


# The smallest config on which each command runs.
_MINIMAL = {"bounds": {"seed": 1, "sample_size": 50, "bounds": ["elbo"]},
            "curve": {"seed": 1, "sample_size": 50},
            "tune": {"seed": 1, "sample_size": 50},
            "train": {"seed": 1, "sample_size": 50, "training": {"steps": 2}},
            "diagnose": {"seed": 1, "sample_size": 50,
                         "diagnose": {"replicates": 2, "betas": [0.0, 1.0]}},
            "oracle": {"oracle": {"grid_points": 101}}}


@pytest.mark.parametrize("command", sorted(_READ_KEYS))
def test_echo_holds_only_the_keys_the_command_reads(tmp_path, command):
    # oracle used to echo the rule and sample size it never reads
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", **_MINIMAL[command]})
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", out]) == 0
    echo = json.loads((tmp_path / "out.txt.config.json").read_text())
    assert set(echo) <= {"model", "model_params", "out", "version"} | _READ_KEYS[command]


@pytest.mark.parametrize("tuning, key", [
    ({"method": "grid", "max_iters": 5}, "max_iters"),
    ({"candidates": [0.5], "alpha_lo": 0.1}, "alpha_lo"),
    ({"method": "bisect", "candidates": [0.5]}, "candidates"),
])
def test_tuning_rejects_the_other_methods_keys(tmp_path, capsys, tuning, key):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "sin_toy", "seed": 1, "sample_size": 50, "tuning": tuning})
    assert run_cli(["tune", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: config.tuning: unknown keys ['{key}']\n"


@pytest.mark.parametrize("training, name", [
    ({"bound": "hbo", "delta": 0.3}, "delta"),
    ({"bound": "elbo", "alpha": 0.5}, "alpha"),
])
def test_train_rejects_a_parameter_its_bound_does_not_take(tmp_path, capsys, training, name):
    cfg = write_config(tmp_path, "cfg.json", {"model": "sin_toy", "seed": 1,
                                              "training": {**training, "steps": 2}})
    assert run_cli(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.training.bound: ") and f"takes no {name}" in err


_COMMON_FLAGS = {"--help", "--config", "--out", "--model"}
_SAMPLING_FLAGS = {"--seed", "--sample-size"}


@pytest.mark.parametrize("command, flags", [
    ("bounds", _COMMON_FLAGS | _SAMPLING_FLAGS | {"--rule"}),
    ("curve", _COMMON_FLAGS | _SAMPLING_FLAGS),
    ("tune", _COMMON_FLAGS | _SAMPLING_FLAGS),
    ("train", _COMMON_FLAGS | _SAMPLING_FLAGS | {"--rule"}),
    ("diagnose", _COMMON_FLAGS | _SAMPLING_FLAGS),
    ("oracle", _COMMON_FLAGS),
])
def test_help_lists_exactly_the_flags_the_command_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags


def _readme_cli_table() -> dict:
    """README's CLI table: per command, its top-level config keys and its flags."""
    text = (ROOT / "README.md").read_text()
    table = re.search(r"^\| command .*\n((?:\|.*\n)+)", text, flags=re.MULTILINE).group(1)
    rows = re.findall(r"^\| `([a-z]+)` +\|([^|]*)\|[^|]*\|([^|]*)\|$", table, flags=re.MULTILINE)
    return {command: (set(re.findall(r"`([a-z_]+)`", keys)),
                      set(re.findall(r"`(--[a-z-]+)`", flags)))
            for command, keys, flags in rows}


def test_readme_cli_table_lists_each_commands_keys_and_flags():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    table = {}
    for command, (_, keys) in _COMMANDS.items():
        flags = {option for action in subparsers.choices[command]._actions
                 for option in action.option_strings if option.startswith("--")}
        table[command] = set(keys), flags - _COMMON_FLAGS
    assert _readme_cli_table() == table


@pytest.mark.parametrize("argv", [["oracle", "--seed", 1], ["curve", "--rule", "left"]])
def test_flag_the_command_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor",
        "model_params": {"scale": 2.0},
        "sample_size": 32,
        "seed": 1,
        "bounds": ["elbo"],
    })
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["bounds", "--config", cfg, "--seed", 9, "--out", out_b]) == 0
    _, rows_a = read_csv(out_a)
    _, rows_b = read_csv(out_b)
    assert rows_a[0][0] == "1" and rows_b[0][0] == "9"


def test_seventeen_digit_floats(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "scaled_factor",
        "model_params": {"scale": 2.0},
        "sample_size": 16,
        "seed": 1,
        "bounds": ["elbo"],
    })
    out = tmp_path / "x.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]).hex() == float.fromhex(float(rows[0][1]).hex()).hex()
    assert len(rows[0][1].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_package_binds_only_its_version_and_cli_imports_every_layer():
    # every caller imports a module by name; after `import hvi; import hvi.cli`
    # each layer module is loaded (perfbench's tracer reads them from sys.modules),
    # and no scipy module is: importing scipy.special and scipy.spatial took
    # about two thirds of a CLI process's start-up
    code = ("import json, sys, hvi; names = sorted(vars(hvi)); import hvi.cli; "
            "print(json.dumps([hvi.__version__, names, sorted(sys.modules)]))")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    version, names, modules = json.loads(proc.stdout)
    assert version == "0.1.0"
    assert [name for name in names if not name.startswith("__")] == []
    assert {f"hvi.{layer}" for layer in ("cli", "diagnostics", "estimators", "gradients",
                                         "models", "paths", "tuning", "util")} <= set(modules)
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []


# The README's bounds config (K = 50) and a grid tune at S = 10k.
_README_BOUNDS = {"model": "sin_toy", "sample_size": 1000, "seeds": [1, 2, 3],
                  "bounds": ["elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo", "tvo",
                             "hbo[0.8]"]}
_GRID_TUNE = {"model": "sin_toy", "sample_size": 10000, "seed": 3, "tuning": {"method": "grid"}}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc")
def test_repeated_commands_take_no_page_faults(tmp_path):
    # in a fresh process: in this one, any earlier test that freed a large
    # mapped block has already raised glibc's dynamic thresholds.  Without the
    # policy a bounds call took 2154 minor faults and a tune call 3261.
    calls = [[command, "--config", str(write_config(tmp_path, f"{command}.json", data)),
              "--out", str(tmp_path / f"{command}.out")]
             for command, data in (("bounds", _README_BOUNDS), ("tune", _GRID_TUNE))]
    code = ("import json, resource, sys\n"
            "from hvi.cli import main\n"
            "faults = []\n"
            "for args in json.loads(sys.argv[1]) * 4:\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(args) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(json.dumps(faults[2:]))\n")
    proc = run_python(["-c", code, json.dumps(calls)])
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 6 and max(faults) < 100, faults


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [
    _no_c_library,
    lambda name: types.SimpleNamespace(),  # a libc without mallopt
    lambda name: types.SimpleNamespace(mallopt=lambda option, value: 0),  # one that refuses
], ids=["no_library", "no_mallopt", "mallopt_refuses"])
def test_commands_run_unchanged_without_the_allocator_policy(tmp_path, monkeypatch, cdll):
    cfg = write_config(tmp_path, "cfg.json", {**_README_BOUNDS, "sample_size": 64})
    out = tmp_path / "bounds.csv"
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    expected = out.read_bytes()
    out.unlink()
    looked_up = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: looked_up.append(name) or cdll(name))
    # a fresh cache, so that the policy is looked up again under the patch
    monkeypatch.setattr(cli, "_keep_freed_memory",
                        functools.cache(cli._keep_freed_memory.__wrapped__))
    assert run_cli(["bounds", "--config", cfg, "--out", out]) == 0
    assert looked_up == [None]
    assert out.read_bytes() == expected
