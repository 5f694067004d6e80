import json
import math
import re

import numpy as np
import pytest

from hvi.cli import main
from hvi.estimators import PartitionSchedule
from hvi.gradients import BoundObjective, train
from hvi.models import make_conjugate_gaussian, make_sin_toy, quadrature_local_evidence
from hvi.tuning import DEFAULT_TEST_BETAS


def run_cli(args):
    return main([str(a) for a in args])


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
    assert "diverged" in capsys.readouterr().err
    assert out.read_text().rstrip().endswith(
        "# FAILED: training diverged (non-finite parameters or objective)")


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


def test_oracle_evaluates_the_grid_once(tmp_path, monkeypatch):
    from hvi import models

    calls = []
    grid = models.quadrature_grid
    monkeypatch.setattr(models, "quadrature_grid", lambda *args: calls.append(1) or grid(*args))
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "ring", "oracle": {"grid_points": 101, "alphas": [0.0, 0.5, 1.0]}})
    assert run_cli(["oracle", "--config", cfg, "--out", tmp_path / "o.json"]) == 0
    assert len(calls) == 1


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


# One malformed field per command: each must end in an error line that names
# the field, not a traceback.
_MALFORMED = [
    ("bounds", {"sample_size": None}, "config.sample_size"),
    ("curve", {"schedule": 5}, "config.schedule"),
    ("tune", {"tuning": {"candidates": 0.5}}, "config.tuning.candidates"),
    ("train", {"training": 5}, "config.training"),
    ("diagnose", {"diagnose": {"replicates": None}}, "config.diagnose.replicates"),
    ("oracle", {"oracle": {"alphas": 0.5}}, "config.oracle.alphas"),
    ("bounds", {"bounds": [None]}, "config.bounds"),
    ("oracle", {"oracle": {"grid_points": "x"}}, "config.oracle.grid_points"),
    ("train", {"training": {"mmd_every": -1, "steps": 2}}, "config.training.mmd_every"),
    ("train", {"training": {"init": [], "steps": 2}}, "config.training.init"),
    ("bounds", {"bounds": ["hbo[nan]"]}, "config.bounds"),
    ("bounds", {"bounds": ["hbo[inf]"]}, "config.bounds"),
    ("bounds", {"bounds": ["perturbed_hbo[nan]"]}, "config.bounds"),
    ("bounds", {"bounds": ["rvi[0]"]}, "config.bounds"),
    ("bounds", {"bounds": ["rvi[-1]"]}, "config.bounds"),
    ("bounds", {"bounds": ["rvi[inf]"]}, "config.bounds"),
    ("tune", {"tuning": {"betas": [0, 2]}}, "config.tuning.betas"),
    ("diagnose", {"diagnose": {"betas": [0, 2]}}, "config.diagnose.betas"),
    ("oracle", {"oracle": {"alphas": [0.5], "betas": [-1]}}, "config.oracle.betas"),
    ("train", {"training": {"learning_rate": 10 ** 400, "steps": 2}},
     "config.training.learning_rate"),
    # integer settings that int() truncated or coerced, and float settings
    # that float() coerced
    ("bounds", {"sample_size": 100.9}, "config.sample_size"),
    ("bounds", {"seed": 1.7}, "config.seed"),
    ("bounds", {"sample_size": "100"}, "config.sample_size"),
    ("bounds", {"sample_size": True}, "config.sample_size"),
    ("bounds", {"seeds": [1.5, 2]}, "config.seeds"),
    ("bounds", {"schedule": {"partitions": 10.7}}, "config.schedule.partitions"),
    ("bounds", {"schedule": {"betas": [False, True]}}, "config.schedule.betas"),
    ("curve", {"alphas": [True]}, "config.alphas"),
    ("train", {"training": {"learning_rate": "1e-3", "steps": 2}},
     "config.training.learning_rate"),
    ("train", {"training": {"steps": True}}, "config.training.steps"),
    ("oracle", {"oracle": {"grid_points": 101.5}}, "config.oracle.grid_points"),
    # model parameters that the builders coerced
    ("oracle", {"model": "conjugate_gaussian", "model_params": {"sigma": True, "x_obs": 0.0}},
     "config.model_params.sigma"),
    ("oracle", {"model": "conjugate_gaussian", "model_params": {"sigma": 1.0, "x_obs": "0"}},
     "config.model_params.x_obs"),
    ("bounds", {"model": "bayes_regression", "model_params": {"n": 20.5}},
     "config.model_params.n"),
]


@pytest.mark.parametrize("command, field, expected", _MALFORMED,
                         ids=[f"{case[0]}-field{i}" for i, case in enumerate(_MALFORMED)])
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
