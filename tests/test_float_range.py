"""The one float-range rule: a local evidence (or its gradient, or a tuning
std err) beyond the float range is a ValueError that names the path parameter
and beta, raised where the value is formed (``paths._check_float_range``), and
never a numpy warning.  Every command and library route inherits it, and a
training run it stops names the step and the cause."""

import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest

from hvi import models, paths
from hvi.cli import main
from hvi.estimators import PartitionSchedule, _form_value, _path_form, bound_report, draw_batch
from hvi.gradients import BoundObjective, train
from hvi.paths import PathSpec
from hvi.tuning import tune_alpha_grid
from oracles import conjugate_exact_log_marginal, path_step

# bayes_regression at S = 2000, seed 5: the alpha = 3 local evidence reads
# -inf at beta = 1, and at alpha = 1.5 its std err overflows
_BEYOND = {"model": "bayes_regression", "sample_size": 2000, "seed": 5}

_MODEL_PARAMS = {"bayes_regression": {}, "conjugate_gaussian": {"sigma": 1.0, "x_obs": 0.0},
                 "ring": {}, "scaled_factor": {"scale": 2.0}, "sin_toy": {}}


@pytest.fixture
def bayes_batch():
    model = models.make_model("bayes_regression")
    return model, draw_batch(model, 500, 11)


def _run(tmp_path, capsys, config, *flags, command="bounds"):
    """(exit code, stdout, stderr) of one command under warnings-as-errors."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(cfg), *map(str, flags)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("spec, values, betas, where", [
    (PathSpec("geometric"), [1.0, np.inf], [0.2, 0.7], "beta = 0.7 reads inf"),
    (PathSpec("perturbed", delta=0.05), [[1.0, 2.0], [3.0, 4.0], [-np.inf, np.nan]],
     [0.0, 0.5, 1.0], "delta = 0.05, beta = 1 reads -inf"),
    (PathSpec("holder", alpha=1.5), [np.nan], None, "alpha = 1.5 reads nan"),
])
def test_the_rule_names_the_path_parameter_and_beta(spec, values, betas, where):
    # one row of values per beta; a finite array passes through as it is
    with pytest.raises(ValueError, match=f"^local evidence at {re.escape(where)}: "
                                         "beyond the float range$"):
        paths._check_float_range(spec, np.array(values), betas)
    finite = np.nan_to_num(np.array(values))
    assert paths._check_float_range(spec, finite, betas) is finite


def test_tune_beyond_the_float_range_is_an_error_and_writes_no_json(tmp_path, capsys):
    out = tmp_path / "tune.json"
    code, _, err = _run(tmp_path, capsys, {**_BEYOND, "tuning": {"candidates": [0.5, 3]}},
                        "--out", out, command="tune")
    assert code == 1
    assert err == ("error: local evidence at alpha = 3, beta = 1 reads -inf: "
                   "beyond the float range\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:perturbed path")
@pytest.mark.parametrize("bound, where", [
    ("hbo[-1e308]", "alpha = -1e+308, beta = 0 reads nan"),
    ("perturbed_hbo[1e308]", "delta = 1e+308, beta = 0.02 reads inf"),
])
def test_an_overflowed_path_names_its_parameter_and_beta(bound, where):
    # alpha f (or delta f^2) beyond the float range leaves a row of weights
    # with no finite top: the path math overflowed, no weight vanished
    batch = draw_batch(models.make_sin_toy(), 1000, 1)
    with pytest.raises(ValueError, match=f"^largest log weight at {re.escape(where)}: "
                                         "beyond the float range$"):
        bound_report(batch, [bound])


def test_an_overflowed_std_err_does_not_make_a_curve_flat():
    # the slope, -2.85e154, is finite, but its std err reads inf, and
    # |slope| <= 3 inf called the curve flat
    with pytest.raises(ValueError, match=r"at alpha = 1\.5, .*beyond the float range"):
        tune_alpha_grid(models.make_model("bayes_regression"), [1.5], sample_size=2000, seed=5)


def test_gradient_beyond_the_float_range_is_a_named_error(bayes_batch):
    model, batch = bayes_batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^local evidence at alpha = 3, beta = 1 reads "
                                             r"-inf: beyond the float range$"):
            path_step(model, _path_form(PathSpec("holder", alpha=3.0), [1.0], [1.0]), batch)


def test_gradient_with_an_overflowed_std_err_keeps_finite_terms(bayes_batch):
    # the terms are about 1e165, so their squares overflow: the std err reads
    # inf, and "overflow encountered in square" reached the caller
    model, batch = bayes_batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = path_step(model, _path_form(PathSpec("holder", alpha=-0.5), [0.0], [1.0]), batch)[1]
    assert np.all(np.isfinite(grad.term_i)) and np.all(np.isfinite(grad.term_ii))
    assert np.all(grad.std_err == np.inf)


def test_bounds_reads_only_the_knots_its_rule_weights(tmp_path, capsys):
    # uniform(2) has knots 0, 0.5 and 1; the left rule gives beta = 1 weight 0,
    # and 0 * -inf read nan there
    config = {**_BEYOND, "bounds": ["hbo[3]"], "schedule": {"kind": "uniform", "partitions": 2}}
    code, out, _ = _run(tmp_path, capsys, config)
    assert code == 0
    objective = BoundObjective(bound="hbo", alpha=3, schedule=PartitionSchedule.uniform(2))
    batch = draw_batch(models.make_model("bayes_regression"), 2000, 5)
    assert float(out.splitlines()[1].split(",")[1]) == _form_value(batch, objective._form)
    code, out, err = _run(tmp_path, capsys, config, "--rule", "right")
    assert (code, out) == (1, "")
    assert err.endswith("at alpha = 3, beta = 1 reads -inf: beyond the float range\n")


def test_train_writes_no_row_beyond_the_float_range():
    # the first step's value reads -inf; that row was kept before the run stopped
    objective = BoundObjective(bound="hbo", alpha=3.0, schedule=PartitionSchedule.uniform(2),
                               rule="right", sample_size=2000)
    trace = train(models.make_model("bayes_regression"), None, objective, 10, 1e-3, 0)
    assert trace.diverged and len(trace) == 0


_SWEEP_BOUNDS = ["elbo", "iw_elbo", "rvi[3]", "eubo", "wlbo", "wubo", "tvo", "hbo[3]",
                 "hbo[-0.5]", "perturbed_hbo[0.05]"]
_SWEEP_SPECS = [PathSpec("holder", alpha=3.0), PathSpec("holder", alpha=-0.5),
                PathSpec("holder", alpha=1.5), PathSpec("perturbed", delta=0.05)]


def test_every_bound_and_gradient_is_finite_or_a_named_error(tmp_path, capsys):
    # every built-in model: each bound under both rules, and each gradient at
    # both ends and the middle of the path, either is finite or names the rule
    errors = []
    for model_id, params in _MODEL_PARAMS.items():
        for bound in _SWEEP_BOUNDS:
            config = {**_BEYOND, "model": model_id, "model_params": params, "bounds": [bound]}
            for rule in ("left", "right"):
                code, out, err = _run(tmp_path, capsys, config, "--rule", rule)
                if code == 0:
                    assert math.isfinite(float(out.splitlines()[1].split(",")[1]))
                else:
                    assert code == 1 and "beyond the float range" in err, err
                    errors.append((model_id, bound, rule))
        model = models.make_model(model_id, params)
        batch = draw_batch(model, 500, 11)
        for spec in _SWEEP_SPECS:
            for beta in (0.0, 0.5, 1.0):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        grad = path_step(model, _path_form(spec, [beta], [1.0]), batch)[1]
                except ValueError as exc:
                    assert "beyond the float range" in str(exc), exc
                    errors.append((model_id, spec, beta))
                else:
                    assert np.all(np.isfinite(grad.total)), (model_id, spec, beta)
    assert ("bayes_regression", "hbo[3]", "right") in errors
    assert ("bayes_regression", PathSpec("holder", alpha=3.0), 1.0) in errors


# Every cause that may stop a training run, as the run names it.
_CAUSES = re.compile(r"training diverged at step \d+: (non-finite parameters"
                     r"|log_(proposal|target|ratio) reads (nan|-?inf) at \d+ of 200 samples"
                     r"|all importance weights vanished; cannot self-normalize"
                     r"|.* reads \S+: beyond the float range)")

_TRAINING_BOUNDS = [{"bound": "elbo"}, {"bound": "eubo"}, {"bound": "wlbo"}, {"bound": "wubo"},
                    {"bound": "tvo"}, {"bound": "hbo", "alpha": 3.0},
                    {"bound": "hbo", "alpha": -0.5}, {"bound": "perturbed_hbo", "delta": 0.05}]


@pytest.mark.parametrize("learning_rate", [1e-3, 1e2])
def test_every_training_run_finishes_or_names_its_cause(tmp_path, capsys, learning_rate):
    # every built-in model and path bound, a few steps each: a run that stops
    # says at which step and why, in its marker and its error line alike
    causes = {}
    for model_id, params in _MODEL_PARAMS.items():
        for training in _TRAINING_BOUNDS:
            out = tmp_path / "trace.csv"
            config = {"model": model_id, "model_params": params, "sample_size": 200, "seed": 5,
                      "training": {**training, "steps": 3, "learning_rate": learning_rate}}
            code, _, err = _run(tmp_path, capsys, config, "--out", out, command="train")
            marker = out.read_text().splitlines()[-1]
            if code == 0:
                assert not err and not marker.startswith("#")
                continue
            assert code == 1 and marker.startswith("# FAILED: ")
            cause = marker[len("# FAILED: "):]
            assert _CAUSES.fullmatch(cause), cause
            assert err == f"error: {cause}; partial trace written with a failure marker\n"
            causes[model_id, training["bound"], training.get("alpha")] = cause
    # the arithmetic-mean lower bound cannot take a step on this model
    assert ("bayes_regression", "wlbo", None) in causes


# The model-parameter sweep's runs, by command (its first word): settings at tiny sizes.
_COMMAND_CONFIGS = {
    "bounds": {"seed": 1, "sample_size": 20},
    "curve": {"seed": 1, "sample_size": 20, "schedule": {"partitions": 2}},
    "tune": {"seed": 1, "sample_size": 20, "tuning": {"candidates": [0.5]}},
    "train": {"seed": 1, "sample_size": 20, "training": {"steps": 2}},
    "train with mmd": {"seed": 1, "sample_size": 20,
                       "training": {"steps": 2, "mmd_every": 1, "mmd_sample": 10,
                                    "mcmc": {"chains": 2, "steps": 150, "burn_in": 50}}},
    "diagnose": {"seed": 1, "sample_size": 20,
                 "diagnose": {"betas": [0.0, 1.0], "replicates": 2}},
    "oracle": {"oracle": {"grid_points": 11}},
}


def _extreme_values(default):
    """Values past a model parameter's usual range: a dataset's seed and size take small
    integers and a non-integer (a large size would allocate a dataset), the rest reals."""
    return (-1, 0, 2.5) if isinstance(default, int) else (1e300, -1e300, 1e-300)


def test_every_extreme_model_parameter_is_a_run_or_one_error_line(tmp_path, capsys):
    # each parameter of each built-in model at extreme values, through every
    # command: a numpy warning (an error here) or a traceback fails the case
    assert sorted(models._BUILDERS) == sorted(_MODEL_PARAMS)
    failures = []
    for model_id, builder in models._BUILDERS.items():
        for name, param in inspect.signature(builder).parameters.items():
            default = _MODEL_PARAMS[model_id].get(name, param.default)
            for value in _extreme_values(default):
                params = {**_MODEL_PARAMS[model_id], name: value}
                for run, settings in _COMMAND_CONFIGS.items():
                    case = (model_id, name, value, run)
                    config = {"model": model_id, "model_params": params, **settings}
                    try:
                        code, _, err = _run(tmp_path, capsys, config, command=run.split()[0])
                    except Exception as exc:  # a warning or traceback fails the case
                        capsys.readouterr()
                        failures.append((*case, repr(exc)))
                        continue
                    if not (code == 0 and not err
                            or code == 1 and err.startswith("error: ") and err.count("\n") == 1):
                        failures.append((*case, code, err))
    assert not failures, f"{len(failures)} cases: {failures}"


# Path parameters past their usual range: their largest and smallest magnitudes
# of either sign, and the least subnormal.
_EXTREME_PARAMETERS = (1e308, -1e308, 1e-300, -1e-300, 5e-324)


def _path_parameter_runs(value):
    """(command, settings) of each run that reads ``value`` as a path parameter: rvi
    takes only a positive one, and a perturbed path one within its guard."""
    holder, perturbed = {"kind": "holder", "alpha": value}, {"kind": "perturbed", "delta": value}
    diagnose = {"betas": [0.0, 1.0], "replicates": 2}
    runs = [("bounds", {"bounds": [f"hbo[{value!r}]"]}),
            ("curve", {"alphas": [value], "schedule": {"partitions": 2}}),
            ("tune", {"tuning": {"candidates": [value]}}),
            ("diagnose", {"diagnose": {"path": holder, **diagnose}}),
            ("oracle", {"oracle": {"alphas": [value], "grid_points": 11}}),
            ("train", {"training": {"bound": "hbo", "alpha": value, "steps": 2}})]
    if value > 0:
        runs.append(("bounds", {"bounds": [f"rvi[{value!r}]"]}))
    if abs(value) <= paths.PERTURBATION_GUARD:
        runs += [("bounds", {"bounds": [f"perturbed_hbo[{value!r}]"]}),
                 ("diagnose", {"diagnose": {"path": perturbed, **diagnose}}),
                 ("train", {"training": {"bound": "perturbed_hbo", "delta": value, "steps": 2}})]
    return runs


def test_every_extreme_path_parameter_is_a_run_or_one_error_line(tmp_path, capsys):
    # each built-in model with every command that takes a path parameter: a
    # numpy warning (an error here) or a traceback fails the case, and so does
    # an rvi at a tiny alpha that does not read mean f + (alpha / 2) var f
    failures = []
    for model_id, params in _MODEL_PARAMS.items():
        batch = draw_batch(models.make_model(model_id, params), 20, 1)
        series = batch.log_ratio.mean(), 0.5 * batch.log_ratio.var()
        for value in _EXTREME_PARAMETERS:
            for command, settings in _path_parameter_runs(value):
                case = (model_id, command, settings)
                sampling = {} if command == "oracle" else {"seed": 1, "sample_size": 20}
                config = {"model": model_id, "model_params": params, **sampling, **settings}
                try:
                    code, out, err = _run(tmp_path, capsys, config, command=command)
                except Exception as exc:  # a warning or traceback fails the case
                    capsys.readouterr()
                    failures.append((*case, repr(exc)))
                    continue
                if not (code == 0 and not err
                        or code == 1 and err.startswith("error: ") and err.count("\n") == 1):
                    failures.append((*case, code, err))
                elif code == 0 and value <= 1e-10 and settings.get("bounds") == [f"rvi[{value!r}]"]:
                    rvi = float(out.splitlines()[1].split(",")[1])
                    if not math.isclose(rvi, series[0] + value * series[1], rel_tol=1e-13):
                        failures.append((*case, rvi, series))
    assert not failures, f"{len(failures)} cases: {failures}"


@pytest.mark.parametrize("sigma", [1e300, 1e160, 1e-160, 1e-300, 0.0])
def test_conjugate_sigma_names_its_range(tmp_path, capsys, sigma):
    # sigma**2 overflowed at 1e160 in Python's words, "(34, 'Numerical result out
    # of range')", 1e-300 gave "math domain error", and at 1e-160 a subnormal
    # sigma**2 skewed the proposal: the elbo read -1.04394410 against -1.04393853
    message = ("sigma must lie in [1.5e-154, 1.3e154] so that sigma**2 is a normal float, "
               f"got {sigma:g}")
    params = {"sigma": sigma, "x_obs": 0.0}
    for run, settings in _COMMAND_CONFIGS.items():
        config = {"model": "conjugate_gaussian", "model_params": params, **settings}
        code, out, err = _run(tmp_path, capsys, config, command=run.split()[0])
        assert (code, out, err) == (1, "", f"error: config.model_params: {message}\n"), run


@pytest.mark.parametrize("sigma", [1e-9, 1.5e-154])
def test_a_grid_finer_than_its_floats_is_one_error_line(tmp_path, capsys, sigma):
    # cells of a few ulps of post_mean put log p off by up to 4.7e-8 relative
    config = {"model": "conjugate_gaussian", "model_params": {"sigma": sigma, "x_obs": 0.5}}
    code, out, err = _run(tmp_path, capsys, config, command="oracle")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: quadrature interval \[\S+, \S+\] is too narrow or not finite "
                        r"for 20001 points: a cell must span 2\^20 ulps of its ends\n", err), err


def test_conjugate_sigma_at_the_ends_of_its_range_is_exact(tmp_path, capsys):
    # the proposal is the exact posterior, so the elbo reads log p
    for sigma in models._SIGMA_RANGE:
        config = {"model": "conjugate_gaussian", "model_params": {"sigma": sigma, "x_obs": 0.5},
                  "seed": 1, "sample_size": 100, "bounds": ["elbo"]}
        code, out, err = _run(tmp_path, capsys, config)
        assert (code, err) == (0, "")
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
            conjugate_exact_log_marginal(sigma, 0.5), rel=1e-13, abs=0.0)
