"""Command-line front end: reproducible experiments emitting CSV/JSON.

Subcommands: bounds, curve, tune, train, diagnose, oracle.  Configuration
comes from a JSON file (--config) with flag overrides; each subcommand accepts
only the config keys and offers only the flags it reads, and every estimator
command requires an explicit seed (no wall-clock seeding anywhere).  Outputs
are deterministic byte-for-byte given the same resolved configuration: floats
are written with 17 significant digits and a sorted-key config echo lands next
to each output file.  This is the one module that writes CSV or JSON: library
results are plain data.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import inspect
import io
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import MmdReference, curve_profile, mcmc_reference, mmd
from .estimators import (
    _BOUNDS,
    DEFAULT_PARTITIONS,
    IntegrationRule,
    PartitionSchedule,
    bound_report,
    draw_batch,
    local_evidence_curve,
    parse_bound_id,
)
from .gradients import BoundObjective, train
from .models import (
    MODEL_IDS,
    GridSpec,
    LatentModel,
    make_model,
    quadrature_oracle,
)
from .paths import PathSpec, _check_betas
from .tuning import DEFAULT_TEST_BETAS, _test_betas, tune_alpha_bisect, tune_alpha_grid


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _require(condition: bool, field: str, message: str):
    if not condition:
        raise ValueError(f"config.{field}: {message}")


def _check_keys(obj: dict, allowed: Sequence[str], field: str):
    _require(isinstance(obj, dict), field, "must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"config.{field}: unknown keys {unknown}")


def _read(obj: dict, field: str, cast, default=None):
    """``cast`` of the value at ``field`` (``section.key``) of ``obj``, else ``default``.

    A key without a default is optional: null stands for absent and gives
    None.  A value ``cast`` rejects is reported as ``config.<field>``.
    """
    value = obj.get(field.rpartition(".")[2], default)
    if value is None and default is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config.{field}: {exc}") from None


def _real(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON integer, or a number with an integral value such as 1e4, as an int."""
    if _real(value).is_integer():
        return int(value)
    raise ValueError(f"must be an integer, got {value!r}")


def _at_least(least: int, most: Optional[int] = sys.maxsize):
    """A cast to an integer (see _integer) from ``least`` to ``most`` (None: no bound)."""
    def cast(value) -> int:
        number = _integer(value)
        if number < least:
            raise ValueError(f"must be >= {least}, got {number}")
        if most is not None and number > most:  # by default numpy's largest array dimension
            raise ValueError(f"must be <= {most}, got {value!r}")
        return number
    return cast


def _positive(value) -> float:
    """A positive JSON number as a float."""
    number = _real(value)
    if not number > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return number


def _numbers(value, cast=_real, least=1) -> list:
    """A list of at least ``least`` numbers, each passed through ``cast``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    if len(value) < least:
        raise ValueError(f"must list at least {least} number{'s' * (least > 1)}, "
                         f"got {len(value)}")
    return [cast(v) for v in value]


def _betas(value, least=1) -> list:
    """A list of at least ``least`` temperatures, each checked to lie in [0, 1]."""
    return _check_betas(_numbers(value, least=least)).tolist()


def _path(value) -> PathSpec:
    """A path object: its kind and, as JSON numbers, the alpha or delta that kind takes."""
    if not isinstance(value, dict):
        raise ValueError(f"must be an object with a 'kind', got {value!r}")
    unknown = sorted(set(value) - {"kind", "alpha", "delta"})
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    for name, number in value.items():
        if name != "kind" and (isinstance(number, bool) or not isinstance(number, (int, float))):
            raise TypeError(f"{name} must be a number, got {number!r}")
    return PathSpec(**{"kind": None, **value})


def _distinct_keys(values: list) -> list:
    """``values``, rejected when two of them print as one output key ``f"{v:g}"``."""
    keys = {}
    for value in values:
        key = f"{value:g}"
        if key in keys:
            raise ValueError(f"{keys[key]!r} and {value!r} share the output key {key!r}")
        keys[key] = value
    return values


def _given(obj: dict, field: str, casts: dict) -> dict:
    """Each key of ``casts`` that ``obj`` (at ``field``) gives, cast; null stands for absent."""
    return {key: _read(obj, f"{field}.{key}", cast)
            for key, cast in casts.items() if obj.get(key) is not None}


def _defaults(fn) -> dict:
    """The default of each argument of ``fn``, by name: what a key left out of a table takes."""
    return {name: arg.default for name, arg in inspect.signature(fn).parameters.items()}


def _unread(obj: dict, field: str, reason: str):
    """Reject a key of ``obj`` that the configuration as given does not read."""
    key = field.rpartition(".")[2]
    _require(obj.get(key) is None, field, f"is not read {reason}")


def _schedule_from(obj: Optional[dict], field: str, kind: str,
                   partitions: int = DEFAULT_PARTITIONS) -> Optional[PartitionSchedule]:
    """The configured schedule, missing fields taken from ``kind(partitions)``; None when absent."""
    if obj is None:
        return None
    _check_keys(obj, ("kind", "partitions", "betas"), field)
    custom = _read(obj, f"{field}.betas", lambda betas: PartitionSchedule(_numbers(betas)))
    if custom is not None:
        for key in ("kind", "partitions"):
            _unread(obj, f"{field}.{key}", f"when {field}.betas is given")
        return custom
    kind = obj.get("kind", kind)
    _require(kind in ("uniform", "log"), f"{field}.kind", f"unknown schedule kind {kind!r}")
    build = getattr(PartitionSchedule, kind)
    return _read(obj, f"{field}.partitions", lambda n: build(_integer(n)), partitions)


class ExperimentConfig:
    """Validated union of config-file values and command-line overrides.

    ``keys`` are the top-level keys the command reads besides model,
    model_params and out; any other key is rejected.  ``sample_size`` and
    ``rule`` are resolved, and echoed, only for a command that reads them.
    """

    def __init__(self, data: dict, keys: Sequence[str]):
        _check_keys(data, ("model", "model_params", "out", *keys), "<root>")
        self.data = data
        _require("model" in data, "model", "required")
        _require(data["model"] in MODEL_IDS, "model",
                 f"unknown model {data['model']!r}; expected one of {MODEL_IDS}")
        self.model_id = data["model"]
        _require(isinstance(data.get("model_params", {}), dict), "model_params",
                 "must be an object")
        self.sample_size = _read(data, "sample_size", _at_least(1),
                                 1000 if "sample_size" in keys else None)
        self.rule = _read(data, "rule", IntegrationRule, "left" if "rule" in keys else None)
        self.out = data.get("out")

    def model(self):
        params = self.data.get("model_params", {})
        # every builder parameter is a real number but a dataset's seed and size
        casts = {"seed": _at_least(0, None), "n": _at_least(3)}
        typed = {name: _read(params, f"model_params.{name}", casts.get(name, _real))
                 for name in params if params[name] is not None}
        return _read(self.data, "model_params", lambda _: make_model(self.model_id, typed), {})

    def seeds(self) -> list[int]:
        """The seeds to run: ``seeds`` or ``seed`` (which ``--seed`` sets), never both."""
        data = self.data
        _require("seed" not in data or "seeds" not in data, "seeds",
                 "give seed or seeds, not both")
        if "seeds" in data:
            # a default, so that null is a bad list rather than no seeds
            return _read(data, "seeds", lambda value: _numbers(value, _at_least(0, None)), [])
        seed = _read(data, "seed", _at_least(0, None))
        _require(seed is not None, "seed", "estimator commands require an explicit seed "
                 "(pass --seed or set seed/seeds in the config)")
        return [seed]

    def seed(self) -> int:
        """The seed of a single-run command; a list of several is rejected."""
        seeds = self.seeds()
        _require(len(seeds) == 1, "seeds",
                 f"this command runs one seed, got {len(seeds)}; only bounds takes several")
        return seeds[0]

    def echo(self) -> dict:
        resolved = dict(self.data, version=__version__)
        if self.sample_size is not None:
            resolved.setdefault("sample_size", self.sample_size)
        if self.rule is not None:
            resolved["rule"] = self.rule.value
        return resolved


def _write_output(out: Optional[str], text: str, config_echo: dict):
    """Write fully buffered output plus the config echo; nothing partial on error."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(out + ".config.json", "w", encoding="utf-8") as fh:
        json.dump(config_echo, fh, indent=2, sort_keys=True, default=str, allow_nan=False)
        fh.write("\n")


def _fields(result):
    """A result as JSON data (json's ``default``): a dataclass as its fields, an array a list."""
    # a shallow walk: dataclasses.asdict would deep-copy every array
    return result.tolist() if isinstance(result, np.ndarray) else vars(result)


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def cmd_bounds(cfg: ExperimentConfig, model: LatentModel) -> str:
    bounds = cfg.data.get("bounds", ["elbo", "iw_elbo", "eubo", "wlbo", "wubo", "tvo"])
    _require(isinstance(bounds, list) and bounds and all(isinstance(b, str) for b in bounds),
             "bounds", "must be a non-empty list of bound ids")
    _require(len(set(bounds)) == len(bounds), "bounds", "bound ids must be distinct")
    _read(cfg.data, "bounds", lambda ids: [parse_bound_id(b) for b in ids])
    tvo_schedule = _schedule_from(cfg.data.get("tvo_schedule"), "tvo_schedule",
                                  _BOUNDS["tvo"].knots)
    hbo_schedule = _schedule_from(cfg.data.get("schedule"), "schedule", _BOUNDS["hbo"].knots)
    rows = []
    for seed in cfg.seeds():
        batch = draw_batch(model, cfg.sample_size, seed)
        rows.append([seed, *bound_report(batch, bounds, tvo_schedule, hbo_schedule,
                                         cfg.rule).values()])
    return _csv(["seed"] + list(bounds), rows)


def cmd_curve(cfg: ExperimentConfig, model: LatentModel) -> str:
    schedule = (_schedule_from(cfg.data.get("schedule"), "schedule", "uniform", 20)
                or PartitionSchedule.uniform(20))
    seed = cfg.seed()
    alphas = _read(cfg.data, "alphas", _numbers)
    if alphas is None:  # one curve on ``path``, rows without an alpha column
        curves = [((), _read(cfg.data, "path", _path, {"kind": "geometric"}))]
    else:
        _unread(cfg.data, "path", "when alphas is given (alphas runs holder paths)")
        curves = [((alpha,), PathSpec("holder", alpha=alpha)) for alpha in alphas]
    batch = draw_batch(model, cfg.sample_size, seed)
    rows = [[*lead, *row] for lead, spec in curves  # (beta, value, std err, ESS)
            for row in zip(schedule.betas, *local_evidence_curve(batch, spec, schedule.betas)[:3])]
    return _csv(["alpha"] * (alphas is not None) + ["beta", "value", "std_err", "ess"], rows)


# Per tuning method: the keys of the tuning object it reads besides method and
# betas, and their casts; a bisect key sets the tune_alpha_bisect argument of its name.
_TUNING_KEYS = {"grid": {"candidates": _numbers},
                "bisect": {"alpha_lo": _real, "alpha_hi": _real, "tolerance": _positive,
                           "max_iters": _at_least(1)}}


def cmd_tune(cfg: ExperimentConfig, model: LatentModel) -> str:
    seed = cfg.seed()
    tuning = cfg.data.get("tuning", {})
    _require(isinstance(tuning, dict), "tuning", "must be an object")
    method = tuning.get("method", "grid")
    _require(method in tuple(_TUNING_KEYS), "tuning.method", f"unknown method {method!r}")
    _check_keys(tuning, ("method", "betas", *_TUNING_KEYS[method]), "tuning")
    betas = _read(tuning, "tuning.betas", lambda value: _test_betas(_betas(value, least=2)),
                  DEFAULT_TEST_BETAS)
    if method == "grid":
        candidates = _read(tuning, "tuning.candidates", _numbers, [0.1, 0.3, 0.5, 0.7, 0.9])
        result = tune_alpha_grid(model, candidates, betas, cfg.sample_size, seed)
    else:
        bisect = _given(tuning, "tuning", _TUNING_KEYS["bisect"])
        bracket = {**_defaults(tune_alpha_bisect), **bisect}
        _require(bracket["alpha_lo"] < bracket["alpha_hi"], "tuning.alpha_hi",
                 f"must exceed alpha_lo = {bracket['alpha_lo']:g}")
        result = tune_alpha_bisect(model, betas=betas, sample_size=cfg.sample_size, seed=seed,
                                   **bisect)
    return json.dumps(result, default=_fields, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Keys of training.mcmc: the mcmc_reference argument each sets, and its type.
_MCMC_KEYS = {"chains": _at_least(1), "steps": _integer, "burn_in": _at_least(0),
              "thin": _at_least(1), "step_size": _positive, "seed": _at_least(0, None)}


def cmd_train(cfg: ExperimentConfig, model: LatentModel) -> str:
    seed = cfg.seed()
    training = cfg.data.get("training", {})
    _check_keys(training, ("bound", "alpha", "delta", "schedule", "steps", "learning_rate",
                           "init", "mmd_every", "mmd_sample", "mcmc"), "training")
    params = {key: _read(training, f"training.{key}", _real, 0.0) for key in ("alpha", "delta")}
    # ExperimentConfig checks sample_size, so only the bound and its parameters can fail here
    objective = _read(training, "training.bound", lambda bound: BoundObjective(
        bound=bound, **params, rule=cfg.rule, sample_size=cfg.sample_size), "elbo")
    kind = _BOUNDS[objective.bound].knots  # the default schedule's kind, or the one knot
    if isinstance(kind, str):
        objective = replace(objective, schedule=_schedule_from(
            training.get("schedule"), "training.schedule", kind))
    else:
        _unread(training, "training.schedule", f"by the single-knot bound {objective.bound!r}")
    steps = _read(training, "training.steps", _at_least(0), 100)
    learning_rate = _read(training, "training.learning_rate", _real, 1e-3)
    params0 = _read(training, "training.init", lambda init: model._resolve(_numbers(init)))

    reference = None
    mmd_every = _read(training, "training.mmd_every", _at_least(0), 0)
    if not mmd_every:
        for key in ("mcmc", "mmd_sample"):
            _unread(training, f"training.{key}", "unless training.mmd_every is positive")
    else:
        mcmc_cfg = training.get("mcmc", {})
        _check_keys(mcmc_cfg, tuple(_MCMC_KEYS), "training.mcmc")
        mcmc = _given(mcmc_cfg, "training.mcmc", _MCMC_KEYS)
        sweeps = {**_defaults(mcmc_reference), **mcmc}
        _require(sweeps["steps"] > sweeps["burn_in"], "training.mcmc.steps",
                 f"must exceed burn_in = {sweeps['burn_in']}")
        sampled = sweeps["steps"] - sweeps["burn_in"]
        _require(sweeps["thin"] <= sampled, "training.mcmc.thin",
                 f"must not exceed steps - burn_in = {sampled}")
        mmd_sample = _read(training, "training.mmd_sample", _at_least(1), 2000)
        reference = MmdReference.of(mcmc_reference(model, **{"seed": seed, **mcmc}).pooled)

    trace = train(model, params0, objective, steps, learning_rate, seed)
    names = model.default_params.names
    header = ["step", "objective", *names] + (["mmd"] if reference is not None else [])
    rows = []
    for i in range(len(trace)):
        row = [i, trace.objective[i], *trace.params[i]]  # row i holds step i
        if reference is not None:
            if i % mmd_every == 0 or i == len(trace) - 1:
                draws = model.sample_proposal(np.random.default_rng(seed + 7919 * i),
                                              mmd_sample, trace.params[i])
                row.append(mmd(draws, reference))
            else:
                row.append("")
        rows.append(row)
    text = _csv(header, rows)
    if trace.diverged:
        cause = f"training diverged at step {len(trace)}: {trace.failure}"
        _write_output(cfg.out, text + f"# FAILED: {cause}\n", cfg.echo())
        raise ValueError(f"{cause}; partial trace written with a failure marker")
    return text


def cmd_diagnose(cfg: ExperimentConfig, model: LatentModel) -> str:
    seed = cfg.seed()
    diag = cfg.data.get("diagnose", {})
    _check_keys(diag, ("path", "betas", "replicates"), "diagnose")
    spec = _read(diag, "diagnose.path", _path, {"kind": "geometric"})
    betas = _read(diag, "diagnose.betas", _betas, np.linspace(0.0, 1.0, 21).tolist())
    replicates = _read(diag, "diagnose.replicates", _at_least(2), 50)
    profile = curve_profile(model, spec, betas, cfg.sample_size, replicates, seed)
    rows = np.column_stack([betas, profile.means, profile.variances, profile.mean_ess])
    return _csv(["beta", "mean", "variance", "mean_ess"], rows)


def cmd_oracle(cfg: ExperimentConfig, model: LatentModel) -> str:
    oracle = cfg.data.get("oracle", {})
    _check_keys(oracle, ("grid_points", "alphas", "betas"), "oracle")
    grid = GridSpec(points=_read(oracle, "oracle.grid_points", _at_least(2)))
    alphas = _read(oracle, "oracle.alphas", lambda value: _distinct_keys(_numbers(value)))
    if alphas is None:
        _unread(oracle, "oracle.betas", "without oracle.alphas")
    betas = _read(oracle, "oracle.betas", lambda value: _distinct_keys(_betas(value)),
                  DEFAULT_TEST_BETAS)
    log_marginal, curves = quadrature_oracle(model, alphas or (), betas, grid)
    report = {"model": cfg.model_id, "log_marginal": log_marginal}
    if alphas is not None:
        report["local_evidence"] = {
            f"{a:g}": dict(zip((f"{b:g}" for b in betas), curve.tolist()))
            for a, curve in zip(alphas, curves)
        }
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


_SAMPLING_KEYS = ("seed", "seeds", "sample_size")

# Per command: its handler and the top-level config keys it reads besides
# model, model_params and out.  It offers --seed, --sample-size and --rule
# exactly when seed, sample_size and rule are among them.
_COMMANDS = {
    "bounds": (cmd_bounds, (*_SAMPLING_KEYS, "rule", "bounds", "schedule", "tvo_schedule")),
    "curve": (cmd_curve, (*_SAMPLING_KEYS, "schedule", "alphas", "path")),
    "tune": (cmd_tune, (*_SAMPLING_KEYS, "tuning")),
    "train": (cmd_train, (*_SAMPLING_KEYS, "rule", "training")),
    "diagnose": (cmd_diagnose, (*_SAMPLING_KEYS, "diagnose")),
    "oracle": (cmd_oracle, ("oracle",)),
}


@functools.cache  # one parser per process: nothing mutates it after it is built
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvi",
        description="Thermodynamic variational bounds on Holder paths: "
                    "estimators, tuning, training and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--model", choices=MODEL_IDS, help="model id override")
        if "seed" in keys:
            p.add_argument("--seed", type=int, help="master seed; replaces seed/seeds")
        if "sample_size" in keys:
            p.add_argument("--sample-size", type=int, dest="sample_size")
        if "rule" in keys:
            p.add_argument("--rule", choices=[r.value for r in IntegrationRule])
    return parser


def _finite_float(literal: str) -> float:
    """A JSON number, NaN or (-)Infinity literal as a float, rejected unless finite."""
    value = float(literal)
    if np.isfinite(value):
        return value
    raise ValueError(f"config: non-finite number {literal} is not allowed")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key would silently replace the first."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"config: duplicate key {key!r}")
        data[key] = value
    return data


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float,
                                 object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config: invalid JSON ({exc})") from None
    _require(isinstance(data, dict), "<root>", "must be an object")
    if getattr(args, "seed", None) is not None:
        data.pop("seeds", None)
    for key in ("seed", "out", "model", "sample_size", "rule"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return ExperimentConfig(data, _COMMANDS[args.command][1])


@functools.cache  # once per process: the policy is process-wide
def _keep_freed_memory():
    """Make glibc keep freed heap memory rather than unmap or trim it.

    Each path pass's (K, S) temporaries exceed glibc's 128 KiB mmap threshold,
    so the next pass faulted them in again: about half of an ``hvi bounds`` call.
    Set both thresholds: either alone switches off glibc's dynamic threshold.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD, at its 64-bit maximum
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        text = _COMMANDS[args.command][0](cfg, cfg.model())
        _write_output(cfg.out, text, cfg.echo())
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        kind = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
