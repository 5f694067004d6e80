"""Command-line front end: reproducible experiments emitting CSV/JSON.

Subcommands: bounds, curve, tune, train, diagnose, oracle.  Configuration
comes from a JSON file (--config) with flag overrides; each subcommand offers
only the flags it reads, and every estimator command requires an explicit seed
(no wall-clock seeding anywhere).  Outputs are deterministic byte-for-byte
given the same resolved configuration: floats are written with 17 significant
digits and a sorted-key config echo lands next to each output file.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import curve_profile, mcmc_reference, mmd
from .estimators import (
    IntegrationRule,
    PartitionSchedule,
    _bound_schedule,
    bound_report,
    draw_batch,
    local_evidence_curve,
    parse_bound_id,
)
from .gradients import BoundObjective, train
from .models import (
    MODEL_IDS,
    GridSpec,
    make_model,
    quadrature_local_evidence_curve,
    quadrature_log_marginal,
)
from .paths import PathSpec
from .tuning import DEFAULT_TEST_BETAS, tune_alpha_bisect, tune_alpha_grid


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class ComputationFailure(RuntimeError):
    """A command produced flagged output; carries the marker-bearing text."""

    def __init__(self, message: str, text: str):
        super().__init__(message)
        self.text = text


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _require(condition: bool, field: str, message: str):
    if not condition:
        raise ConfigError(f"config.{field}: {message}")


def _check_keys(obj: dict, allowed: Sequence[str], field: str):
    _require(isinstance(obj, dict), field, "must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"config.{field}: unknown keys {unknown}")


def _schedule_from(obj: Optional[dict], field: str,
                   default: Optional[PartitionSchedule]) -> Optional[PartitionSchedule]:
    """The configured schedule, missing fields taken from ``default``; ``default`` when absent."""
    if obj is None:
        return default
    _check_keys(obj, ("kind", "partitions", "betas"), field)
    if "betas" in obj:
        return PartitionSchedule(np.asarray(obj["betas"], dtype=float))
    kind = obj.get("kind", default.kind)
    _require(kind in ("uniform", "log"), f"{field}.kind", f"unknown schedule kind {kind!r}")
    return getattr(PartitionSchedule, kind)(int(obj.get("partitions", default.partitions)))


def _path_from(obj, field: str) -> PathSpec:
    try:
        return PathSpec.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config.{field}: {exc}") from None


_TOP_KEYS = (
    "model", "model_params", "seed", "seeds", "sample_size", "schedule",
    "tvo_schedule", "rule", "bounds", "path", "alphas", "tuning", "training",
    "diagnose", "oracle", "out",
)


class ExperimentConfig:
    """Validated union of config-file values and command-line overrides."""

    def __init__(self, data: dict):
        _check_keys(data, _TOP_KEYS, "<root>")
        self.data = data
        _require("model" in data, "model", "required")
        _require(data["model"] in MODEL_IDS, "model",
                 f"unknown model {data['model']!r}; expected one of {MODEL_IDS}")
        self.model_id = data["model"]
        self.model_params = data.get("model_params", {})
        _require(isinstance(self.model_params, dict), "model_params", "must be an object")
        self.sample_size = int(data.get("sample_size", 1000))
        _require(self.sample_size >= 1, "sample_size", "must be >= 1")
        self.rule = IntegrationRule.parse(data.get("rule", "left"))
        self.out = data.get("out")

    def model(self):
        try:
            return make_model(self.model_id, self.model_params)
        except ValueError as exc:
            raise ConfigError(f"config.model_params: {exc}") from None

    def seeds(self) -> list[int]:
        """The seeds to run: ``seeds``, else ``seed`` (which ``--seed`` sets)."""
        data = self.data
        if "seeds" in data:
            seeds = data["seeds"]
            _require(isinstance(seeds, list) and len(seeds) > 0, "seeds",
                     "must be a non-empty list of integers")
            return [int(s) for s in seeds]
        _require("seed" in data, "seed", "estimator commands require an explicit seed "
                 "(pass --seed or set seed/seeds in the config)")
        return [int(data["seed"])]

    def seed(self) -> int:
        """The seed of a single-run command; a list of several is rejected."""
        seeds = self.seeds()
        _require(len(seeds) == 1, "seeds",
                 f"this command runs one seed, got {len(seeds)}; only bounds takes several")
        return seeds[0]

    def echo(self) -> dict:
        resolved = dict(self.data)
        resolved.setdefault("sample_size", self.sample_size)
        resolved["rule"] = self.rule.value
        resolved["version"] = __version__
        return resolved


def _write_output(out: Optional[str], text: str, config_echo: dict):
    """Write fully buffered output plus the config echo; nothing partial on error."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(out + ".config.json", "w", encoding="utf-8") as fh:
        json.dump(config_echo, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def cmd_bounds(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    bounds = cfg.data.get("bounds", ["elbo", "iw_elbo", "eubo", "wlbo", "wubo", "tvo"])
    _require(isinstance(bounds, list) and bounds and all(isinstance(b, str) for b in bounds),
             "bounds", "must be a non-empty list of bound ids")
    _require(len(set(bounds)) == len(bounds), "bounds", "bound ids must be distinct")
    for b in bounds:
        try:
            parse_bound_id(b)
        except ValueError as exc:
            raise ConfigError(f"config.bounds: {exc}") from None
    tvo_schedule = _schedule_from(cfg.data.get("tvo_schedule"), "tvo_schedule",
                                  _bound_schedule("tvo"))
    hbo_schedule = _schedule_from(cfg.data.get("schedule"), "schedule", _bound_schedule("hbo"))
    rows = []
    for seed in cfg.seeds():
        batch = draw_batch(model, cfg.sample_size, seed)
        report = bound_report(batch, bounds, tvo_schedule, hbo_schedule, cfg.rule)
        rows.append([seed] + report.csv_row())
    return _csv(["seed"] + list(bounds), rows)


def cmd_curve(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    schedule = _schedule_from(cfg.data.get("schedule"), "schedule", PartitionSchedule.uniform(20))
    seed = cfg.seed()
    batch = draw_batch(model, cfg.sample_size, seed)
    alphas = cfg.data.get("alphas")
    rows = []
    if alphas is not None:
        _require(isinstance(alphas, list) and alphas, "alphas", "must be a non-empty list")
        for alpha in alphas:
            curve = local_evidence_curve(batch, PathSpec.holder(float(alpha)), schedule.betas)
            for beta, est in zip(schedule.betas, curve):
                rows.append([float(alpha), beta, est.value, est.std_err, est.ess])
        return _csv(["alpha", "beta", "value", "std_err", "ess"], rows)
    spec = _path_from(cfg.data.get("path", {"kind": "geometric"}), "path")
    curve = local_evidence_curve(batch, spec, schedule.betas)
    for beta, est in zip(schedule.betas, curve):
        rows.append([beta, est.value, est.std_err, est.ess])
    return _csv(["beta", "value", "std_err", "ess"], rows)


def cmd_tune(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    seed = cfg.seed()
    tuning = cfg.data.get("tuning", {})
    _check_keys(tuning, ("method", "candidates", "betas", "alpha_lo", "alpha_hi",
                         "tolerance", "max_iters"), "tuning")
    method = tuning.get("method", "grid")
    betas = tuning.get("betas", DEFAULT_TEST_BETAS)
    if method == "grid":
        candidates = tuning.get("candidates", [0.1, 0.3, 0.5, 0.7, 0.9])
        result = tune_alpha_grid(model, candidates, betas, cfg.sample_size, seed)
    elif method == "bisect":
        result = tune_alpha_bisect(
            model,
            alpha_lo=float(tuning.get("alpha_lo", 0.05)),
            alpha_hi=float(tuning.get("alpha_hi", 0.95)),
            betas=betas,
            sample_size=cfg.sample_size,
            tolerance=float(tuning.get("tolerance", 0.02)),
            max_iters=int(tuning.get("max_iters", 20)),
            seed=seed,
        )
    else:
        raise ConfigError(f"config.tuning.method: unknown method {method!r}")
    return json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"


def cmd_train(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    seed = cfg.seed()
    training = cfg.data.get("training", {})
    _check_keys(training, ("bound", "alpha", "delta", "schedule", "rule", "steps",
                           "learning_rate", "init", "mmd_every", "mmd_sample",
                           "mcmc"), "training")
    alpha = float(training.get("alpha", 0.0))
    delta = float(training.get("delta", 0.0))
    rule = IntegrationRule.parse(training.get("rule", cfg.rule))
    try:
        # ExperimentConfig checks sample_size, so only the bound name can fail here
        objective = BoundObjective(bound=training.get("bound", "elbo"), alpha=alpha,
                                   delta=delta, rule=rule, sample_size=cfg.sample_size)
    except ValueError as exc:
        raise ConfigError(f"config.training.bound: {exc}") from None
    schedule, default = training.get("schedule"), _bound_schedule(objective.bound)
    if schedule is not None and default is None:
        raise ConfigError(f"config.training.schedule: bound {objective.bound!r} has a "
                          "single knot and takes no schedule")
    objective = replace(objective, schedule=_schedule_from(
        schedule, "training.schedule", default))
    steps = int(training.get("steps", 100))
    learning_rate = float(training.get("learning_rate", 1e-3))
    init = training.get("init")
    params0 = np.asarray(init, dtype=float) if init is not None else None

    reference = None
    mmd_every = int(training.get("mmd_every", 0))
    if mmd_every:
        mcmc_cfg = training.get("mcmc", {})
        _check_keys(mcmc_cfg, ("chains", "steps", "burn_in", "thin", "step_size", "seed"),
                    "training.mcmc")
        reference = mcmc_reference(model, **{"seed": seed, **mcmc_cfg}).pooled
    mmd_sample = int(training.get("mmd_sample", 2000))

    trace = train(model, params0, objective, steps, learning_rate, seed)
    names = model.default_params.names
    header = ["step", "objective", *names] + (["mmd"] if reference is not None else [])
    rows = []
    for i in range(len(trace)):
        row = [int(trace.steps[i]), trace.objective[i], *trace.params[i]]
        if reference is not None:
            if trace.steps[i] % mmd_every == 0 or i == len(trace) - 1:
                draws = model.sample_proposal(
                    np.random.default_rng(seed + 7919 * int(trace.steps[i])),
                    mmd_sample, trace.params[i])
                row.append(mmd(draws, reference))
            else:
                row.append("")
        rows.append(row)
    text = _csv(header, rows)
    if trace.diverged:
        text += "# FAILED: training diverged (non-finite parameters or objective)\n"
        raise ComputationFailure("training diverged; partial trace written with "
                                 "a failure marker", text)
    return text


def cmd_diagnose(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    seed = cfg.seed()
    diag = cfg.data.get("diagnose", {})
    _check_keys(diag, ("path", "betas", "replicates"), "diagnose")
    spec = _path_from(diag.get("path", {"kind": "geometric"}), "diagnose.path")
    betas = diag.get("betas", np.linspace(0.0, 1.0, 21).tolist())
    replicates = int(diag.get("replicates", 50))
    profile = curve_profile(model, spec, betas, cfg.sample_size, replicates, seed)
    rows = [
        [profile.betas[i], profile.means[i], profile.variances[i], profile.mean_ess[i]]
        for i in range(profile.betas.size)
    ]
    return _csv(["beta", "mean", "variance", "mean_ess"], rows)


def cmd_oracle(cfg: ExperimentConfig) -> str:
    model = cfg.model()
    oracle = cfg.data.get("oracle", {})
    _check_keys(oracle, ("grid_points", "alphas", "betas"), "oracle")
    grid = GridSpec(points=oracle.get("grid_points"))
    report = {
        "model": cfg.model_id,
        "log_marginal": quadrature_log_marginal(model, grid),
    }
    alphas = oracle.get("alphas")
    if alphas:
        betas = [float(b) for b in oracle.get("betas", DEFAULT_TEST_BETAS)]
        report["local_evidence"] = {
            f"{float(a):g}": dict(zip(
                (f"{b:g}" for b in betas),
                quadrature_local_evidence_curve(model, float(a), betas, grid).tolist()))
            for a in alphas
        }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# Per command: its handler, whether it draws samples (and so offers --seed and
# --sample-size), and whether it reads cfg.rule (and so offers --rule).
_COMMANDS = {
    "bounds": (cmd_bounds, True, True),
    "curve": (cmd_curve, True, False),
    "tune": (cmd_tune, True, False),
    "train": (cmd_train, True, True),
    "diagnose": (cmd_diagnose, True, False),
    "oracle": (cmd_oracle, False, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvi",
        description="Thermodynamic variational bounds on Holder paths: "
                    "estimators, tuning, training and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, samples, reads_rule) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--model", choices=MODEL_IDS, help="model id override")
        if samples:
            p.add_argument("--seed", type=int, help="master seed; replaces seed/seeds")
            p.add_argument("--sample-size", type=int, dest="sample_size")
        if reads_rule:
            p.add_argument("--rule", choices=[r.value for r in IntegrationRule])
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON ({exc})") from None
    _require(isinstance(data, dict), "<root>", "must be an object")
    if getattr(args, "seed", None) is not None:
        data.pop("seeds", None)
    for key in ("seed", "out", "model", "sample_size", "rule"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return ExperimentConfig(data)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        text = _COMMANDS[args.command][0](cfg)
        _write_output(cfg.out, text, cfg.echo())
    except ComputationFailure as exc:
        # flagged output is still delivered, marker included
        _write_output(cfg.out, exc.text, cfg.echo())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
