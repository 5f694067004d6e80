"""The three benchmark workloads: ``train``, ``estimate`` and ``oracle``.

A workload is built once from the workload seed (the timed set-up) and then
runs rounds.  Round ``c`` is one complete job whose inputs derive from
(seed, c) only, so every process that runs round ``c`` must produce identical
outputs; their digests are compared across processes.  Each timed operation is
recorded under a slot (``main``, ``ctrl``, ``aux``).  README.md gives what
the slots mean on each workload and why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

import numpy as np

import checks


@dataclass(frozen=True)
class Size:
    train_steps: int
    mcmc_steps: int
    mcmc_burn_in: int
    mmd_draws: int
    bounds_samples: int
    tune_samples: int
    grid_points: int
    oracle_betas: int


SIZES = {
    "full": Size(train_steps=800, mcmc_steps=17500, mcmc_burn_in=5000, mmd_draws=2000,
                 bounds_samples=1000, tune_samples=10000, grid_points=801, oracle_betas=21),
    # A seconds-long smoke run for the benchmark's own tests.
    "tiny": Size(train_steps=10, mcmc_steps=1500, mcmc_burn_in=500, mmd_draws=200,
                 bounds_samples=200, tune_samples=1000, grid_points=101, oracle_betas=11),
}

MAX_PROBLEMS = 20


class Recorder:
    """Timings per slot, operation outcomes and output digests of one process."""

    def __init__(self):
        self.lat_ms = defaultdict(list)   # slot or named quantity -> latencies
        self.units = defaultdict(float)   # slot -> work units done
        self.busy_s = defaultdict(float)  # slot -> seconds spent on those units
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.out_bytes = 0

    def outcome(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def digest(self, key: str, *chunks: bytes):
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        self.digests[key] = h.hexdigest()

    def work(self, slot: str, units: float, seconds: float, per_unit_ms):
        self.units[slot] += units
        self.busy_s[slot] += seconds
        self.lat_ms[slot].extend(per_unit_ms)

    def to_json(self) -> dict:
        return {"lat_ms": self.lat_ms, "units": self.units, "busy_s": self.busy_s,
                "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "digests": self.digests}


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def _round_rng(seed: int, content: int) -> np.random.Generator:
    return np.random.default_rng([seed, content])


class Train:
    def __init__(self, hvi, seed: int, size: Size):
        self.hvi, self.seed, self.size = hvi, seed, size
        self.model = hvi.models.make_bayes_regression(hvi.models.simulate_bayes_dataset(0, 20))
        self.init = self.model.default_params.values + np.array([1.5, -0.04, 0.5, 0.0, 0.0, 0.0])
        self.objectives = (
            ("ctrl", hvi.gradients.BoundObjective(bound="elbo", sample_size=100)),
            ("main", hvi.gradients.BoundObjective(
                bound="hbo", alpha=0.05, schedule=hvi.estimators.PartitionSchedule.uniform(5),
                sample_size=100)),
        )

    @contextmanager
    def _step_clock(self, stamps: list):
        """Timestamp each step of ``train`` at its per-step ``draw_batch`` call."""
        gradients = self.hvi.gradients
        original = gradients.draw_batch

        def stamped(*args, **kwargs):
            stamps.append(perf_counter_ns())
            return original(*args, **kwargs)

        gradients.draw_batch = stamped
        try:
            yield
        finally:
            gradients.draw_batch = original

    def round(self, content: int, rec: Recorder):
        hvi, size = self.hvi, self.size
        mcmc_seed, train_seed, draw_seed = (int(s) for s in
                                            _round_rng(self.seed, content).integers(0, 2**31, 3))
        reference, ref_s = _timed(hvi.diagnostics.mcmc_reference, self.model, chains=4,
                                  steps=size.mcmc_steps, burn_in=size.mcmc_burn_in, thin=10,
                                  seed=mcmc_seed)
        pooled = reference.pooled
        rec.lat_ms["reference_ms"].append(ref_s * 1e3)
        rec.outcome([] if np.all(np.isfinite(pooled)) else ["non-finite MCMC reference"])
        aux_s = ref_s
        for index, (slot, objective) in enumerate(self.objectives):
            stamps: list[int] = []
            with self._step_clock(stamps):
                trace, train_s = _timed(hvi.gradients.train, self.model, self.init, objective,
                                        size.train_steps, 8e-4, train_seed)
            rec.work(slot, size.train_steps, train_s,
                     [(b - a) * 1e-6 for a, b in zip(stamps, stamps[1:])])
            rec.digest(f"train:{content}:{objective.bound}",
                       trace.objective.tobytes(), trace.params.tobytes())
            rec.outcome(checks.training_trace(trace, size.train_steps))
            draws = self.model.sample_proposal(
                np.random.default_rng([draw_seed, index]), size.mmd_draws,
                trace.final_params)
            value, mmd_s = _timed(hvi.diagnostics.mmd, draws, pooled)
            rec.lat_ms["mmd_ms"].append(mmd_s * 1e3)
            rec.outcome(checks.mmd_value(value))
            aux_s += mmd_s
        rec.lat_ms["aux"].append(aux_s * 1e3)


BOUNDS = ["elbo", "iw_elbo", "rvi[0.5]", "eubo", "wlbo", "wubo", "tvo", "hbo[0.8]"]
TUNE_CANDIDATES = [0.1, 0.3, 0.5, 0.7, 0.9]
TUNE_BETAS = [0.0, 0.25, 0.5, 0.75, 1.0]


class Estimate:
    def __init__(self, hvi, seed: int, size: Size, work_dir):
        self.hvi, self.seed = hvi, seed
        self.work_dir = str(work_dir)
        os.makedirs(self.work_dir, exist_ok=True)
        self.bounds_config = {
            "model": "sin_toy", "sample_size": size.bounds_samples, "bounds": BOUNDS,
            "tvo_schedule": {"kind": "log", "partitions": 50},
            "schedule": {"kind": "uniform", "partitions": 50},
        }
        self.tune_config = {
            "model": "sin_toy", "sample_size": size.tune_samples,
            "tuning": {"method": "grid", "candidates": TUNE_CANDIDATES, "betas": TUNE_BETAS},
        }

    def _call(self, command: str, config: dict, rec: Recorder, slot: str):
        """Run one ``hvi`` command in-process; return (seconds, output bytes or None)."""
        base = os.path.join(self.work_dir, command)
        with open(base + ".in.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = base + ".out"
        code, seconds = _timed(self.hvi.cli.main,
                               [command, "--config", base + ".in.json", "--out", out])
        rec.work(slot, 1, seconds, [seconds * 1e3])
        if code != 0:
            rec.outcome([f"hvi {command} exited with {code}"])
            return seconds, None
        with open(out, "rb") as fh:
            text = fh.read()
        with open(out + ".config.json", "rb") as fh:
            echo = fh.read()
        rec.out_bytes += len(text) + len(echo)
        return seconds, (text, echo)

    def round(self, content: int, rec: Recorder):
        rng = _round_rng(self.seed, content)
        seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
        tune_seed = int(rng.integers(0, 2**31))
        total = 0.0
        for command, config, slot in (
                ("bounds", {**self.bounds_config, "seeds": seeds}, "main"),
                ("tune", {**self.tune_config, "seed": tune_seed}, "ctrl")):
            seconds, output = self._call(command, config, rec, slot)
            total += seconds
            if output is None:
                return
            text, echo = output
            rec.digest(f"{command}:{content}", text, echo)
            if command == "bounds":
                rec.outcome(checks.bounds_csv(text.decode(), BOUNDS, seeds))
            else:
                rec.outcome(checks.tune_json(text.decode(), TUNE_CANDIDATES, TUNE_BETAS))
        rec.lat_ms["aux"].append(total * 1e3)


ORACLE_ALPHAS = (0.0, 0.2, 0.5, 0.8, 1.0)


class Oracle:
    def __init__(self, hvi, seed: int, size: Size):
        self.hvi, self.seed = hvi, seed
        self.grid = hvi.models.GridSpec(points=size.grid_points)
        self.betas = np.linspace(0.0, 1.0, size.oracle_betas)

    def round(self, content: int, rec: Recorder):
        models = self.hvi.models
        y_obs = 0.9 + 0.2 * float(_round_rng(self.seed, content).random())
        model = models.make_ring(y_obs)
        log_p, seconds = _timed(models.quadrature_log_marginal, model, self.grid)
        rec.lat_ms["aux"].append(seconds * 1e3)
        rec.outcome(checks.log_marginal(log_p))
        points = len(self.betas)
        for alpha in ORACLE_ALPHAS:
            curve, seconds = _timed(models.quadrature_local_evidence_curve, model, alpha,
                                    self.betas, self.grid)
            per_point = [seconds * 1e3 / points]
            rec.work("main", points, seconds, per_point)
            if alpha == 0.0:
                rec.work("ctrl", points, seconds, per_point)
            rec.digest(f"oracle:{content}:{alpha}", np.asarray(curve).tobytes())
            rec.outcome(checks.oracle_curve(alpha, self.betas, curve, log_p))


WORKLOADS = ("train", "estimate", "oracle")


def build(name: str, hvi, seed: int, size: Size, work_dir):
    if name == "train":
        return Train(hvi, seed, size)
    if name == "estimate":
        return Estimate(hvi, seed, size, work_dir)
    if name == "oracle":
        return Oracle(hvi, seed, size)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
