"""hvi benchmark: three workloads, end-to-end metrics and traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {train,estimate,oracle} --seed N \\
        --seconds S --trace {0,1}

The run splits its seconds over several worker processes (worker.py) started
one after another, never concurrently.  Each imports hvi from ``src/`` of this
checkout, times its own set-up and runs whole rounds of the workload
(workloads.py).  Outputs are checked as they are produced, and outputs of the
same round from different processes must match byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a traced run
(spans are written to ``.perfbench_out/``).  The line before it is a report
with the same run's figures under the workload's own names, the fail ratio
and the environment.  README.md says why each workload exists and what each
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import OUT_DIR, ROOT, SRC, percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Worker processes per run.  On a shared machine speed differs between
# processes (the same tune call takes 27 ms in one and 44 ms in the next) and
# drifts over tens of seconds, so the figures average over many short-lived
# processes.  Each still gets at least one whole round; a train or oracle
# round takes about 6 s.  A traced run needs fewer, since each of its workers
# runs an untraced and a traced round.
WORKERS = {"train": 5, "estimate": 10, "oracle": 5}
TRACE_WORKERS = 2
TINY_WORKERS = 2
# The whole run must end within this many seconds; a worker still running
# then is killed and the run fails.
RUN_DEADLINE_S = 170.0

# The workload's own names for its figures, shown in the report line.
NAMED = {
    "train": {"hbo_steps_per_s": ("main_per_s", "steps/s"),
              "elbo_steps_per_s": ("ctrl_per_s", "steps/s"),
              "reference_s": ("reference_s", "s"),
              "mmd_ms_p50": ("mmd_ms_p50", "ms")},
    "estimate": {"bounds_ms_p50": ("main_ms_p50", "ms"),
                 "bounds_ms_p90": ("main_ms_p90", "ms"),
                 "tune_ms_p50": ("ctrl_ms_p50", "ms"),
                 "tune_ms_p90": ("ctrl_ms_p90", "ms")},
    "oracle": {"oracle_points_per_s": ("main_per_s", "points/s")},
}
SHARED_NAMES = {"setup_s": ("setup_s", "s"), "peak_rss_mb": ("peak_rss_mb", "MB")}


def run_worker(args, index: int, budget: float, timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(args.trace),
               "--size", args.size, "--index", str(index)]
    # subprocess.run waits for the worker and kills it on timeout.
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {index} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_mismatches(workers) -> tuple[int, list[str]]:
    """Outputs of one round that differ between processes (each counts as failed)."""
    seen: dict[str, str] = {}
    mismatches = []
    for w in workers:
        for key, digest in w["digests"].items():
            if seen.setdefault(key, digest) != digest:
                mismatches.append(f"output of {key} differs between processes")
    return len(mismatches), mismatches


def pooled(workers, key: str) -> list[float]:
    return [v for w in workers for v in w["lat_ms"].get(key, [])]


def rate(workers, slot: str) -> float:
    units = sum(w["units"].get(slot, 0.0) for w in workers)
    busy = sum(w["busy_s"].get(slot, 0.0) for w in workers)
    return units / busy


def p50(workers, key: str) -> float:
    """Median latency of each worker process, averaged over the processes.

    Less jumpy than the pooled median, which flips between the fast and the
    slow processes' modes when they are about equally many.
    """
    return statistics.fmean(percentile(w["lat_ms"][key], 50)
                            for w in workers if w["lat_ms"].get(key))


def end_to_end(workload: str, workers) -> dict:
    """Every untraced figure: the slots of BENCHMARK.json and the ungated ones."""
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "aux_ms_p50": p50(workers, "aux"),
    }
    for slot in ("main", "ctrl"):
        values[f"{slot}_per_s"] = rate(workers, slot)
        values[f"{slot}_ms_p50"] = p50(workers, slot)
        values[f"{slot}_ms_p90"] = percentile(pooled(workers, slot), 90)
    if workload == "train":
        values["reference_s"] = p50(workers, "reference_ms") / 1e3
        values["mmd_ms_p50"] = p50(workers, "mmd_ms")
    return values


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ms"


def per_layer(workers) -> dict:
    from tracer import LayerTotals

    totals = LayerTotals()
    sums = dict.fromkeys(("rounds", "out_bytes", "traced_s", "untraced_s", "cpu_s",
                          "wall_s"), 0.0)
    for w in workers:
        totals.merge(w["trace"]["totals"])
        for key in sums:
            sums[key] += w["trace"][key]
    return totals.metrics(**sums)


def report(args, workers, values: dict, attempted: int, failed: int,
           problems: list[str]) -> dict:
    """The run's figures under the workload's own names, with context."""
    if args.trace:
        named, slots = {}, None
    else:
        named = {name: {"value": values[key], "unit": unit}
                 for name, (key, unit) in {**NAMED[args.workload], **SHARED_NAMES}.items()}
        slots = {key: {"value": value, "unit": _unit(key)} for key, value in values.items()}
    named["fail_ratio"] = {"value": failed / attempted, "unit": "failed/attempted"}
    samples = {key: sum(len(w["lat_ms"].get(key, [])) for w in workers)
               for key in sorted({k for w in workers for k in w["lat_ms"]})}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "workers": len(workers),
        "rounds": [w.get("rounds", w.get("trace", {}).get("rounds")) for w in workers],
        "samples": samples,
        "metrics": named,
        "slots": slots,
        "problems": (problems + [p for w in workers for p in w["problems"]])[:20],
        "spans_files": [w["spans_file"] for w in workers if "spans_file" in w],
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        **workers[0]["environment"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run for the benchmark's tests")
    args = parser.parse_args()
    if not (SRC / "hvi" / "__init__.py").is_file():
        print(f"error: no hvi sources under {SRC}; run from the root of an hvi checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    if args.size == "tiny":
        count = TINY_WORKERS
    else:
        count = TRACE_WORKERS if args.trace else WORKERS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        workers = [run_worker(args, i, args.seconds / count, deadline - time.monotonic())
                   for i in range(count)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    mismatches, mismatch_problems = digest_mismatches(workers)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers) + mismatches
    values = per_layer(workers) if args.trace else end_to_end(args.workload, workers)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"report": report(args, workers, values, attempted, failed,
                                               mismatch_problems)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
