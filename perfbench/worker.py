"""One measuring process of the benchmark; started by run.py, never by hand.

It times its own set-up (importing hvi from the checkout and building the
workload), runs whole rounds until its share of the run's seconds is used,
and prints one JSON object with raw samples on its last stdout line.  With
``--trace 1`` it alternates an untraced and a traced run of the same round,
so the traced run's per-layer metrics come with the tracing overhead.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from common import OUT_DIR, use_checkout_sources  # noqa: E402
from workloads import SIZES, WORKLOADS, Recorder, build  # noqa: E402


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads()}


def _run_round(workload, content: int, rec: Recorder):
    """One round; an exception fails the operation instead of the whole run."""
    try:
        workload.round(content, rec)
    except Exception:  # the measuring loop must go on and report the failure
        rec.outcome([f"round {content} raised:\n{traceback.format_exc()}"])


def _untraced_rounds(workload, rec: Recorder, budget: float):
    started = perf_counter()
    content = 0
    while True:
        round_started = perf_counter()
        _run_round(workload, content, rec)
        content += 1
        now = perf_counter()
        if now - started + (now - round_started) > budget:
            return content


def _traced_rounds(workload, rec: Recorder, budget: float, spans_path: str, env: dict):
    from tracer import LayerTotals, Tracer

    tracer = Tracer()
    traced_s = untraced_s = 0.0
    out_bytes = 0
    rounds = 0
    started, cpu_started = perf_counter(), time.process_time()
    while True:
        pair_started = perf_counter()
        _run_round(workload, 0, rec)
        untraced_s += perf_counter() - pair_started
        bytes_before = rec.out_bytes
        tracer.install()
        try:
            traced_started = perf_counter()
            _run_round(workload, 0, rec)
            traced_s += perf_counter() - traced_started
        finally:
            tracer.uninstall()
        out_bytes += rec.out_bytes - bytes_before
        rounds += 1
        now = perf_counter()
        if now - started + (now - pair_started) > budget:
            break
    wall_s, cpu_s = perf_counter() - started, time.process_time() - cpu_started
    totals = LayerTotals()
    totals.add_spans(tracer.spans)
    tracer.write(spans_path, {"environment": env, "traced_rounds": rounds})
    return {"rounds": rounds, "totals": totals.to_json(), "out_bytes": out_bytes,
            "traced_s": traced_s, "untraced_s": untraced_s, "cpu_s": cpu_s, "wall_s": wall_s}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--index", type=int, required=True)
    args = parser.parse_args()

    hvi = use_checkout_sources()
    # One path for every process: the output path is echoed into the compared output.
    work_dir = OUT_DIR / f"work-{args.workload}"
    workload = build(args.workload, hvi, args.seed, SIZES[args.size], work_dir)
    setup_s = perf_counter() - _STARTED

    env = environment()
    rec = Recorder()
    result = {"setup_s": setup_s, "environment": env}
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-w{args.index}.json"
            result["trace"] = _traced_rounds(workload, rec, args.budget, str(spans_path), env)
            result["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent))
        else:
            result["rounds"] = _untraced_rounds(workload, rec, args.budget)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(rec.to_json())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
