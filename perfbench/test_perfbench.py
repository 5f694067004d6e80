"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from common import ROOT, use_checkout_sources
from tracer import LayerTotals, Tracer
from workloads import SIZES, Estimate, Oracle, Recorder

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HVI = use_checkout_sources()


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = json.loads(report_line)["report"]
    assert report["metrics"]["fail_ratio"]["value"] == 0.0
    assert {"python", "numpy", "scipy", "nproc", "blas_threads"} <= set(report["environment"])
    if not trace:
        assert set(run.NAMED[workload]) <= set(report["metrics"])


def test_traced_counts_are_exact_and_repeat():
    first, second = (json.loads(_run("estimate", 1).stdout.strip().splitlines()[-1])["metrics"]
                     for _ in range(2))
    # 3 seeds x (eubo + wlbo + wubo + 51 tvo + 51 hbo betas) + 5 x 5 tune points
    assert first["estimators.local_evidence_calls"]["value"] == 3 * 105 + 25
    assert first["tuning.evaluations"]["value"] == 25
    for name in ("models.eval_calls", "models.eval_points", "paths.calls", "paths.elements",
                 "estimators.ess_min", "estimators.ess_p50", "cli.out_bytes"):
        assert first[name]["value"] == second[name]["value"], name


def test_hbo_step_makes_22_model_evaluations():
    done = _run("train", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["gradients.model_evals_per_step"]["value"] == 22


def test_corrupted_bounds_row_raises_fail_ratio(monkeypatch, tmp_path):
    workload = Estimate(HVI, 3, SIZES["tiny"], tmp_path)
    clean = Recorder()
    workload.round(0, clean)
    assert clean.attempted == 2 and clean.failed == 0
    # eubo far below elbo breaks elbo <= tvo <= eubo in every row
    monkeypatch.setattr(HVI.estimators, "eubo", lambda batch: -1e9)
    corrupted = Recorder()
    workload.round(0, corrupted)
    assert corrupted.failed / corrupted.attempted > 0
    assert any("tvo" in p and "eubo" in p for p in corrupted.problems)
    assert corrupted.digests["bounds:0"] != clean.digests["bounds:0"]


def test_bounds_check_names_each_violation():
    text = "seed,elbo,iw_elbo,tvo,eubo\n1,-1.0,-2.0,-0.5,-3.0\n"
    problems = checks.bounds_csv(text, ["elbo", "iw_elbo", "tvo", "eubo"], [1])
    assert len(problems) == 2  # tvo > eubo and elbo > iw_elbo
    assert checks.bounds_csv(text, ["elbo", "iw_elbo", "tvo", "eubo"], [2])


def test_oracle_checks_catch_a_broken_curve():
    workload = Oracle(HVI, 3, SIZES["tiny"])
    rec = Recorder()
    workload.round(0, rec)
    assert rec.failed == 0
    model = HVI.models.make_ring(1.0)
    betas = workload.betas
    curve = HVI.models.quadrature_local_evidence_curve(model, 0.0, betas, workload.grid)
    log_p = HVI.models.quadrature_log_marginal(model, workload.grid)
    assert checks.oracle_curve(0.0, betas, curve, log_p) == []
    assert checks.oracle_curve(0.0, betas, curve[::-1], log_p)
    assert checks.oracle_curve(0.0, betas, curve + 0.5, log_p)


def test_tune_check_counts_evaluations():
    text = json.dumps({"alpha": 0.5, "evaluations": 24, "table": []})
    assert len(checks.tune_json(text, [0.5], [0.0, 1.0])) == 2


def test_outputs_differing_between_processes_count_as_failures():
    workers = [{"digests": {"a": "1", "b": "2"}}, {"digests": {"a": "1", "b": "3"}}]
    count, problems = run.digest_mismatches(workers)
    assert count == 1 and "b" in problems[0]


def test_tracer_restores_every_binding():
    before = (HVI.gradients.local_evidence_grad, HVI.estimators.blend_integrand_parts,
              HVI.models.LatentModel.log_target)
    tracer = Tracer()
    tracer.install()
    try:
        assert HVI.estimators.blend_integrand_parts is not before[1]
        model = HVI.models.make_sin_toy()
        batch = HVI.estimators.draw_batch(model, 50, 0)
        HVI.estimators.tvo(batch, HVI.estimators.PartitionSchedule.log(4))
    finally:
        tracer.uninstall()
    assert (HVI.gradients.local_evidence_grad, HVI.estimators.blend_integrand_parts,
            HVI.models.LatentModel.log_target) == before
    totals = LayerTotals()
    totals.add_spans(tracer.spans)
    assert totals.sums["estimators.local_evidence_calls"] == 5
    assert totals.sums["models.eval_calls"] == 2
    assert totals.sums["paths.elements"] == 5 * 50  # one integrand per beta
    names = {span[0] for span in tracer.spans}
    assert {"estimators.tvo", "estimators.draw_batch", "paths.blend_integrand_parts"} <= names


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("estimate", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()


def test_round_inputs_depend_on_seed_and_round_only():
    digests = []
    for seed, content in ((5, 1), (5, 1), (5, 2), (6, 1)):
        rec = Recorder()
        Oracle(HVI, seed, SIZES["tiny"]).round(content, rec)
        digests.append(rec.digests["oracle:%d:0.5" % content])
    assert digests[0] == digests[1]
    assert len(set(digests)) == 3
