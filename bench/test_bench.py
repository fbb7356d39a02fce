"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import jobs as jobmod
import run
import spans
from graphgen import GraphSpec, generate

BENCH = Path(__file__).resolve().parent


def _arcs(text):
    return [line.split() for line in text.splitlines() if line and not line.startswith("#")]


def test_generator_is_deterministic_and_seeded():
    spec = GraphSpec(12, 3, weighted=True, oneway=0.3)
    assert generate(spec, "certify:1:g") == generate(spec, "certify:1:g")
    assert generate(spec, "certify:1:g") != generate(spec, "certify:2:g")


@pytest.mark.parametrize("extra", [0, 1, 4])
@pytest.mark.parametrize("oneway", [0.0, 0.3])
def test_generator_shape_is_fixed_by_the_spec(extra, oneway):
    spec = GraphSpec(10, extra, weighted=False, oneway=oneway)
    edges = 10 - 1 + extra
    single = round(oneway * edges)
    for seed in range(5):
        arcs = _arcs(generate(spec, f"t:{seed}"))
        assert {v for arc in arcs for v in arc} == {str(i) for i in range(1, 11)}
        assert len(arcs) == 2 * edges - single


def test_self_times_of_a_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    tree = [
        ["root", 0.0, 10.0, -1, "j1", None],
        ["a", 1.0, 4.0, 0, "j1", None],
        ["b", 5.0, 9.0, 0, "j1", None],
        ["c", 6.0, 8.0, 2, "j1", None],
        ["a", 0.0, 1.0, -1, "j2", {"dim": 3}],
    ]
    assert spans.self_times(tree) == {"root": 3.0, "a": 4.0, "b": 2.0, "c": 2.0}
    assert spans.self_times(tree, {"j1": 0.5}) == {"root": 1.5, "a": 2.5, "b": 1.0, "c": 1.0}
    summary = spans.summarize(tree)
    assert summary["a"]["calls"] == 2 and summary["a"]["dim_max"] == 3
    assert sum(s["self_s"] for s in summary.values()) == 11.0  # both roots' durations


def test_job_lists_are_consistent():
    golden = json.loads((BENCH / "golden.json").read_text())
    for name in jobmod.WORKLOADS:
        job_list = jobmod.workload_jobs(name)
        ids = [job.id for job in job_list]
        assert len(ids) == len(set(ids))
        assert set(golden["digests"][name]) == set(ids)
        for i, job in enumerate(job_list):
            if job.same_tables_as is not None:
                assert job.same_tables_as in ids[:i]
        assert any(job.small for job in job_list) and any(not job.small for job in job_list)


def test_benchmark_json_names_every_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(jobmod.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (unit, _better) in run.END_TO_END.items()}
    expected = {name: unit for name, (_g, _f, unit, _b) in run.PER_LAYER.items()}
    expected[run.TRACE_OVERHEAD[0]] = run.TRACE_OVERHEAD[1]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == expected


@pytest.fixture(scope="module")
def package():
    return run.import_nbwalks()


@pytest.fixture()
def sampler():
    s = calib.SpeedSampler()
    s.start()
    yield s
    s.stop()


def _first_jobs(workload, count, tmp_path):
    job_list = jobmod.workload_jobs(workload)[:count]
    return job_list, run.write_graphs(workload, jobmod.DEFAULT_SEED, job_list, tmp_path)


def test_golden_digest_is_met_and_a_corrupted_one_is_caught(package, sampler, tmp_path):
    job_list, paths = _first_jobs("certify", 2, tmp_path)
    golden = run.load_golden("certify")
    results = run.run_pass(package, job_list, paths, sampler, golden)
    assert [r.problems for r in results] == [[], []]

    job = job_list[0]
    corrupted = dict(golden, **{job.id: "0" + golden[job.id][1:]})
    (bad,) = run.run_pass(package, [job], paths, sampler, corrupted)
    assert bad.problems and "golden" in bad.problems[0]


def test_walk_table_cross_check_catches_a_mismatch(package, tmp_path):
    job_list = [job for job in jobmod.workload_jobs("radius_walks")
                if job.id in ("walks-rec-n6-x1-ua", "walks-edge-n6-x1-ua")]
    paths = run.write_graphs("radius_walks", 3, job_list, tmp_path)
    rec, edge = job_list
    code, doc = jobmod.run_job(package, rec, paths[rec.graph])
    code2, doc2 = jobmod.run_job(package, edge, paths[edge.graph])
    assert jobmod.check_job(edge, code2, doc2, None, {rec.id: doc}) == []
    doc["payload"]["tables"][2][0][0] = "12345"
    assert jobmod.check_job(edge, code2, doc2, None, {rec.id: doc})


def test_traced_pass_matches_untraced_and_restores_the_package(package, sampler, tmp_path):
    job_list, paths = _first_jobs("radius_walks", 10, tmp_path)
    plain = run.run_pass(package, job_list, paths, sampler)
    originals = (package["cli"].run_command, package["exact"].Matrix.__mul__,
                 package["cli"].smith_form)
    tracer = spans.Tracer()
    tracer.install(package)
    assert package["cli"].smith_form is not originals[2]
    try:
        traced = run.run_pass(package, job_list, paths, sampler, None, tracer,
                              {r.job.id: r.digest for r in plain})
    finally:
        tracer.uninstall()
    assert [r.problems for r in traced] == [[]] * len(job_list)
    assert (package["cli"].run_command, package["exact"].Matrix.__mul__,
            package["cli"].smith_form) == originals
    summary = spans.summarize(tracer.spans)
    assert summary["cli.job"]["calls"] == len(job_list)
    assert summary["convergence.radius_unweighted"]["calls"] >= 1
    assert summary["exact.Matrix.__mul__"]["calls"] >= 1


def test_a_job_over_the_cap_fails_and_the_pass_goes_on(package, sampler, tmp_path, monkeypatch):
    job_list = [job for job in jobmod.workload_jobs("invariants") if job.spec.n == 56][:2]
    paths = run.write_graphs("invariants", 1, job_list, tmp_path)
    monkeypatch.setattr(run, "JOB_CAP_S", 0.0)
    results = run.run_pass(package, job_list, paths, sampler)
    assert len(results) == 2
    assert all("job cap" in r.problems[0] for r in results)


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
