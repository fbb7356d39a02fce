"""Benchmark of nbwalks: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one process
    python3 bench/run.py --write-golden          # re-record bench/golden.json

Each workload is a fixed list of jobs whose graphs are generated from the
seed.  Jobs run one after another in this process through
``nbwalks.cli.run_command`` and ``nbwalks.fileio.to_json``, so a job's time is
the CLI's minus interpreter start-up.  With ``--trace 0`` the passes run
untraced and the end-to-end metrics are printed; with ``--trace 1`` untraced
and wrapper-traced passes alternate and the per-layer metrics are printed.
Job, pass and set-up times are CPU seconds of this process
(``time.process_time``): the CLI is single-threaded and CPU-bound, so this
is its wall-clock time minus the time a shared host withholds the CPU.
Each job's time is then scaled to a reference machine speed sampled while
it runs (see ``calib``), because the speed of a shared host drifts by tens
of percent within seconds.  ``--seconds`` bounds the wall-clock length of
the measuring loop.

Every job's output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import calib
import jobs as jobmod
import spans
from graphgen import generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = ROOT / ".bench_work"

CLOCK = time.process_time
JOB_CAP_S = 20.0   # wall-clock seconds; a job running longer fails, the pass goes on
SETUP_RUNS = 5     # set-ups per run; setup_s is their median
MIN_PASSES = 3     # untraced passes per run with --trace 0, whatever --seconds says

END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "small_wall_s": ("s", "lower"),
    "max_job_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Per-layer metric groups: group name -> span names it sums over.
GROUPS = {
    "exact.char_poly": ("exact.Matrix.char_poly",),
    "exact.det": ("exact.Matrix.det",),
    "exact.matmul": ("exact.Matrix.__mul__",),
    "exact.solve": ("exact.Matrix.solve",),
    "polys.polymat_det": ("polys.polymat_det",),
    "polys.smith_form": ("polys.smith_form",),
    "polys.real_roots": ("polys.real_roots",),
    "spectral.perron_radius": ("spectral.perron_radius",),
    "walks.enumerate": ("walks.enumerate_nbtw", "walks.enumerate_btdw"),
    "walks.recurrence": ("walks.nbtw_recurrence", "walks.btdw_recurrence",
                         "walks.weighted_nbtw"),
    "walks.centrality": ("walks.nbt_katz_centrality",),
    "convergence.radius": ("convergence.radius_unweighted", "convergence.radius_weighted",
                           "convergence.radius_btdw"),
    "ihara.ihara_digraph": ("ihara.verify_ihara_digraph",),
    "ihara.tau_ihara": ("ihara.verify_tau_ihara",),
    "ihara.flanders": ("ihara.verify_flanders",),
    "ihara.weighted_ihara": ("ihara.verify_weighted_ihara",),
    "ihara.lemma_suite": ("ihara.verify_lemma_suite",),
    "laplacians.dgl": ("laplacians.directed_dgl", "laplacians.tau_dgl"),
    "laplacians.eigen_report": ("laplacians.eigen_report",),
    "edgespace.build_edge_space": ("edgespace.build_edge_space",),
    "graphs.scc_decompose": ("graphs.scc_decompose",),
    "fileio.load_graph": ("fileio.load_graph",),
    "fileio.to_json": ("fileio.to_json",),
    "cli.job": ("cli.job",),
}

_TIMED = ("exact.char_poly", "exact.det", "exact.matmul", "exact.solve", "polys.polymat_det",
          "polys.smith_form", "polys.real_roots", "spectral.perron_radius",
          "edgespace.build_edge_space")

# Per-layer metric name -> (group, summary field, unit, better).
PER_LAYER = {}
for _g in _TIMED:
    PER_LAYER[f"{_g}.self_s"] = (_g, "self_s", "s", "lower")
    PER_LAYER[f"{_g}.calls"] = (_g, "calls", "count", "lower")
PER_LAYER.update({
    "exact.char_poly.dim_max": ("exact.char_poly", "dim_max", "rows", "lower"),
    "polys.smith_form.dim_sum": ("polys.smith_form", "dim_sum", "rows", "lower"),
    "polys.smith_form.degree_sum": ("polys.smith_form", "degree_sum", "count", "lower"),
    "polys.real_roots.roots": ("polys.real_roots", "roots_sum", "count", "higher"),
    "spectral.perron_radius.iterations": ("spectral.perron_radius", "iterations_sum",
                                          "count", "lower"),
    "edgespace.build_edge_space.arcs": ("edgespace.build_edge_space", "arcs_sum",
                                        "count", "lower"),
    "ihara.weighted_ihara.sample_points": ("ihara.weighted_ihara", "sample_points_sum",
                                           "count", "higher"),
    "cli.job.wall_s": ("cli.job", "wall_s", "s", "lower"),
})
for _g in ("walks.enumerate", "walks.recurrence", "walks.centrality", "convergence.radius",
           "ihara.ihara_digraph", "ihara.tau_ihara", "ihara.flanders", "ihara.weighted_ihara",
           "ihara.lemma_suite", "laplacians.dgl", "laplacians.eigen_report",
           "graphs.scc_decompose", "fileio.load_graph", "fileio.to_json"):
    PER_LAYER[f"{_g}.self_s"] = (_g, "self_s", "s", "lower")
TRACE_OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


class PackageMissing(Exception):
    pass


def import_nbwalks() -> dict:
    """Import the package from ``src/`` afresh; return short name -> module."""
    if not (SRC / "nbwalks" / "__init__.py").is_file():
        raise PackageMissing(f"no nbwalks package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "nbwalks" or k.startswith("nbwalks.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {short: importlib.import_module(f"nbwalks.{short}") for short in spans.LAYERS}
    if Path(mods["cli"].__file__).resolve().parent != (SRC / "nbwalks").resolve():
        raise PackageMissing(f"nbwalks imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def write_graphs(workload: str, seed: int, job_list, workdir: Path) -> dict:
    """Write each job's graph file once; return graph name -> path."""
    paths = {}
    for job in job_list:
        if job.graph not in paths:
            path = workdir / f"{job.graph}.tsv"
            path.write_text(generate(job.spec, jobmod.graph_seed(workload, seed, job.graph)),
                            encoding="utf-8")
            paths[job.graph] = str(path)
    return paths


class JobResult(NamedTuple):
    job: jobmod.Job
    seconds: float          # CPU seconds scaled to the reference speed
    speed: float            # factor from CPU seconds to reference seconds (calib)
    problems: list[str]
    digest: str | None


def run_pass(nb, job_list, paths, sampler, golden=None, tracer=None, reference=None):
    """Run every job once; return one JobResult per job.

    ``sampler`` is a started ``calib.SpeedSampler``.  ``reference`` maps
    job ids to digests the outputs must equal (the untraced pass, when this
    one is traced).
    """
    runs, done = [], {}
    for job in job_list:
        code, doc, problems = None, {}, []
        if tracer is not None:
            tracer.job = job.id
        sampler.deadline = time.perf_counter() + JOB_CAP_S
        first = sampler.mark()
        start = CLOCK()
        try:
            if tracer is None:
                code, doc = jobmod.run_job(nb, job, paths[job.graph])
            else:
                with tracer.span("cli.job"):
                    code, doc = jobmod.run_job(nb, job, paths[job.graph])
        except calib.Timeout:
            problems.append(f"exceeded the {JOB_CAP_S:g} s job cap")
        except Exception:  # a job's crash is a failed job, not a failed run
            problems.append(traceback.format_exc(limit=-3).strip())
        finally:
            sampler.deadline = None
            seconds = CLOCK() - start
        last = sampler.mark()
        if tracer is not None:
            tracer.job = None
        got = jobmod.digest(doc) if doc else None
        if not problems:
            problems = jobmod.check_job(job, code, doc, golden, done)
            if reference is not None and reference.get(job.id) != got:
                problems.append("traced output differs from untraced output")
        done[job.id] = doc
        runs.append((job, seconds, first, last, problems, got))
    out = []
    for job, seconds, first, last, problems, got in runs:
        speed = sampler.speed(first, last)
        out.append(JobResult(job, seconds * speed, speed, problems, got))
    return out


def pass_times(results) -> dict:
    times = [r.seconds for r in results]
    return {
        "wall_s": sum(times),
        "small_wall_s": sum(r.seconds for r in results if r.job.small),
        "max_job_s": max(times),
        "speed": statistics.median(r.speed for r in results),
    }


def load_golden(workload: str) -> dict:
    """Job id -> digest recorded for the default seed."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"][workload]


def setup(workload: str, seed: int, workdir: Path, sampler):
    """Import, write the graphs and run the warm-up jobs, SETUP_RUNS times.

    Returns (modules, job list, graph paths, median set-up seconds).
    """
    job_list = jobmod.workload_jobs(workload)
    warm = jobmod.warmup_jobs(workload)
    durations = []
    for _ in range(SETUP_RUNS):
        first = sampler.mark()
        start = CLOCK()
        nb = import_nbwalks()
        paths = write_graphs(workload, seed, job_list + warm, workdir)
        for job in warm:
            code, doc = jobmod.run_job(nb, job, paths[job.graph])
            problems = jobmod.check_job(job, code, doc, None, {})
            if problems:
                raise RuntimeError(f"warm-up job {job.id} failed: {problems[0]}")
        durations.append((CLOCK() - start, first, sampler.mark()))
    return nb, job_list, paths, statistics.median(
        raw * sampler.speed(first, last) for raw, first, last in durations)


def layer_metrics(summaries) -> dict:
    """Each PER_LAYER metric's median over the traced passes, from their
    ``spans.summarize`` results; a layer that never ran reads 0."""
    metrics = {}
    for name, (group, field, _unit, _better) in PER_LAYER.items():
        values = []
        for summary in summaries:
            aggs = [summary[s] for s in GROUPS[group] if s in summary]
            if field.endswith("_max"):
                values.append(max((a.get(field, 0) for a in aggs), default=0))
            else:
                values.append(sum(a.get(field, 0) for a in aggs))
        metrics[name] = statistics.median(values)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            sampler) -> dict:
    """Set up and run one workload; return the result record."""
    nb, job_list, paths, setup_s = setup(workload, seed, workdir, sampler)
    golden = load_golden(workload) if seed == jobmod.DEFAULT_SEED else None
    if golden is not None and set(golden) != {job.id for job in job_list}:
        raise RuntimeError(f"{GOLDEN.name} does not list the jobs of {workload}")
    attempted = failed = 0
    failures = []

    def tally(results):
        nonlocal attempted, failed
        attempted += len(results)
        for r in results:
            if r.problems:
                failed += 1
                failures.append((r.job.id, r.problems))

    plain, traced = [], []
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = run_pass(nb, job_list, paths, sampler, golden)
        tally(results)
        plain.append(pass_times(results))
        if tracer is not None:
            reference = {r.job.id: r.digest for r in results}
            tracer.reset()
            tracer.install(nb)
            try:
                results = run_pass(nb, job_list, paths, sampler, golden, tracer, reference)
            finally:
                tracer.uninstall()
            tally(results)
            scale = {r.job.id: r.speed for r in results}
            traced.append((pass_times(results), spans.summarize(tracer.spans, scale)))
        now = time.perf_counter()
        # stop when another round would end after --seconds
        if (trace or len(plain) >= MIN_PASSES) and (now - start) + (now - pass_start) > seconds:
            break

    metrics = {}
    if not trace:
        for name in ("wall_s", "small_wall_s", "max_job_s"):
            metrics[name] = statistics.median(p[name] for p in plain)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        metrics = layer_metrics([summary for _times, summary in traced])
        metrics[TRACE_OVERHEAD[0]] = (statistics.median(t["wall_s"] for t, _s in traced)
                                      / statistics.median(p["wall_s"] for p in plain))
        units = {k: v[2] for k, v in PER_LAYER.items()}
        units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "workload": workload,
        "passes": len(plain) + len(traced),
        "speed": statistics.median(p["speed"] for p in plain),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_golden(sampler) -> int:
    """Record the digests of one pass of every workload at the default seed."""
    seed = jobmod.DEFAULT_SEED
    digests = {}
    with _workdir(seed) as workdir:
        for workload in jobmod.WORKLOADS:
            nb, job_list, paths, _ = setup(workload, seed, workdir, sampler)
            results = run_pass(nb, job_list, paths, sampler)
            bad = [(r.job.id, r.problems) for r in results if r.problems]
            if bad:
                print(f"not recording: {bad}", file=sys.stderr)
                return 1
            digests[workload] = {r.job.id: r.digest for r in results}
    GOLDEN.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


@contextmanager
def _workdir(seed: int):
    """A private directory for the graph files, removed on exit."""
    path = WORK / f"seed{seed}-pid{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobmod.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=jobmod.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    sampler = calib.SpeedSampler()
    sampler.start()
    try:
        if args.write_golden:
            return write_golden(sampler)
        names = jobmod.WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        with _workdir(args.seed) as workdir:
            for name in names:
                records.append(measure(name, args.seed, args.seconds, bool(args.trace),
                                       workdir, sampler))
    except PackageMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        sampler.stop()

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for rec in records:
        for job_id, problems in rec["failures"][:10]:
            print(f"FAILED {rec['workload']} {job_id}: {problems[0]}", file=sys.stderr)
        print(f"{rec['workload']}: {rec['passes']} passes, {rec['attempted']} jobs, "
              f"error_rate {rec['failed'] / rec['attempted']:.4g}, "
              f"machine speed {rec['speed']:.3f} of reference")
        for name, m in rec["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
            key = name if len(records) == 1 else f"{rec['workload']}.{name}"
            metrics[key] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
