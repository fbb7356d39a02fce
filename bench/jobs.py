"""The benchmark's workloads as seeded job lists, and the per-job checks.

A job is one CLI argv run through ``nbwalks.cli.run_command`` and rendered
with ``nbwalks.fileio.to_json``, or one ``laplacians.eigen_report`` library
call.  Every job reads a TSV graph file written by ``graphgen``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from graphgen import GraphSpec

DEFAULT_SEED = 1
SMALL_N = 8  # jobs on graphs with at most this many vertices count in small_wall_s

WORKLOADS = ("certify", "invariants", "radius_walks")


@dataclass(frozen=True)
class Job:
    """One timed call.

    ``argv`` is the CLI argv without the graph path, or ``("eigen_report",
    tau)`` for the library call.  ``graph`` names the graph file; jobs that
    share it run on the same graph.  ``same_tables_as`` names an earlier job
    whose payload tables this job must reproduce.
    """

    id: str
    argv: tuple[str, ...]
    graph: str
    spec: GraphSpec
    same_tables_as: str | None = None

    @property
    def small(self) -> bool:
        return self.spec.n <= SMALL_N


def _certify():
    # verify, all identities at the default tau.  Unit graphs run all five
    # verifiers; weighted ones run only the weighted-Ihara identity, whose
    # adjugate sample check is the costliest verifier.  The six largest
    # jobs cost about the same, so the slowest of them varies little.
    shapes = [(n, max(1, n // 3), weighted, oneway, "")
              for n in (5, 6, 7) for weighted in (False, True) for oneway in (0.0, 0.3)]
    shapes += [(8, 2, False, 0.3, ""), (8, 2, True, 0.0, "")]
    shapes += [(n, extra, weighted, oneway, copy)
               for n, extra, weighted, oneway in [(10, 4, False, 0.4), (11, 3, True, 0.0),
                                                  (14, 3, True, 0.5)]
               for copy in "ab"]
    jobs = []
    for n, extra, weighted, oneway, copy in shapes:
        tag = f"n{n}-{'w' if weighted else 'u'}-{'dir' if oneway else 'und'}{copy}"
        jobs.append(Job(f"verify-{tag}", ("verify",), tag, GraphSpec(n, extra, weighted, oneway)))
    return jobs


def _invariants():
    # Smith forms of the deformed Laplacian with and without tau, and
    # eigen_report at lambda = 1/tau, all on unit graphs.  Sizes stay where
    # Smith's cost is steady from graph to graph: from n = 10 up, sparse
    # multi-cycle graphs now and then take 20 to 200 times the median.
    # The largest jobs are plain Smith forms of undirected one-cycle
    # graphs, whose cost hardly varies with the seed.
    jobs = []
    for n in (5, 6, 7, 8, 9):
        for oneway in (0.0, 0.3):
            for copy in "abcdef" if n <= SMALL_N else "a":
                tag = f"n{n}-{'dir' if oneway else 'und'}-{copy}"
                spec = GraphSpec(n, max(1, n // 3), False, oneway)
                jobs.append(Job(f"smith-{tag}", ("smith",), tag, spec))
                jobs.append(Job(f"smith-tau-{tag}", ("smith", "--tau", "1/2"), tag, spec))
                jobs.append(Job(f"eigen-{tag}", ("eigen_report", "1/2"), tag, spec))
    large = [("n12-und", GraphSpec(12, 4)), ("n12-dir", GraphSpec(12, 4, False, 0.3))]
    large += [(f"n56-und-{copy}", GraphSpec(56, 1)) for copy in "abc"]
    for tag, spec in large:
        jobs.append(Job(f"smith-{tag}", ("smith",), tag, spec))
    return jobs


def _radius_walks():
    # Tree, one-cycle and multi-cycle graphs through radius, walks,
    # centrality and analyze.  The radius is at least 1/(n - 1) on unit
    # graphs and 1/(3 (n - 1)) with weights of at most 3, so centrality's
    # t of 1/(4 n) and 1/(12 n) is certified below it on every seed.  The
    # oracle enumerates walks only on small graphs at k = 10: its cost grows
    # like the spectral radius to the power k, so on multi-cycle graphs a
    # larger k lets the seed decide the workload's time.
    jobs = []
    shapes = [(n, extra, copy) for n in (6, 8, 12) for extra in (0, 1, 3)
              for copy in ("ab" if n <= SMALL_N else "a")]
    for n, extra, copy in shapes:
        unit = GraphSpec(n, extra, False, 0.3 if extra == 3 else 0.0)
        weighted = GraphSpec(n, extra, True, 0.3 if extra == 1 else 0.0)
        u, w = f"n{n}-x{extra}-u{copy}", f"n{n}-x{extra}-w{copy}"
        jobs += [
            Job(f"radius-nbtw-{u}", ("radius",), u, unit),
            Job(f"radius-btdw-{u}", ("radius", "--mode", "btdw", "--tau", "1/2"), u, unit),
            Job(f"radius-weighted-{w}", ("radius", "--mode", "weighted"), w, weighted),
            Job(f"walks-rec-{u}", ("walks", "--k", "24"), u, unit),
            Job(f"walks-edge-{u}", ("walks", "--k", "24", "--method", "edgepower"), u, unit,
                same_tables_as=f"walks-rec-{u}"),
            Job(f"walks-weighted-{w}", ("walks", "--k", "12"), w, weighted),
            Job(f"centrality-nbtw-{u}", ("centrality", "--t", f"1/{4 * n}"), u, unit),
            Job(f"centrality-weighted-{w}",
                ("centrality", "--mode", "weighted", "--t", f"1/{12 * n}"), w, weighted),
            Job(f"analyze-{w}", ("analyze",), w, weighted),
        ]
        if n <= SMALL_N:
            jobs.append(Job(f"walks-oracle-{u}", ("walks", "--k", "10", "--method", "oracle"),
                            u, unit))
    # The largest jobs: walk tables of one-cycle graphs, whose cost is set
    # by the arc count alone.
    for copy in "abc":
        u = f"n16-x1-u-{copy}"
        jobs += [
            Job(f"walks-rec-{u}", ("walks", "--k", "24"), u, GraphSpec(16, 1)),
            Job(f"walks-edge-{u}", ("walks", "--k", "24", "--method", "edgepower"), u,
                GraphSpec(16, 1), same_tables_as=f"walks-rec-{u}"),
        ]
    return jobs


_JOB_LISTS = {"certify": _certify, "invariants": _invariants, "radius_walks": _radius_walks}


def workload_jobs(name: str) -> list[Job]:
    """The fixed job list of a workload; only the graphs depend on the seed."""
    return _JOB_LISTS[name]()


def warmup_jobs(name: str) -> list[Job]:
    """One job per distinct command of the workload, on 4-vertex graphs."""
    out, seen = [], set()
    for job in workload_jobs(name):
        key = (tuple(arg for arg in job.argv if not arg[0].isdigit()), job.spec.weighted)
        if key not in seen:
            seen.add(key)
            spec = GraphSpec(4, 1, job.spec.weighted, job.spec.oneway)
            out.append(Job(f"warmup-{job.id}", job.argv, f"warmup-{job.graph}", spec))
    return out


def graph_seed(workload: str, seed: int, graph: str) -> str:
    return f"{workload}:{seed}:{graph}"


# ---- running one job --------------------------------------------------------


def run_job(nb, job: Job, path: str):
    """Run one job through the public entry points; return (code, doc).

    ``nb`` maps module short names to the imported nbwalks modules.  The
    document is rendered with ``fileio.to_json`` as the CLI would print it,
    so the rendering is part of the job's time.
    """
    if job.argv[0] == "eigen_report":
        tau = Fraction(job.argv[1])
        g = nb["fileio"].load_graph(path)
        rep = nb["laplacians"].eigen_report(nb["laplacians"].tau_dgl(g, tau), 1 / tau)
        code, doc = 0, {
            "kind": "eigen_report",
            "tau": str(tau),
            "lambda": str(rep.eigenvalue),
            "algebraic": rep.algebraic,
            "geometric": rep.geometric,
            "partials": list(rep.partials),
        }
    else:
        code, doc = nb["cli"].run_command(list(job.argv) + [path])
    nb["fileio"].to_json(doc)
    return code, doc


def digest(doc: dict) -> str:
    """sha256 of the report document with ``input.path`` removed."""
    doc = copy.copy(doc)
    if isinstance(doc.get("input"), dict):
        doc["input"] = {k: v for k, v in doc["input"].items() if k != "path"}
    text = json.dumps(doc, indent=2, ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_job(job: Job, code: int, doc: dict, golden: dict | None, done: dict) -> list[str]:
    """Problems with one job's output; an empty list means it passed.

    ``golden`` maps job ids to digests (None when the seed has no golden);
    ``done`` maps ids of jobs already run in this pass to their documents.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    payload = doc.get("payload", {})
    if job.argv[0] == "verify" and payload.get("all_equal") is not True:
        problems.append("verify: all_equal is not true")
    if golden is not None:
        want = golden.get(job.id)
        got = digest(doc)
        if want != got:
            problems.append(f"digest {got[:12]} differs from golden {str(want)[:12]}")
    if job.same_tables_as is not None:
        other = done.get(job.same_tables_as)
        if other is None or other.get("payload", {}).get("tables") != payload.get("tables"):
            problems.append(f"payload tables differ from {job.same_tables_as}")
    return problems
