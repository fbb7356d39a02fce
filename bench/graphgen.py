"""Seeded generator of TSV graph files for the benchmark.

A graph is fixed by a spec (vertex count, family, weighting, one-way share)
and a string seed.  The same spec and seed always give the same bytes:
``random.Random`` seeded with a string is stable across interpreter runs and
independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("tree", "one-cycle", "multi-cycle")

# Small exact weights in both input spellings the parser accepts.
_WEIGHTS = ("2", "3", "1/2", "1/3", "3/2", "2/3", "0.25", "1.5")


@dataclass(frozen=True)
class GraphSpec:
    """Shape of one generated graph.

    ``extra`` is the number of edges added to a spanning tree: 0 for a
    tree, 1 for a single cycle, more for multi-cycle graphs (families of
    the underlying undirected graph).  ``oneway`` is
    the share of edges kept as a single arc instead of a reciprocal pair;
    it is rounded to a whole count, so the arc count is fixed by the spec
    and only the placement varies with the seed.
    """

    n: int
    extra: int = 0
    weighted: bool = False
    oneway: float = 0.0

    @property
    def family(self) -> str:
        return FAMILIES[min(self.extra, 2)]


def generate(spec: GraphSpec, seed: str) -> str:
    """TSV text of a connected graph with ``spec.n`` vertices."""
    rng = random.Random(seed)
    n = spec.n
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    candidates = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if frozenset((u, v)) not in present
    ]
    rng.shuffle(candidates)
    edges += candidates[: spec.extra]
    rng.shuffle(edges)
    single = round(spec.oneway * len(edges))

    lines = [f"# nbwalks benchmark graph: n={n} family={spec.family} seed={seed}"]
    for i, (u, v) in enumerate(edges):
        if rng.random() < 0.5:
            u, v = v, u
        arcs = [(u, v)] if i < single else [(u, v), (v, u)]
        for a, b in arcs:
            if spec.weighted:
                lines.append(f"{a}\t{b}\t{rng.choice(_WEIGHTS)}")
            else:
                lines.append(f"{a}\t{b}")
    return "\n".join(lines) + "\n"
