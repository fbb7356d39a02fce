"""Pinned `verify` reports of seeded weighted and one-way digraphs.

Each graph below is drawn from a fixed seed and has several strongly
connected components, so its edge matrices and its weighted-Ihara sample
matrices are block triangular.  The sha256 of each report (the JSON as the
CLI prints it, with ``input.path`` removed) was recorded before the block
kernels existed: any change to a certificate, a sample count or a
polynomial shows up here as a different digest.
"""

import hashlib
import json
import random

import pytest

from nbwalks.cli import run_command
from nbwalks.graphs import scc_decompose

from helpers import random_connected_graph, random_digraph

# (name, graph maker) -> digest of the `verify` report
CASES = {
    "unit-tree-oneway": (
        lambda rng: random_connected_graph(rng, 9, 0, oneway=0.5),
        "689facc2c669ed69162041908a74a1fd42883400d3432cbce10c0a6aa90e365d",
    ),
    "unit-cycles-oneway": (
        lambda rng: random_connected_graph(rng, 10, 3, oneway=0.6),
        "3767348b129facd9790a07880e5611f5e5b6bd745d7c3c55209cc6165cbc845e",
    ),
    "unit-sparse-digraph": (
        lambda rng: random_digraph(rng, 9, 0.18),
        "2cbba49fcaa03eabc73644159eb4b85b181b5ab61681f118e422118188d0ce41",
    ),
    "weighted-tree-oneway": (
        lambda rng: random_connected_graph(rng, 10, 1, oneway=0.5, weighted=True),
        "5c2f57e9ee3abe0249607f78ad119db4a357d9862f8ddce6ec2a85d46ffcedc6",
    ),
    "weighted-cycles-oneway": (
        lambda rng: random_connected_graph(rng, 11, 4, oneway=0.6, weighted=True),
        "9e4ec5d6c763f6b73e6e55e8698cbf8c082233e82e3c63ebe5d30c2d001b09c6",
    ),
    "weighted-sparse-digraph": (
        lambda rng: random_digraph(rng, 10, 0.15, weighted=True),
        "2aaa02af227e28edf92d00d1c8c1f62ca461b1e1cd69b8728b1073799593f40e",
    ),
}


def graph_text(g) -> str:
    return "".join(f"{g.labels[u]}\t{g.labels[v]}\t{w}\n" for u, v, w in g.edges)


def report_digest(doc: dict) -> str:
    doc = dict(doc, input={k: v for k, v in doc["input"].items() if k != "path"})
    text = json.dumps(doc, indent=2, ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_bytes(name, tmp_path):
    make, want = CASES[name]
    g = make(random.Random(f"pinned-{name}"))
    assert len(scc_decompose(g).components) >= 3
    path = tmp_path / f"{name}.tsv"
    path.write_text(graph_text(g), encoding="utf-8")
    code, doc = run_command(["verify", str(path)])
    assert code == 0 and doc["payload"]["all_equal"] is True
    assert report_digest(doc) == want
