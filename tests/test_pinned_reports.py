"""Pinned `verify` and `radius` reports of seeded weighted and one-way
digraphs.

Each graph in CASES is drawn from a fixed seed and has several strongly
connected components, so its edge matrices and its weighted-Ihara sample
matrices are block triangular.  The sha256 of each report (the JSON as the
CLI prints it, with ``input.path`` removed) was recorded before the block
kernels existed: any change to a certificate, a sample count or a
polynomial shows up here as a different digest.

The `radius` digests were recorded before the one-sign root refinement and
the column-pass Perron start vector: any change to an isolating interval or
a Collatz-Wielandt bracket shows up the same way.
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


# (graph name, radius arguments) -> digest of the `radius` report; the
# graphs are those of CASES and one multi-cycle graph with n = 20
RADIUS_GRAPHS = {
    **{name: make for name, (make, _) in CASES.items()},
    "unit-multicycle-n20": lambda rng: random_connected_graph(rng, 20, 6),
}
NBTW, BTDW, WEIGHTED = (), ("--mode", "btdw", "--tau", "1/2"), ("--mode", "weighted")
RADIUS_CASES = {
    ("unit-tree-oneway", NBTW):
        "5813eb8f5e2f8b75abeaeb7183279f5f8cfd467db6c664ac77d5293199aa5ed1",
    ("unit-tree-oneway", BTDW):
        "bdaa400ef9b81bcf2e2bb1443b12c475b8a44a533178de58e0a8042678e2e923",
    ("unit-tree-oneway", WEIGHTED):
        "9b53d785451f8ede678b43d30747e6f58f3150989c9685d59732cdafb2b9e77c",
    ("unit-cycles-oneway", NBTW):
        "968496e553f728273b4db7f300dd733aa40707103d3cf2163197253bea66675e",
    ("unit-cycles-oneway", BTDW):
        "05e16e64c7c10cee8d804f911c8abf48583388b109967fa667025c3f3465e0e4",
    ("unit-cycles-oneway", WEIGHTED):
        "c4af0c34e7ca856e4be97e8bde77823f79d5884ca023b575ecfd259180c63a75",
    ("unit-sparse-digraph", NBTW):
        "fb88e73007332207b4bb92c9a33086f2a3daa211af3f8b378998d5ac5c024f63",
    ("unit-sparse-digraph", BTDW):
        "8fbe0062b0535d2a33cc224c5f20696edc24ab5f3b686b40bfadc34a8cae5d7f",
    ("unit-sparse-digraph", WEIGHTED):
        "9e40f40fdced08c7484b75c97403820444a3ba51fd055403cd5ec284142e0c6e",
    ("weighted-tree-oneway", WEIGHTED):
        "581deb29b0a63fcb388a7582ae216b8ff2879e88f9fb739323ba8dfb8833b82e",
    ("weighted-cycles-oneway", WEIGHTED):
        "bb10524ce5e0f9fd6b1752cb07f1ade17775037be9f65b55ccc8dda951daad84",
    ("weighted-sparse-digraph", WEIGHTED):
        "8e482b0e5d48fced81571510984c37500b4e42bbe51efdd312fd5918d4ca60f1",
    ("unit-multicycle-n20", NBTW):
        "8e95164222cd121d3f3d3392182ecb316c9995989fd9b9813a34ccc4f8503663",
    ("unit-multicycle-n20", BTDW):
        "cf7eecfba15ec7e7e8848f9f354f45cb30acd6f640bfad22df77dabea2f842fe",
    ("unit-multicycle-n20", WEIGHTED):
        "f35c9c690204a5e877d7a60a98fdbaa6fa86ff3c2a2c38e84698d7bde1c741e3",
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


@pytest.mark.parametrize(
    "name, args", sorted(RADIUS_CASES),
    ids=[f"{name}-{args[1] if args else 'nbtw'}" for name, args in sorted(RADIUS_CASES)],
)
def test_radius_report_bytes(name, args, tmp_path):
    g = RADIUS_GRAPHS[name](random.Random(f"pinned-{name}"))
    path = tmp_path / f"{name}.tsv"
    path.write_text(graph_text(g), encoding="utf-8")
    code, doc = run_command(["radius", *args, str(path)])
    assert code == 0
    assert report_digest(doc) == RADIUS_CASES[name, args]
