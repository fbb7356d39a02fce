"""Exact analysis of non-backtracking and backtrack-downweighted walks on
finite weighted digraphs: walk counting, deformed graph Laplacians,
Hashimoto matrices, determinant identities, Smith forms and certified
radius-of-convergence classification."""

__version__ = "0.1.0"

from .convergence import (
    Bound,
    RadiusReport,
    radius_btdw,
    radius_unweighted,
    radius_weighted,
)
from .edgespace import (
    EdgeSpace,
    NonKCyclingMatrix,
    build_edge_space,
    non_k_cycling,
    v_similar,
)
from .exact import Matrix
from .graphs import (
    Component,
    ComponentReport,
    Graph,
    bipartite_component_count,
    build_graph,
    build_unweighted,
    prune_reciprocal_leaves,
    scc_decompose,
    undirected_part,
    undirectization,
)
from .ihara import (
    IdentityCertificate,
    verify_flanders,
    verify_ihara_digraph,
    verify_lemma_suite,
    verify_tau_ihara,
    verify_weighted_ihara,
)
from .laplacians import (
    EigenReport,
    LaplacianBundle,
    directed_dgl,
    eigen_report,
    is_one_defective,
    laplacian_bundle,
    tau_dgl,
)
from .polys import (
    PolyMatrix,
    Polynomial,
    RootRecord,
    SmithForm,
    polymat_det,
    real_roots,
    reversal,
    root_multiplicity,
    smith_form,
)
from .spectral import PerronResult, perron_radius
from .walks import (
    CentralityResult,
    WalkTable,
    btdw_recurrence,
    enumerate_btdw,
    enumerate_nbtw,
    generating_function_eval,
    nbt_katz_centrality,
    nbtw_recurrence,
    weighted_nbtw,
)
from .fileio import load_graph, parse_graph

__all__ = [
    "Bound",
    "CentralityResult",
    "Component",
    "ComponentReport",
    "EdgeSpace",
    "EigenReport",
    "Graph",
    "IdentityCertificate",
    "LaplacianBundle",
    "Matrix",
    "NonKCyclingMatrix",
    "PerronResult",
    "PolyMatrix",
    "Polynomial",
    "RadiusReport",
    "RootRecord",
    "SmithForm",
    "WalkTable",
    "bipartite_component_count",
    "btdw_recurrence",
    "build_edge_space",
    "build_graph",
    "build_unweighted",
    "directed_dgl",
    "eigen_report",
    "enumerate_btdw",
    "enumerate_nbtw",
    "generating_function_eval",
    "is_one_defective",
    "laplacian_bundle",
    "load_graph",
    "nbt_katz_centrality",
    "nbtw_recurrence",
    "non_k_cycling",
    "parse_graph",
    "perron_radius",
    "polymat_det",
    "prune_reciprocal_leaves",
    "radius_btdw",
    "radius_unweighted",
    "radius_weighted",
    "real_roots",
    "reversal",
    "root_multiplicity",
    "scc_decompose",
    "smith_form",
    "tau_dgl",
    "undirected_part",
    "undirectization",
    "v_similar",
    "verify_flanders",
    "verify_ihara_digraph",
    "verify_lemma_suite",
    "verify_tau_ihara",
    "verify_weighted_ihara",
    "weighted_nbtw",
]
