"""Benchmark algorithms in UDF form (Section V: PR, BFS, SSSP, CC, GCN).

Each factory returns an :class:`~repro.frontend.udf.Algorithm` whose
kernels any schedule can execute; ``repro.algorithms.gcn`` additionally
provides the SpMM/GraphSum operator pair of Case Study 2.
"""

from repro.algorithms.pagerank import pagerank_algorithm
from repro.algorithms.bfs import bfs_algorithm
from repro.algorithms.sssp import sssp_algorithm
from repro.algorithms.cc import connected_components_algorithm
from repro.algorithms.registry import algorithm_names, make_algorithm
from repro.algorithms import gcn

__all__ = [
    "pagerank_algorithm",
    "bfs_algorithm",
    "sssp_algorithm",
    "connected_components_algorithm",
    "algorithm_names",
    "make_algorithm",
    "gcn",
]
