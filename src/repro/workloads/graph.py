"""RMAT graph generation and CSR layout for the GAPBS kernels.

GAPBS evaluates on Kronecker (Kron) graphs; RMAT with the Graph500
parameters (a=0.57, b=0.19, c=0.19) is the standard synthetic equivalent.
The generator builds a real CSR structure (offsets + neighbor arrays) with
numpy, and the GAPBS trace generators in :mod:`repro.workloads.gapbs` run
real traversals over it, so the cross-host sharing in the traces comes from
genuine graph structure (power-law hubs shared by every host, partition
locality for adjacency data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units
from ..mem.address import HeapAllocator, Region

#: Bytes per vertex-indexed array element (ids/ranks are 8-byte).
ELEM = 8


@dataclass
class CsrGraph:
    """Compressed-sparse-row graph."""

    num_vertices: int
    offsets: np.ndarray  # int64[num_vertices + 1]
    neighbors: np.ndarray  # int64[num_edges]

    @property
    def num_edges(self) -> int:
        return int(self.offsets[-1])

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def adjacency(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    @property
    def csr_bytes(self) -> int:
        return (self.num_vertices + 1) * ELEM + self.num_edges * ELEM


def rmat_graph(
    num_vertices: int,
    avg_degree: int = 8,
    seed: int = 7,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CsrGraph:
    """Generate an RMAT graph in CSR form.

    ``num_vertices`` is rounded up to a power of two (RMAT requirement),
    at most ``2**31`` so a (source, destination) pair fits one int64 sort
    key.  Self-loops are kept (harmless for traversal traces); duplicate
    edges are not deduplicated, matching GAPBS's Kron generator defaults.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    scale = (num_vertices - 1).bit_length()
    if scale > 31:
        raise ValueError(
            f"{num_vertices} vertices need 2**{scale}; at most 2**31 fit "
            f"the int64 edge sort key"
        )
    n = 1 << scale
    num_edges = n * avg_degree
    rng = np.random.default_rng(seed)

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # One uniform draw per edge and bit level picks a quadrant:
    # a = [0, a) (src 0, dst 0), b = [a, a+b) (0, 1), c = [a+b, a+b+c)
    # (1, 0), d = the rest (1, 1).  Every level reuses the same buffers.
    ab = a + b
    abc = a + b + c
    r = np.empty(num_edges)
    src_bit = np.empty(num_edges, dtype=bool)
    dst_bit = np.empty(num_edges, dtype=bool)
    for _ in range(scale):
        rng.random(out=r)
        np.greater_equal(r, ab, out=src_bit)  # c or d
        np.greater_equal(r, a, out=dst_bit)
        np.greater(dst_bit, src_bit, out=dst_bit)  # b: a <= r < a+b
        src <<= 1
        src |= src_bit
        np.greater_equal(r, abc, out=src_bit)  # d
        dst_bit |= src_bit
        dst <<= 1
        dst |= dst_bit
    del r, src_bit, dst_bit
    # Permute vertex ids so hubs are spread across partitions.
    perm = rng.permutation(n)

    # Canonical CSR: rows sorted by source, each adjacency list sorted by
    # neighbor id (GAPBS builds sorted lists; this gives neighbor-indexed
    # property reads their real spatial locality).  One sorted key per
    # edge, source-major, orders both at once.
    key = perm[src]
    key *= n
    key += perm[dst]
    del src, dst
    key.sort()
    neighbors = key % n
    counts = np.bincount(key // n, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CsrGraph(n, offsets, neighbors)


@dataclass
class GraphLayout:
    """Shared-heap placement of a graph workload's data structures."""

    graph: CsrGraph
    offsets_region: Region
    edges_region: Region
    prop_a_region: Region  # e.g. rank (source), distance, label
    prop_b_region: Region  # e.g. rank (destination), parent

    def offsets_addr(self, v: np.ndarray) -> np.ndarray:
        return self.offsets_region.start + v * ELEM

    def edge_addr(self, edge_index: np.ndarray) -> np.ndarray:
        return self.edges_region.start + edge_index * ELEM

    def prop_a_addr(self, v: np.ndarray) -> np.ndarray:
        return self.prop_a_region.start + v * ELEM

    def prop_b_addr(self, v: np.ndarray) -> np.ndarray:
        return self.prop_b_region.start + v * ELEM


def layout_graph(heap: HeapAllocator, graph: CsrGraph) -> GraphLayout:
    """Allocate CSR + two vertex property arrays on the shared heap."""
    offsets_region = heap.alloc("offsets", (graph.num_vertices + 1) * ELEM)
    edges_region = heap.alloc("edges", max(graph.num_edges, 1) * ELEM)
    prop_a = heap.alloc("prop_a", graph.num_vertices * ELEM)
    prop_b = heap.alloc("prop_b", graph.num_vertices * ELEM)
    return GraphLayout(graph, offsets_region, edges_region, prop_a, prop_b)


def graph_for_footprint(footprint_bytes: int, avg_degree: int = 8,
                        seed: int = 7) -> CsrGraph:
    """Size an RMAT graph so CSR + properties fit ``footprint_bytes``."""
    # bytes ~= n*(1+avg_degree+2)*8
    n = max(256, footprint_bytes // ((avg_degree + 3) * ELEM))
    return rmat_graph(n, avg_degree=avg_degree, seed=seed)


def line_sample(addrs: np.ndarray) -> np.ndarray:
    """Collapse consecutive same-cache-line addresses (one access per line).

    Traversal emitters produce element-granular addresses; the simulator
    works at line granularity, and consecutive elements on one line would
    all be trivial L1 hits.  Keeping one access per line run keeps traces
    short without changing miss behaviour.
    """
    if len(addrs) == 0:
        return addrs
    lines = addrs >> units.LINE_SHIFT
    keep = np.empty(len(addrs), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return addrs[keep]
