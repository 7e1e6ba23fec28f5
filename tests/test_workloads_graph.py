"""RMAT graph generation and CSR layout."""

import numpy as np
import pytest

from repro import units
from repro.mem.address import HeapAllocator
from repro.workloads.graph import (
    graph_for_footprint,
    layout_graph,
    line_sample,
    rmat_graph,
)


def _reference_rmat(num_vertices, avg_degree=8, seed=7, a=0.57, b=0.19,
                    c=0.19):
    """The allocating RMAT build: one mask per quadrant, then lexsort.

    :func:`rmat_graph` draws in place and sorts one int64 key instead;
    both must give the same CSR from the same random stream.
    """
    scale = (num_vertices - 1).bit_length()
    n = 1 << scale
    num_edges = n * avg_degree
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(num_edges)
        in_b = (r >= a) & (r < a + b)
        in_c = (r >= a + b) & (r < a + b + c)
        in_d = r >= a + b + c
        src = (src << 1) | (in_c | in_d).astype(np.int64)
        dst = (dst << 1) | (in_b | in_d).astype(np.int64)
    perm = rng.permutation(n)
    src = perm[src]
    dst = perm[dst]
    order = np.lexsort((dst, src))
    counts = np.bincount(src[order], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dst[order]


class TestRmatGraph:
    def test_basic_structure(self):
        g = rmat_graph(1024, avg_degree=4, seed=1)
        assert g.num_vertices == 1024
        assert g.num_edges == 1024 * 4
        assert len(g.offsets) == 1025
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.num_edges

    def test_offsets_monotone(self):
        g = rmat_graph(512, seed=2)
        assert (np.diff(g.offsets) >= 0).all()

    def test_neighbors_in_range(self):
        g = rmat_graph(512, seed=3)
        assert g.neighbors.min() >= 0
        assert g.neighbors.max() < g.num_vertices

    def test_adjacency_lists_sorted(self):
        g = rmat_graph(512, seed=4)
        for v in range(0, 512, 37):
            adj = g.adjacency(v)
            assert (np.diff(adj) >= 0).all()

    def test_power_law_degree_skew(self):
        g = rmat_graph(4096, avg_degree=8, seed=5)
        degrees = np.diff(g.offsets)
        assert degrees.max() > 8 * degrees.mean()

    def test_rounds_to_power_of_two(self):
        g = rmat_graph(1000)
        assert g.num_vertices == 1024

    def test_deterministic(self):
        a = rmat_graph(256, seed=9)
        b = rmat_graph(256, seed=9)
        assert (a.neighbors == b.neighbors).all()

    def test_degree_and_adjacency_accessors(self):
        g = rmat_graph(256, seed=1)
        v = int(np.argmax(np.diff(g.offsets)))
        assert g.degree(v) == len(g.adjacency(v))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            rmat_graph(1)

    def test_rejects_sort_key_overflow(self):
        # 2**32 vertices would overflow the int64 (source, neighbor) key;
        # the check fires before anything is allocated.
        with pytest.raises(ValueError, match="2\\*\\*31"):
            rmat_graph(2**31 + 1)

    @pytest.mark.parametrize("seed", [1, 7, 1234])
    @pytest.mark.parametrize(
        "num_vertices,avg_degree",
        [
            (2, 8),
            (3, 1),
            (1000, 8),
            (5000, 3),
            # graph_for_footprint at the tiny (512 KB) and small (2 MB)
            # footprints.
            (512 * units.KB // 88, 8),
            (2 * units.MB // 88, 8),
        ],
    )
    def test_matches_reference_build(self, num_vertices, avg_degree, seed):
        g = rmat_graph(num_vertices, avg_degree=avg_degree, seed=seed)
        offsets, neighbors = _reference_rmat(
            num_vertices, avg_degree=avg_degree, seed=seed
        )
        assert g.offsets.dtype == offsets.dtype
        assert g.neighbors.dtype == neighbors.dtype
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.neighbors, neighbors)


class TestLayout:
    def test_layout_allocates_four_regions(self):
        g = rmat_graph(256, seed=1)
        heap = HeapAllocator(64 * units.MB)
        lay = layout_graph(heap, g)
        names = [r.name for r in heap.regions]
        assert names == ["offsets", "edges", "prop_a", "prop_b"]
        assert lay.edges_region.size >= g.num_edges * 8

    def test_address_helpers(self):
        g = rmat_graph(256, seed=1)
        heap = HeapAllocator(64 * units.MB)
        lay = layout_graph(heap, g)
        v = np.array([0, 1])
        assert lay.prop_a_addr(v)[1] - lay.prop_a_addr(v)[0] == 8
        assert (lay.offsets_addr(v) >= lay.offsets_region.start).all()

    def test_graph_for_footprint_sizing(self):
        g = graph_for_footprint(4 * units.MB)
        assert 2 * units.MB < g.csr_bytes < 12 * units.MB


class TestLineSample:
    def test_collapses_same_line_runs(self):
        addrs = np.array([0, 8, 16, 64, 72, 128])
        sampled = line_sample(addrs)
        assert sampled.tolist() == [0, 64, 128]

    def test_preserves_alternation(self):
        addrs = np.array([0, 64, 0, 64])
        assert line_sample(addrs).tolist() == [0, 64, 0, 64]

    def test_empty(self):
        assert len(line_sample(np.array([], dtype=np.int64))) == 0
