"""All thirteen Table 1 workload generators."""

import dataclasses
import platform

import numpy as np
import pytest

from repro.workloads import WorkloadScale, generate, workload_names
from repro.workloads import registry
from repro.workloads.registry import WORKLOADS

SCALE = WorkloadScale.tiny()


@pytest.fixture(scope="module")
def all_traces():
    return {name: generate(name, scale=SCALE) for name in workload_names()}


class TestInventory:
    def test_thirteen_workloads(self):
        assert len(workload_names()) == 13

    def test_paper_order_and_suites(self):
        names = workload_names()
        assert names[:6] == ["sssp", "bfs", "pr", "cc", "bc", "tc"]
        assert WORKLOADS["xsbench"].suite == "XSBench"
        assert WORKLOADS["tpcc"].suite == "Silo"

    def test_paper_footprints_recorded(self):
        assert WORKLOADS["sssp"].paper_footprint_gb == 48
        assert WORKLOADS["xsbench"].paper_footprint_gb == 42
        assert WORKLOADS["bodytrack"].paper_footprint_gb == 8
        assert WORKLOADS["ycsb"].paper_footprint_gb == 15

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            generate("spec2017", scale=SCALE)


class TestHeapRelease:
    """generate() hands the generator's freed scratch back to the OS."""

    def test_trimmed_once_after_the_generator_runs(self, monkeypatch):
        calls = []
        pr = WORKLOADS["pr"]

        def generator(ctx):
            calls.append("generator")
            return pr.generator(ctx)

        monkeypatch.setitem(
            WORKLOADS, "pr", dataclasses.replace(pr, generator=generator)
        )
        monkeypatch.setattr(
            registry, "_malloc_trim", lambda pad: calls.append(("trim", pad))
        )
        generate("pr", scale=SCALE)
        assert calls == ["generator", ("trim", 0)]

    def test_no_trim_where_the_c_library_has_none(self, monkeypatch):
        monkeypatch.setattr(registry, "_malloc_trim", None)
        trace = generate("pr", scale=SCALE)
        assert trace.total_accesses == 4 * SCALE.accesses_per_host

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="malloc_trim is a glibc function")
    def test_glibc_trim_resolved(self):
        assert registry._malloc_trim is not None


class TestEveryGenerator:
    @pytest.mark.parametrize("name", workload_names())
    def test_shape(self, all_traces, name):
        trace = all_traces[name]
        assert trace.name == name
        assert trace.num_hosts == 4
        assert len(trace.streams) == 4
        for stream in trace.streams:
            assert len(stream) == SCALE.accesses_per_host

    @pytest.mark.parametrize("name", workload_names())
    def test_records_valid(self, all_traces, name):
        trace = all_traces[name]
        for stream in trace.streams:
            for gap, addr, is_write, core in stream[:200]:
                assert gap >= 1
                assert addr >= 0
                # Mixture generators emit line-aligned addresses; GAPBS
                # walkers emit element-granular (8B) addresses.
                assert addr % 8 == 0
                assert is_write in (0, 1)
                assert 0 <= core < 4

    @pytest.mark.parametrize("name", workload_names())
    def test_addresses_inside_regions(self, all_traces, name):
        trace = all_traces[name]
        hi = max(r.end for r in trace.regions)
        for stream in trace.streams:
            addrs = np.array([a for _, a, _, _ in stream])
            assert addrs.max() < hi

    @pytest.mark.parametrize("name", workload_names())
    def test_metadata(self, all_traces, name):
        trace = all_traces[name]
        assert trace.footprint_bytes > 0
        assert trace.mlp >= 1.0
        assert trace.description
        assert trace.total_accesses == 4 * SCALE.accesses_per_host
        assert trace.total_instructions > trace.total_accesses

    @pytest.mark.parametrize("name", workload_names())
    def test_deterministic(self, name):
        a = generate(name, scale=SCALE)
        b = generate(name, scale=SCALE)
        assert len(a.streams) == len(b.streams)
        for x, y in zip(a.streams, b.streams):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", workload_names())
    def test_stream_layout(self, all_traces, name):
        for stream in all_traces[name].streams:
            assert isinstance(stream, np.ndarray)
            assert stream.dtype == np.int64
            assert stream.flags.c_contiguous
            assert stream.shape == (SCALE.accesses_per_host, 4)
            assert stream.nbytes == 32 * len(stream)

    @pytest.mark.parametrize("name", workload_names())
    def test_total_instructions_is_record_sum(self, all_traces, name):
        trace = all_traces[name]
        assert isinstance(trace.total_instructions, int)
        assert trace.total_instructions == sum(
            gap for stream in trace.streams
            for gap, _, _, _ in stream.tolist()
        )


class TestSharingStructure:
    """The properties the paper's analysis depends on."""

    def _host_page_sets(self, trace):
        return [
            {a >> 12 for _, a, _, _ in stream} for stream in trace.streams
        ]

    def test_gapbs_partitions_mostly_private(self, all_traces):
        """Each host's adjacency data is not touched by other hosts."""
        trace = all_traces["pr"]
        edges = next(r for r in trace.regions if r.name == "edges")
        per_host = []
        for stream in trace.streams:
            per_host.append({
                a >> 12 for _, a, _, _ in stream if edges.contains(a)
            })
        overlap = len(per_host[0] & per_host[1])
        assert overlap <= max(2, len(per_host[0]) // 20)

    def test_gapbs_props_are_shared(self, all_traces):
        trace = all_traces["pr"]
        props = [r for r in trace.regions if r.name.startswith("prop")]
        shared = 0
        sets = self._host_page_sets(trace)
        for region in props:
            pages0 = {p for p in sets[0] if region.contains(p << 12)}
            pages1 = {p for p in sets[1] if region.contains(p << 12)}
            shared += len(pages0 & pages1)
        assert shared > 0

    def test_fluidanimate_boundary_pages_shared(self, all_traces):
        sets = self._host_page_sets(all_traces["fluidanimate"])
        assert sets[0] & sets[1]  # neighbours share boundary pages

    def test_canneal_uniformly_shared(self, all_traces):
        sets = self._host_page_sets(all_traces["canneal"])
        inter = sets[0] & sets[1] & sets[2] & sets[3]
        assert len(inter) > len(sets[0]) // 2

    def test_tc_read_only(self, all_traces):
        trace = all_traces["tc"]
        writes = sum(w for s in trace.streams for _, _, w, _ in s)
        assert writes == 0

    def test_xsbench_read_only(self, all_traces):
        trace = all_traces["xsbench"]
        writes = sum(w for s in trace.streams for _, _, w, _ in s)
        assert writes == 0

    def test_ycsb_read_write_mix(self, all_traces):
        trace = all_traces["ycsb"]
        writes = sum(w for s in trace.streams for _, _, w, _ in s)
        frac = writes / trace.total_accesses
        assert 0.1 < frac < 0.3  # R:W 4:1

    def test_tpcc_write_heavier_than_ycsb(self, all_traces):
        def write_frac(t):
            return sum(
                w for s in t.streams for _, _, w, _ in s
            ) / t.total_accesses
        assert write_frac(all_traces["tpcc"]) > write_frac(all_traces["ycsb"])

    def test_validate_passes_inside_map(self, all_traces):
        trace = all_traces["pr"]
        trace.validate(cxl_capacity=1 << 40, total_capacity=1 << 42)
