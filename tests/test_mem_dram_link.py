"""DRAM timing, CXL link, memory controller models."""

import pytest

from repro import units
from repro.config import CxlLinkConfig, DramConfig
from repro.mem.controller import MemoryController
from repro.mem.cxl_link import CONTROL_BYTES, TO_DEVICE, TO_HOST, CxlLink
from repro.mem.dram import DramChannel, DramPool
from repro.stats import StatRegistry


@pytest.fixture()
def dram_cfg() -> DramConfig:
    return DramConfig(1 * units.GB, 1, 38.4)


class TestDramChannel:
    def test_row_miss_then_hit(self, dram_cfg):
        ch = DramChannel(dram_cfg)
        first = ch.access(0, now=0.0)
        second = ch.access(64, now=1000.0)  # same row
        assert first > second
        assert second == pytest.approx(
            dram_cfg.row_hit_ns
            + units.transfer_ns(64, dram_cfg.bandwidth_gbs_per_channel)
        )

    def test_row_conflict(self, dram_cfg):
        ch = DramChannel(dram_cfg)
        ch.access(0, now=0.0)
        far = dram_cfg.row_bytes * dram_cfg.banks_per_channel  # same bank
        lat = ch.access(far, now=1000.0)
        assert lat >= dram_cfg.row_miss_ns

    def test_bandwidth_queueing(self, dram_cfg):
        ch = DramChannel(dram_cfg)
        # Back-to-back page transfers at the same instant queue up.
        first = ch.access(0, now=0.0, size_bytes=units.PAGE_SIZE)
        second = ch.access(8192, now=0.0, size_bytes=units.PAGE_SIZE)
        assert second > first

    def test_idle_gap_clears_queue(self, dram_cfg):
        ch = DramChannel(dram_cfg)
        ch.access(0, now=0.0, size_bytes=units.PAGE_SIZE)
        lat = ch.access(0, now=1e9)
        assert lat < dram_cfg.row_miss_ns + 5

    def test_reset(self, dram_cfg):
        ch = DramChannel(dram_cfg)
        ch.access(0, now=0.0)
        ch.reset()
        assert ch.access(0, now=0.0) >= dram_cfg.row_miss_ns


class TestDramPool:
    def test_channel_interleave_at_page_granularity(self):
        cfg = DramConfig(1 * units.GB, 2, 38.4)
        pool = DramPool(cfg)
        pool.access(0, now=0.0, size_bytes=units.PAGE_SIZE)
        # A different page maps to the other channel: no queueing.
        lat = pool.access(units.PAGE_SIZE, now=0.0, size_bytes=units.PAGE_SIZE)
        solo = DramPool(cfg).access(0, now=0.0, size_bytes=units.PAGE_SIZE)
        assert lat == pytest.approx(solo)

    def test_total_bandwidth(self):
        cfg = DramConfig(1 * units.GB, 2, 38.4)
        assert DramPool(cfg).total_bandwidth_gbs == pytest.approx(76.8)


class TestCxlLink:
    def test_one_way_latency_plus_serialization(self):
        link = CxlLink(CxlLinkConfig(latency_ns=50, bandwidth_gbs=5.0))
        lat = link.transfer(TO_DEVICE, now=0.0, size_bytes=64)
        assert lat == pytest.approx(50 + units.transfer_ns(64, 5.0))

    def test_round_trip_is_two_traversals(self):
        link = CxlLink(CxlLinkConfig(latency_ns=50, bandwidth_gbs=5.0))
        rt = link.round_trip(0.0, CONTROL_BYTES, 64)
        assert rt > 100  # two 50ns traversals plus serialization

    def test_directions_queue_independently(self):
        link = CxlLink(CxlLinkConfig(latency_ns=50, bandwidth_gbs=5.0))
        link.transfer(TO_DEVICE, 0.0, units.PAGE_SIZE)
        # The opposite direction is not blocked.
        lat = link.transfer(TO_HOST, 0.0, 64)
        assert lat == pytest.approx(50 + units.transfer_ns(64, 5.0))

    def test_same_direction_queues(self):
        link = CxlLink(CxlLinkConfig(latency_ns=50, bandwidth_gbs=5.0))
        link.transfer(TO_DEVICE, 0.0, units.PAGE_SIZE)
        lat = link.transfer(TO_DEVICE, 0.0, 64)
        assert lat > 50 + units.transfer_ns(64, 5.0)

    def test_occupancy_and_reset(self):
        link = CxlLink(CxlLinkConfig())
        link.transfer(TO_DEVICE, 0.0, units.PAGE_SIZE)
        assert link.occupancy_until(TO_DEVICE) > 0
        link.reset()
        assert link.occupancy_until(TO_DEVICE) == 0


class TestMemoryController:
    def test_read_write_line(self, dram_cfg):
        mc = MemoryController(dram_cfg)
        assert mc.read_line(0, 0.0) > 0
        assert mc.write_line(0, 10.0) > 0

    def test_page_transfer_slower_than_line(self, dram_cfg):
        mc = MemoryController(dram_cfg)
        line = mc.read_line(0, 0.0)
        mc.reset()
        page = mc.transfer_page(0, 0.0)
        assert page > line


class TestControllerLineInline:
    """``read_line``/``write_line`` run DramChannel.access's cache-line
    arithmetic inline; they must match it bit for bit."""

    def _twins(self):
        cfg = DramConfig(1 * units.GB, 2, 38.4)
        fast, ref = StatRegistry(), StatRegistry()
        mc = MemoryController(cfg, fast.scoped("mem"))
        pool = DramPool(cfg, ref.scoped("mem"))
        return mc, pool, fast, ref

    def _check(self, ops):
        mc, pool, fast, ref = self._twins()
        for method, addr, now in ops:
            got = getattr(mc, method)(addr, now)
            want = pool.channels[
                (addr >> units.PAGE_SHIFT) % len(pool.channels)
            ].access(addr, now, units.CACHE_LINE)
            assert got == want, (method, addr, now)
            for mine, theirs in zip(mc.pool.channels, pool.channels):
                assert mine._busy_until == theirs._busy_until
                assert mine._open_rows == theirs._open_rows
        assert fast.snapshot() == ref.snapshot()
        return fast.snapshot()

    def test_row_miss_then_row_hit(self):
        stats = self._check([
            ("read_line", 0, 0.0),
            ("write_line", units.CACHE_LINE, 1000.0),
        ])
        assert stats["mem.ch0.row_misses"] == 1
        assert stats["mem.ch0.row_hits"] == 1

    def test_row_conflict_on_both_channels(self):
        row = DramConfig(1 * units.GB, 2, 38.4).row_bytes
        banks = DramConfig(1 * units.GB, 2, 38.4).banks_per_channel
        stats = self._check([
            ("read_line", 0, 0.0),
            ("read_line", units.PAGE_SIZE, 10.0),  # channel 1
            ("write_line", row * banks, 2000.0),  # same bank, new row
            ("read_line", 0, 4000.0),
        ])
        assert stats["mem.ch0.row_misses"] == 3
        assert stats["mem.ch1.accesses"] == 1

    def test_queued_channel(self):
        stats = self._check([
            ("read_line", 0, 0.0),
            ("write_line", units.CACHE_LINE, 0.0),
            ("read_line", 2 * units.CACHE_LINE, 0.5),
            ("read_line", units.PAGE_SIZE, 0.0),
        ])
        assert stats["mem.ch0.queue_ns"] > 0
