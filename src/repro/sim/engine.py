"""Simulation driver: time-ordered interleaving of per-host trace streams.

Each host replays its stream against the shared system model.  Hosts are
interleaved by simulated time (a min-heap over host clocks), so shared
state — device directory, remapping tables, votes, migration intervals —
observes accesses in a globally consistent order, the multi-host analogue
of the paper's trace-replay methodology (Section 5.1.2).

One run loop serves every configuration (see DESIGN.md, "The engine and
its fast lane").  At each heap turn the host runs its *fast lane* when it
has one: L1 hits that stay private to the host (resident line, no S->M
upgrade) resolve inline, and L1 misses that cannot escalate into a
cross-host transaction go through a per-host flattened miss path
(:func:`_make_flat_path`) that classifies with pure reads, then executes
the slow path's mutations in the slow path's order.  The lane keeps going
while its host still holds the earliest heap turn and no armed event
(interval tick, watchdog audit, poison arrival, stall window, crash
epoch) comes due.  Everything else — a host without a lane, a lane bail,
an event boundary — is one access through :meth:`MultiHostSystem.access`,
the serialized slow path.  The lane flies every path's link and segment
hops inline, on any topology and under transfer errors, unless the edge
link's fault model or a segment has a degrade window.  Records are
byte-identical with the lane on or off; ``fast_lane=False`` is the
reference that tests compare against.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from .. import units
from ..cache.directory import DirectoryEntry
from ..cache.sa_cache import CacheEntry
from ..config import SystemConfig
from ..mem.cxl_link import CONTROL_BYTES, TO_DEVICE, TO_HOST
from ..pipm.remap_cache import RemapCache
from ..pipm.remap_global import NO_HOST, GlobalRemapEntry
from ..pipm.remap_local import LEAF_ENTRIES
from ..policies.base import MigrationScheme
from ..workloads.trace import WorkloadTrace
from .results import ServicePoint, SimulationResult
from .system import MultiHostSystem

_SVC_L1 = int(ServicePoint.L1)
_SVC_LLC = int(ServicePoint.LLC)
_SVC_LOCAL = int(ServicePoint.LOCAL_MEM)
_SVC_PIPM = int(ServicePoint.PIPM_LOCAL)
_SVC_CXL = int(ServicePoint.CXL_MEM)
_LINE_SHIFT = units.LINE_SHIFT
_LINE_TO_PAGE = units.PAGE_SHIFT - units.LINE_SHIFT
_LINES_MASK = units.LINES_PER_PAGE - 1
_CACHE_LINE = units.CACHE_LINE

# MESI-style directory states (must match repro.sim.system).
_I = 0
_S = 1
_M = 3

#: Radix-root entries are 8-byte pointers to leaves (see system.py).
_ROOT_PTRS_PER_LINE = units.CACHE_LINE // 8


def _make_dram_path(pool):
    """Build ``(dram, flush)`` replicating ``pool.access(addr, now)``.

    ``dram(addr, now)`` flattens MemoryController.read_line ->
    DramPool.access -> DramChannel.access for one cache line: same channel
    selection, open-row update, bandwidth-server queueing, and float
    operation order.  Channels within a pool share one geometry, so the
    zero-queue latencies collapse to two precomputed constants (adding a
    0.0 queue delay is bitwise identity on the positive device latencies,
    and skipping a ``+= 0.0`` leaves the nonnegative queue-ns accumulator
    bit-identical).  Integer statistics accumulate in per-channel pending
    cells that ``flush()`` folds into the real counters; nothing reads
    those counters until the run's records are collected, and every other
    writer only increments, so the deferral commutes.
    """
    channels = pool.channels
    n_ch = pool._num_channels
    shift = pool._interleave_shift
    first = channels[0]
    row_bytes = first._row_bytes
    banks = first._banks
    hit_ns = first._row_hit_ns
    miss_ns = first._row_miss_ns
    line_ns = first._line_ns
    hit_tot = hit_ns + line_ns
    miss_tot = miss_ns + line_ns
    pend_n = [0] * n_ch
    pend_h = [0] * n_ch

    def dram(addr, now):
        idx = (addr >> shift) % n_ch
        channel = channels[idx]
        row = addr // row_bytes
        bank = row % banks
        open_rows = channel._open_rows
        pend_n[idx] += 1
        if open_rows.get(bank) == row:
            pend_h[idx] += 1
            busy = channel._busy_until
            if busy > now:
                queue_delay = busy - now
                channel._busy_until = busy + line_ns
                channel._queue_ns.value += queue_delay
                return hit_ns + queue_delay + line_ns
            channel._busy_until = now + line_ns
            return hit_tot
        open_rows[bank] = row
        busy = channel._busy_until
        if busy > now:
            queue_delay = busy - now
            channel._busy_until = busy + line_ns
            channel._queue_ns.value += queue_delay
            return miss_ns + queue_delay + line_ns
        channel._busy_until = now + line_ns
        return miss_tot

    def flush():
        for idx in range(n_ch):
            n = pend_n[idx]
            if not n:
                continue
            hits = pend_h[idx]
            channel = channels[idx]
            channel._row_hits.value += hits
            channel._row_misses.value += n - hits
            channel._accesses.value += n
            channel._bytes.value += n * _CACHE_LINE
            pend_n[idx] = 0
            pend_h[idx] = 0

    return dram, flush


def _make_flat_path(system, host_id, stall_by_service):
    """Build one host's fast lane for L1-missing accesses.

    Returns ``(flat, flush)`` where ``flat(l1, cache_set, addr, line,
    is_write, now)`` resolves one access end to end — classification,
    latency, cache/directory mutations, service/stall accounting — and
    returns the host's new clock, or ``None`` when the access must go
    through the serialized slow path.  The factory itself returns ``None``
    (the host gets no lane) when the configuration rules the lane out:
    HW-static PIPM, infinite remap caches, or any non-LRU replacement
    policy (the inline paths replicate dict-order LRU).  Every fault plan
    keeps the lane.

    The closure replicates :meth:`MultiHostSystem.access` for every flow
    that cannot escalate into a cross-host transaction, in two phases:
    phase 1 *classifies* with pure reads only (so a bail leaves zero state
    mutated and the slow path re-executes the access from scratch), phase
    2 *executes* with the exact mutation and float-addition order of the
    slow path, so results stay byte-identical.  Escalating cases — a
    dirty-owner forward, an inter-host access that migrates a line back
    or revokes the owner's partial migration, an S->M upgrade on a cached
    copy, a PIPM promotion crossing the vote threshold — bail to the slow
    path.  An inter-host access to a page migrated elsewhere that moves
    no line is a PIPM access served from CXL memory (flow 3) plus the
    owner's local-counter decrement, so the lane keeps it.

    Shared state (the directory, remap tables, other hosts' caches, link
    and switch queues) is read live at each access, never snapshotted:
    the caller runs the lane only while this host holds the earliest heap
    turn, so the lane sees exactly the state the slow path would see at
    that point of the global order.  The CXL round trip and a dirty LLC
    victim's writeback fly the edge link and the path's shared segments
    (a flat path has none) inline, on any topology.  A faulted edge link
    flies inline too: after each leg's edge hop the lane draws the
    link's CRC error, in the order the link's own transfers draw, and a
    drawn error runs :meth:`~repro.mem.cxl_link.CxlLink.retry_tail`, the
    one retry and give-up implementation.  Only a degrade window, on the
    edge link's fault model or on a segment, makes the lane call the
    host's real path, which tests each window where the flight reaches
    it.

    Beyond the link's error stream, the only fault state a lane access
    reads is the migration governor.  Where the slow path would ask
    ``injector.promotion_blocked`` before a PIPM vote, phase 1 computes
    that call's answer with pure reads (the hold, then the host's own
    degrade window); when it is true, phase 2 makes the slow path's own
    call, with its skip counters and the hold it may arm, instead of
    voting.

    Three mechanical liberties keep the hot path short without touching
    observable results:

    * zero-queue hop/DRAM latencies fold to precomputed constants
      (IEEE-754: adding ``0.0`` to a positive float is identity, so the
      constant equals the runtime sum bit for bit);
    * integer statistics (hit/miss/eviction counters, every hop's
      message/byte totals) accumulate in closure cells that ``flush()``
      folds back in — every concurrent writer only increments, and
      nothing reads them until records are collected, so the deferral
      commutes.  Float accumulators (queue ns, stall ns, ledger benefit)
      stay live because float addition order is observable;
    * evicted ``CacheEntry``/``DirectoryEntry`` objects are recycled as
      the incoming fill (stamps are dead under dict-order LRU, and
      nothing compares entry identity), skipping the allocation.

    Caller contract (enforced by :meth:`SimulationEngine.run`): the L1
    missed, ``cache_set`` is the probed L1 set dict for ``line``, the line
    is not poisoned, ``now`` is below every armed event bound (interval
    tick, watchdog audit, poison arrival, stall window, crash epoch), and
    this host still holds the earliest heap turn.
    """
    is_pipm = system._is_pipm
    is_page_map = system._is_page_map
    all_local = system.all_local
    engine = system.engine
    if is_pipm and (
        engine.static_map
        or type(engine.global_cache) is not RemapCache
        or type(engine.local_caches[host_id]) is not RemapCache
    ):
        # HW-static lazily allocates local entries on lookup and the
        # infinite caches override probe/install; neither is worth
        # flattening — those runs take the slow path on every miss.
        return None

    host = system.hosts[host_id]
    hosts = system.hosts
    tlb_cache = host.tlb._cache
    llc = host.llc
    l1s = host.l1s
    lru_caches = [tlb_cache, llc, *l1s]
    if is_pipm:
        lru_caches.append(engine.local_caches[host_id]._cache)
        lru_caches.append(engine.global_cache._cache)
    if not all(cache._lru for cache in lru_caches):
        return None
    if len({l1.ways for l1 in l1s}) != 1:
        return None
    l1_ways = l1s[0].ways

    svc_counts = system.svc_counts
    inv_mlp = host.core.inv_mlp
    svc_llc = _SVC_LLC
    svc_local = _SVC_LOCAL
    svc_pipm = _SVC_PIPM
    svc_cxl = _SVC_CXL
    cxl_end = system._cxl_end
    llc_ns = system._llc_ns
    ldir_ns = system._ldir_ns
    ddir_ns = system._ddir_ns

    tlb = host.tlb
    # translate() computes hit_ns (+ walk_ns on a miss), access() adds
    # l1_ns, then llc_ns; presumming the constant operands in the same
    # association reproduces the same floats.
    lat0_hit = (tlb.hit_ns + system._l1_ns) + llc_ns
    lat0_miss = ((tlb.hit_ns + tlb.walk_ns) + system._l1_ns) + llc_ns
    tlb_sets = tlb_cache._sets
    tlb_mask = tlb_cache._mask
    tlb_ways = tlb_cache.ways

    llc_sets = llc._sets
    llc_mask = llc._mask
    llc_ways = llc.ways
    l1_residue = [(l1._sets, l1._mask) for l1 in l1s]

    dram_local, flush_local = _make_dram_path(host.local_mem.pool)
    dram_cxl, flush_cxl = _make_dram_path(system.cxl_mem.pool)

    # The path's hops: the edge link, then its segments (a flat path is
    # the edge link itself).  A degrade window on the edge link's fault
    # model or on a segment makes the lane call the path's own
    # round_trip and transfer, as _cxl_access and _handle_llc_eviction
    # do; windows are armed only in MultiHostSystem.__init__ (fault
    # models, apply_switch_down), before run() builds any lane, so the
    # choice holds for the whole run.  A faulted edge link with no window
    # folds: after each leg's edge hop the lane draws the link's CRC
    # error, and only a drawn error calls the link's retry tail.
    path = system.paths[host_id]
    link = system.links[host_id]
    hops = (link,) if path is link else (link, *path.segments)
    link_faults = link._faults
    folded = link_faults is None or not link_faults.windows
    for seg in hops[1:]:
        if seg._deg_start < seg._deg_end:
            folded = False
    err_rate = link_faults.error_rate if link_faults is not None else 0.0
    draw_error = link_faults.draw_error if link_faults is not None else None
    retry_tail = link.retry_tail
    round_trip = path.round_trip
    path_transfer = path.transfer
    rt_bytes = CONTROL_BYTES + _CACHE_LINE

    def leg(size_bytes, order):
        # Per hop: queue state, latency, serialization (as transfer()
        # computes it), the empty-queue total and the queue-ns cell.
        return [
            (hop._busy_until, hop._latency_ns, ser, hop._latency_ns + ser,
             hop._queue_ns)
            for hop in order
            for ser in (size_bytes * 1e9 / hop._bw_bytes_ns,)
        ]

    # The round trip flies the edge link (first hop out, last hop back)
    # inline and loops over the segments only, so a flat path's misses
    # run no loop body; a writeback loops over every hop and draws the
    # edge link's error after its first.
    (link_busy, link_lat, ser_ctrl, out0, link_qns), *request_segs = leg(
        CONTROL_BYTES, hops
    )
    *response_segs, (_, _, ser_line, in0, _) = leg(_CACHE_LINE, hops[::-1])
    wb_hops = leg(_CACHE_LINE, hops)

    device_dir = system.device_dir
    dir_arrays = device_dir._arrays
    dir_sps = device_dir.sets_per_slice
    dir_slices = device_dir.slices
    dir_mask = device_dir._mask
    dir_ways = device_dir.ways
    back_invalidate = system._back_invalidate
    drop_exclusivity = system._drop_exclusivity

    pt_mapped = host.page_table._mapped
    page_map = system.page_map
    dirty_pages = system.dirty_pages
    observe = system.scheme.observe_shared_access if is_page_map else None
    ledger = system.ledger
    ledger_live = ledger._live if ledger is not None else None
    ledger_benefit = ledger.benefit_per_local if ledger is not None else 0.0
    peak_local_lines = system.peak_local_lines

    if is_pipm:
        local_table = engine.local_tables[host_id]
        local_entries = local_table._entries
        owner_tables = [table._entries for table in engine.local_tables]
        lrc = engine.local_caches[host_id]._cache
        lrc_sets = lrc._sets
        lrc_mask = lrc._mask
        lrc_ways = lrc.ways
        grc = engine.global_cache._cache
        grc_sets = grc._sets
        grc_mask = grc._mask
        grc_ways = grc.ways
        g_entries = engine.global_table._entries
        pinned = engine._pinned_cxl
        vote = engine.vote
        gmax = vote._global_max
        lmax = vote._local_max
        threshold = vote.threshold
        pipm_counters = engine.counters
        peak_pages = pipm_counters.peak_pages
        peak_lines = pipm_counters.peak_lines
        lrc_ns = system._lrc_ns
        grc_ns = system._grc_ns
        local_root_base = system._local_root_base
        local_leaf_base = system._local_leaf_base
        global_table_base = system._global_table_base
        leaf_epl = system._leaf_entries_per_line
        g_epl = system._global_entries_per_line
        # The migration governor, as promotion_blocked reads it: the
        # hold first, then this host's own degrade window.
        governed = system._governed
        injector = system.injector
        promotion_blocked = injector.promotion_blocked if governed else None
        window_at = (
            link_faults.window_at
            if link_faults is not None and link_faults.windows
            else None
        )

    # Deferred integer statistics (see the docstring).
    t_h = t_m = t_e = 0  # TLB hits / misses / evictions
    c_h = c_m = c_e = 0  # LLC hits / misses / evictions
    d_l = d_h = d_ce = 0  # device directory lookups / hits / evictions
    rt_n = wb_n = 0  # link round trips / writeback transfers
    p_h = p_m = p_e = 0  # local remap cache hits / misses / evictions
    g_h = g_m = g_e = 0  # global remap cache hits / misses / evictions

    def flush():
        nonlocal t_h, t_m, t_e, c_h, c_m, c_e, d_l, d_h, d_ce
        nonlocal rt_n, wb_n, p_h, p_m, p_e, g_h, g_m, g_e
        tlb_cache.hits += t_h
        tlb_cache.misses += t_m
        tlb_cache.evictions += t_e
        llc.hits += c_h
        llc.misses += c_m
        llc.evictions += c_e
        device_dir.lookups += d_l
        device_dir.hits += d_h
        device_dir.capacity_evictions += d_ce
        for hop in hops:
            hop._messages.value += 2 * rt_n + wb_n
            hop._bytes.value += rt_bytes * rt_n + _CACHE_LINE * wb_n
        if is_pipm:
            lrc.hits += p_h
            lrc.misses += p_m
            lrc.evictions += p_e
            grc.hits += g_h
            grc.misses += g_m
            grc.evictions += g_e
        t_h = t_m = t_e = c_h = c_m = c_e = d_l = d_h = d_ce = 0
        rt_n = wb_n = p_h = p_m = p_e = g_h = g_m = g_e = 0
        flush_local()
        flush_cxl()

    def flat(l1, cache_set, addr, line, is_write, now):
        nonlocal t_h, t_m, t_e, c_h, c_m, c_e, d_l, d_h, d_ce
        nonlocal rt_n, wb_n, p_h, p_m, p_e, g_h, g_m, g_e
        # ============ phase 1: classify (pure reads only) ============
        page = line >> _LINE_TO_PAGE
        shared = addr < cxl_end
        loc = None
        if shared and is_page_map:
            loc = page_map.get(page)
            if loc is not None and loc != host_id:
                return None  # inter-host page: non-cacheable 4-hop
        llc_set = llc_sets[line & llc_mask]
        llc_entry = llc_set.get(line)
        pipm_entry = None
        gentry = None
        dset = None
        dentry = None
        current = NO_HOST
        if llc_entry is not None:
            if is_write and not llc_entry.dirty and llc_entry.state == 0:
                return None  # S -> M on LLC hit
            flow = 0  # LLC hit
        elif not shared or all_local:
            flow = 1  # host-private (or all-local scheme): local DRAM
        elif is_pipm:
            gentry = g_entries.get(page)
            if gentry is not None:
                current = gentry.current_host
            if current != NO_HOST and current != host_id:
                # Migrated elsewhere: the inter-host vote (step 5 of Fig.
                # 7) stays in the lane only when it moves no line back
                # and cannot revoke the owner's partial migration.
                owner_entry = owner_tables[current].get(page)
                if (
                    owner_entry is None
                    or owner_entry.counter <= 1
                    or owner_entry.migrated_lines >> (line & _LINES_MASK) & 1
                ):
                    return None  # no owner entry, revocation, migrate-back
            elif current == NO_HOST:
                # promotion_blocked(host_id, now)'s answer; nothing
                # touches the injector between here and phase 2's call.
                held = governed and (
                    now < injector._suspended_until
                    or (window_at is not None and window_at(now) is not None)
                )
                if (
                    gentry is not None
                    and gentry.candidate_host == host_id
                    and gentry.counter > 0
                    and not held
                    and page not in pinned
                ):
                    nxt = gentry.counter + (1 if gentry.counter < gmax else 0)
                    if nxt >= threshold:
                        return None  # vote threshold
            pipm_entry = local_entries.get(page)
            if pipm_entry is not None and (
                pipm_entry.migrated_lines >> (line & _LINES_MASK) & 1
            ):
                flow = 2  # PIPM: line already migrated here
            else:
                flow = 3  # PIPM: served from CXL memory
        elif loc is not None:  # loc == host_id (foreign bailed above)
            flow = 4  # kernel-migrated page owned here: local DRAM
        else:
            flow = 5  # plain cacheable CXL access
        if flow == 3 or flow == 5:
            dset = dir_arrays[(line // dir_sps) % dir_slices][
                line & dir_mask
            ]
            dentry = dset.get(line)
            if (
                dentry is not None
                and dentry.state == _M
                and dentry.owner != host_id
                and dentry.owner >= 0
                and hosts[dentry.owner].holds_line(line)
            ):
                return None  # dirty owner: 4-hop forward

        # ============ phase 2: execute (no bail past here) ============
        # TLB translate (access() charges it before the L1 probe).
        tlb_set = tlb_sets[page & tlb_mask]
        tlb_entry = tlb_set.get(page)
        if tlb_entry is not None:
            t_h += 1
            del tlb_set[page]
            tlb_set[page] = tlb_entry
            lat = lat0_hit
        else:
            t_m += 1
            if len(tlb_set) >= tlb_ways:
                t_e += 1
                tlb_entry = tlb_set.pop(next(iter(tlb_set)))
                tlb_entry.line = page  # recycle: TLB entries stay default
                tlb_set[page] = tlb_entry
            else:
                tlb_set[page] = CacheEntry(page)
            lat = lat0_miss
        l1.misses += 1  # the l1.lookup() the caller's probe stood in for

        if flow == 0:
            c_h += 1
            del llc_set[line]
            llc_set[line] = llc_entry
            if is_write:
                llc_entry.dirty = True
            # _fill_l1 from the LLC copy.
            if len(cache_set) >= l1_ways:
                v = cache_set.pop(next(iter(cache_set)))
                l1.evictions += 1
                if v.dirty:
                    ve = llc_sets[v.line & llc_mask].get(v.line)
                    if ve is not None:
                        ve.dirty = True
                v.line = line
                v.dirty = is_write
                v.state = llc_entry.state or 0
                cache_set[line] = v
            else:
                cache_set[line] = CacheEntry(
                    line, is_write, llc_entry.state or 0
                )
            svc_counts[svc_llc] += 1
            stall = lat * inv_mlp
            stall_by_service[svc_llc] += stall
            return now + stall

        c_m += 1
        if flow == 1:
            lat += ldir_ns + dram_local(addr, now)
            exclusive = 1
            svc = svc_local
        elif flow == 4:
            pt_mapped.add(page)
            observe(host_id, page, now, is_write)
            if ledger_live is not None:
                rec = ledger_live.get(page)
                if rec is not None:
                    rec.benefit_ns += ledger_benefit
            if is_write:
                dirty_pages.add(page)
            lat += ldir_ns + dram_local(addr, now)
            exclusive = 1
            svc = svc_local
        else:
            if flow == 5:
                pt_mapped.add(page)
                if observe is not None:
                    observe(host_id, page, now, is_write)
            else:  # flows 2 and 3: the PIPM lookup ladder
                pt_mapped.add(page)
                # Local remapping cache probe (+ install on a miss).
                lrc_set = lrc_sets[page & lrc_mask]
                ce = lrc_set.get(page)
                if ce is not None:
                    p_h += 1
                    del lrc_set[page]
                    lrc_set[page] = ce
                    lat += lrc_ns
                else:
                    p_m += 1
                    if len(lrc_set) >= lrc_ways:
                        p_e += 1
                        ce = lrc_set.pop(next(iter(lrc_set)))
                        ce.line = page  # recycle: remap entries stay default
                        lrc_set[page] = ce
                    else:
                        lrc_set[page] = CacheEntry(page)
                    lat += lrc_ns
                    # Two-level radix walk in local DRAM.
                    root = page // LEAF_ENTRIES
                    lat += dram_local(
                        local_root_base
                        + (root // _ROOT_PTRS_PER_LINE << _LINE_SHIFT),
                        now,
                    )
                    lat += dram_local(
                        local_leaf_base + (page // leaf_epl << _LINE_SHIFT),
                        now,
                    )
                if flow == 2:
                    # Case 3 of Fig. 9: served from local memory.
                    if pipm_entry.counter < lmax:
                        pipm_entry.counter += 1
                    lat += ldir_ns + dram_local(addr, now)
                    exclusive = 1
                    svc = svc_pipm
                else:
                    if pipm_entry is not None:
                        # Partially migrated here, but this line still
                        # lives in CXL: count the local interest.
                        if pipm_entry.counter < lmax:
                            pipm_entry.counter += 1
                    lat += grc_ns
                    gset = grc_sets[page & grc_mask]
                    ge = gset.get(page)
                    if ge is not None:
                        g_h += 1
                        del gset[page]
                        gset[page] = ge
                    else:
                        g_m += 1
                        if len(gset) >= grc_ways:
                            g_e += 1
                            ge = gset.pop(next(iter(gset)))
                            ge.line = page  # recycle, as above
                            gset[page] = ge
                        else:
                            gset[page] = CacheEntry(page)
                        lat += dram_cxl(
                            global_table_base
                            + (page // g_epl << _LINE_SHIFT),
                            now,
                        )
                    if current == NO_HOST:
                        if held:
                            # Graceful degradation, as _shared_pipm: the
                            # governor's own call (skip counters, a hold
                            # it may arm) and no vote.
                            promotion_blocked(host_id, now)
                        elif page not in pinned:
                            # Majority vote (promotion excluded in
                            # phase 1).
                            if gentry is None:
                                gentry = GlobalRemapEntry()
                                g_entries[page] = gentry
                            if (
                                gentry.candidate_host == NO_HOST
                                or gentry.counter == 0
                            ):
                                gentry.candidate_host = host_id
                                gentry.counter = 1
                            elif gentry.candidate_host == host_id:
                                if gentry.counter < gmax:
                                    gentry.counter += 1
                            else:
                                gentry.counter -= 1
                    elif current != host_id:
                        # inter_host_access: phase 1 kept the owner's
                        # counter above 1, so the vote cannot revoke.
                        owner_entry.counter -= 1

            if flow != 2:
                # ---- plain cacheable CXL access (_cxl_access) ----
                if folded:
                    # Request leg, then the response leg from when it
                    # delivers; an empty-queue hop adds its constant.
                    # Each edge hop draws the link's CRC error, and its
                    # retries join the leg as part of that hop's term.
                    b = link_busy[0]
                    if b > now:
                        qd = b - now
                        link_busy[0] = b + ser_ctrl
                        link_qns.value += qd
                        out = link_lat + qd + ser_ctrl
                    else:
                        link_busy[0] = now + ser_ctrl
                        out = out0
                    if err_rate and draw_error():
                        out = retry_tail(
                            TO_DEVICE, CONTROL_BYTES, ser_ctrl, out
                        )
                    for busy, hop_lat, ser, hop0, qns in request_segs:
                        at = now + out
                        b = busy[0]
                        if b > at:
                            qd = b - at
                            busy[0] = b + ser
                            qns.value += qd
                            out += hop_lat + qd + ser
                        else:
                            busy[0] = at + ser
                            out += hop0
                    then = now + out
                    back = 0.0
                    for busy, hop_lat, ser, hop0, qns in response_segs:
                        at = then + back
                        b = busy[1]
                        if b > at:
                            qd = b - at
                            busy[1] = b + ser
                            qns.value += qd
                            back += hop_lat + qd + ser
                        else:
                            busy[1] = at + ser
                            back += hop0
                    at = then + back
                    b = link_busy[1]
                    if b > at:
                        qd = b - at
                        link_busy[1] = b + ser_line
                        link_qns.value += qd
                        edge = link_lat + qd + ser_line
                    else:
                        link_busy[1] = at + ser_line
                        edge = in0
                    if err_rate and draw_error():
                        edge = retry_tail(TO_HOST, _CACHE_LINE, ser_line, edge)
                    back += edge
                    extra = (out + back) + ddir_ns
                    rt_n += 1
                else:
                    extra = (
                        round_trip(now, CONTROL_BYTES, _CACHE_LINE) + ddir_ns
                    )
                d_l += 1
                if dentry is not None:
                    d_h += 1
                    del dset[line]
                    dset[line] = dentry
                extra += dram_cxl(addr, now)
                # _dir_update (the lookup above already moved the entry
                # to the MRU end, so allocate's move-to-end is a no-op).
                # A capacity victim back-invalidates *before* the new
                # entry is linked in: the recall only touches host caches
                # and the link/DRAM servers, never this directory set, so
                # the reorder is unobservable — and frees the victim
                # entry for recycling.
                if is_write:
                    if dentry is not None:
                        srs = dentry.sharers
                        if len(srs) != 1 or host_id not in srs:
                            for sharer in sorted(srs):
                                if sharer != host_id:
                                    hosts[sharer].invalidate_line(line)
                        dentry.state = _M
                        dentry.owner = host_id
                        dentry.sharers = {host_id}
                    elif len(dset) >= dir_ways:
                        victim = dset.pop(next(iter(dset)))
                        d_ce += 1
                        back_invalidate(victim, now)
                        victim.line = line
                        victim.state = _M
                        victim.owner = host_id
                        victim.sharers = {host_id}
                        dset[line] = victim
                    else:
                        dentry = DirectoryEntry(line, _M, host_id)
                        dentry.sharers = {host_id}
                        dset[line] = dentry
                    exclusive = 1
                else:
                    if dentry is not None:
                        dentry.state = _S
                        srs = dentry.sharers
                        if srs and (len(srs) != 1 or host_id not in srs):
                            for sharer in sorted(srs):
                                if sharer != host_id:
                                    drop_exclusivity(sharer, line)
                        srs.add(host_id)
                        exclusive = 1 if len(srs) <= 1 else 0
                    else:
                        if len(dset) >= dir_ways:
                            victim = dset.pop(next(iter(dset)))
                            d_ce += 1
                            back_invalidate(victim, now)
                            victim.line = line
                            victim.state = _S
                            victim.owner = -1
                            srs = victim.sharers
                            srs.clear()
                            srs.add(host_id)
                            dset[line] = victim
                        else:
                            dentry = DirectoryEntry(line, _S, -1)
                            dentry.sharers.add(host_id)
                            dset[line] = dentry
                        exclusive = 1
                lat = lat + extra
                svc = svc_cxl

        # _fill_l1: exclusive from local memory, as the directory decided
        # from CXL.  Every flow's mutations above precede it, as in the
        # slow path.
        if len(cache_set) >= l1_ways:
            v = cache_set.pop(next(iter(cache_set)))
            l1.evictions += 1
            if v.dirty:
                ve = llc_sets[v.line & llc_mask].get(v.line)
                if ve is not None:
                    ve.dirty = True
            v.line = line
            v.dirty = is_write
            v.state = exclusive
            cache_set[line] = v
        else:
            cache_set[line] = CacheEntry(line, is_write, exclusive)

        # ---- LLC fill + eviction handling (_fill tail) ----
        # The victim is handled first and its entry object recycled as
        # the incoming fill; the fill lands at the MRU end either way,
        # and the victim handling never reads this LLC set.
        if len(llc_set) >= llc_ways:
            victim = llc_set.pop(next(iter(llc_set)))
            c_e += 1
            vline = victim.line
            vdirty = victim.dirty
            for r_sets, r_mask in l1_residue:
                residue = r_sets[vline & r_mask].pop(vline, None)
                if residue is not None and residue.dirty:
                    vdirty = True
            vaddr = vline << _LINE_SHIFT
            if vaddr >= cxl_end:
                if vdirty:
                    dram_local(vaddr, now)
            else:
                handled = False
                vpage = vline >> _LINE_TO_PAGE
                if is_pipm:
                    ventry = local_entries.get(vpage)
                    if ventry is not None and (
                        vdirty or victim.state == 1
                    ):
                        # Incremental migration (cases 1/4 of Fig. 9).
                        bit = 1 << (vline & _LINES_MASK)
                        if not ventry.migrated_lines & bit:
                            ventry.migrated_lines |= bit
                            ventry.migrated_count += 1
                            local_table._migrated_total += 1
                            pipm_counters.incremental_migrations += 1
                            n_pages = len(local_entries)
                            if n_pages > peak_pages.get(host_id, 0):
                                peak_pages[host_id] = n_pages
                            n_lines = local_table._migrated_total
                            if n_lines > peak_lines.get(host_id, 0):
                                peak_lines[host_id] = n_lines
                        dram_local(vaddr, now)
                        dir_arrays[(vline // dir_sps) % dir_slices][
                            vline & dir_mask
                        ].pop(vline, None)
                        n_lines = local_table._migrated_total
                        if n_lines > peak_local_lines.get(host_id, 0):
                            peak_local_lines[host_id] = n_lines
                        handled = True
                elif is_page_map:
                    if page_map.get(vpage) == host_id:
                        if vdirty:
                            dram_local(vaddr, now)
                        handled = True
                if not handled:
                    if vdirty:
                        # path.transfer(TO_DEVICE) + CXL writeback.
                        if folded:
                            out = 0.0
                            for busy, hop_lat, ser, hop0, qns in wb_hops:
                                at = now + out
                                b = busy[0]
                                if b > at:
                                    qd = b - at
                                    busy[0] = b + ser
                                    qns.value += qd
                                    out += hop_lat + qd + ser
                                else:
                                    busy[0] = at + ser
                                    out += hop0
                                if (
                                    err_rate
                                    and busy is link_busy
                                    and draw_error()
                                ):
                                    out = retry_tail(
                                        TO_DEVICE, _CACHE_LINE, ser, out
                                    )
                            wb_n += 1
                        else:
                            path_transfer(TO_DEVICE, now, _CACHE_LINE)
                        dram_cxl(vaddr, now)
                    vset = dir_arrays[(vline // dir_sps) % dir_slices][
                        vline & dir_mask
                    ]
                    de = vset.get(vline)
                    if de is not None:
                        de.sharers.discard(host_id)
                        if de.owner == host_id:
                            de.owner = -1
                            de.state = _S if de.sharers else _I
                        if not de.sharers:
                            del vset[vline]
            victim.line = line
            victim.dirty = is_write
            victim.state = exclusive
            llc_set[line] = victim
        else:
            llc_set[line] = CacheEntry(line, is_write, exclusive)
        svc_counts[svc] += 1
        stall = lat * inv_mlp
        stall_by_service[svc] += stall
        return now + stall

    return flat, flush


class SimulationEngine:
    """Runs one workload trace through one system configuration.

    ``fast_lane=False`` turns every host's fast lane off, so every access
    takes the serialized slow path: the reference the lane is tested
    against.  Results are byte-identical either way.
    """

    def __init__(
        self,
        system: MultiHostSystem,
        trace: WorkloadTrace,
        fast_lane: bool = True,
    ) -> None:
        if trace.num_hosts != system.config.num_hosts:
            raise ValueError(
                f"trace has {trace.num_hosts} hosts, system has "
                f"{system.config.num_hosts}"
            )
        self.system = system
        self.trace = trace
        self.fast_lane = fast_lane
        #: Accesses the fast lanes served in the last :meth:`run` (tooling
        #: only: not part of the result, so records do not depend on it).
        self.lane_accesses = 0
        # Bake each host's stream array once into the run loop's four
        # column lists.  The stream-wide sanity checks below are
        # reductions over the stream's own columns (``validate`` reads
        # the address column).
        total = 0
        self._run_streams = []
        self._instr_totals = []
        for host_id, stream in enumerate(trace.streams):
            total += len(stream)
            ns_per_instr = system.hosts[host_id].core.ns_per_instruction
            baked = trace.baked_arrays(host_id, ns_per_instr)
            if len(baked) and baked.compute_ns.min() < 0:
                index = int(np.argmax(baked.compute_ns < 0))
                raise ValueError(
                    f"trace {trace.name!r}: host {host_id} record "
                    f"{index} has a negative inter-access gap "
                    f"({baked.gap[index]} instructions); simulated time "
                    f"cannot run backwards"
                )
            self._run_streams.append(baked.columns())
            self._instr_totals.append(int(baked.gap.sum()))
        if total == 0:
            raise ValueError(
                f"trace {trace.name!r} contains no accesses on any host; "
                f"nothing to simulate"
            )
        address_map = system.address_map
        trace.validate(address_map.cxl_capacity, address_map.total_capacity)

    def run(self) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        streams = self._run_streams
        interval_scheme = system._next_interval is not None
        injector = system.injector
        check_stalls = injector is not None and injector.has_stalls
        check_crash = injector is not None and injector.has_crashes
        watchdog = system.watchdog
        check_watchdog = (
            watchdog is not None and watchdog.period_ns > 0
        )
        check_poison = system._check_poison
        # When no interval scheme / fault plan / watchdog is armed, the
        # inner loop skips their checks entirely (the common profile case).
        eventful = (
            interval_scheme or check_stalls or check_watchdog or check_crash
        )
        bounded = eventful or check_poison

        stall_by_service = [0.0] * 7
        svc_l1 = _SVC_L1
        access = system.access
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        lens = [len(cns) for cns, _, _, _ in streams]
        inv_mlp = [host.core.inv_mlp for host in hosts]
        access_counts = [0] * len(hosts)
        lane_accesses = 0
        svc_counts = system.svc_counts
        cxl_end = system._cxl_end
        inf = math.inf
        poisoned = injector.poisoned if check_poison else None

        # Each host's fast lane, resolved once: its four record columns,
        # the per-core L1 set dicts, the TLB set dicts and its flat miss
        # path, so a lane turn costs one tuple unpack instead of a pile of
        # attribute lookups.  ``None`` = no lane: every access of that
        # host takes the slow path.
        lanes = [None] * len(hosts)
        flushes = []
        if self.fast_lane:
            for host_id, host in enumerate(hosts):
                made = _make_flat_path(system, host_id, stall_by_service)
                if made is None:
                    continue
                flat, flush = made
                flushes.append(flush)
                tlb_cache = host.tlb._cache
                lanes[host_id] = (
                    *streams[host_id],
                    lens[host_id],
                    [(l1, l1._sets, l1._mask) for l1 in host.l1s],
                    len(host.l1s),
                    tlb_cache,
                    tlb_cache._sets,
                    tlb_cache._mask,
                    tlb_cache.ways,
                    flat,
                )

        # Heap of (clock_ns, host_id, next_index).  The loop holds the
        # current minimum in ``item`` and continues a host via heappushpop,
        # which short-circuits in O(1) when that host is still the earliest
        # — the single-runnable-host case never touches the heap.
        heap = [
            (hosts[h].clock_ns, h, 0)
            for h in range(len(streams))
            if lens[h]
        ]
        heapq.heapify(heap)
        item = heappop(heap)
        while True:
            clock, host_id, index = item
            host = hosts[host_id]
            host_clock = host.clock_ns
            if host_clock > clock:
                # Management charges moved this host's clock forward; requeue
                # so interleaving stays time-ordered.
                item = heappushpop(heap, (host_clock, host_id, index))
                continue
            if check_stalls:
                resume = injector.stall_resume(host_id, clock)
                if resume is not None and resume > clock:
                    # The host is inside a pause/stall window: it executes
                    # nothing until the window ends.
                    injector.counters.host_stall_ns += resume - clock
                    host.clock_ns = resume
                    item = heappushpop(heap, (resume, host_id, index))
                    continue
            if check_crash:
                resume = injector.crash_resume(host_id, clock)
                if resume is not None:
                    if resume == inf:
                        # Fail-stop with no rejoin: drop the host's
                        # remaining stream deterministically (counted).
                        injector.counters.crash_dropped_accesses += (
                            lens[host_id] - index
                        )
                        if heap:
                            item = heappop(heap)
                            continue
                        break
                    # Dead until the rejoin epoch: pause the stream.
                    host.clock_ns = resume
                    item = heappushpop(heap, (resume, host_id, index))
                    continue

            lane = lanes[host_id]
            if lane is not None:
                # ---- the host's fast lane ------------------------------
                # ``event_bound`` fences every time-ordered side channel
                # the slow path checks per access: crossing any of them
                # must go through the slow path.  ``heap_bound`` fences
                # the host's heap turn — an access may run in the lane
                # only while this host would still win (strictly) the
                # heappushpop.  Falling out of the lane is always safe:
                # the slow path below re-examines the access from scratch.
                (cns, addrs, writes, cores, length, l1m, n_l1, tlb_cache,
                 tlb_sets, tlb_mask, tlb_ways, flat) = lane
                heap_bound = heap[0][0] if heap else inf
                event_bound = inf
                if bounded:
                    if interval_scheme:
                        event_bound = system._next_interval
                    if check_watchdog and watchdog._next_audit < event_bound:
                        event_bound = watchdog._next_audit
                    if check_poison and injector.next_poison_ns < event_bound:
                        event_bound = injector.next_poison_ns
                    if check_stalls:
                        stall_bound = injector.next_stall_start(host_id, clock)
                        if stall_bound < event_bound:
                            event_bound = stall_bound
                    if check_crash and injector.next_crash_ns < event_bound:
                        event_bound = injector.next_crash_ns
                consumed = 0
                l1_count = 0
                bailed = False
                while index < length:
                    if consumed and host_clock >= heap_bound:
                        break
                    now = host_clock + cns[index]
                    if now >= event_bound:
                        break
                    addr = addrs[index]
                    line = addr >> _LINE_SHIFT
                    if poisoned and line in poisoned:
                        bailed = True
                        break
                    l1, l1_sets, l1_mask = l1m[cores[index] % n_l1]
                    cache_set = l1_sets[line & l1_mask]
                    entry = cache_set.get(line)
                    if entry is None:
                        # L1 miss: the flat path resolves it end to end,
                        # or returns None and leaves it to the slow path
                        # with nothing mutated.
                        hc = flat(
                            l1, cache_set, addr, line, writes[index], now
                        )
                        if hc is None:
                            bailed = True
                            break
                        host_clock = hc
                        index += 1
                        consumed += 1
                        continue
                    if writes[index]:
                        if (
                            addr < cxl_end
                            and not entry.dirty
                            and entry.state == 0
                        ):
                            # Write hit on a Shared copy: the S -> M
                            # upgrade invalidates other hosts.
                            bailed = True
                            break
                        entry.dirty = True
                    # Commit the hit: exactly the slow path's move-to-end
                    # and counter, plus the TLB translate it charges (the
                    # latency itself is discarded on an L1 hit).
                    del cache_set[line]
                    cache_set[line] = entry
                    l1.hits += 1
                    page = line >> _LINE_TO_PAGE
                    tlb_set = tlb_sets[page & tlb_mask]
                    tlb_entry = tlb_set.get(page)
                    if tlb_entry is not None:
                        tlb_cache.hits += 1
                        del tlb_set[page]
                        tlb_set[page] = tlb_entry
                    else:
                        tlb_cache.misses += 1
                        if len(tlb_set) >= tlb_ways:
                            tlb_set.pop(next(iter(tlb_set)))
                            tlb_cache.evictions += 1
                        tlb_set[page] = CacheEntry(page)
                    host_clock = now
                    index += 1
                    consumed += 1
                    l1_count += 1
                if consumed:
                    if l1_count:
                        svc_counts[svc_l1] += l1_count
                    access_counts[host_id] += consumed
                    lane_accesses += consumed
                    host.clock_ns = host_clock
                    if index == length:
                        if heap:
                            item = heappop(heap)
                            continue
                        break
                    if not bailed:
                        item = heappushpop(heap, (host_clock, host_id, index))
                        continue
                    # A bail: the host passed the heap bound just before
                    # it, so it still holds the turn, and its next turn
                    # would only probe this access again.  The slow path
                    # takes it now.

            # ---- serialized slow path ----------------------------------
            cns, addrs, writes, cores = streams[host_id]
            now = host_clock + cns[index]
            host.clock_ns = now
            if eventful:
                if check_crash:
                    system.maybe_crash(now)
                    if host_id in injector.crashed:
                        # This access died with its host at the crash
                        # epoch: requeue so the next turn pauses or drops
                        # the stream instead of serving it.
                        item = heappushpop(heap, (now, host_id, index))
                        continue
                if interval_scheme:
                    system.maybe_tick(now)
                if check_watchdog:
                    watchdog.maybe_audit(now)
            latency, service = access(
                host_id, cores[index], addrs[index], writes[index], now
            )
            access_counts[host_id] += 1
            if service != svc_l1:
                stall = latency * inv_mlp[host_id]
                host.clock_ns += stall
                stall_by_service[service] += stall
            index += 1
            if index < lens[host_id]:
                item = heappushpop(heap, (host.clock_ns, host_id, index))
            elif heap:
                item = heappop(heap)
            else:
                break

        # Fold the lanes' deferred integer statistics back into the live
        # counters before anything reads them.
        for flush in flushes:
            flush()
        self.lane_accesses = lane_accesses
        return self._finish(stall_by_service, access_counts)

    # ------------------------------------------------------------------
    # Shared epilogue
    # ------------------------------------------------------------------
    def _finish(self, stall_by_service, access_counts) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        access_total = 0
        for host_id, host in enumerate(hosts):
            host.instructions += self._instr_totals[host_id]
            host.accesses += access_counts[host_id]
            access_total += access_counts[host_id]

        system.finalize()
        watchdog = system.watchdog
        if watchdog is not None:
            # One final end-of-run consistency sweep.
            watchdog.audit(max((h.clock_ns for h in hosts), default=0.0))
        return self._collect(stall_by_service, access_total)

    def _collect(self, stall_by_service, access_total) -> SimulationResult:
        system = self.system
        hosts = system.hosts
        host_times = [h.clock_ns for h in hosts]
        result = SimulationResult(
            workload=self.trace.name,
            scheme=system.scheme.name,
            num_hosts=system.config.num_hosts,
            exec_time_ns=max(host_times) if host_times else 0.0,
            host_time_ns=host_times,
            instructions=sum(h.instructions for h in hosts),
            accesses=access_total,
            service_counts={
                svc: count
                for svc, count in enumerate(system.svc_counts)
                if count
            },
            stall_ns_by_service={
                svc: ns
                for svc, ns in enumerate(stall_by_service)
                if ns
            },
            mgmt_ns=system.mgmt_ns,
            transfer_ns=system.transfer_ns,
            migrations=system.migrations,
            demotions=system.demotions,
            footprint_bytes=self.trace.footprint_bytes,
            peak_local_pages=dict(system.peak_local_pages),
            peak_local_lines=dict(system.peak_local_lines),
        )
        result.stats["freq_ghz"] = system.config.core.freq_ghz
        result.stats["back_invalidations"] = system.back_invalidations
        if system.ledger is not None:
            ledger = system.ledger
            result.stats["harmful_migrations"] = ledger.harmful_migrations
            result.stats["total_migrations"] = ledger.total_migrations
            result.stats["harmful_fraction"] = ledger.harmful_fraction
        if system.engine is not None:
            counters = system.engine.counters
            result.stats["pipm_promotions"] = counters.promotions
            result.stats["pipm_revocations"] = counters.revocations
            result.stats["pipm_incremental_migrations"] = (
                counters.incremental_migrations
            )
            result.stats["pipm_migrate_backs"] = counters.migrate_backs
            result.stats["global_remap_cache_hit_rate"] = (
                system.engine.global_cache.hit_rate
            )
            local_caches = system.engine.local_caches
            hits = sum(c.hits for c in local_caches)
            misses = sum(c.misses for c in local_caches)
            result.stats["local_remap_cache_hit_rate"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        # Fault/recovery counters appear only when they fired, so an idle
        # fault plan leaves the result identical to a faults-disabled run.
        result.stats.update(system.fault_stats())
        return result


def simulate(
    trace: WorkloadTrace,
    scheme: MigrationScheme,
    config: Optional[SystemConfig] = None,
    fast_lane: bool = True,
    **system_kwargs,
) -> SimulationResult:
    """Convenience: build a system for ``scheme`` and run ``trace``."""
    if config is None:
        config = SystemConfig.scaled()
    system_kwargs.setdefault(
        "footprint_pages", max(1, trace.footprint_bytes // 4096)
    )
    system = MultiHostSystem(
        config, scheme, workload_mlp=trace.mlp, **system_kwargs
    )
    return SimulationEngine(system, trace, fast_lane=fast_lane).run()
