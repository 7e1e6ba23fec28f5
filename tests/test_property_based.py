"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cache.sa_cache import SetAssocCache
from repro.coherence.base_protocol import Action, BaseCxlDsmModel
from repro.coherence.pipm_protocol import PipmModel
from repro.config import PipmConfig
from repro.mem.address import FrameAllocator
from repro.pipm.majority_vote import MajorityVote, VoteDecision
from repro.pipm.remap_global import GlobalRemapEntry
from repro.pipm.remap_local import LocalRemapEntry

lines = st.integers(min_value=0, max_value=1 << 20)
ops = st.lists(
    st.tuples(st.sampled_from(["fill", "lookup", "invalidate"]), lines),
    max_size=200,
)


class TestCacheProperties:
    @given(ops=ops)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, ops):
        cache = SetAssocCache(8, 4)
        for op, line in ops:
            if op == "fill":
                cache.fill(line)
            elif op == "lookup":
                cache.lookup(line)
            else:
                cache.invalidate(line)
            assert cache.occupancy <= cache.capacity
            for cache_set in cache._sets:
                assert len(cache_set) <= cache.ways

    @given(ops=ops)
    @settings(max_examples=60, deadline=None)
    def test_filled_line_findable_until_evicted_or_invalidated(self, ops):
        cache = SetAssocCache(8, 4)
        resident = set()
        for op, line in ops:
            if op == "fill":
                victim = cache.fill(line)
                resident.add(line)
                if victim is not None:
                    resident.discard(victim.line)
            elif op == "invalidate":
                cache.invalidate(line)
                resident.discard(line)
        for line in resident:
            assert cache.peek(line) is not None

    @given(st.lists(lines, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_set_mapping_consistent(self, fills):
        cache = SetAssocCache(16, 2)
        for line in fills:
            cache.fill(line)
        for entry in cache.entries():
            found = cache._sets[entry.line & (cache.num_sets - 1)]
            assert entry.line in found


host_actions = st.lists(
    st.tuples(st.sampled_from(["load", "store", "evict"]),
              st.integers(0, 2)),
    max_size=40,
)


class TestProtocolProperties:
    @given(actions=host_actions)
    @settings(max_examples=80, deadline=None)
    def test_base_protocol_random_walks_hold_invariants(self, actions):
        model = BaseCxlDsmModel(3)
        state = model.initial_state()
        for name, host in actions:
            action = Action(name, host)
            if action not in model.enabled_actions(state):
                continue
            state, obs = model.apply(state, action)
            read = obs.get("read_version")
            assert read is None or read == obs["latest"]
            assert model.invariant_violations(state) == []

    @given(actions=host_actions, remap=st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_pipm_random_walks_hold_invariants(self, actions, remap):
        model = PipmModel(3, remap_host=remap)
        state = model.initial_state()
        for name, host in actions:
            action = Action(name, host)
            if action not in model.enabled_actions(state):
                continue
            state, obs = model.apply(state, action)
            read = obs.get("read_version")
            assert read is None or read == obs["latest"]
            assert model.invariant_violations(state) == []


class TestVoteProperties:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_counter_bounds_respected(self, accessors):
        vote = MajorityVote(PipmConfig())
        entry = GlobalRemapEntry()
        for host in accessors:
            if entry.current_host != -1:
                break
            decision = vote.on_cxl_access(entry, host)
            assert 0 <= entry.counter <= 63
            if decision is VoteDecision.PROMOTE:
                vote.promote(entry)

    @given(st.lists(st.integers(0, 3), min_size=20, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_promotion_requires_dominance(self, accessors):
        """Whoever gets promoted must have a recent access majority streak."""
        vote = MajorityVote(PipmConfig())
        entry = GlobalRemapEntry()
        for host in accessors:
            decision = vote.on_cxl_access(entry, host)
            if decision is VoteDecision.PROMOTE:
                # Boyer-Moore guarantee: the candidate's surplus over other
                # hosts since it became candidate reached the threshold.
                assert entry.counter >= vote.threshold
                assert entry.candidate_host == host
                return

    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_local_counter_never_escapes_4_bits(self, is_local):
        vote = MajorityVote(PipmConfig())
        entry = LocalRemapEntry(1, 0, counter=8)
        for local in is_local:
            if local:
                vote.on_local_access(entry)
            else:
                if vote.on_inter_host_access(entry) is VoteDecision.REVOKE:
                    break
            assert 0 <= entry.counter <= 15


class TestRemapEntryProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 63)),
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_bitmask_matches_reference_set(self, flips):
        entry = LocalRemapEntry(1, 0, counter=8)
        reference = set()
        for set_it, line in flips:
            if set_it:
                entry.set_line(line)
                reference.add(line)
            else:
                entry.clear_line(line)
                reference.discard(line)
            assert entry.migrated_count == len(reference)
            assert entry.line_migrated(line) == (line in reference)


class TestAllocatorProperties:
    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_no_double_allocation(self, ops):
        frames = FrameAllocator(16)
        live = set()
        for do_alloc in ops:
            if do_alloc:
                pfn = frames.alloc()
                if pfn is None:
                    assert len(live) == 16
                else:
                    assert pfn not in live
                    live.add(pfn)
            elif live:
                pfn = live.pop()
                frames.free(pfn)
            assert frames.in_use == len(live)


class TestUnitProperties:
    @given(st.integers(0, 1 << 45))
    @settings(max_examples=100, deadline=None)
    def test_address_decomposition_reassembles(self, addr):
        line = units.line_addr(addr)
        page = units.page_addr(addr)
        assert units.page_of_line(line) == page
        assert units.line_base(line) <= addr < units.line_base(line) + 64
        assert (units.page_base(page) + units.line_of_page(addr) * 64
                == units.line_base(line))
