"""Explicit-state model checker: the Section 5.1.4 verification."""

import pytest

from repro.coherence.base_protocol import BaseCxlDsmModel
from repro.coherence.checker import CheckResult, ModelChecker, check_protocol
from repro.coherence.pipm_protocol import PipmModel


class TestBaseProtocolVerification:
    @pytest.mark.parametrize("hosts", [1, 2, 3])
    def test_msi_passes(self, hosts):
        result = check_protocol(BaseCxlDsmModel(hosts))
        assert result.ok, [str(v) for v in result.violations]
        assert result.exhausted
        assert result.states_explored > 0

    def test_state_space_grows_with_hosts(self):
        small = check_protocol(BaseCxlDsmModel(2))
        large = check_protocol(BaseCxlDsmModel(3))
        assert large.states_explored > small.states_explored


class TestPipmVerification:
    @pytest.mark.parametrize("hosts,remap", [(2, 0), (2, 1), (3, 0), (3, 2)])
    def test_pipm_passes(self, hosts, remap):
        result = check_protocol(PipmModel(hosts, remap_host=remap))
        assert result.ok, [str(v) for v in result.violations]
        assert result.exhausted

    def test_pipm_explores_migration_states(self):
        base = check_protocol(BaseCxlDsmModel(2))
        pipm = check_protocol(PipmModel(2, remap_host=0))
        # The in-memory bit and ME state enlarge the reachable space.
        assert pipm.states_explored > base.states_explored


class _BuggyModel(BaseCxlDsmModel):
    """MSI with a deliberately broken store: sharers are not invalidated."""

    name = "buggy"

    def _store(self, state, host):
        latest = self.latest_version(state)
        new_version = latest + 1
        caches = list(state.caches)
        caches[host] = (3, new_version)  # M without invalidating others
        return state._replace(
            caches=tuple(caches), dir_state=3, dir_owner=host,
        ), {"written_version": new_version, "latest": latest}


class TestCheckerCatchesBugs:
    def test_missing_invalidation_is_caught(self):
        result = check_protocol(_BuggyModel(2))
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert "invariant" in kinds or "data-value" in kinds

    def test_violation_carries_trace(self):
        result = check_protocol(_BuggyModel(2))
        worst = result.violations[0]
        assert isinstance(worst.trace, tuple)
        assert "via" in str(worst)

    def test_max_violations_caps_output(self):
        result = ModelChecker(_BuggyModel(2)).run(max_violations=1)
        assert len(result.violations) == 1


class TestCheckerMechanics:
    def test_state_cap_reported(self):
        result = ModelChecker(BaseCxlDsmModel(3), max_states=5).run()
        assert not result.exhausted

    def test_summary_strings(self):
        ok = check_protocol(BaseCxlDsmModel(2))
        assert "PASS" in ok.summary()
        bad = check_protocol(_BuggyModel(2))
        assert "FAIL" in bad.summary()

    def test_result_dataclass(self):
        r = CheckResult("m", 1, 2)
        assert r.ok
