"""Sequential-consistency litmus tests over both protocols."""

import pytest

from repro.coherence.base_protocol import BaseCxlDsmModel
from repro.coherence.litmus import (
    ALL_LITMUS,
    LitmusRunner,
    LitmusTest,
    coherence_order,
    message_passing,
    store_buffering,
    verify_sequential_consistency,
)
from repro.coherence.pipm_protocol import PipmModel


class TestPatternsOnBaseline:
    @pytest.mark.parametrize("make", ALL_LITMUS)
    def test_no_forbidden_outcome(self, make):
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        outcomes = runner.run(make())
        assert outcomes  # every interleaving executed

    def test_mp_interleaving_count(self):
        # 2+2 instructions -> C(4,2) = 6 interleavings.
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        assert len(runner.run(message_passing())) == 6

    def test_mp_allows_both_stale(self):
        """SC permits the reader running entirely before the writer."""
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        outcomes = runner.run(message_passing())
        assert any(
            o.loads[(1, 0)] == 0 and o.loads[(1, 1)] == 0 for o in outcomes
        )

    def test_sb_some_host_sees_a_store(self):
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        outcomes = runner.run(store_buffering())
        for outcome in outcomes:
            assert outcome.loads[(0, 1)] > 0 or outcome.loads[(1, 1)] > 0


class TestPatternsOnPipm:
    @pytest.mark.parametrize("remap", [0, 1])
    @pytest.mark.parametrize("make", ALL_LITMUS)
    def test_no_forbidden_outcome(self, make, remap):
        runner = LitmusRunner(lambda: PipmModel(2, remap_host=remap))
        assert runner.run(make())

    def test_verify_all_configs(self):
        results = verify_sequential_consistency(2)
        assert set(results) == {"cxl-dsm-msi", "pipm-remap0", "pipm-remap1"}
        for counts in results.values():
            assert counts == {"MP": 6, "SB": 6, "CoRR": 6}


class TestRunnerCatchesViolations:
    def test_forbidden_predicate_raises(self):
        """A predicate forbidding a legal SC outcome must trip the runner."""
        impossible = LitmusTest(
            name="always-fails",
            threads=[[("store", 0)], [("load", 0)]],
            forbidden=lambda outcome: True,
        )
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        with pytest.raises(AssertionError):
            runner.run(impossible)

    def test_two_threads_required(self):
        bad = LitmusTest("x", threads=[[("load", 0)]],
                         forbidden=lambda o: False)
        runner = LitmusRunner(lambda: BaseCxlDsmModel(2))
        with pytest.raises(ValueError):
            runner.run(bad)

    def test_corr_monotone_reads(self):
        runner = LitmusRunner(lambda: PipmModel(2, remap_host=0))
        outcomes = runner.run(coherence_order())
        for outcome in outcomes:
            assert outcome.loads[(1, 1)] >= outcome.loads[(1, 0)]
