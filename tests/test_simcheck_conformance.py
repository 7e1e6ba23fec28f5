"""Fast-lane conformance pass (VEC001-004) against the real engine.

These tests run the pass over the actual ``sim/engine.py`` /
``sim/system.py`` sources, assert the tree is conformant, then inject
one synthetic defect per rule family by string surgery and assert the
corresponding rule catches it.  Surgery on the real sources (rather
than toy fixtures) is the point: the pass must keep understanding the
engine as it is actually written.
"""

import pathlib

import pytest

from repro.simcheck.conformance import (
    CONFORMANCE_MODULES,
    analyze_backend_conformance,
    analyze_repo_conformance,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sources():
    engine = (REPO_ROOT / CONFORMANCE_MODULES[0]).read_text()
    system = (REPO_ROOT / CONFORMANCE_MODULES[1]).read_text()
    return engine, system


def _rules(findings):
    return sorted({f.rule for f in findings})


def _surgery(source, old, new, count=1):
    assert source.count(old) == count, f"surgery anchor drifted: {old!r}"
    return source.replace(old, new)


class TestCleanTree:
    def test_current_tree_is_conformant(self, sources):
        engine, system = sources
        assert analyze_backend_conformance(engine, system) == []

    def test_repo_entry_point_runs_when_engine_in_scope(self):
        findings, ran = analyze_repo_conformance(
            REPO_ROOT, CONFORMANCE_MODULES
        )
        assert ran and findings == []

    def test_repo_entry_point_skips_out_of_scope_runs(self):
        findings, ran = analyze_repo_conformance(
            REPO_ROOT, ["src/repro/mem/dram.py"]
        )
        assert not ran and findings == []


class TestSeededDefects:
    def test_vec001_dropped_flush_line(self, sources):
        # Delete the flush fold of the deferred TLB-hit cell: the hot
        # path still increments t_h, so the stat silently vanishes.
        engine, system = sources
        engine = _surgery(engine, "        tlb_cache.hits += t_h\n", "",
                          count=1)
        findings = analyze_backend_conformance(engine, system)
        assert "VEC001" in _rules(findings)
        assert any("t_h" in f.message for f in findings)

    def test_vec002_stripped_bail_annotation(self, sources):
        # An escalation branch in system.py with no matching fast-path
        # bail claim must fail the diff from both directions.
        engine, system = sources
        engine = _surgery(
            engine,
            "  # simcheck: bails[upgrade-llc-hit] S -> M on LLC hit",
            "",
        )
        findings = analyze_backend_conformance(engine, system)
        assert "VEC002" in _rules(findings)
        assert any("upgrade-llc-hit" in f.message for f in findings)

    def test_vec002_stripped_run_loop_bail(self, sources):
        # The L1-hit upgrade bail sits in the run loop's lane branch, not
        # in a closure; the tag diff must still pair it.
        engine, system = sources
        engine = _surgery(engine, "  # simcheck: bails[upgrade-l1-hit]", "")
        findings = analyze_backend_conformance(engine, system)
        assert "VEC002" in _rules(findings)
        assert any("upgrade-l1-hit" in f.message for f in findings)

    def test_vec003_mutation_in_classify_phase(self, sources):
        # The classify phase must stay pure — inject a stats write right
        # after the phase marker.
        engine, system = sources
        engine = _surgery(
            engine,
            "        page = line >> _LINE_TO_PAGE\n        shared",
            "        page = line >> _LINE_TO_PAGE\n"
            "        llc.hits += 1\n        shared",
        )
        findings = analyze_backend_conformance(engine, system)
        assert "VEC003" in _rules(findings)

    def test_vec004_cell_read_but_never_reset(self, sources):
        # Drop t_h from the flush reset chain: the next flush would
        # double-count every TLB hit.
        engine, system = sources
        engine = _surgery(
            engine,
            "        t_h = t_m = t_e = c_h = c_m = c_e = d_l = d_h = d_ce = 0\n",
            "        t_m = t_e = c_h = c_m = c_e = d_l = d_h = d_ce = 0\n",
        )
        findings = analyze_backend_conformance(engine, system)
        assert "VEC004" in _rules(findings)
        assert any("t_h" in f.message for f in findings)

    def test_findings_carry_stable_fingerprint_anchors(self, sources):
        engine, system = sources
        engine = _surgery(engine, "        tlb_cache.hits += t_h\n", "")
        findings = analyze_backend_conformance(engine, system)
        for finding in findings:
            assert finding.path in CONFORMANCE_MODULES
            assert finding.line_text  # fingerprint basis must be stable
