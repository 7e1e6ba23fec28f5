"""Command-line interface."""

import pytest

from repro.cli import main
from repro.sweep.journal import JOURNAL_NAME, SweepJournal

from .test_coherence_checker import _BuggyModel


class TestCliCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "48GB" in out
        assert "ycsb" in out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "50ns" in out
        assert "CXL Directory" in out

    def test_check_passes(self, capsys):
        assert main(["check", "--hosts", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_check_fails_on_a_broken_model(self, capsys, monkeypatch):
        # `check` is the CLI's only protocol gate: a model whose store
        # leaves the other copies valid must turn it red.
        monkeypatch.setattr("repro.cli.BaseCxlDsmModel", _BuggyModel)
        assert main(["check", "--hosts", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run(self, capsys):
        code = main([
            "run", "--workload", "canneal", "--scheme", "native",
            "--scale", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "exec time" in out
        assert "local hit rate" in out

    def test_run_with_link_overrides(self, capsys):
        code = main([
            "run", "--workload", "canneal", "--scheme", "pipm",
            "--scale", "tiny", "--link-latency-ns", "100",
            "--link-bandwidth-gbs", "2.5",
        ])
        assert code == 0

    def test_compare_inserts_native(self, capsys):
        code = main([
            "compare", "--workload", "bodytrack",
            "--schemes", "pipm", "--scale", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "native" in out
        assert "pipm" in out
        assert "speedup" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "doom", "--scale", "tiny"])

    def test_sweep_list_variants(self, capsys):
        assert main(["sweep", "--list-variants"]) == 0
        out = capsys.readouterr().out
        assert "base" in out
        assert "link-latency" in out
        assert "faults" in out

    def test_sweep_list_specs(self, capsys):
        code = main([
            "sweep", "--list", "--workloads", "pr,ycsb",
            "--schemes", "native,pipm", "--scale", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pr/pipm" in out
        assert "4 specs" in out

    def test_sweep_rejects_unknown_workload(self, capsys):
        code = main([
            "sweep", "--workloads", "doom", "--scale", "tiny", "--list",
        ])
        assert code == 2

    def test_sweep_end_to_end_and_all_hits(self, capsys, tmp_path):
        argv = [
            "sweep", "--workers", "2", "--workloads", "pr",
            "--schemes", "native,pipm", "--scale", "tiny",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out
        # A second invocation must be pure cache hits...
        assert main(argv + ["--require-all-hits"]) == 0
        out = capsys.readouterr().out
        assert "2 cache hits (100%)" in out
        # ...and --require-all-hits must fail once the cache is gone.
        assert main(["sweep", "--invalidate",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "sweep journal" in capsys.readouterr().out
        assert not (tmp_path / JOURNAL_NAME).exists()
        assert main(argv + ["--require-all-hits"]) == 1
        # The journal went with the results, so the re-run is each
        # spec's first execution, not its second.
        outcomes = SweepJournal(tmp_path).outcomes()
        assert len(outcomes) == 2
        assert all(entry.executions == 1 for entry in outcomes.values())

    def test_sweep_failure_reporting_and_strict(self, capsys, tmp_path,
                                                monkeypatch):
        import repro.sweep.runner as runner_mod

        def explode(trace, scheme, config, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(runner_mod, "simulate", explode)
        argv = [
            "sweep", "--workers", "1", "--workloads", "pr",
            "--schemes", "native", "--scale", "tiny",
            "--cache-dir", str(tmp_path),
        ]
        # Default: failures are reported but do not fail the sweep.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 FAILED" in captured.out
        assert "synthetic failure" in captured.err
        # --strict turns any failed spec into a nonzero exit.
        assert main(argv + ["--strict"]) == 1
        assert "--strict" in capsys.readouterr().err

    def test_sweep_resume_skips_completed_specs(self, capsys, tmp_path):
        argv = [
            "sweep", "--workers", "1", "--workloads", "pr",
            "--schemes", "native", "--scale", "tiny",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 resumed" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
