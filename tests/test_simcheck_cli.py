"""Exit-code matrix and flag behavior of the simcheck CLI driver.

Exit contract: 0 = clean, 1 = at least one finding, 2 = usage problem.
Each cell of the matrix is pinned here, plain, under ``--json`` and
with empty or opt-in scopes.
"""

import json

import pytest

from repro.simcheck.cli import main

CLEAN = "def f(a, b):\n    return a + b\n"
DIRTY = "import time\n\nt = time.time()\n"


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A scratch repo the CLI treats as its root."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(repo, relpath, source):
    path = repo / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestExitZero:
    def test_clean_tree(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        assert main(["src/repro"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_clean_tree_json(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        assert main(["src/repro", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["files_checked"] == 1

    def test_empty_scope_checks_nothing(self, repo, capsys):
        # Default scope is src-only; a tests/ tree yields zero files
        # checked, which is clean, not an error.
        _write(repo, "tests/test_x.py", DIRTY)
        assert main(["tests", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 0
        assert payload["findings"] == []


class TestExitOne:
    def test_error_finding(self, repo, capsys):
        _write(repo, "src/repro/bad.py", DIRTY)
        assert main(["src/repro"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_error_finding_json(self, repo, capsys):
        _write(repo, "src/repro/bad.py", DIRTY)
        assert main(["src/repro", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_scoped_opt_in_surfaces_benchmark_findings(self, repo):
        # Determinism rules skip the tests scope entirely, but the
        # benchmarks scope opts in via --scope.
        _write(repo, "benchmarks/bench_x.py", DIRTY)
        assert main(["benchmarks"]) == 0  # default scope: not checked
        assert main(["benchmarks", "--scope", "benchmarks"]) == 1


class TestExitTwo:
    def test_missing_path(self, repo, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--baseline=b.json", "--no-baseline", "--write-baseline",
        "--prune-baseline", "--strict-ignores",
    ])
    def test_removed_options_are_refused(self, repo, flag):
        with pytest.raises(SystemExit) as exc:
            main(["src/repro", flag])
        assert exc.value.code == 2
