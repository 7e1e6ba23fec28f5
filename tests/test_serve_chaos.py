"""Chaos acceptance for `repro serve`: SIGKILL twice, drain, no re-runs.

The scripted sequence from the service's acceptance criteria, end to
end against the real CLI in a subprocess:

1. submit N healthy specs plus one poison spec,
2. start the daemon and SIGKILL it twice mid-run,
3. restart and SIGTERM-drain,
4. assert every healthy spec completed with **zero duplicate
   simulation executions** (per-key ``executions <= 1`` in the sweep
   journal, cumulative over every daemon start), the poison spec was
   parked in ``rejected/`` without stalling the healthy ones, the sweep
   journal is the only journal, and the drain exited 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import SystemConfig
from repro.serve import submit_spec
from repro.serve.status import read_status
from repro.sweep import ExperimentSpec, ResultStore, SweepJournal
from repro.workloads.trace import WorkloadScale

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = WorkloadScale.tiny()


def _spec(workload, scheme, **scheme_kwargs):
    return ExperimentSpec.build(
        workload, scheme,
        config=SystemConfig.scaled(num_hosts=4),
        scale=TINY,
        scheme_kwargs=scheme_kwargs,
    )


def _serve(root, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "run",
            "--dir", str(root),
            "--slots", "2",
            "--retries", "0",
            "--backoff-s", "0.01",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def _wait(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


def _done_keys(journal):
    return {
        key for key, entry in journal.outcomes().items()
        if entry.succeeded
    }


def _wait_until_serving(root, daemon):
    """Block until *this* daemon's loop is up (drain handler armed).

    A SIGTERM that lands while the interpreter is still importing hits
    the default disposition and kills the process — that window is
    interpreter startup, not service code, so the test steps over it.
    """

    def loop_started():
        status = read_status(root)
        return (
            status is not None
            and status.pid == daemon.pid
            and status.state == "running"
        )

    _wait(loop_started, 60, "service loop to start")


def test_chaos_kill_twice_then_drain(tmp_path):
    root = tmp_path / "svc"
    healthy = [
        _spec("pr", "native"),
        _spec("pr", "pipm"),
        _spec("ycsb", "pipm"),
    ]
    poison = _spec("pr", "pipm", chaos_poison_marker=1)
    for spec in healthy + [poison]:
        submit_spec(root, spec)
    journal = SweepJournal(root / "cache")
    healthy_keys = {spec.key() for spec in healthy}
    parked = root / "rejected" / f"{poison.key()}.json"

    # Round 1: run until first blood, then SIGKILL.
    daemon = _serve(root)
    try:
        _wait(lambda: len(_done_keys(journal)) >= 1, 120,
              "first completion")
    finally:
        daemon.kill()
        daemon.wait(30)

    # Round 2: resume, make some progress, SIGKILL again.  The service
    # may already have everything — the kill must be safe regardless.
    daemon = _serve(root)
    try:
        _wait_until_serving(root, daemon)
        time.sleep(1.0)
    finally:
        daemon.kill()
        daemon.wait(30)

    # Round 3: resume, finish every healthy spec, then drain.
    daemon = _serve(root)
    try:
        _wait_until_serving(root, daemon)
        _wait(lambda: healthy_keys <= _done_keys(journal), 180,
              "all healthy specs done")
        _wait(parked.exists, 120, "poison spec parked")
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(30)
    assert code == 0, daemon.stdout.read().decode()

    outcomes = journal.outcomes()
    # Zero duplicate executions: the per-key execution counters are
    # cumulative across every daemon start.
    for key in healthy_keys:
        entry = outcomes[key]
        assert entry.succeeded
        assert entry.executions <= 1, (
            f"{key} executed {entry.executions} times"
        )
        assert entry.executions + entry.cache_hits >= 1
    store = ResultStore(root / "cache")
    assert healthy_keys <= set(store.keys())
    assert poison.key() not in store

    # The poison spec is parked, not hot-looping, not blocking, and its
    # journalled error names what broke it.
    assert parked.exists()
    bad = outcomes[poison.key()]
    assert not bad.succeeded
    assert "chaos_poison_marker" in bad.error

    # The sweep journal is the only journal; there is no accept store.
    assert list(root.rglob("*.jsonl")) == [journal.path]
    assert not (root / "specs").exists()

    status = read_status(root)
    assert status.state == "drained"
    assert status.spool_backlog == 0 and status.in_flight == 0
    assert status.totals["executions"] == sum(
        entry.executions for entry in outcomes.values()
    )


def test_status_cli_reports_dead_daemon(tmp_path):
    root = tmp_path / "svc"
    submit_spec(root, _spec("pr", "native"))
    daemon = _serve(root)
    try:
        _wait_until_serving(root, daemon)
    finally:
        daemon.kill()
        daemon.wait(30)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    probe = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "status",
         "--dir", str(root)],
        env=env, capture_output=True, text=True,
    )
    # A killed daemon must be reported as a corpse, exit code 1.
    assert probe.returncode == 1
    assert "DEAD" in probe.stdout
