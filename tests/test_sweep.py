"""Experiment specs, the content-addressed result store, and trace cache.

Includes the concurrent-writers regression suite for the bug class the
old ``benchmarks/.bench_cache.json`` design had: a single JSON blob read
at import time and rewritten wholesale on every put, so two processes
doing read-modify-write lost each other's entries (and a crash mid-write
corrupted the file for everyone).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import multiprocessing
import pickle
import random

import numpy as np
import pytest

from repro import FaultConfig, SystemConfig, generate, make_scheme, simulate
from repro.sim.results import SimulationResult
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    TraceStore,
    build_matrix,
)
from repro.workloads.trace import WorkloadScale


# ----------------------------------------------------------------------
# Synthetic results (no simulation needed)
# ----------------------------------------------------------------------
def make_result(rng: random.Random, tag: int = 0) -> SimulationResult:
    """A randomized result exercising every nested field."""
    hosts = rng.randint(1, 8)
    return SimulationResult(
        workload=f"wl{tag}",
        scheme=rng.choice(["native", "pipm", "memtis"]),
        num_hosts=hosts,
        exec_time_ns=rng.random() * 1e9,
        host_time_ns=[rng.random() * 1e9 for _ in range(hosts)],
        instructions=rng.randint(0, 10**12),
        accesses=rng.randint(0, 10**9),
        service_counts={rng.randint(0, 6): rng.randint(0, 10**6)
                        for _ in range(rng.randint(0, 7))},
        stall_ns_by_service={rng.randint(0, 6): rng.random() * 1e8
                             for _ in range(rng.randint(0, 7))},
        mgmt_ns=rng.random() * 1e7,
        transfer_ns=rng.random() * 1e7,
        migrations=rng.randint(0, 10**5),
        demotions=rng.randint(0, 10**5),
        footprint_bytes=rng.randint(0, 2**40),
        peak_local_pages={h: rng.randint(0, 10**4) for h in range(hosts)},
        peak_local_lines={h: rng.randint(0, 10**6) for h in range(hosts)},
        stats={
            "freq_ghz": 4.0,
            "harmful_fraction": rng.random(),
            "pipm_promotions": float(rng.randint(0, 10**4)),
            "fault_link_retries": float(rng.randint(0, 100)),
            "watchdog_violations": float(rng.randint(0, 3)),
        },
    )


def make_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        workload="pr",
        scheme="pipm",
        config=SystemConfig.scaled(),
        scale=WorkloadScale.tiny(),
    )
    kwargs.update(overrides)
    return ExperimentSpec.build(**kwargs)


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------
class TestExperimentSpec:
    def test_key_is_deterministic(self):
        assert make_spec().key() == make_spec().key()

    def test_defaults_hash_like_explicit_defaults(self):
        implicit = ExperimentSpec.build("pr", "pipm")
        explicit = ExperimentSpec.build(
            "pr", "pipm", config=SystemConfig.scaled(),
            scale=WorkloadScale.default(),
        )
        assert implicit.key() == explicit.key()

    @pytest.mark.parametrize("mutate", [
        lambda: make_spec(workload="ycsb"),
        lambda: make_spec(scheme="native"),
        lambda: make_spec(scale=WorkloadScale.small()),
        lambda: make_spec(config=SystemConfig.scaled().replace_nested(
            "cxl_link", latency_ns=100.0)),
        lambda: make_spec(config=SystemConfig.scaled().replace_nested(
            "pipm", migration_threshold=4)),
        lambda: make_spec(config=SystemConfig.scaled(num_hosts=8)),
        lambda: make_spec(config=dataclasses.replace(
            SystemConfig.scaled(), faults=FaultConfig.parse("flaky"))),
        lambda: make_spec(scheme_kwargs={"interval_ns": 1e5}),
        lambda: make_spec(system_kwargs={"infinite_local_remap_cache": True}),
    ])
    def test_every_spec_dimension_changes_the_key(self, mutate):
        assert mutate().key() != make_spec().key()

    def test_faulted_spec_round_trips_through_json(self):
        spec = make_spec(config=SystemConfig.scaled().replace(
            faults=FaultConfig.parse("storm:degrade-hosts=1+2")))
        data = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(data).key() == spec.key()
        # A spool file written before a fault field was retired still loads.
        data["config"]["faults"]["retired_field"] = 1
        assert ExperimentSpec.from_dict(data).key() == spec.key()

    def test_trace_key_ignores_scheme_but_not_hosts(self):
        assert make_spec().trace_key() == make_spec(
            scheme="native").trace_key()
        assert make_spec().trace_key() != make_spec(
            config=SystemConfig.scaled(num_hosts=2)).trace_key()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_spec(scheme="turbo")

    def test_unserializable_kwargs_rejected(self):
        with pytest.raises(TypeError, match="spec-serializable"):
            make_spec(system_kwargs={"callback": object()})

    def test_matrix_is_deduplicated(self):
        specs = build_matrix(
            ["pr"], ["native", "pipm"], scale=WorkloadScale.tiny(),
            variants=["base", "threshold"],
        )
        keys = [spec.key() for spec in specs]
        assert len(keys) == len(set(keys))
        # base contributes pr/native + pr/pipm; threshold adds the three
        # non-default thresholds (t=8 duplicates base pr/pipm; native
        # baseline duplicates base pr/native).
        assert len(specs) == 5

    def test_matrix_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown sweep variant"):
            build_matrix(["pr"], ["pipm"], variants=["bogus"])


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_record_round_trip_is_exact(self):
        rng = random.Random(1234)
        for tag in range(25):
            result = make_result(rng, tag)
            assert SimulationResult.from_record(result.to_record()) == result

    def test_record_round_trip_survives_json(self):
        rng = random.Random(99)
        for tag in range(25):
            result = make_result(rng, tag)
            record = json.loads(json.dumps(result.to_record()))
            assert SimulationResult.from_record(record) == result

    def test_store_round_trip_is_exact(self, tmp_path):
        rng = random.Random(7)
        store = ResultStore(tmp_path)
        for tag in range(10):
            spec = make_spec(config=SystemConfig.scaled().replace_nested(
                "cxl_link", latency_ns=25.0 + tag))
            result = make_result(rng, tag)
            store.put(spec, result)
            assert store.get(spec) == result

    def test_store_entries_are_deterministic_bytes(self, tmp_path):
        spec = make_spec()
        result = make_result(random.Random(5))
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        a.put(spec, result)
        b.put(spec, result)
        assert (a.path_for(spec.key()).read_bytes()
                == b.path_for(spec.key()).read_bytes())

    def test_get_miss_and_corrupt_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        assert store.get(spec) is None
        store.results_dir.mkdir(parents=True, exist_ok=True)
        store.path_for(spec.key()).write_text("{not json")
        assert store.get(spec) is None  # treated as a miss, not a crash

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_spec(), make_result(random.Random(0)))
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0


# ----------------------------------------------------------------------
# Trace store
# ----------------------------------------------------------------------
class TestTraceStore:
    def test_disk_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        scale = WorkloadScale.tiny()
        trace, hit = store.warm("pr", 4, 4, scale)
        assert not hit
        # A fresh store (new process stand-in) must load, not regenerate.
        fresh = TraceStore(tmp_path)
        again, hit = fresh.warm("pr", 4, 4, scale)
        assert hit
        assert len(again.streams) == len(trace.streams)
        for a, b in zip(again.streams, trace.streams):
            assert np.array_equal(a, b)
        assert again.footprint_bytes == trace.footprint_bytes
        assert store.path_for(store.key_for("pr", 4, 4, scale)).is_file()

    def test_memo_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        scale = WorkloadScale.tiny()
        first, _ = store.warm("ycsb", 4, 4, scale)
        second, hit = store.warm("ycsb", 4, 4, scale)
        assert hit and second is first

    def test_key_depends_on_scale_and_hosts(self):
        tiny = WorkloadScale.tiny()
        assert (TraceStore.key_for("pr", 4, 4, tiny)
                != TraceStore.key_for("pr", 2, 4, tiny))
        assert (TraceStore.key_for("pr", 4, 4, tiny)
                != TraceStore.key_for("pr", 4, 4, WorkloadScale.small()))

    def test_stale_pickle_ignored(self, tmp_path):
        # A pickle at the key, as the store once wrote: unpickling skips
        # WorkloadTrace's constructor, so its tuple-list streams would
        # reach the engine unconverted.  The store never reads it.
        scale = WorkloadScale.tiny()
        fresh = generate("ycsb", num_hosts=4, scale=scale)
        stale = copy.copy(fresh)
        stale.__dict__["streams"] = [
            [tuple(rec) for rec in s.tolist()] for s in fresh.streams
        ]
        store = TraceStore(tmp_path)
        key = store.key_for("ycsb", 4, 4, scale)
        store.traces_dir.mkdir(parents=True)
        with open(store.traces_dir / f"{key}.pkl", "wb") as handle:
            pickle.dump(stale, handle)
        trace, hit = store.warm("ycsb", 4, 4, scale)
        assert not hit
        assert all(isinstance(s, np.ndarray) for s in trace.streams)
        config = SystemConfig.scaled()
        assert (
            simulate(trace, make_scheme("native"), config).to_record()
            == simulate(fresh, make_scheme("native"), config).to_record()
        )

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "version", "shape"]
    )
    def test_unreadable_archive_is_a_miss(self, tmp_path, damage):
        scale = WorkloadScale.tiny()
        store = TraceStore(tmp_path)
        trace, _ = store.warm("ycsb", 4, 4, scale)
        path = store.path_for(store.key_for("ycsb", 4, 4, scale))
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif damage == "garbage":
            path.write_bytes(b"not an archive")
        else:
            with np.load(path) as archive:
                arrays = dict(archive)
            if damage == "version":
                meta = json.loads(bytes(arrays["meta_json"]).decode())
                meta["version"] = 99
                arrays["meta_json"] = np.frombuffer(
                    json.dumps(meta).encode(), dtype=np.uint8
                )
            else:
                arrays["stream2"] = arrays["stream2"][:, :3]
            np.savez_compressed(path, **arrays)
        again, hit = TraceStore(tmp_path).warm("ycsb", 4, 4, scale)
        assert not hit
        for a, b in zip(again.streams, trace.streams):
            assert np.array_equal(a, b)
        # The regenerated trace was published over the damaged file.
        assert TraceStore(tmp_path).warm("ycsb", 4, 4, scale)[1]

    def test_clear_removes_archives_and_pickles(self, tmp_path):
        store = TraceStore(tmp_path)
        store.warm("ycsb", 4, 4, WorkloadScale.tiny())
        (store.traces_dir / "old.pkl").write_bytes(b"stale")
        assert store.clear() == 2
        assert list(store.traces_dir.iterdir()) == []


# ----------------------------------------------------------------------
# Concurrency regression: no lost entries, no corruption
# ----------------------------------------------------------------------
N_WRITERS = 4
KEYS_PER_WRITER = 12


def _store_writer(args):
    root, writer = args
    rng = random.Random(writer)
    store = ResultStore(root)
    for i in range(KEYS_PER_WRITER):
        store.put_record(
            f"writer{writer}-key{i}",
            {"writer": writer, "i": i, "payload": [rng.random()] * 8},
        )
    return writer


def _same_key_writer(args):
    root, writer = args
    store = ResultStore(root)
    for i in range(50):
        store.put_record("contended", {"writer": writer, "i": i})
    return writer


class TestConcurrentWriters:
    def test_parallel_writers_lose_nothing(self, tmp_path):
        with multiprocessing.Pool(N_WRITERS) as pool:
            pool.map(_store_writer,
                     [(str(tmp_path), w) for w in range(N_WRITERS)])
        store = ResultStore(tmp_path)
        assert len(store) == N_WRITERS * KEYS_PER_WRITER
        for writer in range(N_WRITERS):
            for i in range(KEYS_PER_WRITER):
                entry = store.get_record(f"writer{writer}-key{i}")
                assert entry is not None, "lost a concurrent write"
                assert entry["writer"] == writer and entry["i"] == i

    def test_same_key_hammering_never_corrupts(self, tmp_path):
        with multiprocessing.Pool(N_WRITERS) as pool:
            pool.map(_same_key_writer,
                     [(str(tmp_path), w) for w in range(N_WRITERS)])
        entry = ResultStore(tmp_path).get_record("contended")
        assert entry is not None  # valid JSON: last atomic replace won
        assert entry["i"] == 49

    def test_no_temp_file_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("k", {"v": 1})
        leftovers = [p for p in store.results_dir.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []
