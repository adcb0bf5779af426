"""Tests for the durable run store and resumable sweeps."""

import json
import os
import time

import pytest

from repro.sim import (
    RunStore,
    RunStoreError,
    StoredRecord,
    SweepRunner,
    atomic_write_text,
    canonical_digest,
    canonical_json,
    parse_age,
    replicate_seed,
    run_provenance,
)
from repro.sim.parallel import ReplicateOutcome

# Module-level worker functions so they stay picklable for pool runs.

EXECUTED = []


def _square_worker(spec):
    EXECUTED.append(spec["seed"])
    return {"seed": spec["seed"], "value": spec["seed"] ** 2}


def _flaky_worker(spec):
    EXECUTED.append(spec["seed"])
    if spec.get("explode"):
        raise RuntimeError(f"boom for seed {spec['seed']}")
    return {"seed": spec["seed"]}


@pytest.fixture(autouse=True)
def _reset_executed():
    EXECUTED.clear()
    yield
    EXECUTED.clear()


def _specs(n, base=0):
    return [{"data": "demo", "seed": replicate_seed(base, i)} for i in range(n)]


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, {"y": 0, "x": 1}]}) == (
            canonical_json({"a": [2, {"x": 1, "y": 0}], "b": 1})
        )

    def test_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_digest_changes_with_content(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_digest_stable(self):
        # A pinned digest guards the cross-process content address: any
        # serialisation change silently orphans every existing store.
        assert canonical_digest({"a": 1}) == (
            "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"
        )


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_text(path, "one")
        assert path.read_text(encoding="utf-8") == "one"
        atomic_write_text(path, "two")
        assert path.read_text(encoding="utf-8") == "two"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "content")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestStoredRecord:
    def test_round_trip_ok(self):
        record = StoredRecord(seed=9, ok=True, result={"x": 1}, elapsed=0.5)
        parsed = StoredRecord.from_bytes(
            record.to_json_line().encode("utf-8")
        )
        assert parsed == record

    def test_round_trip_error(self):
        record = StoredRecord(
            seed=9, ok=False, error="Traceback ...", attempts=2
        )
        parsed = StoredRecord.from_bytes(
            record.to_json_line().encode("utf-8")
        )
        assert parsed == record

    def test_torn_line_raises_value_error(self):
        line = StoredRecord(seed=1, ok=True, result=[1, 2]).to_json_line()
        for cut in (1, len(line) // 2, len(line) - 3):
            with pytest.raises(ValueError):
                StoredRecord.from_bytes(line[:cut].encode("utf-8"))

    def test_json_line_is_canonical(self):
        line = StoredRecord(seed=1, ok=True, result={"b": 1, "a": 2})
        assert line.to_json_line() == (
            canonical_json(json.loads(line.to_json_line())) + "\n"
        )


class TestRunStore:
    def test_append_and_reload(self, tmp_path):
        store = RunStore(tmp_path)
        digest = canonical_digest({"kind": "sweep"})
        store.register_run(digest, "sweep", "scn")
        for seed in (3, 4, 11):
            store.append(digest, StoredRecord(seed=seed, ok=True, result=seed))
        reloaded = RunStore(tmp_path).load_records(digest)
        assert sorted(reloaded) == [3, 4, 11]
        assert reloaded[11].result == 11

    def test_later_records_win(self, tmp_path):
        store = RunStore(tmp_path)
        store.append("run", StoredRecord(seed=5, ok=False, error="x"))
        store.append(
            "run", StoredRecord(seed=5, ok=True, result="y", attempts=2)
        )
        records = store.load_records("run")
        assert records[5].ok and records[5].attempts == 2

    def test_unknown_run_is_empty(self, tmp_path):
        assert RunStore(tmp_path).load_records("nope") == {}

    def test_manifest_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        store.register_run("d1", "sweep", "s1")
        store.update_run("d1", 7)
        runs = RunStore(tmp_path).runs()
        assert runs["d1"]["kind"] == "sweep"
        assert runs["d1"]["records"] == 7

    def test_rejects_unreadable_manifest(self, tmp_path):
        (tmp_path / RunStore.MANIFEST).write_text("{not json", "utf-8")
        with pytest.raises(RunStoreError, match="unreadable manifest"):
            RunStore(tmp_path)

    def test_rejects_future_manifest_version(self, tmp_path):
        (tmp_path / RunStore.MANIFEST).write_text(
            json.dumps({"version": 99, "runs": {}}), "utf-8"
        )
        with pytest.raises(RunStoreError, match="version"):
            RunStore(tmp_path)

    def test_rejects_version_1_manifest(self, tmp_path):
        """Stores written before the single event order hold unsharded
        replicates of the retired order: refused, never served."""
        (tmp_path / RunStore.MANIFEST).write_text(
            json.dumps({"version": 1, "runs": {}}), "utf-8"
        )
        with pytest.raises(RunStoreError, match="manifest version 1"):
            RunStore(tmp_path)

    def test_sharding_never_loses_records(self, tmp_path):
        store = RunStore(tmp_path, shard_count=3)
        seeds = list(range(20))
        for seed in seeds:
            store.append("run", StoredRecord(seed=seed, ok=True, result=seed))
        shards = list((tmp_path / "runs" / "run").glob("shard-*.jsonl"))
        assert len(shards) == 3
        assert sorted(store.load_records("run")) == seeds


class TestTornTailRecovery:
    def _shard_with(self, tmp_path, records):
        store = RunStore(tmp_path, shard_count=1)
        for record in records:
            store.append("run", record)
        return store, tmp_path / "runs" / "run" / "shard-0.jsonl"

    def test_truncated_final_record_is_dropped(self, tmp_path):
        records = [
            StoredRecord(seed=s, ok=True, result={"seed": s}) for s in range(3)
        ]
        _, shard = self._shard_with(tmp_path, records)
        raw = shard.read_bytes()
        torn_at = raw.rstrip(b"\n").rfind(b"\n") + 1 + 7  # mid-final-record
        shard.write_bytes(raw[:torn_at])
        reloaded = RunStore(tmp_path, shard_count=1).load_records("run")
        assert sorted(reloaded) == [0, 1]
        # The shard was truncated back to its last complete record, so a
        # subsequent append starts on a clean line.
        assert shard.read_bytes().endswith(b"\n")

    def test_recovered_shard_accepts_new_appends(self, tmp_path):
        records = [StoredRecord(seed=s, ok=True, result=s) for s in range(2)]
        store, shard = self._shard_with(tmp_path, records)
        shard.write_bytes(shard.read_bytes()[:-5])
        store = RunStore(tmp_path, shard_count=1)
        assert sorted(store.load_records("run")) == [0]
        store.append("run", StoredRecord(seed=1, ok=True, result="redo"))
        reloaded = RunStore(tmp_path, shard_count=1).load_records("run")
        assert reloaded[1].result == "redo"

    def test_missing_trailing_newline_only(self, tmp_path):
        # A record whose bytes are complete but whose newline never made
        # it to disk is still a valid record.
        _, shard = self._shard_with(
            tmp_path, [StoredRecord(seed=7, ok=True, result=1)]
        )
        shard.write_bytes(shard.read_bytes().rstrip(b"\n"))
        assert sorted(
            RunStore(tmp_path, shard_count=1).load_records("run")
        ) == [7]

    def test_mid_shard_corruption_raises(self, tmp_path):
        records = [StoredRecord(seed=s, ok=True, result=s) for s in range(3)]
        _, shard = self._shard_with(tmp_path, records)
        raw = shard.read_bytes()
        first_end = raw.find(b"\n") + 1
        shard.write_bytes(raw[:first_end] + b"garbage\n" + raw[first_end:])
        with pytest.raises(RunStoreError, match="mid-shard"):
            RunStore(tmp_path, shard_count=1).load_records("run")


class TestResumeSession:
    def test_identity_keys_on_kind_and_content(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.session("sweep", {"x": 1})
        b = store.session("chaos", {"x": 1})
        c = store.session("sweep", {"x": 2})
        assert len({a.run_digest, b.run_digest, c.run_digest}) == 3

    def test_lookup_serves_success_and_skips_when_disabled(self, tmp_path):
        store = RunStore(tmp_path)
        spec = {"seed": 42}
        with store.session("sweep", {"d": 1}) as session:
            session.record(
                spec, ReplicateOutcome(index=0, ok=True, result="r")
            )
        resumed = store.session("sweep", {"d": 1})
        cached = resumed.lookup(spec)
        assert cached is not None and cached.cached and cached.result == "r"
        fresh = store.session("sweep", {"d": 1}, resume=False)
        assert fresh.lookup(spec) is None

    def test_retry_budget(self, tmp_path):
        store = RunStore(tmp_path)
        spec = {"seed": 7}
        with store.session("sweep", {"d": 1}) as session:
            session.record(
                spec, ReplicateOutcome(index=0, ok=False, error="boom")
            )
        # attempts=1 > retries=0: the failure itself is the cached answer.
        assert store.session("sweep", {"d": 1}, retries=0).lookup(spec).cached
        # attempts=1 <= retries=1: execute again.
        retrying = store.session("sweep", {"d": 1}, retries=1)
        assert retrying.lookup(spec) is None
        retrying.record(
            spec, ReplicateOutcome(index=0, ok=False, error="boom2")
        )
        # attempts=2 > retries=1: budget exhausted, serve the failure.
        assert store.session("sweep", {"d": 1}, retries=1).lookup(spec).cached

    def test_rejects_negative_retries(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path).session("sweep", {}, retries=-1)


class TestResumedSweeps:
    def test_interrupted_sweep_executes_exactly_the_remainder(self, tmp_path):
        store = RunStore(tmp_path)
        runner = SweepRunner(_square_worker, workers=0)
        n, k = 8, 5
        baseline = runner.run(_specs(n))
        EXECUTED.clear()
        # "Interrupt" after k replicates by only submitting k of them.
        with store.session("sweep", {"d": 1}) as session:
            runner.run(_specs(k), resume=session)
        assert len(EXECUTED) == k
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}) as session:
            resumed = runner.run(_specs(n), resume=session)
        assert len(EXECUTED) == n - k
        assert sorted(EXECUTED) == sorted(
            s["seed"] for s in _specs(n)[k:]
        )
        # Byte-identical aggregation: payloads match an uninterrupted run.
        assert canonical_json([o.result for o in resumed]) == (
            canonical_json([o.result for o in baseline])
        )
        assert [o.index for o in resumed] == list(range(n))
        assert [o.cached for o in resumed] == [True] * k + [False] * (n - k)

    def test_fully_cached_second_run_executes_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        runner = SweepRunner(_square_worker, workers=0)
        with store.session("sweep", {"d": 1}) as session:
            first = runner.run(_specs(4), resume=session)
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}) as session:
            second = runner.run(_specs(4), resume=session)
        assert EXECUTED == []
        assert all(o.cached for o in second)
        assert canonical_json([o.result for o in first]) == (
            canonical_json([o.result for o in second])
        )

    def test_crashed_replicates_retry_up_to_budget(self, tmp_path):
        store = RunStore(tmp_path)
        runner = SweepRunner(_flaky_worker, workers=0)
        specs = [
            {"seed": 1},
            {"seed": 2, "explode": True},
            {"seed": 3},
        ]
        with store.session("sweep", {"d": 1}) as session:
            first = runner.run(specs, resume=session)
        assert [o.ok for o in first] == [True, False, True]
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}, retries=2) as session:
            runner.run(specs, resume=session)
        assert EXECUTED == [2]  # only the crash re-executes
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}, retries=2) as session:
            runner.run(specs, resume=session)
        assert EXECUTED == [2]  # attempts=2 <= retries=2: one more try
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}, retries=2) as session:
            final = runner.run(specs, resume=session)
        assert EXECUTED == []  # budget exhausted: failure served cached
        assert [o.ok for o in final] == [True, False, True]
        assert final[1].cached

    def test_growing_replicates_reuses_overlap(self, tmp_path):
        store = RunStore(tmp_path)
        runner = SweepRunner(_square_worker, workers=0)
        with store.session("sweep", {"d": 1}) as session:
            runner.run(_specs(3), resume=session)
        EXECUTED.clear()
        with store.session("sweep", {"d": 1}) as session:
            grown = runner.run(_specs(6), resume=session)
        assert len(EXECUTED) == 3
        assert [o.cached for o in grown] == [True] * 3 + [False] * 3

    def test_resume_survives_torn_tail(self, tmp_path):
        store = RunStore(tmp_path, shard_count=1)
        runner = SweepRunner(_square_worker, workers=0)
        with store.session("sweep", {"d": 1}) as session:
            runner.run(_specs(4), resume=session)
            run_digest = session.run_digest
        shard = tmp_path / "runs" / run_digest / "shard-0.jsonl"
        shard.write_bytes(shard.read_bytes()[:-9])  # tear the last record
        EXECUTED.clear()
        fresh_store = RunStore(tmp_path, shard_count=1)
        with fresh_store.session("sweep", {"d": 1}) as session:
            resumed = runner.run(_specs(4), resume=session)
        assert len(EXECUTED) == 1  # only the torn replicate re-executes
        assert canonical_json([o.result for o in resumed]) == (
            canonical_json(
                [o.result for o in SweepRunner(_square_worker, workers=0).run(_specs(4))]
            )
        )


class TestProvenance:
    def test_block_shape(self):
        block = run_provenance(
            "sweep", {"x": 1}, base_seed=7, replicates=4, workers=2
        )
        assert block["kind"] == "sweep"
        assert block["scenario_digest"] == canonical_digest({"x": 1})
        assert block["base_seed"] == 7
        assert block["replicates"] == 4
        assert block["workers"] == 2
        import repro

        assert block["package_version"] == repro.__version__


class TestRunStoreGc:
    def _seed_store(self, tmp_path):
        store = RunStore(tmp_path)
        store.register_run("runA", "sweep", "scenA")
        store.append("runA", StoredRecord(seed=1, ok=False, error="boom"))
        store.append("runA", StoredRecord(seed=2, ok=True, result={"v": 2}))
        store.append(
            "runA", StoredRecord(seed=1, ok=True, result={"v": 9}, attempts=2)
        )
        store.append("runA", StoredRecord(seed=5, ok=True, result={"v": 5}))
        store.update_run("runA", 4)
        return store

    def test_gc_drops_superseded_records(self, tmp_path):
        store = self._seed_store(tmp_path)
        report = store.gc()
        assert report == {"runA": {"kept": 3, "dropped": 1}}
        # Resolution is unchanged: later-lines-win picked the same
        # final record per seed before and after compaction.
        records = RunStore(tmp_path).load_records("runA")
        assert sorted(records) == [1, 2, 5]
        assert records[1].ok and records[1].attempts == 2
        # The dead line is physically gone.
        lines = sum(
            len(p.read_bytes().splitlines())
            for p in store.run_dir("runA").glob("shard-*.jsonl")
        )
        assert lines == 3

    def test_gc_dry_run_counts_without_rewriting(self, tmp_path):
        store = self._seed_store(tmp_path)
        report = store.gc(dry_run=True)
        assert report == {"runA": {"kept": 3, "dropped": 1}}
        lines = sum(
            len(p.read_bytes().splitlines())
            for p in store.run_dir("runA").glob("shard-*.jsonl")
        )
        assert lines == 4  # nothing rewritten
        assert store.runs()["runA"]["records"] == 4

    def test_gc_updates_manifest_counts(self, tmp_path):
        store = self._seed_store(tmp_path)
        store.gc()
        assert store.runs()["runA"]["records"] == 3
        assert RunStore(tmp_path).runs()["runA"]["records"] == 3

    def test_gc_idempotent(self, tmp_path):
        store = self._seed_store(tmp_path)
        store.gc()
        assert store.gc() == {"runA": {"kept": 3, "dropped": 0}}

    def test_gc_single_run_scope(self, tmp_path):
        store = self._seed_store(tmp_path)
        store.register_run("runB", "chaos", "scenB")
        store.append("runB", StoredRecord(seed=3, ok=True, result=1))
        store.append(
            "runB", StoredRecord(seed=3, ok=True, result=2, attempts=2)
        )
        report = store.gc(run_digest="runB")
        assert report == {"runB": {"kept": 1, "dropped": 1}}
        # runA untouched: its superseded record still on disk.
        lines = sum(
            len(p.read_bytes().splitlines())
            for p in store.run_dir("runA").glob("shard-*.jsonl")
        )
        assert lines == 4

    def test_gc_append_after_compaction(self, tmp_path):
        store = self._seed_store(tmp_path)
        store.gc()
        store.append(
            "runA", StoredRecord(seed=2, ok=True, result={"v": 22}, attempts=2)
        )
        records = store.load_records("runA")
        assert records[2].result == {"v": 22}
        assert store.gc() == {"runA": {"kept": 3, "dropped": 1}}

    def test_gc_missing_run_dir(self, tmp_path):
        store = RunStore(tmp_path)
        store.register_run("ghost", "sweep", "x")
        assert store.gc() == {"ghost": {"kept": 0, "dropped": 0}}


class TestParseAge:
    def test_units(self):
        assert parse_age("45s") == 45.0
        assert parse_age("30m") == 1800.0
        assert parse_age("12h") == 12 * 3600.0
        assert parse_age("7d") == 7 * 86400.0
        assert parse_age("2w") == 2 * 604800.0

    def test_bare_number_is_seconds(self):
        assert parse_age("90") == 90.0
        assert parse_age("1.5") == 1.5

    def test_rejects_garbage(self):
        for bad in ("", "  ", "fast", "-3d", "3y"):
            with pytest.raises(ValueError):
                parse_age(bad)


class TestExpiry:
    def _seed_store(self, tmp_path):
        store = RunStore(tmp_path)
        for digest in ("old", "new"):
            store.register_run(digest, "sweep", f"scn-{digest}")
            store.append(digest, StoredRecord(seed=1, ok=True, result=digest))
            store.update_run(digest, 1)
        return store

    def _backdate(self, store, digest, seconds):
        stamp = time.time() - seconds
        for path in store.run_dir(digest).glob("shard-*.jsonl"):
            os.utime(path, (stamp, stamp))

    def test_expires_only_idle_runs(self, tmp_path):
        store = self._seed_store(tmp_path)
        self._backdate(store, "old", 3600.0)
        report = store.expire(older_than=600.0)
        assert report["old"]["expired"] and not report["new"]["expired"]
        assert report["old"]["records"] == 1
        reloaded = RunStore(tmp_path)
        assert "old" not in reloaded.runs()
        assert not store.run_dir("old").exists()
        assert reloaded.load_records("new")[1].result == "new"

    def test_dry_run_touches_nothing(self, tmp_path):
        store = self._seed_store(tmp_path)
        self._backdate(store, "old", 3600.0)
        report = store.expire(older_than=600.0, dry_run=True)
        assert report["old"]["expired"]
        reloaded = RunStore(tmp_path)
        assert set(reloaded.runs()) == {"old", "new"}
        assert reloaded.load_records("old")[1].result == "old"

    def test_manifest_only_ghost_runs_expire(self, tmp_path):
        store = RunStore(tmp_path)
        store.register_run("ghost", "sweep", "x")
        report = store.expire(older_than=0.0)
        assert report["ghost"] == {
            "age": None,
            "records": 0,
            "expired": True,
        }
        assert "ghost" not in RunStore(tmp_path).runs()

    def test_append_refreshes_age(self, tmp_path):
        store = self._seed_store(tmp_path)
        self._backdate(store, "old", 3600.0)
        store.append("old", StoredRecord(seed=2, ok=True, result="fresh"))
        report = store.expire(older_than=600.0)
        assert not report["old"]["expired"]

    def test_rejects_negative_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path).expire(older_than=-1.0)
