"""Cross-process telemetry: context propagation, blobs, merged timelines.

Covers the :mod:`repro.obs.dist` layer end to end: specs carry context
headers only while a session is active (the zero-cost invariant), the
worker protocol ships blobs exactly when asked to, a straggler's
telemetry is discarded and metered, faulted shards keep their
parent-side records, and ``run_timeline`` produces a valid merged
Chrome trace with one lane per worker.
"""

import json
import multiprocessing
import os
import random
import time

import pytest

from repro.arith.primes import find_ntt_prime
from repro.fast import chain as fast_chain
from repro.fast.limbs import limbs_from_ints
from repro.fast.ntt import FastNtt
from repro.obs import dist, observing
from repro.obs.export import (
    LANE_PID_KEY,
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    worker_lanes,
)
from repro.obs.session import ObsSession
from repro.obs.timeline import format_worker_table, run_timeline
from repro.par import ParallelExecutor, ParNtt, shm
from repro.par.worker import worker_main
from repro.resil.inject import Fault, FaultPlan

N = 16
Q = find_ntt_prime(62, 2 * N)


def _vectors(seed, count=4, n=N, q=Q):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


@pytest.fixture(scope="module")
def pool():
    # adaptive=False: lane/blob-count assertions expect one shard per
    # worker, which adaptive sizing would fold for these tiny batches.
    executor = ParallelExecutor(workers=2, task_timeout=30.0, adaptive=False)
    executor.start()
    yield executor
    executor.close()


class TestContextHeader:
    def test_make_context_fields(self):
        ctx = dist.make_context("batch-1-0", 3)
        assert ctx == {"batch": "batch-1-0", "shard": 3, "attempt": 1}

    def test_refresh_context_installs_fresh_dict(self):
        spec = {dist.CTX_KEY: dist.make_context("b", 0)}
        before = spec[dist.CTX_KEY]
        dist.refresh_context(spec, attempt=2)
        assert spec[dist.CTX_KEY] == {"batch": "b", "shard": 0, "attempt": 2}
        # The earlier attempt's header is untouched.
        assert before["attempt"] == 1

    def test_refresh_context_without_header_is_noop(self):
        spec = {"op": "ntt"}
        dist.refresh_context(spec, attempt=2)
        assert dist.CTX_KEY not in spec

    def test_batch_ids_are_unique(self):
        assert dist.next_batch_id() != dist.next_batch_id()


class TestZeroCostWhenDisabled:
    def _capture_dispatch(self, executor):
        captured = []
        original = executor._send

        def spy(slot, task_id, spec):
            captured.append(spec)
            original(slot, task_id, spec)

        executor._send = spy
        return captured

    def test_specs_omit_header_without_session(self, pool):
        batch = _vectors(1)
        plan = ParNtt(N, Q, executor=pool)
        captured = self._capture_dispatch(pool)
        try:
            plan.forward(batch)
        finally:
            del pool._send
        assert captured
        for spec in captured:
            assert dist.CTX_KEY not in spec

    def test_specs_carry_header_with_session(self, pool):
        batch = _vectors(2)
        plan = ParNtt(N, Q, executor=pool)
        captured = self._capture_dispatch(pool)
        try:
            with observing():
                plan.forward(batch)
        finally:
            del pool._send
        assert captured
        batches = set()
        for spec in captured:
            ctx = spec[dist.CTX_KEY]
            batches.add(ctx["batch"])
            assert ctx["attempt"] == 1
        assert len(batches) == 1


def _ntt_spec(data, root, extra=None):
    """Build one executable task spec over fresh shm segments."""
    seg_x, view = shm.create_segment(data.shape)
    view[...] = data
    del view
    seg_out, view = shm.create_segment(data.shape)
    del view
    spec = {
        "op": "chain",
        "n": N,
        "q": Q,
        "root": root,
        "steps": list(fast_chain.transform_steps("forward", True)),
        "inputs": ["x"],
        "shape": list(data.shape),
        "rows": [0, data.shape[0]],
        "x": seg_x.name,
        "out": seg_out.name,
    }
    spec.update(extra or {})
    return spec, (seg_x, seg_out)


class TestWorkerProtocol:
    def _run_worker(self, spec):
        executor_end, worker_end = multiprocessing.Pipe()
        try:
            executor_end.send(spec)
            executor_end.send(None)
            worker_main(worker_end)
            return executor_end.recv()
        finally:
            executor_end.close()
            worker_end.close()

    def test_no_header_means_two_element_message(self):
        data = limbs_from_ints(_vectors(3, count=2))
        spec, segments = _ntt_spec(data, FastNtt(N, Q).table.root)
        try:
            message = self._run_worker(spec)
        finally:
            for seg in segments:
                shm.release_segment(seg)
        assert message[0] == "done"
        assert len(message) == 2

    def test_header_appends_telemetry_blob(self):
        data = limbs_from_ints(_vectors(4, count=2))
        ctx = dist.make_context("batch-test", 3)
        spec, segments = _ntt_spec(
            data, FastNtt(N, Q).table.root, {dist.CTX_KEY: ctx}
        )
        try:
            message = self._run_worker(spec)
        finally:
            for seg in segments:
                shm.release_segment(seg)
        assert message[0] == "done" and len(message) == 3
        blob = message[2]
        assert blob["v"] == dist.BLOB_VERSION
        assert blob["ctx"] == ctx
        assert blob["pid"] == os.getpid()
        assert blob["ok"] is True
        assert blob["cache"]["ntt"] >= 1
        names = {entry[0] for entry in blob["spans"]}
        assert {"par.worker.shard", "par.worker.plan", "par.worker.compute",
                "par.worker.map_shm"} <= names

    def test_error_message_still_ships_blob(self):
        ctx = dist.make_context("batch-err", 0)
        spec = {"op": "bogus", dist.CTX_KEY: ctx}
        message = self._run_worker(spec)
        assert message[0] == "error" and len(message) == 3
        assert message[2]["ok"] is False
        assert message[2]["ctx"] == ctx


class TestMergeBlob:
    def _blob(self, mono0, spans=(("par.worker.compute", 0.0, 0.001, {}),)):
        return {
            "v": dist.BLOB_VERSION,
            "ctx": dist.make_context("b", 0),
            "pid": 12345,
            "mono0": mono0,
            "wall_s": 0.002,
            "ok": True,
            "spans": [list(entry) for entry in spans],
            "counters": {"engine.fast.calls.ntt.forward": 2.0},
        }

    def test_merge_rolls_up_metrics_and_lanes(self):
        session = ObsSession()
        dist.merge_blob(session, self._blob(time.monotonic()), slot=1)
        m = session.metrics
        assert m.get("par.telemetry.blobs").value == 1
        assert m.get("par.slot.1.shards").value == 1
        assert m.get("par.slot.1.busy_s").value == pytest.approx(0.002)
        assert m.get("par.slot.1.pid").value == 12345
        assert m.get("par.worker.engine.fast.calls.ntt.forward").value == 2.0
        assert m.get("par.worker.compute_s").count == 1
        record = session.spans.records[0]
        assert record.attrs[LANE_PID_KEY] == 12345
        assert record.attrs["slot"] == 1
        assert record.attrs["batch"] == "b"
        assert dist.worker_lane_pids(session.spans.records) == {12345}
        assert dist.slot_numbers(m) == [1]

    def test_clock_skew_clamps_to_epoch(self):
        session = ObsSession()
        dist.merge_blob(session, self._blob(time.monotonic() - 1e6), slot=0)
        record = session.spans.records[0]
        assert record.start_s == 0.0
        trace = to_chrome_trace(session.spans.records)
        validate_chrome_trace(trace)  # ts >= 0 after the clamp


class TestMergedTimeline:
    def test_worker_spans_carry_ids_and_lanes(self, pool):
        batch = _vectors(5)
        plan = ParNtt(N, Q, executor=pool)
        with observing() as session:
            plan.forward(batch)
            compute = [
                r for r in session.spans.records
                if r.name == "par.worker.compute"
            ]
            assert compute
            batches = {r.attrs["batch"] for r in compute}
            assert len(batches) == 1
            for record in compute:
                assert record.attrs["attempt"] == 1
                assert record.attrs["shard"] >= 0
            lanes = dist.worker_lane_pids(session.spans.records)
            assert lanes <= set(pool.worker_pids())
            parent = {
                r.name for r in session.spans.records
                if LANE_PID_KEY not in r.attrs
            }
            assert {"par.run", "par.dispatch", "par.collect"} <= parent
            blobs = session.metrics.get("par.telemetry.blobs")
            assert blobs.value == pool.workers  # one shard per worker
            events = {e["event"] for e in session.events}
            assert {"shard.dispatched", "shard.done"} <= events

    def test_chrome_trace_has_one_lane_per_worker(self, pool):
        batch = _vectors(6)
        plan = ParNtt(N, Q, executor=pool)
        with observing() as session:
            plan.forward(batch)
            trace = to_chrome_trace(session.spans.records)
        validate_chrome_trace(trace)
        lanes = worker_lanes(trace)
        assert len(lanes) == pool.workers
        assert set(lanes) <= set(pool.worker_pids())
        labels = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event["pid"] in lanes
        }
        assert all(label.startswith("worker ") for label in labels)

    def test_stale_blob_is_discarded_and_metered(self):
        # A slow shard outlives its batch deadline and falls back in
        # process; its worker's late result and blob arrive during the
        # next batch and are discarded, metered, and never merged.
        batch, later = _vectors(7, count=2), _vectors(9, count=2)
        reference = FastNtt(N, Q)
        with observing() as session:
            with ParallelExecutor(
                workers=1, task_timeout=30.0, adaptive=False
            ) as executor:
                plan = ParNtt(N, Q, executor=executor)
                assert plan.forward(batch) == reference.forward(batch)
                executor.inject(FaultPlan({0: Fault("slow", seconds=0.3)}))
                executor.batch_deadline_s = 0.05
                assert plan.forward(batch) == reference.forward(batch)
                executor.batch_deadline_s = None
                executor.inject(None)
                assert plan.forward(later) == reference.forward(later)
                assert executor.stats["stale"] == 1
            assert session.metrics.get("par.stale_results").value == 1
            assert session.metrics.get("par.telemetry.stale").value == 1
            stale_batch = next(
                e["batch"] for e in session.events
                if e["event"] == "shard.fallback"
            )
            assert not any(
                r.attrs.get("batch") == stale_batch
                for r in session.spans.records
                if r.name.startswith("par.worker.")
            )

    def test_crashed_shard_keeps_parent_records_and_reattributes(self):
        batch = _vectors(8)
        with observing() as session:
            with ParallelExecutor(workers=2, task_timeout=30.0) as executor:
                plan = ParNtt(N, Q, executor=executor)
                executor.inject(FaultPlan({0: Fault("crash")}))
                try:
                    assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
                finally:
                    executor.inject(None)
                assert executor.stats["retries"] >= 1
            retries = [e for e in session.events if e["event"] == "shard.retry"]
            assert retries
            assert all(e["attempt"] == 2 for e in retries)
            dispatched = [
                e for e in session.events if e["event"] == "shard.dispatched"
            ]
            assert len(dispatched) == min(2, len(batch))
            second = [
                r for r in session.spans.records
                if r.name == "par.worker.shard" and r.attrs.get("attempt") == 2
            ]
            assert second  # the retried attempt's telemetry was merged
            slot_retries = sum(
                session.metrics.get(f"par.slot.{slot}.retries").value
                for slot in dist.slot_numbers(session.metrics)
                if session.metrics.get(f"par.slot.{slot}.retries") is not None
            )
            assert slot_retries >= 1
            marker = [
                r for r in session.spans.records if r.name == "par.retry"
            ]
            assert marker and marker[0].attrs["attempt"] == 2


class TestEventLog:
    def test_events_round_trip_through_jsonl(self):
        session = ObsSession()
        session.event("shard.done", batch="b", shard=1, attempt=1)
        text = to_jsonl([], None, session.events)
        records = from_jsonl(text)
        assert len(records) == 1
        assert records[0]["kind"] == "event"
        assert records[0]["event"] == "shard.done"
        assert records[0]["batch"] == "b"
        assert records[0]["t_s"] >= 0.0


class TestTimelineHarness:
    def test_run_timeline_end_to_end(self, tmp_path):
        lines = []
        rc = run_timeline(
            workers=2,
            logn=6,
            batch=4,
            limbs=2,
            rounds=1,
            export_formats=("chrome", "jsonl"),
            output_dir=str(tmp_path),
            min_lanes=1,
            emit=lines.append,
        )
        assert rc == 0
        output = "\n".join(lines)
        assert "per-worker utilization" in output
        trace = json.loads((tmp_path / "trace_timeline.json").read_text())
        validate_chrome_trace(trace)
        assert worker_lanes(trace)
        records = from_jsonl((tmp_path / "obs_timeline.jsonl").read_text())
        kinds = {record["kind"] for record in records}
        assert {"span", "event", "metric"} <= kinds

    def test_min_lanes_gate_fails(self, tmp_path):
        rc = run_timeline(
            workers=1,
            logn=6,
            batch=2,
            limbs=2,
            rounds=1,
            export_formats=(),
            output_dir=str(tmp_path),
            min_lanes=5,
            emit=lambda line: None,
        )
        assert rc == 1

    def test_worker_table_formats_slots(self):
        session = ObsSession()
        blob = {
            "v": dist.BLOB_VERSION,
            "ctx": dist.make_context("b", 0),
            "pid": 777,
            "mono0": time.monotonic(),
            "wall_s": 0.5,
            "ok": True,
            "spans": [],
            "counters": {},
        }
        dist.merge_blob(session, blob, slot=0)
        table = format_worker_table(session, wall_s=1.0)
        assert "777" in table
        assert "50.0" in table  # busy fraction of the 1 s wall
