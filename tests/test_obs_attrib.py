"""Overhead attribution: ledger accounting on synthetic merged sessions."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.attrib import (
    LEDGER_CATEGORIES,
    Attribution,
    attribute,
    attribute_jsonl,
    attribute_session,
    attribution_to_json,
    format_attribution,
)
from repro.obs.dist import BLOB_VERSION, make_context, merge_blob
from repro.obs.session import ObsSession


def _blob(slot, shard, wall_s, compute, shm, plan, checksum=0.0, attempt=1):
    """A fabricated worker telemetry blob with known phase durations."""
    cursor = 0.0
    spans = [("par.worker.shard", 0.0, wall_s, {})]
    for name, duration in (
        ("par.worker.map_shm", shm),
        ("par.worker.plan", plan),
        ("par.worker.compute", compute),
        ("par.worker.checksum", checksum),
    ):
        if duration > 0:
            spans.append((name, cursor, duration, {}))
            cursor += duration
    return {
        "v": BLOB_VERSION,
        "ctx": make_context("batch-test-0", shard, attempt=attempt),
        "pid": 4000 + slot,
        "mono0": 0.0,
        "wall_s": wall_s,
        "ok": True,
        "spans": spans,
        "counters": {},
    }


def _merged_session():
    """Parent session with two merged worker shards on distinct slots.

    Slot 0 runs one 8 s shard (6 s compute), slot 1 one 6 s shard (5 s
    compute); against a 10 s batch wall the exact ledger is compute 11,
    shm 1.4, plan 1.2, overhead 0.4, idle 6 slot-seconds.
    """
    session = ObsSession()
    merge_blob(
        session, _blob(0, 0, 8.0, compute=6.0, shm=0.5, plan=1.0,
                       checksum=0.3), slot=0
    )
    merge_blob(
        session, _blob(1, 1, 6.0, compute=5.0, shm=0.4, plan=0.2,
                       checksum=0.2), slot=1
    )
    return session


class TestLedger:
    def test_categories_sum_to_wall(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        assert report.slots == 2
        assert report.ledger_sum_s == pytest.approx(10.0, rel=1e-9)
        assert abs(report.ledger_residual) < 0.05

    def test_exact_category_values(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        ss = report.slot_seconds
        assert ss["worker.compute"] == pytest.approx(11.0)
        assert ss["worker.shm"] == pytest.approx(1.4)
        assert ss["worker.plan"] == pytest.approx(1.2)
        assert ss["worker.overhead"] == pytest.approx(0.4)
        assert ss["idle"] == pytest.approx(6.0)
        # Wall-equivalents are the slot-seconds spread over both slots.
        assert report.ledger["worker.compute"] == pytest.approx(5.5)

    def test_slot_seconds_budget_is_wall_times_slots(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        assert sum(report.slot_seconds.values()) == pytest.approx(
            report.wall_s * report.slots
        )

    def test_all_declared_categories_present(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        assert set(report.ledger) == set(LEDGER_CATEGORIES)

    def test_crashed_worker_slot_counts_as_pure_idle(self):
        # The caller knows 3 slots existed; the third never reported a
        # blob (crashed before finishing a shard): its whole wall is idle.
        report = attribute_session(_merged_session(), wall_s=10.0, slots=3)
        assert report.slot_seconds["idle"] == pytest.approx(6.0 + 10.0)
        assert report.ledger_sum_s == pytest.approx(10.0)

    def test_speedup_vs_ideal_bound(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        assert report.serial_compute_s == pytest.approx(11.0)
        assert report.measured_speedup == pytest.approx(1.1)
        assert report.ideal_speedup == 2.0
        assert report.efficiency == pytest.approx(0.55)
        assert report.ideal_wall_s == pytest.approx(5.5)

    def test_no_telemetry_raises(self):
        with pytest.raises(ObservabilityError, match="slot"):
            attribute_session(ObsSession(), wall_s=1.0)

    def test_missing_wall_without_par_run_raises(self):
        with pytest.raises(ObservabilityError, match="par.run"):
            attribute_session(_merged_session())


class TestQueueWait:
    def test_dispatch_to_start_lag_summed(self):
        spans = [
            {"kind": "span", "name": "par.run", "start_s": 0.0,
             "duration_s": 10.0, "attrs": {}},
            {"kind": "span", "name": "par.worker.shard", "start_s": 2.0,
             "duration_s": 3.0,
             "attrs": {"batch": "b", "shard": 0, "attempt": 1}},
            {"kind": "span", "name": "par.worker.shard", "start_s": 4.5,
             "duration_s": 3.0,
             "attrs": {"batch": "b", "shard": 1, "attempt": 1}},
            {"kind": "metric", "name": "par.slot.0.busy_s",
             "type": "counter", "value": 6.0},
        ]
        events = [
            {"kind": "event", "event": "shard.dispatched", "t_s": 0.5,
             "batch": "b", "shard": 0, "attempt": 1},
            {"kind": "event", "event": "shard.dispatched", "t_s": 1.0,
             "batch": "b", "shard": 1, "attempt": 1},
        ]
        report = attribute_jsonl(spans + events)
        # (2.0 - 0.5) + (4.5 - 1.0)
        assert report.diagnostics["queue_wait_s"] == pytest.approx(5.0)

    def test_unmatched_attempts_contribute_nothing(self):
        spans = [
            {"kind": "span", "name": "par.worker.shard", "start_s": 2.0,
             "duration_s": 3.0,
             "attrs": {"batch": "b", "shard": 9, "attempt": 2}},
            {"kind": "metric", "name": "par.slot.0.busy_s",
             "type": "counter", "value": 3.0},
        ]
        report = attribute_jsonl(spans, wall_s=5.0)
        assert report.diagnostics["queue_wait_s"] == 0.0


class TestRendering:
    def test_format_mentions_every_category_and_speedups(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        text = format_attribution(report)
        for category in LEDGER_CATEGORIES:
            assert category in text
        assert "measured 1.10x vs ideal 2.00x" in text
        assert "ledger sum" in text

    def test_json_round_trips_and_carries_format_tag(self):
        import json

        report = attribute_session(_merged_session(), wall_s=10.0)
        payload = json.loads(json.dumps(attribution_to_json(report)))
        assert payload["format"] == "repro.obs.attrib/v1"
        assert payload["slots"] == 2
        assert payload["measured_speedup"] == pytest.approx(1.1)
        assert sum(payload["ledger_wall_eq_s"].values()) == pytest.approx(
            payload["wall_s"]
        )

    def test_attribution_dataclass_zero_guards(self):
        empty = Attribution(wall_s=0.0, slots=0, shards=0, batches=0)
        assert empty.measured_speedup == 0.0
        assert empty.efficiency == 0.0
        assert empty.ideal_wall_s == 0.0
        assert empty.ledger_residual == 0.0


class TestRealMergedCounters:
    def test_merge_blob_feeds_the_histograms_attrib_reads(self):
        session = _merged_session()
        assert session.metrics.get("par.worker.compute_s").sum == (
            pytest.approx(11.0)
        )
        assert session.metrics.get("par.slot.0.busy_s").value == (
            pytest.approx(8.0)
        )

    def test_wall_defaults_to_par_run_spans(self):
        session = _merged_session()
        index = session.spans.open("par.run", {})
        record = session.spans.records[index]
        session.spans.close(index)
        record.duration_s = 10.0  # pin the synthetic batch wall
        report = attribute_session(session)
        assert report.wall_s == pytest.approx(10.0)
        assert report.batches == 1


class TestServeSection:
    """The front-door rollup rides along when serve metrics are present."""

    def _with_serve_metrics(self):
        session = _merged_session()
        m = session.metrics
        m.counter("serve.requests.admitted").inc(20)
        m.counter("serve.requests.completed").inc(18)
        m.counter("serve.requests.failed").inc(1)
        m.counter("serve.shed").inc(1)
        m.counter("serve.batches").inc(3)
        m.gauge("serve.queue.depth").set(2)
        for size in (4, 8):
            m.histogram("serve.batch.size").observe(size)
        m.histogram("serve.batch.wait_s").observe(0.002)
        for latency in (0.010, 0.020):
            m.histogram("serve.latency_s.polymul").observe(latency)
            m.histogram("serve.coalesce_wait_s.polymul").observe(0.001)
            m.histogram("serve.queue_wait_s.polymul").observe(0.002)
            m.histogram("serve.compute_s.polymul").observe(0.005)
        return session

    def test_absent_without_serve_traffic(self):
        report = attribute_session(_merged_session(), wall_s=10.0)
        assert report.serve == {}
        assert "serve front door" not in format_attribution(report)

    def test_populated_and_rendered_with_serve_traffic(self):
        session = self._with_serve_metrics()
        report = attribute_session(session, wall_s=10.0)
        serve = report.serve
        assert serve["admitted"] == 20
        assert serve["completed"] == 18
        assert serve["shed"] == 1
        assert serve["batches"] == 3
        assert serve["coalesce_fill"] == pytest.approx(6.0)
        assert serve["backlog_depth"] == 2
        ops = serve["ops"]
        assert set(ops) == {"polymul"}
        assert ops["polymul"]["compute_p99_s"] == pytest.approx(0.005)
        assert ops["polymul"]["queue_wait_p99_s"] == pytest.approx(0.002)

        text = format_attribution(report)
        assert "serve front door" in text
        assert "polymul" in text

        payload = attribution_to_json(report)
        assert payload["serve"]["admitted"] == 20
