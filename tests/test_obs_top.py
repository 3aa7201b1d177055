"""``repro top``: panel building, rendering, and scrape-path parity."""

import math

import pytest

from repro.obs import session as obs_session
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.obs.top import (
    _bucket_percentile,
    _missing_panels,
    build_panels,
    parse_openmetrics_text,
    render_panels,
    run_top,
)


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs_session.disable()
    yield
    obs_session.disable()


def _serving_registry() -> MetricsRegistry:
    """A registry shaped like a short serve burst over two ops."""
    registry = MetricsRegistry()
    registry.counter("serve.requests.admitted").inc(100)
    registry.counter("serve.requests.completed").inc(90)
    registry.counter("serve.requests.failed").inc(2)
    registry.counter("serve.shed").inc(8)
    registry.counter("serve.degraded").inc(1)
    registry.counter("serve.batches").inc(10)
    registry.gauge("serve.queue.depth").set(3)
    for latency in (0.010, 0.011, 0.012, 0.200):
        registry.histogram("serve.latency_s.polymul").observe(latency)
    registry.histogram("serve.latency_s.ntt").observe(0.005)
    registry.gauge("serve.slo.target_ms.polymul").set(50.0)
    registry.gauge("serve.slo.burn_rate.polymul").set(2.5)
    registry.gauge("serve.slo.breach_windows.polymul").set(2)
    registry.counter("serve.slo.violations.polymul").inc(4)
    for size in (8, 16):
        registry.histogram("serve.batch.size").observe(size)
    registry.histogram("serve.batch.wait_s").observe(0.001)
    registry.gauge("resil.breaker.state_code").set(2.0)
    registry.counter("resil.breaker.open").inc(1)
    registry.counter("par.slot.0.busy_s").inc(1.5)
    registry.counter("par.slot.0.shards").inc(6)
    registry.counter("par.arena.leases").inc(10)
    registry.counter("par.arena.reuses").inc(7)
    registry.counter("par.arena.creates").inc(3)
    return registry


class TestBucketPercentile:
    def test_interpolates_within_crossing_bucket(self):
        buckets = [(1.0, 50.0), (2.0, 100.0)]
        # p50 rank = 50 -> exactly the first bucket's upper bound.
        assert _bucket_percentile(buckets, 50.0) == pytest.approx(1.0)
        # p75 rank = 75 -> halfway through the (1, 2] bucket.
        assert _bucket_percentile(buckets, 75.0) == pytest.approx(1.5)

    def test_inf_bucket_degrades_to_predecessor_bound(self):
        buckets = [(1.0, 10.0), (math.inf, 100.0)]
        assert _bucket_percentile(buckets, 99.0) == 1.0

    def test_empty_and_zero_total(self):
        assert _bucket_percentile([], 99.0) == 0.0
        assert _bucket_percentile([(1.0, 0.0), (math.inf, 0.0)], 99.0) == 0.0


class TestPanels:
    def test_build_panels_from_live_snapshot(self):
        canon = _serving_registry().snapshot()
        panels = build_panels(canon)

        requests = panels["requests"]
        assert requests["admitted"] == 100
        assert requests["shed_rate"] == pytest.approx(8 / 108)
        assert requests["backlog"] == 3
        assert requests["rps"] is None  # no prev frame in --once mode

        assert set(panels["ops"]) == {"polymul", "ntt"}
        polymul = panels["ops"]["polymul"]
        assert polymul["count"] == 4
        assert polymul["slo_ms"] == 50.0
        assert polymul["p99_ms"] > polymul["p50_ms"]
        assert polymul["burn_rate"] == pytest.approx(2.5)
        assert polymul["breach_windows"] == 2
        assert panels["ops"]["ntt"]["slo_ms"] is None  # no target set

        assert panels["coalesce"]["batches"] == 10
        assert panels["coalesce"]["fill_mean"] == pytest.approx(12.0)
        assert panels["breaker"]["state"] == "open"
        assert panels["breaker"]["transitions"] == {"open": 1}
        assert panels["slots"]["0"]["busy_s"] == pytest.approx(1.5)
        assert panels["arena"]["hit_rate"] == pytest.approx(0.7)

    def test_rates_from_counter_deltas(self):
        registry = _serving_registry()
        prev = registry.snapshot()
        registry.counter("serve.requests.completed").inc(30)
        registry.counter("par.slot.0.busy_s").inc(1.0)
        canon = registry.snapshot()
        panels = build_panels(canon, prev=prev, interval_s=2.0)
        assert panels["requests"]["rps"] == pytest.approx(15.0)
        assert panels["slots"]["0"]["util"] == pytest.approx(0.5)

    def test_render_mentions_every_panel(self):
        canon = _serving_registry().snapshot()
        text = render_panels(build_panels(canon), source="test")
        assert "source: test" in text
        assert "admitted 100" in text
        assert "polymul" in text and "ntt" in text
        assert "fill 12.0 req/batch" in text
        assert "breaker   open" in text
        assert "slots     0:" in text
        assert "70% hit" in text
        # The over-SLO op is flagged.
        polymul_row = next(
            line for line in text.splitlines() if line.startswith("polymul")
        )
        assert polymul_row.endswith("!")

    def test_render_empty_registry_uses_placeholders(self):
        panels = build_panels({})
        text = render_panels(panels)
        assert "(no completed requests yet)" in text
        assert "breaker   n/a" in text
        assert "(no parallel-engine telemetry)" in text
        assert "(no shm arena activity)" in text

    def test_missing_panels_gate(self):
        empty = build_panels({})
        assert _missing_panels(empty, None) == [
            "requests", "ops", "coalesce"
        ]
        full = build_panels(
            _serving_registry().snapshot()
        )
        assert _missing_panels(full, None) == []
        assert _missing_panels(full, "parallel") == []
        no_pool = _serving_registry()
        no_pool._metrics.pop("par.arena.leases")
        gated = build_panels(no_pool.snapshot())
        gated["slots"] = {}
        assert _missing_panels(gated, "parallel") == ["slots", "arena"]


class TestScrapeParity:
    def test_exposition_round_trip_matches_live_panels(self):
        registry = _serving_registry()
        live = build_panels(registry.snapshot())
        scraped = build_panels(
            parse_openmetrics_text(render_openmetrics(registry))
        )

        assert scraped["requests"] == live["requests"]
        assert scraped["coalesce"]["batches"] == live["coalesce"]["batches"]
        assert scraped["breaker"] == live["breaker"]
        assert scraped["arena"] == live["arena"]
        assert set(scraped["ops"]) == set(live["ops"])
        for op in live["ops"]:
            for field in ("count", "slo_ms", "burn_rate", "violations"):
                assert scraped["ops"][op][field] == live["ops"][op][field]
            # Bucket-estimated percentiles are quantized to the bucket
            # grid; assert the right order of magnitude, not equality.
            live_p99 = live["ops"][op]["p99_ms"]
            scraped_p99 = scraped["ops"][op]["p99_ms"]
            assert live_p99 / 10 <= scraped_p99 <= live_p99 * 10


class TestRunTop:
    def test_once_self_driven_renders_and_passes(self):
        lines = []
        code = run_top(
            once=True, engine="fast", logn=4, requests=24,
            emit=lines.append,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "self-driven fast burst" in text
        assert "polymul" in text
        assert "admitted 24" in text

    def test_once_against_openmetrics_endpoint(self):
        from repro.obs.openmetrics import OpenMetricsExporter

        registry = _serving_registry()
        exporter = OpenMetricsExporter(source=lambda: registry, port=0)
        exporter.start()
        try:
            lines = []
            code = run_top(
                url=f"http://127.0.0.1:{exporter.port}/metrics",
                once=True,
                emit=lines.append,
            )
        finally:
            exporter.stop()
        assert code == 0
        text = "\n".join(lines)
        assert "admitted 100" in text
        assert "breaker   open" in text

    def test_once_scrape_failure_exits_2(self):
        lines = []
        code = run_top(
            url="http://127.0.0.1:1/metrics", once=True, emit=lines.append
        )
        assert code == 2
        assert any("scrape" in line for line in lines)

    def test_live_mode_requires_url(self):
        lines = []
        assert run_top(once=False, url=None, emit=lines.append) == 2
        assert any("--url" in line for line in lines)
