"""The metric catalogue: exposition, emitted names and docs agree with it.

``repro.obs.catalog`` declares every metric family once. These tests pin
what derives from it: the OpenMetrics exposition of one sample of every
family (a golden file), the names the library actually emits on its main
paths, the patterns passed to the emitters, and the metrics table in
docs/OBSERVABILITY.md.
"""

import asyncio
import random
import re
from pathlib import Path

import pytest

from repro.arith.primes import find_ntt_prime
from repro.obs import catalog
from repro.obs import session as obs_session
from repro.obs.hooks import count, observe, set_gauge
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import mangle_family, render_openmetrics

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "openmetrics_catalog.txt"

#: One concrete sample of every family the library emits.
FAMILY_SAMPLES = (
    ("cache.access.L1", "counter"),
    ("cache.bytes_modeled", "counter"),
    ("engine.faithful.calls.ntt.forward", "counter"),
    ("engine.faithful.elements.ntt.forward", "counter"),
    ("engine.fast.calls.ntt.forward", "counter"),
    ("engine.fast.elements.ntt.forward", "counter"),
    ("engine.fast.r52.calls.ntt.forward", "counter"),
    ("engine.fast.r52.elements.ntt.forward", "counter"),
    ("engine.fast.r52.carry_flushes", "counter"),
    ("engine.fast.gemm.calls.ntt.forward", "counter"),
    ("engine.fast.gemm.elements.ntt.forward", "counter"),
    ("engine.fast.gemm.dgemms", "counter"),
    ("engine.parallel.calls.ntt.polymul", "counter"),
    ("engine.parallel.elements.ntt.polymul", "counter"),
    ("fastmod.evictions", "counter"),
    ("isa.instructions", "counter"),
    ("isa.load_bytes", "counter"),
    ("isa.loads", "counter"),
    ("isa.ops.vpaddq_zmm", "counter"),
    ("isa.store_bytes", "counter"),
    ("isa.stores", "counter"),
    ("isa.traced_regions", "counter"),
    ("par.adaptive.clamped", "counter"),
    ("par.adaptive.saved_dispatches", "counter"),
    ("par.adaptive.shards", "histogram"),
    ("par.arena.creates", "counter"),
    ("par.arena.drained", "counter"),
    ("par.arena.high_water_bytes", "gauge"),
    ("par.arena.high_water_segments", "gauge"),
    ("par.arena.leased_bytes", "counter"),
    ("par.arena.leases", "counter"),
    ("par.arena.reuses", "counter"),
    ("par.fallbacks", "counter"),
    ("par.fused.chains", "counter"),
    ("par.fused.steps", "counter"),
    ("par.integrity.audited", "counter"),
    ("par.integrity.corrupt", "counter"),
    ("par.integrity.divergent", "counter"),
    ("par.interrupted", "counter"),
    ("par.limbo.requeued", "counter"),
    ("par.retries", "counter"),
    ("par.shard.wall_s", "histogram"),
    ("par.shards.completed", "counter"),
    ("par.shards.dispatched", "counter"),
    ("par.shm.reclaimed", "counter"),
    ("par.slot.0.busy_s", "counter"),
    ("par.slot.0.cache.plans", "gauge"),
    ("par.slot.0.pid", "gauge"),
    ("par.slot.0.retries", "counter"),
    ("par.slot.0.shard_wall_s", "histogram"),
    ("par.slot.0.shards", "counter"),
    ("par.stale_results", "counter"),
    ("par.stale_results.recovered", "counter"),
    ("par.stale_results.superseded", "counter"),
    ("par.telemetry.blobs", "counter"),
    ("par.telemetry.stale", "counter"),
    ("par.worker.checksum_s", "histogram"),
    ("par.worker.compute_s", "histogram"),
    ("par.worker.engine.fast.calls.ntt.forward", "counter"),
    ("par.worker.engine.fast.elements.ntt.forward", "counter"),
    ("par.worker.engine.fast.r52.calls.ntt.forward", "counter"),
    ("par.worker.engine.fast.r52.carry_flushes", "counter"),
    ("par.worker.engine.fast.r52.elements.ntt.forward", "counter"),
    ("par.worker.engine.fast.gemm.calls.ntt.forward", "counter"),
    ("par.worker.engine.fast.gemm.dgemms", "counter"),
    ("par.worker.engine.fast.gemm.elements.ntt.forward", "counter"),
    ("par.worker.map_shm_s", "histogram"),
    ("par.worker.plan_s", "histogram"),
    ("par.worker.seg_cache.hits", "counter"),
    ("par.worker.seg_cache.misses", "counter"),
    ("par.worker.shard_s", "histogram"),
    ("par.workers.hung", "counter"),
    ("par.workers.pin_unsupported", "counter"),
    ("par.workers.pinned", "counter"),
    ("par.workers.restarted", "counter"),
    ("resil.breaker.open", "counter"),
    ("resil.breaker.state_code", "gauge"),
    ("resil.deadline.expired", "counter"),
    ("resil.deadline.shards", "counter"),
    ("resil.degraded", "counter"),
    ("resil.degraded.breaker_open", "counter"),
    ("resil.retry.backoff_s", "histogram"),
    ("sched.blocks", "counter"),
    ("sched.critical_path_cycles", "histogram"),
    ("sched.instructions_per_block", "histogram"),
    ("sched.port.p0", "histogram"),
    ("sched.uops_per_block", "histogram"),
    ("sched.util.p0", "histogram"),
    ("serve.admitted.polymul", "counter"),
    ("serve.batch.size", "histogram"),
    ("serve.batch.wait_s", "histogram"),
    ("serve.batched.polymul", "counter"),
    ("serve.batches", "counter"),
    ("serve.coalesce_wait_s.polymul", "histogram"),
    ("serve.compute_s.polymul", "histogram"),
    ("serve.degraded", "counter"),
    ("serve.degraded.breaker_open", "counter"),
    ("serve.failed.deadline", "counter"),
    ("serve.latency_s.polymul", "histogram"),
    ("serve.queue.depth", "gauge"),
    ("serve.queue_wait_s.polymul", "histogram"),
    ("serve.request.latency_s", "histogram"),
    ("serve.requests.admitted", "counter"),
    ("serve.requests.completed", "counter"),
    ("serve.requests.failed", "counter"),
    ("serve.shed", "counter"),
    ("serve.shed.queue_full", "counter"),
    ("serve.slo.breach_windows.polymul", "gauge"),
    ("serve.slo.burn_rate.polymul", "gauge"),
    ("serve.slo.p99_ms.polymul", "gauge"),
    ("serve.slo.target_ms.polymul", "gauge"),
    ("serve.slo.violations", "counter"),
    ("serve.slo.violations.polymul", "counter"),
    ("serve.slo.violations.tenant.t0", "counter"),
    ("serve.tenant.t0.latency_s", "histogram"),
    ("twiddle.evictions", "counter"),
)


def undeclared(metrics) -> list:
    """Registry names no catalogue entry declares (or declares as another kind)."""
    missing = []
    for name in metrics.names():
        found = catalog.lookup(name)
        if found is None or found[0].kind != metrics.get(name).kind:
            missing.append(name)
    return missing


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs_session.disable()
    yield
    obs_session.disable()


class TestGoldenExposition:
    def test_one_sample_per_family_renders_byte_identical(self):
        registry = MetricsRegistry()
        for name, kind in FAMILY_SAMPLES:
            if kind == "counter":
                registry.counter(name).inc(3)
            elif kind == "gauge":
                registry.gauge(name).set(2)
            else:
                registry.histogram(name).observe(0.5)
        assert render_openmetrics(registry) == GOLDEN.read_text()

    def test_every_sample_is_declared_and_every_entry_sampled(self):
        registry = MetricsRegistry()
        for name, kind in FAMILY_SAMPLES:
            getattr(registry, kind)(name)
        assert undeclared(registry) == []
        sampled = {catalog.lookup(name)[0] for name, _ in FAMILY_SAMPLES}
        unsampled = [
            entry.pattern
            for entry in catalog.CATALOG
            if entry not in sampled
            and not entry.pattern.startswith("par.worker.")
            and entry.pattern != "resil.breaker.<state>"
        ]
        # Worker-merged twins of rare worker counters aside, every entry
        # has its sample above.
        assert unsampled == [], unsampled

    def test_r52_and_worker_counters_expose_as_labelled_families(self):
        text = GOLDEN.read_text()
        assert 'repro_engine_fast_r52_calls_total{op="ntt.forward"} 3' in text
        assert (
            'repro_par_worker_engine_calls_total{engine="fast",'
            'op="ntt.forward"} 3'
        ) in text
        assert "ntt_forward" not in text


class TestCatalogShape:
    def test_patterns_and_families_are_unique(self):
        patterns = [entry.pattern for entry in catalog.CATALOG]
        assert len(patterns) == len(set(patterns))
        families = [mangle_family(catalog.family(e)) for e in catalog.CATALOG]
        assert len(families) == len(set(families))

    def test_kinds_are_known(self):
        for entry in catalog.CATALOG:
            assert entry.kind in ("counter", "gauge", "histogram"), entry

    def test_name_of_inverts_family_of(self):
        for name, _ in FAMILY_SAMPLES:
            family, labels = catalog.family_of(name)
            assert catalog.name_of(mangle_family(family), labels) == name

    def test_most_literal_pattern_wins(self):
        entry, labels = catalog.lookup("serve.slo.violations.tenant.t1")
        assert entry.pattern == "serve.slo.violations.tenant.<tenant>"
        assert labels == {"tenant": "t1"}
        entry, labels = catalog.lookup("resil.breaker.state_code")
        assert entry.pattern == "resil.breaker.state_code" and labels == {}
        entry, labels = catalog.lookup("engine.fast.r52.calls.blas.axpy")
        assert labels == {"op": "blas.axpy"}

    def test_undeclared_name_stands_alone(self):
        assert catalog.lookup("made.up.metric") is None
        assert catalog.family_of("made.up.metric") == ("made.up.metric", {})
        assert catalog.name_of("repro_made_up_metric", {}) is None


class _Unformattable:
    """A label value that fails the moment a metric name is built from it."""

    def __format__(self, spec):
        raise AssertionError("metric name built")


class TestEmitters:
    def test_disabled_emitters_never_build_a_name(self):
        label = _Unformattable()
        count("serve.shed.<reason>", label)
        observe("serve.latency_s.<op>", 0.1, label)
        set_gauge("serve.slo.burn_rate.<op>", 1.0, label)

    def test_labels_fill_placeholders_in_order(self):
        with obs_session.observing() as session:
            count("par.slot.<slot>.busy_s", 3, amount=0.5)
            observe("serve.tenant.<tenant>.latency_s", 0.25, "t1")
            set_gauge("serve.slo.target_ms.<op>", 50.0, "ntt")
            count("engine.<engine>.calls.<op>", "fast", "ntt.forward")
        metrics = session.metrics
        assert metrics.get("par.slot.3.busy_s").value == 0.5
        assert metrics.get("serve.tenant.t1.latency_s").count == 1
        assert metrics.get("serve.slo.target_ms.ntt").value == 50.0
        assert metrics.get("engine.fast.calls.ntt.forward").value == 1


class TestEmitterPatterns:
    """Every pattern literal handed to an emitter is a catalogue pattern."""

    EMIT = re.compile(r'(?<![\w.])(count|observe|set_gauge)\(\s*"([^"]+)"')

    def test_source_patterns_are_declared(self):
        patterns = {entry.pattern for entry in catalog.CATALOG}
        found = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            for _, pattern in self.EMIT.findall(path.read_text()):
                found.append(pattern)
                # Worker-local counters are declared by their merged name.
                assert (
                    pattern in patterns or f"par.worker.{pattern}" in patterns
                ), f"{path.name}: {pattern!r} is not in the catalogue"
        assert len(found) > 50  # the scan really saw the call sites


class TestEmittedNamesDeclared:
    """The main paths emit only declared names, and a stray one is caught."""

    N = 16
    Q = find_ntt_prime(60, 32)

    def _rows(self, rng, count):
        return [[rng.randrange(self.Q) for _ in range(self.N)] for _ in range(count)]

    def test_faithful_traced_product(self):
        from repro.isa.trace import tracing
        from repro.kernels import get_backend
        from repro.machine.cpu import get_cpu
        from repro.ntt.negacyclic import NegacyclicNtt
        from repro.perf.estimator import estimate_ntt

        rng = random.Random(1)
        backend = get_backend("mqx")
        with obs_session.observing() as session:
            with tracing():
                f, g = self._rows(rng, 2)
                NegacyclicNtt(self.N, self.Q, backend).multiply(f, g)
            estimate_ntt(1 << 10, self.Q, backend, get_cpu("intel_xeon_8352y"))
        assert session.metrics.get("isa.traced_regions").value >= 1
        assert session.metrics.names("sched.port.")
        assert undeclared(session.metrics) == []

    def test_fast_chain(self):
        from repro.fast.blas import FastBlasPlan
        from repro.fast.ntt import FastNegacyclic

        rng = random.Random(2)
        f, g = self._rows(rng, 2)
        with obs_session.observing() as session:
            FastNegacyclic(self.N, self.Q).multiply(f, g)
            blas = FastBlasPlan(self.Q)
            blas.vector_mul(f, g)
            blas.axpy(3, f, g)
        assert session.metrics.names("engine.fast.r52.calls.")
        assert undeclared(session.metrics) == []

    def test_pool_batch_under_fault_plan(self):
        from repro.par import ParallelExecutor, ParBlasPlan, ParNegacyclic, ParNtt
        from repro.resil.inject import Fault, FaultPlan

        rng = random.Random(3)
        rows = self._rows(rng, 8)
        with obs_session.observing() as session:
            with ParallelExecutor(
                workers=2, task_timeout=30.0, adaptive=False, audit_fraction=1.0
            ) as pool:
                pool.inject(
                    FaultPlan({
                        0: Fault("crash"),
                        1: Fault("corrupt"),
                        2: Fault("slow", seconds=0.01),
                    })
                )
                ParNtt(self.N, self.Q, executor=pool).forward(rows)
                ParNegacyclic(self.N, self.Q, executor=pool).multiply(rows, rows)
                pool.inject(None)
                ParBlasPlan(self.Q, executor=pool).axpy(3, rows, rows)
        metrics = session.metrics
        assert metrics.get("par.retries").value >= 1
        assert metrics.names("par.worker.engine.")
        assert undeclared(metrics) == []
        # Only the par.worker.* spans become merged histograms.
        assert not metrics.names("engine.fast.run")
        assert metrics.get("par.worker.compute_s").count >= 1

    def test_serve_burst_with_slo_and_shed(self):
        from repro.errors import ServeOverloadError
        from repro.serve.service import ReproService, ServeConfig

        rng = random.Random(4)
        n, q = self.N, self.Q

        async def drive():
            config = ServeConfig(
                engine="fast", max_batch=4, max_wait_s=0.001,
                max_queue_depth=6, slo_p99_ms=1e-6, slo_window_s=0.001,
                slo_burn_windows=1,
            )
            async with ReproService(config=config) as service:
                async def one(index):
                    f, g = self._rows(rng, 2)
                    try:
                        await service.submit(
                            "polymul", (f, g), n, q, tenant=f"t{index % 2}"
                        )
                    except ServeOverloadError:
                        pass

                await asyncio.gather(*(one(i) for i in range(12)))
                await asyncio.sleep(0.01)
                await asyncio.gather(*(one(i) for i in range(3)))
                await service.flush()
                await service.join()

        with obs_session.observing() as session:
            asyncio.run(drive())
        metrics = session.metrics
        assert metrics.get("serve.shed").value >= 1
        assert metrics.names("serve.slo.burn_rate.")
        assert "serve.coalesce.batch_size" not in metrics
        assert undeclared(metrics) == []

    def test_undeclared_name_is_caught(self):
        with obs_session.observing() as session:
            count("serve.shed.<reason>", "quota")
            count("serve.made_up.<op>", "polymul")
            session.metrics.gauge("serve.shed")  # declared, wrong kind
        assert undeclared(session.metrics) == [
            "serve.made_up.polymul", "serve.shed",
        ]


class TestDocsTable:
    BEGIN = "<!-- metric catalogue: begin -->"
    END = "<!-- metric catalogue: end -->"

    def test_docs_table_is_the_catalogue(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        assert text.count(self.BEGIN) == 1 and text.count(self.END) == 1
        table = text.split(self.BEGIN)[1].split(self.END)[0].strip()
        assert table == catalog.markdown_table(), (
            "docs/OBSERVABILITY.md metrics table differs from the catalogue; "
            "regenerate it with "
            "`python -c 'from repro.obs.catalog import markdown_table; "
            "print(markdown_table())'`"
        )
