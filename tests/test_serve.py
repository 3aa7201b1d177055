"""Tests for repro.serve: coalescing, admission, deadlines, degradation.

The headline property, mirrored from docs/SERVING.md: a coalesced batch
is **bit-identical** to running each request alone through the faithful
engine — batching is a latency/throughput trade, never a correctness
trade. The rest covers the admission primitives (token bucket, queue
depth), per-tenant quotas, deadline expiry mid-coalesce (one request's
deadline never poisons its batchmates), breaker-aware degrade/shed
dispatch, graceful shutdown semantics, and the accounting invariant
``submitted == shed + completed + failed`` — no request is ever dropped
silently.
"""

import asyncio
import random

import pytest

from repro.arith.primes import find_ntt_prime
from repro.errors import (
    ServeDeadlineError,
    ServeError,
    ServeOverloadError,
)
from repro.fast.blas import FastBlasPlan
from repro.fast.ntt import FastNtt
from repro.kernels import get_backend
from repro.ntt.negacyclic import negacyclic_polymul
from repro.serve import (
    AdmissionController,
    Coalescer,
    ReproService,
    Request,
    SERVE_OPS,
    ServeConfig,
    TokenBucket,
)

N = 32
Q = find_ntt_prime(30, 2 * N)


def _pairs(seed, count, n=N, q=Q):
    rng = random.Random(seed)
    return [
        (
            [rng.randrange(q) for _ in range(n)],
            [rng.randrange(q) for _ in range(n)],
        )
        for _ in range(count)
    ]


def _faithful_products(pairs, q=Q):
    backend = get_backend("avx512")
    return [negacyclic_polymul(f, g, q, backend) for f, g in pairs]


def _rns_requests(seed, count, engine="fast"):
    """A two-prime negacyclic ring built for ``engine``, ``count``
    ``rns.mul`` payloads, and their products from a faithful ring."""
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

    basis = RnsBasis.generate(2, 30, 2 * N)
    backend = get_backend("avx512")
    ring = RnsPolynomialRing(N, basis, backend, engine=engine)
    faithful = RnsPolynomialRing(N, basis, backend)
    rng = random.Random(seed)
    requests = [
        tuple(
            [[rng.randrange(q) for _ in range(N)] for q in basis.primes]
            for _ in range(2)
        )
        for _ in range(count)
    ]
    expected = [
        faithful.mul(
            RnsPolynomial(faithful, f), RnsPolynomial(faithful, g)
        ).residues
        for f, g in requests
    ]
    return ring, requests, expected


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Admission primitives
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        clock.now += 1.0  # 2 tokens refilled
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.now += 60.0
        assert bucket.available() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ServeError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_queue_full_reason(self):
        admission = AdmissionController(max_queue_depth=2)
        admission.admit("t", 1)
        with pytest.raises(ServeOverloadError) as err:
            admission.admit("t", 2)
        assert err.value.reason == "queue_full"
        assert err.value.tenant == "t"

    def test_quota_is_per_tenant(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_queue_depth=100,
            tenant_rate=1.0,
            tenant_burst=2.0,
            clock=clock,
        )
        admission.admit("a", 0)
        admission.admit("a", 0)
        with pytest.raises(ServeOverloadError) as err:
            admission.admit("a", 0)
        assert err.value.reason == "quota"
        # A different tenant has its own bucket.
        admission.admit("b", 0)
        # And tenant "a" recovers as tokens refill.
        clock.now += 1.0
        admission.admit("a", 0)


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------


class TestCoalescer:
    def _request(self, clock, op="polymul", n=N, q=Q):
        return Request(
            op=op, n=n, q=q, payload=(), enqueued_at=clock(),
        )

    def test_size_trigger_pops_full_batch(self):
        clock = FakeClock()
        coalescer = Coalescer(max_batch=3, max_wait_s=1.0, clock=clock)
        assert coalescer.add(self._request(clock)) is None
        assert coalescer.add(self._request(clock)) is None
        batch = coalescer.add(self._request(clock))
        assert batch is not None and len(batch) == 3
        assert coalescer.depth() == 0

    def test_batches_only_within_key(self):
        clock = FakeClock()
        coalescer = Coalescer(max_batch=2, max_wait_s=1.0, clock=clock)
        assert coalescer.add(self._request(clock, op="polymul")) is None
        assert coalescer.add(self._request(clock, op="ntt")) is None
        batch = coalescer.add(self._request(clock, op="ntt"))
        assert batch is not None
        assert all(r.op == "ntt" for r in batch)
        assert coalescer.depth() == 1  # the polymul still queued

    def test_age_trigger_via_due(self):
        clock = FakeClock()
        coalescer = Coalescer(max_batch=10, max_wait_s=0.5, clock=clock)
        coalescer.add(self._request(clock))
        assert coalescer.due() == []
        clock.now += 0.6
        ready = coalescer.due()
        assert len(ready) == 1 and len(ready[0]) == 1
        assert coalescer.depth() == 0

    def test_drain_pops_everything(self):
        clock = FakeClock()
        coalescer = Coalescer(max_batch=10, max_wait_s=10.0, clock=clock)
        coalescer.add(self._request(clock, op="polymul"))
        coalescer.add(self._request(clock, op="ntt"))
        assert len(coalescer.drain()) == 2
        assert coalescer.depth() == 0
        assert coalescer.oldest_wait_s() == 0.0

    def test_validation(self):
        with pytest.raises(ServeError):
            Coalescer(max_batch=0)
        with pytest.raises(ServeError):
            Coalescer(max_wait_s=-1.0)


# ----------------------------------------------------------------------
# Service: correctness of the coalesced path
# ----------------------------------------------------------------------


class TestServiceBitExact:
    def test_coalesced_polymul_matches_faithful(self):
        """Batched serving is bit-identical to per-request faithful runs."""
        pairs = _pairs(seed=1, count=8)
        expected = _faithful_products(pairs)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=4, max_wait_s=0.001,
            ))
            async with service:
                got = await asyncio.gather(*(
                    service.submit("polymul", pair, N, Q) for pair in pairs
                ))
            return got, dict(service.stats)

        got, stats = asyncio.run(drive())
        assert got == expected
        assert stats["completed"] == 8
        assert stats["batches"] >= 2  # max_batch=4 ⇒ at least two batches
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_mixed_ops_coalesce_separately(self):
        pairs = _pairs(seed=2, count=4)
        blas = FastBlasPlan(Q)
        ntt = FastNtt(N, Q)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=4, max_wait_s=0.001,
            ))
            async with service:
                muls = [
                    service.submit("blas.vector_mul", pair, N, Q)
                    for pair in pairs
                ]
                ntts = [
                    service.submit("ntt", (pair[0],), N, Q) for pair in pairs
                ]
                results = await asyncio.gather(*muls, *ntts)
            return results

        results = asyncio.run(drive())
        assert results[:4] == [blas.vector_mul(f, g) for f, g in pairs]
        assert results[4:] == [ntt.forward(f) for f, _ in pairs]

    def test_unknown_op_rejected(self):
        async def drive():
            service = ReproService(config=ServeConfig(engine="fast"))
            async with service:
                with pytest.raises(ServeError):
                    await service.submit("conv2d", ((), ()), N, Q)

        asyncio.run(drive())
        assert "conv2d" not in SERVE_OPS

    def test_bad_operand_fails_alone(self):
        """A poison request fails itself, never its batchmates."""
        pairs = _pairs(seed=3, count=3)
        expected = _faithful_products(pairs)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=4, max_wait_s=60.0,
            ))
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit("polymul", p, N, Q))
                    for p in pairs
                ]
                # Wrong-length operand joins the same (op, n, q) batch.
                poison = asyncio.ensure_future(
                    service.submit("polymul", ([1, 2, 3], [4, 5, 6]), N, Q)
                )
                results = await asyncio.gather(
                    *tasks, poison, return_exceptions=True
                )
            return results, dict(service.stats)

        results, stats = asyncio.run(drive())
        assert results[:3] == expected
        assert isinstance(results[3], Exception)
        assert not isinstance(results[3], ServeOverloadError)
        assert stats["completed"] == 3 and stats["failed"] == 1

    @pytest.mark.parametrize(
        "engine, ring_engine",
        [(engine, ring_engine)
         for ring_engine in ("fast", "faithful")
         for engine in ("fast", "parallel", "faithful")],
        ids=["fast", "parallel", "faithful", "fast-faithful_ring",
             "parallel-faithful_ring", "faithful-faithful_ring"],
    )
    def test_rns_mul_matches_faithful_ring(self, engine, ring_engine):
        ring, requests, expected = _rns_requests(
            seed=12, count=3, engine=ring_engine
        )

        async def drive():
            service = ReproService(config=ServeConfig(
                engine=engine, workers=1, max_batch=3, max_wait_s=0.001,
            ))
            service.register_ring(ring)
            async with service:
                got = await asyncio.gather(*(
                    service.submit("rns.mul", req, N, ring.basis.modulus)
                    for req in requests
                ))
            return got, dict(service.stats)

        got, stats = asyncio.run(drive())
        assert got == expected
        assert stats["completed"] == 3 and stats["degraded"] == 0

    @pytest.mark.parametrize("op", SERVE_OPS)
    def test_faithful_engine_matches_fast(self, op):
        """A faithful batch is bit-identical to the same batch on fast."""
        if op == "rns.mul":
            ring, payloads, _ = _rns_requests(seed=14, count=3)
            modulus = ring.basis.modulus
        else:
            ring, modulus = None, Q
            payloads = _pairs(seed=13, count=3)
            if op == "ntt":
                payloads = [(f,) for f, _ in payloads]

        async def drive(engine):
            service = ReproService(config=ServeConfig(
                engine=engine, max_batch=3, max_wait_s=60.0,
            ))
            if ring is not None:
                service.register_ring(ring)
            async with service:
                got = await asyncio.gather(*(
                    service.submit(op, payload, N, modulus)
                    for payload in payloads
                ))
            return got, dict(service.stats)

        got, stats = asyncio.run(drive("faithful"))
        want, _ = asyncio.run(drive("fast"))
        assert got == want
        assert stats["completed"] == 3 and stats["batches"] == 1

    @pytest.mark.parametrize("engine", ["fast", "parallel"])
    def test_misshapen_rns_mul_fails_alone(self, engine):
        """A residue row of one value, or an int in place of a row, fails
        its own rns.mul request instead of broadcasting over the ring."""
        ring, requests, expected = _rns_requests(seed=15, count=2)
        f, g = requests[0]
        poisons = [([[f[0][0]], f[1]], g), ([f[0], 7], g)]

        async def drive():
            service = ReproService(config=ServeConfig(
                engine=engine, workers=1, max_batch=4, max_wait_s=60.0,
            ))
            service.register_ring(ring)
            async with service:
                return await asyncio.gather(*(
                    service.submit("rns.mul", req, N, ring.basis.modulus)
                    for req in requests + poisons
                ), return_exceptions=True)

        results = asyncio.run(drive())
        assert results[:2] == expected
        for result in results[2:]:
            assert isinstance(result, Exception)
            assert not isinstance(result, ServeOverloadError)

    def test_rns_mul_requires_registration(self):
        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=1,
            ))
            async with service:
                with pytest.raises(ServeError, match="register_ring"):
                    await service.submit("rns.mul", ((), ()), N, 12345)

        asyncio.run(drive())


# ----------------------------------------------------------------------
# Service: overload, quotas, deadlines, shutdown
# ----------------------------------------------------------------------


class TestServiceOverload:
    def test_queue_full_sheds_with_accounting(self):
        """Past max_queue_depth every request sheds, typed and counted."""
        pairs = _pairs(seed=4, count=8)
        expected = _faithful_products(pairs[:3])

        async def drive():
            # Huge batch/window: nothing dispatches until flush(), so
            # the backlog is exactly the number of admitted requests.
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=100, max_wait_s=60.0,
                max_queue_depth=3,
            ))
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit("polymul", p, N, Q))
                    for p in pairs
                ]
                await asyncio.sleep(0)  # let every submit hit admission
                await service.flush()
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
            return results, dict(service.stats)

        results, stats = asyncio.run(drive())
        ok = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if isinstance(r, ServeOverloadError)]
        assert ok == expected
        assert len(shed) == 5
        assert all(e.reason == "queue_full" for e in shed)
        assert stats["shed"] == 5 and stats["completed"] == 3
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_tenant_quota_sheds(self):
        pairs = _pairs(seed=5, count=5)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=100, max_wait_s=60.0,
                tenant_rate=0.001, tenant_burst=2.0,
            ))
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit("polymul", p, N, Q, tenant="chatty")
                    )
                    for p in pairs
                ]
                await asyncio.sleep(0)
                await service.flush()
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
            return results, dict(service.stats)

        results, stats = asyncio.run(drive())
        shed = [r for r in results if isinstance(r, ServeOverloadError)]
        assert len(shed) == 3
        assert all(e.reason == "quota" and e.tenant == "chatty" for e in shed)
        assert stats["completed"] == 2

    def test_deadline_expiry_mid_coalesce(self):
        """Expired requests fail alone; fresh batchmates still complete."""
        pairs = _pairs(seed=6, count=4)
        expected = _faithful_products(pairs[2:])

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=100, max_wait_s=60.0,
            ))
            async with service:
                doomed = [
                    asyncio.ensure_future(service.submit(
                        "polymul", p, N, Q, deadline_s=0.01,
                    ))
                    for p in pairs[:2]
                ]
                fresh = [
                    asyncio.ensure_future(service.submit("polymul", p, N, Q))
                    for p in pairs[2:]
                ]
                await asyncio.sleep(0.05)  # outlive the 10ms deadlines
                await service.flush()
                results = await asyncio.gather(
                    *doomed, *fresh, return_exceptions=True
                )
            return results, dict(service.stats)

        results, stats = asyncio.run(drive())
        assert all(isinstance(r, ServeDeadlineError) for r in results[:2])
        assert results[2:] == expected
        assert stats["failed"] == 2 and stats["completed"] == 2
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_closed_service_sheds_new_work(self):
        async def drive():
            service = ReproService(config=ServeConfig(engine="fast"))
            async with service:
                pass
            with pytest.raises(ServeOverloadError) as err:
                await service.submit("polymul", _pairs(7, 1)[0], N, Q)
            return err.value, dict(service.stats)

        exc, stats = asyncio.run(drive())
        assert exc.reason == "shutting_down"
        assert stats["shed"] == 1

    def test_close_without_drain_fails_queued(self):
        pairs = _pairs(seed=8, count=3)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=100, max_wait_s=60.0,
            ))
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit("polymul", p, N, Q))
                for p in pairs
            ]
            await asyncio.sleep(0)
            await service.close(drain=False)
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, dict(service.stats)

        results, stats = asyncio.run(drive())
        assert all(isinstance(r, ServeOverloadError) for r in results)
        assert all(r.reason == "shutting_down" for r in results)
        # Admitted-then-abandoned counts as *failed* (shutdown), not shed.
        assert stats["failed"] == 3 and stats["completed"] == 0
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]

    def test_close_with_drain_completes_queued(self):
        pairs = _pairs(seed=9, count=3)
        expected = _faithful_products(pairs)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=100, max_wait_s=60.0,
            ))
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit("polymul", p, N, Q))
                for p in pairs
            ]
            await asyncio.sleep(0)
            await service.close(drain=True)
            return await asyncio.gather(*tasks)

        assert asyncio.run(drive()) == expected


# ----------------------------------------------------------------------
# Service: breaker-aware dispatch (no pool start needed: the breaker
# check happens before the engine runs, so an unstarted executor works)
# ----------------------------------------------------------------------


class TestServiceBreaker:
    def _open_pool(self):
        from repro.par.executor import ParallelExecutor
        from repro.resil import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
        breaker.record_failure()
        assert breaker.state == "open"
        return ParallelExecutor(workers=1, breaker=breaker)

    def test_breaker_degrade_stays_bit_exact(self):
        pairs = _pairs(seed=10, count=4)
        expected = _faithful_products(pairs)
        pool = self._open_pool()

        async def drive():
            service = ReproService(
                executor=pool,
                config=ServeConfig(
                    engine="parallel", breaker_mode="degrade",
                    max_batch=4, max_wait_s=0.001,
                ),
            )
            async with service:
                got = await asyncio.gather(*(
                    service.submit("polymul", p, N, Q) for p in pairs
                ))
            return got, dict(service.stats)

        try:
            got, stats = asyncio.run(drive())
        finally:
            pool.close()
        assert got == expected
        assert stats["degraded"] >= 1
        assert stats["completed"] == 4

    def test_breaker_degrade_runs_rns_mul_in_process(self, monkeypatch):
        """A degraded rns.mul batch must not start a second (default) pool,
        even when the registered ring was built for the parallel engine."""
        from repro.par import executor as executor_mod

        ring, requests, expected = _rns_requests(
            seed=13, count=2, engine="parallel"
        )
        monkeypatch.setattr(executor_mod, "_DEFAULT", None)
        pool = self._open_pool()

        async def drive():
            service = ReproService(
                executor=pool,
                config=ServeConfig(
                    engine="parallel", breaker_mode="degrade",
                    max_batch=2, max_wait_s=0.5,
                ),
            )
            service.register_ring(ring)
            async with service:
                got = await asyncio.gather(*(
                    service.submit("rns.mul", req, N, ring.basis.modulus)
                    for req in requests
                ))
            return got, dict(service.stats)

        try:
            got, stats = asyncio.run(drive())
        finally:
            pool.close()
            leaked = executor_mod._DEFAULT
            if leaked is not None:
                leaked.close()
        assert got == expected
        assert stats["degraded"] == 1 and stats["completed"] == 2
        assert leaked is None

    def test_breaker_shed_mode_rejects_typed(self):
        pairs = _pairs(seed=11, count=2)
        pool = self._open_pool()

        async def drive():
            service = ReproService(
                executor=pool,
                config=ServeConfig(
                    engine="parallel", breaker_mode="shed",
                    max_batch=2, max_wait_s=0.001,
                ),
            )
            async with service:
                results = await asyncio.gather(
                    *(service.submit("polymul", p, N, Q) for p in pairs),
                    return_exceptions=True,
                )
            return results, dict(service.stats)

        try:
            results, stats = asyncio.run(drive())
        finally:
            pool.close()
        assert all(isinstance(r, ServeOverloadError) for r in results)
        assert all(r.reason == "breaker_open" for r in results)
        assert stats["shed"] == 2 and stats["completed"] == 0
        assert stats["submitted"] == stats["completed"] + stats["failed"] + stats["shed"]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestServeConfig:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ServeError):
            ServeConfig(engine="gpu")

    def test_rejects_unknown_breaker_mode(self):
        with pytest.raises(ServeError):
            ServeConfig(breaker_mode="explode")

    def test_rejects_bad_deadline(self):
        with pytest.raises(ServeError):
            ServeConfig(default_deadline_s=0.0)

    def test_rejects_bad_slo_settings(self):
        with pytest.raises(ServeError):
            ServeConfig(slo_p99_ms=0.0)
        with pytest.raises(ServeError):
            ServeConfig(slo_window_s=0.0)
        with pytest.raises(ServeError):
            ServeConfig(slo_burn_windows=0)
        with pytest.raises(ServeError):
            ServeConfig(slo_error_budget=0.0)
        with pytest.raises(ServeError):
            ServeConfig(slo_error_budget=1.5)
        # A valid objective threads through to the tracker.
        config = ServeConfig(slo_p99_ms=50.0, slo_burn_windows=2)
        assert config.slo_p99_ms == 50.0


class TestServeObservability:
    """The per-request latency decomposition lands in the metrics."""

    def test_latency_slices_and_slo_recorded(self):
        from repro.obs import session as obs_session
        from repro.obs.session import observing

        obs_session.disable()
        pairs = _pairs(seed=7, count=8)

        async def drive():
            service = ReproService(config=ServeConfig(
                engine="fast", max_batch=4, max_wait_s=0.001,
                slo_p99_ms=250.0,
            ))
            async with service:
                await asyncio.gather(*(
                    service.submit(
                        "polymul", pair, N, Q, tenant=f"t{i % 2}"
                    )
                    for i, pair in enumerate(pairs)
                ))
            return service

        try:
            with observing() as session:
                service = asyncio.run(drive())
                snap = session.metrics.snapshot()
        finally:
            obs_session.disable()

        # Decomposition: every completed request contributes one sample
        # to each stage histogram, and the stages sum below the total.
        for stage in (
            "serve.latency_s.polymul",
            "serve.coalesce_wait_s.polymul",
            "serve.queue_wait_s.polymul",
            "serve.compute_s.polymul",
        ):
            assert snap[stage]["count"] == 8, stage
        slices_mean = sum(
            snap[f"serve.{s}.polymul"]["mean"]
            for s in ("coalesce_wait_s", "queue_wait_s", "compute_s")
        )
        assert slices_mean <= snap["serve.latency_s.polymul"]["mean"] * 1.01

        # Per-tenant latency series exist for both rotated tenants.
        assert snap["serve.tenant.t0.latency_s"]["count"] == 4
        assert snap["serve.tenant.t1.latency_s"]["count"] == 4

        # Coalescer fill histogram observed one sample per batch.
        assert (
            snap["serve.batch.size"]["count"]
            == snap["serve.batches"]["value"]
        )

        # The SLO tracker was fed every completion for op and tenants.
        assert service.slo.slo_p99_ms == 250.0
        assert "polymul" in service.slo._ops
        assert {"t0", "t1"} <= set(service.slo._tenants)


# ----------------------------------------------------------------------
# Loadgen smoke (fast engine: no pool, tiny sizes)
# ----------------------------------------------------------------------


def test_loadgen_smoke_fast_engine(tmp_path):
    from repro.serve import run_loadgen

    lines = []
    code = run_loadgen(
        ops=("polymul",),
        logn=5,
        requests=16,
        baseline_requests=8,
        engine="fast",
        max_batch=8,
        max_wait_s=0.002,
        overload_queue_depth=4,
        overload_duration_s=0.1,
        min_gain=0.0,          # gains are a pool property, not gated here
        gate_tail=None,
        snapshot=str(tmp_path / "BENCH_serve.json"),
        output_dir=str(tmp_path),
        emit=lines.append,
    )
    assert code == 0, "\n".join(lines)
    assert (tmp_path / "BENCH_serve.json").exists()
