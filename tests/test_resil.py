"""Tests for repro.resil: fault injection, policies, integrity, degradation.

The headline property, mirrored from docs/RESILIENCE.md: **any**
deterministic :class:`FaultPlan` — crashes, corrupt payloads, slow
stragglers, in any placement — yields results bit-identical to the fast
engine, because every fault either retries clean or degrades to the
in-process fallback. The rest covers the policy primitives (retry
backoff, deadlines, the circuit breaker state machine), checksum
integrity, the engine cascade, defensive shm reclamation, and the
stale-generation dedup that prevents double-counted shards.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.primes import find_ntt_prime
from repro.errors import ResilienceError, ResilIntegrityError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.kernels import get_backend
from repro.obs import observing
from repro.par import (
    ParallelExecutor,
    ParBlasPlan,
    ParNegacyclic,
    ParNtt,
    parallel_rns_mul,
    shm,
)
from repro.resil import (
    CircuitBreaker,
    Deadline,
    EngineDegradedWarning,
    Fault,
    FaultPlan,
    RetryPolicy,
)
from repro.resil import degrade
from repro.resil.inject import strip_transient_fault
from repro.resil.policy import BREAKER_STATES
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomialRing

N = 16
Q = find_ntt_prime(62, 2 * N)


def _vectors(seed, count=4, n=N, q=Q):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


@pytest.fixture(scope="module")
def pool():
    # A breaker that never trips: these tests exercise faults in volume,
    # and a module-shared pool must keep dispatching through all of them.
    executor = ParallelExecutor(
        workers=2,
        task_timeout=20.0,
        breaker=CircuitBreaker(failure_threshold=10_000),
    )
    executor.start()
    yield executor
    executor.close()


@pytest.fixture(autouse=True)
def clean_degrade_state():
    degrade.note_pool_start_success()
    yield
    degrade.note_pool_start_success()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_should_retry_bounds_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_zero_base_delay_means_immediate(self):
        assert RetryPolicy(base_delay_s=0.0).delay_s(1) == 0.0

    def test_exponential_growth_with_clamp(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3
        )
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.3)  # clamped
        assert policy.delay_s(4) == pytest.approx(0.3)

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=7)
        b = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=7)
        c = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=8)
        assert a.delay_s(1) == b.delay_s(1)
        assert a.delay_s(1) != c.delay_s(1)
        assert 0.05 <= a.delay_s(1) <= 0.15

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy().delay_s(0)


class TestDeadline:
    def test_expires_exactly_at_budget(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining_s() == pytest.approx(5.0)
        clock.now += 5.0
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ResilienceError):
            Deadline(0.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_allows_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 5.0
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else waits on it

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += 4.0
        assert breaker.state == "open"  # cooldown restarted at the probe
        clock.now += 1.0
        assert breaker.state == "half_open"

    def test_transitions_are_reported(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock,
            on_transition=seen.append,
        )
        breaker.record_failure()
        clock.now += 5.0
        breaker.allow()
        breaker.record_success()
        assert seen == ["open", "half_open", "closed"]
        assert all(state in BREAKER_STATES for state in seen)

    def test_validation(self):
        with pytest.raises(ResilienceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ResilienceError):
            CircuitBreaker(cooldown_s=-1)

    def test_half_open_single_probe_under_contention(self):
        """Racing allow() callers admit exactly one half-open probe.

        This is the serve-layer race: the dispatcher thread and the
        event-loop thread both consult the breaker. Unsynchronized,
        two callers could read ``_probe_outstanding == False`` and
        double-admit the probe.
        """
        import threading

        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 5.0
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(admitted) == 1

    def test_concurrent_records_keep_state_valid(self):
        """Hammering record_failure/record_success from threads never
        corrupts the state machine or loses the trip."""
        import threading

        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=3600.0)
        barrier = threading.Barrier(6)

        def fail_loop():
            barrier.wait()
            for _ in range(200):
                breaker.record_failure()

        threads = [threading.Thread(target=fail_loop) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.state == "open"
        assert breaker.consecutive_failures >= 3
        assert breaker.state in BREAKER_STATES

    def test_deadline_thread_safe_reads(self):
        """Concurrent remaining_s/expired reads race the lock cleanly."""
        import threading

        clock = FakeClock()
        deadline = Deadline(budget_s=1.0, clock=clock)
        errors = []

        def poll():
            try:
                for _ in range(500):
                    deadline.remaining_s()
                    deadline.expired()
            except Exception as exc:  # pragma: no cover — the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for t in threads:
            t.start()
        clock.now += 2.0
        for t in threads:
            t.join()
        assert not errors
        assert deadline.expired()


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ResilienceError):
            Fault("meteor")
        with pytest.raises(ResilienceError):
            Fault("hang", seconds=-1)
        with pytest.raises(ResilienceError):
            FaultPlan({-1: Fault("crash")})
        with pytest.raises(ResilienceError):
            FaultPlan({0: "crash"})

    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(5, 64, crash=0.3, corrupt=0.3, slow=0.2)
        b = FaultPlan.random(5, 64, crash=0.3, corrupt=0.3, slow=0.2)
        assert {i: a.fault_for(i) for i in a} == {i: b.fault_for(i) for i in b}
        assert len(a) > 0

    def test_counts_and_precedence(self):
        plan = FaultPlan.random(1, 32, crash=1.0, hang=1.0, corrupt=1.0)
        assert plan.counts()["crash"] == 32  # crash outranks the others
        assert len(plan) == 32

    def test_strip_transient_fault(self):
        spec = {"op": "ntt", "fault": Fault("crash").to_spec()}
        assert "fault" not in strip_transient_fault(spec)
        assert "fault" in spec  # original untouched
        sticky = {"op": "ntt", "fault": Fault("crash", sticky=True).to_spec()}
        assert "fault" in strip_transient_fault(sticky)


# ---------------------------------------------------------------------------
# Integrity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def audit_pool():
    executor = ParallelExecutor(
        workers=2, task_timeout=20.0, integrity=False, audit_fraction=1.0
    )
    executor.start()
    yield executor
    executor.close()


_F, _G = _vectors(40), _vectors(41)
_RNS_BASIS = RnsBasis.generate(3, 62, 2 * N)
_RNS_RING = RnsPolynomialRing(
    N, _RNS_BASIS, get_backend("scalar"), engine="parallel"
)
_RNS_F = [[v % p for v in _F[0]] for p in _RNS_BASIS.primes]
_RNS_G = [[v % p for v in _G[0]] for p in _RNS_BASIS.primes]

#: case -> (run it on an audited pool, its fast-engine reference).
_AUDIT_CASES = {
    "ntt-inverse-bitrev": (
        lambda ex: ParNtt(N, Q, executor=ex).inverse(_F, natural_order=False),
        lambda: FastNtt(N, Q).inverse(_F, natural_order=False),
    ),
    "cyclic-mul": (
        lambda ex: ParNtt(N, Q, executor=ex).cyclic_multiply(_F, _G),
        lambda: FastNtt(N, Q).cyclic_multiply(_F, _G),
    ),
    "negacyclic-mul": (
        lambda ex: ParNegacyclic(N, Q, executor=ex).multiply(_F, _G),
        lambda: FastNegacyclic(N, Q).multiply(_F, _G),
    ),
    "blas-vector_add": (
        lambda ex: ParBlasPlan(Q, executor=ex).vector_add(_F, _G),
        lambda: FastBlasPlan(Q).vector_add(_F, _G),
    ),
    "blas-vector_sub": (
        lambda ex: ParBlasPlan(Q, executor=ex).vector_sub(_F, _G),
        lambda: FastBlasPlan(Q).vector_sub(_F, _G),
    ),
    "blas-vector_mul": (
        lambda ex: ParBlasPlan(Q, executor=ex).vector_mul(_F, _G),
        lambda: FastBlasPlan(Q).vector_mul(_F, _G),
    ),
    "blas-axpy": (
        lambda ex: ParBlasPlan(Q, executor=ex).axpy(12345, _F, _G),
        lambda: FastBlasPlan(Q).axpy(12345, _F, _G),
    ),
    "rns-mul": (
        lambda ex: parallel_rns_mul(_RNS_RING, _RNS_F, _RNS_G, executor=ex),
        lambda: [
            FastNegacyclic(N, p).multiply(f, g)
            for p, f, g in zip(_RNS_BASIS.primes, _RNS_F, _RNS_G)
        ],
    ),
}


class TestIntegrity:
    def _segment_with(self, batch):
        import numpy as np

        from repro.fast.limbs import limbs_from_ints

        arr = limbs_from_ints(batch)
        seg, view = shm.create_segment(arr.shape)
        view[...] = arr
        return seg, view, arr.shape

    def test_checksum_roundtrip_and_headers(self):
        import numpy as np

        from repro.resil.integrity import shard_checksum

        _seg, view, shape = self._segment_with(_vectors(20))
        try:
            crc = shard_checksum(view, (0, 2), shape)
            assert crc == shard_checksum(view, (0, 2), shape)
            # Geometry is part of the checksum, not just the bytes.
            assert crc != shard_checksum(view, (0, 1), shape)
            view[0, 0, 0] ^= np.uint64(1)
            assert crc != shard_checksum(view, (0, 2), shape)
        finally:
            del view
            shm.release_segment(_seg)

    def test_audit_passes_on_correct_results_and_catches_corruption(self):
        import numpy as np

        from repro.resil.integrity import audit_shards

        n, q = 8, find_ntt_prime(62, 16)
        batch = _vectors(21, count=2, n=n, q=q)
        fast = FastNtt(n, q)
        x_seg, x_view, shape = self._segment_with(batch)
        out_seg, out_view, _ = self._segment_with(fast.forward(batch))
        spec = {
            "op": "chain", "n": n, "q": q, "root": fast.table.root,
            "steps": list(fast_chain.transform_steps("forward", True)),
            "inputs": ["x"], "shape": list(shape), "rows": [0, 2],
            "x": x_seg.name, "out": out_seg.name, "shard_index": 0,
        }
        try:
            assert audit_shards([spec], 1.0) == 1
            out_view[1, 3, 0] ^= np.uint64(1)
            with pytest.raises(ResilIntegrityError):
                audit_shards([spec], 1.0)
        finally:
            del x_view, out_view
            shm.release_segment(x_seg)
            shm.release_segment(out_seg)

    @pytest.mark.parametrize("case", sorted(_AUDIT_CASES))
    def test_audit_covers_every_parallel_op(self, audit_pool, case):
        # Checksums off, so a corrupted word survives collection and only
        # the faithful audit (every shard, fraction 1.0) can catch it.
        run, reference = _AUDIT_CASES[case]
        before = audit_pool.stats["audited"]
        assert run(audit_pool) == reference()
        assert audit_pool.stats["audited"] > before
        audit_pool.inject(FaultPlan({0: Fault("corrupt")}))
        try:
            with pytest.raises(ResilIntegrityError):
                run(audit_pool)
        finally:
            audit_pool.inject(None)

    def test_sample_specs_is_seeded_and_never_empty(self):
        from repro.resil.integrity import sample_specs

        specs = [{"i": i} for i in range(20)]
        assert sample_specs(specs, 0.3, 4) == sample_specs(specs, 0.3, 4)
        assert sample_specs(specs, 0.0, 4) == []
        assert len(sample_specs(specs, 1e-9, 4)) == 1  # at least one
        with pytest.raises(ResilienceError):
            sample_specs(specs, 1.5, 0)

    def test_corrupt_fault_is_detected_and_retried(self):
        batch = _vectors(22)
        expected = FastNtt(N, Q).forward(batch)
        with observing() as session:
            with ParallelExecutor(workers=2, task_timeout=20.0) as executor:
                plan = ParNtt(N, Q, executor=executor)
                executor.inject(FaultPlan({0: Fault("corrupt")}))
                assert plan.forward(batch) == expected
                assert executor.stats["corrupt"] == 1
                assert executor.stats["retries"] == 1
            assert session.metrics.get("par.integrity.corrupt").value == 1

    def test_audit_runs_on_sampled_fraction(self, pool):
        batch = _vectors(23)
        executor = ParallelExecutor(
            workers=1, task_timeout=20.0, audit_fraction=1.0
        )
        with observing() as session:
            with executor:
                plan = ParNtt(N, Q, executor=executor)
                assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
            assert executor.stats["audited"] >= 1
            assert session.metrics.get("par.integrity.audited").value >= 1

    def test_integrity_disabled_skips_checksums(self):
        batch = _vectors(24)
        with ParallelExecutor(workers=1, integrity=False) as executor:
            plan = ParNtt(N, Q, executor=executor)
            assert plan.forward(batch) == FastNtt(N, Q).forward(batch)


# ---------------------------------------------------------------------------
# Fault tolerance through the executor (the headline property)
# ---------------------------------------------------------------------------


class TestFaultPlanExecution:
    def test_crash_fault_recovers_bit_exact(self, pool):
        batch = _vectors(30)
        plan = ParNtt(N, Q, executor=pool)
        before = pool.stats["retries"]
        pool.inject(FaultPlan({0: Fault("crash")}))
        try:
            assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
        finally:
            pool.inject(None)
        assert pool.stats["retries"] == before + 1

    def test_slow_fault_still_completes(self, pool):
        batch = _vectors(31)
        plan = ParNtt(N, Q, executor=pool)
        pool.inject(FaultPlan({0: Fault("slow", seconds=0.05)}))
        try:
            assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
        finally:
            pool.inject(None)

    @settings(deadline=None, max_examples=6)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        crash=st.floats(min_value=0.0, max_value=0.5),
        corrupt=st.floats(min_value=0.0, max_value=0.5),
        slow=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_any_fault_plan_is_bit_exact(self, pool, seed, crash, corrupt, slow):
        # Runs under an observability session: cross-process telemetry
        # (context headers, worker blobs, parent-side merge) must never
        # perturb results, whatever faults the plan injects.
        batch = _vectors(seed, count=4)
        plan = ParNtt(N, Q, executor=pool)
        blas = ParBlasPlan(Q, executor=pool)
        pool.inject(FaultPlan.random(
            seed, 16, crash=crash, corrupt=corrupt, slow=slow, slow_s=0.02
        ))
        try:
            with observing():
                assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
                assert blas.vector_mul(batch, batch) == FastBlasPlan(
                    Q
                ).vector_mul(batch, batch)
        finally:
            pool.inject(None)

    def test_retry_backoff_delays_are_applied(self):
        batch = _vectors(32, count=2)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.0)
        with ParallelExecutor(
            workers=1, task_timeout=20.0, retry_policy=policy
        ) as executor:
            plan = ParNtt(N, Q, executor=executor)
            executor.inject(FaultPlan({0: Fault("crash")}))
            started = time.monotonic()
            assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
            assert time.monotonic() - started >= 0.05
            assert executor.stats["retries"] == 1

    def test_stale_generation_results_are_discarded(self):
        # A superseded run of a shard: the batch deadline sends a slow
        # shard to the in-process fallback while its worker keeps
        # computing. The worker's late result must be counted as stale
        # and never satisfy a shard of the next batch.
        batch, later = _vectors(33, count=2), _vectors(36, count=2)
        reference = FastNtt(N, Q)
        with observing() as session:
            with ParallelExecutor(
                workers=1, task_timeout=30.0, adaptive=False
            ) as executor:
                plan = ParNtt(N, Q, executor=executor)
                assert plan.forward(batch) == reference.forward(batch)
                executor.inject(FaultPlan({0: Fault("slow", seconds=0.3)}))
                executor.batch_deadline_s = 0.05
                try:
                    assert plan.forward(batch) == reference.forward(batch)
                finally:
                    executor.batch_deadline_s = None
                    executor.inject(None)
                assert executor.stats["stale"] == 0  # still running
                assert plan.forward(later) == reference.forward(later)
                assert executor.stats["stale"] == 1
                fallbacks = executor.stats["fallbacks"]
                assert fallbacks >= 1
            metrics = session.metrics
            assert metrics.get("par.stale_results").value == 1
            # The straggler completed nothing: every dispatched shard was
            # completed by a worker or by the fallback, never by both.
            assert metrics.get("par.shards.completed").value == (
                metrics.get("par.shards.dispatched").value - fallbacks
            )


class TestDeadlineExecution:
    def test_expired_deadline_short_circuits_in_process(self):
        batch = _vectors(34)
        with observing() as session:
            with ParallelExecutor(
                workers=2, task_timeout=20.0, batch_deadline_s=1e-9
            ) as executor:
                plan = ParNtt(N, Q, executor=executor)
                assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
                assert executor.stats["deadline_expired"] >= 1
                assert executor.stats["fallbacks"] >= 1
            assert session.metrics.get("resil.deadline.expired").value >= 1

    def test_deadline_validation(self):
        from repro.errors import ParallelExecutionError

        with pytest.raises(ParallelExecutionError):
            ParallelExecutor(batch_deadline_s=0.0)
        with pytest.raises(ParallelExecutionError):
            ParallelExecutor(audit_fraction=2.0)


class TestBreakerExecution:
    def test_breaker_trips_degrades_and_recovers(self):
        batch = _vectors(35)
        expected = FastNtt(N, Q).forward(batch)
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=30.0, clock=clock
        )
        with observing() as session:
            with ParallelExecutor(
                workers=2, task_timeout=20.0, retries=0, breaker=breaker
            ) as executor:
                plan = ParNtt(N, Q, executor=executor)
                # Both shards crash with no retry budget: two consecutive
                # failures trip the breaker (results still exact via the
                # in-process fallback).
                executor.inject(FaultPlan({
                    0: Fault("crash", sticky=True),
                    1: Fault("crash", sticky=True),
                }))
                assert plan.forward(batch) == expected
                executor.inject(None)
                assert breaker.state == "open"

                # Open: the whole batch routes around the pool.
                dispatched_completed = executor.stats["completed"]
                assert plan.forward(batch) == expected
                assert executor.stats["degraded"] >= 2
                assert executor.stats["completed"] == dispatched_completed
                assert (
                    session.metrics.get("resil.degraded.breaker_open").value
                    >= 1
                )

                # Cooldown elapses: the next batch is the half-open probe,
                # and its success closes the breaker.
                clock.now += 30.0
                assert breaker.state == "half_open"
                assert plan.forward(batch) == expected
                assert breaker.state == "closed"

    def test_open_default_breaker_degrades_new_construction_sites(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0, clock=clock)
        with ParallelExecutor(workers=1, breaker=breaker) as executor:
            breaker.record_failure()
            assert breaker.state == "open"
            with pytest.warns(EngineDegradedWarning):
                resolved = degrade.resolve_engine("parallel")
            assert resolved == "fast"


# ---------------------------------------------------------------------------
# Engine cascade
# ---------------------------------------------------------------------------


class TestEngineCascade:
    def test_identity_when_available(self):
        assert degrade.resolve_engine("faithful") == "faithful"
        assert degrade.resolve_engine("fast") == "fast"

    def test_disable_parallel_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_PARALLEL", "1")
        with pytest.warns(EngineDegradedWarning):
            assert degrade.resolve_engine("parallel") == "fast"

    def test_pool_start_failure_window(self):
        degrade.note_pool_start_failure()
        with pytest.warns(EngineDegradedWarning):
            assert degrade.resolve_engine("parallel") == "fast"
        degrade.note_pool_start_success()
        assert degrade.resolve_engine("parallel") == "parallel"

    def test_plan_construction_sites_never_hard_fail(self, monkeypatch):
        from repro.blas.ops import BlasPlan
        from repro.ntt.negacyclic import NegacyclicNtt
        from repro.ntt.simd import SimdNtt
        from repro.rns.basis import RnsBasis
        from repro.rns.poly import RnsPolynomialRing

        monkeypatch.setenv("REPRO_DISABLE_PARALLEL", "1")
        backend = get_backend("mqx")
        with pytest.warns(EngineDegradedWarning):
            ntt = SimdNtt(N, Q, backend, engine="parallel")
        assert ntt.engine == "fast" and ntt.par_plan is None
        assert ntt.fast_plan is not None
        with pytest.warns(EngineDegradedWarning):
            neg = NegacyclicNtt(N, Q, backend, engine="parallel")
        assert neg.engine == "fast" and neg.par_plan is None
        with pytest.warns(EngineDegradedWarning):
            blas = BlasPlan(Q, backend, engine="parallel")
        assert blas.engine == "fast" and blas.par_plan is None
        with pytest.warns(EngineDegradedWarning):
            ring = RnsPolynomialRing(
                N, RnsBasis.generate(2, 62, 2 * N), backend, engine="parallel"
            )
        assert ring.engine == "fast"
        # The degraded ring must not dispatch the fused pool batch.
        f = ring.encode([1] + [0] * (N - 1))
        assert ring.mul(f, f).residues == f.residues

    def test_invalid_engine_names_still_raise(self):
        from repro.errors import NttParameterError
        from repro.ntt.simd import SimdNtt

        with pytest.raises(NttParameterError):
            SimdNtt(N, Q, get_backend("mqx"), engine="bogus")

    def test_pool_start_failure_degrades_batch_in_process(self, monkeypatch):
        batch = _vectors(36)
        executor = ParallelExecutor(workers=1)

        def boom(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(executor, "_spawn", boom)
        with observing() as session:
            try:
                plan = ParNtt(N, Q, executor=executor)
                assert plan.forward(batch) == FastNtt(N, Q).forward(batch)
                assert executor.stats["degraded"] >= 1
                metric = session.metrics.get("resil.degraded.pool_start_failed")
                assert metric is not None and metric.value >= 1
            finally:
                executor.close()
                degrade.note_pool_start_success()


# ---------------------------------------------------------------------------
# Defensive shm reclamation
# ---------------------------------------------------------------------------


class TestDefensiveClose:
    def test_close_reclaims_segments_named_in_specs(self):
        seg, view = shm.create_segment((2, 4, 2))
        del view
        executor = ParallelExecutor(workers=1)
        executor._track_segments([{"x": seg.name}])
        assert shm.is_created(seg.name)
        with observing() as session:
            executor.close()
            assert session.metrics.get("par.shm.reclaimed").value == 1
        assert not shm.is_created(seg.name)
        assert executor.stats["shm_reclaimed"] == 1

    def test_close_ignores_already_released_segments(self):
        seg, view = shm.create_segment((2, 2))
        del view
        executor = ParallelExecutor(workers=1)
        executor._track_segments([{"x": seg.name}])
        shm.release_segment(seg)
        executor.close()  # must not raise or double-release
        assert executor.stats["shm_reclaimed"] == 0

    def test_normal_runs_leave_nothing_to_reclaim(self, pool):
        ParNtt(N, Q, executor=pool).forward(_vectors(37))
        assert shm.created_segments() == 0


# ---------------------------------------------------------------------------
# Chaos harness (programmatic smoke; the CLI runs the full gauntlet)
# ---------------------------------------------------------------------------


class TestChaosHarness:
    def test_chaos_run_passes(self):
        from repro.resil.chaos import run_chaos

        lines = []
        code = run_chaos(
            workers=2, seed=0, logn=4, batch=4, limbs=2,
            crash=0.2, corrupt=0.2, slow=0.1, task_timeout=5.0,
            rounds=1, emit=lines.append,
        )
        assert code == 0, "\n".join(lines)
        assert any("checks passed" in line for line in lines)
