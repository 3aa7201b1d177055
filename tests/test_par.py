"""Tests for repro.par: sharded multi-process batch execution.

Covers bit-exactness against the fast engine (including
hypothesis-sampled 64-124-bit primes), worker-crash injection
(retry-then-fallback with correct results and ``par.*`` counters),
executor lifecycle, and shared-memory cleanup on interpreter exit.
"""

import os
import random
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.primes import find_ntt_prime
from repro.errors import ArithmeticDomainError, ParallelExecutionError
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
    default_executor,
    parallel_rns_mul,
    shard_bounds,
)
from repro.par import shm
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomialRing

N = 16
Q = find_ntt_prime(62, 2 * N)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _vectors(seed, count=4, n=N, q=Q):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


@pytest.fixture(scope="module")
def pool():
    # adaptive=False: several tests assert exact shard/dispatch counts,
    # which adaptive sizing would fold once compute history accumulates.
    executor = ParallelExecutor(workers=2, task_timeout=30.0, adaptive=False)
    executor.start()
    yield executor
    executor.close()


class TestShardBounds:
    def test_covers_range_without_overlap(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_never_more_shards_than_items(self):
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]

    def test_single_item(self):
        assert shard_bounds(1, 4) == [(0, 1)]

    def test_empty_range_has_no_shards(self):
        # The old behaviour manufactured one degenerate (0, 0) shard
        # and dispatched it through the whole staging/pool machinery.
        assert shard_bounds(0, 4) == []
        assert shard_bounds(-3, 2) == []


class TestBitExactness:
    def test_ntt_forward_batch(self, pool):
        batch = _vectors(1)
        par, fast = ParNtt(N, Q, executor=pool), FastNtt(N, Q)
        assert par.forward(batch) == fast.forward(batch)
        assert par.forward(batch, natural_order=False) == fast.forward(
            batch, natural_order=False
        )

    def test_ntt_inverse_roundtrip(self, pool):
        batch = _vectors(2)
        par = ParNtt(N, Q, executor=pool)
        assert par.inverse(par.forward(batch)) == batch

    def test_ntt_flat_input(self, pool):
        vec = _vectors(3, count=1)[0]
        assert ParNtt(N, Q, executor=pool).forward(vec) == FastNtt(N, Q).forward(vec)

    def test_negacyclic_multiply(self, pool):
        f, g = _vectors(4), _vectors(5)
        par, fast = ParNegacyclic(N, Q, executor=pool), FastNegacyclic(N, Q)
        assert par.multiply(f, g) == fast.multiply(f, g)

    def test_cyclic_multiply(self, pool):
        f, g = _vectors(6), _vectors(7)
        par, fast = ParNtt(N, Q, executor=pool), FastNtt(N, Q)
        assert par.cyclic_multiply(f, g) == fast.cyclic_multiply(f, g)

    def test_blas_operations(self, pool):
        f, g = _vectors(8), _vectors(9)
        par, fast = ParBlasPlan(Q, executor=pool), FastBlasPlan(Q)
        assert par.vector_add(f, g) == fast.vector_add(f, g)
        assert par.vector_sub(f, g) == fast.vector_sub(f, g)
        assert par.vector_mul(f, g) == fast.vector_mul(f, g)
        assert par.axpy(12345, f, g) == fast.axpy(12345, f, g)

    def test_axpy_rejects_unreduced_scalar(self, pool):
        f, g = _vectors(10), _vectors(11)
        with pytest.raises(ArithmeticDomainError):
            ParBlasPlan(Q, executor=pool).axpy(Q, f, g)

    @settings(deadline=None, max_examples=8)
    @given(
        bits=st.integers(min_value=64, max_value=124),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_wide_primes_match_fast(self, pool, bits, seed):
        n = 8
        q = find_ntt_prime(bits, 2 * n)
        rng = random.Random(seed)
        f = [[rng.randrange(q) for _ in range(n)] for _ in range(2)]
        g = [[rng.randrange(q) for _ in range(n)] for _ in range(2)]
        par = ParNegacyclic(n, q, executor=pool)
        fast = FastNegacyclic(n, q)
        assert par.multiply(f, g) == fast.multiply(f, g)


class TestEnginePlumbing:
    def test_rns_ring_parallel_matches_fast(self, pool):
        backend = get_backend("mqx")
        basis = RnsBasis.generate(3, 62, 2 * N)
        rng = random.Random(12)
        coeffs_f = [rng.randrange(basis.modulus) for _ in range(N)]
        coeffs_g = [rng.randrange(basis.modulus) for _ in range(N)]
        for negacyclic in (True, False):
            ring_par = RnsPolynomialRing(
                N, basis, backend, negacyclic=negacyclic, engine="parallel"
            )
            ring_fast = RnsPolynomialRing(
                N, basis, backend, negacyclic=negacyclic, engine="fast"
            )
            ring_faithful = RnsPolynomialRing(
                N, basis, backend, negacyclic=negacyclic
            )
            got = ring_par.mul(ring_par.encode(coeffs_f), ring_par.encode(coeffs_g))
            want = ring_fast.mul(
                ring_fast.encode(coeffs_f), ring_fast.encode(coeffs_g)
            )
            assert got.residues == want.residues
            faithful = ring_faithful.mul(
                ring_faithful.encode(coeffs_f), ring_faithful.encode(coeffs_g)
            )
            assert faithful.residues == want.residues

    @pytest.mark.parametrize("negacyclic", [True, False])
    def test_parallel_rns_mul_on_faithful_ring(self, pool, negacyclic):
        # The pool needs only n and each prime's psi/root, which every
        # engine's plans carry: a default (faithful) ring works too.
        basis = RnsBasis.generate(2, 62, 2 * N)
        ring = RnsPolynomialRing(
            N, basis, get_backend("avx2"), negacyclic=negacyclic
        )
        rng = random.Random(31)
        f = ring.encode([rng.randrange(basis.modulus) for _ in range(N)])
        g = ring.encode([rng.randrange(basis.modulus) for _ in range(N)])
        got = parallel_rns_mul(ring, f.residues, g.residues, executor=pool)
        assert got == ring.mul(f, g).residues

    def test_parallel_rns_mul_rejects_unreduced_residue(self, pool):
        backend = get_backend("mqx")
        basis = RnsBasis.generate(2, 62, 2 * N)
        ring = RnsPolynomialRing(N, basis, backend, engine="parallel")
        bad = [[basis.primes[0]] + [0] * (N - 1), [0] * N]
        good = [[1] + [0] * (N - 1) for _ in basis.primes]
        with pytest.raises(ArithmeticDomainError):
            parallel_rns_mul(ring, bad, good, executor=pool)

    @pytest.mark.parametrize(
        "bad, where",
        [
            (lambda good: [[1], good[1]], r"f_residues\[0\] must be"),
            (lambda good: [good[0], 5], r"f_residues\[1\] must be"),
            (lambda good: [good[0], good[1] + [0]], r"f_residues\[1\] must be"),
            (lambda good: good[:1], "one residue row per prime"),
            (lambda good: good + [good[0]], "one residue row per prime"),
        ],
        ids=["one-element-row", "int-row", "long-row", "short", "extra-row"],
    )
    def test_parallel_rns_mul_rejects_misshapen_residues(self, pool, bad, where):
        # A (1, 2) row or a bare int would broadcast over all n slots of
        # the packed (k, n, 2) block: it must be refused, not multiplied.
        basis = RnsBasis.generate(2, 62, 2 * N)
        ring = RnsPolynomialRing(N, basis, get_backend("mqx"), engine="parallel")
        good = [[1] + [0] * (N - 1) for _ in basis.primes]
        with pytest.raises(ArithmeticDomainError, match=where):
            parallel_rns_mul(ring, bad(good), good, executor=pool)

    def test_context_manager_installs_default(self):
        with ParallelExecutor(workers=1) as executor:
            assert default_executor() is executor
        assert default_executor() is not executor


class TestFaultTolerance:
    def test_crash_retry_then_fallback(self):
        batch = _vectors(13)
        expected = FastNtt(N, Q).forward(batch)
        with observing() as session:
            with ParallelExecutor(workers=2, task_timeout=15.0) as executor:
                plan = ParNtt(N, Q, executor=executor)
                executor.inject_crash(1)
                assert plan.forward(batch) == expected
                # One retry (which crashes again), then in-process fallback.
                assert executor.stats["retries"] == 1
                assert executor.stats["fallbacks"] == 1
                assert executor.stats["restarts"] >= 1
                # The pool still serves work after the restarts.
                assert plan.forward(batch) == expected
            metrics = session.metrics
            assert metrics.get("par.retries").value == 1
            assert metrics.get("par.fallbacks").value == 1
            assert metrics.get("par.workers.restarted").value >= 1
            dispatched = metrics.get("par.shards.dispatched").value
            completed = metrics.get("par.shards.completed").value
            # The crashed shard completed in-process, not in a worker.
            assert completed == dispatched - 1

    def test_unknown_op_degrades_then_raises(self, pool):
        before = dict(pool.stats)
        with pytest.raises(ParallelExecutionError):
            pool.run([{"op": "not-an-op"}])
        assert pool.stats["retries"] == before["retries"] + 1
        assert pool.stats["fallbacks"] == before["fallbacks"] + 1

    def test_hung_worker_terminated_once(self):
        from repro.resil.inject import Fault, FaultPlan

        batch = _vectors(20)
        expected = FastNtt(N, Q).forward(batch)
        with observing() as session:
            with ParallelExecutor(
                workers=1, task_timeout=0.4, adaptive=False
            ) as executor:
                plan = ParNtt(N, Q, executor=executor)
                executor.inject(
                    FaultPlan({0: Fault("hang", seconds=30.0)})
                )
                assert plan.forward(batch) == expected
                executor.inject(None)
                # Exactly one terminate for one hang: the old loop
                # re-signalled (and re-counted) on every poll tick
                # because the claim was never cleared.
                assert executor.stats["hung"] == 1
                assert executor.stats["restarts"] >= 1
                # Hangs are metered apart from crash-restarts.
                assert session.metrics.get("par.workers.hung").value == 1

    def test_idle_worker_killed_is_restarted(self):
        """A worker killed while idle is replaced by the next batch.

        Each worker has its own pipe, so a dead one holds no lock that
        its sibling or its replacement needs: the next batch runs at
        full speed with no retry and no fallback.
        """
        batch = _vectors(23, count=8)
        expected = FastNtt(N, Q).forward(batch)
        with ParallelExecutor(
            workers=2, task_timeout=10.0, adaptive=False
        ) as executor:
            plan = ParNtt(N, Q, executor=executor)
            assert plan.forward(batch) == expected  # start and warm
            for slot in (0, 1):
                victim = executor._procs[slot]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                assert not victim.is_alive()
                before = dict(executor.stats)
                started = time.monotonic()
                assert plan.forward(batch) == expected
                assert time.monotonic() - started < executor.task_timeout / 2
                assert executor.stats["restarts"] == before["restarts"] + 1
                assert executor.stats["retries"] == 0
                assert executor.stats["fallbacks"] == 0
                assert all(proc.is_alive() for proc in executor._procs)

    def test_stale_recovered_result_metered(self):
        """A straggler the deadline outran is discarded and metered.

        The slow shard falls back in process when the batch deadline
        expires; its worker's late result is read off its pipe during
        the next batch, counted as stale, and never completes anything.
        """
        from repro.resil.inject import Fault, FaultPlan

        batch, later = _vectors(21), _vectors(24)
        reference = FastNtt(N, Q)
        with ParallelExecutor(
            workers=1, task_timeout=30.0, adaptive=False
        ) as executor:
            plan = ParNtt(N, Q, executor=executor)
            assert plan.forward(batch) == reference.forward(batch)  # warm
            executor.inject(FaultPlan({0: Fault("slow", seconds=0.3)}))
            executor.batch_deadline_s = 0.05
            assert plan.forward(batch) == reference.forward(batch)
            executor.batch_deadline_s = None
            executor.inject(None)
            assert executor.stats["deadline_expired"] == 1
            assert executor.stats["fallbacks"] == 1
            assert executor.stats["stale"] == 0  # still running
            assert plan.forward(later) == reference.forward(later)
            assert executor.stats["stale"] == 1
            assert executor.stats["fallbacks"] == 1
            assert executor.stats["retries"] == 0
            assert executor.stats["restarts"] == 0

    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP/SIGCONT"
    )
    def test_idle_stopped_worker_is_declared_hung(self):
        from repro.resil.policy import CircuitBreaker

        # A stopped worker accepts a shard into its pipe but never
        # answers: after task_timeout it is killed and replaced, and the
        # shard is retried. A hang is a worker failure, so it charges
        # the breaker (a single-failure threshold makes that visible).
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        batch = _vectors(22)
        expected = FastNtt(N, Q).forward(batch)
        with ParallelExecutor(
            workers=1, task_timeout=0.4, adaptive=False, breaker=breaker
        ) as executor:
            plan = ParNtt(N, Q, executor=executor)
            assert plan.forward(batch) == expected  # warm the worker
            pid = executor._procs[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                assert plan.forward(batch) == expected
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except OSError:
                    pass  # killed as hung, as it should be
            assert executor.stats["hung"] == 1
            assert executor.stats["restarts"] == 1
            assert executor.stats["retries"] == 1
            assert executor.stats["fallbacks"] == 0
            assert breaker.state == "open"

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_respawns_leak_no_fds_or_segments(self):
        batch = _vectors(25)
        expected = FastNtt(N, Q).forward(batch)
        with ParallelExecutor(workers=2, adaptive=False) as executor:
            plan = ParNtt(N, Q, executor=executor)
            assert plan.forward(batch) == expected  # warm

            def resources():
                return (
                    len(os.listdir("/proc/self/fd")),
                    shm.created_segments(),
                    shm.arena_segments(),
                )

            before = resources()
            for _ in range(10):
                victim = executor._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                assert not victim.is_alive()
                assert plan.forward(batch) == expected
            assert executor.stats["restarts"] == 10
            assert resources() == before

    def test_closed_executor_rejects_work(self):
        executor = ParallelExecutor(workers=1)
        executor.close()
        with pytest.raises(ParallelExecutionError):
            executor.run([{"op": "ntt"}])

    def test_invalid_pool_parameters(self):
        with pytest.raises(ParallelExecutionError):
            ParallelExecutor(workers=-1)
        with pytest.raises(ParallelExecutionError):
            ParallelExecutor(task_timeout=0)
        with pytest.raises(ParallelExecutionError):
            ParallelExecutor(retries=-1)


class TestAdaptiveSizing:
    def test_equal_length_chains_keep_separate_history(self):
        executor = ParallelExecutor(workers=2)
        base = {"op": "chain", "n": N, "q": Q, "rows": [0, 4]}
        forward = dict(base, steps=list(fast_chain.transform_steps("forward", True)))
        inverse = dict(base, steps=list(fast_chain.transform_steps("inverse", True)))
        vector_mul = dict(base, steps=[{
            "kind": "blas", "blas_op": "vector_mul",
            "x": "x", "y": "y", "dst": "out",
        }])
        # Only the cheap vector_mul has history, and it asks for one
        # shard; the one-step NTT programs keep the full split.
        executor._note_compute(vector_mul, 4e-6, None)
        assert executor.suggest_shards(vector_mul, 4) == 1
        assert executor.suggest_shards(forward, 4) == 2
        assert executor.suggest_shards(inverse, 4) == 2
        executor._note_compute(forward, 4e-6, None)
        assert executor.suggest_shards(inverse, 4) == 2
        executor.close()


class TestEmptyBatch:
    def test_empty_batch_short_circuits(self, pool):
        plan = ParNtt(N, Q, executor=pool)
        before = pool.stats["dispatched"]
        empty = np.zeros((0, N, 2), dtype=np.uint64)
        out = plan.forward(empty)
        assert out.shape == (0, N, 2)
        inv = plan.inverse(empty)
        assert inv.shape == (0, N, 2)
        # No staging, no pool round trip: the old path dispatched one
        # degenerate (0, 0) shard per call.
        assert pool.stats["dispatched"] == before
        assert shm.created_segments() == 0


class TestArenaPool:
    def test_segments_reused_across_batches(self, pool):
        plan = ParNtt(N, Q, executor=pool)
        batch = _vectors(15)
        plan.forward(batch)  # warm the size classes for this shape
        before = dict(pool.arena.stats)
        held = shm.arena_segments()
        for _ in range(3):
            plan.forward(batch)
        after = pool.arena.stats
        # Steady state: every lease is served from the free lists — no
        # new /dev/shm segments, no growth in what the arena holds.
        assert after["creates"] == before["creates"]
        assert after["reuses"] >= before["reuses"] + 6
        assert shm.arena_segments() == held
        assert shm.created_segments() == 0

    def test_drain_on_close_releases_everything(self):
        base = shm.arena_segments()  # other live pools' arenas
        executor = ParallelExecutor(workers=1, adaptive=False)
        with executor:
            ParNtt(N, Q, executor=executor).forward(_vectors(16))
            assert shm.arena_segments() > base
        assert shm.arena_segments() == base
        assert executor.stats["arena_drained"] > 0

    def test_lease_rounds_up_to_size_class(self):
        base = shm.arena_segments()
        arena = shm.ArenaPool()
        try:
            seg_small, _ = arena.lease((2, 2))
            arena.release(seg_small)
            # A same-class lease reuses the segment a smaller shape left.
            seg_again, view = arena.lease((4, 2))
            assert seg_again.name == seg_small.name
            assert view.shape == (4, 2)
            arena.release(seg_again)
            assert arena.stats["reuses"] == 1
        finally:
            arena.drain()
        assert shm.arena_segments() == base


class TestSharedMemory:
    def test_no_segments_leak_after_calls(self, pool):
        ParNtt(N, Q, executor=pool).forward(_vectors(14))
        assert shm.created_segments() == 0

    def test_mapped_reuses_own_mapping_and_attaches_foreign(self):
        own, view = shm.create_segment((2, 2))
        try:
            with shm.mapped(own.name) as seg:
                assert seg is own
            view[...] = 7  # the creator's mapping outlives the block
        finally:
            del view
            shm.release_segment(own)
        foreign = shared_memory.SharedMemory(create=True, size=8)
        try:
            foreign.buf[0] = 42
            with shm.mapped(foreign.name) as seg:
                assert seg is not foreign and seg.buf[0] == 42
            assert seg.buf is None  # attached for the block only
        finally:
            foreign.close()
            foreign.unlink()

    def test_release_rejects_foreign_segment(self):
        seg, _view = shm.create_segment((2, 2))
        shm.release_segment(seg)
        with pytest.raises(ParallelExecutionError):
            shm.release_segment(seg)

    def test_cleanup_on_interpreter_exit(self):
        # A child process creates segments and exits without releasing
        # them; its atexit hook must leave nothing to attach to.
        code = (
            "from repro.par import shm\n"
            "seg1, _ = shm.create_segment((4, 2))\n"
            "seg2, _ = shm.create_segment((4, 2))\n"
            "print(seg1.name)\n"
            "print(seg2.name)\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        assert len(names) == 2
        for name in names:
            assert name.startswith(shm.SEGMENT_PREFIX)
            with pytest.raises(FileNotFoundError):
                shm.attach_segment(name)


class TestPinGracefulDegrade:
    """On a platform without affinity syscalls the pool runs unpinned
    and says nothing — pinning is automatic and best-effort."""

    def test_auto_pin_stays_silent(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        pool = ParallelExecutor(workers=1)
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert pool._resolve_pins() == []

    def test_pool_still_works_unpinned(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            with ParallelExecutor(workers=1, adaptive=False) as pool:
                plan = ParNtt(N, Q, executor=pool)
                reference = FastNtt(N, Q, table=plan.plan.table)
                data = _vectors(17)
                assert plan.forward(data) == reference.forward(data)
        assert pool.stats["pinned"] == 0
