"""The limb-split float64 GEMM NTT (``repro.fast.gemm``).

Pins the routing rule, the float-quotient bound (enumerated at a
scaled-down float precision), bit-exactness of every chain path against
the faithful engine and the r52 stage loop at 51, 52, 60, 61 and 62
bits, the table budget and laziness, and the BLAS thread pin.
"""

import math
import multiprocessing
import os
import random

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, is_prime
from repro.errors import NttParameterError
from repro.fast import gemm
from repro.fast.gemm import (
    GEMM_LIMBS,
    GEMM_SUM_BITS,
    GEMM_TABLE_BUDGET,
    GemmNtt,
    gemm_split,
    table_bytes,
)
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.kernels import get_backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.simd import SimdNtt
from repro.ntt.twiddles import TwiddleTable, bit_reverse, bit_reverse_indices

#: Widths the acceptance bar names: both ends of the routed range, the
#: one-to-two-limb r52 step and the benchmark's 60 bits.
WIDTHS = (51, 52, 60, 61, 62)

#: Every routed size up to 4096 (2048 is a non-square 64 x 32 split).
SIZES = tuple(1 << k for k in range(1, 13))


def _prime(bits, n):
    return find_ntt_prime(bits, 2 * n)


def _operands(q, n, batch, rng):
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(batch)]
    rows[0] = [q - 1] * n
    return rows


def _r52_twin(plan: FastNtt) -> FastNtt:
    """The same plan forced onto the r52 stage loop (the reference)."""
    twin = FastNtt(plan.n, plan.q, table=plan.table)
    twin._gemm = None
    twin.mode = "r52"
    return twin


def _negacyclic_reference(f, g, q):
    """Schoolbook ``f * g mod (x^n + 1, q)`` by Kronecker substitution."""
    n = len(f)
    size = (2 * q.bit_length() + n.bit_length()) // 8 + 1  # bytes per slot

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coeffs), "little")

    raw = (pack(f) * pack(g)).to_bytes(2 * n * size, "little")
    full = [int.from_bytes(raw[i * size:(i + 1) * size], "little") for i in range(2 * n)]
    return [(full[i] - full[i + n]) % q for i in range(n)]


class TestRouting:
    @pytest.mark.parametrize("bits", range(gemm.GEMM_MIN_BETA, 63))
    def test_every_size_to_4096_routes_to_gemm(self, bits):
        for n in SIZES:
            split = gemm_split(n, bits)
            assert split is not None, (n, bits)
            n1, n2, w = split
            assert n1 * n2 == n and w * GEMM_LIMBS >= bits
            assert 2 * w + math.ceil(math.log2(GEMM_LIMBS * max(n1, n2))) <= GEMM_SUM_BITS
            assert table_bytes(n1, n2) <= GEMM_TABLE_BUDGET

    @pytest.mark.parametrize("bits", (15, 63, 100, 124))
    def test_other_widths_route_to_r52(self, bits):
        q = _prime(bits, 64)
        assert gemm_split(64, bits) is None
        assert FastNtt(64, q).mode == "r52"

    def test_sum_bound_breaking_split_routes_to_r52(self):
        # n = 8192 at 62 bits: 2*21 + ceil(log2(3*128)) = 51 > 50.
        n, q = 8192, _prime(62, 8192)
        assert gemm_split(n, 62) is None
        plan = FastNtt(n, q)
        assert plan.mode == "r52" and plan._gemm is None
        with pytest.raises(NttParameterError, match="exceed"):
            GemmNtt(n, q, plan.table.root, (128, 64, 21))

    def test_table_budget_routes_to_r52(self):
        # n = 8192 at 60 bits passes the sum bound but not the budget.
        assert 2 * 20 + math.ceil(math.log2(3 * 128)) <= GEMM_SUM_BITS
        assert table_bytes(128, 64) > GEMM_TABLE_BUDGET
        assert gemm_split(8192, 60) is None


def _fl(x, p):
    """Round float64 values to ``p`` significant bits (nearest, ties even)."""
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.rint(mantissa * (1 << p)), exponent - p)


def _quotient_error(p, q, rbits):
    """``qhat - floor(R*c/q)`` and ``r`` over every ``R < 2^rbits``, ``c < q``."""
    R = np.arange(1 << rbits, dtype=np.int64)[:, None]
    c = np.arange(q, dtype=np.int64)[None, :]
    cf = _fl(_fl(c.astype(np.float64), p) / _fl(float(q), p), p)
    qhat = np.floor(_fl(R.astype(np.float64) * cf, p)).astype(np.int64)
    return qhat - (R * c) // q, R * c - qhat * q


def _prime_below(bits):
    return next(x for x in range((1 << bits) - 1, 2, -2) if is_prime(x))


class TestFloatQuotientBound:
    """``qhat = floor(R * fl(c/q))`` at a ``p``-bit float, ``R < 2^(p-3)``.

    The kernel's case is ``p = 53`` and ``R < 2^50``; moduli wider than
    the mantissa (62 > 53 bits) are mirrored by ``q`` wider than ``p``.
    """

    @pytest.mark.parametrize(
        "p, qbits", [(8, 9), (8, 13), (8, 17), (10, 11), (10, 15)]
    )
    def test_quotient_within_one(self, p, qbits):
        q = _prime_below(qbits)
        error, r = _quotient_error(p, q, p - 3)
        assert np.abs(error).max() <= 1
        assert r.min() >= -q and r.max() < 2 * q

    def test_check_fails_beyond_the_bound(self):
        q = _prime_below(9)
        error, _ = _quotient_error(8, q, 8 + 2)
        assert np.abs(error).max() > 1


def _faithful(n, q):
    backend = get_backend("scalar")
    return SimdNtt(n, q, backend), NegacyclicNtt(n, q, backend)


class TestAgainstFaithful:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_every_path_small_n(self, bits):
        n = 16
        q = _prime(bits, n)
        faithful, faithful_neg = _faithful(n, q)
        plan = FastNtt(n, q, table=faithful.table)
        neg = FastNegacyclic(n, q, psi=faithful_neg.psi)
        assert plan.mode == neg.mode == "gemm"
        rng = random.Random(bits)
        rows = _operands(q, n, 4, rng)
        other = [list(reversed(r)) for r in rows]
        acc = _operands(q, n, 4, rng)[::-1]
        for natural in (True, False):
            spectra = [faithful.forward(r, natural_order=natural) for r in rows]
            assert plan.forward(rows, natural_order=natural) == spectra
            assert plan.forward(rows[1], natural_order=natural) == spectra[1]
            assert plan.inverse(spectra, natural_order=natural) == [
                faithful.inverse(s, natural_order=natural) for s in spectra
            ]
        assert plan.cyclic_multiply(rows, other) == [
            faithful.cyclic_multiply(f, g) for f, g in zip(rows, other)
        ]
        products = [faithful_neg.multiply(f, g) for f, g in zip(rows, other)]
        assert neg.multiply(rows, other) == products
        assert neg.forward(rows) == [faithful_neg.forward(r) for r in rows]
        assert neg.inverse(rows) == [faithful_neg.inverse(r) for r in rows]
        assert neg.multiply_add(rows, other, acc) == [
            [(x + y) % q for x, y in zip(p, a)] for p, a in zip(products, acc)
        ]
        # A transform root other than psi^2 cannot fold the twists: the
        # chain runs them as separate passes, exactly as r52 does.
        other_root = FastNtt(n, q, root=pow(neg.psi, 6, q))
        unfolded = FastNegacyclic(n, q, psi=neg.psi, plan=other_root)
        ref = FastNegacyclic(n, q, psi=neg.psi, plan=_r52_twin(other_root))
        assert unfolded.forward(rows) == ref.forward(rows)
        assert unfolded.inverse(rows) == ref.inverse(rows)
        assert unfolded.multiply(rows, other) == products


class TestAgainstR52:
    """Every routed size against the r52 stage loop (itself pinned to the
    faithful engine in test_fast_r52.py) and the Kronecker reference."""

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_every_routed_size(self, bits):
        rng = random.Random(bits)
        for n in SIZES:
            q = _prime(bits, n)
            neg = FastNegacyclic(n, q)
            plan = neg.plan
            assert plan.mode == "gemm"
            ref = _r52_twin(plan)
            ref_neg = FastNegacyclic(n, q, psi=neg.psi, plan=ref)
            for batch in (1, 4):
                rows = _operands(q, n, batch, rng)
                other = _operands(q, n, batch, rng)[::-1]
                for natural in (True, False):
                    spectra = ref.forward(rows, natural_order=natural)
                    assert plan.forward(rows, natural_order=natural) == spectra
                    assert plan.inverse(spectra, natural_order=natural) == rows
                assert plan.cyclic_multiply(rows, other) == ref.cyclic_multiply(rows, other)
                assert neg.forward(rows) == ref_neg.forward(rows)
                assert neg.inverse(rows) == ref_neg.inverse(rows)
                assert neg.multiply(rows, other) == [
                    _negacyclic_reference(f, g, q) for f, g in zip(rows, other)
                ]

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("n", (2048, 4096))
    def test_batch_of_32(self, bits, n):
        q = _prime(bits, n)
        rng = np.random.default_rng(bits)
        x = rng.integers(0, q, size=(32, n), dtype=np.uint64)
        y = rng.integers(0, q, size=(32, n), dtype=np.uint64)
        x[0] = y[1] = q - 1
        z = rng.integers(0, q, size=(32, n), dtype=np.uint64)
        xa, ya, za = (np.stack([v, np.zeros_like(v)], axis=-1) for v in (x, y, z))
        neg = FastNegacyclic(n, q)
        ref_neg = FastNegacyclic(n, q, psi=neg.psi, plan=_r52_twin(neg.plan))
        assert (neg.plan.forward(xa, natural_order=False)
                == ref_neg.plan.forward(xa, natural_order=False)).all()
        assert (neg.multiply_add(xa, ya, za) == ref_neg.multiply_add(xa, ya, za)).all()

    def test_empty_batch(self):
        n, q = 32, _prime(60, 32)
        neg = FastNegacyclic(n, q)
        empty = np.zeros((0, n, 2), dtype=np.uint64)
        for natural in (True, False):
            assert neg.plan.forward(empty, natural_order=natural).shape == empty.shape
            assert neg.plan.inverse(empty, natural_order=natural).shape == empty.shape
        assert neg.multiply_add(empty, empty, empty).shape == empty.shape

    def test_user_chain_with_unfolded_twists(self):
        from repro.fast.chain import run_chain

        n, q = 64, _prime(60, 64)
        neg = FastNegacyclic(n, q)
        ref_neg = FastNegacyclic(n, q, psi=neg.psi, plan=_r52_twin(neg.plan))
        rng = np.random.default_rng(5)
        x = rng.integers(0, q, size=(3, n), dtype=np.uint64)
        xa = np.stack([x, np.zeros_like(x)], axis=-1)
        steps = (
            # a twist read by a pointwise product and a forward transform,
            # a spectrum read in the other order, an untwist of an input.
            {"kind": "twist", "which": "twist", "src": "x", "dst": "t"},
            {"kind": "ntt", "direction": "forward", "natural": True, "src": "t", "dst": "s"},
            {"kind": "pointwise", "a": "t", "b": "s", "dst": "p"},
            {"kind": "ntt", "direction": "inverse", "natural": False, "src": "p", "dst": "i"},
            {"kind": "twist", "which": "untwist", "src": "i", "dst": "u"},
            {"kind": "blas", "blas_op": "vector_add", "x": "u", "y": "x", "dst": "v"},
            {"kind": "twist", "which": "untwist", "src": "v", "dst": "out"},
        )
        got = run_chain(steps, {"x": xa}, neg.plan, neg=neg, blas=neg.plan._blas)
        want = run_chain(steps, {"x": xa}, ref_neg.plan, neg=ref_neg, blas=neg.plan._blas)
        assert (got == want).all()


class TestMultiplyAdd:
    """In-process ``FastNegacyclic.multiply_add`` against the schoolbook."""

    @pytest.mark.parametrize("bits", (60, 124))
    def test_matches_schoolbook_plus_add(self, bits):
        n = 32
        q = _prime(bits, n)
        rng = random.Random(bits)
        f, g, acc = (_operands(q, n, 3, rng) for _ in range(3))
        plan = FastNegacyclic(n, q)
        assert plan.mode == ("gemm" if bits == 60 else "r52")

        def schoolbook(a, b):
            out = [0] * n
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    k = i + j
                    if k < n:
                        out[k] += ai * bj
                    else:
                        out[k - n] -= ai * bj
            return [v % q for v in out]

        want = [
            [(s + c) % q for s, c in zip(schoolbook(a, b), z)]
            for a, b, z in zip(f, g, acc)
        ]
        assert plan.multiply_add(f, g, acc) == want
        assert plan.multiply_add(f[1], g[1], acc[1]) == want[1]


class TestPool:
    def test_pool_paths_exact_under_faults(self):
        from repro.par import ParallelExecutor, ParNegacyclic, ParNtt
        from repro.resil.inject import Fault, FaultPlan

        n, q = 256, _prime(62, 256)
        rng = random.Random(62)
        rows, other, acc = (_operands(q, n, 4, rng) for _ in range(3))
        neg = FastNegacyclic(n, q)
        ref_neg = FastNegacyclic(n, q, psi=neg.psi, plan=_r52_twin(neg.plan))
        want_fwd = ref_neg.plan.forward(rows)
        want_mul = ref_neg.multiply(rows, other)
        want_mac = ref_neg.multiply_add(rows, other, acc)
        with ParallelExecutor(workers=2, task_timeout=20.0) as executor:
            ntt = ParNtt(n, q, root=neg.plan.table.root, executor=executor)
            pneg = ParNegacyclic(n, q, psi=neg.psi, executor=executor)
            assert ntt.plan.mode == "gemm"
            executor.inject(FaultPlan({0: Fault("crash"), 1: Fault("corrupt")}))
            assert ntt.forward(rows) == want_fwd
            assert pneg.multiply(rows, other) == want_mul
            assert pneg.multiply_add(rows, other, acc) == want_mac
            executor.inject(None)
            assert executor.stats["retries"] >= 1
            assert pneg.multiply_add(rows, other, acc) == want_mac


class TestTables:
    def test_lazy_budgeted_and_no_r52_tables(self):
        n, q = 4096, _prime(60, 4096)
        neg = FastNegacyclic(n, q)
        tables = neg.gemm_tables
        assert "forward" not in tables.__dict__ and "inverse" not in tables.__dict__
        rows = [[1] * n]
        neg.multiply(rows, rows)
        assert tables.nbytes() <= GEMM_TABLE_BUDGET
        assert tables.nbytes() == table_bytes(64, 64)
        # The r52 stage loop and its twist tables were never built.
        assert "_r52" not in neg.plan.__dict__
        assert "r52_twist" not in neg.__dict__

    def test_forward_only_builds_one_direction(self):
        plan = FastNtt(1024, _prime(60, 1024))
        plan.forward([[0] * 1024])
        assert "forward" in plan._gemm.cyclic.__dict__
        assert "inverse" not in plan._gemm.cyclic.__dict__


class TestBlasPin:
    def test_thread_count_restored(self):
        pin = gemm._BLAS or gemm._BlasThreads()
        gemm._BLAS = pin
        if pin._set is None:
            pytest.skip("OpenBLAS thread control not available")
        before = pin._get()
        try:
            pin._set(2)
            with gemm.blas_single_thread():
                assert pin._get() == 1
                with gemm.blas_single_thread():
                    assert pin._get() == 1
                assert pin._get() == 1
            assert pin._get() == 2
            FastNtt(64, _prime(60, 64)).forward([0] * 64)
            assert pin._get() == 2
        finally:
            pin._set(before)


def _threads() -> int:
    with open("/proc/self/status") as fh:
        return int(fh.read().split("Threads:")[1].split()[0])


def _gemm_in_forked_child() -> None:
    before = _threads()
    FastNtt(1024, _prime(60, 1024)).forward(np.zeros((4, 1024, 2), dtype=np.uint64))
    os._exit(0 if _threads() == before else 1)


class TestBlasPinAfterFork:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status")
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork and /proc",
    )
    def test_forked_worker_starts_no_blas_thread(self):
        # OpenBLAS's setter restarts its fork-stopped thread pool, whose
        # new thread spins ~0.1 s on a pool worker's pinned CPU.
        proc = multiprocessing.get_context("fork").Process(target=_gemm_in_forked_child)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0


class TestTwiddleIndexing:
    """The periodic Pease tables and the NumPy bit reversal match the
    per-butterfly formulas they replaced."""

    @pytest.mark.parametrize("n", SIZES)
    def test_pease_stage_twiddles_match_formula(self, n):
        q = _prime(60, n)
        table = TwiddleTable(n, q)
        for inverse in (False, True):
            for s in range(table.stages):
                half = n >> (s + 1)
                mask = (1 << s) - 1
                assert table.pease_stage_twiddles(s, inverse) == [
                    table.power(bit_reverse(i & mask, s) * half, inverse)
                    for i in range(n // 2)
                ]

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_reverse_indices(self, n):
        bits = n.bit_length() - 1
        assert bit_reverse_indices(n).tolist() == [bit_reverse(i, bits) for i in range(n)]


class TestPairedForward:
    """Sibling forward transforms share one ``(2B, n)`` GEMM pass."""

    def test_pairs_of_the_canonical_products(self):
        from repro.fast.chain import CYCLIC_MUL_STEPS, NEGACYCLIC_MUL_STEPS, _forward_pairs

        # The two folded twists (steps 0 and 2) feed forwards 1 and 3.
        assert _forward_pairs(NEGACYCLIC_MUL_STEPS, {0, 2}) == {1: (3, "y")}
        assert _forward_pairs(CYCLIC_MUL_STEPS, set()) == {0: (1, "y")}
        # An unfolded twist of y runs after the forward of x: not ready.
        assert _forward_pairs(NEGACYCLIC_MUL_STEPS, set()) == {}

    def test_tables_must_match(self):
        from repro.fast.chain import _forward_pairs

        steps = (
            {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
            {"kind": "ntt", "direction": "forward", "natural": False, "src": "xt", "dst": "fa"},
            {"kind": "ntt", "direction": "forward", "natural": False, "src": "y", "dst": "ga"},
            {"kind": "pointwise", "a": "fa", "b": "ga", "dst": "out"},
        )
        assert _forward_pairs(steps, {0}) == {}
        assert _forward_pairs(steps, set()) == {1: (2, "y")}

    @pytest.mark.parametrize("batch", (1, 3))
    def test_split_spectra_equal_one_row_forwards(self, batch):
        from repro.fast.chain import run_chain
        from repro.obs import observing

        n, q = 4096, _prime(60, 4096)
        neg = FastNegacyclic(n, q)
        rng = np.random.default_rng(batch)
        x, y = (rng.integers(0, q, size=(batch, n), dtype=np.uint64) for _ in range(2))
        # Both spectra exposed, in opposite orders: a swapped or shifted
        # split changes the difference.
        steps = (
            {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
            {"kind": "ntt", "direction": "forward", "natural": True, "src": "xt", "dst": "fa"},
            {"kind": "twist", "which": "twist", "src": "y", "dst": "yt"},
            {"kind": "ntt", "direction": "forward", "natural": False, "src": "yt", "dst": "ga"},
            {"kind": "blas", "blas_op": "vector_sub", "x": "fa", "y": "ga", "dst": "out"},
        )
        got = run_chain(steps, {"x": x, "y": y}, neg.plan, neg=neg, blas=neg.plan._blas, words=True)
        bitrev = neg.plan._bitrev
        for row in range(batch):
            fa = np.array(neg.forward([x[row].tolist()])[0], dtype=np.uint64)[np.argsort(bitrev)]
            ga = np.array(neg.forward([y[row].tolist()])[0], dtype=np.uint64)
            assert (got[row] == (fa + q - ga) % q).all()
        # One kernel call per chain step, as before; the pair is one pass.
        with observing() as session:
            neg.multiply(x, y, words=True)
        def value(name):
            return session.metrics.counter(name).value

        calls = {
            op: value(f"engine.fast.gemm.calls.{op}")
            for op in ("ntt.twist", "ntt.forward", "ntt.pointwise", "ntt.inverse", "ntt.untwist")
        }
        assert calls == {"ntt.twist": 2, "ntt.forward": 2, "ntt.pointwise": 1,
                         "ntt.inverse": 1, "ntt.untwist": 1}
        assert value("engine.fast.gemm.elements.ntt.forward") == 2 * batch * n
        # Two dgemms per pass; passes run in chunks of GEMM_CHUNK_ELEMENTS.
        step = gemm.GEMM_CHUNK_ELEMENTS // n
        assert value("engine.fast.gemm.dgemms") == 2 * (-(-2 * batch // step) + -(-batch // step))


#: The GEMM range's lower edge and the width below it.
EDGE_WIDTHS = (gemm.GEMM_MIN_BETA, gemm.GEMM_MIN_BETA - 1)


def _forced_gemm(plan: FastNtt) -> FastNtt:
    """``plan`` on the GEMM kernel whatever its width (the router's split shape)."""
    log_n = plan.n.bit_length() - 1
    n1 = 1 << ((log_n + 1) // 2)
    split = (n1, plan.n // n1, -(-plan.q.bit_length() // GEMM_LIMBS))
    plan._gemm = GemmNtt(plan.n, plan.q, plan.table.root, split)
    plan.mode = "gemm"
    return plan


class TestLowerEdge:
    """Bit-exact and within the float-quotient bound at the routing edge
    and one bit below it, so the edge is a speed choice."""

    def test_routing_edge(self):
        low, below = EDGE_WIDTHS
        assert gemm_split(4096, low) is not None
        assert gemm_split(1024, below) is None
        assert FastNtt(1024, _prime(below, 1024)).mode == "r52"

    @pytest.mark.parametrize("bits", EDGE_WIDTHS)
    def test_bit_exact_against_r52(self, bits):
        rng = random.Random(bits)
        for n in (2, 16, 256, 1024):
            q = _prime(bits, n)
            assert q.bit_length() == bits
            neg = FastNegacyclic(n, q)
            if neg.mode != "gemm":
                _forced_gemm(neg.plan)
                neg.mode = "gemm"
            ref = _r52_twin(neg.plan)
            ref_neg = FastNegacyclic(n, q, psi=neg.psi, plan=ref)
            rows = _operands(q, n, 3, rng)
            other = _operands(q, n, 3, rng)[::-1]
            for natural in (True, False):
                assert neg.plan.forward(rows, natural_order=natural) == ref.forward(rows, natural_order=natural)
            assert neg.plan.cyclic_multiply(rows, other) == ref.cyclic_multiply(rows, other)
            assert neg.multiply(rows, other) == ref_neg.multiply(rows, other) == [
                _negacyclic_reference(f, g, q) for f, g in zip(rows, other)
            ]

    @pytest.mark.parametrize("bits", EDGE_WIDTHS)
    def test_float_quotient_reduce_exhaustive_in_c(self, bits):
        """Every constant ``c < q`` against the smallest and the largest
        sums the kernel can form at this width (n = 4096's split)."""
        q = _prime(bits, 1024)
        w = -(-bits // GEMM_LIMBS)
        top = 1 << gemm._sum_bits(w, 64, 64)
        mod = gemm.GemmModulus(q, w)
        sums = np.concatenate([np.arange(256), np.arange(top - 256, top)])
        R = np.repeat(sums.astype(np.float64)[:, None], 4096, axis=1)
        for start in range(0, q, 4096):
            c = np.arange(start, min(start + 4096, q), dtype=np.uint64)[None, :]
            cf = c.astype(np.float64) / float(q)
            rows = R[:, : c.shape[1]]
            got = mod.reduce_terms([(rows, c, cf)])
            assert (got == (rows.astype(np.uint64) * c) % np.uint64(q)).all()

    @pytest.mark.parametrize("bits", EDGE_WIDTHS)
    def test_mulmod_exhaustive_in_a(self, bits):
        q = _prime(bits, 1024)
        mod = gemm.GemmModulus(q, -(-bits // GEMM_LIMBS))
        a = np.arange(q, dtype=np.uint64)
        for b in (0, 1, 2, q // 2, q - 2, q - 1):
            assert (mod.mulmod(a, b) == (a * np.uint64(b)) % np.uint64(q)).all()
