"""The r52 substrate: bit-exactness vs arith.dwmod, mode plumbing, carries.

The 52-bit redundant-limb substrate (:mod:`repro.fast.r52`) must agree
bit for bit with the branch-structured double-word reference
(:mod:`repro.arith.dwmod`) at *every* supported width — in particular at
the limb-count boundaries (50/51, 102/103) where the representation
switches between one, two and three planes, and at the top of the range
(124 bits) where the Barrett intermediates use all the headroom the
limb-count rule guarantees.
"""

import random

import pytest

pytest.importorskip("numpy")
import numpy as np

from repro.arith.doubleword import dw_from_int, dw_value
from repro.arith.dwmod import addmod128, mulmod128, submod128
from repro.arith.primes import find_ntt_prime
from repro.errors import ArithmeticDomainError
from repro.fast.limbs import limbs_from_ints, limbs_to_ints, r52_join, r52_split
from repro.fast.modular import FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.fast.r52 import (
    MAX_DEFERRED_ADDS,
    R52_AUTO_MAX_BETA,
    STAGE_DEFERRED_ADDS,
    R52Modulus,
    R52Ntt,
    get_r52_modulus,
    limb_count,
    resolve_substrate,
)

#: Transform order every drawn prime supports (n <= 32 negacyclic).
ORDER = 64

#: The widths where the representation changes shape: the one/two-limb
#: boundary (50/51), the two/three-limb boundary (102/103/104/105) and
#: the top of the supported range.
BOUNDARY_WIDTHS = (51, 52, 53, 102, 103, 104, 105, 123, 124)


def _dwmod_reference(op, q, xs, ys):
    m = dw_from_int(q)
    return [dw_value(op(dw_from_int(x), dw_from_int(y), m)) for x, y in zip(xs, ys)]


def _boundary_operands(q, rng, count):
    """Reduced operands biased toward the carry-hazardous edges."""
    edges = sorted(
        {
            v % q
            for v in (
                0, 1, 2, q - 1, q - 2,
                (1 << 52) - 1, 1 << 52, (1 << 52) + 1,
                (1 << 104) - 1, 1 << 104,
                (1 << 64) - 1, 1 << 64,
            )
        }
    )
    out = list(edges[:count])
    while len(out) < count:
        out.append(rng.randrange(q))
    return out


class TestBitExactVersusDwmod:
    @pytest.mark.parametrize("bits", BOUNDARY_WIDTHS)
    def test_boundary_widths(self, bits):
        q = find_ntt_prime(bits, ORDER)
        rng = random.Random(bits)
        r = R52Modulus(q)
        xs = _boundary_operands(q, rng, 64)
        ys = list(reversed(_boundary_operands(q, rng, 64)))
        xa, ya = r.from_ints(xs), r.from_ints(ys)
        assert r.to_ints(r.mulmod(xa, ya)) == _dwmod_reference(mulmod128, q, xs, ys)
        assert r.to_ints(r.addmod(xa, ya)) == _dwmod_reference(addmod128, q, xs, ys)
        assert r.to_ints(r.submod(xa, ya)) == _dwmod_reference(submod128, q, xs, ys)

    @pytest.mark.parametrize("bits", BOUNDARY_WIDTHS)
    def test_limb_count_rule(self, bits):
        q = find_ntt_prime(bits, ORDER)
        r = R52Modulus(q)
        beta = q.bit_length()
        assert r.limbs == limb_count(beta)
        # The two spare bits: the lazy range and every Barrett
        # intermediate fit the radix.
        assert 4 * q < 1 << (52 * r.limbs)
        assert r.mu < 1 << (52 * r.limbs)

    def test_shoup_matches_plain(self):
        rng = random.Random(17)
        for bits in (51, 100, 104, 124):
            q = find_ntt_prime(bits, ORDER)
            r = R52Modulus(q)
            xs = _boundary_operands(q, rng, 32)
            xa = r.from_ints(xs)
            for w in (0, 1, q - 1, rng.randrange(q)):
                pair = r.shoup(w)
                assert r.to_ints(r.mulmod_shoup(xa, pair)) == [
                    w * x % q for x in xs
                ]

    def test_shoup_lazy_accepts_lazy_range_and_stays_below_2q(self):
        rng = random.Random(23)
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        lazy_vals = [rng.randrange(4 * q) for _ in range(64)] + [0, 4 * q - 1]
        planes = r.from_dw(limbs_from_ints(lazy_vals))
        w = rng.randrange(q)
        out = r.to_ints(r.mulmod_shoup_lazy(planes, r.shoup(w)))
        for val, got in zip(lazy_vals, out):
            assert got < 2 * q
            assert got % q == w * val % q

    def test_shoup_rejects_unreduced_multiplicand(self):
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        with pytest.raises(ArithmeticDomainError):
            r.shoup(q)


class TestSplitJoinRoundtrip:
    @pytest.mark.parametrize("limbs", (1, 2, 3))
    def test_roundtrip(self, limbs):
        rng = random.Random(limbs)
        # The dw side is 128-bit, so three limbs only ever see values
        # below 2^128 (plane 2 carries bits 104..128).
        top = min(1 << (52 * limbs), 1 << 128)
        values = [rng.randrange(top) for _ in range(37)] + [0, top - 1]
        arr = limbs_from_ints(values)
        planes = r52_split(arr, limbs)
        assert len(planes) == limbs
        for p in planes:
            assert p.dtype == np.uint64
            assert int(p.max(initial=0)) < 1 << 52
        assert limbs_to_ints(r52_join(planes)) == values


def _faithful_plans(n, q):
    """The faithful engine's transforms on the scalar backend, whose
    double-word arithmetic is the reference for the r52 transforms."""
    from repro.kernels import get_backend
    from repro.ntt.negacyclic import NegacyclicNtt
    from repro.ntt.simd import SimdNtt

    backend = get_backend("scalar")
    return SimdNtt(n, q, backend), NegacyclicNtt(n, q, backend)


class TestNttModes:
    @pytest.mark.parametrize("bits", (60, 100, 104, 124))
    def test_r52_and_dw_transforms_agree(self, bits):
        n = 32
        q = find_ntt_prime(bits, 2 * n)
        rng = random.Random(bits)
        f = [rng.randrange(q) for _ in range(n)]
        g = [rng.randrange(q) for _ in range(n)]
        dw, dw_neg = _faithful_plans(n, q)
        r52 = FastNtt(n, q, table=dw.table)
        # 51-62-bit moduli route to the GEMM kernel, wider ones to r52.
        assert r52.mode == ("gemm" if bits <= 62 else "r52")
        assert r52.forward(f) == dw.forward(f)
        assert r52.inverse(r52.forward(f)) == f
        spectra = zip(dw.forward(f), dw.forward(g))
        assert r52.cyclic_multiply(f, g) == dw.inverse(
            [a * b % q for a, b in spectra]
        )
        assert FastNegacyclic(n, q, psi=dw_neg.psi).multiply(
            f, g
        ) == dw_neg.multiply(f, g)

    def test_batched_rows(self):
        n, batch = 16, 5
        q = find_ntt_prime(100, 2 * n)
        rng = random.Random(5)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(batch)]
        dw, _ = _faithful_plans(n, q)
        r52 = FastNtt(n, q, table=dw.table)
        assert r52.forward(rows) == [dw.forward(row) for row in rows]
        assert r52.inverse(r52.forward(rows)) == rows


class TestModeResolution:
    def test_auto_threshold(self, monkeypatch):
        # One bound, for general-operand products only.
        assert R52_AUTO_MAX_BETA == 102
        below = find_ntt_prime(R52_AUTO_MAX_BETA, ORDER)
        above = find_ntt_prime(R52_AUTO_MAX_BETA + 2, ORDER)
        assert resolve_substrate("auto", below) == "r52"
        assert resolve_substrate("auto", above) == "dw"
        assert resolve_substrate(None, above) == "dw"
        assert resolve_substrate("r52", above) == "r52"
        assert resolve_substrate("dw", below) == "dw"
        # The retired REPRO_FAST_MODE override changes nothing.
        monkeypatch.setenv("REPRO_FAST_MODE", "dw")
        assert resolve_substrate(None, below) == "r52"
        assert FastNtt(ORDER, below).mode == "r52"
        assert FastNtt(ORDER, above).mode == "r52"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            resolve_substrate("montgomery", 97)
        with pytest.raises(ArithmeticDomainError):
            FastModulus(97, mode="ifma")

    def test_forced_r52_still_exact_above_auto_range(self):
        q = find_ntt_prime(120, ORDER)
        rng = random.Random(9)
        fm = FastModulus(q, mode="r52")
        xs = [rng.randrange(q) for _ in range(16)]
        ys = [rng.randrange(q) for _ in range(16)]
        assert fm.mulmod_ints(xs, ys) == [x * y % q for x, y in zip(xs, ys)]


#: Three-limb widths where transforms and BLAS resolve ``auto`` apart.
THREE_LIMB_WIDTHS = (103, 104, 123, 124)


class TestPerKindAuto:
    """Transforms run on r52 at every width; ``auto`` BLAS is dw above 102."""

    @pytest.mark.parametrize("bits", THREE_LIMB_WIDTHS)
    def test_transforms_pick_r52_blas_keeps_dw(self, bits):
        from repro.fast.blas import FastBlasPlan

        n = 16
        q = find_ntt_prime(bits, 2 * n)
        assert FastNtt(n, q).mode == "r52"
        assert FastNegacyclic(n, q).mode == "r52"
        assert FastBlasPlan(q).mode == "dw"
        assert FastModulus(q).mode == "dw"

    @pytest.mark.parametrize("bits", THREE_LIMB_WIDTHS)
    def test_auto_transforms_match_faithful(self, bits):
        from repro.kernels import get_backend
        from repro.ntt.negacyclic import NegacyclicNtt
        from repro.ntt.simd import SimdNtt

        n = 16
        q = find_ntt_prime(bits, 2 * n)
        backend = get_backend("scalar")
        faithful = SimdNtt(n, q, backend)
        faithful_neg = NegacyclicNtt(n, q, backend)
        fast = FastNtt(n, q, table=faithful.table)
        fast_neg = FastNegacyclic(n, q, psi=faithful_neg.psi)
        assert fast.mode == fast_neg.mode == "r52"
        rng = random.Random(bits)
        rows = [_boundary_operands(q, rng, n) for _ in range(3)]
        other = [list(reversed(row)) for row in rows]
        for natural in (True, False):
            spectra = [faithful.forward(r, natural_order=natural) for r in rows]
            inverses = [faithful.inverse(s, natural_order=natural) for s in spectra]
            assert fast.forward(rows[0], natural_order=natural) == spectra[0]
            assert fast.forward(rows, natural_order=natural) == spectra
            assert fast.inverse(spectra[0], natural_order=natural) == inverses[0]
            assert fast.inverse(spectra, natural_order=natural) == inverses
        assert fast.pointwise_mul(rows, other) == [
            [a * b % q for a, b in zip(f, g)] for f, g in zip(rows, other)
        ]
        products = [faithful_neg.multiply(f, g) for f, g in zip(rows, other)]
        assert fast_neg.multiply(rows[0], other[0]) == products[0]
        assert fast_neg.multiply(rows, other) == products

    def test_pool_ntt_exact_under_faults_at_124_bits(self):
        from repro.par import ParallelExecutor, ParNtt
        from repro.resil.inject import Fault, FaultPlan

        n = 64
        q = find_ntt_prime(124, 2 * n)
        rng = random.Random(124)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(4)]
        faithful, _ = _faithful_plans(n, q)
        want = [faithful.forward(row) for row in rows]
        with ParallelExecutor(workers=2, task_timeout=20.0) as executor:
            plan = ParNtt(n, q, executor=executor)
            assert plan.plan.mode == "r52"
            executor.inject(FaultPlan({0: Fault("crash"), 1: Fault("corrupt")}))
            assert plan.forward(rows) == want
            executor.inject(None)
            assert executor.stats["retries"] >= 1
            assert plan.forward(rows) == want


class TestModulusMemoization:
    def test_same_instance_returned(self):
        FastModulus.clear_cache()
        q = find_ntt_prime(100, ORDER)
        a = FastModulus.get(q)
        b = FastModulus.get(q)
        assert a is b
        # A different mode is a different cache entry.
        c = FastModulus.get(q, "dw")
        assert c is not a
        assert FastModulus.cache_size() == 2

    def test_r52_modulus_memoized_too(self):
        q = find_ntt_prime(90, ORDER)
        assert get_r52_modulus(q) is get_r52_modulus(q)

    def test_plans_share_the_modulus(self):
        from repro.fast.blas import FastBlasPlan

        FastModulus.clear_cache()
        q = find_ntt_prime(100, 2 * ORDER)
        ntt = FastNtt(ORDER, q)
        blas = FastBlasPlan(q)
        assert ntt.mod is blas.mod


class TestDeferredCarryBudget:
    """The redundancy arithmetic behind the lazy NTT's carry schedule."""

    def test_budget_constants(self):
        # A uint64 lane can absorb exactly 2^(64-52) canonical limbs
        # before wrapping...
        assert ((1 << 52) - 1) * MAX_DEFERRED_ADDS < 1 << 64
        assert ((1 << 52) - 1) * (MAX_DEFERRED_ADDS + 1) >= 1 << 64
        # ...and the lazy butterfly stays far inside that budget.
        assert STAGE_DEFERRED_ADDS <= MAX_DEFERRED_ADDS
        assert R52Ntt.CARRY_SCHEDULE["butterfly_deferred_adds"] == (
            STAGE_DEFERRED_ADDS
        )

    def test_max_depth_accumulation_is_exact(self):
        """Summing the budget's worth of max limbs must not wrap."""
        limb = np.uint64((1 << 52) - 1)
        acc = np.zeros(4, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for _ in range(STAGE_DEFERRED_ADDS):
                acc = acc + limb
        assert int(acc[0]) == STAGE_DEFERRED_ADDS * ((1 << 52) - 1)

    def test_normalize_flushes_deferred_adds(self):
        q = find_ntt_prime(100, ORDER)
        r = R52Modulus(q)
        rng = random.Random(31)
        vals = [rng.randrange(q) for _ in range(16)]
        planes = r.from_ints(vals)
        # Deferred limb-wise doubling: redundant planes, exact value.
        with np.errstate(over="ignore"):
            doubled = [p + p for p in planes]
        flushed = r.normalize(doubled)
        for p in flushed[:-1]:
            assert int(p.max()) < 1 << 52
        assert limbs_to_ints(r52_join(flushed)) == [2 * v for v in vals]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def r52_case(draw):
        bits = draw(
            st.one_of(
                st.sampled_from(BOUNDARY_WIDTHS),
                st.integers(min_value=51, max_value=124),
            )
        )
        q = find_ntt_prime(bits, ORDER)
        edges = sorted(
            {
                v % q
                for v in (
                    0, 1, q - 1, q - 2,
                    (1 << 52) - 1, 1 << 52,
                    (1 << 104) - 1, 1 << 104,
                )
            }
        )
        operand = st.one_of(
            st.sampled_from(edges), st.integers(min_value=0, max_value=q - 1)
        )
        return q, [draw(operand) for _ in range(8)]

    @settings(max_examples=50, deadline=None)
    @given(case=r52_case())
    def test_r52_matches_dwmod_under_hypothesis(case):
        q, operands = case
        r = R52Modulus(q)
        xs, ys = operands[:4], operands[4:]
        xa, ya = r.from_ints(xs), r.from_ints(ys)
        assert r.to_ints(r.mulmod(xa, ya)) == _dwmod_reference(
            mulmod128, q, xs, ys
        )
        assert r.to_ints(r.addmod(xa, ya)) == _dwmod_reference(
            addmod128, q, xs, ys
        )
        assert r.to_ints(r.submod(xa, ya)) == _dwmod_reference(
            submod128, q, xs, ys
        )

    @settings(max_examples=15, deadline=None)
    @given(case=r52_case())
    def test_fast_modulus_r52_path_matches_dw_path(case):
        q, operands = case
        xs, ys = operands[:4], operands[4:]
        dw = FastModulus(q, mode="dw")
        r52 = FastModulus(q, mode="r52")
        assert dw.mulmod_ints(xs, ys) == r52.mulmod_ints(xs, ys)

except ImportError:  # pragma: no cover - hypothesis is an extra
    pass
