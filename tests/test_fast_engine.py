"""Cross-validation of the fast (NumPy) engine against the faithful path.

The acceptance bar for ``repro.fast``: bit-exact agreement with the
ISA-simulated backends and the reference arithmetic on moduli of 64,
100, 120 and 124 bits, for the NTT (forward / inverse / negacyclic
polymul), all four BLAS operations, batched and unbatched, including
carry/borrow edge cases at the ``2^64`` limb boundary.
"""

import importlib.util
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import BlasPlan, SimdNtt, get_backend
from repro.arith.dwmod import addmod128, mulmod128, submod128
from repro.arith.doubleword import dw_from_int, dw_value
from repro.arith.primes import find_ntt_prime
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.fast.blas import FastBlasPlan
from repro.fast.limbs import add128, limbs_from_ints, limbs_to_ints, sub128
from repro.fast.modular import BLOCK_ELEMENTS, FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt, fast_negacyclic_polymul
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.reference import naive_intt, naive_ntt
from repro.obs import observing

#: The acceptance-criteria modulus widths; order 256 supports n <= 128
#: negacyclic transforms at every width.
WIDTHS = (64, 100, 120, 124)

#: Extra widths around the r52 one-to-two-limb step (50|51 bits), the
#: two-to-three-limb step (102|103 bits) and the 124-bit ceiling (124 is
#: in WIDTHS): the fused chain's r52 and dw register files.
BOUNDARY_WIDTHS = (51, 52, 53, 102, 103, 104, 123)

#: A one-word modulus (narrow packing path) for the conversion tests.
NARROW_Q = find_ntt_prime(60, 256)


def _load_dw_reference():
    """``benchmarks/bench_fast.py``: home of the double-word ``mulmod``.

    The benchmark keeps the schoolbook Barrett product the fast engine
    no longer runs, as the contender of its r52 duels; its word helpers
    are unit-tested here.
    """
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_fast.py"
    spec = importlib.util.spec_from_file_location("bench_fast", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dw_reference = _load_dw_reference()


def prime_for(bits):
    return find_ntt_prime(bits, 256)


def boundary_values(q):
    """Values near the modulus and the 2^64 limb boundary (reduced)."""
    candidates = [
        0, 1, 2, q - 1, q - 2,
        (1 << 64) - 1, 1 << 64, (1 << 64) + 1,
        (1 << 64) - 2, (2 << 64) - 1,
    ]
    return sorted({c % q for c in candidates})


def random_vector(rng, q, length):
    specials = boundary_values(q)
    return [
        rng.choice(specials) if rng.random() < 0.25 else rng.randrange(q)
        for _ in range(length)
    ]


class TestLimbPrimitives:
    def test_pack_unpack_roundtrip(self):
        values = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, 12345]
        assert limbs_to_ints(limbs_from_ints(values)) == values

    def test_pack_batched(self):
        rows = [[1, 2, 3], [(1 << 100), (1 << 64) - 1, 0]]
        arr = limbs_from_ints(rows)
        assert arr.shape == (2, 3, 2)
        assert limbs_to_ints(arr) == rows

    def test_pack_rejects_negative_and_oversized(self):
        with pytest.raises(ArithmeticDomainError):
            limbs_from_ints([-1])
        with pytest.raises(ArithmeticDomainError):
            limbs_from_ints([1 << 128])

    @staticmethod
    def general_to_limbs(fm, values):
        """The ``to_bytes`` packing path plus the range check."""
        arr = limbs_from_ints(values)
        fm.check_reduced(arr)
        return arr

    @pytest.mark.parametrize(
        "values",
        [
            [1, -1, 2],
            [[1, 2], [3, -4]],
            [[0.0, 1.0], [2.0, 3.0]],
            [1, 2.5],
            [1 << 63, 1],
            [(1 << 64) + 5],
            [NARROW_Q, 0],
            [[0, 1], [(1 << 63) - 1, 2]],
            [[1, 2], [3]],
            [[1, 2, 3], [4, 5]],
            [1, "3"],
            [[0, 1], [np.float64(2.0), 3]],
        ],
        ids=[
            "negative", "negative-batched", "floats", "mixed-float",
            "two-pow-63", "above-2-pow-64", "equal-q", "below-2-pow-63",
            "ragged-short", "ragged-long", "numeric-string", "np-float64",
        ],
    )
    def test_narrow_pack_rejects_like_general_path(self, values):
        fm = FastModulus(NARROW_Q)
        with pytest.raises(ArithmeticDomainError) as general:
            self.general_to_limbs(fm, values)
        with pytest.raises(ArithmeticDomainError) as narrow:
            fm.to_limbs(values)
        assert str(narrow.value) == str(general.value)

    @pytest.mark.parametrize(
        "values",
        [[True, False], [True, 5, False], [[True, 0], [1, False]], True],
        ids=["all-bool", "bool-and-int", "batched", "scalar"],
    )
    def test_narrow_pack_converts_bools_like_general_path(self, values):
        fm = FastModulus(NARROW_Q)
        got = fm.to_limbs(values)
        want = self.general_to_limbs(fm, values)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("bits", [62, 63, 64])
    def test_pack_round_trips_across_the_narrow_gate(self, bits):
        q = find_ntt_prime(bits, 256)
        fm = FastModulus(q)
        rng = random.Random(bits)
        flat = [0, 1, q - 1] + [rng.randrange(q) for _ in range(29)]
        rows = [flat, list(reversed(flat))]
        for values in (flat, rows, q - 1):
            arr = fm.to_limbs(values)
            assert np.array_equal(arr, limbs_from_ints(values))
            assert limbs_to_ints(arr) == values

    @pytest.mark.parametrize(
        "values",
        [5, [1, 2, 3], [[1, 2], [3, 4]], 1 << 100, [1, 1 << 100],
         [[1, 2], [3, 1 << 64]]],
        ids=["narrow-int", "narrow-flat", "narrow-batched", "wide-int",
             "wide-flat", "wide-batched"],
    )
    def test_unpack_returns_builtin_ints(self, values):
        got = limbs_to_ints(limbs_from_ints(values))
        assert got == values
        items = got if isinstance(got, list) else [got]
        rows = items if isinstance(items[0], list) else [items]
        assert all(type(value) is int for row in rows for value in row)

    @pytest.mark.parametrize("bits", [64, 65, 102, 103, 123, 124, 128])
    def test_unpack_round_trips_every_rank(self, bits):
        """Two-word unpacking is exact and container-free at every rank.

        Rows mix one-word values (high word zero) with full-width ones,
        and one row is entirely one-word, so the plane combination must
        hold element by element rather than row by row.
        """
        rng = random.Random(bits)
        top = (1 << bits) - 1
        wide = [0, 1, top, (1 << 128) - 1, (1 << 64) - 1, 1 << 64] + [
            rng.randrange(1 << bits) for _ in range(10)
        ]
        narrow = [rng.randrange(1 << 64) for _ in range(len(wide))]
        rows = [wide, narrow, list(reversed(wide))]

        def check(values):
            got = limbs_to_ints(limbs_from_ints(values))
            assert got == values
            return got

        for value in (0, top, (1 << 128) - 1):
            assert type(check(value)) is int
        for got in (check(wide), check(narrow)):
            assert type(got) is list
            assert all(type(v) is int for v in got)
        got = check(rows)
        assert type(got) is list
        assert all(type(row) is list for row in got)
        assert all(type(v) is int for row in got for v in row)

    @pytest.mark.parametrize(
        "shape", [(0, 2), (0, 0, 2), (3, 0, 2)], ids=["flat", "no-rows", "empty-rows"]
    )
    def test_unpack_empty_arrays(self, shape):
        got = limbs_to_ints(np.zeros(shape, dtype=np.uint64))
        assert got == np.zeros(shape[:-1]).tolist()

    def test_mul_64x64_exhaustive_boundaries(self):
        words = [0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 63), (1 << 64) - 1]
        a = np.array([x for x in words for _ in words], dtype=np.uint64)
        b = np.array(words * len(words), dtype=np.uint64)
        hi, lo = dw_reference.mul_64x64(a, b)
        for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()):
            assert (int(h) << 64) | int(l) == x * y

    def test_add_sub_carry_borrow_chains(self):
        pairs = [
            ((1 << 128) - 1, 1),
            ((1 << 64) - 1, 1),
            ((1 << 128) - 1, (1 << 128) - 1),
            (0, 0),
            (1 << 64, (1 << 64) - 1),
        ]
        a = limbs_from_ints([p[0] for p in pairs])
        b = limbs_from_ints([p[1] for p in pairs])
        total, carry = add128(a, b)
        diff, borrow = sub128(b, a)
        for (x, y), s, c, d, br in zip(
            pairs, limbs_to_ints(total), carry.tolist(),
            limbs_to_ints(diff), borrow.tolist(),
        ):
            assert s == (x + y) % (1 << 128)
            assert c == ((x + y) >> 128 > 0)
            assert d == (y - x) % (1 << 128)
            assert br == (y < x)

    def test_wide_mul_and_mullo(self):
        rng = random.Random(11)
        vals = [rng.randrange(1 << 128) for _ in range(64)] + [
            0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1,
        ]
        a = limbs_from_ints(vals)
        b = limbs_from_ints(list(reversed(vals)))
        words = dw_reference.wide_mul_128(a, b)
        low = dw_reference.mullo128(a, b)
        for x, y, w, l in zip(
            vals, reversed(vals), words.tolist(), limbs_to_ints(low)
        ):
            product = x * y
            got = sum(int(word) << (64 * i) for i, word in enumerate(w))
            assert got == product
            assert l == product % (1 << 128)

    @pytest.mark.parametrize("amount", [0, 1, 63, 64, 65, 123, 127, 128, 191, 255])
    def test_shift_right_256(self, amount):
        rng = random.Random(amount)
        vals = [rng.randrange(1 << 256) for _ in range(16)]
        words = np.array(
            [[(v >> (64 * i)) & ((1 << 64) - 1) for i in range(4)] for v in vals],
            dtype=np.uint64,
        )
        shifted = dw_reference.shift_right_256(words, amount)
        for v, got in zip(vals, limbs_to_ints(shifted)):
            expected = (v >> amount) % (1 << 128)
            assert got == expected


class TestFastModulus:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_matches_dwmod_bit_for_bit(self, bits):
        q = prime_for(bits)
        fm = FastModulus(q)
        rng = random.Random(bits)
        xs = random_vector(rng, q, 256)
        ys = random_vector(rng, q, 256)
        m = dw_from_int(q)
        assert fm.addmod_ints(xs, ys) == [
            dw_value(addmod128(dw_from_int(x), dw_from_int(y), m))
            for x, y in zip(xs, ys)
        ]
        assert fm.submod_ints(xs, ys) == [
            dw_value(submod128(dw_from_int(x), dw_from_int(y), m))
            for x, y in zip(xs, ys)
        ]
        assert fm.mulmod_ints(xs, ys) == [
            dw_value(mulmod128(dw_from_int(x), dw_from_int(y), m))
            for x, y in zip(xs, ys)
        ]

    def test_rejects_unreduced_operands(self):
        q = prime_for(100)
        fm = FastModulus(q)
        with pytest.raises(ArithmeticDomainError):
            fm.addmod_ints([0, q], [1, 1])

    def test_rejects_wide_modulus(self):
        with pytest.raises(ArithmeticDomainError):
            FastModulus(1 << 125)


class TestFastNttCrossValidation:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_forward_inverse_match_scalar_backend(self, bits):
        q = prime_for(bits)
        n = 32
        plan = SimdNtt(n, q, get_backend("scalar"))
        fast = FastNtt(n, q, table=plan.table)
        rng = random.Random(bits * 3)
        data = random_vector(rng, q, n)
        for natural in (True, False):
            spectrum = plan.forward(data, natural_order=natural)
            assert fast.forward(data, natural_order=natural) == spectrum
            assert fast.inverse(spectrum, natural_order=natural) == \
                plan.inverse(spectrum, natural_order=natural)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_matches_reference_ntt(self, bits):
        q = prime_for(bits)
        n = 16
        fast = FastNtt(n, q)
        rng = random.Random(bits * 5)
        data = random_vector(rng, q, n)
        assert fast.forward(data) == naive_ntt(data, q, root=fast.table.root)
        spectrum = fast.forward(data)
        assert fast.inverse(spectrum) == naive_intt(
            spectrum, q, root=fast.table.root
        )

    @pytest.mark.parametrize("bits", WIDTHS + BOUNDARY_WIDTHS)
    def test_negacyclic_polymul_matches_faithful(self, bits):
        """Fused negacyclic and cyclic products against the faithful engine.

        Flat and ``(batch, n)`` operands, as int lists and as limb arrays;
        the faithful plans take the same row batches.
        """
        q = prime_for(bits)
        n = 32
        faithful = NegacyclicNtt(n, q, get_backend("scalar"))
        fast = FastNegacyclic(n, q, psi=faithful.psi)
        rng = random.Random(bits * 7)
        f_rows = [random_vector(rng, q, n) for _ in range(2)]
        g_rows = [random_vector(rng, q, n) for _ in range(2)]

        def independent_cyclic(f, g):
            fa = faithful.plan.forward(f, natural_order=False)
            ga = faithful.plan.forward(g, natural_order=False)
            prod = [a * b % q for a, b in zip(fa, ga)]
            return faithful.plan.inverse(prod, natural_order=False)

        cases = (
            (fast.multiply, faithful.multiply),
            (fast.plan.cyclic_multiply, faithful.plan.cyclic_multiply),
        )
        for fused, reference in cases:
            want = [reference(f, g) for f, g in zip(f_rows, g_rows)]
            assert reference(f_rows, g_rows) == want
            assert fused(f_rows[0], g_rows[0]) == want[0]
            assert fused(f_rows, g_rows) == want
            got = fused(limbs_from_ints(f_rows[0]), limbs_from_ints(g_rows[0]))
            assert limbs_to_ints(got) == want[0]
            got = fused(limbs_from_ints(f_rows), limbs_from_ints(g_rows))
            assert limbs_to_ints(got) == want
        assert faithful.plan.cyclic_multiply(f_rows[0], g_rows[0]) == (
            independent_cyclic(f_rows[0], g_rows[0])
        )

    def test_batched_equals_unbatched(self):
        q = prime_for(120)
        n = 64
        fast = FastNtt(n, q)
        rng = random.Random(99)
        batch = [random_vector(rng, q, n) for _ in range(4)]
        assert fast.forward(batch) == [fast.forward(row) for row in batch]
        spectra = fast.forward(batch, natural_order=False)
        assert fast.inverse(spectra, natural_order=False) == batch
        neg = FastNegacyclic(n, q)
        other = [random_vector(rng, q, n) for _ in range(4)]
        assert neg.multiply(batch, other) == [
            neg.multiply(f, g) for f, g in zip(batch, other)
        ]

    def test_one_shot_polymul(self):
        q = prime_for(100)
        rng = random.Random(5)
        f = random_vector(rng, q, 16)
        g = random_vector(rng, q, 16)
        faithful = NegacyclicNtt(16, q, get_backend("scalar"))
        fast_plan = FastNegacyclic(16, q, psi=faithful.psi)
        assert fast_plan.multiply(f, g) == faithful.multiply(f, g)
        # The free-function form picks its own psi; verify it against a
        # faithful plan built with the same psi.
        got = fast_negacyclic_polymul(f, g, q)
        same_psi = NegacyclicNtt(16, q, get_backend("scalar"))
        assert got == same_psi.multiply(f, g)

    def test_rejects_unreduced_and_wrong_length(self):
        q = prime_for(100)
        fast = FastNtt(16, q)
        with pytest.raises(ArithmeticDomainError):
            fast.forward([q] + [0] * 15)
        with pytest.raises(NttParameterError):
            fast.forward([0] * 15)


class TestFastBlasCrossValidation:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_all_four_ops_match_scalar_backend(self, bits):
        q = prime_for(bits)
        faithful = BlasPlan(q, get_backend("scalar"))
        fast = FastBlasPlan(q)
        rng = random.Random(bits * 11)
        x = random_vector(rng, q, 64)
        y = random_vector(rng, q, 64)
        a = rng.randrange(q)
        assert fast.vector_add(x, y) == faithful.vector_add(x, y)
        assert fast.vector_sub(x, y) == faithful.vector_sub(x, y)
        assert fast.vector_mul(x, y) == faithful.vector_mul(x, y)
        assert fast.axpy(a, x, y) == faithful.axpy(a, x, y)

    def test_batched_equals_unbatched(self):
        q = prime_for(124)
        fast = FastBlasPlan(q)
        rng = random.Random(13)
        xs = [random_vector(rng, q, 32) for _ in range(3)]
        ys = [random_vector(rng, q, 32) for _ in range(3)]
        a = rng.randrange(q)
        for op in ("vector_add", "vector_sub", "vector_mul"):
            assert getattr(fast, op)(xs, ys) == [
                getattr(fast, op)(x, y) for x, y in zip(xs, ys)
            ]
        assert fast.axpy(a, xs, ys) == [
            fast.axpy(a, x, y) for x, y in zip(xs, ys)
        ]

    def test_length_mismatch_rejected(self):
        q = prime_for(100)
        fast = FastBlasPlan(q)
        with pytest.raises(ArithmeticDomainError):
            fast.vector_add([1, 2], [1, 2, 3])


#: Element counts around the block edges of general-operand products.
BLOCK_COUNTS = (
    1, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1,
    3 * BLOCK_ELEMENTS + 5,
)


def _ints(arr):
    """A limb array as nested Python ints (object-array arithmetic input)."""
    return np.array(limbs_to_ints(arr), dtype=object)


class TestBlockedProducts:
    """General-operand products run in blocks; every block edge is exact."""

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("bits", (60, 103, 124))
    def test_blas_products_exact_across_block_edges(self, bits, count):
        q = prime_for(bits)
        fast = FastBlasPlan(q)
        rng = random.Random(bits * count)
        a = rng.randrange(q)
        # Flat, then batched: three rows of ``count``, or for one element
        # a column of single-element rows, so that blocks span rows.
        batched = (3, count) if count > 1 else (3 * BLOCK_ELEMENTS + 5, 1)
        for shape in ((count,), batched):
            size = int(np.prod(shape))
            x, y = (
                limbs_from_ints(random_vector(rng, q, size)).reshape(shape + (2,))
                for _ in range(2)
            )
            xi, yi = _ints(x), _ints(y)
            assert limbs_to_ints(fast.vector_mul(x, y)) == (xi * yi % q).tolist()
            assert limbs_to_ints(fast.axpy(a, x, y)) == ((a * xi + yi) % q).tolist()

    @pytest.mark.parametrize("bits", (60, 103, 124))
    def test_broadcast_shapes_exact_across_blocks(self, bits):
        n = 2 * BLOCK_ELEMENTS
        q = find_ntt_prime(bits, 2 * n)
        rng = random.Random(bits)
        row = limbs_from_ints(random_vector(rng, q, n))
        batch = limbs_from_ints([random_vector(rng, q, n) for _ in range(3)])
        scalar = limbs_from_ints(rng.randrange(q))
        ri, bi, si = _ints(row), _ints(batch), limbs_to_ints(scalar)
        want = (ri * bi % q).tolist()
        mod = FastModulus.get(q)
        assert limbs_to_ints(mod.mulmod(row, batch)) == want
        assert limbs_to_ints(mod.mulmod(batch, row)) == want
        assert limbs_to_ints(mod.mulmod(batch, scalar)) == (bi * si % q).tolist()
        assert limbs_to_ints(mod.mulmod(scalar, scalar)) == si * si % q
        ntt = FastNtt(n, q)
        assert limbs_to_ints(ntt.pointwise_mul(row, batch[0])) == want[0]
        assert limbs_to_ints(ntt.pointwise_mul(row, batch)) == want
        assert limbs_to_ints(ntt.pointwise_mul(batch, batch)) == (bi * bi % q).tolist()

    @pytest.mark.parametrize("op", ("vector_mul", "axpy"))
    def test_wide_shard_peak_memory(self, op):
        """One 16 x 4096 shard at 124 bits peaks below 8 MB (the dw path: 16.3 MB)."""
        q = prime_for(124)
        fast = FastBlasPlan(q)
        rng = random.Random(16)
        x, y = (
            limbs_from_ints([random_vector(rng, q, 4096) for _ in range(16)])
            for _ in range(2)
        )
        args = (x, y) if op == "vector_mul" else (rng.randrange(q), x, y)
        getattr(fast, op)(*args)
        tracemalloc.start()
        try:
            getattr(fast, op)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestEngineSwitch:
    def test_simd_ntt_engines_agree(self):
        q = prime_for(120)
        n = 32
        backend = get_backend("avx512")
        faithful = SimdNtt(n, q, backend)
        fast = SimdNtt(n, q, backend, engine="fast")
        rng = random.Random(17)
        data = random_vector(rng, q, n)
        spectrum = faithful.forward(data)
        assert fast.forward(data) == spectrum
        assert fast.inverse(spectrum) == data
        # Faithful plans take the fast twins' (batch, n) row lists.
        rows = [random_vector(rng, q, n) for _ in range(3)]
        for natural in (True, False):
            spectra = faithful.forward(rows, natural_order=natural)
            assert spectra == fast.forward(rows, natural_order=natural)
            assert spectra == [
                faithful.forward(row, natural_order=natural) for row in rows
            ]
            assert faithful.inverse(spectra, natural_order=natural) == rows
            assert fast.inverse(spectra, natural_order=natural) == rows
        neg_faithful = NegacyclicNtt(n, q, backend)
        neg_fast = NegacyclicNtt(n, q, backend, engine="fast")
        twisted = neg_faithful.forward(rows)
        assert twisted == neg_fast.forward(rows)
        assert twisted == [neg_faithful.forward(row) for row in rows]
        assert neg_faithful.inverse(twisted) == rows
        assert neg_faithful.multiply(rows, rows[::-1]) == (
            neg_fast.multiply(rows, rows[::-1])
        )

    def test_blas_plan_engines_agree(self):
        q = prime_for(100)
        backend = get_backend("avx2")
        faithful = BlasPlan(q, backend)
        fast = BlasPlan(q, backend, engine="fast")
        rng = random.Random(19)
        x = random_vector(rng, q, 32)
        y = random_vector(rng, q, 32)
        xs = [random_vector(rng, q, 32) for _ in range(3)]
        ys = [random_vector(rng, q, 32) for _ in range(3)]
        for op in ("vector_add", "vector_sub", "vector_mul"):
            assert getattr(fast, op)(x, y) == getattr(faithful, op)(x, y)
            # Row batches, row for row.
            assert getattr(faithful, op)(xs, ys) == getattr(fast, op)(xs, ys)
            assert getattr(faithful, op)(xs, ys) == [
                getattr(faithful, op)(row_x, row_y)
                for row_x, row_y in zip(xs, ys)
            ]
        a = rng.randrange(q)
        assert fast.axpy(a, x, y) == faithful.axpy(a, x, y)
        assert faithful.axpy(a, xs, ys) == fast.axpy(a, xs, ys)

    def test_fast_blas_keeps_lane_contract(self):
        # Engine swaps must not loosen the API: a vector length that the
        # faithful backend would reject is rejected by the fast path too.
        q = prime_for(100)
        plan = BlasPlan(q, get_backend("avx512"), engine="fast")
        with pytest.raises(ArithmeticDomainError):
            plan.vector_add([1, 2, 3], [4, 5, 6])

    @pytest.mark.parametrize("engine", ["fast", "parallel"])
    @pytest.mark.parametrize(
        "rows, width, ok",
        [(None, 16, True), (3, 16, True), (8, 5, False)],
        ids=["flat16", "batch3x16", "batch8x5"],
    )
    def test_lane_contract_checks_row_length(self, engine, rows, width, ok):
        # The lane rule is about the row length, never the row count: 3
        # rows of 16 fit 8-lane blocks, 8 rows of 5 do not.
        from repro.par import ParallelExecutor

        q = prime_for(100)
        backend = get_backend("avx512")
        rng = random.Random(width)
        shape = [width] * (rows or 1)
        x = [random_vector(rng, q, w) for w in shape]
        y = [random_vector(rng, q, w) for w in shape]
        if rows is None:
            x, y = x[0], y[0]
        if not ok:
            plan = BlasPlan(q, backend, engine=engine)
            with pytest.raises(ArithmeticDomainError, match=(
                f"vector length {width} is not a multiple of the SIMD "
                f"lane count {backend.lanes}"
            )):
                plan.vector_mul(x, y)
            return
        faithful = BlasPlan(q, backend)
        if rows is None:
            want = faithful.vector_mul(x, y)
        else:
            want = [faithful.vector_mul(a, b) for a, b in zip(x, y)]
        with ParallelExecutor(workers=1):
            plan = BlasPlan(q, backend, engine=engine)
            assert plan.vector_mul(x, y) == want

    def test_unknown_engine_rejected(self):
        q = prime_for(100)
        backend = get_backend("scalar")
        with pytest.raises(NttParameterError):
            SimdNtt(16, q, backend, engine="warp")
        with pytest.raises(ArithmeticDomainError):
            BlasPlan(q, backend, engine="warp")

    def test_engine_counters_recorded(self):
        q = prime_for(100)
        backend = get_backend("scalar")
        n = 16
        rng = random.Random(23)
        data = random_vector(rng, q, n)
        with observing() as session:
            SimdNtt(n, q, backend, engine="fast").forward(data)
            SimdNtt(n, q, backend).forward(data)
            metrics = session.metrics.snapshot()
        assert metrics["engine.fast.calls.ntt.forward"]["value"] == 1
        assert metrics["engine.fast.elements.ntt.forward"]["value"] == n
        assert metrics["engine.faithful.calls.ntt.forward"]["value"] == 1
        assert metrics["engine.faithful.elements.ntt.forward"]["value"] == n
        # The kernels inside a fused polymul still count and span.
        neg = FastNegacyclic(n, q)
        with observing() as session:
            neg.multiply([data, data], [data, data])
            metrics = session.metrics.snapshot()
            ops = [r.attrs.get("op") for r in session.spans.records]
        expected = {
            "ntt.polymul": 1, "ntt.twist": 2, "ntt.forward": 2,
            "ntt.pointwise": 1, "ntt.inverse": 1, "ntt.untwist": 1,
        }
        for op, calls in expected.items():
            assert metrics[f"engine.fast.calls.{op}"]["value"] == calls
            assert ops.count(op) == calls
        assert metrics["engine.fast.elements.ntt.forward"]["value"] == 4 * n

    def test_simd_polymul_engines_agree(self):
        from repro.ntt.polymul import simd_ntt_polymul

        q = prime_for(124)
        backend = get_backend("mqx")
        rng = random.Random(29)
        f = random_vector(rng, q, 24)
        g = random_vector(rng, q, 24)
        assert simd_ntt_polymul(f, g, q, backend, engine="fast") == (
            simd_ntt_polymul(f, g, q, backend)
        )
