"""Polynomial multiplication via NTT must equal schoolbook (Equation 10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NttParameterError
from repro.kernels import get_backend
from repro.ntt.polymul import ntt_polymul, simd_ntt_polymul
from repro.ntt.reference import schoolbook_polymul
from repro.ntt.simd import SimdNtt

from tests.conftest import ALL_BACKEND_NAMES, BIG_Q, MID_Q, random_residues


class TestPlainPolymul:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_schoolbook(self, data):
        q = MID_Q
        len_f = data.draw(st.integers(min_value=1, max_value=12))
        len_g = data.draw(st.integers(min_value=1, max_value=12))
        f = [data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(len_f)]
        g = [data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(len_g)]
        assert ntt_polymul(f, g, q) == schoolbook_polymul(f, g, q)

    def test_degree_zero(self):
        assert ntt_polymul([3], [4], MID_Q) == [12 % MID_Q]

    def test_rejects_empty(self):
        with pytest.raises(NttParameterError):
            ntt_polymul([], [1], MID_Q)


class TestSimdPolymul:
    @pytest.mark.parametrize("name", ALL_BACKEND_NAMES)
    def test_matches_schoolbook(self, name, rng):
        q = BIG_Q
        backend = get_backend(name)
        f = random_residues(rng, q, 16)
        g = random_residues(rng, q, 16)
        assert simd_ntt_polymul(f, g, q, backend) == schoolbook_polymul(f, g, q)

    @pytest.mark.parametrize("engine", ["faithful", "fast"])
    @pytest.mark.parametrize("name", ["avx2", "avx512"])
    def test_short_products_fill_lane_blocks(self, name, engine, rng):
        # Short products pad to at least 2 * lanes points, so even a
        # one-coefficient output fits the widest backend's blocks.
        q = BIG_Q
        backend = get_backend(name)
        for out_len in range(1, 16):
            len_f = (out_len + 1) // 2
            f = random_residues(rng, q, len_f)
            g = random_residues(rng, q, out_len + 1 - len_f)
            got = simd_ntt_polymul(f, g, q, backend, engine=engine)
            assert got == schoolbook_polymul(f, g, q)

    def test_reusable_plan(self, rng):
        q = BIG_Q
        backend = get_backend("mqx")
        plan = SimdNtt(32, q, backend)
        f = random_residues(rng, q, 16)
        g = random_residues(rng, q, 16)
        out = simd_ntt_polymul(f, g, q, backend, plan=plan)
        assert out == schoolbook_polymul(f, g, q)

    def test_rejects_mismatched_plan(self, rng):
        q = BIG_Q
        backend = get_backend("mqx")
        plan = SimdNtt(64, q, backend)
        with pytest.raises(NttParameterError):
            simd_ntt_polymul([1] * 16, [1] * 16, q, backend, plan=plan)

    def test_karatsuba_backend_agrees(self, rng):
        q = BIG_Q
        backend = get_backend("avx512")
        f = random_residues(rng, q, 16)
        g = random_residues(rng, q, 16)
        assert simd_ntt_polymul(f, g, q, backend, algorithm="karatsuba") == (
            schoolbook_polymul(f, g, q)
        )

    @pytest.mark.parametrize("q", [MID_Q, BIG_Q], ids=["q60", "q124"])
    @pytest.mark.parametrize("lengths", [(13, 29), (32, 1), (5, 60)])
    def test_fast_engine_is_one_fused_product(self, q, lengths, rng, monkeypatch):
        import repro.fast.ntt as fast_ntt

        backend = get_backend("mqx")
        f = random_residues(rng, q, lengths[0])
        g = random_residues(rng, q, lengths[1])
        want = schoolbook_polymul(f, g, q)
        assert ntt_polymul(f, g, q) == want
        unpacks = []
        unpack = fast_ntt.limbs_to_ints
        monkeypatch.setattr(
            fast_ntt, "limbs_to_ints", lambda a: unpacks.append(a) or unpack(a)
        )
        assert simd_ntt_polymul(f, g, q, backend, engine="fast") == want
        # One cyclic chain: the product leaves the fast engine once.
        assert len(unpacks) == 1
