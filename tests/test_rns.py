"""Tests for the RNS polynomial substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.primes import find_ntt_prime
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.kernels import get_backend
from repro.ntt.reference import negacyclic_schoolbook_polymul
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

N = 16
ORDER = 2 * N


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(3, 62, ORDER)


@pytest.fixture(scope="module")
def ring(basis):
    return RnsPolynomialRing(N, basis, get_backend("mqx"))


def _cyclic_ref(f, g, modulus, n):
    out = [0] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[(i + j) % n] = (out[(i + j) % n] + a * b) % modulus
    return out


class TestBasis:
    def test_generate_properties(self, basis):
        assert len(basis) == 3
        assert len(set(basis.primes)) == 3
        for q in basis.primes:
            assert q % ORDER == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_crt_roundtrip(self, basis, data):
        x = data.draw(st.integers(min_value=0, max_value=basis.modulus - 1))
        assert basis.from_rns(basis.to_rns(x)) == x

    def test_to_rns_range_checked(self, basis):
        with pytest.raises(ArithmeticDomainError):
            basis.to_rns(basis.modulus)
        with pytest.raises(ArithmeticDomainError):
            basis.to_rns(-1)

    def test_from_rns_validates(self, basis):
        with pytest.raises(ArithmeticDomainError):
            basis.from_rns([0, 0])
        with pytest.raises(ArithmeticDomainError):
            basis.from_rns([basis.primes[0], 0, 0])

    def test_rejects_duplicates_and_composites(self):
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([97, 97])
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([91])
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([])

    def test_generate_validates(self):
        with pytest.raises(ArithmeticDomainError):
            RnsBasis.generate(0, 62, 32)


class TestRingOperations:
    def test_add_sub_roundtrip(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        g = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.sub(ring.add(f, g), g).coefficients() == f.coefficients()

    def test_add_matches_bigint(self, ring, basis, rng):
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.add(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == [(a + b) % big_q for a, b in zip(fc, gc)]

    def test_negacyclic_mul_matches_schoolbook(self, ring, basis, rng):
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.mul(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == negacyclic_schoolbook_polymul(fc, gc, big_q)

    def test_cyclic_ring(self, basis, rng):
        ring = RnsPolynomialRing(N, basis, get_backend("avx512"), negacyclic=False)
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.mul(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == _cyclic_ref(fc, gc, big_q, N)

    def test_one_is_identity(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.mul(f, ring.one()).coefficients() == f.coefficients()

    def test_zero_annihilates(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.mul(f, ring.zero()).coefficients() == [0] * N

    def test_scalar_mul(self, ring, basis, rng):
        big_q = basis.modulus
        a = rng.randrange(big_q)
        fc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.scalar_mul(a, ring.encode(fc))
        assert out.coefficients() == [a * c % big_q for c in fc]

    def test_x_to_n_is_minus_one(self, ring, basis):
        """The negacyclic ring law at the RNS level."""
        big_q = basis.modulus
        half = [0] * N
        half[N // 2] = 1
        x_half = ring.encode(half)
        out = ring.mul(x_half, x_half)
        assert out.coefficients() == [big_q - 1] + [0] * (N - 1)

    def test_ntt_count_per_mul(self, ring):
        assert ring.ntt_count_per_mul == 9  # 3 primes x 3 transforms


class TestValidation:
    def test_wrong_dimension_rejected(self, ring):
        with pytest.raises(ArithmeticDomainError):
            ring.encode([0] * (N - 1))

    def test_unreduced_coefficient_rejected(self, ring, basis):
        with pytest.raises(ArithmeticDomainError):
            ring.encode([basis.modulus] + [0] * (N - 1))

    def test_cross_ring_operands_rejected(self, ring, basis):
        other = RnsPolynomialRing(N, basis, get_backend("scalar"))
        f = other.encode([0] * N)
        with pytest.raises(ArithmeticDomainError):
            ring.add(f, f)

    def test_unsupported_prime_rejected(self):
        basis = RnsBasis.generate(1, 62, 16)
        with pytest.raises(NttParameterError):
            RnsPolynomialRing(16, basis, get_backend("scalar"), negacyclic=True)


class TestBackendsAgree:
    def test_all_backends_same_product(self, basis):
        rng = random.Random(77)
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        results = []
        for name in ("scalar", "avx2", "avx512", "mqx"):
            ring = RnsPolynomialRing(N, basis, get_backend(name))
            out = ring.mul(ring.encode(fc), ring.encode(gc))
            results.append(out.coefficients())
        assert all(r == results[0] for r in results)


#: Packed-ring bases: each mixes GEMM-routed primes (40 and 60 bits)
#: with an r52-routed one (14 bits, below the GEMM range; 70 bits,
#: above it). "narrow" packs one word per residue, "wide" two.
PACKED_BASES = {"narrow": (60, 40, 14), "wide": (60, 14, 70)}


@pytest.fixture(scope="module", params=sorted(PACKED_BASES))
def ring_pair(request):
    primes = [find_ntt_prime(bits, ORDER) for bits in PACKED_BASES[request.param]]
    basis = RnsBasis(primes)
    backend = get_backend("avx512")
    fast = RnsPolynomialRing(N, basis, backend, engine="fast")
    modes = {fast._ntt[q].fast_plan.mode for q in primes}
    assert modes == {"gemm", "r52"}
    assert fast._fast.wide == (request.param == "wide")
    return fast, RnsPolynomialRing(N, basis, backend)


def _rows(ring, rng):
    return [[rng.randrange(q) for _ in range(N)] for q in ring.basis.primes]


class TestFastPackedRing:
    """The fast ring's packed blocks against the faithful ring's lists."""

    def test_ops_and_chains_match_faithful(self, ring_pair):
        fast, faithful = ring_pair
        rng = random.Random(24)
        a, b, c = (_rows(fast, rng) for _ in range(3))
        scalar = rng.randrange(fast.basis.modulus)

        def run(ring):
            f, g, h = (RnsPolynomial(ring, rows) for rows in (a, b, c))
            prod = ring.mul(f, g)  # lists in
            mac = ring.add(prod, h)  # packed and list operands mixed
            diff = ring.sub(h, mac)
            scaled = ring.scalar_mul(scalar, diff)
            chain = ring.mul(scaled, ring.sub(mac, prod))  # packed only
            return [p.residues for p in (prod, mac, diff, scaled, chain)]

        assert run(fast) == run(faithful)

    def test_results_stay_packed_until_read(self, ring_pair):
        fast, _ = ring_pair
        rng = random.Random(25)
        f, g = (RnsPolynomial(fast, _rows(fast, rng)) for _ in range(2))
        out = fast.add(fast.mul(f, g), f)
        assert f._block is not None  # each list operand is packed once
        assert out._residues is None and out._block is not None
        rows = out.residues
        assert out._residues is rows
        assert all(type(v) is int for row in rows for v in row)

    def test_equality(self, ring_pair):
        fast, _ = ring_pair
        rng = random.Random(26)
        rows = _rows(fast, rng)
        f = RnsPolynomial(fast, rows)
        zero = fast.zero()
        same = fast.add(f, zero)
        assert same == RnsPolynomial(fast, rows)  # packed vs lists
        assert same == fast.sub(fast.add(f, f), f)  # packed vs packed
        assert same != fast.add(f, f)
        assert fast.mul(f, fast.one()) == f

    def test_bad_operands_raise_domain_errors(self, ring_pair):
        fast, _ = ring_pair
        rng = random.Random(27)
        good = RnsPolynomial(fast, _rows(fast, rng))
        primes = fast.basis.primes

        def bad(row, value):
            rows = _rows(fast, rng)
            rows[row][3] = value
            return rows

        cases = {
            "unreduced": bad(1, primes[1]),
            "float": bad(0, 1.0),
            "short": [r[:-1] if i == 2 else r for i, r in enumerate(_rows(fast, rng))],
            "missing row": _rows(fast, rng)[:-1],
        }
        other = RnsPolynomialRing(N, fast.basis, get_backend("avx512"), engine="fast")
        ops = (
            lambda p: fast.add(good, p),
            lambda p: fast.sub(p, good),
            lambda p: fast.mul(p, good),
            lambda p: fast.scalar_mul(3, p),
        )
        for name, rows in cases.items():
            for op in ops:
                with pytest.raises(ArithmeticDomainError):
                    op(RnsPolynomial(fast, rows))
        with pytest.raises(ArithmeticDomainError, match=r"x\[1\]\[3\] is not reduced"):
            fast.mul(RnsPolynomial(fast, cases["unreduced"]), good)
        for op in ops:
            with pytest.raises(ArithmeticDomainError, match="different ring"):
                op(RnsPolynomial(other, _rows(fast, rng)))
