"""Unit tests for the instruction tracer."""

import random

import pytest

from repro.arith.primes import find_ntt_prime
from repro.isa import scalar as s
from repro.isa.trace import (
    TraceEntry,
    Tracer,
    current_tracer,
    emit,
    op_bytes,
    tracing,
)
from repro.kernels import get_backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.polymul import simd_ntt_polymul
from repro.ntt.simd import SimdNtt
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomialRing


class TestTracerBasics:
    def test_no_active_tracer_is_noop(self):
        assert current_tracer() is None
        emit("add64")  # must not raise

    def test_tracing_collects_entries(self):
        with tracing() as t:
            emit("add64", [], [])
            emit("mul64", [], [])
        assert len(t) == 2
        assert [e.op for e in t] == ["add64", "mul64"]

    def test_nested_tracers_innermost_records(self):
        with tracing() as outer:
            with tracing() as inner:
                emit("add64")
            emit("sub64")
        assert [e.op for e in inner] == ["add64"]
        assert [e.op for e in outer] == ["sub64"]

    def test_tracer_popped_on_exception(self):
        try:
            with tracing():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_tracer() is None

    def test_emit_resolves_vids(self):
        with tracing() as t:
            a, _ = s.add64(1, 2)
            b, _ = s.add64(a, 3)
        assert t.entries[1].srcs[0] == a.vid
        assert b.vid in t.entries[1].dests


class TestTracerQueries:
    def test_op_counts(self):
        with tracing() as t:
            s.add64(1, 2)
            s.add64(3, 4)
            s.mul64(5, 6)
        counts = t.op_counts()
        assert counts["add64"] == 2
        assert counts["mul64"] == 1
        assert t.count("add64") == 2
        assert t.count("missing") == 0

    def test_memory_ops(self):
        with tracing() as t:
            s.load64(1)
            s.load64(2)
            s.store64(3)
        assert t.memory_ops() == (2, 1)

    def test_extend(self):
        a = Tracer()
        a.emit("add64")
        b = Tracer()
        b.emit("sub64")
        a.extend(b)
        assert [e.op for e in a] == ["add64", "sub64"]

    def test_repr_includes_count(self):
        t = Tracer("kernel")
        t.emit("add64")
        assert "1 instructions" in repr(t)

    def test_entry_is_frozen(self):
        entry = TraceEntry("add64")
        try:
            entry.op = "sub64"
            raised = False
        except Exception:
            raised = True
        assert raised


class TestOpBytes:
    def test_register_class_widths(self):
        assert op_bytes("vmovdqu64_load_zmm") == 64
        assert op_bytes("vmovdqu_load_ymm") == 32
        assert op_bytes("load64") == 8


class TestTracerSummary:
    def test_counts_and_bytes(self):
        t = Tracer("block")
        t.emit("vmovdqu64_load_zmm", tag="load")
        t.emit("vmovdqu64_load_zmm", tag="load")
        t.emit("vpaddq_zmm")
        t.emit("vmovdqu64_store_zmm", tag="store")
        t.emit("load64", tag="load")
        summary = t.summary()
        assert summary["label"] == "block"
        assert summary["entries"] == 5
        assert summary["op_counts"]["vmovdqu64_load_zmm"] == 2
        assert summary["loads"] == 3
        assert summary["stores"] == 1
        assert summary["load_bytes"] == 64 + 64 + 8
        assert summary["store_bytes"] == 64

    def test_empty_tracer(self):
        summary = Tracer().summary()
        assert summary["entries"] == 0
        assert summary["op_counts"] == {}
        assert summary["load_bytes"] == 0

    def test_matches_query_helpers(self):
        with tracing() as t:
            s.load64(1)
            s.add64(2, 3)
            s.store64(4)
        summary = t.summary()
        assert summary["op_counts"] == dict(t.op_counts())
        assert (summary["loads"], summary["stores"]) == t.memory_ops()


# ---------------------------------------------------------------------------
# Pinned faithful instruction streams
# ---------------------------------------------------------------------------

_PIN_Q = find_ntt_prime(60, 1 << 10)
_PIN_N = 64


def _pin_vectors(q=_PIN_Q, n=_PIN_N):
    rng = random.Random(0)
    return [rng.randrange(q) for _ in range(n)], [rng.randrange(q) for _ in range(n)]


def _rns_cyclic_mul(backend):
    ring = RnsPolynomialRing(
        _PIN_N, RnsBasis.generate(2, 30, 1 << 10), backend, negacyclic=False
    )
    f, g = _pin_vectors(ring.basis.modulus)
    ring.mul(ring.encode(f), ring.encode(g))


#: call -> traced region; each runs at q = find_ntt_prime(60, 2^10), n = 64.
_PINNED_CALLS = {
    "negacyclic-multiply": lambda b: NegacyclicNtt(_PIN_N, _PIN_Q, b).multiply(
        *_pin_vectors()
    ),
    "negacyclic-forward": lambda b: NegacyclicNtt(_PIN_N, _PIN_Q, b).forward(
        _pin_vectors()[0]
    ),
    "simd-inverse-bitrev": lambda b: SimdNtt(_PIN_N, _PIN_Q, b).inverse(
        _pin_vectors()[0], natural_order=False
    ),
    "simd-polymul-32x32": lambda b: simd_ntt_polymul(
        *(v[:32] for v in _pin_vectors()), _PIN_Q, b
    ),
    "rns-cyclic-mul": _rns_cyclic_mul,
}

#: (call, backend) -> trace entries, fixed so that a refactor of the
#: faithful engine cannot silently change the instruction stream the
#: performance model consumes.
_PINNED_ENTRIES = {
    ("negacyclic-multiply", "avx512"): 28184,
    ("negacyclic-multiply", "mqx"): 7656,
    ("negacyclic-forward", "avx512"): 8184,
    ("negacyclic-forward", "mqx"): 2264,
    ("simd-inverse-bitrev", "avx512"): 8168,
    ("simd-inverse-bitrev", "mqx"): 2248,
    ("simd-polymul-32x32", "avx512"): 22712,
    ("simd-polymul-32x32", "mqx"): 6336,
    ("rns-cyclic-mul", "avx512"): 45424,
    ("rns-cyclic-mul", "mqx"): 12672,
}


class TestPinnedFaithfulTraces:
    @pytest.mark.parametrize("call, backend", sorted(_PINNED_ENTRIES))
    def test_entry_count_is_pinned(self, call, backend):
        with tracing() as t:
            _PINNED_CALLS[call](get_backend(backend))
        assert t.summary()["entries"] == _PINNED_ENTRIES[(call, backend)]

    def test_negacyclic_multiply_memory_ops(self):
        with tracing() as t:
            _PINNED_CALLS["negacyclic-multiply"](get_backend("avx512"))
        summary = t.summary()
        assert (summary["loads"], summary["stores"]) == (576, 368)
