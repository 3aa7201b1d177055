"""Tests for fused multi-op shards: repro.fast.chain + ParChain.

Fused chains collapse NTT→pointwise→INTT-shaped pipelines into one pool
dispatch, with intermediates resident on the worker's active arithmetic
substrate (52-bit limb planes under r52 moduli). These tests pin the
bit-exactness contract on both substrates, against an independent
step-by-step reference, under fault injection, and under the faithful
cross-engine audit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.modular import inv_mod
from repro.arith.primes import find_ntt_prime
from repro.errors import NttParameterError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.par import ParallelExecutor, ParChain, ParNegacyclic

N = 16
#: Two-limb prime and three-limb prime (id "r52-3limb"); every op runs
#: on r52 at both widths.
Q_R52 = find_ntt_prime(60, 2 * N)
Q_3LIMB = find_ntt_prime(118, 2 * N)


def _vectors(seed, count=4, n=N, q=Q_R52):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


@pytest.fixture(scope="module")
def pool():
    executor = ParallelExecutor(workers=2, task_timeout=30.0)
    executor.start()
    yield executor
    executor.close()


# ---------------------------------------------------------------------------
# An independent step-by-step reference (public fast-engine API, per step)
# ---------------------------------------------------------------------------


def _reference_chain(steps, inputs, n, q, psi=None):
    """Evaluate a chain one public-API call at a time (no fusion)."""
    ntt = FastNtt(n, q)
    blas = FastBlasPlan(q)
    twist = untwist = None
    if psi is not None:
        twist = [pow(psi, i, q) for i in range(n)]
        untwist = [pow(inv_mod(psi, q), i, q) for i in range(n)]
    rows = len(next(iter(inputs.values())))
    out = []
    for row in range(rows):
        regs = {name: list(vals[row]) for name, vals in inputs.items()}
        for step in steps:
            kind = step["kind"]
            if kind == "ntt":
                method = (
                    ntt.inverse
                    if step["direction"] == "inverse"
                    else ntt.forward
                )
                regs[step["dst"]] = method(
                    regs[step["src"]],
                    natural_order=bool(step.get("natural", False)),
                )
            elif kind == "twist":
                tw = untwist if step["which"] == "untwist" else twist
                regs[step["dst"]] = [
                    v * t % q for v, t in zip(regs[step["src"]], tw)
                ]
            elif kind == "pointwise":
                regs[step["dst"]] = [
                    a * b % q
                    for a, b in zip(regs[step["a"]], regs[step["b"]])
                ]
            else:
                if step["blas_op"] == "axpy":
                    regs[step["dst"]] = blas.axpy(
                        int(step["a"]), regs[step["x"]], regs[step["y"]]
                    )
                else:
                    regs[step["dst"]] = getattr(blas, step["blas_op"])(
                        regs[step["x"]], regs[step["y"]]
                    )
        out.append(regs["out"])
    return out


def _random_chain(rng, q):
    """A random valid chain over input registers x and y."""
    defined = ["x", "y"]
    steps = []
    count = rng.randrange(1, 6)
    for index in range(count):
        dst = "out" if index == count - 1 else f"r{index}"
        kind = rng.choice(("ntt", "pointwise", "blas"))
        if kind == "ntt":
            steps.append({
                "kind": "ntt",
                "direction": rng.choice(("forward", "inverse")),
                "natural": rng.random() < 0.5,
                "src": rng.choice(defined),
                "dst": dst,
            })
        elif kind == "pointwise":
            steps.append({
                "kind": "pointwise",
                "a": rng.choice(defined),
                "b": rng.choice(defined),
                "dst": dst,
            })
        else:
            blas_op = rng.choice(fast_chain.BLAS_OPS)
            step = {
                "kind": "blas",
                "blas_op": blas_op,
                "x": rng.choice(defined),
                "y": rng.choice(defined),
                "dst": dst,
            }
            if blas_op == "axpy":
                step["a"] = rng.randrange(q)
            steps.append(step)
        defined.append(dst)
    return steps


# ---------------------------------------------------------------------------
# Bit-exactness
# ---------------------------------------------------------------------------


class TestFusedBitExactness:
    @pytest.mark.parametrize("q", [Q_R52, Q_3LIMB], ids=["r52", "r52-3limb"])
    def test_multiply_add_matches_compose(self, pool, q):
        f, g, acc = (
            _vectors(s, q=q) for s in (1, 2, 3)
        )
        par = ParNegacyclic(N, q, executor=pool)
        fast = FastNegacyclic(N, q, psi=par.psi)
        blas = FastBlasPlan(q)
        want = blas.vector_add(fast.multiply(f, g), acc)
        assert par.multiply_add(f, g, acc) == want

    @pytest.mark.parametrize("q", [Q_R52, Q_3LIMB], ids=["r52", "r52-3limb"])
    def test_canonical_chains_match_fast(self, pool, q):
        f, g = _vectors(4, q=q), _vectors(5, q=q)
        neg = FastNegacyclic(N, q)
        chain = ParChain(N, q, psi=neg.psi, executor=pool)
        got = chain.run(list(fast_chain.NEGACYCLIC_MUL_STEPS), x=f, y=g)
        assert got == neg.multiply(f, g)
        cyc = ParChain(N, q, executor=pool)
        got = cyc.run(list(fast_chain.CYCLIC_MUL_STEPS), x=f, y=g)
        assert got == FastNtt(N, q).cyclic_multiply(f, g)

    def test_flat_input_roundtrips(self, pool):
        vec = _vectors(6, count=1)[0]
        chain = ParChain(N, Q_R52, executor=pool)
        steps = [
            {"kind": "ntt", "direction": "forward", "natural": True,
             "src": "x", "dst": "fa"},
            {"kind": "ntt", "direction": "inverse", "natural": True,
             "src": "fa", "dst": "out"},
        ]
        assert chain.run(steps, x=vec) == vec

    @settings(deadline=None, max_examples=12)
    @given(
        bits=st.sampled_from([60, 118]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_chains_match_unfused_reference(self, pool, bits, seed):
        n = 8
        q = find_ntt_prime(bits, 2 * n)
        rng = random.Random(seed)
        steps = _random_chain(rng, q)
        x = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        y = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        chain = ParChain(n, q, executor=pool)
        got = chain.run(steps, x=x, y=y)
        want = _reference_chain(steps, {"x": x, "y": y}, n, q)
        assert got == want


class TestChainInputsReadOnly:
    """Pool workers run chains on their shared-memory inputs in place."""

    CANONICAL = (
        fast_chain.transform_steps("forward", True),
        fast_chain.transform_steps("inverse", False),
        fast_chain.CYCLIC_MUL_STEPS,
        fast_chain.NEGACYCLIC_MUL_STEPS,
        fast_chain.NEGACYCLIC_MUL_ADD_STEPS,
    )

    @pytest.mark.parametrize("bits", [40, 60, 124])
    @pytest.mark.parametrize("chain", range(len(CANONICAL) + 6))
    def test_chains_never_write_their_inputs(self, bits, chain):
        q = find_ntt_prime(bits, 2 * N)
        steps = (
            self.CANONICAL[chain]
            if chain < len(self.CANONICAL)
            else _random_chain(random.Random(chain), q)
        )
        neg = FastNegacyclic(N, q)
        regs = {}
        for seed, name in enumerate(fast_chain.chain_input_names(steps)):
            arr = neg.plan.mod.to_limbs(_vectors(seed, q=q))
            arr.flags.writeable = False
            regs[name] = arr
        out = fast_chain.run_chain(
            steps, regs, neg.plan, neg=neg, blas=FastBlasPlan(q)
        )
        assert out.shape == (4, N, 2)


class TestFusedResilience:
    def test_exact_under_fault_injection(self):
        from repro.resil.inject import Fault, FaultPlan

        f, g, acc = (_vectors(s) for s in (7, 8, 9))
        fast = FastNegacyclic(N, Q_R52)
        blas = FastBlasPlan(Q_R52)
        want = blas.vector_add(fast.multiply(f, g), acc)
        with ParallelExecutor(workers=2, task_timeout=10.0) as executor:
            par = ParNegacyclic(N, Q_R52, executor=executor)
            executor.inject(FaultPlan({
                0: Fault("crash"), 1: Fault("corrupt"),
            }))
            assert par.multiply_add(f, g, acc) == want
            executor.inject(None)
            assert executor.stats["retries"] >= 1

    def test_faithful_audit_covers_chains(self):
        f, g, acc = (_vectors(s, count=2) for s in (10, 11, 12))
        fast = FastNegacyclic(N, Q_R52)
        blas = FastBlasPlan(Q_R52)
        want = blas.vector_add(fast.multiply(f, g), acc)
        with ParallelExecutor(
            workers=2, task_timeout=10.0, audit_fraction=1.0
        ) as executor:
            par = ParNegacyclic(N, Q_R52, executor=executor)
            assert par.multiply_add(f, g, acc) == want
            assert executor.stats["audited"] >= 1


class TestChainValidation:
    def test_twist_without_psi_rejected(self, pool):
        chain = ParChain(N, Q_R52, executor=pool)
        with pytest.raises(NttParameterError):
            chain.run(
                list(fast_chain.NEGACYCLIC_MUL_STEPS),
                x=_vectors(13), y=_vectors(14),
            )

    def test_missing_input_rejected(self, pool):
        chain = ParChain(N, Q_R52, executor=pool)
        with pytest.raises(NttParameterError):
            chain.run(list(fast_chain.CYCLIC_MUL_STEPS), x=_vectors(15))

    def test_mismatched_shapes_rejected(self, pool):
        chain = ParChain(N, Q_R52, executor=pool)
        with pytest.raises(NttParameterError):
            chain.run(
                list(fast_chain.CYCLIC_MUL_STEPS),
                x=_vectors(16, count=4), y=_vectors(17, count=2),
            )

    def test_unwritten_out_rejected(self, pool):
        chain = ParChain(N, Q_R52, executor=pool)
        steps = [{"kind": "pointwise", "a": "x", "b": "x", "dst": "tmp"}]
        with pytest.raises(NttParameterError):
            chain.run(steps, x=_vectors(18))

    def test_read_before_write_rejected(self):
        steps = [{"kind": "pointwise", "a": "x", "b": "ghost", "dst": "out"}]
        with pytest.raises(NttParameterError):
            fast_chain.validate_steps(steps, ["x"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(NttParameterError):
            fast_chain.validate_steps(
                [{"kind": "warp", "src": "x", "dst": "out"}], ["x"]
            )
