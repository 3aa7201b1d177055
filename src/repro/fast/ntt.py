"""Full-vector Pease NTT on the fast engine (plus negacyclic polymul).

Where :class:`repro.ntt.simd.SimdNtt` walks each stage one SIMD block at
a time through an ISA simulator, :class:`FastNtt` runs the *same*
constant-geometry dataflow — read ``x[i]`` and ``x[i + n/2]``, butterfly,
write the pair to ``2i``/``2i + 1`` — on entire ``(n,)`` vectors at
once. The kernel is chosen by the modulus width: 16–62-bit moduli run
each transform as two limb-split float64 GEMMs
(:class:`~repro.fast.gemm.GemmNtt`, twiddles, twists and ``1/n`` folded
into its tables); every other width runs the 52-bit redundant-limb
stage loop (:class:`~repro.fast.r52.R52Ntt`: Harvey-lazy stages, one
batched carry flush per stage, a strided scatter for the interleave).
Both derive their constants from the same
:class:`~repro.ntt.twiddles.TwiddleTable` root the faithful path uses,
so the engines agree bit for bit.

The batched API accepts ``(batch, n)`` inputs, transforming every row in
the same NumPy operations — this is how the RNS pipeline's independent
residue channels amortize kernel-launch overhead.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.arith.modular import inv_mod
from repro.arith.primes import root_of_unity
from repro.errors import NttParameterError
from repro.fast.chain import (
    CYCLIC_MUL_STEPS,
    NEGACYCLIC_FORWARD_STEPS,
    NEGACYCLIC_INVERSE_STEPS,
    NEGACYCLIC_MUL_ADD_STEPS,
    NEGACYCLIC_MUL_STEPS,
    run_chain,
    transform_steps,
)
from repro.fast.gemm import GemmNtt, GemmTables, gemm_split
from repro.fast.limbs import IntVector, limbs_to_ints
from repro.fast.modular import FastModulus
from repro.fast.r52 import R52Ntt
from repro.ntt.twiddles import TwiddleTable, bit_reverse_indices
from repro.obs.hooks import count, engine_run_span
from repro.util.checks import check_power_of_two

IntMatrix = Union[List[int], List[List[int]], np.ndarray]


class FastNtt:
    """An ``n``-point NTT over ``Z_q`` computed on whole uint64 vectors.

    Args:
        n: Transform size (power of two, at least 2).
        q: NTT-friendly modulus (``n | q - 1``, at most 124 bits).
        root: Optional explicit primitive ``n``-th root of unity.
        table: Optional pre-built twiddle table to share with a faithful
            plan (guarantees both engines use identical twiddles).

    Transforms and the fused chains built on them run on the GEMM
    kernel where :func:`~repro.fast.gemm.gemm_split` accepts ``(n,
    beta)`` (:attr:`mode` ``"gemm"``: 16–62 bits, n <= 4096) and on the
    r52 substrate otherwise (:attr:`mode` ``"r52"``): a Shoup twiddle
    product stays cheaper than a double-word product at every width
    through 124 bits. Only the chosen kernel's tables are ever built.
    """

    def __init__(
        self,
        n: int,
        q: int,
        root: Optional[int] = None,
        table: Optional[TwiddleTable] = None,
    ) -> None:
        if table is not None:
            if table.n != n or table.q != q:
                raise NttParameterError(
                    f"twiddle table is for ({table.n}, {table.q}), "
                    f"not ({n}, {q})"
                )
            self.table = table
        else:
            self.table = TwiddleTable.get(n, q, root or 0)
        self.mod = FastModulus.get(q)
        split = gemm_split(n, q.bit_length())
        #: The GEMM kernel, or ``None`` where the r52 stage loop serves.
        self._gemm = (
            GemmNtt(n, q, self.table.root, split) if split is not None else None
        )
        self.mode = "gemm" if self._gemm is not None else "r52"
        self._bitrev = bit_reverse_indices(n)

    @cached_property
    def _r52(self) -> R52Ntt:
        """The r52 stage loop (its Shoup tables fill in per stage)."""
        return R52Ntt(self.table, self.mod.r52)

    @cached_property
    def _n_inv_shoup(self) -> tuple:
        """Shoup pair for ``1/n``: the r52 chain runner applies the inverse
        transform's scaling without leaving limb-plane form."""
        return self.mod.r52.shoup(int(self.table.n_inverse))

    @cached_property
    def _blas(self):
        """BLAS plan for the ``blas`` steps of in-process chains."""
        from repro.fast.blas import FastBlasPlan

        return FastBlasPlan(self.q)

    @property
    def n(self) -> int:
        """Transform size."""
        return self.table.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.table.q

    # ------------------------------------------------------------------
    # Public transforms
    # ------------------------------------------------------------------

    def forward(self, values: IntMatrix, natural_order: bool = True) -> IntMatrix:
        """Forward NTT; batched when given ``(batch, n)`` input.

        Bit-exact with :meth:`repro.ntt.simd.SimdNtt.forward` on every
        kernel backend (raw bit-reversed output unless ``natural_order``).
        Runs the one-step :func:`~repro.fast.chain.transform_steps` chain.
        """
        return self._fused(transform_steps("forward", natural_order), values)

    def inverse(self, values: IntMatrix, natural_order: bool = True) -> IntMatrix:
        """Inverse NTT including the ``1/n`` scaling (batched-aware)."""
        return self._fused(transform_steps("inverse", natural_order), values)

    def pointwise_mul(self, f: IntMatrix, g: IntMatrix) -> IntMatrix:
        """Element-wise spectral product (the convolution-theorem middle)."""
        fa, as_ints = self._coerce(f)
        ga, _ = self._coerce(g)
        count("engine.fast.r52.calls.<op>", "ntt.pointwise")
        count("engine.fast.r52.elements.<op>", "ntt.pointwise", amount=fa.size // 2)
        with engine_run_span("fast", "ntt.pointwise", fa.size // 2, mode="r52"):
            out = self.mod.mulmod(fa, ga)
        return limbs_to_ints(out) if as_ints else out

    def cyclic_multiply(self, f: IntMatrix, g: IntMatrix, *, words: bool = False) -> IntMatrix:
        """Length-``n`` cyclic convolution via the transform.

        Runs :data:`~repro.fast.chain.CYCLIC_MUL_STEPS` as one fused
        chain: the operands are packed once and stay resident on the
        plan's kernel from the first transform to the last. ``words``
        as for :meth:`FastNegacyclic.multiply`.
        """
        return self._fused(CYCLIC_MUL_STEPS, f, g, words=words)

    def _fused(self, steps, *operands: IntMatrix, neg=None, words: bool = False) -> IntMatrix:
        """Run a chain with ``operands`` bound to ``x``, ``y``, ``z``.

        Ints in, ints out; limb arrays in, limb arrays out. ``words=True``
        takes and returns ``(..., n)`` ``uint64`` residues the caller has
        already range-checked (see :func:`~repro.fast.chain.run_chain`).
        """
        blas = self._blas if any(s["kind"] == "blas" for s in steps) else None
        if words:
            regs = dict(zip(("x", "y", "z"), operands))
            return run_chain(steps, regs, self, neg=neg, blas=blas, words=True)
        coerced = [self._coerce(values) for values in operands]
        regs = {name: arr for name, (arr, _) in zip(("x", "y", "z"), coerced)}
        out = run_chain(steps, regs, self, neg=neg, blas=blas)
        return limbs_to_ints(out) if coerced[0][1] else out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _coerce(self, values: IntMatrix) -> Tuple[np.ndarray, bool]:
        as_ints = not isinstance(values, np.ndarray)
        arr = self.mod.to_limbs(values)
        if arr.ndim not in (2, 3) or arr.shape[-2] != self.n:
            got = arr.shape[-2] if arr.ndim >= 2 else 0
            raise NttParameterError(f"expected {self.n} values, got {got}")
        return arr, as_ints


class FastNegacyclic:
    """Negacyclic polynomial multiplication on the fast engine.

    The same psi-twist formulation as :class:`repro.ntt.negacyclic.NegacyclicNtt`
    (twist by powers of a primitive ``2n``-th root, cyclic convolve,
    untwist). On the GEMM kernel the twist and untwist are folded into
    the transform tables (:attr:`gemm_tables`); on r52 they are held as
    Shoup vectors. Either way the whole product is a handful of
    vectorized passes.
    """

    def __init__(
        self,
        n: int,
        q: int,
        psi: Optional[int] = None,
        plan: Optional[FastNtt] = None,
    ) -> None:
        check_power_of_two(n, "n")
        if (q - 1) % (2 * n):
            raise NttParameterError(
                f"negacyclic multiplication needs 2n | q - 1; got n={n}, q={q}"
            )
        self.n = n
        self.q = q
        self.psi = psi or root_of_unity(2 * n, q)
        if pow(self.psi, 2 * n, q) != 1 or pow(self.psi, n, q) == 1:
            raise NttParameterError(
                f"{self.psi} is not a primitive {2 * n}-th root of unity mod {q}"
            )
        omega = self.psi * self.psi % q
        self.plan = plan or FastNtt(n, q, root=omega)
        self.mode = self.plan.mode

    @cached_property
    def gemm_tables(self) -> Optional[GemmTables]:
        """GEMM tables with the twist folded in (``None`` on r52)."""
        gemm = self.plan._gemm
        return None if gemm is None else gemm.negacyclic(self.psi)

    @cached_property
    def r52_twist(self) -> tuple:
        """Shoup-vector pair for the psi twist (built on first use)."""
        return self._shoup_powers(self.psi)

    @cached_property
    def r52_untwist(self) -> tuple:
        """Shoup-vector pair for the psi^-1 untwist (built on first use)."""
        return self._shoup_powers(inv_mod(self.psi, self.q))

    def _shoup_powers(self, base: int) -> tuple:
        powers = [pow(base, i, self.q) for i in range(self.n)]
        return self.plan.mod.r52.shoup_vector(powers)

    def forward(self, values: IntMatrix) -> IntMatrix:
        """Twisted forward transform (raw bit-reversed order)."""
        return self.plan._fused(NEGACYCLIC_FORWARD_STEPS, values, neg=self)

    def inverse(self, values: IntMatrix) -> IntMatrix:
        """Inverse of :meth:`forward` (untwist and ``1/n`` included)."""
        return self.plan._fused(NEGACYCLIC_INVERSE_STEPS, values, neg=self)

    def multiply(self, f: IntMatrix, g: IntMatrix, *, words: bool = False) -> IntMatrix:
        """Negacyclic product ``f * g mod (x^n + 1, q)`` (batched-aware).

        One fused :data:`~repro.fast.chain.NEGACYCLIC_MUL_STEPS` chain:
        twist, transforms, pointwise product and untwist all run on the
        resident substrate between a single pack and a single unpack.
        With ``words=True`` the operands and the product are ``(..., n)``
        ``uint64`` residues, already range-checked (the packed RNS ring's
        rows): no pack, no check, and on the GEMM kernel no double-word
        wrap either.
        """
        with engine_run_span("fast", "ntt.polymul", self.n, mode=self.mode):
            return self.plan._fused(NEGACYCLIC_MUL_STEPS, f, g, neg=self, words=words)

    def multiply_add(self, f: IntMatrix, g: IntMatrix, acc: IntMatrix) -> IntMatrix:
        """Fused ``f * g + acc mod (x^n + 1, q)`` (batched-aware).

        Runs :data:`~repro.fast.chain.NEGACYCLIC_MUL_ADD_STEPS`, the chain
        :meth:`repro.par.api.ParNegacyclic.multiply_add` ships to workers.
        """
        with engine_run_span("fast", "ntt.polymul_add", self.n, mode=self.mode):
            return self.plan._fused(NEGACYCLIC_MUL_ADD_STEPS, f, g, acc, neg=self)


def fast_negacyclic_polymul(
    f: IntVector, g: IntVector, q: int
) -> Union[List[int], List[List[int]]]:
    """One-shot negacyclic polynomial multiplication on the fast engine."""
    f = list(f)
    g = list(g)
    if len(f) != len(g):
        raise NttParameterError("negacyclic multiplication needs equal lengths")
    n = len(f) if f and isinstance(f[0], int) else len(f[0])
    return FastNegacyclic(n, q).multiply(f, g)
