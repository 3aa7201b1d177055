"""The paper's four BLAS operations on the fast engine.

Same semantics as :mod:`repro.blas.ops` — point-wise modular add, sub,
mul, and ``axpy`` — but each call is a constant number of whole-vector
NumPy passes instead of a Python loop over SIMD blocks. Inputs may be
flat vectors or ``(batch, n)`` stacks (the RNS pipeline's residue
channels); the scalar ``a`` of ``axpy`` broadcasts exactly like the
backends' hoisted ``broadcast_dw`` register. ``vector_mul`` and ``axpy``
run on the r52 substrate at every width, in cache-sized blocks;
``vector_add``/``vector_sub`` stay double-word.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.errors import ArithmeticDomainError
from repro.fast.limbs import limbs_to_ints
from repro.fast.modular import FastModulus, _r52_blocks
from repro.obs.hooks import count, engine_run_span
from repro.util.checks import check_reduced

IntMatrix = Union[Sequence[int], Sequence[Sequence[int]], np.ndarray]


class FastBlasPlan:
    """Reusable per-modulus binding for vectorized BLAS calls.

    The fast-engine counterpart of :class:`repro.blas.ops.BlasPlan`:
    precomputes the Barrett constants once (shared process-wide via
    :meth:`FastModulus.get`), then serves add/sub/mul/axpy over
    arbitrarily long (and batched) vectors. ``axpy`` derives a Shoup
    constant for its scalar and runs the cheaper precomputed-multiplicand
    product.
    """

    def __init__(self, q: int) -> None:
        self.q = q
        self.mod = FastModulus.get(q)

    def _coerce_pair(self, x: IntMatrix, y: IntMatrix):
        xa = self.mod.to_limbs(x, "x")
        ya = self.mod.to_limbs(y, "y")
        if xa.shape != ya.shape:
            raise ArithmeticDomainError(
                f"vector length mismatch: {xa.shape[:-1]} vs {ya.shape[:-1]}"
            )
        as_ints = not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray))
        return xa, ya, as_ints

    def vector_add(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x + y) mod q``.

        Always double-word: a 128-bit add is two NumPy passes, cheaper
        than the repack to r52 planes would cost.
        """
        xa, ya, as_ints = self._coerce_pair(x, y)
        with engine_run_span(
            "fast", "blas.vector_add", xa.size // 2, mode="dw"
        ):
            out = self.mod.addmod(xa, ya)
        return limbs_to_ints(out) if as_ints else out

    def vector_sub(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x - y) mod q`` (double-word path, like add)."""
        xa, ya, as_ints = self._coerce_pair(x, y)
        with engine_run_span(
            "fast", "blas.vector_sub", xa.size // 2, mode="dw"
        ):
            out = self.mod.submod(xa, ya)
        return limbs_to_ints(out) if as_ints else out

    def vector_mul(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x * y) mod q``."""
        xa, ya, as_ints = self._coerce_pair(x, y)
        count("engine.fast.r52.calls.<op>", "blas.vector_mul")
        count("engine.fast.r52.elements.<op>", "blas.vector_mul", amount=xa.size // 2)
        with engine_run_span(
            "fast", "blas.vector_mul", xa.size // 2, mode="r52"
        ):
            out = self.mod.mulmod(xa, ya)
        return limbs_to_ints(out) if as_ints else out

    def axpy(self, a: int, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """``(a * x + y) mod q`` for scalar ``a`` (broadcast over lanes).

        The scalar gets a runtime Shoup constant (one big-int division),
        turning the broadcast product into the precomputed-multiplicand
        form — two limb-plane multiplies and one correction instead of a
        full Barrett reduction per lane. The product and the add run on
        r52 planes, in blocks (:func:`~repro.fast.modular._r52_blocks`).
        """
        check_reduced(a, self.q, "a")
        xa, ya, as_ints = self._coerce_pair(x, y)
        count("engine.fast.r52.calls.<op>", "blas.axpy")
        count("engine.fast.r52.elements.<op>", "blas.axpy", amount=xa.size // 2)
        with engine_run_span("fast", "blas.axpy", xa.size // 2, mode="r52"):
            r = self.mod.r52
            pair = r.shoup(a)
            out = _r52_blocks(
                r, lambda xp, yp: r.addmod(r.mulmod_shoup(xp, pair), yp), xa, ya
            )
        return limbs_to_ints(out) if as_ints else out


def fast_vector_add(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector addition (fast engine)."""
    return FastBlasPlan(q).vector_add(x, y)


def fast_vector_sub(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector subtraction (fast engine)."""
    return FastBlasPlan(q).vector_sub(x, y)


def fast_vector_mul(x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot point-wise modular vector multiplication (fast engine)."""
    return FastBlasPlan(q).vector_mul(x, y)


def fast_axpy(a: int, x: IntMatrix, y: IntMatrix, q: int) -> Union[List[int], list]:
    """One-shot modular ``axpy`` (fast engine)."""
    return FastBlasPlan(q).axpy(a, x, y)
