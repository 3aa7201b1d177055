"""An RNS ring's residue channels as one packed block (the fast engine).

:class:`FastRns` is the fast-engine twin of
:class:`~repro.rns.poly.RnsPolynomialRing`: it holds a polynomial's ``k``
residue rows as one ``uint64`` block, so a chain of ring operations
packs each list operand once and never unpacks between operations.

Layout
    ``(k, n)`` one-word residues when every prime is below ``2^63``
    (the sum of two residues then fits a word); ``(k, n, 2)`` double
    words (:mod:`repro.fast.limbs`) when any prime is wider.

Operations
    ``add`` and ``sub`` are one modular pass over the whole block
    against a per-row ``q`` column. ``mul`` runs one fused negacyclic
    (or cyclic) chain per prime on that prime's plan; GEMM-routed primes
    read and write their one-word rows directly, r52-routed ones wrap
    them into double words inside the chain. Primes are not stacked into
    one ``(k, ...)`` matmul: a stacked prototype of the 4 x 60-bit step
    measured 9.7 ms against 6.6 ms for per-prime passes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ArithmeticDomainError
from repro.fast.limbs import (
    add128_nocarry,
    geq128,
    limbs_from_ints,
    limbs_from_words,
    limbs_to_ints,
    select128,
    sub128,
)
from repro.fast.modular import _NARROW_BOUND, pack_words
from repro.obs.hooks import engine_run_span


class FastRns:
    """Packed-block arithmetic for one RNS ring on the fast engine.

    Args:
        n: Ring dimension.
        primes: The basis primes, in row order.
        ntt: Per prime, its fast product plan
            (:class:`~repro.fast.ntt.FastNegacyclic` for a negacyclic
            ring, :class:`~repro.fast.ntt.FastNtt` for a cyclic one).
        blas: Per prime, its :class:`~repro.fast.blas.FastBlasPlan`.
        negacyclic: Which product the ring computes.

    Construction only keeps references: every table is still built by
    the per-prime plans on first use.
    """

    def __init__(self, n: int, primes: Sequence[int], ntt, blas, negacyclic: bool) -> None:
        self.n = n
        self.primes = tuple(primes)
        self.k = len(self.primes)
        self._ntt = list(ntt)
        self._blas = list(blas)
        self.negacyclic = negacyclic
        #: ``(k, n)`` one-word rows, else ``(k, n, 2)`` double words.
        self.wide = max(self.primes) >= _NARROW_BOUND
        #: The per-row ``q`` column in double words, and in the block's layout.
        self._qdw = limbs_from_ints([[q] for q in self.primes])
        self._q = self._qdw if self.wide else self._qdw[..., 0]

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------

    def pack(self, rows: Sequence[Sequence[int]], name: str) -> np.ndarray:
        """Pack and range-check ``k`` residue rows of ``n`` ints each.

        Raises :class:`ArithmeticDomainError` for a wrong row count or
        length, a non-int residue, or a residue not reduced modulo its
        row's prime.
        """
        try:
            lengths = [len(row) for row in rows]
        except TypeError as exc:
            raise ArithmeticDomainError(f"{name}: residue rows must be sequences: {exc}") from exc
        if len(lengths) != self.k or any(length != self.n for length in lengths):
            raise ArithmeticDomainError(
                f"{name}: expected {self.k} residue rows of {self.n} values, "
                f"got rows of {lengths}"
            )
        block = None if self.wide else pack_words(rows)
        if block is None:  # the general path: one to_bytes packing per row
            packed = [limbs_from_ints(row) for row in rows]
            if any(arr.shape != (self.n, 2) for arr in packed):
                raise ArithmeticDomainError(f"{name}: residue rows must hold {self.n} ints each")
            block = np.stack(packed)
            bad = geq128(block, self._qdw)
        else:
            bad = block >= self._q
        if bad.any():
            row, col = (int(i) for i in np.argwhere(bad)[0])
            raise ArithmeticDomainError(
                f"{name}[{row}][{col}] is not reduced modulo {self.primes[row]}"
            )
        return block if self.wide or block.ndim == 2 else block[..., 0].copy()

    def unpack(self, block: np.ndarray) -> List[List[int]]:
        """The block's residue rows as lists of Python ints."""
        return limbs_to_ints(block) if self.wide else block.tolist()

    # ------------------------------------------------------------------
    # Ring operations on packed blocks
    # ------------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a + b`` row by row modulo each row's prime, in one pass."""
        with engine_run_span("fast", "blas.vector_add", self.k * self.n):
            if self.wide:
                total = add128_nocarry(a, b)
                diff, borrow = sub128(total, self._q)
                return select128(~borrow, diff, total)
            out = a + b  # below 2q < 2^64
            np.minimum(out, out - self._q, out=out)
            return out

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a - b`` row by row modulo each row's prime, in one pass."""
        with engine_run_span("fast", "blas.vector_sub", self.k * self.n):
            if self.wide:
                diff, borrow = sub128(a, b)
                return select128(borrow, add128_nocarry(diff, self._q), diff)
            out = a - b  # wraps above 2^63 exactly when a < b
            np.minimum(out, out + self._q, out=out)
            return out

    def scalar_mul(self, a: int, block: np.ndarray) -> np.ndarray:
        """``a * block`` for a big-integer scalar: one ``axpy`` per prime."""
        out = np.empty_like(block)
        for index, (q, blas) in enumerate(zip(self.primes, self._blas)):
            row = block[index] if self.wide else limbs_from_words(block[index])
            product = blas.axpy(a % q, row, np.zeros_like(row))
            out[index] = product if self.wide else product[..., 0]
        return out

    def mul(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The ring product: one fused convolution chain per prime."""
        out = np.zeros_like(f) if self.wide else np.empty_like(f)
        for index, plan in enumerate(self._ntt):
            multiply = plan.multiply if self.negacyclic else plan.cyclic_multiply
            if not self.wide:
                out[index] = multiply(f[index], g[index], words=True)
            elif plan.mode == "gemm":  # one-word residues inside a wide block
                out[index, :, 0] = multiply(f[index, :, 0], g[index, :, 0], words=True)
            else:
                out[index] = multiply(f[index], g[index])
        return out
