"""RNS polynomial rings: the FHE workload layer.

A polynomial over ``Z_Q`` (``Q`` = product of the basis primes) is held as
one residue polynomial per prime. Additions and subtractions are per-prime
BLAS vector operations; multiplications run one NTT convolution per prime
(cyclic or negacyclic) - all on a configurable kernel backend, so an
entire FHE-style polynomial multiply exercises exactly the pipeline the
paper accelerates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.blas.ops import BlasPlan
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.kernels.backend import Backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.simd import SimdNtt
from repro.rns.basis import RnsBasis
from repro.util.checks import check_power_of_two

if TYPE_CHECKING:
    from repro.fast.rns import FastRns


class RnsPolynomial:
    """A degree < n polynomial over ``Z_Q`` in per-prime residue form.

    ``residues[i]`` holds the coefficients modulo ``primes[i]``. On a
    ring with ``engine="fast"`` the polynomial also carries its residues
    packed as one ``uint64`` block (:class:`repro.fast.rns.FastRns`): a
    list-built polynomial is packed on its first ring operation and
    keeps that block, and a ring result carries only its block, building
    :attr:`residues` on first read. Treat residue lists as immutable
    once a polynomial is in use.
    """

    def __init__(self, ring: "RnsPolynomialRing", residues: Optional[List[List[int]]]) -> None:
        self.ring = ring
        self._residues = residues
        self._block: Optional[np.ndarray] = None

    @classmethod
    def _packed(cls, ring: "RnsPolynomialRing", block: np.ndarray) -> "RnsPolynomial":
        poly = cls(ring, None)
        poly._block = block
        return poly

    @property
    def residues(self) -> List[List[int]]:
        """Per-prime coefficient lists (built from the packed block on first read)."""
        if self._residues is None:
            self._residues = self.ring._fast.unpack(self._block)
        return self._residues

    def coefficients(self) -> List[int]:
        """CRT-reconstruct the big-integer coefficient vector."""
        basis = self.ring.basis
        n = self.ring.n
        return [
            basis.from_rns([self.residues[k][i] for k in range(len(basis))])
            for i in range(n)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        if self._block is not None and other._block is not None:
            return bool(np.array_equal(self._block, other._block))
        return self.residues == other.residues

    def __repr__(self) -> str:
        return f"RnsPolynomial(n={self.ring.n}, limbs={len(self.ring.basis)})"


class RnsPolynomialRing:
    """``Z_Q[x] / (x^n -+ 1)`` with per-prime SIMD NTT pipelines.

    Args:
        n: Ring dimension (power of two).
        basis: The RNS prime basis (every prime must support the ring:
            ``n | q - 1`` for cyclic, ``2n | q - 1`` for negacyclic).
        backend: Kernel backend shared by all per-prime pipelines.
        negacyclic: ``True`` for the RLWE ring ``x^n + 1`` (default),
            ``False`` for the cyclic ring ``x^n - 1``.
        engine: ``"faithful"`` (ISA-simulated, traceable), ``"fast"``
            (NumPy-vectorized, bit-identical results) or ``"parallel"``
            (fast-engine residue channels sharded across the
            :mod:`repro.par` worker pool — ``mul`` dispatches all
            primes as one fused batch) for every per-prime BLAS and
            NTT pipeline (see docs/PERFORMANCE.md).
    """

    def __init__(
        self,
        n: int,
        basis: RnsBasis,
        backend: Backend,
        negacyclic: bool = True,
        engine: str = "faithful",
    ) -> None:
        check_power_of_two(n, "n")
        self.n = n
        self.basis = basis
        self.backend = backend
        self.negacyclic = negacyclic
        # Resolve the availability cascade once for the whole ring and
        # hand the already-resolved engine to every per-prime plan (so
        # k primes don't emit k degradation warnings, and ``mul`` only
        # dispatches the fused pool batch when the pool can run).
        if engine in ("fast", "parallel"):
            from repro.resil.degrade import resolve_engine

            engine = resolve_engine(engine, site="RnsPolynomialRing")
        self.engine = engine
        self._blas: Dict[int, BlasPlan] = {}
        self._ntt: Dict[int, object] = {}
        required = 2 * n if negacyclic else n
        for q in basis.primes:
            if (q - 1) % required:
                raise NttParameterError(
                    f"prime {q} does not support a "
                    f"{'negacyclic' if negacyclic else 'cyclic'} ring of "
                    f"dimension {n}"
                )
            self._blas[q] = BlasPlan(q, backend, engine=engine)
            if negacyclic:
                self._ntt[q] = NegacyclicNtt(n, q, backend, engine=engine)
            else:
                self._ntt[q] = SimdNtt(n, q, backend, engine=engine)
        #: The fast engine's packed-block twin (``None`` on the others).
        self._fast: Optional[FastRns] = None
        if engine == "fast":
            from repro.fast.rns import FastRns

            self._fast = FastRns(
                n,
                basis.primes,
                [self._ntt[q].fast_plan for q in basis.primes],
                [self._blas[q].fast_plan for q in basis.primes],
                negacyclic,
            )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, coefficients: Sequence[int]) -> RnsPolynomial:
        """Decompose big-integer coefficients into per-prime residues."""
        if len(coefficients) != self.n:
            raise ArithmeticDomainError(
                f"expected {self.n} coefficients, got {len(coefficients)}"
            )
        residues = []
        for q in self.basis.primes:
            residues.append([c % q for c in coefficients])
        for c in coefficients:
            if not 0 <= c < self.basis.modulus:
                raise ArithmeticDomainError(
                    "coefficients must be reduced modulo Q"
                )
        return RnsPolynomial(self, residues)

    def zero(self) -> RnsPolynomial:
        """The zero polynomial."""
        return RnsPolynomial(
            self, [[0] * self.n for _ in self.basis.primes]
        )

    def one(self) -> RnsPolynomial:
        """The multiplicative identity."""
        coeffs = [1] + [0] * (self.n - 1)
        return self.encode(coeffs)

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------

    def _check_membership(self, *polys: RnsPolynomial) -> None:
        for poly in polys:
            if poly.ring is not self:
                raise ArithmeticDomainError(
                    "polynomial belongs to a different ring"
                )

    def _packed_block(self, poly: RnsPolynomial, name: str) -> np.ndarray:
        """``poly``'s packed residue block, packed (and kept) on first use."""
        if poly._block is None:
            poly._block = self._fast.pack(poly._residues, name)
        return poly._block

    def _fast_op(self, op: str, *polys: RnsPolynomial) -> RnsPolynomial:
        blocks = [self._packed_block(poly, name) for poly, name in zip(polys, ("x", "y"))]
        return RnsPolynomial._packed(self, getattr(self._fast, op)(*blocks))

    def add(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f + g``: one BLAS vector addition per prime.

        On the fast engine: one modular pass over the packed block.
        """
        self._check_membership(f, g)
        if self._fast is not None:
            return self._fast_op("add", f, g)
        residues = [
            self._blas[q].vector_add(fr, gr)
            for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
        ]
        return RnsPolynomial(self, residues)

    def sub(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f - g``: one BLAS vector subtraction per prime (fast: one pass)."""
        self._check_membership(f, g)
        if self._fast is not None:
            return self._fast_op("sub", f, g)
        residues = [
            self._blas[q].vector_sub(fr, gr)
            for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
        ]
        return RnsPolynomial(self, residues)

    def scalar_mul(self, a: int, f: RnsPolynomial) -> RnsPolynomial:
        """``a * f`` for a big-integer scalar ``a``: per-prime axpy."""
        self._check_membership(f)
        if self._fast is not None:
            block = self._fast.scalar_mul(a, self._packed_block(f, "x"))
            return RnsPolynomial._packed(self, block)
        residues = []
        for q, fr in zip(self.basis.primes, f.residues):
            zeros = [0] * self.n
            residues.append(self._blas[q].axpy(a % q, fr, zeros))
        return RnsPolynomial(self, residues)

    def mul(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f * g`` in the ring: one NTT convolution per prime.

        Negacyclic rings multiply directly at dimension ``n`` (via the
        psi-twisted transform); cyclic rings compute the length-``n``
        cyclic convolution. With ``engine="parallel"`` all residue
        channels are dispatched to the worker pool as one fused batch
        instead of this sequential per-prime loop. With ``engine="fast"``
        the loop runs on the packed blocks, and each prime's two forward
        transforms share one GEMM pass where the kernel serves it.
        """
        self._check_membership(f, g)
        if self._fast is not None:
            return self._fast_op("mul", f, g)
        if self.engine == "parallel":
            from repro.par.api import parallel_rns_mul

            return RnsPolynomial(
                self, parallel_rns_mul(self, f.residues, g.residues)
            )
        product = "multiply" if self.negacyclic else "cyclic_multiply"
        residues = [
            getattr(self._ntt[q], product)(fr, gr)
            for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
        ]
        return RnsPolynomial(self, residues)

    @property
    def ntt_count_per_mul(self) -> int:
        """Independent NTT invocations per ring multiplication.

        2 forward + 1 inverse per prime - the batch-parallel workload
        behind the Section 6 scaling argument.
        """
        return 3 * len(self.basis)
