"""RNS polynomial rings: the FHE workload layer.

A polynomial over ``Z_Q`` (``Q`` = product of the basis primes) is held as
one residue polynomial per prime. Additions and subtractions are per-prime
BLAS vector operations; multiplications run one NTT convolution per prime
(cyclic or negacyclic) - all on a configurable kernel backend, so an
entire FHE-style polynomial multiply exercises exactly the pipeline the
paper accelerates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.blas.ops import BlasPlan
from repro.errors import ArithmeticDomainError, NttParameterError
from repro.kernels.backend import Backend
from repro.ntt.negacyclic import NegacyclicNtt
from repro.ntt.simd import SimdNtt
from repro.rns.basis import RnsBasis
from repro.util.checks import check_power_of_two


class RnsPolynomial:
    """A degree < n polynomial over ``Z_Q`` in per-prime residue form."""

    def __init__(self, ring: "RnsPolynomialRing", residues: List[List[int]]) -> None:
        self.ring = ring
        self.residues = residues  # residues[i] = coefficients mod primes[i]

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
        return self.ring is other.ring and self.residues == other.residues

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

    def add(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f + g``: one BLAS vector addition per prime."""
        self._check_membership(f, g)
        residues = [
            self._blas[q].vector_add(fr, gr)
            for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
        ]
        return RnsPolynomial(self, residues)

    def sub(self, f: RnsPolynomial, g: RnsPolynomial) -> RnsPolynomial:
        """``f - g``: one BLAS vector subtraction per prime."""
        self._check_membership(f, g)
        residues = [
            self._blas[q].vector_sub(fr, gr)
            for q, fr, gr in zip(self.basis.primes, f.residues, g.residues)
        ]
        return RnsPolynomial(self, residues)

    def scalar_mul(self, a: int, f: RnsPolynomial) -> RnsPolynomial:
        """``a * f`` for a big-integer scalar ``a``: per-prime axpy."""
        self._check_membership(f)
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
        instead of this sequential per-prime loop.
        """
        self._check_membership(f, g)
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
