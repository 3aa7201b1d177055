"""Negacyclic NTT: multiplication in ``Z_q[x] / (x^n + 1)``.

RLWE-based FHE schemes (the paper's motivating application) work in the
*negacyclic* ring, not the cyclic one: wrap-around coefficients re-enter
negated. The standard technique is twisting by a primitive ``2n``-th root
of unity ``psi`` (with ``psi^2 = omega``):

    negacyclic(f, g) = untwist( cyclic( twist(f), twist(g) ) )

where ``twist(f)[i] = f[i] * psi^i`` and ``untwist`` multiplies by
``psi^-i``. The twist/untwist passes are plain point-wise modular
multiplications, so they run on the same kernel backends as everything
else; the cyclic convolution in the middle is the Pease SIMD NTT.

:class:`NegacyclicNtt` describes none of this itself: on the faithful
engine each method runs a canonical :mod:`repro.fast.chain` step tuple
through the faithful interpreter (:func:`repro.ntt.chain.run_chain`),
and on the fast and parallel engines it hands the same call to its
twin plan.

Requires ``2n | q - 1`` (all the library's default primes satisfy this).
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

from repro.arith.modular import inv_mod
from repro.arith.primes import root_of_unity
from repro.errors import NttParameterError
from repro.fast.chain import (
    NEGACYCLIC_FORWARD_STEPS,
    NEGACYCLIC_INVERSE_STEPS,
    NEGACYCLIC_MUL_STEPS,
)
from repro.kernels.backend import Backend
from repro.ntt.chain import run_chain
from repro.ntt.simd import SimdNtt
from repro.obs.hooks import count
from repro.util.checks import check_power_of_two


class NegacyclicNtt:
    """Multiplication plan for ``Z_q[x] / (x^n + 1)`` on one backend.

    Holds an ``n``-point cyclic NTT plan and, on the faithful engine,
    the twist tables (powers of ``psi`` and ``psi^-1``, built on first
    use). The negacyclic product of two length-``n`` coefficient vectors
    needs only ``n``-point transforms (no zero padding), which is why
    FHE implementations prefer this formulation. Every method takes a
    flat vector or a ``(batch, n)`` list of rows.
    """

    def __init__(
        self,
        n: int,
        q: int,
        backend: Backend,
        algorithm: str = "schoolbook",
        psi: Optional[int] = None,
        engine: str = "faithful",
    ) -> None:
        check_power_of_two(n, "n")
        if (q - 1) % (2 * n):
            raise NttParameterError(
                f"negacyclic multiplication needs 2n | q - 1; "
                f"got n={n}, q={q}"
            )
        self.n = n
        self.q = q
        self.backend = backend
        self.psi = psi or root_of_unity(2 * n, q)
        if pow(self.psi, 2 * n, q) != 1 or pow(self.psi, n, q) == 1:
            raise NttParameterError(
                f"{self.psi} is not a primitive {2 * n}-th root of unity mod {q}"
            )
        # The cyclic plan uses omega = psi^2, keeping the rings consistent.
        omega = self.psi * self.psi % q
        self.plan = SimdNtt(
            n, q, backend, algorithm=algorithm, root=omega, engine=engine
        )
        #: The engine after SimdNtt's availability cascade; the twist
        #: plans below follow it.
        self.engine = engine = self.plan.engine
        #: Vectorized twin sharing this plan's psi and twiddle table, and
        #: its pool-sharded wrapper (``multiply`` on a batch splits the
        #: rows across the active ParallelExecutor's workers).
        self.fast_plan = self.par_plan = None
        if engine != "faithful":
            from repro.fast.ntt import FastNegacyclic

            self.fast_plan = FastNegacyclic(
                n, q, psi=self.psi, plan=self.plan.fast_plan
            )
        if engine == "parallel":
            from repro.par.api import ParNegacyclic

            self.par_plan = ParNegacyclic.from_plan(self.fast_plan)

    @cached_property
    def twist_table(self) -> List[int]:
        """``psi^i`` for ``i < n`` (built on first faithful use)."""
        return [pow(self.psi, i, self.q) for i in range(self.n)]

    @cached_property
    def untwist_table(self) -> List[int]:
        """``psi^-i`` for ``i < n`` (built on first faithful use)."""
        psi_inv = inv_mod(self.psi, self.q)
        return [pow(psi_inv, i, self.q) for i in range(self.n)]

    def forward(self, values):
        """Twisted forward transform (negacyclic evaluation form).

        Output order is the raw bit-reversed order of the cyclic plan -
        point-wise operations don't care, and the matching
        :meth:`inverse` undoes it.
        """
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.forward(values)
        return self._run(NEGACYCLIC_FORWARD_STEPS, x=values)

    def inverse(self, values):
        """Inverse of :meth:`forward` (includes untwisting and 1/n)."""
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.inverse(values)
        return self._run(NEGACYCLIC_INVERSE_STEPS, x=values)

    def multiply(self, f, g):
        """Negacyclic product: ``f * g mod (x^n + 1, q)``."""
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.multiply(f, g)
        count("engine.<engine>.calls.<op>", "faithful", "ntt.polymul")
        count("engine.<engine>.elements.<op>", "faithful", "ntt.polymul", amount=self.n)
        return self._run(NEGACYCLIC_MUL_STEPS, x=f, y=g)

    def _run(self, steps, **inputs):
        return run_chain(steps, inputs, self.plan, neg=self)


def negacyclic_polymul(
    f: List[int],
    g: List[int],
    q: int,
    backend: Backend,
    algorithm: str = "schoolbook",
    engine: str = "faithful",
) -> List[int]:
    """One-shot negacyclic polynomial multiplication."""
    if len(f) != len(g):
        raise NttParameterError("negacyclic multiplication needs equal lengths")
    plan = NegacyclicNtt(len(f), q, backend, algorithm=algorithm, engine=engine)
    return plan.multiply(f, g)
