"""Vector modular arithmetic: the paper's four BLAS operations.

The evaluation (Section 5.3) benchmarks vector addition, vector
subtraction, point-wise vector multiplication, and ``axpy`` at vector
length 1,024 (a typical FHE polynomial size). All four are implemented
here by blocking a residue vector over one kernel backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ArithmeticDomainError
from repro.fast.chain import OUT_REGISTER
from repro.kernels.backend import Backend, ModulusContext
from repro.ntt.chain import run_chain
from repro.util.checks import check_reduced, check_vector_length

#: The four operations of Figure 4, in presentation order.
BLAS_OPERATIONS = ("vector_add", "vector_sub", "vector_mul", "axpy")


class BlasPlan:
    """Reusable (backend, modulus) binding for BLAS calls.

    Precomputes the modulus context once (Barrett ``mu``, broadcast
    registers) so repeated vector operations do not repay setup costs -
    matching how the paper's benchmarks hoist per-modulus constants.

    With ``engine="fast"`` every operation runs on the NumPy-vectorized
    engine (:mod:`repro.fast`) instead of the ISA simulator — identical
    results, whole-vector execution (see docs/PERFORMANCE.md). With
    ``engine="parallel"`` the element range is additionally sharded
    across the :mod:`repro.par` worker pool. On every engine an op
    takes a flat vector or a ``(batch, n)`` list of rows.
    """

    def __init__(
        self,
        q: int,
        backend: Backend,
        algorithm: str = "schoolbook",
        engine: str = "faithful",
    ) -> None:
        self.q = q
        self.backend = backend
        self.ctx: ModulusContext = backend.make_modulus(q, algorithm=algorithm)
        if engine not in ("faithful", "fast", "parallel"):
            raise ArithmeticDomainError(
                f"engine must be 'faithful', 'fast' or 'parallel', "
                f"got {engine!r}"
            )
        # Availability cascade: degrade rather than hard-fail when the
        # requested engine cannot run here (see repro.resil.degrade).
        from repro.resil.degrade import resolve_engine

        engine = resolve_engine(engine, site="BlasPlan")
        self.engine = engine
        #: The vectorized twin plan (checks operands vectorized, so the
        #: per-element Python validation loop is skipped) and its
        #: pool-sharded twin (the flattened element range is split
        #: across the active ParallelExecutor's workers).
        self.fast_plan = self.par_plan = None
        if engine != "faithful":
            from repro.fast.blas import FastBlasPlan

            self.fast_plan = FastBlasPlan(q)
        if engine == "parallel":
            from repro.par.api import ParBlasPlan

            self.par_plan = ParBlasPlan(q, plan=self.fast_plan)

    def _run(self, op: str, x, y, a: Optional[int] = None):
        """One op on the fast or parallel twin, else a faithful chain.

        The twin checks shapes and values vectorized; the lane rule
        applies to the row length: ``len(x)`` for a flat vector, the row
        width for a ``(batch, n)`` stack, ``n`` for a ``(..., n, 2)``
        limb array. The faithful engine runs a one-step ``blas`` chain.
        """
        twin = self.par_plan or self.fast_plan
        if twin is None:
            step = {"kind": "blas", "blas_op": op, "x": "x", "y": "y",
                    "dst": OUT_REGISTER, "a": a}
            return run_chain((step,), {"x": x, "y": y}, blas=self)
        if getattr(x, "ndim", 0) >= 2:
            row = x.shape[-2]
        elif len(x) and not isinstance(x[0], int):
            row = len(x[0])
        else:
            row = len(x)
        check_vector_length(row, self.backend.lanes)
        if a is None:
            return getattr(twin, op)(x, y)
        return twin.axpy(a, x, y)

    def vector_add(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x + y) mod q``."""
        return self._run("vector_add", x, y)

    def vector_sub(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x - y) mod q``."""
        return self._run("vector_sub", x, y)

    def vector_mul(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x * y) mod q`` (the gemv special case)."""
        return self._run("vector_mul", x, y)

    def axpy(self, a: int, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """BLAS Level 1 ``axpy``: ``(a * x + y) mod q`` for scalar ``a``."""
        check_reduced(a, self.q, "a")
        return self._run("axpy", x, y, a)


def vector_add(
    x: Sequence[int], y: Sequence[int], q: int, backend: Backend,
    engine: str = "faithful",
) -> List[int]:
    """One-shot point-wise modular vector addition."""
    return BlasPlan(q, backend, engine=engine).vector_add(x, y)


def vector_sub(
    x: Sequence[int], y: Sequence[int], q: int, backend: Backend,
    engine: str = "faithful",
) -> List[int]:
    """One-shot point-wise modular vector subtraction."""
    return BlasPlan(q, backend, engine=engine).vector_sub(x, y)


def vector_pointwise_mul(
    x: Sequence[int], y: Sequence[int], q: int, backend: Backend,
    engine: str = "faithful",
) -> List[int]:
    """One-shot point-wise modular vector multiplication."""
    return BlasPlan(q, backend, engine=engine).vector_mul(x, y)


def axpy(
    a: int, x: Sequence[int], y: Sequence[int], q: int, backend: Backend,
    engine: str = "faithful",
) -> List[int]:
    """One-shot modular ``axpy``."""
    return BlasPlan(q, backend, engine=engine).axpy(a, x, y)
