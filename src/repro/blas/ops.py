"""Vector modular arithmetic: the paper's four BLAS operations.

The evaluation (Section 5.3) benchmarks vector addition, vector
subtraction, point-wise vector multiplication, and ``axpy`` at vector
length 1,024 (a typical FHE polynomial size). All four are implemented
here by blocking a residue vector over one kernel backend.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ArithmeticDomainError
from repro.kernels.backend import Backend, ModulusContext
from repro.obs.hooks import record_engine_call
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
    across the :mod:`repro.par` worker pool.
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
        if engine in ("fast", "parallel"):
            # Deferred import: the faithful path must not require NumPy.
            from repro.fast.blas import FastBlasPlan

            #: The vectorized twin plan (checks operands vectorized, so
            #: the per-element Python validation loop is skipped).
            self.fast_plan = FastBlasPlan(q)
        else:
            self.fast_plan = None
        if engine == "parallel":
            from repro.par.api import ParBlasPlan

            #: Pool-sharded twin: the flattened element range is split
            #: across the active ParallelExecutor's workers.
            self.par_plan = ParBlasPlan(q, plan=self.fast_plan)
        else:
            self.par_plan = None

    def _check(self, x: Sequence[int], y: Sequence[int]) -> None:
        if len(x) != len(y):
            raise ArithmeticDomainError(
                f"vector length mismatch: {len(x)} vs {len(y)}"
            )
        check_vector_length(len(x), self.backend.lanes)
        for i, value in enumerate(x):
            check_reduced(value, self.q, f"x[{i}]")
        for i, value in enumerate(y):
            check_reduced(value, self.q, f"y[{i}]")

    def _blocked(self, x: Sequence[int], y: Sequence[int], op: str) -> List[int]:
        backend = self.backend
        lanes = backend.lanes
        out: List[int] = []
        method = getattr(backend, op)
        for base in range(0, len(x), lanes):
            a = backend.load_block(x[base : base + lanes])
            b = backend.load_block(y[base : base + lanes])
            out.extend(backend.store_block(method(a, b, self.ctx)))
        return out

    def _fast_twin(self, x: Sequence[int], y: Sequence[int]):
        """The fast or parallel twin plan, after its shape checks.

        ``None`` on the faithful engine. Values are range-checked
        vectorized by the twin; the lane rule applies to the row
        length: ``len(x)`` for a flat vector, the row width for a
        ``(batch, n)`` stack, ``n`` for a ``(..., n, 2)`` limb array.
        """
        twin = self.par_plan if self.par_plan is not None else self.fast_plan
        if twin is None:
            return None
        if len(x) != len(y):
            raise ArithmeticDomainError(
                f"vector length mismatch: {len(x)} vs {len(y)}"
            )
        if getattr(x, "ndim", 0) >= 2:
            row = x.shape[-2]
        elif len(x) and not isinstance(x[0], int):
            row = len(x[0])
        else:
            row = len(x)
        check_vector_length(row, self.backend.lanes)
        return twin

    def vector_add(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x + y) mod q``."""
        twin = self._fast_twin(x, y)
        if twin is not None:
            return twin.vector_add(x, y)
        record_engine_call("faithful", "blas.vector_add", len(x))
        self._check(x, y)
        return self._blocked(x, y, "addmod")

    def vector_sub(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x - y) mod q``."""
        twin = self._fast_twin(x, y)
        if twin is not None:
            return twin.vector_sub(x, y)
        record_engine_call("faithful", "blas.vector_sub", len(x))
        self._check(x, y)
        return self._blocked(x, y, "submod")

    def vector_mul(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """Point-wise ``(x * y) mod q`` (the gemv special case)."""
        twin = self._fast_twin(x, y)
        if twin is not None:
            return twin.vector_mul(x, y)
        record_engine_call("faithful", "blas.vector_mul", len(x))
        self._check(x, y)
        return self._blocked(x, y, "mulmod")

    def axpy(self, a: int, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """BLAS Level 1 ``axpy``: ``(a * x + y) mod q`` for scalar ``a``."""
        check_reduced(a, self.q, "a")
        twin = self._fast_twin(x, y)
        if twin is not None:
            return twin.axpy(a, x, y)
        record_engine_call("faithful", "blas.axpy", len(x))
        self._check(x, y)
        backend = self.backend
        lanes = backend.lanes
        a_block = backend.broadcast_dw(a)
        out: List[int] = []
        for base in range(0, len(x), lanes):
            xb = backend.load_block(x[base : base + lanes])
            yb = backend.load_block(y[base : base + lanes])
            prod = backend.mulmod(xb, a_block, self.ctx)
            out.extend(backend.store_block(backend.addmod(prod, yb, self.ctx)))
        return out


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
