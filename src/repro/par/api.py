"""User-facing parallel plans: the fast-engine API, sharded over workers.

:class:`ParNtt`, :class:`ParNegacyclic` and :class:`ParBlasPlan` mirror
their :mod:`repro.fast` twins — same coercion, same validation, same
bit-exact results — but execute through a
:class:`~repro.par.executor.ParallelExecutor`: the batched input is
staged into shared memory, split into contiguous shards (whole rows for
transforms, element ranges for BLAS), and each shard is computed by a
pool worker whose plan and twiddle caches stay warm across calls. Every
plan ships its op as a :mod:`repro.fast.chain` program (``op="chain"``,
built by one helper), the only task the pool runs.

Two axes of parallelism are exposed:

* **batch sharding** — a ``(batch, n)`` stack of transforms or a long
  BLAS vector is cut into ``workers`` contiguous pieces;
* **residue-channel fan-out** — :func:`parallel_rns_mul` dispatches the
  per-prime convolutions of one RNS ring multiplication as independent
  shards of a single batch (this is the paper's observation that RNS
  limbs are embarrassingly parallel, applied at the process level).

Plans accept an explicit executor; otherwise they dispatch to the
process default (see :func:`~repro.par.executor.default_executor`),
which a ``with ParallelExecutor(...)`` block temporarily replaces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ArithmeticDomainError, NttParameterError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan, IntMatrix
from repro.fast.limbs import LIMB_DTYPE, limbs_to_ints
from repro.fast.modular import FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.ntt.twiddles import TwiddleTable
from repro.obs.hooks import count
from repro.obs.spans import span
from repro.par.executor import ParallelExecutor, default_executor
from repro.util.checks import check_reduced


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into balanced contiguous ``[start, stop)``.

    At most ``min(shards, total)`` non-empty pieces, sizes differing by
    at most one — the unit of work handed to each pool worker. An empty
    range has no shards: ``total=0`` returns ``[]`` (callers
    early-return before staging anything).
    """
    if total <= 0:
        return []
    shards = max(1, min(int(shards), int(total)))
    base, extra = divmod(int(total), shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _chain_meta(
    steps: Sequence[dict],
    q: int,
    n: Optional[int] = None,
    root: Optional[int] = None,
    psi: Optional[int] = None,
) -> dict:
    """The pool's one task description: ``op="chain"`` running ``steps``.

    Transform chains name their plan (``n``/``root``, plus ``psi`` when
    they twist); BLAS chains carry only ``q`` and run on the flattened
    element axis.
    """
    steps = [dict(step) for step in steps]
    meta = {
        "op": "chain",
        "q": q,
        "steps": steps,
        "inputs": fast_chain.chain_input_names(steps),
    }
    if n is not None:
        meta.update(n=n, root=root)
    if psi is not None:
        meta["psi"] = psi
    return meta


def _run_sharded(
    executor: Optional[ParallelExecutor],
    metas: Sequence[dict],
    axis_key: str,
    inputs: Dict[str, np.ndarray],
    shape: Sequence[int],
    as_ints: bool = False,
):
    """Stage ``inputs`` into shared memory, shard, run, collect the output.

    All input arrays and the output share ``shape``, whose first axis is
    the one sharded: ``axis_key`` is ``"rows"`` (transforms shard whole
    batch rows) or ``"elems"`` (BLAS shards the flattened element axis).
    ``metas`` is either one chain meta for the whole batch, cut into
    :meth:`~repro.par.executor.ParallelExecutor.suggest_shards` pieces,
    or one meta per row, each row its own shard (the residue rows of an
    RNS product each have their own ``q``/``psi``/``root``). Segments
    are always released before returning, even when execution raises.
    The output comes back as a copied limb array, or with ``as_ints`` as
    Python ints unpacked straight from the segment.

    The ``par.batch`` span brackets staging + run + collection, so a
    profile separates shared-memory copy overhead from pool time.

    Staging goes through the executor's :class:`~repro.par.shm.ArenaPool`:
    segments are leased for the batch and returned to the pool's free
    lists afterwards, so steady-state batches reuse the same segments
    (and the workers' attachment caches) with zero shm syscalls.
    """
    executor = executor or default_executor()
    total = int(shape[0])
    if total <= 0:
        # Empty batch: the identity-shaped result, with no segment
        # staging and no pool round trip for zero work.
        empty = np.zeros(tuple(shape), dtype=LIMB_DTYPE)
        return limbs_to_ints(empty) if as_ints else empty
    if len(metas) == 1:
        bounds = shard_bounds(total, executor.suggest_shards(metas[0], total))
        metas = list(metas) * len(bounds)
    else:
        bounds = [(row, row + 1) for row in range(total)]
    with span("par.batch", axis=axis_key, total=total):
        segments = []
        try:
            names = {}
            for key, arr in inputs.items():
                seg, view = executor.arena.lease(shape)
                view[...] = arr
                del view
                segments.append(seg)
                names[key] = seg.name
            out_seg, out_view = executor.arena.lease(shape)
            segments.append(out_seg)
            sums_name = None
            if executor.integrity:
                # One CRC-32 slot per shard, written by the worker right
                # after its payload and re-verified by the executor on
                # collection (see repro.resil.integrity).
                sums_seg, sums_view = executor.arena.lease((len(bounds),))
                del sums_view
                segments.append(sums_seg)
                sums_name = sums_seg.name
            specs = []
            for index, (meta, (start, stop)) in enumerate(zip(metas, bounds)):
                spec = dict(meta)
                spec.update(names)
                spec["shape"] = list(shape)
                spec[axis_key] = [start, stop]
                spec["out"] = out_seg.name
                if sums_name is not None:
                    spec["shard_index"] = index
                    spec["sums"] = sums_name
                    spec["sums_len"] = len(bounds)
                specs.append(spec)
            count("par.fused.chains", amount=len(specs))
            count("par.fused.steps", amount=len(metas[0]["steps"]) * len(specs))
            executor.run(specs)
            executor.audit(specs)
            if as_ints:
                result = limbs_to_ints(out_view)
            else:
                result = np.array(out_view, copy=True)
            del out_view
            return result
        finally:
            for seg in segments:
                executor.arena.release(seg)


def _run_rows(
    executor: Optional[ParallelExecutor],
    label: str,
    steps: Sequence[dict],
    operands: Dict[str, IntMatrix],
    ntt: FastNtt,
    psi: Optional[int] = None,
):
    """Run a transform chain over the pool, sharding batch rows.

    ``operands`` maps the chain's input registers to ``(batch, n)``
    stacks (or flat ``(n,)`` vectors, run as a one-row batch), coerced
    like the fast engine's operands; the ``"out"`` register comes back
    in the same form. ``label`` names the ``engine.parallel.calls.*``
    counter.
    """
    coerced = {name: ntt._coerce(values) for name, values in operands.items()}
    first, as_ints = next(iter(coerced.values()))
    flat = first.ndim == 2
    count("engine.<engine>.calls.<op>", "parallel", label)
    count("engine.<engine>.elements.<op>", "parallel", label, amount=first.size // 2)
    inputs = {
        name: arr[np.newaxis] if arr.ndim == 2 else arr
        for name, (arr, _) in coerced.items()
    }
    shape = next(iter(inputs.values())).shape
    for name, arr in inputs.items():
        if arr.shape != shape:
            raise NttParameterError(
                f"chain input {name!r} has shape {arr.shape[:-1]}, "
                f"expected {shape[:-1]}"
            )
    meta = _chain_meta(steps, ntt.q, ntt.n, ntt.table.root, psi)
    out = _run_sharded(executor, [meta], "rows", inputs, shape, as_ints)
    return out[0] if flat else out


class ParNtt:
    """A batched NTT whose rows are computed across the worker pool.

    Same contract as :class:`repro.fast.ntt.FastNtt` (bit-exact with the
    faithful engine); a ``(batch, n)`` input is sharded into contiguous
    row ranges, one per worker. Flat ``(n,)`` inputs degenerate to a
    single shard — correct, but all the parallelism lives in the batch.
    """

    def __init__(
        self,
        n: int,
        q: int,
        root: Optional[int] = None,
        table: Optional[TwiddleTable] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.plan = FastNtt(n, q, root=root, table=table)
        self.executor = executor

    @classmethod
    def from_plan(
        cls, plan: FastNtt, executor: Optional[ParallelExecutor] = None
    ) -> "ParNtt":
        """Wrap an existing fast plan (shares its twiddle table)."""
        self = cls.__new__(cls)
        self.plan = plan
        self.executor = executor
        return self

    @property
    def n(self) -> int:
        """Transform size."""
        return self.plan.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.plan.q

    def forward(self, values, natural_order: bool = True):
        """Forward NTT, row-sharded when given ``(batch, n)`` input."""
        return self._transform(values, "forward", natural_order)

    def inverse(self, values, natural_order: bool = True):
        """Inverse NTT including the ``1/n`` scaling (row-sharded)."""
        return self._transform(values, "inverse", natural_order)

    def _transform(self, values, direction: str, natural_order: bool):
        return _run_rows(
            self.executor,
            f"ntt.{direction}",
            fast_chain.transform_steps(direction, natural_order),
            {"x": values},
            self.plan,
        )

    def pointwise_mul(self, f, g):
        """Element-wise spectral product (in-process: one vector pass)."""
        return self.plan.pointwise_mul(f, g)

    def cyclic_multiply(self, f, g):
        """Length-``n`` cyclic convolution, row-sharded over the pool."""
        return _run_rows(
            self.executor,
            "ntt.cyclic_mul",
            fast_chain.CYCLIC_MUL_STEPS,
            {"x": f, "y": g},
            self.plan,
        )


class ParNegacyclic:
    """Negacyclic polynomial multiplication sharded across the pool.

    Mirrors :class:`repro.fast.ntt.FastNegacyclic`; ``multiply`` on a
    ``(batch, n)`` stack cuts the batch into per-worker row ranges.
    """

    def __init__(
        self,
        n: int,
        q: int,
        psi: Optional[int] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        self.fast = FastNegacyclic(n, q, psi=psi)
        self.executor = executor

    @classmethod
    def from_plan(
        cls, plan: FastNegacyclic, executor: Optional[ParallelExecutor] = None
    ) -> "ParNegacyclic":
        """Wrap an existing fast negacyclic plan (shares psi + twiddles)."""
        self = cls.__new__(cls)
        self.fast = plan
        self.executor = executor
        return self

    @property
    def n(self) -> int:
        """Ring dimension."""
        return self.fast.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.fast.q

    @property
    def psi(self) -> int:
        """The primitive ``2n``-th root used for twisting."""
        return self.fast.psi

    def forward(self, values):
        """Twisted forward transform (in-process on the fast engine)."""
        return self.fast.forward(values)

    def inverse(self, values):
        """Inverse of :meth:`forward` (in-process on the fast engine)."""
        return self.fast.inverse(values)

    def multiply(self, f, g):
        """Negacyclic product ``f * g mod (x^n + 1, q)``, row-sharded."""
        return _run_rows(
            self.executor,
            "ntt.polymul",
            fast_chain.NEGACYCLIC_MUL_STEPS,
            {"x": f, "y": g},
            self.fast.plan,
            self.fast.psi,
        )

    def multiply_add(self, f, g, acc):
        """Fused ``f * g + acc mod (x^n + 1, q)`` — one dispatch per shard.

        The keyswitch-shaped multiply-accumulate: previously this cost a
        ``multiply`` batch plus a BLAS ``vector_add`` batch (two pool
        round trips, two stagings of the intermediate product); as a
        fused chain the product never leaves the worker.
        """
        return _run_rows(
            self.executor,
            "ntt.polymul_add",
            fast_chain.NEGACYCLIC_MUL_ADD_STEPS,
            {"x": f, "y": g, "z": acc},
            self.fast.plan,
            self.fast.psi,
        )


class ParChain:
    """User-specified fused op chains dispatched as single pool tasks.

    A chain (see :mod:`repro.fast.chain`) composes NTT / twist /
    pointwise / BLAS steps over named registers; the whole program runs
    worker-side against resident planes, so an NTT→pointwise→INTT
    pipeline costs **one** dispatch round trip instead of three. With an
    r52 modulus the intermediates additionally stay in 52-bit limb-plane
    form across steps.

    ``psi`` (or ``negacyclic=True``) enables twist steps; chains without
    twists only need ``n``/``q`` (and optionally ``root``).
    """

    def __init__(
        self,
        n: int,
        q: int,
        psi: Optional[int] = None,
        negacyclic: Optional[bool] = None,
        root: Optional[int] = None,
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        if negacyclic is None:
            negacyclic = psi is not None
        if negacyclic:
            self.neg: Optional[FastNegacyclic] = FastNegacyclic(n, q, psi=psi)
            self.ntt = self.neg.plan
        else:
            self.neg = None
            self.ntt = FastNtt(n, q, root=root)
        self.executor = executor

    @property
    def n(self) -> int:
        """Transform size."""
        return self.ntt.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.ntt.q

    def run(self, steps: Sequence[dict], **inputs):
        """Execute ``steps`` over the named ``inputs``, row-sharded.

        Input registers are ``(batch, n)`` stacks (or flat ``(n,)``
        vectors) coerced exactly like the fast engine's operands; the
        chain's ``"out"`` register is returned in the same form. The
        chain is validated in-process before any staging, so a
        malformed program raises immediately rather than through a
        worker error.
        """
        steps = [dict(step) for step in steps]
        needed = fast_chain.chain_input_names(steps)
        fast_chain.validate_steps(steps, needed)
        if self.neg is None and any(
            step.get("kind") == "twist" for step in steps
        ):
            raise NttParameterError(
                "chain has twist steps but this ParChain has no psi "
                "(construct it with psi=... or negacyclic=True)"
            )
        missing = [name for name in needed if name not in inputs]
        if missing:
            raise NttParameterError(
                f"chain reads input registers {missing} that were not "
                f"provided (got {sorted(inputs)})"
            )
        return _run_rows(
            self.executor,
            "chain",
            steps,
            {name: inputs[name] for name in needed},
            self.ntt,
            self.neg.psi if self.neg is not None else None,
        )


class ParBlasPlan:
    """The four BLAS operations sharded over the element axis.

    Mirrors :class:`repro.fast.blas.FastBlasPlan`: operands are coerced
    and validated in-process (so errors surface immediately with the
    fast engine's messages), then the flattened element range is cut
    into one contiguous piece per worker.
    """

    def __init__(
        self,
        q: int,
        executor: Optional[ParallelExecutor] = None,
        plan: Optional[FastBlasPlan] = None,
    ) -> None:
        self.q = q
        self.fast = plan or FastBlasPlan(q)
        self.executor = executor

    def vector_add(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x + y) mod q``."""
        return self._sharded("vector_add", x, y)

    def vector_sub(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x - y) mod q``."""
        return self._sharded("vector_sub", x, y)

    def vector_mul(self, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """Point-wise ``(x * y) mod q``."""
        return self._sharded("vector_mul", x, y)

    def axpy(self, a: int, x: IntMatrix, y: IntMatrix) -> IntMatrix:
        """``(a * x + y) mod q`` for scalar ``a``."""
        check_reduced(a, self.q, "a")
        return self._sharded("axpy", x, y, a=a)

    def _sharded(self, blas_op: str, x, y, a: Optional[int] = None):
        xa, ya, as_ints = self.fast._coerce_pair(x, y)
        label = f"blas.{blas_op}"
        count("engine.<engine>.calls.<op>", "parallel", label)
        count("engine.<engine>.elements.<op>", "parallel", label, amount=xa.size // 2)
        step = {"kind": "blas", "blas_op": blas_op, "x": "x", "y": "y",
                "dst": fast_chain.OUT_REGISTER}
        if a is not None:
            step["a"] = a
        flat_x = np.ascontiguousarray(xa.reshape(-1, 2))
        flat_y = np.ascontiguousarray(ya.reshape(-1, 2))
        out = _run_sharded(
            self.executor,
            [_chain_meta([step], self.q)],
            "elems",
            {"x": flat_x, "y": flat_y},
            flat_x.shape,
        )
        out = out.reshape(xa.shape)
        return limbs_to_ints(out) if as_ints else out


def parallel_rns_mul(
    ring,
    f_residues: List[List[int]],
    g_residues: List[List[int]],
    executor: Optional[ParallelExecutor] = None,
) -> List[List[int]]:
    """One RNS ring multiplication with all residue channels fused.

    Packs the ``k`` per-prime residue polynomials of both operands into
    single ``(k, n, 2)`` shared segments and dispatches ``k`` one-row
    convolution chains (negacyclic or cyclic, matching the ring) in a
    single pool batch — every prime's NTTs run concurrently instead of
    the sequential per-prime loop of the in-process engines.

    ``ring`` is an :class:`repro.rns.poly.RnsPolynomialRing` on any
    engine: the chains need only ``ring.n`` and each prime's plan
    constants (``psi`` for a negacyclic ring, the twiddle root for a
    cyclic one). Returns the residue rows as lists of ints.
    """
    primes = ring.basis.primes
    k, n = len(primes), ring.n
    for name, residues in (("f_residues", f_residues), ("g_residues", g_residues)):
        rows = len(residues) if isinstance(residues, (list, tuple, np.ndarray)) else None
        if rows != k:
            raise ArithmeticDomainError(
                f"{name} must hold one residue row per prime ({k}), got {rows}"
            )
    fa = np.empty((k, n, 2), dtype=LIMB_DTYPE)
    ga = np.empty((k, n, 2), dtype=LIMB_DTYPE)
    steps = (
        fast_chain.NEGACYCLIC_MUL_STEPS
        if ring.negacyclic
        else fast_chain.CYCLIC_MUL_STEPS
    )
    metas = []
    for i, q in enumerate(primes):
        plan = ring._ntt[q]
        ntt = plan.plan if ring.negacyclic else plan
        psi = plan.psi if ring.negacyclic else None
        # Pack and range-check in process, per prime, so a bad operand
        # fails fast with the fast engine's error instead of a retried
        # worker failure.
        mod = FastModulus.get(q)
        for name, residues, packed in (
            ("f_residues", f_residues, fa), ("g_residues", g_residues, ga)
        ):
            row = mod.to_limbs(residues[i], f"{name}[{i}]")
            if row.shape != (n, 2):
                raise ArithmeticDomainError(
                    f"{name}[{i}] must be {n} residues, got shape {row.shape[:-1]}"
                )
            packed[i] = row
        metas.append(_chain_meta(steps, q, n, ntt.table.root, psi))
    count("engine.<engine>.calls.<op>", "parallel", "rns.mul")
    count("engine.<engine>.elements.<op>", "parallel", "rns.mul", amount=k * n)
    return _run_sharded(
        executor, metas, "rows", {"x": fa, "y": ga}, (k, n, 2), as_ints=True
    )
