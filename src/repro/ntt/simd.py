"""Backend-driven SIMD NTT using the Pease constant-geometry dataflow.

This is the library's equivalent of the paper's hand-written NTT kernels
(Section 3.2): every stage loads contiguous blocks of the low and high
halves, loads a contiguous twiddle vector from the precomputed table,
runs the modular butterfly on the configured backend (scalar / AVX2 /
AVX-512 / MQX), interleaves the results with unpack/permute instructions,
and stores two contiguous output blocks.

Running a transform inside a :func:`repro.isa.trace.tracing` region yields
the complete dynamic instruction trace; :mod:`repro.perf` uses one
representative block per stage instead (the stream is identical across
blocks), which keeps performance estimation O(1) in ``n``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import NttParameterError
from repro.fast.chain import CYCLIC_MUL_STEPS, transform_steps
from repro.kernels.backend import Backend, ModulusContext
from repro.ntt.chain import run_chain
from repro.ntt.twiddles import TwiddleTable, bit_reverse_permutation

#: The execution engines a transform can run on (see
#: docs/PERFORMANCE.md): ``"faithful"`` simulates the configured ISA
#: backend instruction by instruction (traceable, estimable);
#: ``"fast"`` computes the identical results on whole NumPy vectors;
#: ``"parallel"`` shards batched fast-engine work across the
#: :mod:`repro.par` worker pool (still bit-identical).
ENGINES = ("faithful", "fast", "parallel")


class SimdNtt:
    """An ``n``-point NTT over ``Z_q`` bound to one kernel backend.

    Args:
        n: Transform size (power of two, at least ``2 * backend.lanes``).
        q: NTT-friendly modulus (``n | q - 1``, at most 124 bits).
        backend: A :class:`~repro.kernels.backend.Backend` instance.
        algorithm: ``"schoolbook"`` or ``"karatsuba"`` for the modular
            multiplications (Section 5.5's sensitivity knob).
        root: Optional explicit primitive ``n``-th root of unity.
        engine: ``"faithful"`` (default — every transform runs as a
            :mod:`repro.fast.chain` step tuple through the faithful
            interpreter, :func:`repro.ntt.chain.run_chain`, on the ISA
            simulator, so it can be traced and estimated),
            ``"fast"`` (bit-identical results computed on the
            NumPy-vectorized engine, for when only the values matter) or
            ``"parallel"`` (fast-engine results with batched rows
            sharded across the :mod:`repro.par` worker pool).
    """

    def __init__(
        self,
        n: int,
        q: int,
        backend: Backend,
        algorithm: str = "schoolbook",
        root: Optional[int] = None,
        twiddle_mode: str = "barrett",
        engine: str = "faithful",
    ) -> None:
        self.table = TwiddleTable.get(n, q, root or 0)
        self.backend = backend
        if n < 2 * backend.lanes:
            raise NttParameterError(
                f"a {n}-point NTT cannot fill {backend.lanes}-lane blocks; "
                f"need n >= {2 * backend.lanes}"
            )
        if twiddle_mode not in ("barrett", "shoup", "lazy"):
            raise NttParameterError(
                f"twiddle_mode must be 'barrett', 'shoup' or 'lazy', "
                f"got {twiddle_mode!r}"
            )
        #: "barrett" (the paper's general-operand method), "shoup"
        #: (Harvey's precomputed-twiddle butterfly) or "lazy" (Shoup plus
        #: Harvey's [0, 4q) lazy ranges with one final normalization).
        self.twiddle_mode = twiddle_mode
        if engine not in ENGINES:
            raise NttParameterError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        # Availability cascade (parallel → fast): a valid but
        # currently unavailable engine degrades with a warning instead
        # of failing the construction site (see repro.resil.degrade).
        from repro.resil.degrade import resolve_engine

        engine = resolve_engine(engine, site="SimdNtt")
        self.engine = engine
        self.ctx: ModulusContext = backend.make_modulus(q, algorithm=algorithm)
        self._shoup_cache: dict = {}
        #: The vectorized twin plan, sharing this plan's twiddle table so
        #: both engines use identical constants, and its pool-sharded
        #: wrapper (batched rows split across the ParallelExecutor).
        self.fast_plan = self.par_plan = None
        if engine != "faithful":
            from repro.fast.ntt import FastNtt

            self.fast_plan = FastNtt(n, q, table=self.table)
        if engine == "parallel":
            from repro.par.api import ParNtt

            self.par_plan = ParNtt.from_plan(self.fast_plan)

    @property
    def n(self) -> int:
        """Transform size."""
        return self.table.n

    @property
    def q(self) -> int:
        """Modulus."""
        return self.table.q

    @property
    def butterflies(self) -> int:
        """Total butterflies in one transform: ``(n/2) log2 n``."""
        return (self.n // 2) * self.table.stages

    def forward(self, values, natural_order: bool = True):
        """Forward NTT (bit-reversed raw output unless ``natural_order``).

        Flat vectors or ``(batch, n)`` row lists, on every engine.
        """
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.forward(values, natural_order=natural_order)
        return run_chain(
            transform_steps("forward", natural_order), {"x": values}, self
        )

    def inverse(self, values, natural_order: bool = True):
        """Inverse NTT including the 1/n scaling.

        With ``natural_order=False`` the input is expected in the
        bit-reversed order :meth:`forward` produces raw.
        """
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.inverse(values, natural_order=natural_order)
        return run_chain(
            transform_steps("inverse", natural_order), {"x": values}, self
        )

    def cyclic_multiply(self, f, g):
        """Length-``n`` cyclic convolution ``f * g mod (x^n - 1, q)``.

        Runs :data:`~repro.fast.chain.CYCLIC_MUL_STEPS`: two forward
        transforms, a point-wise product and an inverse transform.
        """
        twin = self.par_plan or self.fast_plan
        if twin is not None:
            return twin.cyclic_multiply(f, g)
        return run_chain(CYCLIC_MUL_STEPS, {"x": f, "y": g}, self)

    def _transform(self, values: List[int], inverse: bool, natural: bool) -> List[int]:
        """One transform of a validated row (the chain's ``ntt`` step)."""
        n = self.n
        backend = self.backend
        lanes = backend.lanes
        half = n // 2
        mode = self.twiddle_mode
        if inverse and not natural:
            x = bit_reverse_permutation(values)
        else:
            x = list(values)
        for stage in range(self.table.stages):
            twiddles = self.table.pease_stage_twiddles(stage, inverse)
            shoup_tw = (
                self._shoup_stage(stage, inverse)
                if mode in ("shoup", "lazy")
                else None
            )
            out = [0] * n
            for base in range(0, half, lanes):
                top = backend.load_block(x[base : base + lanes])
                bottom = backend.load_block(x[base + half : base + half + lanes])
                tw = backend.load_block(twiddles[base : base + lanes])
                if mode == "barrett":
                    plus, minus = backend.butterfly(top, bottom, tw, self.ctx)
                else:
                    tw_s = backend.load_block(shoup_tw[base : base + lanes])
                    if mode == "lazy":
                        plus, minus = backend.butterfly_lazy(
                            top, bottom, tw, tw_s, self.ctx
                        )
                    else:
                        plus, minus = backend.butterfly_shoup(
                            top, bottom, tw, tw_s, self.ctx
                        )
                blk0, blk1 = backend.interleave(plus, minus)
                out[2 * base : 2 * base + lanes] = backend.store_block(blk0)
                out[2 * base + lanes : 2 * base + 2 * lanes] = backend.store_block(
                    blk1
                )
            x = out
        if mode == "lazy":
            # One final normalization pass instead of per-butterfly ones.
            reduced = []
            for base in range(0, n, lanes):
                block = backend.load_block(x[base : base + lanes])
                reduced.extend(
                    backend.store_block(
                        backend.reduce_from_lazy(block, self.ctx)
                    )
                )
            x = reduced
        if inverse:
            return self._scale(bit_reverse_permutation(x))
        return bit_reverse_permutation(x) if natural else x

    def _shoup_stage(self, stage: int, inverse: bool):
        """Precomputed Shoup constants ``floor(w * 2^128 / q)`` per stage."""
        key = (stage, inverse)
        if key not in self._shoup_cache:
            q = self.q
            self._shoup_cache[key] = [
                (w << 128) // q
                for w in self.table.pease_stage_twiddles(stage, inverse)
            ]
        return self._shoup_cache[key]

    def _scale(self, values: List[int]) -> List[int]:
        backend = self.backend
        lanes = backend.lanes
        n_inv = backend.broadcast_dw(self.table.n_inverse)
        out: List[int] = []
        for base in range(0, len(values), lanes):
            block = backend.load_block(values[base : base + lanes])
            scaled = backend.mulmod(block, n_inv, self.ctx)
            out.extend(backend.store_block(scaled))
        return out

    # ------------------------------------------------------------------
    # Performance-model hooks
    # ------------------------------------------------------------------

    def blocks_per_stage(self) -> int:
        """SIMD blocks processed per stage (``n / (2 * lanes)``)."""
        return self.n // (2 * self.backend.lanes)

    def stage_bytes_touched(self) -> int:
        """Bytes moved per stage: reads of x + twiddles, writes of out.

        Each of the ``n`` input residues (16 bytes) is read once, each of
        the ``n/2`` twiddles is read once, and ``n`` outputs are written.
        """
        return self.n * 16 + (self.n // 2) * 16 + self.n * 16

    def stage_working_set(self) -> int:
        """Resident bytes during a stage: in + out buffers + twiddles.

        This is the quantity behind the paper's L2-spill hypothesis: at
        n = 2^15 the two ping-pong buffers hold ~1 MB of 128-bit residues,
        doubling to ~2 MB at 2^16, which exceeds Intel Xeon's 1.28 MB
        per-core L2 (Section 5.4).
        """
        return 2 * self.n * 16 + (self.n // 2) * 16
