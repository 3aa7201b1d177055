"""``repro.fast`` — the NumPy-vectorized execution engine.

The library has two ways to run the paper's kernels:

* the **faithful** engine (:mod:`repro.kernels`): lane-accurate ISA
  simulation, one instruction at a time — the thing that gets traced,
  scheduled and estimated;
* this **fast** engine: the same double-word Barrett algorithms computed
  on whole ``uint64`` limb ndarrays at once — the thing that computes
  actual results at speed (examples, the RNS pipeline, verification).

Both produce bit-identical outputs for every modulus up to 124 bits; the
``engine="fast"`` switch on :class:`~repro.ntt.simd.SimdNtt`,
:class:`~repro.ntt.negacyclic.NegacyclicNtt`,
:class:`~repro.blas.ops.BlasPlan` and
:class:`~repro.rns.poly.RnsPolynomialRing` selects between them.

The fast engine itself has two arithmetic substrates: the double-word
(``"dw"``) schoolbook path and the 52-bit redundant-limb path of
:mod:`repro.fast.r52` (``"r52"``), which mirrors AVX-512 IFMA's
``madd52lo/hi`` split and batches carry propagation once per NTT stage.
Transforms (and every chain built on them) run on the limb-split
float64 GEMM kernel of :mod:`repro.fast.gemm` for 16–62-bit moduli and
on r52 at every other width; general-operand products (BLAS) run on r52
through :data:`~repro.fast.r52.R52_AUTO_MAX_BETA` (102) bits and on dw
above.
Only :class:`FastModulus` and :class:`FastBlasPlan` take ``mode=``, so
benchmarks can force either substrate. A fast-engine RNS ring keeps each
polynomial's residues as one packed block between operations
(:mod:`repro.fast.rns`). See ``docs/PERFORMANCE.md`` for
the design and measured speedups.
"""

from repro.fast.blas import (
    FastBlasPlan,
    fast_axpy,
    fast_vector_add,
    fast_vector_mul,
    fast_vector_sub,
)
from repro.fast.limbs import limbs_from_ints, limbs_to_ints, r52_join, r52_split
from repro.fast.modular import FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt, fast_negacyclic_polymul
from repro.fast.r52 import (
    FAST_MODES,
    R52_AUTO_MAX_BETA,
    R52Modulus,
    R52Ntt,
    get_r52_modulus,
    resolve_substrate,
)

__all__ = [
    "FAST_MODES",
    "FastBlasPlan",
    "FastModulus",
    "FastNegacyclic",
    "FastNtt",
    "R52_AUTO_MAX_BETA",
    "R52Modulus",
    "R52Ntt",
    "fast_axpy",
    "fast_negacyclic_polymul",
    "fast_vector_add",
    "fast_vector_mul",
    "fast_vector_sub",
    "get_r52_modulus",
    "limbs_from_ints",
    "limbs_to_ints",
    "r52_join",
    "r52_split",
    "resolve_substrate",
]
