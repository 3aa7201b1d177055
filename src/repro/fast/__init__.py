"""``repro.fast`` — the NumPy-vectorized execution engine.

The library has two ways to run the paper's kernels:

* the **faithful** engine (:mod:`repro.kernels`): lane-accurate ISA
  simulation, one instruction at a time — the thing that gets traced,
  scheduled and estimated;
* this **fast** engine: the same modular arithmetic computed on whole
  ``uint64`` ndarrays at once — the thing that computes actual results
  at speed (examples, the RNS pipeline, verification).

Both produce bit-identical outputs for every modulus up to 124 bits; the
``engine="fast"`` switch on :class:`~repro.ntt.simd.SimdNtt`,
:class:`~repro.ntt.negacyclic.NegacyclicNtt`,
:class:`~repro.blas.ops.BlasPlan` and
:class:`~repro.rns.poly.RnsPolynomialRing` selects between them.

The fast engine multiplies on two kernels. Transforms (and every chain
built on them) run on the limb-split float64 GEMM kernel of
:mod:`repro.fast.gemm` for 16–62-bit moduli; every other transform and
every general-operand product (BLAS ``vector_mul``/``axpy``, standalone
point-wise products) runs on the 52-bit redundant-limb substrate of
:mod:`repro.fast.r52`, which mirrors AVX-512 IFMA's ``madd52lo/hi``
split and batches carry propagation once per NTT stage. General-operand
products run it in cache-sized blocks (:mod:`repro.fast.modular`).
The choice follows from the op and the modulus width; no caller picks
it. A fast-engine RNS ring keeps each polynomial's residues as one
packed block between operations (:mod:`repro.fast.rns`). See
``docs/PERFORMANCE.md`` for the design and measured speedups.
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
from repro.fast.r52 import R52Modulus, R52Ntt, get_r52_modulus

__all__ = [
    "FastBlasPlan",
    "FastModulus",
    "FastNegacyclic",
    "FastNtt",
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
]
