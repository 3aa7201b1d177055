"""Polynomial multiplication via NTT (Section 2.3).

The convolution theorem: multiply the (zero-padded) NTTs point-wise and
transform back. Both the plain-integer and backend-driven paths are
provided; the latter exercises the full paper pipeline (SIMD NTT + BLAS
point-wise multiplication + SIMD inverse NTT).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import NttParameterError
from repro.kernels.backend import Backend
from repro.ntt.radix2 import intt, ntt
from repro.ntt.simd import SimdNtt
from repro.ntt.twiddles import TwiddleTable
from repro.util.checks import check_power_of_two


def _padded_size(out_len: int) -> int:
    size = 2  # the smallest supported transform
    while size < out_len:
        size *= 2
    return size


def ntt_polymul(f: List[int], g: List[int], q: int) -> List[int]:
    """Cyclic-convolution polynomial multiplication on plain integers.

    Zero-pads to the next power of two covering ``len(f) + len(g) - 1``,
    so the cyclic convolution equals the linear one (Equation 10).
    """
    if not f or not g:
        raise NttParameterError("polynomials must be non-empty")
    out_len = len(f) + len(g) - 1
    size = _padded_size(out_len)
    table = TwiddleTable.get(size, q)
    fa = ntt(f + [0] * (size - len(f)), q, table=table)
    ga = ntt(g + [0] * (size - len(g)), q, table=table)
    prod = [a * b % q for a, b in zip(fa, ga)]
    return intt(prod, q, table=table)[:out_len]


def simd_ntt_polymul(
    f: List[int],
    g: List[int],
    q: int,
    backend: Backend,
    algorithm: str = "schoolbook",
    plan: Optional[SimdNtt] = None,
    engine: str = "faithful",
) -> List[int]:
    """Polynomial multiplication through the backend-driven pipeline.

    Forward-transforms both inputs with the SIMD NTT (leaving them in
    bit-reversed order - point-wise multiplication is order-agnostic),
    multiplies point-wise with the backend's ``mulmod``, and inverse
    transforms. A prebuilt ``plan`` (a :class:`SimdNtt` of the right size)
    can be supplied to amortize twiddle precomputation; its engine takes
    precedence over the ``engine`` argument. With a fast (or parallel)
    plan the whole product is one fused
    :meth:`~repro.fast.ntt.FastNtt.cyclic_multiply` chain on the
    vectorized engine: one pack, one unpack.
    """
    if not f or not g:
        raise NttParameterError("polynomials must be non-empty")
    out_len = len(f) + len(g) - 1
    size = _padded_size(out_len)
    check_power_of_two(size, "padded size")
    if plan is None:
        plan = SimdNtt(size, q, backend, algorithm=algorithm, engine=engine)
    elif plan.n != size or plan.q != q:
        raise NttParameterError(
            f"plan is for n={plan.n}, q={plan.q}; need n={size}, q={q}"
        )

    fp = f + [0] * (size - len(f))
    gp = g + [0] * (size - len(g))
    if plan.fast_plan is not None:
        return plan.fast_plan.cyclic_multiply(fp, gp)[:out_len]

    fa = plan.forward(fp, natural_order=False)
    ga = plan.forward(gp, natural_order=False)
    lanes = backend.lanes
    prod = []
    for base in range(0, size, lanes):
        a = backend.load_block(fa[base : base + lanes])
        b = backend.load_block(ga[base : base + lanes])
        prod.extend(backend.store_block(backend.mulmod(a, b, plan.ctx)))
    return plan.inverse(prod, natural_order=False)[:out_len]
