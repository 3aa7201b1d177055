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


def _padded_size(out_len: int, smallest: int = 2) -> int:
    size = smallest
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

    Zero-pads both inputs to a power of two of at least ``2 *
    backend.lanes`` and runs :meth:`SimdNtt.cyclic_multiply`: forward
    transforms left in bit-reversed order (point-wise multiplication is
    order-agnostic), the backend's ``mulmod`` and an inverse transform,
    one fused chain on every engine. A prebuilt ``plan`` (a
    :class:`SimdNtt` of the right size) can be supplied to amortize
    twiddle precomputation; its engine takes precedence over the
    ``engine`` argument.
    """
    if not f or not g:
        raise NttParameterError("polynomials must be non-empty")
    out_len = len(f) + len(g) - 1
    # At least one lane block per half: extra zero padding leaves the
    # linear convolution unchanged.
    size = _padded_size(out_len, 2 * backend.lanes)
    if plan is None:
        plan = SimdNtt(size, q, backend, algorithm=algorithm, engine=engine)
    elif plan.n != size or plan.q != q:
        raise NttParameterError(
            f"plan is for n={plan.n}, q={plan.q}; need n={size}, q={q}"
        )
    fp = f + [0] * (size - len(f))
    gp = g + [0] * (size - len(g))
    return plan.cyclic_multiply(fp, gp)[:out_len]
