"""Vectorized 128-bit limb arithmetic on ``uint64`` ndarrays.

The fast engine represents a vector of 128-bit values as a
``(..., 2)``-shaped ``uint64`` array — ``[..., 0]`` is the low word,
``[..., 1]`` the high word, exactly the (high, low) register-pair split
the paper's SIMD kernels use (Figure 2), but with the lane dimension
grown to the whole vector. NumPy has no 128-bit integer dtype, so every
primitive here is built from 64-bit word operations with explicit
carry/borrow propagation. Products never run on this layout: they
repack into the 52-bit limb planes of :func:`r52_split` (the r52
substrate of :mod:`repro.fast.r52`) and back with :func:`r52_join`.

All operations broadcast: a single value stored as a ``(2,)`` array
combines with a whole ``(n, 2)`` vector or a ``(batch, n, 2)`` stack of
RNS residue channels.

NumPy's unsigned arithmetic wraps modulo ``2^64``, which is precisely
the word semantics the carry chains need — no masking required.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ArithmeticDomainError

#: Dtype of every limb array.
LIMB_DTYPE = np.uint64

IntVector = Union[int, Sequence[int], Sequence[Sequence[int]], np.ndarray]


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def limbs_from_ints(values: IntVector) -> np.ndarray:
    """Pack Python ints (< 2^128) into a ``(..., 2)`` uint64 limb array.

    Accepts a single int (-> shape ``(2,)``), a flat sequence
    (-> ``(n, 2)``), or a nested sequence of equal-length rows
    (-> ``(batch, n, 2)``). The packing goes through ``int.to_bytes``
    so the per-element Python cost is one C call, not bigint shifting.
    """
    if isinstance(values, np.ndarray):
        if values.dtype != LIMB_DTYPE or values.shape[-1:] != (2,):
            raise ArithmeticDomainError(
                "limb arrays must be uint64 with trailing dimension 2; "
                f"got dtype {values.dtype}, shape {values.shape}"
            )
        return values
    if isinstance(values, int):
        return _pack_flat([values]).reshape(2)
    values = list(values)
    if values and not isinstance(values[0], int):
        if not all(isinstance(row, (list, tuple, np.ndarray)) for row in values):
            raise ArithmeticDomainError(
                "values must be ints in [0, 2^128) or rows of them; got "
                f"{type(values[0]).__name__} {values[0]!r} first"
            )
        rows = [_pack_flat(list(row)) for row in values]
        width = rows[0].shape[0]
        for row in rows:
            if row.shape[0] != width:
                raise ArithmeticDomainError(
                    "batched rows must all have the same length"
                )
        return np.stack(rows)
    return _pack_flat(values)


def _pack_flat(values: List[int]) -> np.ndarray:
    try:
        raw = b"".join(v.to_bytes(16, "little") for v in values)
    except (OverflowError, AttributeError) as exc:
        raise ArithmeticDomainError(
            f"values must be ints in [0, 2^128): {exc}"
        ) from exc
    return (
        np.frombuffer(raw, dtype=LIMB_DTYPE).reshape(-1, 2).copy()
        if values
        else np.empty((0, 2), dtype=LIMB_DTYPE)
    )


def limbs_from_words(words: np.ndarray) -> np.ndarray:
    """``(...)`` one-word ``uint64`` values as a ``(..., 2)`` limb array."""
    arr = np.zeros(words.shape + (2,), dtype=LIMB_DTYPE)
    arr[..., 0] = words
    return arr


def limbs_to_ints(limbs: np.ndarray) -> Union[int, List[int], List[List[int]]]:
    """Unpack a limb array back into Python ints (shape-preserving).

    When every high word is zero (any modulus below ``2^64``) the low
    words already are the values, and one ``tolist`` call unpacks them.
    Otherwise the two word planes are combined as object arrays: NumPy
    runs ``(hi << 64) | lo`` per element in C, and ``tolist`` then only
    builds the row lists — no per-element container for the cyclic GC
    to track.
    """
    if limbs.ndim not in (1, 2, 3):
        raise ArithmeticDomainError(
            f"cannot unpack a limb array of rank {limbs.ndim}"
        )
    lo = limbs[..., 0]
    if not limbs[..., 1].any():
        return lo.tolist()
    values = limbs[..., 1].astype(object)
    np.left_shift(values, 64, out=values)
    np.bitwise_or(values, lo, out=values)
    return values.tolist()


# ---------------------------------------------------------------------------
# Word-level helpers
# ---------------------------------------------------------------------------


def _wrapping(fn):
    """Silence NumPy's 0-d overflow warning: wraparound is the semantics.

    Array operations wrap silently, but the same primitives applied to a
    single broadcast value (0-d views of a ``(2,)`` array) go through
    NumPy's scalar path, which warns on intended modular wraparound.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# 128-bit (double-word) operations
# ---------------------------------------------------------------------------


@_wrapping
def add128(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """128-bit add: ``(sum mod 2^128, carry_out)`` with vector carries."""
    lo = a[..., 0] + b[..., 0]
    hi1 = a[..., 1] + b[..., 1]
    hi = hi1 + (lo < a[..., 0])
    return np.stack([lo, hi], axis=-1), (hi1 < a[..., 1]) | (hi < hi1)


@_wrapping
def add128_nocarry(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """128-bit add when the carry-out is provably dead.

    Matches the paper's 124-bit-modulus carry elision (Section 3.1): the
    wrap modulo ``2^128`` is exactly what the conditional add-back in
    modular subtraction wants.
    """
    lo = a[..., 0] + b[..., 0]
    hi = a[..., 1] + b[..., 1] + (lo < a[..., 0])
    return np.stack([lo, hi], axis=-1)


@_wrapping
def sub128(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """128-bit subtract: ``(diff mod 2^128, borrow_out)``."""
    a_lo, a_hi = a[..., 0], a[..., 1]
    b_lo, b_hi = b[..., 0], b[..., 1]
    lo = a_lo - b_lo
    borrow_lo = (a_lo < b_lo).astype(LIMB_DTYPE)
    hi1 = a_hi - b_hi
    borrow1 = a_hi < b_hi
    hi = hi1 - borrow_lo
    borrow2 = hi1 < borrow_lo
    return np.stack([lo, hi], axis=-1), borrow1 | borrow2


def geq128(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-element ``a >= b`` on limb arrays (boolean array)."""
    a_lo, a_hi = a[..., 0], a[..., 1]
    b_lo, b_hi = b[..., 0], b[..., 1]
    return (a_hi > b_hi) | ((a_hi == b_hi) & (a_lo >= b_lo))


def select128(cond: np.ndarray, if_true: np.ndarray, if_false: np.ndarray) -> np.ndarray:
    """Per-element select by a boolean condition (the SIMD blend)."""
    return np.where(cond[..., None], if_true, if_false)


# ---------------------------------------------------------------------------
# 52-bit redundant-limb packing (the r52 substrate's resident format)
# ---------------------------------------------------------------------------

#: Width of one r52 limb — the IFMA / float64-mantissa digit size.
LIMB52_BITS = 52

#: Low 52 bits of a word (52-bit limb mask).
MASK52 = np.uint64((1 << LIMB52_BITS) - 1)

_S52 = np.uint64(52)
_S12 = np.uint64(12)
_S40 = np.uint64(40)


@_wrapping
def r52_split(arr: np.ndarray, limbs: int) -> List[np.ndarray]:
    """Repack a ``(..., 2)`` double-word array into 52-bit limb planes.

    Returns ``limbs`` separate contiguous ``uint64`` arrays (plane ``k``
    holds bits ``[52k, 52k + 52)`` of each element) — the layout
    :mod:`repro.fast.r52` computes on. Separate planes beat a strided
    ``(..., L)`` axis for whole-vector passes, the same reason the IFMA
    kernel keeps three register planes per residue vector.
    """
    lo = arr[..., 0]
    hi = arr[..., 1]
    if limbs == 1:
        planes = [lo & MASK52]
    elif limbs == 2:
        planes = [lo & MASK52, ((lo >> _S52) | (hi << _S12)) & MASK52]
    elif limbs == 3:
        planes = [
            lo & MASK52,
            ((lo >> _S52) | (hi << _S12)) & MASK52,
            (hi >> _S40) & MASK52,
        ]
    else:
        raise ArithmeticDomainError(
            f"r52 limb count must be 1, 2 or 3, got {limbs}"
        )
    return [np.ascontiguousarray(p) for p in planes]


@_wrapping
def r52_join(
    planes: Sequence[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`r52_split`: 52-bit planes back to ``(..., 2)``.

    Every plane must be canonical (strictly below ``2^52``); redundant
    (carry-deferred) planes must be normalized first. ``out``, when
    given, is a ``(..., 2)`` array (or view) the words are written into.
    """
    limbs = len(planes)
    if limbs == 1:
        lo = planes[0]
        hi = np.zeros_like(lo)
    elif limbs == 2:
        lo = planes[0] | (planes[1] << _S52)
        hi = planes[1] >> _S12
    elif limbs == 3:
        lo = planes[0] | (planes[1] << _S52)
        hi = (planes[1] >> _S12) | (planes[2] << _S40)
    else:
        raise ArithmeticDomainError(
            f"r52 limb count must be 1, 2 or 3, got {limbs}"
        )
    if out is None:
        return np.stack([lo, hi], axis=-1)
    out[..., 0] = lo
    out[..., 1] = hi
    return out
