"""Vectorized modular arithmetic on double-word limb arrays.

:class:`FastModulus` is the NumPy analogue of a kernel backend's
:class:`~repro.kernels.backend.ModulusContext`: one precomputation per
modulus, then whole-vector ``addmod`` / ``submod`` / ``mulmod`` over
``(..., 2)`` uint64 limb arrays. Addition and subtraction run Listing 1's
carry structure and Equation 7's borrow/add-back on the two words
directly. Products run on the 52-bit redundant-limb substrate of
:mod:`repro.fast.r52` at every width through 124 bits, one block of
:data:`BLOCK_ELEMENTS` elements at a time (:func:`_r52_blocks`). Results
agree bit for bit with :mod:`repro.arith.dwmod` and with all four kernel
backends.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from math import prod
from typing import Callable, Optional, Union

import numpy as np

from repro.arith.barrett import BarrettParams
from repro.arith.dwmod import check_modulus_128
from repro.errors import ArithmeticDomainError
from repro.fast.limbs import (
    LIMB_DTYPE,
    IntVector,
    add128_nocarry,
    geq128,
    limbs_from_ints,
    limbs_from_words,
    limbs_to_ints,
    r52_join,
    r52_split,
    select128,
    sub128,
)
from repro.fast.r52 import LimbPlanes, R52Modulus, get_r52_modulus
from repro.obs.hooks import count

#: Process-wide memoized moduli, keyed by ``q`` and LRU-bounded like the
#: twiddle cache (see ``FastModulus.get``): an RNS ring cycling through
#: many channel primes must not re-derive Barrett and r52 constants at
#: every plan construction, nor grow without limit.
_MODULUS_CACHE: "OrderedDict[int, FastModulus]" = OrderedDict()
_MODULUS_LOCK = threading.Lock()

#: Default bound on cached FastModulus instances.
DEFAULT_CACHE_CAPACITY = 64


#: Moduli below this bound take the narrow packing path of
#: :meth:`FastModulus.to_limbs`: every reduced residue fits one word.
_NARROW_BOUND = 1 << 63


def pack_words(values: IntVector) -> Optional[np.ndarray]:
    """Python ints in ``[0, 2^64)`` as a ``uint64`` array, or ``None``.

    A flat sequence gives ``(n,)``, a sequence of equal-length rows
    ``(rows, n)``. The rows fill one ``array('Q')`` (``fromlist`` for
    lists), which accepts only integers (bools included) and raises on
    anything else, so floats, ``np.float64`` elements, numeric strings,
    negatives, values of ``2^64`` and up, ragged rows and deeper nesting
    all give ``None``. ``np.array(..., dtype=np.int64)`` and
    ``np.fromiter`` would convert ``1.5`` and ``"3"`` instead.
    """
    if not isinstance(values, (list, tuple)):
        return None
    nested = bool(values) and not isinstance(values[0], int)
    rows = values if nested else (values,)
    buf = array("Q")
    try:
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                return None
            if isinstance(row, list):
                buf.fromlist(row)
            else:
                buf.extend(row)
    except (TypeError, OverflowError):
        return None
    words = np.frombuffer(buf, dtype=LIMB_DTYPE) if buf else np.empty(0, dtype=LIMB_DTYPE)
    return words.reshape(len(rows), width) if nested else words


def _pack_narrow(values: IntVector) -> Optional[np.ndarray]:
    """Python ints below ``2^64`` as a limb array, or ``None`` if not all are."""
    words = pack_words(values)
    return None if words is None else limbs_from_words(words)


#: Elements per block of a general-operand r52 product
#: (:func:`_r52_blocks`). A whole-array 124-bit product allocates about
#: 220 B of temporaries per element at its peak; per block they stay in
#: cache.
BLOCK_ELEMENTS = 8192


def _r52_blocks(
    r: R52Modulus, op: Callable[..., LimbPlanes], *operands: np.ndarray
) -> np.ndarray:
    """``op`` on r52 limb planes, :data:`BLOCK_ELEMENTS` elements at a time.

    Each block of the ``(..., 2)`` operands is split into 52-bit planes,
    ``op`` runs on them and the result is joined into one preallocated
    output of the operands' broadcast shape. Operands broadcast as in
    NumPy: a ``(2,)`` single value or an ``(n, 2)`` row against a
    ``(batch, n, 2)`` stack. An output that fits one block is computed
    in one pass.
    """

    def run(dst: np.ndarray, *blocks: np.ndarray) -> None:
        r52_join(op(*(r52_split(b, r.limbs) for b in blocks)), out=dst)

    shape = np.broadcast_shapes(*(x.shape for x in operands))
    out = np.empty(shape, dtype=LIMB_DTYPE)
    if prod(shape[:-1]) <= BLOCK_ELEMENTS:
        run(out, *operands)
        return out
    n = shape[-2]
    rows = out.reshape(-1, n, 2)
    views = [
        x if x.ndim == 1 else np.broadcast_to(x, shape).reshape(rows.shape)
        for x in operands
    ]
    row_step, col_step = max(1, BLOCK_ELEMENTS // n), min(n, BLOCK_ELEMENTS)
    for r0 in range(0, rows.shape[0], row_step):
        for c0 in range(0, n, col_step):
            block = (slice(r0, r0 + row_step), slice(c0, c0 + col_step))
            run(rows[block], *(x if x.ndim == 1 else x[block] for x in views))
    return out


class FastModulus:
    """Per-modulus state for vectorized modular arithmetic (``q <= 2^124``).

    ``addmod``/``submod`` stay double-word (a 128-bit add is two NumPy
    passes, cheaper than any repack); ``mulmod`` runs on the bound
    :class:`~repro.fast.r52.R52Modulus` in cache-sized blocks. The public
    array layout is ``(..., 2)`` uint64 throughout.

    Attributes:
        q: The modulus (Python int).
        params: The shared :class:`~repro.arith.barrett.BarrettParams`.
        m: The modulus as a ``(2,)`` limb array (broadcasts over vectors).
        r52: The bound :class:`~repro.fast.r52.R52Modulus`.
    """

    def __init__(self, q: int) -> None:
        check_modulus_128(q)
        self.q = q
        self.params = BarrettParams(q)
        self.params.check_width(128)
        self.beta = self.params.beta
        self.m = limbs_from_ints(q)
        self.r52 = get_r52_modulus(q)

    @classmethod
    def get(cls, q: int) -> "FastModulus":
        """The process-wide memoized modulus for ``q``.

        Mirrors :meth:`repro.ntt.twiddles.TwiddleTable.get`: every fast
        plan constructs its modulus through this cache, so repeated
        ``RnsPolynomialRing`` channel construction shares one Barrett /
        r52 precomputation per prime. Evictions bump the
        ``fastmod.evictions`` counter.
        """
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.get(q)
            if mod is not None:
                _MODULUS_CACHE.move_to_end(q)
                return mod
        mod = cls(q)
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.setdefault(q, mod)
            _MODULUS_CACHE.move_to_end(q)
            while len(_MODULUS_CACHE) > DEFAULT_CACHE_CAPACITY:
                _MODULUS_CACHE.popitem(last=False)
                count("fastmod.evictions")
        return mod

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all memoized moduli (tests, long-lived processes)."""
        with _MODULUS_LOCK:
            _MODULUS_CACHE.clear()

    @classmethod
    def cache_size(cls) -> int:
        """Number of cached moduli."""
        with _MODULUS_LOCK:
            return len(_MODULUS_CACHE)

    def __repr__(self) -> str:
        return f"FastModulus(q={self.q})"

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------

    def to_limbs(self, values: IntVector, name: str = "values") -> np.ndarray:
        """Pack and range-check operands: every element must be in [0, q).

        Limb arrays pass through unchanged (after the range check). For a
        one-word modulus (``q < 2^63``) Python ints pack one
        ``array('Q', row)`` per row (:func:`pack_words`) instead of one
        ``to_bytes`` per element; any input that packing rejects (floats,
        strings, negatives, ragged rows, values of ``2^64`` and up) takes
        the general path and fails exactly as it does there.
        """
        arr = _pack_narrow(values) if self.q < _NARROW_BOUND else None
        if arr is None:
            arr = limbs_from_ints(values)
        self.check_reduced(arr, name)
        return arr

    def check_reduced(self, arr: np.ndarray, name: str = "values") -> None:
        """Vectorized reduced-operand check (mirrors ``check_reduced``)."""
        bad = geq128(arr, self.m)
        if bad.any():
            index = np.argwhere(np.atleast_1d(bad))[0]
            raise ArithmeticDomainError(
                f"{name}[{', '.join(str(i) for i in index)}] is not reduced "
                f"modulo {self.q}"
            )

    # ------------------------------------------------------------------
    # Modular operations (bit-exact against repro.arith.dwmod)
    # ------------------------------------------------------------------

    def addmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a + b) mod q`` element-wise on limb arrays.

        The sum of two reduced operands is below ``2q < 2^125``, so the
        128-bit add cannot carry out (the paper's carry elision) and one
        trial subtraction finishes the job.
        """
        total = add128_nocarry(a, b)
        diff, borrow = sub128(total, self.m)
        return select128(~borrow, diff, total)

    def submod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a - b) mod q`` element-wise: borrow then conditional add-back."""
        diff, borrow = sub128(a, b)
        fixed = add128_nocarry(diff, self.m)
        return select128(borrow, fixed, diff)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(a * b) mod q`` element-wise (broadcasting).

        The guard-bit Barrett product of
        :meth:`repro.fast.r52.R52Modulus.mulmod`, run over 52-bit limb
        planes in blocks (:func:`_r52_blocks`); bit-identical to
        :func:`repro.arith.dwmod.mulmod128`.
        """
        return _r52_blocks(self.r52, self.r52.mulmod, a, b)

    # ------------------------------------------------------------------
    # Int-level conveniences (the engine's scalar escape hatch)
    # ------------------------------------------------------------------

    def addmod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x + y) mod q`` on Python-int inputs (packs, computes, unpacks)."""
        return limbs_to_ints(self.addmod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))

    def submod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x - y) mod q`` on Python-int inputs."""
        return limbs_to_ints(self.submod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))

    def mulmod_ints(self, x: IntVector, y: IntVector) -> Union[int, list]:
        """``(x * y) mod q`` on Python-int inputs."""
        return limbs_to_ints(self.mulmod(self.to_limbs(x, "x"), self.to_limbs(y, "y")))
