"""Vectorized double-word modular arithmetic (the fast engine's core).

:class:`FastModulus` is the NumPy analogue of a kernel backend's
:class:`~repro.kernels.backend.ModulusContext`: one precomputation of
the Barrett constants per modulus, then whole-vector ``addmod`` /
``submod`` / ``mulmod`` over ``(..., 2)`` uint64 limb arrays. Every
operation runs the *same algorithm* as the ISA-faithful path —
Listing 1's carry structure for addition, Equation 7's borrow/add-back
for subtraction, and the shift-refined Barrett reduction of
:func:`repro.arith.dwmod.mulmod128` (wide product, quotient estimate,
``mullo``/subtract, two conditional corrections) — so the results agree
bit for bit with :mod:`repro.arith.dwmod` and with all four kernel
backends for any modulus up to 124 bits.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Optional, Tuple, Union

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
    mullo128,
    r52_join,
    r52_split,
    select128,
    shift_right_256,
    sub128,
    wide_mul_128,
)
from repro.fast.r52 import get_r52_modulus, resolve_substrate
from repro.obs.hooks import count

#: Process-wide memoized moduli, keyed by ``(q, resolved_mode)`` and
#: LRU-bounded like the twiddle cache (see ``FastModulus.get``): an RNS
#: ring cycling through many channel primes must not re-derive Barrett
#: and r52 constants at every plan construction, nor grow without limit.
_MODULUS_CACHE: "OrderedDict[Tuple[int, str], FastModulus]" = OrderedDict()
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


class FastModulus:
    """Per-modulus state for vectorized modular arithmetic (``q <= 2^124``).

    ``mode`` picks the arithmetic substrate for ``mulmod``: ``"dw"``
    runs the 128-bit schoolbook path below, ``"r52"`` routes through
    the 52-bit redundant-limb substrate (:mod:`repro.fast.r52`), and
    ``"auto"``/``None`` picks r52 through
    :data:`~repro.fast.r52.R52_AUTO_MAX_BETA` (102) bits and dw above.
    Both substrates stay live: ``auto`` needs dw for wide
    general-operand products, transform plans always ask for ``"r52"``
    (their r52 chains run its three-limb ``mulmod`` at any width), and the
    substrate duels in ``benchmarks/bench_fast.py`` force each side.
    Results are bit-identical either way; ``addmod``/``submod`` always
    stay double-word (the repack would cost more than carry chains on
    an add). The public array layout is ``(..., 2)`` uint64 regardless.

    Attributes:
        q: The modulus (Python int).
        params: The shared :class:`~repro.arith.barrett.BarrettParams`.
        m: The modulus as a ``(2,)`` limb array (broadcasts over vectors).
        mu: Barrett ``mu`` as a ``(2,)`` limb array.
        mode: The resolved substrate, ``"r52"`` or ``"dw"``.
        r52: The bound :class:`~repro.fast.r52.R52Modulus` (or ``None``).
    """

    def __init__(self, q: int, mode: Optional[str] = None) -> None:
        check_modulus_128(q)
        self.q = q
        self.params = BarrettParams(q)
        self.params.check_width(128)
        self.beta = self.params.beta
        self.m = limbs_from_ints(q)
        self.mu = limbs_from_ints(self.params.mu)
        self.mode = resolve_substrate(mode, q)
        self.r52 = get_r52_modulus(q) if self.mode == "r52" else None

    @classmethod
    def get(cls, q: int, mode: Optional[str] = None) -> "FastModulus":
        """The process-wide memoized modulus for ``(q, mode)``.

        Mirrors :meth:`repro.ntt.twiddles.TwiddleTable.get`: every fast
        plan constructs its modulus through this cache, so repeated
        ``RnsPolynomialRing`` channel construction shares one Barrett /
        r52 precomputation per prime. Evictions bump the
        ``fastmod.evictions`` counter.
        """
        key = (q, resolve_substrate(mode, q))
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.get(key)
            if mod is not None:
                _MODULUS_CACHE.move_to_end(key)
                return mod
        mod = cls(q, mode)
        with _MODULUS_LOCK:
            mod = _MODULUS_CACHE.setdefault(key, mod)
            _MODULUS_CACHE.move_to_end(key)
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
        """Number of cached ``(q, mode)`` entries."""
        with _MODULUS_LOCK:
            return len(_MODULUS_CACHE)

    def __repr__(self) -> str:
        return f"FastModulus(q={self.q}, mode={self.mode!r})"

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
        """``(a * b) mod q`` element-wise via Barrett reduction.

        Steps (identical to :func:`repro.arith.dwmod.mulmod128` and
        :meth:`repro.kernels.backend.Backend.mulmod`):

        1. ``t = a * b`` (256-bit schoolbook),
        2. quotient estimate ``((t >> (beta-1)) * mu) >> (beta+1)``,
        3. ``c = t - estimate * q`` modulo ``2^128``,
        4. two conditional subtractions of ``q``.

        When the r52 substrate is active the same product runs over
        52-bit redundant limbs instead (identical results, fewer
        whole-vector passes); the repack happens at this boundary.
        """
        if self.r52 is not None:
            r = self.r52
            out = r.mulmod(r52_split(a, r.limbs), r52_split(b, r.limbs))
            return r52_join(out)
        t_words = wide_mul_128(a, b)
        t_shifted = shift_right_256(t_words, self.beta - 1)
        g_words = wide_mul_128(t_shifted, self.mu)
        estimate = shift_right_256(g_words, self.beta + 1)
        est_q_low = mullo128(estimate, self.m)
        c, _ = sub128(t_words[..., :2], est_q_low)
        c = self._cond_sub(c)
        c = self._cond_sub(c)
        return c

    def _cond_sub(self, x: np.ndarray) -> np.ndarray:
        """One Barrett correction: ``x - q`` where ``x >= q``."""
        diff, borrow = sub128(x, self.m)
        return select128(~borrow, diff, x)

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
