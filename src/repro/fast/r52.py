"""52-bit redundant-limb arithmetic — the fast engine's r52 substrate.

This module is the NumPy reproduction of Intel HEXL's core idea (see
``docs/PERFORMANCE.md``): keep residues as 52-bit limbs in ``uint64``
lanes, mirror the ``vpmadd52luq``/``vpmadd52huq`` split as vectorized
64-bit multiplies whose partial products *stay redundant*, and batch
carry propagation — once per NTT stage, once per BLAS op — instead of
chaining carries through every multiply the way the double-word
(``repro.fast.limbs``) substrate must.

Representation
    A vector mod ``q`` is ``L`` separate contiguous ``uint64`` planes,
    plane ``k`` holding bits ``[52k, 52k + 52)`` of each element
    (:func:`repro.fast.limbs.r52_split`). ``L`` is the smallest limb
    count with ``beta <= 52L - 2`` (``beta = q.bit_length()``): one limb
    through 50 bits, two through 102, three through 124. The two spare
    bits guarantee *both* that Harvey's lazy range ``[0, 4q)`` fits the
    radix ``2^(52L)`` and that every Barrett intermediate below stays
    in ``L`` limbs — so the lazy NTT path is available at every width.

The high half of a 52x52-bit product is obtained the way IFMA hardware
does it for free and floats do it almost for free: ``float64`` has a
52-bit mantissa, so ``trunc(float(a) * (float(b) * 2^-52))`` is the true
high part up to ±1, and the exact low bits (which ``uint64 * uint64``
gives us for free, wrapped) pin the correction::

    d = ((lo >> 52) - h_est) & 0xFFF;  d -= (d >> 11) << 12;  h = h_est + d

(the window is ±2048, far beyond the ±2-ish float error, and the
``uint64`` wraparound makes the correction exact).

Reduction is the shift-refined Barrett of ``arith.dwmod`` re-derived
over 52-bit limbs with one guard bit on each shift —
``mu = floor(2^(2*beta+1) / q)``, ``estimate = ((t >> (beta-2)) * mu)
>> (beta+3)`` — which tightens the quotient error to at most 1, so a
*single* conditional subtraction finishes ``mulmod`` (the classic
``beta-1``/``beta+1`` shifts of the double-word path need two).
Everything is cross-validated bit-exactly against :mod:`repro.arith.dwmod`
and the schoolbook fast path in ``tests/test_fast_r52.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arith.dwmod import check_modulus_128
from repro.errors import ArithmeticDomainError
from repro.fast.limbs import (
    LIMB52_BITS,
    MASK52,
    _wrapping,
    r52_join,
    r52_split,
)
from repro.ntt.twiddles import TwiddleTable
from repro.obs.hooks import count

#: Valid values for the ``mode=`` kwarg of ``FastModulus``/``FastBlasPlan``.
FAST_MODES = ("auto", "r52", "dw")

#: Widest modulus (``q.bit_length()``) ``auto`` routes general-operand
#: products to r52. Through 102 bits everything fits two limbs and r52
#: wins. From 103 bits a Barrett product takes two full three-limb
#: products, and the extra columns erase the win (16-row ``vector_mul``
#: at 124 bits: dw 21 ms, r52 26 ms), so ``auto`` keeps dw there.
#: Transforms ignore this bound: a Shoup twiddle product takes one full
#: product and two low halves, so they run on r52 at every width the
#: GEMM kernel does not serve (forward NTT, n=4096, 124 bits: 1.3-1.5x
#: over dw for 1-16 rows).
#: ``bench_fast.py`` duels both substrates at 100 and 124 bits.
R52_AUTO_MAX_BETA = 102

#: How many canonical 52-bit limbs one ``uint64`` lane can accumulate
#: before the deferred-carry sum can wrap: ``2^(64-52)``. This is the
#: redundancy budget HEXL's deferred carries rely on; the lazy NTT
#: consumes at most :data:`STAGE_DEFERRED_ADDS` of it per stage.
MAX_DEFERRED_ADDS = 1 << (64 - LIMB52_BITS)

#: Deferred-add depth the lazy butterfly actually accumulates between
#: carry flushes (the ``x~ + t`` wing adds two canonical values
#: limb-wise and leaves the carry for the next stage's normalize pass).
STAGE_DEFERRED_ADDS = 2

#: Lazy butterflies keep values in ``[0, LAZY_BOUND_MULTIPLE * q)``
#: between stages (Harvey's bound; must match the IFMA model).
LAZY_BOUND_MULTIPLE = 4

_U64 = np.uint64
_S52 = _U64(52)
_B52 = _U64(1 << 52)
_B52M1 = _U64((1 << 52) - 1)
_WIN_MASK = _U64(0xFFF)
_WIN_HALF = _U64(11)
_WIN_BITS = _U64(12)
_SCALE = 2.0 ** -52

LimbPlanes = List[np.ndarray]


def resolve_substrate(mode: Optional[str], q: int) -> str:
    """Resolve a requested ``mode=`` for modulus ``q`` to ``"r52"``/``"dw"``.

    ``mode=None`` means ``"auto"``, which picks r52 exactly when
    ``q.bit_length() <= R52_AUTO_MAX_BETA``.
    """
    if mode is None:
        mode = "auto"
    if mode not in FAST_MODES:
        raise ArithmeticDomainError(
            f"fast mode must be one of {FAST_MODES}, got {mode!r}"
        )
    if mode == "auto":
        return "r52" if 2 <= q.bit_length() <= R52_AUTO_MAX_BETA else "dw"
    return mode


def limb_count(beta: int) -> int:
    """Smallest ``L`` with ``beta <= 52L - 2`` (1, 2 or 3 for <= 124)."""
    for limbs in (1, 2, 3):
        if beta <= LIMB52_BITS * limbs - 2:
            return limbs
    raise ArithmeticDomainError(
        f"r52 supports moduli up to 124 bits, got beta={beta}"
    )


@_wrapping
def _exact_hi52(lo: np.ndarray, a_f: np.ndarray, b_f_scaled) -> np.ndarray:
    """Exact high 52+ bits of a limb product from its float estimate.

    ``lo`` is the wrapped ``uint64`` product (its low bits are exact),
    ``a_f`` the unscaled float image of one operand, ``b_f_scaled`` the
    other operand pre-multiplied by ``2^-52``. The float estimate is off
    by at most ~2; the correction window recovers the true value.
    """
    h = (a_f * b_f_scaled).astype(_U64)
    d = ((lo >> _S52) - h) & _WIN_MASK
    d -= (d >> _WIN_HALF) << _WIN_BITS
    return h + d


def _as_floats(planes: Sequence, scaled: bool) -> list:
    """Float images of limb planes (scaled ones carry the ``2^-52``)."""
    out = []
    for p in planes:
        f = p.astype(np.float64) if isinstance(p, np.ndarray) else np.float64(int(p))
        out.append(f * _SCALE if scaled else f)
    return out


class R52Modulus:
    """Per-modulus state for 52-bit redundant-limb arithmetic.

    All vector operands are lists of ``limbs`` uint64 planes (see
    module docstring); :meth:`from_dw` / :meth:`to_dw` convert to and
    from the fast engine's ``(..., 2)`` double-word layout at API
    boundaries. Canonical planes are strictly below ``2^52``; the lazy
    NTT additionally passes *redundant* planes (below ``2^53``) into
    the Shoup product, which stays exact for them by construction.
    """

    def __init__(self, q: int) -> None:
        check_modulus_128(q)
        self.q = q
        self.beta = beta = q.bit_length()
        self.limbs = L = limb_count(beta)
        self.radix_bits = LIMB52_BITS * L
        #: Guard-bit Barrett: one extra bit on each shift bounds the
        #: quotient error by 1 (single conditional subtraction).
        self.mu = (1 << (2 * beta + 1)) // q
        self.shift_pre = beta - 2
        self.shift_post = beta + 3
        mask = (1 << LIMB52_BITS) - 1
        self._q = tuple(_U64((q >> (LIMB52_BITS * k)) & mask) for k in range(L))
        self._mu = tuple(
            _U64((self.mu >> (LIMB52_BITS * k)) & mask) for k in range(L)
        )
        twoq = 2 * q
        self._twoq = tuple(
            _U64((twoq >> (LIMB52_BITS * k)) & mask) for k in range(L)
        )
        self._qf = tuple(_as_floats(self._q, scaled=True))
        self._muf = tuple(_as_floats(self._mu, scaled=True))

    def __repr__(self) -> str:
        return f"R52Modulus(q={self.q}, limbs={self.limbs})"

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------

    def from_dw(self, arr: np.ndarray) -> LimbPlanes:
        """``(..., 2)`` double-word array -> 52-bit limb planes."""
        return r52_split(arr, self.limbs)

    def to_dw(self, planes: LimbPlanes) -> np.ndarray:
        """Canonical 52-bit limb planes -> ``(..., 2)`` double words."""
        return r52_join(planes)

    def from_ints(self, values) -> LimbPlanes:
        """Python ints -> limb planes (test/bench convenience)."""
        from repro.fast.limbs import limbs_from_ints

        return self.from_dw(limbs_from_ints(values))

    def to_ints(self, planes: LimbPlanes):
        """Limb planes -> Python ints (test/bench convenience)."""
        from repro.fast.limbs import limbs_to_ints

        return limbs_to_ints(self.to_dw(planes))

    # ------------------------------------------------------------------
    # Carry machinery
    # ------------------------------------------------------------------

    @_wrapping
    def normalize(self, x: LimbPlanes) -> LimbPlanes:
        """Flush deferred carries: redundant planes -> canonical planes.

        One ripple pass (the per-stage carry batch of the lazy NTT).
        The represented value must fit the radix ``2^(52L)``.
        """
        out = list(x)
        for k in range(self.limbs - 1):
            out[k + 1] = out[k + 1] + (out[k] >> _S52)
            out[k] = out[k] & MASK52
        return out

    @_wrapping
    def _sub_chain(
        self, x: Sequence, y: Sequence
    ) -> Tuple[LimbPlanes, np.ndarray]:
        """``(x - y) mod 2^(52L)`` by base complement; returns no-borrow.

        ``x`` may be redundant (planes < ``2^53``); the output planes
        are canonical. The second return is 1 where no borrow occurred
        (i.e. ``x >= y``) — only meaningful for canonical ``x``.
        """
        out: LimbPlanes = []
        carry = None
        for k in range(self.limbs):
            acc = x[k] + (_B52 if k == 0 else _B52M1) - y[k]
            if carry is not None:
                acc = acc + carry
            out.append(acc & MASK52)
            carry = acc >> _S52
        return out, carry

    @_wrapping
    def _cond_sub(self, x: LimbPlanes, y: Sequence) -> LimbPlanes:
        """``x - y`` where ``x >= y`` (canonical planes, scalar ``y``)."""
        diff, no_borrow = self._sub_chain(x, y)
        mask = _U64(0) - no_borrow
        inv = ~mask
        return [(diff[k] & mask) | (x[k] & inv) for k in range(self.limbs)]

    def cond_sub_q(self, x: LimbPlanes) -> LimbPlanes:
        """One Barrett correction: subtract ``q`` where ``x >= q``."""
        return self._cond_sub(x, self._q)

    def cond_sub_2q(self, x: LimbPlanes) -> LimbPlanes:
        """Harvey's lazy-range correction: ``[0, 4q) -> [0, 2q)``."""
        return self._cond_sub(x, self._twoq)

    def reduce_from_lazy(self, x: LimbPlanes) -> LimbPlanes:
        """Final lazy-NTT normalization: ``[0, 4q)`` redundant -> ``[0, q)``."""
        return self.cond_sub_q(self.cond_sub_2q(self.normalize(x)))

    # ------------------------------------------------------------------
    # Products (madd52lo/madd52hi analogues, carries batched per column)
    # ------------------------------------------------------------------

    @_wrapping
    def _mul_full(
        self, a: Sequence, af: Sequence, b: Sequence, bf: Sequence
    ) -> List[np.ndarray]:
        """Exact ``2L``-column product; carries propagated once at the end.

        ``a`` may be redundant (planes < ``2^53``: still exact in
        float64 and within the correction window); ``b`` must be
        canonical with pre-scaled floats ``bf``.
        """
        L = self.limbs
        cols: List = [None] * (2 * L)
        for i in range(L):
            for j in range(L):
                lo = a[i] * b[j]
                hi = _exact_hi52(lo, af[i], bf[j])
                k = i + j
                lo52 = lo & MASK52
                cols[k] = lo52 if cols[k] is None else cols[k] + lo52
                cols[k + 1] = hi if cols[k + 1] is None else cols[k + 1] + hi
        # Column 0 is a single already-masked product — no carry out.
        for k in range(1, 2 * L - 1):
            cols[k + 1] = cols[k + 1] + (cols[k] >> _S52)
            cols[k] = cols[k] & MASK52
        return cols

    @_wrapping
    def _mul_low(
        self, a: Sequence, af: Sequence, b: Sequence, bf: Sequence
    ) -> LimbPlanes:
        """Low ``L`` limbs of the product, exactly (``mullo`` analogue)."""
        L = self.limbs
        cols: List = [None] * L
        for i in range(L):
            for j in range(L - i):
                lo = a[i] * b[j]
                k = i + j
                lo52 = lo & MASK52
                cols[k] = lo52 if cols[k] is None else cols[k] + lo52
                if k + 1 < L:
                    hi = _exact_hi52(lo, af[i], bf[j])
                    cols[k + 1] = hi if cols[k + 1] is None else cols[k + 1] + hi
        # Column 0 is a single already-masked product — no carry out.
        for k in range(1, L - 1):
            cols[k + 1] = cols[k + 1] + (cols[k] >> _S52)
            cols[k] = cols[k] & MASK52
        cols[L - 1] = cols[L - 1] & MASK52
        return cols

    def _shift_limbs(self, cols: List[np.ndarray], amount: int) -> LimbPlanes:
        """``(value >> amount)`` of a column vector, low ``L`` limbs."""
        L = self.limbs
        word, rem = divmod(amount, LIMB52_BITS)
        if rem == 0:
            return [
                cols[word + k] if word + k < len(cols)
                else np.zeros_like(cols[0])
                for k in range(L)
            ]
        r = _U64(rem)
        inv = _U64(LIMB52_BITS - rem)
        out: LimbPlanes = []
        with np.errstate(over="ignore"):
            for k in range(L):
                lo = cols[word + k] >> r if word + k < len(cols) else None
                if word + k + 1 < len(cols):
                    hi = (cols[word + k + 1] << inv) & MASK52
                    out.append(hi if lo is None else lo | hi)
                else:
                    out.append(np.zeros_like(cols[0]) if lo is None else lo)
        return out

    # ------------------------------------------------------------------
    # Modular operations (bit-exact vs repro.arith.dwmod)
    # ------------------------------------------------------------------

    @_wrapping
    def addmod(self, a: LimbPlanes, b: LimbPlanes) -> LimbPlanes:
        """``(a + b) mod q``: deferred limb adds, one flush, one cond-sub."""
        total = [a[k] + b[k] for k in range(self.limbs)]
        return self.cond_sub_q(self.normalize(total))

    @_wrapping
    def submod(self, a: LimbPlanes, b: LimbPlanes) -> LimbPlanes:
        """``(a - b) mod q``: borrow then conditional add-back of ``q``."""
        diff, no_borrow = self._sub_chain(a, b)
        fixed = self.normalize([diff[k] + self._q[k] for k in range(self.limbs)])
        # The borrow case adds back q to (a - b + 2^(52L)); dropping the
        # radix overflow is exactly the mod-2^(52L) wrap we want.
        fixed[self.limbs - 1] = fixed[self.limbs - 1] & MASK52
        mask = _U64(0) - no_borrow
        inv = ~mask
        return [
            (diff[k] & mask) | (fixed[k] & inv) for k in range(self.limbs)
        ]

    def mulmod(self, a: LimbPlanes, b: LimbPlanes) -> LimbPlanes:
        """``(a * b) mod q`` via guard-bit Barrett over 52-bit limbs.

        1. ``t = a * b`` (``2L`` columns, carries batched once),
        2. ``estimate = ((t >> (beta-2)) * mu) >> (beta+3)`` — the two
           guard bits bound ``floor(t/q) - estimate`` by 1,
        3. ``c = t - estimate * q`` modulo ``2^(52L)`` (fits: ``2q <
           2^(52L)`` by the limb-count rule),
        4. one conditional subtraction of ``q``.
        """
        af = _as_floats(a, scaled=False)
        bf = _as_floats(b, scaled=True)
        t_cols = self._mul_full(a, af, b, bf)
        s = self._shift_limbs(t_cols, self.shift_pre)
        sf = _as_floats(s, scaled=False)
        g_cols = self._mul_full(s, sf, self._mu, self._muf)
        est = self._shift_limbs(g_cols, self.shift_post)
        est_f = _as_floats(est, scaled=False)
        est_q_low = self._mul_low(est, est_f, self._q, self._qf)
        c, _ = self._sub_chain(t_cols[: self.limbs], est_q_low)
        return self.cond_sub_q(c)

    # ------------------------------------------------------------------
    # Shoup multiplication (precomputed-multiplicand path)
    # ------------------------------------------------------------------

    def shoup(self, w: int) -> tuple:
        """Precompute the Shoup pair for a fixed multiplicand ``w < q``.

        Returns ``(w_planes, w_floats, wp_planes, wp_floats)`` where
        ``wp = floor(w * 2^(52L) / q)`` — the 52-bit analogue of
        :meth:`repro.ifma.kernel.IfmaKernel.shoup_constant`.
        """
        if not 0 <= w < self.q:
            raise ArithmeticDomainError(f"Shoup multiplicand {w} not in [0, q)")
        wp = (w << self.radix_bits) // self.q
        mask = (1 << LIMB52_BITS) - 1
        w_planes = tuple(
            _U64((w >> (LIMB52_BITS * k)) & mask) for k in range(self.limbs)
        )
        wp_planes = tuple(
            _U64((wp >> (LIMB52_BITS * k)) & mask) for k in range(self.limbs)
        )
        return (
            w_planes,
            tuple(_as_floats(w_planes, scaled=True)),
            wp_planes,
            tuple(_as_floats(wp_planes, scaled=True)),
        )

    def shoup_vector(self, ws: Sequence[int]) -> tuple:
        """Vector form of :meth:`shoup` (per-element multiplicands)."""
        q = self.q
        mask = (1 << LIMB52_BITS) - 1
        shift = self.radix_bits
        wps = [(w << shift) // q for w in ws]
        w_planes = [
            np.array(
                [(w >> (LIMB52_BITS * k)) & mask for w in ws], dtype=_U64
            )
            for k in range(self.limbs)
        ]
        wp_planes = [
            np.array(
                [(w >> (LIMB52_BITS * k)) & mask for w in wps], dtype=_U64
            )
            for k in range(self.limbs)
        ]
        return (
            w_planes,
            _as_floats(w_planes, scaled=True),
            wp_planes,
            _as_floats(wp_planes, scaled=True),
        )

    @_wrapping
    def mulmod_shoup_lazy(self, y: Sequence, shoup_pair: tuple) -> LimbPlanes:
        """``(w * y) mod q`` into ``[0, 2q)`` (no final correction).

        ``y``'s *value* may be anywhere in ``[0, 2^(52L))`` — in
        particular Harvey's lazy ``[0, 4q)`` — and its planes may be
        redundant (below ``2^53``); the result planes are canonical.
        """
        w_planes, w_f, wp_planes, wp_f = shoup_pair
        yf = _as_floats(y, scaled=False)
        cols = self._mul_full(y, yf, wp_planes, wp_f)
        h = cols[self.limbs:]
        hf = _as_floats(h, scaled=False)
        wy_low = self._mul_low(y, yf, w_planes, w_f)
        hq_low = self._mul_low(h, hf, self._q, self._qf)
        r, _ = self._sub_chain(wy_low, hq_low)
        return r

    def mulmod_shoup(self, y: LimbPlanes, shoup_pair: tuple) -> LimbPlanes:
        """``(w * y) mod q`` fully reduced (lazy product + one cond-sub)."""
        return self.cond_sub_q(self.mulmod_shoup_lazy(y, shoup_pair))


class R52Ntt:
    """Constant-geometry NTT stages on the r52 substrate, Harvey-lazy.

    The stage loop of :class:`repro.fast.ntt.FastNtt` outside the GEMM
    kernel's 51–62-bit range: the Pease
    dataflow of the faithful :class:`repro.ntt.simd.SimdNtt` (same
    :class:`~repro.ntt.twiddles.TwiddleTable`, bit-identical results),
    with butterfly values kept in ``[0, 4q)`` between stages as 52-bit
    redundant limbs:

    * the ``x~ + t`` wing defers its limb carries entirely (depth
      :data:`STAGE_DEFERRED_ADDS`, against a budget of
      :data:`MAX_DEFERRED_ADDS`);
    * each stage flushes the previous stage's deferred carries in one
      batched normalize pass, then corrects the top wing into
      ``[0, 2q)`` (Harvey's ``cond_sub_2q``);
    * twiddle products use the Shoup pair ``(w, floor(w*2^(52L)/q))``
      and come out in ``[0, 2q)`` with no per-butterfly correction;
    * one final :meth:`R52Modulus.reduce_from_lazy` pass per transform
      returns canonical ``[0, q)`` residues.
    """

    #: The carry cadence, asserted against the IFMA perf model in
    #: ``tests/test_ifma.py`` so model and engine cannot drift.
    CARRY_SCHEDULE = {
        "normalize_per_stage": 1,
        "final_reduce_passes": 1,
        "butterfly_deferred_adds": STAGE_DEFERRED_ADDS,
        "lazy_bound_multiple": LAZY_BOUND_MULTIPLE,
        "max_deferred_adds": MAX_DEFERRED_ADDS,
    }

    def __init__(self, table: TwiddleTable, mod: R52Modulus) -> None:
        if table.q != mod.q:
            raise ArithmeticDomainError(
                f"twiddle table is for q={table.q}, modulus is {mod.q}"
            )
        self.table = table
        self.mod = mod
        self._stage_shoup: Dict[Tuple[int, bool], tuple] = {}

    def _stage_pair(self, stage: int, inverse: bool) -> tuple:
        key = (stage, inverse)
        cached = self._stage_shoup.get(key)
        if cached is None:
            cached = self.mod.shoup_vector(
                self.table.pease_stage_twiddles(stage, inverse)
            )
            self._stage_shoup[key] = cached
        return cached

    @_wrapping
    def run_stages(self, x: LimbPlanes, inverse: bool) -> LimbPlanes:
        """All Pease stages; canonical planes in, canonical planes out."""
        mod = self.mod
        L = mod.limbs
        half = self.table.n // 2
        twoq = mod._twoq
        stages = self.table.stages
        for stage in range(stages):
            pair = self._stage_pair(stage, inverse)
            top = [x[k][..., :half] for k in range(L)]
            bottom = [x[k][..., half:] for k in range(L)]
            # Batched carry flush for the previous stage's deferred adds,
            # then Harvey's [0, 4q) -> [0, 2q) correction on the top wing.
            xt = mod.cond_sub_2q(mod.normalize(top))
            # bottom stays redundant: the Shoup product is exact for it.
            t = mod.mulmod_shoup_lazy(bottom, pair)
            plus = [xt[k] + t[k] for k in range(L)]  # carries deferred
            minus, _ = mod._sub_chain(
                [xt[k] + twoq[k] for k in range(L)], t
            )
            out = [np.empty_like(x[k]) for k in range(L)]
            for k in range(L):
                out[k][..., 0::2] = plus[k]
                out[k][..., 1::2] = minus[k]
            x = out
        count("engine.fast.r52.carry_flushes", amount=stages + 1)
        return mod.reduce_from_lazy(x)


# ---------------------------------------------------------------------------
# Process-wide memoized R52Modulus instances (mirrors TwiddleTable.get)
# ---------------------------------------------------------------------------

_R52_CACHE: "OrderedDict[int, R52Modulus]" = OrderedDict()
_R52_LOCK = threading.Lock()
_R52_CAPACITY = 64


def get_r52_modulus(q: int) -> R52Modulus:
    """The process-wide memoized :class:`R52Modulus` for ``q``."""
    with _R52_LOCK:
        mod = _R52_CACHE.get(q)
        if mod is not None:
            _R52_CACHE.move_to_end(q)
            return mod
    mod = R52Modulus(q)
    with _R52_LOCK:
        mod = _R52_CACHE.setdefault(q, mod)
        _R52_CACHE.move_to_end(q)
        while len(_R52_CACHE) > _R52_CAPACITY:
            _R52_CACHE.popitem(last=False)
    return mod
