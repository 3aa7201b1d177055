"""The NTT as limb-split float64 GEMMs — the fast engine's 51–62-bit kernel.

The host's widest multiplier is the BLAS ``dgemm``, not an element-wise
``uint64`` pass. For moduli of 51 to 62 bits :class:`GemmNtt` runs each
transform as two matrix products (the four-step split ``n = n1 * n2``)
on ``w``-bit limbs, with the reduction after each product done by a
float-quotient ``mulmod`` — the same trade FHECore makes on tensor cores
and the IFMA notes make on x86: integer products on the floating-point
unit. See ``docs/PERFORMANCE.md`` for the measurements.

Indexing
    ``j = n2*j1 + j2`` (input), ``k = k1 + n1*k2`` (output). A transform
    holds its spectrum *resident* as a ``(n1, batch, n2)`` ``uint64``
    array indexed ``[k1, b, k2]``; it is gathered into natural or
    bit-reversed order only when a chain exposes it.

Forward (``L = 3`` limbs of ``w = ceil(beta/3)`` bits)
    1. ``R = BW1 @ A``: ``BW1`` is ``(L*n1, L*n1)``, rows ``(m, k1)``,
       columns ``(l, j1)``, entry = limb ``m`` of
       ``w1[k1, j1] * 2^(w*l) mod q``; ``A`` stacks the ``w``-bit limbs
       ``A_l[j1, (b, j2)]`` of the input. Every ``R_m`` is an exact
       integer below ``2^(2w + log2(L*n1))``.
    2. ``C[k1, b, j2] = sum_m R_m * c_m[k1, j2] mod q`` with
       ``c_m = 2^(w*m) * t[k1, j2] mod q``: the reduction carries the
       twiddle, so there is no separate twiddle pass.
    3. ``R2 = A2 @ BW2``: the limbs of ``C`` against one shared
       ``(L*n2, L*n2)`` matrix, then a reduction by the scalars
       ``2^(w*m)``.

    With ``omega = r^a``, twist ``r^(t*j)`` (cyclic: ``r = omega, a = 1,
    t = 0``; negacyclic: ``r = psi, a = 2, t = 1``) the exponents are
    ``w1 = n2*j1*(a*k1 + t)``, ``t = j2*(a*k1 + t)`` and
    ``w2 = a*n1*j2*k2`` — so the psi twist folds into ``BW1`` and the
    step-2 constants. The inverse runs the same steps in the opposite
    order with negated exponents, and folds ``1/n`` (and the untwist)
    into its ``(L*n1)^2`` matrix.

Float-quotient mulmod
    ``qhat = floor(R * fl(c/q))`` is within 1 of ``floor(R*c/q)`` while
    ``R*c/q < 2^50``, so ``r = R*c - qhat*q`` (wrapping ``uint64``) lies
    in ``[-q, 2q)``; adding ``q`` and two ``min(r, r - q)`` passes give
    ``[0, q)``. Three ``[-q, 2q)`` terms would overflow 64 bits at 62-bit
    ``q``, so each term is reduced before it is summed.
    ``tests/test_fast_gemm.py`` enumerates this bound at a scaled-down
    float precision.

Routing (:func:`gemm_split`)
    GEMM serves ``51 <= beta <= 62`` when the sums stay below
    ``2^50`` (``2w + ceil(log2(L*max(n1, n2))) <= 50``: exact in float64
    with the three bits the quotient needs) and the tables of one
    direction pair fit :data:`GEMM_TABLE_BUDGET`. Everything else runs
    the r52 stage loop. Tables are built lazily, per direction, from one
    power table of ``r`` (``omega^e * psi^f = psi^(2e + f)``).
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
import warnings
from contextlib import contextmanager
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arith.modular import inv_mod
from repro.errors import NttParameterError
from repro.obs.hooks import count

#: Limbs per residue: ``w * L >= beta`` with ``w <= 21``.
GEMM_LIMBS = 3

#: Modulus widths (``q.bit_length()``) the GEMM kernel serves. Widths of
#: 50 bits and below stay on r52's one-limb stage loop (the GEMM is also
#: faster there, see docs/PERFORMANCE.md); above 62 bits three limbs no
#: longer fit the 50-bit sum bound.
GEMM_MIN_BETA = 51
GEMM_MAX_BETA = 62

#: Bound on ``log2`` of a dgemm output entry: sums are exact in float64
#: (53 bits) and the float-quotient reduction stays within one of the
#: true quotient (``R < 2^50``).
GEMM_SUM_BITS = 50

#: Largest table set (forward and inverse of one cyclic or negacyclic
#: plan) the router accepts, in bytes.
GEMM_TABLE_BUDGET = 2 << 20

#: Residues one GEMM pass transforms at a time (4 rows at n = 4096):
#: a batch runs in row chunks so the float64 limb and product arrays,
#: about 12 bytes per residue each, stay small whatever the batch size.
GEMM_CHUNK_ELEMENTS = 1 << 14

_U64 = np.uint64
_F64 = np.float64


def _sum_bits(w: int, n1: int, n2: int) -> int:
    return 2 * w + math.ceil(math.log2(GEMM_LIMBS * max(n1, n2)))


def table_bytes(n1: int, n2: int) -> int:
    """Bytes of one forward-plus-inverse table set for the split ``n1*n2``.

    Per direction: the two limb-expanded matrices and the ``L`` twiddle
    constant planes with their float quotients.
    """
    L = GEMM_LIMBS
    per_direction = 8 * ((L * n1) ** 2 + (L * n2) ** 2) + 2 * 8 * L * n1 * n2
    return 2 * per_direction


def gemm_split(n: int, beta: int) -> Optional[Tuple[int, int, int]]:
    """``(n1, n2, w)`` for an ``n``-point transform at ``beta`` bits, or ``None``.

    ``None`` routes the plan to the r52 stage loop: the width is outside
    51–62 bits, the sums would exceed :data:`GEMM_SUM_BITS`, or the tables
    would exceed :data:`GEMM_TABLE_BUDGET`.
    """
    if not GEMM_MIN_BETA <= beta <= GEMM_MAX_BETA or n < 2:
        return None
    log_n = n.bit_length() - 1
    n1 = 1 << ((log_n + 1) // 2)
    n2 = n // n1
    w = -(-beta // GEMM_LIMBS)
    if _sum_bits(w, n1, n2) > GEMM_SUM_BITS:
        return None
    if table_bytes(n1, n2) > GEMM_TABLE_BUDGET:
        return None
    return n1, n2, w


# ---------------------------------------------------------------------------
# BLAS thread pinning
# ---------------------------------------------------------------------------


class _BlasThreads:
    """Pins OpenBLAS to one thread around the kernel's dgemms.

    The kernel's products are small (``(192 x 192) @ (192 x 64)`` at
    n = 4096); OpenBLAS's thread hand-off costs far more than they do
    (8.0 ms median with 2 threads against 0.11 ms with one, on a 2-vCPU
    host). The thread count is process-wide, so nested and concurrent
    pins share one saved count and the last one out restores it.

    The count is OpenBLAS's exported ``blas_cpu_number``, read and
    written directly. The library's setter ``openblas_set_num_threads``
    is not used: it first restarts the thread pool that a ``fork`` shut
    down, and the new pool thread spins for about 0.1 s of CPU before it
    sleeps; in a forked pool worker, pinned to one CPU, that spin delayed
    the worker enough for its sibling to take both shards of a batch. A
    single-threaded dgemm never needs the pool, so writing the count
    leaves it down. Where the variable is not exported the kernel runs
    with the library's own count and says so once.
    """

    def __init__(self) -> None:
        self._get, self._set = self._entry_points()
        self._reset()
        if hasattr(os, "register_at_fork"):
            # A fork while another thread holds the lock must not leave
            # the child's copy locked.
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    @staticmethod
    def _entry_points():
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
            try:
                count = ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
            except (OSError, ValueError):
                continue

            def set_count(threads: int) -> None:
                count.value = threads

            return (lambda: count.value), set_count
        warnings.warn(
            "OpenBLAS thread count not found next to NumPy; the GEMM "
            "NTT runs with the BLAS library's own thread count",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, None

    @contextmanager
    def single(self):
        if self._set is None:
            yield
            return
        with self._lock:
            if self._depth == 0:
                self._saved = self._get()
                if self._saved != 1:
                    self._set(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0 and self._saved != 1:
                    self._set(self._saved)


_BLAS: Optional[_BlasThreads] = None
_BLAS_INIT = threading.Lock()


def blas_single_thread():
    """Context manager running its body with OpenBLAS on one thread."""
    global _BLAS
    if _BLAS is None:
        with _BLAS_INIT:
            if _BLAS is None:
                _BLAS = _BlasThreads()
    return _BLAS.single()


# ---------------------------------------------------------------------------
# Float-quotient modular arithmetic on uint64 residues
# ---------------------------------------------------------------------------


def _fold(r: np.ndarray, q: _U64) -> np.ndarray:
    """``[0, 3q)`` -> ``[0, q)`` in place: two ``min(r, r - q)`` passes."""
    for _ in range(2):
        np.minimum(r, r - q, out=r)
    return r


class GemmModulus:
    """Float-quotient ``mulmod`` for one modulus of 51–62 bits."""

    def __init__(self, q: int, w: int) -> None:
        self.q = q
        self.w = w
        self._q = _U64(q)
        self._mask = _U64((1 << w) - 1)
        self._two_w = _U64(1 << w)
        self._two_w_f = float(1 << w) / q

    def reduce_terms(self, terms: Sequence[tuple]) -> np.ndarray:
        """``sum_m R_m * c_m mod q`` for float64 ``R_m < 2^50``.

        ``terms`` holds ``(R, c, cf)`` with ``c`` a ``uint64`` constant
        (array or scalar) and ``cf = c / q`` its float quotient. Each
        term is reduced to ``[0, q)`` before it is added.
        """
        q = self._q
        acc = None
        for R, c, cf in terms:
            qh = np.multiply(R, cf).astype(_U64)
            r = R.astype(_U64)
            r *= c
            qh *= q
            r -= qh
            r += q  # [-q, 2q) -> [0, 3q)
            _fold(r, q)
            if acc is None:
                acc = r
            else:
                acc += r
                np.minimum(acc, acc - q, out=acc)
        return acc

    def horner(self, hi: np.ndarray, hi_f, lo: np.ndarray, lo_f, c, cf) -> np.ndarray:
        """``(hi * 2^w + lo * c) mod q`` for ``hi < 2^64``, ``lo*c/q < 2^50``.

        One float-quotient step of a Horner evaluation: ``hi_f`` and
        ``lo_f`` are the float images of ``hi`` and ``lo``.
        """
        q = self._q
        qh = hi_f * self._two_w_f
        qh += lo_f * cf
        qh = qh.astype(_U64)
        r = hi * self._two_w
        r += lo * c
        qh *= q
        r -= qh
        r += q
        return _fold(r, q)

    def mulmod(self, a: np.ndarray, b) -> np.ndarray:
        """``a * b mod q`` for residues below ``q`` (``b`` may be a scalar).

        Horner over the ``w``-bit limbs of ``a``: three ``limb * b``
        float-quotient products and two ``* 2^w`` steps.
        """
        q = self._q
        w = _U64(self.w)
        b = np.asarray(b, dtype=_U64)
        bf = b.astype(_F64) / float(self.q)
        a2 = a >> (w + w)
        qh = (a2.astype(_F64) * bf).astype(_U64)
        acc = a2 * b
        qh *= q
        acc -= qh
        acc += q
        _fold(acc, q)
        for shift in (w, _U64(0)):
            limb = (a >> shift) & self._mask
            acc = self.horner(acc, acc.astype(_F64), limb, limb.astype(_F64), b, bf)
        return acc


# ---------------------------------------------------------------------------
# Tables and transforms
# ---------------------------------------------------------------------------


def _power_table(root: int, order: int, q: int) -> np.ndarray:
    powers = [1] * order
    for i in range(1, order):
        powers[i] = powers[i - 1] * root % q
    return np.array(powers, dtype=_U64)


class GemmTables:
    """One plan's tables: ``r`` of order ``N`` (``omega`` / ``n`` or ``psi`` / ``2n``).

    :attr:`forward` and :attr:`inverse` are built on first use, each in
    one pass of NumPy gathers over the scaled power tables
    ``P_l[i] = r^i * 2^(w*l) mod q``.
    """

    def __init__(self, kernel: "GemmNtt", root: int, order: int) -> None:
        self.kernel = kernel
        self.root = root
        self.order = order
        #: ``omega = r^a``; the twist is ``r^(t*j)``.
        self._a = order // kernel.n
        self._t = self._a - 1

    def _scaled(self) -> np.ndarray:
        """``(L, N)`` table ``r^i * 2^(w*l) mod q``."""
        k = self.kernel
        base = _power_table(self.root, self.order, k.q)
        return np.stack([k.mod.mulmod(base, 1 << (k.w * l)) for l in range(GEMM_LIMBS)])

    def _limbs(self, values: np.ndarray) -> np.ndarray:
        """``(L, ...)`` float64 ``w``-bit limbs of ``values`` (new leading axis)."""
        k = self.kernel
        return np.stack(
            [((values >> _U64(k.w * m)) & k.mod._mask).astype(_F64) for m in range(GEMM_LIMBS)]
        )

    def _left(self, P: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """``(L*r, L*c)`` matrix, rows ``(m, row)``, columns ``(l, col)``."""
        L = GEMM_LIMBS
        rows, cols = exps.shape
        g = self._limbs(P[:, exps])  # (m, l, row, col)
        return np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(L * rows, L * cols)

    def _right(self, P: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """``(L*r, L*c)`` matrix, rows ``(l, row)``, columns ``(m, col)``."""
        L = GEMM_LIMBS
        rows, cols = exps.shape
        g = self._limbs(P[:, exps])  # (m, l, row, col)
        return np.ascontiguousarray(g.transpose(1, 2, 0, 3)).reshape(L * rows, L * cols)

    def _twiddles(self, P: np.ndarray, exps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``c_m[k1, 1, j2]`` constants and their float quotients."""
        c = P[:, exps][:, :, None, :]
        return c, c.astype(_F64) / float(self.kernel.q)

    def _exponents(self, sign: int):
        k = self.kernel
        N = self.order
        i1 = np.arange(k.n1, dtype=np.int64)
        i2 = np.arange(k.n2, dtype=np.int64)
        ak = self._a * i1 + self._t  # a*k1 + t
        e1 = (sign * k.n2 * np.outer(ak, i1)) % N  # [k1, j1]
        et = (sign * np.outer(ak, i2)) % N  # [k1, j2]
        e2 = (sign * self._a * k.n1 * np.outer(i2, i2)) % N  # [j2, k2]
        return e1, et, e2

    @cached_property
    def forward(self) -> tuple:
        """``(BW1, c, cf, BW2)``: step-1 matrix, twiddle constants, step-2 matrix."""
        P = self._scaled()
        e1, et, e2 = self._exponents(+1)
        c, cf = self._twiddles(P, et)
        return self._left(P, e1), c, cf, self._right(P, e2)

    @cached_property
    def inverse(self) -> tuple:
        """``(V2, c, cf, V1)``: the inverse's matrices, ``1/n`` folded into ``V1``."""
        k = self.kernel
        P = self._scaled()
        e1, et, e2 = self._exponents(-1)
        c, cf = self._twiddles(P, et)
        # V1 rows are the output index j1 and columns the summed k1: the
        # forward's [k1, j1] exponents transposed.
        V1 = self._left(k.mod.mulmod(P, inv_mod(k.n % k.q, k.q)), e1.T)
        return self._right(P, e2), c, cf, V1

    def twist_vector(self, inverse: bool) -> np.ndarray:
        """``r^j`` (or ``r^-j``) for ``j < n``: an unfolded twist's multiplier."""
        q = self.kernel.q
        root = inv_mod(self.root, q) if inverse else self.root
        return _power_table(root, self.kernel.n, q)

    def nbytes(self) -> int:
        """Bytes of the tables built so far."""
        built = [self.__dict__[d] for d in ("forward", "inverse") if d in self.__dict__]
        return sum(a.nbytes for tables in built for a in tables)


class GemmNtt:
    """An ``n``-point NTT over ``Z_q`` as two limb-split float64 GEMMs.

    Args:
        n, q: Transform size and modulus.
        root: The plan's primitive ``n``-th root of unity ``omega``.
        split: ``(n1, n2, w)`` from :func:`gemm_split`.
    """

    def __init__(self, n: int, q: int, root: int, split: Tuple[int, int, int]) -> None:
        n1, n2, w = split
        if n1 * n2 != n or w * GEMM_LIMBS < q.bit_length():
            raise NttParameterError(f"bad GEMM split {split} for n={n}, q={q}")
        if _sum_bits(w, n1, n2) > GEMM_SUM_BITS:
            raise NttParameterError(
                f"GEMM sums of 2^{_sum_bits(w, n1, n2)} exceed the "
                f"2^{GEMM_SUM_BITS} bound (n={n}, w={w})"
            )
        self.n, self.q, self.root = n, q, root
        self.n1, self.n2, self.w = n1, n2, w
        self.mod = GemmModulus(q, w)
        # Final reduction constants 2^(w*m) (below q: 2w < beta).
        self._scalars = [(_U64(1 << (w * m)), float(1 << (w * m)) / q) for m in range(GEMM_LIMBS)]

    @cached_property
    def cyclic(self) -> GemmTables:
        """Tables of the plain transform (built on first use)."""
        return GemmTables(self, self.root, self.n)

    def negacyclic(self, psi: int) -> GemmTables:
        """Tables with the ``psi`` twist and untwist folded in."""
        return GemmTables(self, psi, 2 * self.n)

    # -- limb layouts ------------------------------------------------------

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """``(n1, B, n2)`` residues -> ``(L*n1, B*n2)`` limb rows ``(l, i1)``."""
        L, (n1, B, n2) = GEMM_LIMBS, x.shape
        out = np.empty((L,) + x.shape, dtype=_F64)
        self._split_into(x, out, 0)
        return out.reshape(L * n1, B * n2)

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """``(n1, B, n2)`` residues -> ``(n1*B, L*n2)`` limb columns ``(l, i2)``."""
        n1, B, n2 = x.shape
        out = np.empty((n1, B, GEMM_LIMBS, n2), dtype=_F64)
        self._split_into(x, out, 2)
        return out.reshape(n1 * B, GEMM_LIMBS * n2)

    def _split_into(self, x: np.ndarray, out: np.ndarray, axis: int) -> None:
        w, mask = self.w, self.mod._mask
        index = [slice(None)] * out.ndim
        for l in range(GEMM_LIMBS):
            index[axis] = l
            limb = x >> _U64(w * l) if l else x
            out[tuple(index)] = limb & mask if l < GEMM_LIMBS - 1 else limb

    def _reduce_scalar(self, R: List[np.ndarray]) -> np.ndarray:
        return self.mod.reduce_terms(
            [(R[m], c, cf) for m, (c, cf) in enumerate(self._scalars)]
        )

    # -- transforms --------------------------------------------------------

    def forward(self, x: np.ndarray, tables: GemmTables) -> np.ndarray:
        """Natural-order ``(B, n)`` residues -> resident ``(n1, B, n2)`` spectrum."""
        B = x.shape[0]
        step = max(1, GEMM_CHUNK_ELEMENTS // self.n)
        with blas_single_thread():
            if B <= step:
                return self._forward_rows(x, tables.forward)
            out = np.empty((self.n1, B, self.n2), dtype=_U64)
            for start in range(0, B, step):
                rows = slice(start, start + step)
                out[:, rows] = self._forward_rows(x[rows], tables.forward)
        return out

    def inverse(self, spec: np.ndarray, tables: GemmTables) -> np.ndarray:
        """Resident ``(n1, B, n2)`` spectrum -> natural-order ``(B, n)`` residues."""
        B = spec.shape[1]
        step = max(1, GEMM_CHUNK_ELEMENTS // self.n)
        with blas_single_thread():
            if B <= step:
                return self._inverse_rows(spec, tables.inverse)
            out = np.empty((B, self.n), dtype=_U64)
            for start in range(0, B, step):
                rows = slice(start, start + step)
                out[rows] = self._inverse_rows(spec[:, rows], tables.inverse)
        return out

    def _forward_rows(self, x: np.ndarray, tables: tuple) -> np.ndarray:
        n1, n2, L = self.n1, self.n2, GEMM_LIMBS
        B = x.shape[0]
        BW1, c, cf, BW2 = tables
        X = x.reshape(B, n1, n2).transpose(1, 0, 2)
        R = (BW1 @ self._rows(X)).reshape(L, n1, B, n2)
        C = self.mod.reduce_terms([(R[m], c[m], cf[m]) for m in range(L)])
        del R
        R2 = (self._cols(C) @ BW2).reshape(n1, B, L, n2)
        count("engine.fast.gemm.dgemms", amount=2)
        return self._reduce_scalar([R2[:, :, m] for m in range(L)])

    def _inverse_rows(self, spec: np.ndarray, tables: tuple) -> np.ndarray:
        n1, n2, L = self.n1, self.n2, GEMM_LIMBS
        B = spec.shape[1]
        V2, c, cf, V1 = tables
        R = (self._cols(spec) @ V2).reshape(n1, B, L, n2)
        U = self.mod.reduce_terms([(R[:, :, m], c[m], cf[m]) for m in range(L)])
        del R
        R2 = (V1 @ self._rows(U)).reshape(L, n1, B, n2)
        count("engine.fast.gemm.dgemms", amount=2)
        out = self._reduce_scalar([R2[m] for m in range(L)])
        return out.transpose(1, 0, 2).reshape(B, self.n)

    # -- resident <-> public order -----------------------------------------

    def expose(self, spec: np.ndarray, bitrev: Optional[np.ndarray]) -> np.ndarray:
        """Resident spectrum -> ``(B, n)``, natural or (``bitrev`` given) bit-reversed."""
        B = spec.shape[1]
        nat = spec.transpose(1, 2, 0).reshape(B, self.n)
        return nat if bitrev is None else nat[:, bitrev]

    def absorb(self, values: np.ndarray, bitrev: Optional[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`expose`: ``(B, n)`` spectrum -> resident view."""
        if bitrev is not None:
            values = values[:, bitrev]
        B = values.shape[0]
        return values.reshape(B, self.n2, self.n1).transpose(2, 0, 1)
