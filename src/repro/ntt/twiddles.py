"""Twiddle-factor tables and bit-reversal helpers.

The paper's kernels precompute all twiddle factors once per (n, q) pair
(the standard practice in FHE libraries); the SIMD NTT then loads per-stage
twiddle vectors from these tables inside the transform loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.arith.modular import inv_mod, pow_mod
from repro.arith.primes import root_of_unity
from repro.errors import NttParameterError
from repro.obs.hooks import count
from repro.util.checks import check_power_of_two

#: Process-wide memoized tables, keyed by ``(n, q, root)`` with ``root=0``
#: meaning "found automatically". Tables are immutable after construction
#: (the per-stage caches only ever append), so sharing one instance across
#: every plan in the process is safe — and saves the root search plus the
#: O(n) power-table build at every construction site.
#:
#: The cache is LRU-bounded: a long-lived process cycling through many
#: ``(n, q)`` pairs (a service, a chaos run over random parameters) must
#: not grow it without limit, since each table holds O(n) precomputed
#: powers plus its per-stage twiddle lists. Capacity counts *distinct
#: tables* — alias keys (the ``root=0`` ↔ resolved-root pair) live and
#: die with their table — and evictions bump ``twiddle.evictions``.
_TABLE_CACHE: "OrderedDict[Tuple[int, int, int], TwiddleTable]" = OrderedDict()
_TABLE_LOCK = threading.Lock()

#: Default bound on distinct cached tables (see ``set_cache_capacity``).
DEFAULT_CACHE_CAPACITY = 64

_cache_capacity = DEFAULT_CACHE_CAPACITY


def _touch(table: "TwiddleTable") -> None:
    """Mark every key of ``table`` most-recently-used (lock held)."""
    for key in [k for k, t in _TABLE_CACHE.items() if t is table]:
        _TABLE_CACHE.move_to_end(key)


def _evict_over_capacity() -> None:
    """Evict least-recently-used tables past capacity (lock held)."""
    while True:
        distinct = {id(t) for t in _TABLE_CACHE.values()}
        if len(distinct) <= _cache_capacity:
            return
        victim = next(iter(_TABLE_CACHE.values()))
        for key in [k for k, t in _TABLE_CACHE.items() if t is victim]:
            del _TABLE_CACHE[key]
        count("twiddle.evictions")


def bit_reverse(index: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``index``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (index & 1)
        index >>= 1
    return result


def bit_reverse_permutation(values: List[int]) -> List[int]:
    """Permute a power-of-two-length list into bit-reversed order."""
    n = len(values)
    check_power_of_two(n, "length")
    bits = n.bit_length() - 1
    return [values[bit_reverse(i, bits)] for i in range(n)]


@dataclass
class TwiddleTable:
    """Precomputed twiddles for an ``n``-point NTT over ``Z_q``.

    Attributes:
        n: Transform size (power of two).
        q: Modulus (must satisfy ``n | q - 1``).
        root: A primitive ``n``-th root of unity (found automatically when
            not supplied).
    """

    n: int
    q: int
    root: int = 0
    _powers: List[int] = field(default_factory=list, repr=False)
    _inv_powers: List[int] = field(default_factory=list, repr=False)
    _pease_stages: Dict[bool, List[List[int]]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        check_power_of_two(self.n, "n")
        if self.n < 2:
            raise NttParameterError("NTT size must be at least 2")
        if (self.q - 1) % self.n:
            raise NttParameterError(
                f"modulus {self.q} does not support a {self.n}-point NTT "
                f"(n must divide q - 1)"
            )
        if not self.root:
            self.root = root_of_unity(self.n, self.q)
        if pow_mod(self.root, self.n, self.q) != 1 or (
            self.n > 1 and pow_mod(self.root, self.n // 2, self.q) == 1
        ):
            raise NttParameterError(
                f"{self.root} is not a primitive {self.n}-th root of unity "
                f"mod {self.q}"
            )
        inv_root = inv_mod(self.root, self.q)
        power = 1
        inv_power = 1
        for _ in range(self.n):
            self._powers.append(power)
            self._inv_powers.append(inv_power)
            power = power * self.root % self.q
            inv_power = inv_power * inv_root % self.q

    @classmethod
    def get(cls, n: int, q: int, root: int = 0) -> "TwiddleTable":
        """The process-wide memoized table for ``(n, q, root)``.

        Every NTT wrapper in the library constructs its table through
        this cache, so ten plans over the same ``(n, q)`` pair share one
        root search and one power table instead of recomputing them.
        A table built with ``root=0`` is additionally cached under the
        root it resolved to, so a later explicit request for that root
        hits the same instance.
        """
        key = (n, q, root or 0)
        with _TABLE_LOCK:
            table = _TABLE_CACHE.get(key)
            if table is not None:
                _touch(table)
                return table
        table = cls(n, q, root or 0)
        with _TABLE_LOCK:
            table = _TABLE_CACHE.setdefault(key, table)
            _TABLE_CACHE.setdefault((n, q, table.root), table)
            _touch(table)
            _evict_over_capacity()
        return table

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all memoized tables (tests, long-lived processes)."""
        with _TABLE_LOCK:
            _TABLE_CACHE.clear()

    @classmethod
    def cache_size(cls) -> int:
        """Number of cached table entries (aliases included)."""
        with _TABLE_LOCK:
            return len(_TABLE_CACHE)

    @classmethod
    def cache_capacity(cls) -> int:
        """Maximum number of distinct tables the cache retains."""
        with _TABLE_LOCK:
            return _cache_capacity

    @classmethod
    def set_cache_capacity(cls, capacity: int) -> None:
        """Re-bound the cache (evicting LRU tables immediately if over).

        ``capacity`` counts distinct tables; the ``root=0`` alias of a
        table does not consume an extra slot.
        """
        if capacity < 1:
            raise NttParameterError(
                f"twiddle cache capacity must be >= 1, got {capacity}"
            )
        global _cache_capacity
        with _TABLE_LOCK:
            _cache_capacity = int(capacity)
            _evict_over_capacity()

    @property
    def stages(self) -> int:
        """Number of butterfly stages, ``log2 n``."""
        return self.n.bit_length() - 1

    @property
    def n_inverse(self) -> int:
        """``n^-1 mod q``, for inverse-NTT scaling."""
        return inv_mod(self.n % self.q, self.q)

    def power(self, exponent: int, inverse: bool = False) -> int:
        """``root^exponent`` (or ``root^-exponent``) from the table."""
        table = self._inv_powers if inverse else self._powers
        return table[exponent % self.n]

    def pease_stage_twiddles(self, stage: int, inverse: bool = False) -> List[int]:
        """Twiddles for one constant-geometry (Pease) stage.

        For stage ``s`` and butterfly index ``i`` (0 <= i < n/2) the
        exponent is ``bitrev(i mod 2^s, s) * (n >> (s + 1))`` - derived for
        the dataflow that reads ``x[i], x[i + n/2]`` and writes the pair to
        ``2i, 2i + 1``, producing bit-reversed output from natural input.
        Tables are laid out exactly in butterfly order so the SIMD kernels
        can load twiddle vectors with unit stride.
        """
        if not 0 <= stage < self.stages:
            raise NttParameterError(
                f"stage {stage} out of range for a {self.n}-point NTT"
            )
        cached = self._pease_stages.setdefault(inverse, [])
        while len(cached) <= stage:
            s = len(cached)
            half = self.n >> (s + 1)
            mask = (1 << s) - 1
            cached.append(
                [
                    self.power(bit_reverse(i & mask, s) * half, inverse)
                    for i in range(self.n // 2)
                ]
            )
        return cached[stage]

    def radix2_stage_twiddles(self, stage: int, inverse: bool = False) -> List[int]:
        """Twiddles for one iterative Cooley-Tukey (DIT) stage.

        Stage ``s`` (0-based) has butterfly groups of span ``2^s``; twiddle
        ``j`` within a group is ``root^(j * n / 2^(s+1))``.
        """
        if not 0 <= stage < self.stages:
            raise NttParameterError(
                f"stage {stage} out of range for a {self.n}-point NTT"
            )
        span = 1 << stage
        step = self.n >> (stage + 1)
        return [self.power(j * step, inverse) for j in range(span)]
