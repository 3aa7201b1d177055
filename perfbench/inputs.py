"""Seeded inputs: moduli, arrival schedules and per-request operands.

Everything a workload feeds the program is derived here from the
benchmark seed, so one seed always gives the same schedule and the same
operands. Each unit of work (request, step, call) draws its operands
from its own NumPy stream keyed by ``(seed, stream, index)``; the
reference checker regenerates them from the same key in another process
instead of receiving copies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.arith.primes import find_ntt_prime, is_prime

#: Ring dimension shared by the RNS and wide-modulus workloads.
N_LARGE = 4096

#: ``serve-open`` op mix: ``(op, n, share of arrivals)``.
SERVE_MIX: Tuple[Tuple[str, int, float], ...] = (
    ("polymul", 1024, 0.4),
    ("ntt", 4096, 0.2),
    ("blas.vector_mul", 4096, 0.4),
)

#: Tenants the ``serve-open`` arrivals rotate over (drawn uniformly).
SERVE_TENANTS = 4

#: Stream ids (the second element of every RNG key).
STREAM_SCHEDULE = 1
STREAM_SERVE_OPERANDS = 2
STREAM_RNS_OPERANDS = 3
STREAM_WIDE_OPERANDS = 4
STREAM_CHECK = 5

#: Index of the operands a closed-loop workload's set-up call uses.
SETUP_INDEX = 1 << 30

#: ``serve-open`` phases in run order (``setup`` is one request per op).
PHASES = ("setup", "warmup", "low", "high", "saturate")
_PHASE_IDS = {phase: i for i, phase in enumerate(PHASES)}


def serve_prime() -> int:
    """The one 60-bit NTT prime every ``serve-open`` op uses (r52 substrate)."""
    return find_ntt_prime(60, 2 * N_LARGE)


def wide_prime() -> int:
    """The 124-bit prime of ``wide-batch`` (double-word substrate)."""
    return find_ntt_prime(124, 2 * N_LARGE)


def rns_primes(count: int = 4, bits: int = 60) -> List[int]:
    """The ``count`` largest ``bits``-bit primes with ``q = 1 mod 2n``."""
    order = 2 * N_LARGE
    primes: List[int] = []
    k = ((1 << bits) - 2) // order
    while len(primes) < count:
        candidate = k * order + 1
        if candidate.bit_length() != bits:
            raise ValueError(f"fewer than {count} {bits}-bit NTT primes")
        if is_prime(candidate):
            primes.append(candidate)
        k -= 1
    return primes


def stream(seed: int, stream_id: int, *index: int) -> np.random.Generator:
    """An independent generator for one ``(seed, stream, index...)`` key."""
    return np.random.default_rng([int(seed), int(stream_id), *map(int, index)])


def residues(gen: np.random.Generator, q: int, shape) -> np.ndarray:
    """Uniform residues mod ``q`` as a uint64 array (q < 2^64)."""
    return gen.integers(0, q, size=shape, dtype=np.uint64)


def wide_rows(gen: np.random.Generator, q: int, rows: int, n: int) -> List[List[int]]:
    """``rows`` x ``n`` Python ints below ``2^(bits(q)-1)`` (< q, 2 words)."""
    top = q.bit_length() - 1 - 64
    lo = gen.integers(0, 1 << 63, size=(rows, n), dtype=np.uint64) << np.uint64(1)
    lo |= gen.integers(0, 2, size=(rows, n), dtype=np.uint64)
    hi = gen.integers(0, 1 << top, size=(rows, n), dtype=np.uint64)
    return [
        [(h << 64) | l for l, h in zip(lrow, hrow)]
        for lrow, hrow in zip(lo.tolist(), hi.tolist())
    ]


# ---------------------------------------------------------------------------
# serve-open
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``offset_s`` after its phase starts."""

    phase: str
    index: int
    offset_s: float
    op: str
    n: int
    tenant: str


def schedule(seed: int, phase: str, rate_rps: float, count: int) -> List[Arrival]:
    """``count`` Poisson arrivals at ``rate_rps`` with the op/tenant mix."""
    gen = stream(seed, STREAM_SCHEDULE, _PHASE_IDS[phase])
    gaps = gen.exponential(1.0 / rate_rps, size=count)
    offsets = np.cumsum(gaps)
    shares = np.array([share for _, _, share in SERVE_MIX])
    kinds = gen.choice(len(SERVE_MIX), size=count, p=shares / shares.sum())
    tenants = gen.integers(0, SERVE_TENANTS, size=count)
    return [
        Arrival(
            phase=phase,
            index=i,
            offset_s=float(offsets[i]),
            op=SERVE_MIX[kinds[i]][0],
            n=SERVE_MIX[kinds[i]][1],
            tenant=f"t{tenants[i]}",
        )
        for i in range(count)
    ]


def setup_arrivals() -> List[Arrival]:
    """One request per op of the mix: the first call per op key."""
    return [
        Arrival("setup", i, 0.0, op, n, "t0")
        for i, (op, n, _) in enumerate(SERVE_MIX)
    ]


def check_point(seed: int, label: str, q: int) -> int:
    """The secret evaluation point of the NTT checks labelled ``label``."""
    gen = stream(seed, STREAM_CHECK, zlib.crc32(label.encode()))
    raw = (int(gen.integers(0, 1 << 62)) << 62) | int(gen.integers(0, 1 << 62))
    return 2 + raw % (q - 3)


def serve_operands(seed: int, arrival: Arrival, q: int) -> Tuple[np.ndarray, ...]:
    """The request's operand vectors (one for ``ntt``, two otherwise)."""
    gen = stream(seed, STREAM_SERVE_OPERANDS, _PHASE_IDS[arrival.phase], arrival.index)
    arity = 1 if arrival.op == "ntt" else 2
    return tuple(residues(gen, q, arrival.n) for _ in range(arity))


# ---------------------------------------------------------------------------
# rns-inproc / wide-batch
# ---------------------------------------------------------------------------


def rns_operands(
    seed: int, step: int, primes: Sequence[int], n: int = N_LARGE
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Residue rows ``(a, b, c)`` of one multiply-accumulate step."""
    gen = stream(seed, STREAM_RNS_OPERANDS, step)
    return tuple(
        [residues(gen, q, n).tolist() for q in primes] for _ in range(3)
    )


#: The op a ``wide-batch`` call makes, by call index modulo 3.
WIDE_OPS = ("ntt", "vector_mul", "axpy")


def wide_operands(
    seed: int, call: int, q: int, batch: int, n: int = N_LARGE
) -> Tuple[str, List[List[int]], List[List[int]], int]:
    """``(op, x, y, a)`` for one call; ``y``/``a`` are unused by ``ntt``."""
    op = WIDE_OPS[call % len(WIDE_OPS)]
    gen = stream(seed, STREAM_WIDE_OPERANDS, call)
    x = wide_rows(gen, q, batch, n)
    y = wide_rows(gen, q, batch, n) if op != "ntt" else []
    a = wide_rows(gen, q, 1, 1)[0][0] if op == "axpy" else 0
    return op, x, y, a
