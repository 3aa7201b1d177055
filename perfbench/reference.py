"""Independent correctness checks for every benchmark result.

Nothing here calls the fast or parallel engines. Three exact checks:

* negacyclic products — an exact limb-split floating-point FFT
  convolution folded by ``x^n = -1``; every rounded value is checked to
  be an integer, and Kronecker substitution (one exact big-number
  multiply) takes over when one is not. The self-tests pin both to
  ``repro.ntt.polymul.ntt_polymul`` folded negacyclic.
* forward NTTs — a structured Freivalds check in ``O(n)``: with a random
  ``t``, ``sum_k X_k t^k`` must equal ``sum_j x_j w_j`` where
  ``w_j = sum_k (t w^j)^k = (t^n - 1) / (t w^j - 1)``. A wrong output
  passes with probability at most ``(n - 1) / q`` (2^-48 at 60 bits).
  Outputs must also be canonical (``0 <= X_k < q``). The self-tests pin
  it to ``repro.ntt.radix2.ntt``.
* BLAS — plain ``%`` on Python integers.

:func:`reference_digests` runs the expensive product references in
spawned processes after the timed windows and returns digests to
compare; the cheap checks run in the benchmark process between phases
or calls, never inside a timed window.
"""

from __future__ import annotations

import decimal
import hashlib
import multiprocessing
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arith.primes import root_of_unity


def digest(rows) -> str:
    """Canonical digest of a vector or a list of vectors of ints < 2^128.

    Anything else (wrong type, negative, too wide) digests to
    ``"invalid"``, which never equals a reference digest.
    """
    if rows and isinstance(rows[0], int):
        rows = [rows]
    h = hashlib.blake2b(digest_size=16)
    try:
        for row in rows:
            h.update(len(row).to_bytes(4, "little"))
            h.update(b"".join(v.to_bytes(16, "little") for v in row))
    except (AttributeError, OverflowError, TypeError):
        return "invalid"
    return h.hexdigest()


#: Decimal context wide enough for exact Kronecker products of any size.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


#: Limb width of the FFT product. A limb-pair convolution term is below
#: ``n * limbs * 2^24`` (about 2^38 at n = 4096, 60-bit q), far inside float64's
#: 53-bit mantissa, so rounding recovers it exactly.
LIMB_BITS = 12
#: Largest distance from an integer an FFT output may show before the
#: product is recomputed by Kronecker substitution.
ROUNDING_SLACK = 0.25


def _limb_planes(f: Sequence[int], limbs: int) -> np.ndarray:
    words = np.array(f, dtype=np.uint64)
    mask = np.uint64((1 << LIMB_BITS) - 1)
    return np.stack([
        ((words >> np.uint64(LIMB_BITS * i)) & mask).astype(np.float64)
        for i in range(limbs)
    ])


def negacyclic_mul(f: Sequence[int], g: Sequence[int], q: int) -> List[int]:
    """``f * g mod (x^n + 1, q)`` by an exact limb-split FFT convolution.

    Both operands are cut into ``LIMB_BITS``-bit limb planes; the
    products of their real FFTs, summed per limb weight, transform back
    to the linear convolution of each weight, which is folded by
    ``x^n = -1`` and recombined with Python integers. Falls back to
    :func:`kronecker_negacyclic_mul` for ``q >= 2^64`` or when any FFT
    output is not within ``ROUNDING_SLACK`` of an integer.
    """
    n = len(f)
    if q >= 1 << 64 or len(g) != n:
        return kronecker_negacyclic_mul(f, g, q)
    limbs = -(-q.bit_length() // LIMB_BITS)
    spec_f = np.fft.rfft(_limb_planes(f, limbs), 2 * n)
    spec_g = np.fft.rfft(_limb_planes(g, limbs), 2 * n)
    acc = np.zeros(n, dtype=object)
    for weight in range(2 * limbs - 2, -1, -1):
        low = max(0, weight - limbs + 1)
        spec = sum(spec_f[i] * spec_g[weight - i] for i in range(low, min(weight, limbs - 1) + 1))
        conv = np.fft.irfft(spec, 2 * n)
        exact = np.rint(conv)
        if np.abs(conv - exact).max() > ROUNDING_SLACK:
            return kronecker_negacyclic_mul(f, g, q)
        folded = exact[:n].astype(np.int64) - exact[n:].astype(np.int64)
        acc = acc * (1 << LIMB_BITS) + folded.astype(object)
    return [int(v) % q for v in acc]


def kronecker_negacyclic_mul(f: Sequence[int], g: Sequence[int], q: int) -> List[int]:
    """``f * g mod (x^n + 1, q)`` by Kronecker substitution.

    Each coefficient gets a fixed ``digits``-wide decimal slot, wider
    than any coefficient of the integer product (``< n * q^2``), so one
    exact big-number multiply yields the linear convolution. Decimal
    rather than ``int`` because libmpdec multiplies large operands with
    a number-theoretic transform (about 2.5x faster at n = 4096 than
    CPython's Karatsuba).
    """
    n = len(f)
    digits = len(str(n * (q - 1) ** 2))
    slot = f"0{digits}d"
    a = decimal.Decimal("".join(format(c, slot) for c in reversed(f)))
    b = decimal.Decimal("".join(format(c, slot) for c in reversed(g)))
    text = format(_EXACT.multiply(a, b), "f").rjust(2 * n * digits, "0")
    end = len(text)
    coeffs = [int(text[end - (i + 1) * digits:end - i * digits]) for i in range(2 * n)]
    return [(coeffs[i] - coeffs[i + n]) % q for i in range(n)]


def vector_mul(x: Sequence[int], y: Sequence[int], q: int) -> List[int]:
    return [a * b % q for a, b in zip(x, y)]


def vector_add(x: Sequence[int], y: Sequence[int], q: int) -> List[int]:
    return [(a + b) % q for a, b in zip(x, y)]


def axpy(a: int, x: Sequence[int], y: Sequence[int], q: int) -> List[int]:
    return [(a * u + v) % q for u, v in zip(x, y)]


class NttCheck:
    """Freivalds check of natural-order forward NTTs for one ``(n, q, t)``.

    The ``n`` weights cost ``n`` modular inverses once; each checked row
    then costs two length-``n`` dot products.
    """

    def __init__(self, n: int, q: int, t: int, root: int = 0) -> None:
        self.n, self.q, self.t = n, q, t
        omega = root or root_of_unity(n, q)
        tn1 = (pow(t, n, q) - 1) % q
        weights = []
        point = t % q
        for _ in range(n):
            denom = (point - 1) % q
            weights.append(tn1 * pow(denom, -1, q) % q if denom else n % q)
            point = point * omega % q
        self.weights = weights

    def ok(self, x: Sequence[int], out) -> bool:
        """Whether ``out`` is the canonical forward NTT of ``x``."""
        q = self.q
        if not isinstance(out, list) or len(out) != self.n:
            return False
        lhs = 0
        for value in reversed(out):
            if not isinstance(value, int) or not 0 <= value < q:
                return False
            lhs = (lhs * self.t + value) % q
        rhs = sum(u * w for u, w in zip(x, self.weights)) % q
        return lhs == rhs


# ---------------------------------------------------------------------------
# Out-of-process product checks
# ---------------------------------------------------------------------------


def reference_digest(task: tuple) -> str:
    """Reference digest of one product task, operands regenerated from the seed.

    ``("rns", seed, step, primes)`` is one ``rns-inproc`` step, the rows
    ``a*b + c`` per prime; ``("polymul", seed, phase, index, n, q)`` is
    one ``serve-open`` polymul request.
    """
    from perfbench import inputs

    kind = task[0]
    if kind == "rns":
        _, seed, step, primes = task
        a, b, c = inputs.rns_operands(seed, step, primes)
        return digest([
            vector_add(negacyclic_mul(ar, br, q), cr, q)
            for q, ar, br, cr in zip(primes, a, b, c)
        ])
    if kind == "polymul":
        _, seed, phase, index, n, q = task
        arrival = inputs.Arrival(phase, index, 0.0, "polymul", n, "")
        f, g = inputs.serve_operands(seed, arrival, q)
        return digest(negacyclic_mul(f.tolist(), g.tolist(), q))
    raise ValueError(f"unknown reference task {kind!r}")


def _keyed(task: tuple) -> Tuple[tuple, str]:
    return task, reference_digest(task)


def reference_digests(tasks: List[tuple], processes: int) -> Dict[tuple, str]:
    """Reference digests of ``tasks`` computed by spawned processes."""
    if not tasks:
        return {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, int(processes))) as pool:
        result = dict(pool.imap_unordered(_keyed, tasks, chunksize=4))
        pool.close()
        pool.join()
    return result
