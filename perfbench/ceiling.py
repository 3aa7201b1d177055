"""Host ceiling (speed of light) and analytic kernel work counts.

The ceiling is measured once per traced run with NumPy on this host:

* uint64 element-wise multiply and add rates and copy bandwidth on
  arrays much larger than the last-level cache (``lscpu``'s figure),
  capped at :data:`STREAM_CAP_BYTES` per array so a run stays small on
  a shared machine — both sizes are reported;
* the same multiply/add rates on an L2-resident array, the compute
  peak the in-cache NTT and BLAS kernels are held against.

Kernel work is *computed*, not measured, the way ``repro.roofline``
derives runtimes from operation counts: a modular multiply, add or
subtract on one residue is one element-op; a residue occupies two
64-bit words (16 bytes) on either substrate at these widths. A
kernel's speed-of-light time is ``max(compute, memory)`` with compute =
``mulmods / mul_rate + addsubs / add_rate`` (in-cache rates) and memory
= ``bytes / copy_bandwidth``; ``sol_frac`` is that time over the
measured median call time.
"""

from __future__ import annotations

import re
import subprocess
import time
from typing import Dict

import numpy as np

#: Largest array (bytes) the streaming measurement allocates, per array.
STREAM_CAP_BYTES = 128 << 20

#: Array size (bytes) of the in-cache compute-peak measurement.
IN_CACHE_BYTES = 256 << 10

#: Bytes one residue occupies in the fast engine's limb layout.
RESIDUE_BYTES = 16


def llc_bytes() -> int:
    """Last-level cache size from ``lscpu`` (0 when unknown)."""
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return 0
    sizes = {}
    for level in ("L3", "L2"):
        match = re.search(rf"^{level} cache:\s*([\d.]+)\s*([KMG]i?B)", out, re.M)
        if match:
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[match.group(2)[0]]
            sizes[level] = int(float(match.group(1)) * scale)
    return sizes.get("L3") or sizes.get("L2") or 0


def _rate(fn, elements: int, repeats: int) -> float:
    """Best elements/s over ``repeats`` timed calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return elements / best


def measure() -> Dict[str, float]:
    """Measure the host ceiling (about a second, ~3 x the stream array)."""
    llc = llc_bytes()
    stream_bytes = min(max(4 * llc, IN_CACHE_BYTES), STREAM_CAP_BYTES)
    n = stream_bytes // 8
    gen = np.random.default_rng(0)
    a = gen.integers(0, 1 << 63, size=n, dtype=np.uint64)
    b = gen.integers(0, 1 << 63, size=n, dtype=np.uint64)
    c = np.empty_like(a)
    stream = {
        "mul": _rate(lambda: np.multiply(a, b, out=c), n, 3),
        "add": _rate(lambda: np.add(a, b, out=c), n, 3),
        "copy": _rate(lambda: np.copyto(c, a), n, 3) * 16,
    }
    del a, b, c
    m = IN_CACHE_BYTES // 8
    a = gen.integers(0, 1 << 63, size=m, dtype=np.uint64)
    b = gen.integers(0, 1 << 63, size=m, dtype=np.uint64)
    c = np.empty_like(a)
    loops = 64

    def many(op):
        def run():
            for _ in range(loops):
                op(a, b, out=c)
        return run

    return {
        "llc_bytes": float(llc),
        "stream_array_bytes": float(stream_bytes),
        "stream_ge_4x_llc": float(stream_bytes >= 4 * llc > 0),
        "stream_mul_per_s": stream["mul"],
        "stream_add_per_s": stream["add"],
        "copy_bytes_per_s": stream["copy"],
        "in_cache_array_bytes": float(IN_CACHE_BYTES),
        "mul_per_s": _rate(many(np.multiply), m * loops, 5),
        "add_per_s": _rate(many(np.add), m * loops, 5),
    }


def kernel_work(kernel: str, n: int) -> Dict[str, float]:
    """Computed element-ops and bytes of one length-``n`` kernel call."""
    if kernel == "ntt":
        stages = n.bit_length() - 1
        mulmods = stages * n // 2
        addsubs = stages * n
        # each stage reads and writes the vector and reads n/2 twiddles
        bytes_moved = stages * (2 * n + n // 2) * RESIDUE_BYTES
    elif kernel == "pointwise":
        mulmods, addsubs = n, 0
        bytes_moved = 3 * n * RESIDUE_BYTES
    elif kernel == "blas":
        mulmods, addsubs = 0, n
        bytes_moved = 3 * n * RESIDUE_BYTES
    else:
        raise ValueError(f"no work model for kernel {kernel!r}")
    return {
        "mulmods": float(mulmods),
        "addsubs": float(addsubs),
        "elem_ops": float(mulmods + addsubs),
        "bytes": float(bytes_moved),
    }


def sol_frac(work: Dict[str, float], ceiling: Dict[str, float], seconds: float) -> float:
    """Speed-of-light time over the measured time (1.0 = at the ceiling)."""
    if seconds <= 0:
        return 0.0
    compute = work["mulmods"] / ceiling["mul_per_s"] + work["addsubs"] / ceiling["add_per_s"]
    memory = work["bytes"] / ceiling["copy_bytes_per_s"]
    return max(compute, memory) / seconds
