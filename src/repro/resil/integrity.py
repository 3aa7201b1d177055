"""Payload integrity for shared-memory shards: checksums + faithful audit.

Two independent lines of defence around the ``repro.par`` data path:

**Checksums (cheap, always-on by default).** Each batch allocates one
extra tiny shared segment holding a uint64 slot per shard. After a
worker writes its result rows into the output segment, it computes a
CRC-32 over a shape/dtype/bounds header plus the written payload bytes
and stores it in its slot. On collection the executor recomputes the
CRC from the shared pages it is about to trust; a mismatch means the
payload changed between the worker's write and collection (or the
worker wrote garbage) and is treated as a *retryable fault*
(``par.integrity.corrupt``), re-dispatching the shard.

**Cross-engine audit (sampled, opt-in).** :func:`audit_shards`
re-computes a seeded sample of completed shards on the *faithful*
engine — the lane-accurate ISA simulation the fast and parallel engines
are bit-exact against — directly from the input segments, and compares
against the collected payload. Every shard is a chain, so the audit
hands it to the faithful engine's one chain interpreter
(:func:`repro.ntt.chain.run_chain`), the same one the faithful front
ends run. Divergence here means corruption survived every checksum and
retry, so it raises :class:`~repro.errors.ResilIntegrityError` instead
of recovering.
This mirrors the self-check practice of production kernels (HEXL-style
correctness checks around AVX512-IFMA, reference validation in GPU
modular-arithmetic codegen stacks).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ResilienceError, ResilIntegrityError
from repro.obs.hooks import count

#: Spec key naming the checksum segment (absent = integrity disabled).
SUMS_KEY = "sums"


def spec_bounds(spec: dict) -> Tuple[int, int]:
    """The ``[start, stop)`` slice of the output axis a spec owns."""
    bounds = spec["rows"] if "rows" in spec else spec["elems"]
    return int(bounds[0]), int(bounds[1])


def shard_checksum(view: np.ndarray, bounds: Sequence[int], shape: Sequence[int]) -> int:
    """CRC-32 of one shard: shape/dtype/bounds header + payload bytes.

    The header pins down the geometry, so a checksum can never validate
    bytes reinterpreted under a different shape or slice.
    """
    header = (
        f"{tuple(int(s) for s in shape)}|{view.dtype.str}|"
        f"{int(bounds[0])}:{int(bounds[1])}"
    ).encode()
    crc = zlib.crc32(header)
    payload = np.ascontiguousarray(view[int(bounds[0]) : int(bounds[1])])
    return zlib.crc32(payload, crc) & 0xFFFFFFFF


def write_checksum(spec: dict, out_view: np.ndarray, sums_view: np.ndarray) -> None:
    """Worker side: store this shard's checksum in its sums slot."""
    bounds = spec_bounds(spec)
    sums_view[int(spec["shard_index"])] = shard_checksum(
        out_view, bounds, spec["shape"]
    )


def verify_checksum(spec: dict, out_view: np.ndarray, sums_view: np.ndarray) -> bool:
    """Collector side: recompute the shard CRC and compare to the slot."""
    bounds = spec_bounds(spec)
    expected = int(sums_view[int(spec["shard_index"])])
    return shard_checksum(out_view, bounds, spec["shape"]) == expected


# ---------------------------------------------------------------------------
# Cross-engine audit (faithful recomputation of sampled shards)
# ---------------------------------------------------------------------------


def _faithful_rows(view: np.ndarray, bounds: Tuple[int, int]) -> List[List[int]]:
    """A shard's slice as int vectors: one per row, or one for a flat axis.

    A rank-2 ``(E, 2)`` view is the flattened element axis BLAS chains
    shard, so its slice is audited as one vector.
    """
    from repro.fast.limbs import limbs_to_ints

    if view.ndim == 2:
        return [limbs_to_ints(view[bounds[0] : bounds[1]])]
    return [limbs_to_ints(view[i]) for i in range(bounds[0], bounds[1])]


def _recompute_faithful(spec: dict, views: Dict[str, np.ndarray]) -> List[List[int]]:
    """One shard's rows, recomputed on the faithful (ISA-simulated) engine.

    Builds the faithful plans the spec names (negacyclic when it carries
    ``psi``, cyclic when it carries ``n``, BLAS-only otherwise) and
    hands the chain to the faithful interpreter,
    :func:`repro.ntt.chain.run_chain`.
    """
    from repro.blas.ops import BlasPlan
    from repro.kernels import get_backend
    from repro.ntt.chain import run_chain
    from repro.ntt.negacyclic import NegacyclicNtt
    from repro.ntt.simd import SimdNtt

    if spec["op"] != "chain":
        raise ResilienceError(f"cannot audit unknown parallel op {spec['op']!r}")
    backend = get_backend("scalar")
    q = int(spec["q"])
    ntt = neg = None
    if spec.get("psi") is not None:
        neg = NegacyclicNtt(int(spec["n"]), q, backend, psi=int(spec["psi"]))
        ntt = neg.plan
    elif spec.get("n"):
        ntt = SimdNtt(int(spec["n"]), q, backend, root=int(spec["root"]))
    bounds = spec_bounds(spec)
    rows = {name: _faithful_rows(views[name], bounds) for name in spec["inputs"]}
    return run_chain(
        spec["steps"], rows, ntt, neg=neg, blas=BlasPlan(q, backend)
    )


def sample_specs(
    specs: Sequence[dict], fraction: float, seed: int
) -> List[dict]:
    """A seeded sample of ``specs``; at least one when ``fraction > 0``."""
    if not 0.0 <= fraction <= 1.0:
        raise ResilienceError("audit fraction must be within [0, 1]")
    if fraction == 0.0 or not specs:
        return []
    rng = random.Random(seed)
    sampled = [spec for spec in specs if rng.random() < fraction]
    if not sampled:
        sampled = [specs[rng.randrange(len(specs))]]
    return sampled


def audit_shards(
    specs: Sequence[dict],
    fraction: float,
    seed: int = 0,
    attach=None,
) -> int:
    """Re-run a sample of completed shards on the faithful engine.

    ``specs`` are the (completed) task specs of one batch; segments they
    name must still be mapped. ``attach`` overrides the segment
    attacher (tests); it defaults to :func:`repro.par.shm.attach_segment`.
    Returns the number of shards audited; raises
    :class:`~repro.errors.ResilIntegrityError` on any divergence.
    """
    from repro.par import shm

    attach = attach or shm.attach_segment
    sampled = sample_specs(specs, fraction, seed)
    if not sampled:
        return 0
    for spec in sampled:
        segments = []
        views: Dict[str, np.ndarray] = {}
        try:
            for key in ("out", *spec.get("inputs", ())):
                seg = attach(spec[key])
                segments.append(seg)
                views[key] = shm.segment_view(seg, spec["shape"])
            expected = _recompute_faithful(spec, views)
            bounds = spec_bounds(spec)
            got = _faithful_rows(views["out"], bounds)
            if got != expected:
                count("par.integrity.divergent")
                kinds = "+".join(step["kind"] for step in spec["steps"])
                raise ResilIntegrityError(
                    f"faithful audit diverged for chain {kinds} "
                    f"shard {spec.get('shard_index', '?')} "
                    f"(bounds {bounds}): parallel result does not match "
                    f"the faithful engine"
                )
        finally:
            # Drop the views before unmapping: a view left alive by an
            # exception would point at unmapped pages.
            views.clear()
            for seg in segments:
                shm.detach_segment(seg)
    count("par.integrity.audited", amount=len(sampled))
    return len(sampled)
