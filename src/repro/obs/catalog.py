"""The metric catalogue: every metric family the library emits, declared once.

Each :class:`Metric` entry is one family: a dotted name pattern whose
``<label>`` segments are filled in at the emit site, its kind, its unit
and a one-line meaning. Everything else derives from it:

* the emitters :func:`repro.obs.hooks.count` / ``observe`` /
  ``set_gauge`` take these patterns verbatim, plus the label values;
* :func:`family_of` lifts the label segments out of a concrete name for
  the OpenMetrics exposition (:func:`repro.obs.openmetrics.mangle_name`),
  and :func:`name_of` inverts it for scraped text (``repro top --url``);
* :func:`markdown_table` is the metrics table in docs/OBSERVABILITY.md,
  which the test suite pins to this catalogue.

A placeholder matches one dotted segment, except in last position,
where it takes the rest of the name (engine op names such as
``ntt.forward`` carry dots). The exposition family is the pattern with
its placeholder segments dropped (``par.slot.<slot>.busy_s`` ->
``par.slot.busy_s``), unless the entry names one: an aggregate counter
and its per-reason siblings (``serve.shed`` / ``serve.shed.<reason>``)
must stay separate families. When two patterns match a name, the one
with more literal segments wins.

Counters a pool worker records are merged into the parent session under
``par.worker.<name>`` (:func:`repro.obs.dist.merge_blob`); those merged
names are entries of their own.

Only the exposition, the readers and the tests import this module, so a
process that never renders or reads metrics never builds its tables.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    """One declared metric family."""

    pattern: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    meaning: str
    #: Exposition family, when it is not the pattern minus its labels.
    family: Optional[str] = None


C, G, H = "counter", "gauge", "histogram"

CATALOG: Tuple[Metric, ...] = (
    # ISA simulation (one record per traced region, repro.isa.trace).
    Metric("isa.ops.<op>", C, "instr", "dynamic instruction count per mnemonic"),
    Metric("isa.instructions", C, "instr", "simulated instructions in traced regions"),
    Metric("isa.loads", C, "instr", "simulated load instructions"),
    Metric("isa.stores", C, "instr", "simulated store instructions"),
    Metric("isa.load_bytes", C, "B", "simulated bytes loaded"),
    Metric("isa.store_bytes", C, "B", "simulated bytes stored"),
    Metric("isa.traced_regions", C, "region", "`tracing()` regions accounted"),
    # Port scheduling (repro.machine.scheduler).
    Metric("sched.blocks", C, "block", "instruction blocks scheduled"),
    Metric("sched.instructions_per_block", H, "instr", "instructions per scheduled block"),
    Metric("sched.uops_per_block", H, "uop", "micro-ops per scheduled block"),
    Metric("sched.critical_path_cycles", H, "cycle", "dependency-chain length per block"),
    Metric("sched.port.<port>", H, "cycle", "per-port occupancy per block"),
    Metric("sched.util.<port>", H, "frac", "port occupancy relative to the bottleneck port"),
    # Cache model (repro.machine.cache).
    Metric("cache.access.<level>", C, "query", "cache-model queries served per level (-> hit rates)"),
    Metric("cache.bytes_modeled", C, "B", "bytes costed by the bandwidth model"),
    # Execution engines.
    Metric("engine.<engine>.calls.<op>", C, "call", "entry-point calls per engine (`faithful`/`fast`/`parallel`) and op"),
    Metric("engine.<engine>.elements.<op>", C, "element", "elements those calls processed"),
    Metric("engine.fast.r52.calls.<op>", C, "call", "fast-engine calls served by the 52-bit-limb substrate"),
    Metric("engine.fast.r52.elements.<op>", C, "element", "elements those r52 calls processed"),
    Metric("engine.fast.r52.carry_flushes", C, "pass", "r52 carry normalizations: one per NTT stage plus one final reduction"),
    Metric("engine.fast.gemm.calls.<op>", C, "call", "fast-engine chain steps served by the limb-split GEMM kernel (51-62-bit moduli)"),
    Metric("engine.fast.gemm.elements.<op>", C, "element", "elements those GEMM steps processed"),
    Metric("engine.fast.gemm.dgemms", C, "call", "float64 dgemm calls the GEMM kernel made (two per transform)"),
    Metric("fastmod.evictions", C, "entry", "`FastModulus` instances evicted from the bounded cache"),
    Metric("twiddle.evictions", C, "entry", "twiddle tables evicted from the bounded cache"),
    # Process pool (repro.par).
    Metric("par.shards.dispatched", C, "shard", "shards handed to the worker pool"),
    Metric("par.shards.completed", C, "shard", "shards completed by a worker (not by fallback)"),
    Metric("par.shard.wall_s", H, "s", "per-shard worker wall-clock"),
    Metric("par.retries", C, "shard", "shards re-enqueued after a worker crash, hang or corrupt payload"),
    Metric("par.fallbacks", C, "shard", "shards run in-process after retries ran out"),
    Metric("par.workers.restarted", C, "worker", "replacement workers spawned after a crash or kill"),
    Metric("par.workers.hung", C, "worker", "workers terminated for exceeding `task_timeout` on a claimed shard"),
    Metric("par.workers.pinned", C, "worker", "workers pinned to a CPU at spawn"),
    Metric("par.workers.pin_unsupported", C, "request", "`pin_workers=True` requests skipped: the platform cannot pin"),
    Metric("par.interrupted", C, "batch", "batches aborted by `KeyboardInterrupt` after quiescing the pool"),
    Metric("par.stale_results", C, "message", "straggler worker messages discarded"),
    Metric("par.stale_results.superseded", C, "message", "stale messages of an old generation of a pending shard"),
    Metric("par.stale_results.recovered", C, "message", "stale messages of a shard already completed by retry or fallback"),
    Metric("par.limbo.requeued", C, "shard", "unclaimed shards re-enqueued by the quiet-timeout net (no breaker charge)"),
    Metric("par.arena.leases", C, "lease", "arena segment leases"),
    Metric("par.arena.reuses", C, "lease", "leases served from the free list"),
    Metric("par.arena.creates", C, "lease", "leases that created a fresh segment"),
    Metric("par.arena.leased_bytes", C, "B", "bytes leased, after size-class rounding"),
    Metric("par.arena.high_water_bytes", G, "B", "peak bytes the arena has held"),
    Metric("par.arena.high_water_segments", G, "segment", "peak segments the arena has held"),
    Metric("par.arena.drained", C, "segment", "segments released by the arena drain at executor close"),
    Metric("par.fused.chains", C, "shard", "chain shards dispatched (every pool shard is a chain)"),
    Metric("par.fused.steps", C, "step", "op steps those shards carried; `steps - chains` round trips saved"),
    Metric("par.adaptive.clamped", C, "batch", "batches folded below one shard per worker"),
    Metric("par.adaptive.shards", H, "shard", "shard counts adaptive sizing chose"),
    Metric("par.adaptive.saved_dispatches", C, "dispatch", "dispatches adaptive sizing saved"),
    Metric("par.integrity.corrupt", C, "shard", "shards whose shm payload failed CRC-32 verification"),
    Metric("par.integrity.audited", C, "shard", "shards re-verified on the faithful engine"),
    Metric("par.integrity.divergent", C, "shard", "audited shards whose faithful recomputation diverged"),
    Metric("par.shm.reclaimed", C, "segment", "segments defensively unlinked by `close()`"),
    Metric("par.telemetry.blobs", C, "blob", "worker telemetry blobs merged"),
    Metric("par.telemetry.stale", C, "blob", "worker telemetry blobs discarded as stale"),
    # Per-slot rollups of merged worker telemetry (repro.obs.dist).
    Metric("par.slot.<slot>.shards", C, "shard", "shards served by a worker slot"),
    Metric("par.slot.<slot>.busy_s", C, "s", "busy seconds of a worker slot"),
    Metric("par.slot.<slot>.shard_wall_s", H, "s", "per-shard wall of a worker slot"),
    Metric("par.slot.<slot>.retries", C, "shard", "retries attributed to a worker slot"),
    Metric("par.slot.<slot>.cache.plans", G, "entry", "plan-cache entries resident in a worker slot"),
    Metric("par.slot.<slot>.pid", G, "pid", "OS pid behind a worker slot"),
    # Worker-side spans and counters, merged under par.worker.*.
    Metric("par.worker.shard_s", H, "s", "worker-side shard envelope"),
    Metric("par.worker.plan_s", H, "s", "worker plan and twiddle construction"),
    Metric("par.worker.map_shm_s", H, "s", "worker shared-memory mapping"),
    Metric("par.worker.compute_s", H, "s", "worker kernel compute"),
    Metric("par.worker.checksum_s", H, "s", "worker checksum writes"),
    Metric("par.worker.seg_cache.hits", C, "attach", "worker shm attachments served by its cache"),
    Metric("par.worker.seg_cache.misses", C, "attach", "worker shm attachments that mapped a segment"),
    Metric("par.worker.engine.<engine>.calls.<op>", C, "call", "engine calls made inside pool workers"),
    Metric("par.worker.engine.<engine>.elements.<op>", C, "element", "elements those worker calls processed"),
    Metric("par.worker.engine.fast.r52.calls.<op>", C, "call", "worker fast-engine calls served by r52"),
    Metric("par.worker.engine.fast.r52.elements.<op>", C, "element", "elements those worker r52 calls processed"),
    Metric("par.worker.engine.fast.r52.carry_flushes", C, "pass", "r52 carry normalizations inside workers"),
    Metric("par.worker.engine.fast.gemm.calls.<op>", C, "call", "worker fast-engine chain steps served by the GEMM kernel"),
    Metric("par.worker.engine.fast.gemm.elements.<op>", C, "element", "elements those worker GEMM steps processed"),
    Metric("par.worker.engine.fast.gemm.dgemms", C, "call", "dgemm calls the GEMM kernel made inside workers"),
    Metric("par.worker.fastmod.evictions", C, "entry", "`FastModulus` cache evictions inside workers"),
    Metric("par.worker.twiddle.evictions", C, "entry", "twiddle-table cache evictions inside workers"),
    # Resilience (repro.resil and the executor).
    Metric("resil.degraded", C, "event", "engine degradations"),
    Metric("resil.degraded.<reason>", C, "event", "engine degradations by reason", "resil.degraded.by_reason"),
    Metric("resil.breaker.<state>", C, "transition", "circuit-breaker transitions by target state", "resil.breaker.transitions"),
    Metric("resil.breaker.state_code", G, "code", "breaker state: closed=0, half_open=1, open=2"),
    Metric("resil.deadline.expired", C, "batch", "batches cut short by a deadline"),
    Metric("resil.deadline.shards", C, "shard", "shards short-circuited in-process by a deadline"),
    Metric("resil.retry.backoff_s", H, "s", "retry backoff delays"),
    # Serving front door (repro.serve).
    Metric("serve.requests.admitted", C, "request", "requests past admission control"),
    Metric("serve.admitted.<op>", C, "request", "admitted requests by op", "serve.admitted.by_op"),
    Metric("serve.requests.completed", C, "request", "requests resolved with a result"),
    Metric("serve.requests.failed", C, "request", "admitted requests resolved with an error"),
    Metric("serve.failed.<kind>", C, "request", "failures by kind: `deadline`, `shutdown`, `error`", "serve.failed.by_kind"),
    Metric("serve.shed", C, "request", "requests rejected by admission control"),
    Metric("serve.shed.<reason>", C, "request", "rejections by reason: `queue_full`, `quota`, `breaker_open`, `shutting_down`", "serve.shed.by_reason"),
    Metric("serve.request.latency_s", H, "s", "enqueue-to-resolve request latency"),
    Metric("serve.latency_s.<op>", H, "s", "request latency by op"),
    Metric("serve.coalesce_wait_s.<op>", H, "s", "enqueue until the batch left the coalescer"),
    Metric("serve.queue_wait_s.<op>", H, "s", "batch handoff until compute start (dispatcher backlog)"),
    Metric("serve.compute_s.<op>", H, "s", "engine execution until resolution"),
    Metric("serve.tenant.<tenant>.latency_s", H, "s", "request latency by tenant"),
    Metric("serve.batches", C, "batch", "coalesced batches dispatched"),
    Metric("serve.batched.<op>", C, "request", "requests carried by batches, by op", "serve.batched.by_op"),
    Metric("serve.batch.size", H, "request", "requests per coalesced batch"),
    Metric("serve.batch.wait_s", H, "s", "coalesce wait of each batch's oldest request"),
    Metric("serve.degraded", C, "batch", "batches rerouted off the requested engine, still bit-exact"),
    Metric("serve.degraded.<reason>", C, "batch", "rerouted batches by reason: `breaker_open`, `engine_unavailable`", "serve.degraded.by_reason"),
    Metric("serve.queue.depth", G, "request", "admitted-but-unresolved backlog"),
    # Serving SLOs (repro.obs.slo).
    Metric("serve.slo.p99_ms.<op>", G, "ms", "p99 of the last closed SLO window"),
    Metric("serve.slo.target_ms.<op>", G, "ms", "declared p99 objective"),
    Metric("serve.slo.burn_rate.<op>", G, "ratio", "violation fraction over recent windows / error budget"),
    Metric("serve.slo.breach_windows.<op>", G, "window", "consecutive windows over the objective"),
    Metric("serve.slo.violations", C, "request", "requests over the objective or failed"),
    Metric("serve.slo.violations.<op>", C, "request", "violations by op", "serve.slo.violations.by_op"),
    Metric("serve.slo.violations.tenant.<tenant>", C, "request", "violations by tenant", "serve.slo.violations.by_tenant"),
)

_PLACEHOLDER = re.compile(r"^<([a-z_]+)>$")


def family(entry: Metric) -> str:
    """The dotted exposition family an entry's samples belong to."""
    return entry.family or ".".join(
        part for part in entry.pattern.split(".") if "<" not in part
    )


@lru_cache(maxsize=None)
def _index():
    """Exact names, and (regex, entry) pairs most literal segments first."""
    exact: Dict[str, Metric] = {}
    patterned: List[Tuple[int, int, "re.Pattern", Metric]] = []
    for position, entry in enumerate(CATALOG):
        parts = entry.pattern.split(".")
        if "<" not in entry.pattern:
            exact[entry.pattern] = entry
            continue
        regex = []
        for index, part in enumerate(parts):
            label = _PLACEHOLDER.match(part)
            if label is None:
                regex.append(re.escape(part))
            else:
                body = ".+" if index == len(parts) - 1 else "[^.]+"
                regex.append(f"(?P<{label.group(1)}>{body})")
        literals = sum(1 for part in parts if "<" not in part)
        patterned.append(
            (-literals, position, re.compile(r"\.".join(regex) + "$"), entry)
        )
    patterned.sort(key=lambda item: item[:2])
    return exact, [(regex, entry) for _, _, regex, entry in patterned]


def lookup(name: str) -> Optional[Tuple[Metric, Dict[str, str]]]:
    """The entry a concrete metric name belongs to, with its label values."""
    exact, patterned = _index()
    entry = exact.get(name)
    if entry is not None:
        return entry, {}
    for regex, entry in patterned:
        match = regex.match(name)
        if match is not None:
            return entry, match.groupdict()
    return None


def family_of(name: str) -> Tuple[str, Dict[str, str]]:
    """``(dotted family, labels)`` for a name; undeclared names stand alone."""
    found = lookup(name)
    if found is None:
        return name, {}
    entry, labels = found
    return family(entry), labels


@lru_cache(maxsize=None)
def _by_mangled_family(prefix: str) -> Dict[str, Metric]:
    from repro.obs.openmetrics import mangle_family

    return {mangle_family(family(entry), prefix): entry for entry in CATALOG}


def name_of(
    mangled: str, labels: Dict[str, str], prefix: str = "repro_"
) -> Optional[str]:
    """Invert :func:`family_of` for one exposition sample (``None``: undeclared)."""
    entry = _by_mangled_family(prefix).get(mangled)
    if entry is None:
        return None
    parts = []
    for part in entry.pattern.split("."):
        label = _PLACEHOLDER.match(part)
        if label is None:
            parts.append(part)
        elif label.group(1) in labels:
            parts.append(labels[label.group(1)])
        else:
            return None
    return ".".join(parts)


def markdown_table() -> str:
    """The docs/OBSERVABILITY.md metrics table, one row per entry."""
    rows = ["| metric | kind | unit | meaning |", "|---|---|---|---|"]
    for entry in CATALOG:
        rows.append(
            f"| `{entry.pattern}` | {entry.kind} | {entry.unit} | "
            f"{entry.meaning} |"
        )
    return "\n".join(rows)
