"""The ``python -m repro timeline`` harness: one merged batch timeline.

Runs a real parallel workload — fused RNS ring multiplications plus
batched NTTs, the ROADMAP north-star shapes — under an observability
session with cross-process telemetry (:mod:`repro.obs.dist`) enabled,
then renders what a single-process profile cannot show:

* a **merged Chrome trace** with the parent's dispatch/collect/retry
  lane plus one lane per worker process, every worker span carrying the
  batch/shard/attempt correlation ids of the shard that produced it;
* a **per-worker utilization table** (shards served, busy seconds and
  busy fraction of the run, p50/p99 shard wall, retries attributed to
  the slot) — the straggler/imbalance summary;
* optional **retry attribution**: with ``--crash N``, the first ``N``
  dispatched shards kill their worker, and the report lists which lane
  each shard's second attempt actually ran on;
* an optional **overhead gate** (``--overhead-gate 0.10``): the same
  workload is timed with observability disabled and enabled, and the
  run fails if telemetry costs more than the given fraction — the CI
  guard that keeps the cross-process instrumentation honest.

Exit code 0 means the trace validated, the lane floor (``--min-lanes``)
was met, and the overhead gate (if requested) passed.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.obs import dist
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    worker_lanes,
)
from repro.obs.reader import MetricsView
from repro.obs.session import ObsSession, observing

#: Attempts the overhead gate gets before failing (one clean attempt
#: passes — mirrors tests/test_obs_overhead.py, which tolerates noisy
#: shared CI machines the same way).
GATE_ATTEMPTS = 3


def format_worker_table(session: ObsSession, wall_s: float) -> str:
    """Render the per-worker utilization summary from ``par.slot.*``."""
    view = MetricsView(session.metrics)
    header = [
        "slot", "pid", "shards", "busy s", "busy %",
        "p50 ms", "p99 ms", "retries",
    ]
    rows = [header]
    for slot in dist.slot_numbers(view):
        slot_name = f"par.slot.{slot}"
        walls = f"{slot_name}.shard_wall_s"
        busy = view.value(f"{slot_name}.busy_s")
        pid = view.value(f"{slot_name}.pid")
        has_walls = view.stat(walls, "count") > 0
        rows.append(
            [
                str(slot),
                str(int(pid)) if pid else "-",
                f"{int(view.value(f'{slot_name}.shards'))}",
                f"{busy:.3f}",
                f"{busy / wall_s * 100:.1f}" if wall_s > 0 else "-",
                f"{view.stat(walls, 'p50') * 1e3:.2f}" if has_walls else "-",
                f"{view.stat(walls, 'p99') * 1e3:.2f}" if has_walls else "-",
                f"{int(view.value(f'{slot_name}.retries'))}",
            ]
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = ["-- per-worker utilization --"]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def retry_attribution(session: ObsSession) -> List[str]:
    """Human-readable lines tracing retried shards to their worker lanes.

    For every worker-side shard envelope span beyond attempt 1, report
    which slot/pid served it — the acceptance check that a crashed
    shard's re-execution really moved to a different lane.
    """
    lines = []
    for record in session.spans.records:
        attempt = record.attrs.get("attempt")
        if record.name != "par.worker.shard" or not attempt or attempt < 2:
            continue
        lines.append(
            f"shard {record.attrs.get('shard')} of {record.attrs.get('batch')}"
            f" attempt {attempt} ran on slot {record.attrs.get('slot')}"
            f" (pid {record.attrs.get('obs.pid')})"
        )
    return lines


def _workload(ring, plan, rng, n: int, q: int, batch: int, rounds: int) -> None:
    modulus = ring.basis.modulus
    for _ in range(rounds):
        f = ring.encode([rng.randrange(modulus) for _ in range(n)])
        g = ring.encode([rng.randrange(modulus) for _ in range(n)])
        ring.mul(f, g)
        data = [[rng.randrange(q) for _ in range(n)] for _ in range(batch)]
        plan.forward(data)


def run_timeline(
    workers: int = 2,
    logn: int = 10,
    batch: int = 8,
    limbs: int = 4,
    rounds: int = 3,
    seed: int = 0,
    crash: int = 0,
    export_formats: Sequence[str] = ("chrome",),
    output_dir: str = ".",
    min_lanes: int = 0,
    overhead_gate: Optional[float] = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Run the timeline harness; returns a process exit code (0 = pass)."""
    from repro.kernels import get_backend
    from repro.par.api import ParNtt
    from repro.par.executor import ParallelExecutor
    from repro.resil.inject import Fault, FaultPlan
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomialRing

    n = 1 << logn
    rng = random.Random(seed)
    basis = RnsBasis.generate(limbs, 62, 2 * n)
    q = basis.primes[0]
    failures: List[str] = []

    emit(
        f"timeline: n=2^{logn}, batch={batch}, {limbs} limbs, "
        f"{workers} workers, rounds={rounds}, seed={seed}"
        + (f", crash={crash}" if crash else "")
    )

    with ParallelExecutor(workers=workers) as pool:
        ring = RnsPolynomialRing(n, basis, get_backend("mqx"), engine="parallel")
        plan = ParNtt(n, q, executor=pool)

        # Warm the pool (fork, plan/twiddle caches) outside all timing.
        _workload(ring, plan, rng, n, q, batch, rounds=1)

        if overhead_gate is not None:
            passed = False
            for attempt in range(1, GATE_ATTEMPTS + 1):
                started = time.perf_counter()
                _workload(ring, plan, rng, n, q, batch, rounds)
                plain_s = time.perf_counter() - started
                with observing():
                    started = time.perf_counter()
                    _workload(ring, plan, rng, n, q, batch, rounds)
                    observed_s = time.perf_counter() - started
                ratio = observed_s / plain_s if plain_s > 0 else float("inf")
                emit(
                    f"overhead attempt {attempt}: plain {plain_s * 1e3:.1f} ms, "
                    f"observed {observed_s * 1e3:.1f} ms "
                    f"({(ratio - 1) * 100:+.1f}%)"
                )
                if ratio <= 1.0 + overhead_gate:
                    passed = True
                    break
            if not passed:
                failures.append(
                    f"telemetry overhead exceeded {overhead_gate * 100:.0f}% "
                    f"in {GATE_ATTEMPTS} attempts"
                )

        with observing() as session:
            if crash:
                pool.inject(
                    FaultPlan({i: Fault("crash") for i in range(crash)})
                )
            started = time.perf_counter()
            _workload(ring, plan, rng, n, q, batch, rounds)
            wall_s = time.perf_counter() - started
            pool.inject(None)

            emit("")
            emit(format_worker_table(session, wall_s))
            retried = retry_attribution(session)
            if retried:
                emit("")
                emit("-- retry attribution --")
                for line in retried:
                    emit(f"  {line}")

            blobs = MetricsView(session.metrics).value("par.telemetry.blobs")
            emit("")
            emit(
                f"merged {int(blobs)} worker blobs, "
                f"{len(session.spans.records)} spans, "
                f"{len(session.events)} events in {wall_s * 1e3:.1f} ms"
            )

            trace = to_chrome_trace(session.spans.records, "repro:timeline")
            validate_chrome_trace(trace)
            lanes = worker_lanes(trace)
            emit(f"worker lanes: {len(lanes)} ({', '.join(map(str, lanes))})")
            if len(lanes) < min_lanes:
                failures.append(
                    f"expected >= {min_lanes} worker lanes, got {len(lanes)}"
                )

            out = Path(output_dir)
            if export_formats:
                out.mkdir(parents=True, exist_ok=True)
            if "chrome" in export_formats:
                path = out / "trace_timeline.json"
                path.write_text(json.dumps(trace, indent=1))
                emit(f"wrote {path}")
            if "jsonl" in export_formats:
                path = out / "obs_timeline.jsonl"
                path.write_text(
                    to_jsonl(
                        session.spans.records,
                        session.metrics.snapshot(),
                        session.events,
                    )
                )
                emit(f"wrote {path}")

    for failure in failures:
        emit(f"FAIL: {failure}")
    return 0 if not failures else 1
