"""``python -m repro top`` — live terminal view of a serving session.

The serve layer exposes everything an operator needs (admission and shed
counters, the coalesce/queue/compute latency decomposition, ``serve.slo.*``
burn rates, breaker state, pool slot rollups, arena reuse), but until now
the only consumers were offline: JSONL exports, BENCH snapshots, the
attrib ledger. This module is the online consumer — a stdlib-only
dashboard that renders one screen of panels:

* **requests** — rps (live mode: counter deltas per refresh), admitted /
  completed / failed / shed / degraded totals, shed rate, backlog depth;
* **ops** — per-op p50/p99 against the declared SLO target, error-budget
  burn rate and breach-window streak;
* **coalesce** — batches, realized fill (``serve.batch.size`` mean),
  batch-wait p99;
* **breaker** — current state (from the ``resil.breaker.state_code``
  gauge) plus transition counts;
* **slots** — per-slot busy seconds and, in live mode, utilization over
  the refresh interval;
* **arena** — shm arena lease/reuse hit rate.

Two data sources feed the same panel builder, both as metrics by dotted
catalogue name (:mod:`repro.obs.catalog`), read through
:class:`repro.obs.reader.MetricsView`:

* the **live session** (``--once`` with no URL self-drives a short serve
  burst under ``observing()`` and renders its registry — the CI smoke);
* an **OpenMetrics endpoint** (``--url http://…/metrics``), scraped and
  parsed back to dotted names; histogram percentiles are estimated from
  the cumulative ``le`` buckets.

``--once`` renders a single frame and exits non-zero if a required panel
came up empty (so the smoke actually asserts the dashboard works); live
mode refreshes every ``--interval`` seconds until interrupted.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.dist import slot_numbers
from repro.obs.reader import MetricsView, serve_summary

#: Metrics by dotted name -> snapshot-shaped sample dict.
Samples = Dict[str, Dict[str, object]]

#: Gauge code -> breaker state name (inverse of hooks.BREAKER_STATE_CODES).
_BREAKER_STATES = {0.0: "closed", 1.0: "half_open", 2.0: "open"}

#: ANSI clear-screen + cursor-home, emitted between live refreshes.
_CLEAR = "\x1b[2J\x1b[H"


# ---------------------------------------------------------------------------
# Sources -> sample map
# ---------------------------------------------------------------------------


def _bucket_percentile(
    buckets: List[Tuple[float, float]], pct: float
) -> float:
    """Estimate a percentile from cumulative ``(le, count)`` buckets.

    Linear interpolation inside the bucket that crosses the target rank;
    the ``+Inf`` bucket degrades to its predecessor's bound (the
    exposition does not carry the true max).
    """
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    target = pct / 100.0 * total
    prev_bound = 0.0
    prev_cum = 0.0
    for bound, cum in buckets:
        if cum >= target:
            if math.isinf(bound):
                return prev_bound
            span = cum - prev_cum
            if span <= 0:
                return bound
            frac = (target - prev_cum) / span
            return prev_bound + (bound - prev_bound) * frac
        if not math.isinf(bound):
            prev_bound = bound
        prev_cum = cum
    return prev_bound


def parse_openmetrics_text(text: str) -> Samples:
    """Parse exposition text (our emitted subset) back to dotted names.

    Each sample's family and labels map back to its catalogue name
    (:func:`repro.obs.catalog.name_of`; undeclared families are
    skipped). Counters lose their ``_total`` suffix, histogram series
    are reassembled from their ``_bucket``/``_count``/``_sum`` samples
    with ``p50``/``p99`` estimated from the buckets.
    """
    from repro.obs.catalog import name_of
    from repro.obs.openmetrics import _SAMPLE_RE, _resolve_family, _split_labels

    types: Dict[str, str] = {}
    samples: Samples = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) == 4:
                types[parts[2]] = parts[3]
            continue
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        sample = match.group("name")
        labels = _split_labels(match.group("labels") or "")
        value = float(match.group("value"))
        family = _resolve_family(sample, labels, types)
        if family is None:
            continue
        le = labels.pop("le", None)
        name = name_of(family, labels)
        if name is None:
            continue
        kind = types[family]
        if kind != "histogram":
            samples[name] = {"type": kind, "value": value}
            continue
        entry = samples.setdefault(
            name, {"type": "histogram", "count": 0, "sum": 0.0}
        )
        suffix = sample[len(family):]
        if suffix == "_bucket":
            bound = math.inf if le == "+Inf" else float(le or "inf")
            buckets.setdefault(name, []).append((bound, value))
        elif suffix == "_count":
            entry["count"] = int(value)
        elif suffix == "_sum":
            entry["sum"] = value
    for name, series in buckets.items():
        series.sort(key=lambda pair: pair[0])
        entry = samples[name]
        entry["p50"] = _bucket_percentile(series, 50.0)
        entry["p99"] = _bucket_percentile(series, 99.0)
        if entry["count"]:
            entry["mean"] = float(entry.get("sum", 0.0)) / entry["count"]
    return samples


# ---------------------------------------------------------------------------
# Samples -> panels
# ---------------------------------------------------------------------------


def build_panels(
    samples: Samples,
    prev: Optional[Samples] = None,
    interval_s: Optional[float] = None,
) -> Dict[str, object]:
    """Derive the dashboard panels from one sample map.

    ``prev``/``interval_s`` (live mode) turn monotone counters into
    rates: rps from completed-request deltas, per-slot utilization from
    busy-second deltas. In ``--once`` mode both stay ``None`` and the
    rate fields render as totals.
    """
    view = MetricsView(samples)
    before = MetricsView(prev) if prev is not None else None
    live = before is not None and bool(interval_s) and interval_s > 0

    def rate(name: str) -> Optional[float]:
        if not live:
            return None
        return max(0.0, view.value(name) - before.value(name)) / interval_s

    serve = serve_summary(view)
    offered = serve["admitted"] + serve["shed"]
    requests = {
        key: serve[key]
        for key in ("admitted", "completed", "failed", "shed", "degraded")
    }
    requests.update(
        shed_rate=serve["shed"] / offered if offered else 0.0,
        degrade_rate=(
            serve["degraded"] / serve["batches"] if serve["batches"] else 0.0
        ),
        backlog=serve["backlog_depth"],
        rps=rate("serve.requests.completed"),
    )

    ops = {
        op: {
            "count": row["count"],
            "p50_ms": row["latency_p50_s"] * 1e3,
            "p99_ms": row["latency_p99_s"] * 1e3,
            "slo_ms": row["slo_target_ms"] or None,
            "burn_rate": row["burn_rate"],
            "breach_windows": row["breach_windows"],
            "violations": row["violations"],
        }
        for op, row in serve["ops"].items()
    }

    coalesce = {
        "batches": serve["batches"],
        "fill_mean": serve["coalesce_fill"],
        "batch_wait_p99_ms": serve["batch_wait_p99_s"] * 1e3,
    }

    code = view.value("resil.breaker.state_code", default=-1.0)
    transitions = {
        state: int(view.value(f"resil.breaker.{state}"))
        for state in ("open", "half_open", "closed")
    }
    breaker = {
        "state": _BREAKER_STATES.get(code),
        "transitions": {k: v for k, v in transitions.items() if v},
    }

    slots = {
        str(slot): {
            "busy_s": view.value(f"par.slot.{slot}.busy_s"),
            "util": rate(f"par.slot.{slot}.busy_s"),
            "shards": int(view.value(f"par.slot.{slot}.shards")),
        }
        for slot in slot_numbers(view)
    }

    leases = view.value("par.arena.leases")
    reuses = view.value("par.arena.reuses")
    arena = {
        "leases": leases,
        "reuses": reuses,
        "creates": view.value("par.arena.creates"),
        "hit_rate": reuses / leases if leases else 0.0,
    }

    return {
        "requests": requests,
        "ops": ops,
        "coalesce": coalesce,
        "breaker": breaker,
        "slots": slots,
        "arena": arena,
    }


# ---------------------------------------------------------------------------
# Panels -> text frame
# ---------------------------------------------------------------------------


def render_panels(panels: Dict[str, object], source: str = "live") -> str:
    """Render one dashboard frame as plain text."""
    r = panels["requests"]
    lines = [
        f"repro top — {time.strftime('%H:%M:%S')} (source: {source})",
        "",
    ]
    rps = r.get("rps")
    head = f"requests  {rps:8.1f} rps | " if rps is not None else "requests  "
    lines.append(
        head
        + (
            f"admitted {int(r['admitted'])}  "
            f"completed {int(r['completed'])}  "
            f"failed {int(r['failed'])}  "
            f"shed {int(r['shed'])} ({r['shed_rate'] * 100:.1f}%)  "
            f"degraded {int(r['degraded'])}"
        )
    )
    lines.append(f"backlog   {int(r['backlog'])} queued")
    lines.append("")

    ops = panels["ops"]
    if ops:
        lines.append(
            f"{'op':<18} {'n':>6} {'p50 ms':>8} {'p99 ms':>8} "
            f"{'SLO ms':>7} {'burn':>6} {'breach':>6} {'viol':>5}"
        )
        for op in sorted(ops):
            row = ops[op]
            slo = row["slo_ms"]
            over = (
                " !"
                if slo is not None and row["p99_ms"] > slo
                else ""
            )
            lines.append(
                f"{op:<18} {row['count']:>6} {row['p50_ms']:>8.2f} "
                f"{row['p99_ms']:>8.2f} "
                f"{(f'{slo:.1f}' if slo is not None else '-'):>7} "
                f"{row['burn_rate']:>6.2f} {row['breach_windows']:>6} "
                f"{row['violations']:>5}{over}"
            )
    else:
        lines.append("ops       (no completed requests yet)")
    lines.append("")

    c = panels["coalesce"]
    lines.append(
        f"coalesce  {int(c['batches'])} batches, "
        f"fill {c['fill_mean']:.1f} req/batch, "
        f"batch-wait p99 {c['batch_wait_p99_ms']:.2f} ms"
    )

    b = panels["breaker"]
    state = b["state"] or "n/a"
    transitions = ", ".join(
        f"{name} {count}" for name, count in b["transitions"].items()
    )
    lines.append(
        f"breaker   {state}"
        + (f" (transitions: {transitions})" if transitions else "")
    )

    slots = panels["slots"]
    if slots:
        bits = []
        for slot in sorted(slots, key=int):
            row = slots[slot]
            util = row["util"]
            util_text = (
                f" ({min(util, 1.0) * 100:.0f}%)" if util is not None else ""
            )
            bits.append(
                f"{slot}: {row['busy_s']:.2f}s busy/"
                f"{row['shards']} shards{util_text}"
            )
        lines.append("slots     " + "  ".join(bits))
    else:
        lines.append("slots     (no parallel-engine telemetry)")

    a = panels["arena"]
    if a["leases"]:
        lines.append(
            f"arena     {int(a['leases'])} leases, "
            f"{int(a['reuses'])} reused "
            f"({a['hit_rate'] * 100:.0f}% hit), "
            f"{int(a['creates'])} created"
        )
    else:
        lines.append("arena     (no shm arena activity)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _scrape(url: str, timeout_s: float = 5.0) -> Samples:
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as response:
        return parse_openmetrics_text(
            response.read().decode("utf-8", "replace")
        )


def _self_drive(
    engine: str, logn: int, requests: int, slo_p99_ms: float
) -> Samples:
    """Run a short serve burst under observation; return its samples.

    The ``--once`` CI smoke path: no endpoint needed, the dashboard
    demonstrates itself against real traffic (fast engine by default so
    the smoke stays cheap; ``--engine parallel`` lights up the slot and
    arena panels too).
    """
    import asyncio
    import random

    from repro.arith.primes import find_ntt_prime
    from repro.obs.session import observing
    from repro.serve.service import ReproService, ServeConfig

    n = 1 << logn
    q = find_ntt_prime(60, 2 * n)
    rng = random.Random(0)

    async def drive() -> None:
        config = ServeConfig(
            engine=engine,
            max_batch=16,
            max_wait_s=0.002,
            slo_p99_ms=slo_p99_ms,
            slo_window_s=0.05,
        )
        async with ReproService(config=config) as service:
            async def one(idx: int) -> None:
                payload = (
                    [rng.randrange(q) for _ in range(n)],
                    [rng.randrange(q) for _ in range(n)],
                )
                await service.submit(
                    "polymul", payload, n, q, tenant=f"t{idx % 2}"
                )

            await asyncio.gather(*(one(i) for i in range(requests)))
            await service.flush()
            await service.join()

    with observing() as session:
        asyncio.run(drive())
        return session.metrics.snapshot()


def run_top(
    url: Optional[str] = None,
    once: bool = False,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    engine: str = "fast",
    logn: int = 6,
    requests: int = 96,
    slo_p99_ms: float = 250.0,
    emit: Callable[[str], None] = print,
) -> int:
    """CLI driver for ``python -m repro top``; returns an exit code.

    ``--once``: render a single frame (from ``url`` if given, else from
    a self-driven burst) and fail if a required panel is empty.
    Live mode needs ``url``; refreshes every ``interval_s`` until
    ``iterations`` frames (or Ctrl-C).
    """
    if once:
        if url is not None:
            try:
                samples = _scrape(url)
            except OSError as exc:
                emit(f"top: scrape of {url} failed: {exc}")
                return 2
            source = url
        else:
            samples = _self_drive(engine, logn, requests, slo_p99_ms)
            source = f"self-driven {engine} burst"
        panels = build_panels(samples)
        emit(render_panels(panels, source=source))
        missing = _missing_panels(panels, engine if url is None else None)
        if missing:
            emit(f"top: empty required panels: {', '.join(missing)}")
            return 1
        return 0

    if url is None:
        emit("top: live mode needs --url (or use --once for one frame)")
        return 2
    prev: Optional[Samples] = None
    frame = 0
    try:
        while iterations is None or frame < iterations:
            try:
                samples = _scrape(url)
            except OSError as exc:
                emit(f"top: scrape of {url} failed: {exc}")
                return 2
            panels = build_panels(
                samples, prev=prev, interval_s=interval_s if prev else None
            )
            emit(_CLEAR + render_panels(panels, source=url))
            prev = samples
            frame += 1
            if iterations is None or frame < iterations:
                time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0


def _missing_panels(
    panels: Dict[str, object], engine: Optional[str]
) -> List[str]:
    """Required panels that came up empty (self-driven ``--once`` gate)."""
    missing = []
    if not panels["requests"]["admitted"]:
        missing.append("requests")
    if not panels["ops"]:
        missing.append("ops")
    if not panels["coalesce"]["batches"]:
        missing.append("coalesce")
    if engine == "parallel":
        if not panels["slots"]:
            missing.append("slots")
        if not panels["arena"]["leases"]:
            missing.append("arena")
    return missing
