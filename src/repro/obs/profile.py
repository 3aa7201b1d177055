"""Profile one experiment end-to-end under the observability layer.

This is the engine behind ``python -m repro profile``: run one of the
paper's experiments with spans + metrics enabled, then render

* a per-phase wall-clock table (trace capture / scheduling / cache
  modelling / the experiment itself),
* the per-mnemonic dynamic instruction profile and simulated memory
  traffic from the ISA layer,
* port-utilization and critical-path statistics from the scheduler,
* cache-model hit rates per level,

and feed a flat ``{key: value}`` dict into the snapshot harness so
successive profile runs diff against each other (``BENCH_pipeline.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.export import (
    format_span_table,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.reader import MetricsView, cache_hit_rates
from repro.obs.session import observing
from repro.obs.spans import SpanRecord, span
from repro.obs.snapshot import (
    DEFAULT_SNAPSHOT_NAME,
    DEFAULT_THRESHOLD,
    SnapshotDiff,
    SnapshotStore,
)

#: How many mnemonics the instruction-profile section shows.
_TOP_OPS = 16


@dataclass
class ProfileReport:
    """Everything one profiled experiment run produced."""

    key: str
    title: str
    result: object  # ExperimentResult
    wall_s: float
    spans: List[SpanRecord] = field(repr=False, default_factory=list)
    span_aggregate: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    cache_rates: Dict[str, float] = field(default_factory=dict)


def available_experiments() -> List[str]:
    """Keys accepted by :func:`profile_experiment`, in paper order."""
    from repro.experiments.runner import ALL_EXPERIMENTS

    return [key for key, _, _ in ALL_EXPERIMENTS]


def profile_experiment(key: str) -> ProfileReport:
    """Run experiment ``key`` with observability enabled and collect it."""
    from repro.experiments.runner import experiment_registry

    registry = experiment_registry()
    if key not in registry:
        raise ObservabilityError(
            f"unknown experiment {key!r}; choose from: "
            + ", ".join(sorted(registry))
        )
    title, fn = registry[key]
    with observing() as session:
        with span(f"experiment:{key}", title=title) as root:
            result = fn()
        wall_s = session.spans.records[root.index].duration_s
        return ProfileReport(
            key=key,
            title=title,
            result=result,
            wall_s=wall_s,
            spans=list(session.spans.records),
            span_aggregate=session.spans.aggregate(),
            metrics=session.metrics.snapshot(),
            cache_rates=cache_hit_rates(session.metrics),
        )


def format_summary(report: ProfileReport) -> str:
    """The human-readable profile: phases, ops, ports, cache."""
    lines = [f"== profile: {report.key} ({report.title}) =="]
    lines.append(f"wall-clock: {report.wall_s:.3f}s")
    lines.append("")
    lines.append(format_span_table(report.span_aggregate))
    view = MetricsView(report.metrics)

    op_counts = {
        name[len("isa.ops.") :]: view.value(name)
        for name in view.names("isa.ops.")
        if view.value(name)
    }
    if op_counts:
        total = view.value("isa.instructions")
        lines.append("")
        lines.append(
            f"-- dynamic instruction profile "
            f"({int(total)} simulated instructions) --"
        )
        ranked = sorted(op_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        width = max(len(op) for op, _ in ranked[:_TOP_OPS])
        for op, count in ranked[:_TOP_OPS]:
            share = count / total * 100 if total else 0.0
            lines.append(f"{op.rjust(width)}  {int(count):>10}  {share:5.1f}%")
        if len(ranked) > _TOP_OPS:
            rest = sum(count for _, count in ranked[_TOP_OPS:])
            lines.append(
                f"{'(other)'.rjust(width)}  {int(rest):>10}  "
                f"{rest / total * 100 if total else 0.0:5.1f}%"
            )
        lines.append(
            f"memory traffic: "
            f"{int(view.value('isa.load_bytes'))} B loaded, "
            f"{int(view.value('isa.store_bytes'))} B stored "
            f"({int(view.value('isa.loads'))} loads / "
            f"{int(view.value('isa.stores'))} stores)"
        )

    ports = [
        name[len("sched.util.") :]
        for name in view.names("sched.util.")
        if view.stat(name, "count")
    ]
    if ports:
        blocks = int(view.value("sched.blocks"))
        lines.append("")
        lines.append(f"-- port utilization ({blocks} scheduled blocks) --")
        for port in ports:
            util = f"sched.util.{port}"
            lines.append(
                f"{port.rjust(6)}  mean {view.stat(util, 'mean') * 100:5.1f}%  "
                f"p99 {view.stat(util, 'p99') * 100:5.1f}% of bottleneck port"
            )
        crit = "sched.critical_path_cycles"
        if view.stat(crit, "count"):
            lines.append(
                f"critical path: mean {view.stat(crit, 'mean'):.1f} cycles, "
                f"p99 {view.stat(crit, 'p99'):.1f} cycles per block"
            )

    if report.cache_rates:
        lines.append("")
        lines.append("-- cache model (share of queries served per level) --")
        for level, rate in report.cache_rates.items():
            lines.append(f"{level.rjust(6)}  {rate * 100:5.1f}%")
        lines.append(
            f"modeled traffic: "
            f"{int(view.value('cache.bytes_modeled'))} B"
        )

    return "\n".join(lines)


def snapshot_values(report: ProfileReport) -> Dict[str, float]:
    """Flat lower-is-better values this profile contributes to snapshots."""
    values = {
        f"profile.{report.key}.wall_s": report.wall_s,
    }
    for phase in ("trace-capture", "schedule", "cache-model"):
        stats = report.span_aggregate.get(phase)
        if stats:
            values[f"profile.{report.key}.{phase}_s"] = stats["total_s"]
    # Headline simulated numbers: the "ours" column of the result table is
    # a ratio (higher = better), so invert it into lower-is-better form.
    if report.key == "headline":
        result = report.result
        for row in result.rows:
            metric, ours = row[0], float(row[1])
            if ours > 0:
                values[f"headline.inv.{metric}"] = 1.0 / ours
    instructions = MetricsView(report.metrics).value("isa.instructions")
    if instructions:
        values[f"profile.{report.key}.sim_instructions"] = instructions
    return values


def export_profile(
    report: ProfileReport, output_dir, formats: List[str]
) -> List[Path]:
    """Write the requested export files; returns the paths written."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "chrome" in formats:
        trace = to_chrome_trace(report.spans, process_name=f"repro:{report.key}")
        validate_chrome_trace(trace)
        path = out / f"trace_{report.key}.json"
        path.write_text(json.dumps(trace, indent=1))
        written.append(path)
    if "jsonl" in formats:
        path = out / f"obs_{report.key}.jsonl"
        path.write_text(to_jsonl(report.spans, report.metrics))
        written.append(path)
    return written


def record_snapshot(
    report: ProfileReport,
    snapshot_path=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> Optional[SnapshotDiff]:
    """Record this profile into the snapshot history; returns the diff."""
    path = Path(snapshot_path or DEFAULT_SNAPSHOT_NAME)
    store = SnapshotStore(path)
    return store.record(
        snapshot_values(report), label=f"profile:{report.key}", threshold=threshold
    )
