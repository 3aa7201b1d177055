"""One metric reader for every report.

``attrib``, ``top``, ``profile``, ``timeline`` and ``loadgen`` read
metrics by their dotted catalogue names (:mod:`repro.obs.catalog`)
through :class:`MetricsView`, whatever the source: a live
:class:`~repro.obs.metrics.MetricsRegistry` (read at call time), its
``snapshot()``, JSONL metric rows re-read from an export, or a parsed
OpenMetrics scrape. The derived views that more than one report renders
live here too: :func:`serve_summary` (the ``attrib`` serve section and
the ``top`` panels) and :func:`cache_hit_rates` (``profile``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class MetricsView:
    """Read-only access to metrics by dotted name; absent reads as a default."""

    def __init__(self, source=None) -> None:
        self._registry = source if isinstance(source, MetricsRegistry) else None
        self._data: Dict[str, dict] = (
            dict(source) if source is not None and self._registry is None else {}
        )

    def sample(self, name: str) -> Optional[Dict[str, object]]:
        """The snapshot dict of one metric, or ``None``."""
        if self._registry is not None:
            metric = self._registry.get(name)
            return metric.snapshot() if metric is not None else None
        return self._data.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """A counter's or gauge's value."""
        sample = self.sample(name)
        value = sample.get("value") if sample else None
        return float(value) if value is not None else default

    def stat(self, name: str, key: str, default: float = 0.0) -> float:
        """One histogram statistic (``count``, ``sum``, ``mean``, ``p50``, ``p99``...)."""
        sample = self.sample(name)
        if not sample or sample.get("type") != "histogram":
            return default
        value = sample.get(key)
        return float(value) if value is not None else default

    def names(self, prefix: str = "") -> List[str]:
        """Sorted metric names under a dotted prefix."""
        if self._registry is not None:
            return self._registry.names(prefix)
        return sorted(name for name in self._data if name.startswith(prefix))


def serve_summary(view: MetricsView) -> Dict[str, object]:
    """Serve front-door totals plus one latency row per op that completed.

    Each op row carries the end-to-end p50/p99, the p99 of each stage of
    the decomposition (coalesce wait, queue wait, compute) and the op's
    SLO gauges (target 0 when none was declared).
    """
    ops: Dict[str, Dict[str, float]] = {}
    prefix = "serve.latency_s."
    for name in view.names(prefix):
        op = name[len(prefix):]
        completed = view.stat(name, "count")
        if not completed:
            continue
        ops[op] = {
            "count": int(completed),
            "latency_p50_s": view.stat(name, "p50"),
            "latency_p99_s": view.stat(name, "p99"),
            "coalesce_wait_p99_s": view.stat(f"serve.coalesce_wait_s.{op}", "p99"),
            "queue_wait_p99_s": view.stat(f"serve.queue_wait_s.{op}", "p99"),
            "compute_p99_s": view.stat(f"serve.compute_s.{op}", "p99"),
            "slo_target_ms": view.value(f"serve.slo.target_ms.{op}"),
            "burn_rate": view.value(f"serve.slo.burn_rate.{op}"),
            "breach_windows": int(view.value(f"serve.slo.breach_windows.{op}")),
            "violations": int(view.value(f"serve.slo.violations.{op}")),
        }
    return {
        "admitted": view.value("serve.requests.admitted"),
        "completed": view.value("serve.requests.completed"),
        "failed": view.value("serve.requests.failed"),
        "shed": view.value("serve.shed"),
        "degraded": view.value("serve.degraded"),
        "batches": view.value("serve.batches"),
        "coalesce_fill": view.stat("serve.batch.size", "mean"),
        "batch_wait_p99_s": view.stat("serve.batch.wait_s", "p99"),
        "backlog_depth": view.value("serve.queue.depth"),
        "latency_p99_s": view.stat("serve.request.latency_s", "p99"),
        "ops": ops,
    }


def cache_hit_rates(metrics) -> Dict[str, float]:
    """Fraction of cache-model accesses served at each level.

    The "hit rate" at level X is the share of queries whose working set
    fit in X (and not in any faster level), the simulation analogue of
    a hit-ratio PMU counter. ``{}`` when no accesses were recorded.
    """
    view = MetricsView(metrics)
    levels = ("L1", "L2", "L3", "DRAM")
    counts = {level: view.value(f"cache.access.{level}") for level in levels}
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {level: counts[level] / total for level in levels}
