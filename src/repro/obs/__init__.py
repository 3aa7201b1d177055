"""``repro.obs`` — end-to-end instrumentation for the simulation pipeline.

The reproduction's results all flow through one pipeline (ISA simulation
-> trace -> machine model -> runtime estimate -> figure regeneration);
this package makes that pipeline observable the way the paper's own
methodology is (LLVM-MCA port-pressure reports, PISA validation tables):

* :mod:`repro.obs.spans` — nestable wall-clock spans with a no-op
  disabled path (``with span("schedule"): ...``).
* :mod:`repro.obs.metrics` — counters / gauges / histograms with exact
  percentiles.
* :mod:`repro.obs.catalog` — every metric family declared once (name
  pattern, kind, unit, meaning); label lifting and the docs table derive
  from it.
* :mod:`repro.obs.hooks` — the ``count``/``observe``/``set_gauge``
  emitters over catalogue patterns, plus the hooks that open spans,
  feed the flight recorder or summarise traces and schedules.
* :mod:`repro.obs.reader` — the one metric reader every report uses.
* :mod:`repro.obs.export` — JSON-lines and Chrome trace-event exporters
  (open the latter in ``chrome://tracing`` or Perfetto) plus text tables.
* :mod:`repro.obs.snapshot` — the ``BENCH_pipeline.json`` perf-snapshot
  history with regression diffing.
* :mod:`repro.obs.profile` — the ``python -m repro profile`` engine.
* :mod:`repro.obs.dist` — cross-process telemetry for the parallel
  engine: trace-context propagation into worker processes, worker-local
  capture, and parent-side merge onto per-worker trace lanes.
* :mod:`repro.obs.timeline` — the ``python -m repro timeline`` harness
  (merged batch timeline + per-worker utilization table).
* :mod:`repro.obs.attrib` — the ``python -m repro attrib`` analysis:
  decompose a parallel batch's wall time into overhead categories and
  report measured speedup against the ideal (compute / slots) bound.
* :mod:`repro.obs.trajectory` — the ``python -m repro perfgate``
  noise-aware regression gate over the unified ``BENCH_*.json`` history.
* :mod:`repro.obs.openmetrics` — OpenMetrics text exposition for any
  :class:`~repro.obs.metrics.MetricsRegistry`, plus a stdlib HTTP
  exporter thread for scraping.
* :mod:`repro.obs.slo` — sliding-window SLO accounting for the serve
  layer (per-op/tenant windowed p99, error-budget burn rate,
  ``serve.slo.*`` gauges, the ``slo_burn`` incident trigger).
* :mod:`repro.obs.flight` — always-on flight recorder: a bounded ring
  of recent spans/events/notes with trigger rules that dump
  ``incident-*.json`` (Perfetto trace slice + metrics snapshot);
  inspect with ``python -m repro incidents``.
* :mod:`repro.obs.top` — the ``python -m repro top`` live dashboard
  over a serving session or an OpenMetrics endpoint.

Typical use::

    from repro.obs import observing, span

    with observing() as session:
        with span("my-phase"):
            ...
        print(session.metrics.snapshot())

Everything is disabled by default; see docs/OBSERVABILITY.md.
"""

from repro.obs.attrib import (
    Attribution,
    attribute,
    attribute_jsonl,
    attribute_session,
    attribution_to_json,
    format_attribution,
)
from repro.obs.export import (
    format_span_table,
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    worker_lanes,
)
from repro.obs.flight import (
    FlightRecorder,
    list_incidents,
    run_incidents,
    summarize_incident,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.openmetrics import (
    OpenMetricsExporter,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.session import (
    ObsSession,
    current,
    disable,
    enable,
    is_enabled,
    observing,
)
from repro.obs.snapshot import (
    DEFAULT_SNAPSHOT_NAME,
    META_KEY,
    SnapshotDiff,
    SnapshotStore,
    diff_values,
    snapshot_meta,
)
from repro.obs.slo import SloTracker
from repro.obs.spans import SpanRecord, SpanSink, span
from repro.obs.top import build_panels, render_panels, run_top
from repro.obs.trajectory import (
    GateReport,
    KeyVerdict,
    gate,
    unified_history,
)

__all__ = [
    "Attribution",
    "FlightRecorder",
    "GateReport",
    "KeyVerdict",
    "OpenMetricsExporter",
    "SloTracker",
    "attribute",
    "attribute_jsonl",
    "attribute_session",
    "attribution_to_json",
    "format_attribution",
    "gate",
    "render_openmetrics",
    "snapshot_meta",
    "unified_history",
    "validate_openmetrics",
    "META_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "SnapshotDiff",
    "SnapshotStore",
    "SpanRecord",
    "SpanSink",
    "DEFAULT_SNAPSHOT_NAME",
    "current",
    "diff_values",
    "disable",
    "enable",
    "build_panels",
    "format_span_table",
    "from_jsonl",
    "is_enabled",
    "list_incidents",
    "observing",
    "render_panels",
    "run_incidents",
    "run_top",
    "span",
    "summarize_incident",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "worker_lanes",
]
