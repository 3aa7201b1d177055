"""OpenMetrics text exposition for a :class:`~repro.obs.metrics.MetricsRegistry`.

This is the scrapeable surface the future ``repro.serve`` layer needs
(ROADMAP item 3) and the idiom Intel HEXL's perf accounting popularized
for kernel libraries: every counter/gauge/histogram a session records
can be rendered as `OpenMetrics 1.0 text exposition
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_ and served
over plain ``http.server`` for Prometheus-style scraping.

Three pieces:

* :func:`render_openmetrics` — registry → exposition text. Dotted repro
  names are mangled to the ``[a-zA-Z0-9_:]`` charset with a ``repro_``
  prefix, the dynamic name segments :mod:`repro.obs.catalog` declares
  (worker slot, ISA mnemonic, cache level, scheduler port, engine/op,
  serve op/tenant/reason) are lifted into **labels** instead of
  exploding the family namespace, counters gain the
  spec-mandated ``_total`` sample suffix, and histograms are exposed
  with cumulative ``le`` buckets derived from the stored observations
  (scaled proportionally once a reservoir-sampled histogram no longer
  holds every value).
* :func:`validate_openmetrics` — a strict checker for the subset this
  module emits (family declarations before samples, name/label syntax,
  bucket monotonicity, the trailing ``# EOF``); the test suite and CI
  smoke run every rendering through it.
* :class:`OpenMetricsExporter` — an optional stdlib-only HTTP exporter
  thread serving ``GET /metrics`` from a registry provider (by default
  the live session's registry), so a long-running parallel workload can
  be watched with ``curl``/Prometheus while it executes.

No third-party client library is involved; the exposition is built by
hand and kept to the spec subset the validator pins down.
"""

from __future__ import annotations

import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.session import current as current_session

#: Content-Type an OpenMetrics scraper expects.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Default cumulative ``le`` bucket bounds (seconds-flavoured but serving
#: all histograms; override per call for dimensionless distributions).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0
)

#: Metric-family and label-name syntax (the spec's ABNF, sans UTF-8
#: extension which the text format does not allow in names).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

def mangle_family(family: str, prefix: str = "repro_") -> str:
    """Map a dotted family to the exposition's ``[a-zA-Z0-9_:]`` charset."""
    mangled = re.sub(r"[^a-zA-Z0-9_:]", "_", prefix + family)
    if not _NAME_RE.match(mangled):
        mangled = "_" + mangled
    return mangled


def mangle_name(name: str, prefix: str = "repro_") -> Tuple[str, Dict[str, str]]:
    """Map one dotted repro metric name to ``(family, labels)``.

    The label segments are the ones :mod:`repro.obs.catalog` declares:
    ``par.slot.0.busy_s`` becomes ``("repro_par_slot_busy_s",
    {"slot": "0"})``; a name the catalogue does not declare is mangled
    whole.
    """
    from repro.obs.catalog import family_of

    family, labels = family_of(name)
    return mangle_family(family, prefix), labels


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (``\\``, ``"``, LF)."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def escape_help(text: str) -> str:
    """Escape a HELP string per the exposition format (``\\`` and LF)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    """Render one sample value (integers without a trailing ``.0``)."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ObservabilityError(f"non-finite sample value {value!r}")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def histogram_buckets(
    histogram: Histogram, bounds: Sequence[float] = DEFAULT_BUCKETS
) -> List[Tuple[float, int]]:
    """Cumulative ``(le, count)`` pairs for one histogram, ending at +Inf.

    Exact while the histogram still holds every observation; once the
    reservoir has kicked in, the stored sample's cumulative fractions
    are scaled to the true total count (rounding a monotone sequence
    keeps it monotone), and the ``+Inf`` bucket is pinned to the exact
    running count either way.
    """
    values = sorted(histogram.values)
    total = histogram.count
    held = len(values)
    out: List[Tuple[float, int]] = []
    position = 0
    for bound in sorted(bounds):
        while position < held and values[position] <= bound:
            position += 1
        if held and held != total:
            scaled = int(round(position * (total / held)))
            out.append((bound, min(scaled, total)))
        else:
            out.append((bound, position))
    out.append((math.inf, total))
    return out


def _family_entries(
    metrics: MetricsRegistry, prefix: str
) -> Dict[str, List[Tuple[Dict[str, str], object]]]:
    """Group registry metrics into exposition families (sorted, checked)."""
    families: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
    kinds: Dict[str, str] = {}
    for name in metrics.names():
        metric = metrics.get(name)
        family, labels = mangle_name(name, prefix)
        kind = getattr(metric, "kind", None)
        if kind not in ("counter", "gauge", "histogram"):
            continue
        if kinds.setdefault(family, kind) != kind:
            raise ObservabilityError(
                f"metrics {name!r} and earlier entries map to family "
                f"{family!r} with conflicting types"
            )
        families.setdefault(family, []).append((labels, metric))
    return families


def render_openmetrics(
    metrics: MetricsRegistry,
    prefix: str = "repro_",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    help_texts: Optional[Dict[str, str]] = None,
) -> str:
    """Render a registry as OpenMetrics text exposition (with ``# EOF``).

    ``help_texts`` optionally maps *family* names (post-mangling) to HELP
    strings; families without an entry get a generic derived line.
    """
    lines: List[str] = []
    for family, entries in sorted(_family_entries(metrics, prefix).items()):
        kind = entries[0][1].kind
        help_text = (help_texts or {}).get(
            family, f"repro.obs metric family {family}"
        )
        lines.append(f"# HELP {family} {escape_help(help_text)}")
        lines.append(f"# TYPE {family} {kind}")
        for labels, metric in sorted(entries, key=lambda e: sorted(e[0].items())):
            if kind == "counter":
                lines.append(
                    f"{family}_total{_labels_text(labels)} "
                    f"{format_value(metric.value)}"
                )
            elif kind == "gauge":
                if metric.value is None:
                    continue
                lines.append(
                    f"{family}{_labels_text(labels)} "
                    f"{format_value(metric.value)}"
                )
            else:  # histogram
                for bound, count in histogram_buckets(metric, buckets):
                    le = "+Inf" if math.isinf(bound) else format_value(bound)
                    bucket_labels = dict(labels, le=le)
                    lines.append(
                        f"{family}_bucket{_labels_text(bucket_labels)} {count}"
                    )
                lines.append(
                    f"{family}_count{_labels_text(labels)} {metric.count}"
                )
                lines.append(
                    f"{family}_sum{_labels_text(labels)} "
                    f"{format_value(metric.sum if metric.count else 0.0)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validator (the exposition-format rules the tests and CI smoke pin down)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: [0-9.e+-]+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def _split_labels(text: str) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label set (no nested commas in
    values beyond escaped sequences, which this module never emits)."""
    labels: Dict[str, str] = {}
    if not text:
        return labels
    for pair in text.split(","):
        match = _LABEL_PAIR_RE.match(pair)
        if match is None:
            raise ObservabilityError(f"invalid label pair {pair!r}")
        labels[match.group("name")] = match.group("value")
    return labels


def validate_openmetrics(text: str) -> None:
    """Check exposition text against the subset of OpenMetrics we emit.

    Raises :class:`~repro.errors.ObservabilityError` on: missing/misplaced
    ``# EOF``, samples without a preceding ``# TYPE``, malformed metric or
    label names, counter samples without the ``_total`` suffix,
    non-monotone or unsorted histogram buckets, or a ``+Inf`` bucket that
    disagrees with ``_count``.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ObservabilityError("exposition must end with '# EOF'")
    types: Dict[str, str] = {}
    bucket_state: Dict[str, Tuple[float, float]] = {}  # family -> (last le, last count)
    counts: Dict[str, float] = {}
    infinity_buckets: Dict[str, float] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ObservabilityError(f"line {lineno}: malformed TYPE")
            _, _, family, kind = parts
            if not _NAME_RE.match(family):
                raise ObservabilityError(
                    f"line {lineno}: invalid family name {family!r}"
                )
            if family in types:
                raise ObservabilityError(
                    f"line {lineno}: duplicate TYPE for {family!r}"
                )
            if kind not in ("counter", "gauge", "histogram"):
                raise ObservabilityError(
                    f"line {lineno}: unsupported type {kind!r}"
                )
            types[family] = kind
            continue
        if line.startswith("#"):
            raise ObservabilityError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"line {lineno}: malformed sample {line!r}")
        sample = match.group("name")
        labels = _split_labels(match.group("labels") or "")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ObservabilityError(
                f"line {lineno}: non-numeric value {raw_value!r}"
            ) from exc
        family = _resolve_family(sample, labels, types)
        if family is None:
            raise ObservabilityError(
                f"line {lineno}: sample {sample!r} has no preceding TYPE"
            )
        kind = types[family]
        if kind == "counter":
            if not sample.endswith("_total"):
                raise ObservabilityError(
                    f"line {lineno}: counter sample {sample!r} "
                    "must end with '_total'"
                )
            if value < 0:
                raise ObservabilityError(
                    f"line {lineno}: negative counter value {value}"
                )
        elif kind == "histogram" and sample == f"{family}_bucket":
            if "le" not in labels:
                raise ObservabilityError(
                    f"line {lineno}: histogram bucket missing 'le'"
                )
            le = (
                math.inf
                if labels["le"] == "+Inf"
                else float(labels["le"])
            )
            series = family + _labels_text(
                {k: v for k, v in labels.items() if k != "le"}
            )
            last_le, last_count = bucket_state.get(
                series, (-math.inf, -math.inf)
            )
            if le <= last_le:
                raise ObservabilityError(
                    f"line {lineno}: bucket le {labels['le']} out of order"
                )
            if value < last_count:
                raise ObservabilityError(
                    f"line {lineno}: bucket counts not monotone "
                    f"({value} < {last_count})"
                )
            bucket_state[series] = (le, value)
            if math.isinf(le):
                infinity_buckets[series] = value
        elif kind == "histogram" and sample == f"{family}_count":
            series = family + _labels_text(labels)
            counts[series] = value
    for series, total in counts.items():
        if series in infinity_buckets and infinity_buckets[series] != total:
            raise ObservabilityError(
                f"histogram {series}: +Inf bucket "
                f"{infinity_buckets[series]} != count {total}"
            )


def _resolve_family(
    sample: str, labels: Dict[str, str], types: Dict[str, str]
) -> Optional[str]:
    """Find the declared family a sample name belongs to, if any."""
    if sample in types:
        return sample
    for suffix in ("_total", "_bucket", "_count", "_sum"):
        if sample.endswith(suffix) and sample[: -len(suffix)] in types:
            return sample[: -len(suffix)]
    return None


# ---------------------------------------------------------------------------
# HTTP exporter (optional, stdlib-only)
# ---------------------------------------------------------------------------


def _default_source() -> Optional[MetricsRegistry]:
    session = current_session()
    return session.metrics if session is not None else None


class OpenMetricsExporter:
    """Serve ``GET /metrics`` for the active (or a provided) registry.

    The registry is resolved *per scrape* through ``source`` (default:
    the live session's registry, or an empty exposition when none is
    active), so the exporter can be started once and observe sessions as
    they come and go. Binds ``host:port`` (port 0 picks a free one);
    :meth:`start`/:meth:`stop` manage the daemon serving thread.
    """

    def __init__(
        self,
        source: Optional[Callable[[], Optional[MetricsRegistry]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self._source = source or _default_source
        self._host = host
        self._requested_port = port
        self._prefix = prefix
        self._buckets = tuple(buckets)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise ObservabilityError("exporter is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"

    def render(self) -> str:
        registry = self._source()
        if registry is None:
            return "# EOF\n"
        return render_openmetrics(
            registry, prefix=self._prefix, buckets=self._buckets
        )

    def start(self) -> "OpenMetricsExporter":
        if self._server is not None:
            return self
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?")[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                try:
                    body = exporter.render().encode("utf-8")
                except ObservabilityError as exc:
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes must not spam the workload's stdout

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-openmetrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "OpenMetricsExporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
