"""Flight recorder: a bounded ring of recent telemetry + incident dumps.

The serving front door's interesting failures are *transient* — a p99
blowup while the breaker flaps, a shed storm that lasts 300 ms — and by
the time anyone runs ``python -m repro profile`` the evidence is gone.
The :class:`FlightRecorder` keeps the last ``capacity`` telemetry
entries (completed spans, structured events, and *notes* emitted by the
instrumentation hooks) in a ring buffer, always on while attached, and
watches the note stream for **trigger rules**:

* ``breaker_open`` — a circuit breaker transitioned to ``open``;
* ``shed_spike`` — ``shed_spike_count`` requests shed within
  ``window_s`` seconds;
* ``deadline_burst`` — ``deadline_burst_count`` deadline failures
  within ``window_s`` seconds;
* ``worker_restart`` — a pool worker was replaced after a crash/kill;
* ``slo_burn`` — the SLO tracker reported p99 over target for its
  configured number of consecutive windows (:mod:`repro.obs.slo`).

When a rule fires, the recorder keeps capturing for ``post_trigger_s``
(so the dump shows the aftermath, not just the lead-up) and then writes
``incident-<ts>.json`` **atomically** (temp file + ``os.replace``): the
trigger, the ring's spans as a Perfetto-loadable Chrome trace slice, the
event/note tail, and a full metrics snapshot. ``cooldown_s`` rate-limits
dumps so a breaker flap storm produces one incident, not fifty.

Cost model (the <5% overhead invariant): nothing here runs while
observability is disabled — the hooks bail on their session check before
ever touching the recorder. With a session active but no recorder
attached, feeds cost one ``None`` attribute check. Attached, a span
close is a ``deque.append`` (O(1), bounded memory) plus one pending-
incident check; trigger evaluation runs only on *notes*, which are
rare-by-construction events (sheds, failures, breaker transitions), not
per-request traffic.

``python -m repro incidents`` (:func:`run_incidents`) lists and
summarizes the dumps in a directory.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.reader import MetricsView

#: Schema tag written into every incident dump.
INCIDENT_FORMAT = "repro.obs.incident/v1"

#: Trigger rules evaluated over the note stream. ``kind`` is the note
#: kind that feeds the rule; count rules fire on ``count`` notes of that
#: kind within the recorder's ``window_s``.
IMMEDIATE_RULES: Dict[str, str] = {
    "worker_restart": "worker_restart",
    "slo_breach": "slo_burn",
}


class FlightRecorder:
    """Always-on bounded capture of recent spans/events/notes (see module docs).

    Args:
        out_dir: Directory incident dumps are written to.
        capacity: Ring size (total entries across spans/events/notes).
        clock: Injectable monotonic clock (tests drive trigger windows
            deterministically with a fake).
        window_s: Sliding window for the count-based rules.
        shed_spike_count: Sheds within ``window_s`` that fire ``shed_spike``.
        deadline_burst_count: Deadline failures within ``window_s`` that
            fire ``deadline_burst``.
        post_trigger_s: How long after a trigger the dump keeps
            capturing before it is finalized.
        cooldown_s: Minimum spacing between two incident dumps.
    """

    def __init__(
        self,
        out_dir: str = ".",
        capacity: int = 2048,
        clock: Callable[[], float] = time.monotonic,
        window_s: float = 1.0,
        shed_spike_count: int = 20,
        deadline_burst_count: int = 8,
        post_trigger_s: float = 0.25,
        cooldown_s: float = 5.0,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.capacity = int(capacity)
        self._clock = clock
        self.window_s = float(window_s)
        self.post_trigger_s = float(post_trigger_s)
        self.cooldown_s = float(cooldown_s)
        self._count_rules: Dict[str, Tuple[str, int]] = {
            "shed": ("shed_spike", int(shed_spike_count)),
            "deadline_failure": ("deadline_burst", int(deadline_burst_count)),
        }
        #: (seq, kind, payload) entries; kind is "span"/"event"/"note".
        self._ring: Deque[Tuple[int, str, object]] = deque(maxlen=self.capacity)
        self._recent: Dict[str, Deque[float]] = {
            kind: deque(maxlen=count)
            for kind, (_, count) in self._count_rules.items()
        }
        self._seq = 0
        self._session = None
        self._pending: Optional[Dict[str, object]] = None
        self._pending_deadline = 0.0
        self._last_dump_at: Optional[float] = None
        self._lock = threading.Lock()
        #: Paths of incidents written by this recorder, oldest first.
        self.incidents: List[Path] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, session) -> "FlightRecorder":
        """Start feeding from ``session`` (spans via the sink's close hook,
        events via ``session.event``, notes via the obs hooks)."""
        self._session = session
        session.flight = self
        session.spans.on_close = self._record_span
        return self

    def detach(self) -> None:
        session = self._session
        if session is not None:
            if session.flight is self:
                session.flight = None
            if session.spans.on_close == self._record_span:
                session.spans.on_close = None
        self._session = None

    # ------------------------------------------------------------------
    # Feeds (hot-ish path: O(1), no allocation beyond the ring tuple)
    # ------------------------------------------------------------------

    def _record_span(self, record) -> None:
        self._seq += 1
        self._ring.append((self._seq, "span", record))
        if self._pending is not None:
            self._maybe_finalize(self._clock())

    def record_event(self, record: Dict[str, object]) -> None:
        self._seq += 1
        self._ring.append((self._seq, "event", record))
        if self._pending is not None:
            self._maybe_finalize(self._clock())

    def note(self, kind: str, **fields: object) -> None:
        """Record one noteworthy occurrence and evaluate the trigger rules.

        Called by the instrumentation hooks for sheds, deadline
        failures, breaker transitions, worker restarts, and SLO
        breaches — the signals incidents are made of.
        """
        now = self._clock()
        self._seq += 1
        entry = {"kind": kind, "t_mono": now}
        if fields:
            entry.update(fields)
        self._ring.append((self._seq, "note", entry))

        rule = None
        if kind == "breaker" and fields.get("state") == "open":
            rule = "breaker_open"
        elif kind in IMMEDIATE_RULES:
            rule = IMMEDIATE_RULES[kind]
        elif kind in self._count_rules:
            name, count = self._count_rules[kind]
            recent = self._recent[kind]
            recent.append(now)
            if len(recent) == count and now - recent[0] <= self.window_s:
                rule = name
        if rule is not None:
            self._fire(rule, entry, now)
        elif self._pending is not None:
            self._maybe_finalize(now)

    # ------------------------------------------------------------------
    # Trigger → pending → dump
    # ------------------------------------------------------------------

    def _fire(self, rule: str, entry: Dict[str, object], now: float) -> None:
        with self._lock:
            if self._pending is not None:
                # Already capturing an aftermath: fold this trigger into
                # the same incident (a crash storm that restarts workers
                # AND opens the breaker is one incident, not two) and
                # extend the capture window so its own aftermath lands.
                also = self._pending.setdefault("also", [])
                also.append({
                    "rule": rule,
                    "detail": {
                        key: value
                        for key, value in entry.items()
                        if key != "t_mono"
                    },
                    "seq": self._seq,
                })
                self._pending_deadline = max(
                    self._pending_deadline, now + self.post_trigger_s
                )
                return
            if (
                self._last_dump_at is not None
                and now - self._last_dump_at < self.cooldown_s
            ):
                return  # rate-limited: the previous dump covers this storm
            detail = {
                key: value
                for key, value in entry.items()
                if key not in ("t_mono",)
            }
            self._pending = {
                "rule": rule,
                "detail": detail,
                "seq": self._seq,
                "t_mono": now,
            }
            self._pending_deadline = now + self.post_trigger_s

    def _maybe_finalize(self, now: float) -> None:
        with self._lock:
            if self._pending is None or now < self._pending_deadline:
                return
            pending, self._pending = self._pending, None
            self._last_dump_at = now
        self._dump(pending)

    def flush(self) -> Optional[Path]:
        """Finalize a pending incident immediately (shutdown, chaos harness).

        Returns the written path, or ``None`` when no trigger is pending.
        """
        with self._lock:
            pending, self._pending = self._pending, None
            if pending is None:
                return None
            self._last_dump_at = self._clock()
        return self._dump(pending)

    def _dump(self, trigger: Dict[str, object]) -> Path:
        from repro.obs.export import span_to_dict, to_chrome_trace

        entries = list(self._ring)
        trigger_seq = int(trigger["seq"])
        spans = [payload for _, kind, payload in entries if kind == "span"]
        events = [payload for _, kind, payload in entries if kind == "event"]
        notes = [payload for _, kind, payload in entries if kind == "note"]
        pre_spans = sum(
            1 for seq, kind, _ in entries if kind == "span" and seq <= trigger_seq
        )
        trace = to_chrome_trace(spans, process_name="repro:incident")
        session = self._session
        payload = {
            "format": INCIDENT_FORMAT,
            "trigger": {
                "rule": trigger["rule"],
                "detail": trigger["detail"],
                "seq": trigger_seq,
                "t_mono": trigger["t_mono"],
                "wall_time": time.strftime(
                    "%Y-%m-%dT%H:%M:%S%z", time.localtime()
                ),
                #: Triggers that fired during this incident's aftermath
                #: window, folded in rather than dumped separately.
                "also": list(trigger.get("also", [])),
            },
            "captured": {
                "entries": len(entries),
                "spans": len(spans),
                "pre_trigger_spans": pre_spans,
                "post_trigger_spans": len(spans) - pre_spans,
                "events": len(events),
                "notes": len(notes),
                "dropped": max(0, self._seq - len(entries)),
                "capacity": self.capacity,
            },
            "trace": trace,
            "spans": [span_to_dict(record) for record in spans],
            "events": events,
            "notes": notes,
            "metrics": (
                session.metrics.snapshot() if session is not None else {}
            ),
            "meta": {"pid": os.getpid()},
        }
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
        path = self.out_dir / f"incident-{stamp}-{trigger_seq}.json"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=1, default=str))
        os.replace(tmp, path)  # readers never see a half-written dump
        self.incidents.append(path)
        return path

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self._ring)}/{self.capacity} entries, "
            f"{len(self.incidents)} incidents)"
        )


# ---------------------------------------------------------------------------
# The `python -m repro incidents` driver
# ---------------------------------------------------------------------------


def list_incidents(directory: str = ".") -> List[Dict[str, object]]:
    """Parse every ``incident-*.json`` in ``directory`` (sorted by name)."""
    out = []
    for path in sorted(Path(directory).glob("incident-*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if data.get("format") != INCIDENT_FORMAT:
            continue
        data["_path"] = str(path)
        out.append(data)
    return out


def summarize_incident(data: Dict[str, object]) -> str:
    """One human-readable block for one parsed incident dump."""
    trigger = data.get("trigger", {})
    captured = data.get("captured", {})
    metrics = MetricsView(data.get("metrics"))
    folded = [
        str(extra.get("rule")) for extra in trigger.get("also", []) or []
    ]
    lines = [
        f"{Path(str(data.get('_path', '?'))).name}",
        f"  trigger: {trigger.get('rule', '?')} at "
        f"{trigger.get('wall_time', '?')} "
        f"(detail: {json.dumps(trigger.get('detail', {}), default=str)})"
        + (f" + folded: {', '.join(folded)}" if folded else ""),
        f"  captured: {captured.get('spans', 0)} spans "
        f"({captured.get('pre_trigger_spans', 0)} pre-trigger, "
        f"{captured.get('post_trigger_spans', 0)} post), "
        f"{captured.get('events', 0)} events, "
        f"{captured.get('notes', 0)} notes"
        + (
            f", {captured.get('dropped', 0)} older entries evicted"
            if captured.get("dropped")
            else ""
        ),
    ]
    highlights = []
    for name in (
        "serve.shed",
        "serve.requests.failed",
        "serve.degraded",
        "resil.breaker.open",
        "par.workers.restarted",
    ):
        value = metrics.value(name)
        if value:
            highlights.append(f"{name}={value:g}")
    if highlights:
        lines.append("  metrics: " + "  ".join(highlights))
    return "\n".join(lines)


def run_incidents(
    directory: str = ".",
    fail_empty: bool = False,
    emit: Callable[[str], None] = print,
) -> int:
    """List and summarize the incident dumps in ``directory`` (CLI driver)."""
    incidents = list_incidents(directory)
    if not incidents:
        emit(f"incidents: none found in {directory}/")
        return 1 if fail_empty else 0
    emit(f"incidents: {len(incidents)} in {directory}/")
    for data in incidents:
        emit("")
        emit(summarize_incident(data))
    return 0
