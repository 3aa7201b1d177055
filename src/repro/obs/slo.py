"""Serving SLOs: sliding-window tail tracking and error-budget burn rate.

The serve layer's contract with its clients is a latency objective —
"p99 under ``slo_p99_ms``" — and the paper's thesis (every cycle of
overhead accounted for) extends naturally to it: a p99 number alone says
*that* the objective was missed, the decomposed queue-wait /
coalesce-wait / compute histograms (``serve.coalesce_wait_s.<op>`` and
siblings) say *where* the time went, and this module
says *how fast the error budget is burning* so an operator knows whether
to care.

:class:`SloTracker` buckets completed requests into fixed windows of
``window_s`` seconds per op (and per tenant). Closing a window computes
its p99 and violation fraction and publishes, through the live session's
registry (no session, no publication, tracking still cheap):

* ``serve.slo.p99_ms.<op>`` — the last closed window's p99 (gauge);
* ``serve.slo.target_ms.<op>`` — the configured objective (gauge);
* ``serve.slo.burn_rate.<op>`` — violation fraction over the last
  ``burn_windows`` closed windows divided by ``error_budget`` (gauge;
  1.0 means the budget is being spent exactly as fast as it accrues,
  10 means ten times too fast);
* ``serve.slo.breach_windows.<op>`` — consecutive closed windows whose
  p99 exceeded the target (gauge);
* ``serve.slo.violations.<op>`` — requests over target, cumulative
  (counter). Failed requests (deadline, engine error) always count as
  violations but are excluded from the latency percentiles.

When the breach streak reaches ``burn_windows``, the tracker raises an
``slo_breach`` note on the session's flight recorder (if one is
attached), which fires the ``slo_burn`` incident trigger — "p99 over SLO
for N windows" becomes a dump with the trace slice that shows why.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.hooks import count, set_gauge
from repro.obs.session import current

#: Per-window latency samples kept for the percentile (p99 needs the
#: tail, not the mass; windows are short so this cap is rarely hit).
WINDOW_SAMPLE_CAP = 2048


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile over a non-empty sorted copy."""
    ordered = sorted(values)
    rank = max(
        0,
        min(
            len(ordered) - 1,
            int(round(pct / 100.0 * (len(ordered) - 1))),
        ),
    )
    return ordered[rank]


class _WindowState:
    """Accumulator for one (op or tenant) series' current window."""

    __slots__ = ("index", "latencies", "count", "violations", "closed", "streak")

    def __init__(self, history: int) -> None:
        self.index: Optional[int] = None
        self.latencies: List[float] = []
        self.count = 0
        self.violations = 0
        #: Closed windows, oldest first: (count, violations, p99_ms).
        self.closed: Deque[Tuple[int, int, float]] = deque(maxlen=history)
        self.streak = 0  # consecutive closed windows with p99 > target


class SloTracker:
    """Sliding-window SLO accounting for one service (see module docs).

    Args:
        slo_p99_ms: The latency objective. ``None`` disables breach
            detection (windows still close, burn rate reads 0).
        window_s: Window width in seconds.
        burn_windows: Windows the burn rate averages over; also the
            breach-streak length that raises the ``slo_breach`` note.
        error_budget: Allowed violation fraction (0.01 = 1% of requests
            may exceed the objective before the budget burns).
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        slo_p99_ms: Optional[float] = None,
        window_s: float = 1.0,
        burn_windows: int = 3,
        error_budget: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if burn_windows < 1:
            raise ValueError("burn_windows must be >= 1")
        if not 0 < error_budget <= 1:
            raise ValueError("error_budget must be in (0, 1]")
        self.slo_p99_ms = slo_p99_ms
        self.window_s = float(window_s)
        self.burn_windows = int(burn_windows)
        self.error_budget = float(error_budget)
        self._clock = clock
        history = max(self.burn_windows, 8)
        self._ops: Dict[str, _WindowState] = {}
        self._tenants: Dict[str, _WindowState] = {}
        self._history = history

    # ------------------------------------------------------------------

    def record(
        self, op: str, tenant: str, latency_s: float, ok: bool = True
    ) -> None:
        """Account one finished request into the current window.

        ``ok=False`` (deadline expiry, engine error) counts against the
        error budget without contributing a latency sample.
        """
        now = self._clock()
        index = int(now / self.window_s)
        latency_ms = latency_s * 1e3
        violation = (not ok) or (
            self.slo_p99_ms is not None and latency_ms > self.slo_p99_ms
        )
        self._feed(self._ops, op, index, latency_ms, ok, violation, publish=True)
        self._feed(
            self._tenants, tenant, index, latency_ms, ok, violation,
            publish=False,
        )
        if violation:
            self._publish_violation(op, tenant)

    def _feed(
        self,
        table: Dict[str, _WindowState],
        key: str,
        index: int,
        latency_ms: float,
        ok: bool,
        violation: bool,
        publish: bool,
    ) -> None:
        state = table.get(key)
        if state is None:
            state = table[key] = _WindowState(self._history)
            state.index = index
        elif index != state.index:
            self._close_window(key, state, publish)
            state.index = index
        state.count += 1
        if violation:
            state.violations += 1
        if ok and len(state.latencies) < WINDOW_SAMPLE_CAP:
            state.latencies.append(latency_ms)

    def _close_window(self, key: str, state: _WindowState, publish: bool) -> None:
        p99_ms = (
            _percentile(state.latencies, 99.0) if state.latencies else 0.0
        )
        state.closed.append((state.count, state.violations, p99_ms))
        breached = (
            self.slo_p99_ms is not None
            and state.latencies
            and p99_ms > self.slo_p99_ms
        )
        state.streak = state.streak + 1 if breached else 0
        state.latencies = []
        state.count = 0
        state.violations = 0
        if publish:
            self._publish_window(key, state, p99_ms)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def burn_rate(self, op: str) -> float:
        """Violation fraction over the last ``burn_windows`` closed
        windows, divided by the error budget (0.0 with no history)."""
        state = self._ops.get(op)
        if state is None or not state.closed:
            return 0.0
        recent = list(state.closed)[-self.burn_windows:]
        total = sum(n for n, _, _ in recent)
        if not total:
            return 0.0
        violations = sum(v for _, v, _ in recent)
        return (violations / total) / self.error_budget

    def breach_streak(self, op: str) -> int:
        state = self._ops.get(op)
        return state.streak if state is not None else 0

    def window_p99_ms(self, op: str) -> Optional[float]:
        """The most recently closed window's p99 for ``op`` (or ``None``)."""
        state = self._ops.get(op)
        if state is None or not state.closed:
            return None
        return state.closed[-1][2]

    def tenant_p99_ms(self, tenant: str) -> Optional[float]:
        state = self._tenants.get(tenant)
        if state is None or not state.closed:
            return None
        return state.closed[-1][2]

    # ------------------------------------------------------------------
    # Publication (hook pattern: no session → no-op)
    # ------------------------------------------------------------------

    def _publish_window(self, op: str, state: _WindowState, p99_ms: float) -> None:
        session = current()
        if session is None:
            return
        set_gauge("serve.slo.p99_ms.<op>", p99_ms, op)
        if self.slo_p99_ms is not None:
            set_gauge("serve.slo.target_ms.<op>", self.slo_p99_ms, op)
        set_gauge("serve.slo.burn_rate.<op>", self.burn_rate(op), op)
        set_gauge("serve.slo.breach_windows.<op>", state.streak, op)
        if state.streak and state.streak >= self.burn_windows:
            flight = session.flight
            if flight is not None:
                flight.note(
                    "slo_breach",
                    op=op,
                    windows=state.streak,
                    p99_ms=round(p99_ms, 3),
                    target_ms=self.slo_p99_ms,
                )

    def _publish_violation(self, op: str, tenant: str) -> None:
        count("serve.slo.violations")
        count("serve.slo.violations.<op>", op)
        count("serve.slo.violations.tenant.<tenant>", tenant)
