"""Overhead guard: instrumentation must never slow the emit hot path.

The observability layer's contract is that its permanent call sites cost
nothing measurable while disabled. These microbenchmarks compare the
library's :func:`repro.isa.trace.emit` paths against *control* functions
that replicate the pre-observability (seed) implementation line for line,
and assert the library is within 5% of the control. If a future change
sneaks per-emit work into the hot path (an attribute lookup, a hook call,
a flag check inside ``Tracer.emit``), this guard trips.

Identical workloads still jitter a little on shared CI hardware, so each
comparison takes the best of several timing repeats and retries the whole
measurement a few times — it fails only if *every* attempt exceeds the
budget, which noise alone essentially never produces.
"""

import time

import pytest

from repro.isa.trace import Tracer, emit, tracing
from repro.obs import session as obs_session

#: Maximum allowed slowdown of the instrumented library vs the control.
BUDGET = 1.05

#: emit() calls per timed sample.
CALLS = 20_000

_ATTEMPTS = 8
_REPEATS = 5


# -- control: the seed implementation of the emit fast paths, verbatim --

_CONTROL_ACTIVE = []


def _control_current():
    return _CONTROL_ACTIVE[-1] if _CONTROL_ACTIVE else None


def _control_ids(objs):
    out = []
    for obj in objs:
        vid = getattr(obj, "vid", None)
        out.append(int(vid) if vid is not None else int(obj))
    return tuple(out)


def _control_emit(op, dests=(), srcs=(), tag="", imm=None):
    tracer = _control_current()
    if tracer is None:
        return
    tracer.emit(op, _control_ids(dests), _control_ids(srcs), tag, imm)


def _best_of(fn, repeats=_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_within_budget(run_library, run_control):
    ratios = []
    for _ in range(_ATTEMPTS):
        library = _best_of(run_library)
        control = _best_of(run_control)
        ratio = library / control
        ratios.append(ratio)
        if ratio <= BUDGET:
            return
    pytest.fail(
        f"emit hot path exceeded the {BUDGET:.2f}x overhead budget in all "
        f"{_ATTEMPTS} attempts; library/control ratios: "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs_session.disable()
    yield
    obs_session.disable()


class TestEmitOverhead:
    def test_disabled_tracer_no_op_path(self):
        """No active tracer, observability off: emit must stay a no-op."""

        def run_library():
            e = emit
            for _ in range(CALLS):
                e("add64")

        def run_control():
            e = _control_emit
            for _ in range(CALLS):
                e("add64")

        _assert_within_budget(run_library, run_control)

    def test_active_tracer_capture_path(self):
        """With a tracer active (obs still off), capture cost is unchanged."""

        def run_library():
            with tracing():
                e = emit
                for _ in range(CALLS):
                    e("add64", (), (1, 2))

        def run_control():
            tracer = Tracer()
            _CONTROL_ACTIVE.append(tracer)
            try:
                e = _control_emit
                for _ in range(CALLS):
                    e("add64", (), (1, 2))
            finally:
                _CONTROL_ACTIVE.pop()

        _assert_within_budget(run_library, run_control)

    def test_disabled_span_overhead_is_bounded(self):
        """A disabled span() is one global read; keep it microseconds-cheap.

        Absolute bound (not a ratio): 2000 disabled spans must cost well
        under a millisecond-scale budget even on slow CI machines.
        """
        from repro.obs.spans import span

        def run():
            for _ in range(2_000):
                with span("noop"):
                    pass

        best = _best_of(run)
        assert best < 0.05, f"2000 disabled spans took {best * 1e3:.1f} ms"


class TestFlightOverhead:
    """The always-on flight recorder must respect the same invariants."""

    SPAN_CALLS = 5_000

    def test_attached_recorder_span_path_within_budget(self):
        """Spans with a recorder attached vs a plain observing session.

        The recorder's feed is one deque.append per span close plus a
        pending-incident check; that must fit in the 5% budget relative
        to an identically observed session without a recorder.
        """
        from repro.obs.flight import FlightRecorder
        from repro.obs.session import observing
        from repro.obs.spans import span

        def run_library():
            with observing() as session:
                FlightRecorder(capacity=1024).attach(session)
                for _ in range(self.SPAN_CALLS):
                    with span("work"):
                        pass

        def run_control():
            with observing():
                for _ in range(self.SPAN_CALLS):
                    with span("work"):
                        pass

        _assert_within_budget(run_library, run_control)

    def test_disabled_hooks_allocate_nothing(self):
        """Obs off: the serve/flight hook call sites must not allocate.

        tracemalloc over a warmed loop of the permanent call sites —
        record_serve_shed (flight-feeding), a labelled call of each
        generic emitter (count / observe / set_gauge), and a disabled
        span — must show zero allocations, which is what "no-op when
        disabled" means.
        """
        import tracemalloc

        from repro.obs.hooks import (
            count,
            observe,
            record_serve_shed,
            set_gauge,
        )
        from repro.obs.spans import span

        def hot_loop():
            for _ in range(200):
                record_serve_shed("queue_full")
                count("serve.admitted.<op>", "polymul")
                count("par.slot.<slot>.busy_s", 1, amount=0.5)
                observe("serve.tenant.<tenant>.latency_s", 0.006, "t0")
                set_gauge("serve.slo.burn_rate.<op>", 2.5, "polymul")
                with span("noop"):
                    pass

        hot_loop()  # warm caches/imports before measuring
        tracemalloc.start()
        try:
            snap_before = tracemalloc.take_snapshot()
            hot_loop()
            snap_after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        here = __file__
        grown = [
            diff
            for diff in snap_after.compare_to(snap_before, "lineno")
            if diff.size_diff > 0
            and any(frame.filename == here for frame in diff.traceback)
        ]
        assert not grown, (
            "disabled hook loop allocated: "
            + "; ".join(str(d) for d in grown[:5])
        )
