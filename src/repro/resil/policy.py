"""Retry, deadline, and circuit-breaker policies for the parallel engine.

Three small, composable primitives that :class:`~repro.par.executor.ParallelExecutor`
threads through its event loop:

* :class:`RetryPolicy` — how many times a failed shard is re-sent
  and how long to wait between attempts (exponential backoff with
  *deterministic, seedable* jitter: the same ``(seed, attempt)`` pair
  always yields the same delay, so chaos tests replay exactly).
* :class:`Deadline` — a wall-clock budget for one whole batch. When it
  expires, every still-pending shard short-circuits to the in-process
  fallback instead of waiting out further retries.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over consecutive shard failures. An open breaker routes whole
  batches to the in-process fast engine; after ``cooldown_s`` one probe
  batch is allowed through the pool, and its outcome closes or re-opens
  the breaker.

All three take an injectable ``clock`` (defaulting to
:func:`time.monotonic`) so tests control time instead of sleeping.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from repro.errors import ResilienceError

#: Breaker states (:attr:`CircuitBreaker.state` is always one of these).
BREAKER_STATES = ("closed", "open", "half_open")


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Args:
        max_attempts: Total tries per shard (first execution included);
            a shard that fails ``max_attempts`` times degrades to the
            in-process fallback. Must be >= 1.
        base_delay_s: Delay before the first retry; ``0.0`` (the
            default) re-sends immediately, preserving the historical
            executor behavior.
        multiplier: Backoff growth factor per additional attempt.
        max_delay_s: Upper clamp on any single delay.
        jitter: Fraction in ``[0, 1]`` of symmetric random spread applied
            to each delay (``0.1`` means +-10%).
        seed: Seed for the jitter stream. Jitter is a pure function of
            ``(seed, attempt)`` — no global RNG, no wall clock — so two
            runs with the same policy back off identically.
    """

    def __init__(
        self,
        max_attempts: int = 2,
        base_delay_s: float = 0.0,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ResilienceError("max_attempts must be >= 1")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ResilienceError("delays must be non-negative")
        if multiplier < 1.0:
            raise ResilienceError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ResilienceError("jitter must be within [0, 1]")
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.multiplier = float(multiplier)
        self.max_delay_s = float(max_delay_s)
        self.jitter = float(jitter)
        self.seed = int(seed)

    def should_retry(self, attempts: int) -> bool:
        """Whether a shard that failed ``attempts`` times gets another try."""
        return attempts < self.max_attempts

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        if attempt < 1:
            raise ResilienceError(f"attempt must be >= 1, got {attempt}")
        if self.base_delay_s == 0.0:
            return 0.0
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter:
            # Deterministic per (seed, attempt): replayable chaos runs.
            rng = random.Random(f"{self.seed}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay_s={self.base_delay_s}, multiplier={self.multiplier}, "
            f"max_delay_s={self.max_delay_s}, jitter={self.jitter}, "
            f"seed={self.seed})"
        )


class Deadline:
    """A wall-clock budget for one batch of shards.

    ``Deadline(5.0)`` expires five seconds after construction; the
    executor checks it each event-loop turn and short-circuits every
    still-pending shard to the in-process fallback once it expires.

    Thread-safe: the serve layer checks one deadline from the asyncio
    loop while the dispatcher thread polls it, so reads take a lock.
    """

    def __init__(
        self,
        budget_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s <= 0:
            raise ResilienceError("deadline budget must be positive")
        self.budget_s = float(budget_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._expires_at = clock() + self.budget_s

    def remaining_s(self) -> float:
        """Seconds until expiry (never negative)."""
        with self._lock:
            return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        with self._lock:
            return self._clock() >= self._expires_at


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive shard failures.

    *Closed* (healthy): every dispatch is allowed; ``failure_threshold``
    consecutive failures trip the breaker. *Open*: dispatches are
    refused (the executor runs those batches in-process on the fast
    engine) until ``cooldown_s`` has elapsed. *Half-open*: exactly one
    probe dispatch is allowed through the pool; a success closes the
    breaker, a failure re-opens it and restarts the cooldown.

    State transitions are reported through ``on_transition(new_state)``
    when provided (the executor wires this to the ``resil.breaker.*``
    metrics).

    Thread-safe: the serve layer shares one breaker between the asyncio
    loop, the executor's poll path, and exporter threads, so every state
    read and transition holds an internal re-entrant lock. Without it,
    two racing ``allow()`` calls in half-open state could both observe
    ``_probe_outstanding == False`` and double-admit the single probe.
    ``on_transition`` is invoked while the lock is held; callbacks must
    not call back into the breaker (metric bumps are fine).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ResilienceError("cooldown_s must be non-negative")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.RLock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False

    @property
    def state(self) -> str:
        """Current state, cooldown-aware (an elapsed open reads half_open)."""
        with self._lock:
            if self._state == "open" and (
                self._clock() - self._opened_at >= self.cooldown_s
            ):
                self._transition("half_open")
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def _transition(self, state: str) -> None:
        # Caller holds self._lock.
        if state == self._state:
            return
        self._state = state
        if state != "half_open":
            self._probe_outstanding = False
        if self._on_transition is not None:
            self._on_transition(state)

    def allow(self) -> bool:
        """Whether the next dispatch may use the pool.

        In half-open state only the first caller gets ``True`` (the
        probe); everyone else is refused until the probe resolves.
        """
        with self._lock:
            state = self.state
            if state == "closed":
                return True
            if state == "half_open" and not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False

    def record_failure(self) -> None:
        """Account one shard failure (crash, hang, corrupt payload)."""
        with self._lock:
            if self.state == "half_open":
                # The probe failed: back to open, restart the cooldown.
                self._opened_at = self._clock()
                self._transition("open")
                return
            self._consecutive_failures += 1
            if (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition("open")

    def record_success(self) -> None:
        """Account one shard completed (and verified) by the pool."""
        with self._lock:
            self._consecutive_failures = 0
            if self.state == "half_open":
                self._transition("closed")

    def reset(self) -> None:
        """Force-close the breaker (tests, operator intervention)."""
        with self._lock:
            self._consecutive_failures = 0
            self._transition("closed")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self._consecutive_failures}/{self.failure_threshold})"
        )
