"""The engine cascade: parallel → fast, never hard-fail.

``engine="parallel"`` (and ``engine="fast"``) are *performance*
requests, not correctness requests — all three engines are bit-exact.
So a plan construction site should never raise because the requested
engine happens to be unavailable; it should run the same computation on
the next engine down and say so. :func:`resolve_engine` encodes that
cascade and is called by every engine-switch call site
(:class:`~repro.ntt.simd.SimdNtt`, :class:`~repro.ntt.negacyclic.NegacyclicNtt`,
:class:`~repro.blas.ops.BlasPlan`, :class:`~repro.rns.poly.RnsPolynomialRing`).

Degradation triggers:

* **open circuit breaker** — the process-default pool's breaker is
  open (too many consecutive shard failures), so ``"parallel"``
  degrades to ``"fast"`` until the breaker's half-open probe succeeds;
* **pool-start failure** — the last attempt to spawn workers failed
  (fork refused, resource limits); ``"parallel"`` degrades to
  ``"fast"`` for :data:`POOL_START_RETRY_S` seconds before the pool is
  eligible again;
* **operator override** — ``REPRO_DISABLE_PARALLEL=1`` in the
  environment forces ``"parallel"`` requests onto ``"fast"``.

Every degradation emits an :class:`EngineDegradedWarning` and a
``resil.degraded`` metric (with a per-reason sibling counter), so a
service that silently stopped using the pool is visible in any profile.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Optional, Tuple

from repro.obs.hooks import count

#: Seconds a failed pool start keeps ``"parallel"`` degraded to
#: ``"fast"`` before construction sites try the pool again.
POOL_START_RETRY_S = 60.0


class EngineDegradedWarning(UserWarning):
    """A requested execution engine was unavailable; a slower one ran."""


_pool_start_failed_at: Optional[float] = None


def note_pool_start_failure() -> None:
    """Record that spawning the worker pool failed (executor calls this)."""
    global _pool_start_failed_at
    _pool_start_failed_at = time.monotonic()


def note_pool_start_success() -> None:
    """Record a healthy pool start, clearing any degradation window."""
    global _pool_start_failed_at
    _pool_start_failed_at = None


def _pool_start_blocked() -> bool:
    if _pool_start_failed_at is None:
        return False
    if time.monotonic() - _pool_start_failed_at >= POOL_START_RETRY_S:
        note_pool_start_success()
        return False
    return True


def _default_pool_breaker_open() -> bool:
    """Whether the process-default executor's breaker refuses dispatches.

    Peeks without creating an executor: an app that never touched the
    pool should not pay for one here.
    """
    from repro.par import executor as par_executor

    pool = par_executor._DEFAULT
    return pool is not None and not pool.closed and pool.breaker.state == "open"


def _resolve(requested: str) -> Tuple[str, Optional[str]]:
    if requested == "parallel":
        if os.environ.get("REPRO_DISABLE_PARALLEL") == "1":
            return "fast", "disabled"
        if _pool_start_blocked():
            return "fast", "pool_start_failed"
        if _default_pool_breaker_open():
            return "fast", "breaker_open"
    return requested, None


def resolve_engine(requested: str, site: str = "plan") -> str:
    """The engine that will actually run, after the availability cascade.

    ``requested`` must already be a valid engine name (call sites
    validate first, with their own error types). ``site`` names the
    construction site in the warning text. Identity for ``"faithful"``
    and for available engines; otherwise returns the next engine down,
    warns, and bumps ``resil.degraded`` metrics.
    """
    resolved, reason = _resolve(requested)
    if resolved != requested:
        count("resil.degraded")
        count("resil.degraded.<reason>", reason)
        warnings.warn(
            f"{site}: engine {requested!r} unavailable ({reason}); "
            f"degrading to {resolved!r} (results stay bit-identical)",
            EngineDegradedWarning,
            stacklevel=3,
        )
    return resolved
