"""repro.resil: resilience for the parallel batch engine.

Fault-injection, retry/backoff, circuit breaking, deadline budgets,
payload integrity, and engine-cascade degradation for :mod:`repro.par`
(see docs/RESILIENCE.md):

* :mod:`repro.resil.policy` — :class:`RetryPolicy` (exponential backoff,
  deterministic seedable jitter), :class:`Deadline` batch budgets,
  :class:`CircuitBreaker` (closed/open/half-open);
* :mod:`repro.resil.integrity` — per-shard CRC-32 checksums over the
  shared-memory limb buffers, plus sampled cross-engine audits against
  the faithful engine (:func:`audit_shards`);
* :mod:`repro.resil.inject` — the deterministic chaos harness
  (:class:`FaultPlan`: crash / hang / corrupt / slow at chosen shard
  indices), also driving ``python -m repro chaos``;
* :mod:`repro.resil.degrade` — :func:`resolve_engine`, the
  parallel → fast cascade that keeps ``engine="parallel"``
  construction sites from hard-failing on availability problems.

Everything reports through ``resil.*`` / ``par.integrity.*`` metrics on
the active :mod:`repro.obs` session.
"""

from repro.resil.degrade import EngineDegradedWarning, resolve_engine
from repro.resil.inject import FAULT_KINDS, Fault, FaultPlan
from repro.resil.integrity import audit_shards, shard_checksum
from repro.resil.policy import (
    BREAKER_STATES,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "Deadline",
    "EngineDegradedWarning",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "RetryPolicy",
    "audit_shards",
    "resolve_engine",
    "shard_checksum",
]
