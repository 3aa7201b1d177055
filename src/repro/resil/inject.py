"""Deterministic fault injection for the parallel batch engine.

A :class:`FaultPlan` maps *dispatch-order shard indices* to
:class:`Fault` instances. The executor consumes the plan as it
dispatches: shard number ``i`` (counting every shard the executor has
dispatched since the plan was armed, across batches) receives
``plan.fault_for(i)``, serialized into its task spec. Workers act on
the fault *only inside a real worker process* — the in-process fallback
ignores faults, which is what lets every chaos scenario still converge
to bit-exact results.

Fault kinds:

* ``"crash"`` — the worker ``os._exit``\\ s before computing (the
  executor sees a dead process and recovers the advertised shard);
* ``"hang"`` — the worker sleeps past ``task_timeout`` and is
  terminated (recovered like a crash);
* ``"corrupt"`` — the worker computes the shard, writes the *correct*
  checksum, then flips bits in the shared-memory payload — modelling
  in-flight corruption that only the integrity check can catch;
* ``"slow"`` — the worker sleeps briefly, then completes normally
  (exercises late completions racing a batch deadline).

Faults are one-shot by default: a retried shard runs clean. ``sticky``
faults persist across retries (the legacy ``inject_crash`` semantics,
where only the in-process fallback can complete the shard).

Plans are deterministic: :meth:`FaultPlan.random` derives placements
from an explicit seed, so a failing chaos run is replayable from its
seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

from repro.errors import ResilienceError

#: Fault kinds a worker knows how to act on.
FAULT_KINDS = ("crash", "hang", "corrupt", "slow")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what goes wrong and for how long.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        seconds: Sleep duration for ``"hang"`` / ``"slow"`` faults.
        sticky: Whether the fault survives re-send (every retry
            fails too, forcing the in-process fallback).
    """

    kind: str
    seconds: float = 0.0
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.seconds < 0:
            raise ResilienceError("fault seconds must be non-negative")

    def to_spec(self) -> Dict[str, object]:
        """The picklable form embedded in a task spec."""
        return {"kind": self.kind, "seconds": self.seconds, "sticky": self.sticky}


class FaultPlan:
    """Faults keyed by dispatch-order shard index.

    ``FaultPlan({0: Fault("crash"), 3: Fault("corrupt")})`` crashes the
    first dispatched shard's worker and corrupts the fourth's payload.
    Indices count *every* shard dispatched while the plan is armed, so
    one plan can span several batches.
    """

    def __init__(self, faults: Optional[Mapping[int, Fault]] = None) -> None:
        self._faults: Dict[int, Fault] = {}
        for index, fault in (faults or {}).items():
            if index < 0:
                raise ResilienceError(
                    f"shard index must be non-negative, got {index}"
                )
            if not isinstance(fault, Fault):
                raise ResilienceError(
                    f"fault for shard {index} must be a Fault, got {fault!r}"
                )
            self._faults[int(index)] = fault

    @classmethod
    def random(
        cls,
        seed: int,
        shards: int,
        crash: float = 0.0,
        hang: float = 0.0,
        corrupt: float = 0.0,
        slow: float = 0.0,
        hang_s: float = 60.0,
        slow_s: float = 0.05,
    ) -> "FaultPlan":
        """A seeded random plan over ``shards`` dispatch slots.

        Each rate is an independent per-shard probability; when several
        kinds are drawn for one shard, the most destructive wins
        (crash > hang > corrupt > slow). The same ``seed`` always yields
        the same plan.
        """
        if shards < 0:
            raise ResilienceError("shards must be non-negative")
        for name, rate in (
            ("crash", crash), ("hang", hang), ("corrupt", corrupt), ("slow", slow)
        ):
            if not 0.0 <= rate <= 1.0:
                raise ResilienceError(f"{name} rate must be within [0, 1]")
        rng = random.Random(seed)
        faults: Dict[int, Fault] = {}
        for index in range(shards):
            draws = {kind: rng.random() for kind in FAULT_KINDS}
            if draws["crash"] < crash:
                faults[index] = Fault("crash")
            elif draws["hang"] < hang:
                faults[index] = Fault("hang", seconds=hang_s)
            elif draws["corrupt"] < corrupt:
                faults[index] = Fault("corrupt")
            elif draws["slow"] < slow:
                faults[index] = Fault("slow", seconds=slow_s)
        return cls(faults)

    def fault_for(self, index: int) -> Optional[Fault]:
        """The fault assigned to dispatch slot ``index``, if any."""
        return self._faults.get(index)

    def counts(self) -> Dict[str, int]:
        """Number of planned faults by kind (reporting)."""
        out = {kind: 0 for kind in FAULT_KINDS}
        for fault in self._faults.values():
            out[fault.kind] += 1
        return out

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._faults))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{kind}={count}" for kind, count in self.counts().items() if count
        )
        return f"FaultPlan({len(self)} faults{': ' + parts if parts else ''})"


def apply_fault_to_spec(spec: dict, fault: Optional[Fault]) -> dict:
    """Embed ``fault`` into a task spec (no-op for ``None``)."""
    if fault is not None:
        spec["fault"] = fault.to_spec()
    return spec


def strip_transient_fault(spec: dict) -> dict:
    """Drop a non-sticky fault before re-send (retries run clean)."""
    fault = spec.get("fault")
    if fault is not None and not fault.get("sticky"):
        spec = dict(spec)
        del spec["fault"]
    return spec
