"""Cache-hierarchy / bandwidth model.

The paper's Section 5.4 hypothesis - MQX NTT performance degrading at
n = 2^16 on Intel Xeon because each stage's ~2 MB working set spills the
1.28 MB per-core L2 - is exactly the effect this model captures: runtime
per block is ``max(compute_cycles, memory_cycles)`` (a roofline-style
overlap assumption), where memory cycles come from the per-level sustained
bandwidth of the smallest cache level that holds the working set.

Bandwidths are per-core sustained figures in bytes/cycle, approximated
from vendor documentation; as with the uop tables, the *transition points*
(cache capacities, Table 4) are the real numbers and drive the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MachineModelError
from repro.machine.cpu import CpuSpec
from repro.obs.hooks import count

#: Level names, index-aligned with :attr:`CacheModel.levels`.
_LEVEL_NAMES = ("L1", "L2", "L3", "DRAM")

#: Per-core sustained bandwidth in bytes/cycle by level and microarch.
#: Ice Lake's mesh interconnect limits one core's L3 bandwidth far below
#: Zen 4's CCD-local L3 - which is why the paper's L2-spill effect at
#: n = 2^16 is pronounced on Intel Xeon (Section 5.4).
_BANDWIDTHS = {
    "sunny_cove": {"L1": 128.0, "L2": 40.0, "L3": 8.0, "DRAM": 4.5},
    "zen4": {"L1": 128.0, "L2": 48.0, "L3": 13.5, "DRAM": 5.0},
}
_DEFAULT_BW = {"L1": 128.0, "L2": 40.0, "L3": 10.0, "DRAM": 5.0}


@dataclass(frozen=True)
class MemoryTraffic:
    """Bytes moved by one kernel block (from trace load/store tags)."""

    load_bytes: int
    store_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.load_bytes + self.store_bytes


class CacheModel:
    """Working-set-aware bandwidth model for one CPU."""

    def __init__(self, cpu: CpuSpec) -> None:
        self.cpu = cpu
        bw = _BANDWIDTHS.get(cpu.microarch, _DEFAULT_BW)
        #: (capacity_bytes, bytes_per_cycle) from fastest to slowest; the
        #: DRAM level has unbounded capacity.
        self.levels: List[Tuple[float, float]] = [
            (cpu.l1d_bytes, bw["L1"]),
            (cpu.l2_bytes_per_core, bw["L2"]),
            # A single core does not get the whole shared L3 to itself;
            # model the per-core share (min of share and full capacity).
            (min(cpu.l3_bytes, cpu.l3_bytes / cpu.cores * 8), bw["L3"]),
            (float("inf"), bw["DRAM"]),
        ]

    def _level_index(self, working_set_bytes: float) -> int:
        """Index of the smallest level holding the working set."""
        for index, (capacity, _) in enumerate(self.levels):
            if working_set_bytes <= capacity:
                return index
        raise AssertionError("unreachable: DRAM level has infinite capacity")

    def bandwidth_for(self, working_set_bytes: float) -> float:
        """Sustained bytes/cycle for a streaming working set of this size."""
        if working_set_bytes < 0:
            raise MachineModelError("working set must be non-negative")
        index = self._level_index(working_set_bytes)
        count("cache.access.<level>", _LEVEL_NAMES[index])
        return self.levels[index][1]

    def memory_cycles(
        self, traffic: MemoryTraffic, working_set_bytes: float
    ) -> float:
        """Cycles needed to move one block's bytes at the working-set BW."""
        count("cache.bytes_modeled", amount=traffic.total_bytes)
        return traffic.total_bytes / self.bandwidth_for(working_set_bytes)

    def level_name(self, working_set_bytes: float) -> str:
        """Which level the working set streams from (for reporting)."""
        return _LEVEL_NAMES[self._level_index(working_set_bytes)]
