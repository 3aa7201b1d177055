"""Shared plumbing: statistics, provenance, memory and result output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: Everything a run writes (results, traces, self-time tables).
OUT_DIR = REPO_ROOT / ".perfbench"

#: The second seed a performance claim must also hold on. Keep it out of
#: the seeds used while developing a change (see README.md).
HELD_OUT_SEED = 7919

#: A tail is reported at the highest whole percentile (at most p99)
#: with at least ``MIN_BEYOND`` samples above it.
MIN_BEYOND = 10


def ensure_program() -> bool:
    """Put ``src`` on ``sys.path``; ``False`` when the program is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        return False
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return True


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated percentile ``p`` in [0, 100]."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), p))


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above percentile ``p``."""
    cut = percentile(values, p)
    return int(sum(1 for v in values if v > cut))


def tail_percentile(count: int) -> float:
    """The highest whole percentile ``count`` samples support (<= 99)."""
    return float(min(99, max(50, math.floor(100 * (1 - MIN_BEYOND / max(count, 1))))))


def tail_stats(values: Sequence[float], p: float) -> Dict[str, float]:
    """Percentile ``p`` with its sample count and the support above it."""
    return {
        "percentile": p,
        "value": percentile(values, p),
        "samples": len(values),
        "beyond": beyond(values, p),
        "supported": beyond(values, p) >= MIN_BEYOND,
    }


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if len(values) else 0.0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    if total_kb == 0:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def _git_sha() -> Optional[str]:
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of the program's sources (identifies checkouts without git)."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC_DIR)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, workers: int) -> Dict[str, object]:
    """What produced a result: seed, cores, versions, source identity."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "machine": platform.machine(),
    }


def declared_metrics(trace: bool) -> List[Dict[str, str]]:
    """The metric declarations ``BENCHMARK.json`` makes for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def write_json(path: Path, payload: object) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))
    return path


class Outcome:
    """What one measured pass of a workload produced.

    ``e2e`` holds the end-to-end values (``setup_s`` is added by the
    runner); ``details`` the workload's own named metrics, printed with
    their units; ``layer`` the per-layer metrics of a traced pass.
    """

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.details: List[tuple] = []
        self.samples: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.setup_s = 0.0
        self.layer: Dict[str, float] = {}
        self.selftime: List[Dict[str, object]] = []
        self.selftime_text = ""
        self.trace: Optional[Dict[str, object]] = None

    def detail(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.details.append((name, float(value), unit, note))
