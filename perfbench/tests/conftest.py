"""Make ``perfbench`` and the program under ``src`` importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import common  # noqa: E402

common.ensure_program()
