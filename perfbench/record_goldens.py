"""Record the plan-pegasus goldens: ``python3 perfbench/record_goldens.py``.

Plans every pool entry of the full and the fast mode and writes each
plan's step count and cost to ``perfbench/goldens.json``.  Re-record only
when a change is meant to alter plans, and say so in its description.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.plan_pegasus import GOLDENS, record_goldens  # noqa: E402

if __name__ == "__main__":
    GOLDENS.write_text(
        json.dumps(record_goldens(), indent=1, sort_keys=True) + "\n")
