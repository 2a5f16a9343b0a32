"""Smoke test: the quick demos run to completion.

Demo 04 is left out: it takes about a minute, and acceptance criterion 6
already runs the dovetailer it narrates.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_formulas_and_evaluation.py",
    "02_validate_and_run.py",
    "03_machine_constructions.py",
    "05_oracle_machines_and_the_bridge.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
