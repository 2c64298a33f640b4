"""The per-layer tracer must still find every entry point it wraps.

``perfbench/spans.py`` wraps the scheduler's and the proxy's layer entry
points by name and raises when one is missing, so a renamed method would
otherwise only fail a traced benchmark run.  ``install`` also replaces
``os.fsync`` for the whole process, so it runs in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
