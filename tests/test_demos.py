"""The quick demos run end to end, each in its own process, as a user runs them.

Demo 02 has its own test in ``test_nmf.py``; demo 03 trains for longer and
is left out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_signal_frontend.py", "04_segments_and_scores.py",
                                  "05_explainability.py", "06_probing.py", "07_full_pipeline_cli.py"])
def test_demo_runs(demo, tmp_path):
    """``TMPDIR`` is under ``tmp_path``, so the ``mkdtemp`` directory each demo
    leaves behind is removed with it."""
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
