"""The README's Python examples run as written, and the selection example
selects a nonzero model."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_python_blocks_run_and_selection_picks_a_model():
    # The blocks run in order in one fresh interpreter, as a reader would
    # paste them: the selection example reuses the fit example's data.
    blocks = python_blocks()
    assert len(blocks) == 2
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    fit_line, select_line = out.stdout.splitlines()
    v, train_mse = map(float, fit_line.split())
    assert v > 0.0 and train_mse > 0.0
    m_hat, v_hat = select_line.split()
    assert int(m_hat) > 0 and float(v_hat) > 0.0
