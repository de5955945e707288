"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# A line each of these demos must print: at N=196 the pairwise halves are
# the label core's 97 bond sites on the left and 96 on the right.
PRINTS = {
    "compare_strategies.py": "N=196  97 matrices -> 7 rounds, 96 matrices -> 7 rounds",
}


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    # train_mnist.py trains for minutes when the IDX files are present; an
    # empty data directory keeps it to its missing-data exit.
    args = [str(tmp_path)] if script.name == "train_mnist.py" else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert PRINTS.get(script.name, "") in done.stdout
