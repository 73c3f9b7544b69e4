"""Every demo runs to completion with deterministic output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          env=env, cwd=ROOT, timeout=60)


def test_all_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_is_deterministic(path):
    first = run_demo(path)
    assert first.returncode == 0, first.stderr.decode()
    second = run_demo(path)
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
