"""Every demo runs to completion with deterministic output, and the demos and
the verify suites print exactly the bytes recorded in stdout_digests.json."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from projquant.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = json.loads((Path(__file__).parent / "stdout_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          env=env, cwd=ROOT, timeout=60)


def test_all_demos_are_collected():
    assert len(DEMOS) == 5
    assert sorted(DIGESTS["demos"]) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_is_deterministic(path):
    first = run_demo(path)
    assert first.returncode == 0, first.stderr.decode()
    second = run_demo(path)
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert sha256(first.stdout) == DIGESTS["demos"][path.stem]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", sorted(DIGESTS["verify_json_seed_0"]))
def test_verify_json_output_is_unchanged(capsys, suite, n):
    code = main(["verify", "--suite", suite, "--n", str(n), "--seed", "0",
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out.encode()) == DIGESTS["verify_json_seed_0"][suite]
