"""Every demo runs to completion with deterministic output, and the demos,
the verify suites and a fixed set of CLI invocations print exactly the bytes
recorded in stdout_digests.json."""

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

# name in DIGESTS["cli"] -> (argv, exit code)
CLI_CASES = {
    "spectrum-n2": (["spectrum", "--n", "2", "--delta", "3/2",
                     "--max-order", "6", "--json"], 0),
    "spectrum-n3": (["spectrum", "--n", "3", "--delta=-1/4", "--json"], 0),
    "critical-n2": (["critical", "--n", "2", "--range", "0", "6", "--json"], 0),
    "critical-n3": (["critical", "--n", "3", "--range", "1", "4", "--json"], 0),
    "resonances-n2": (["resonances", "--n", "2", "--delta", "3/2", "--json"], 0),
    "resonances-n3": (["resonances", "--n", "3", "--delta", "5/4",
                       "--max-order", "8", "--json"], 0),
    "spectrum-n1": (["spectrum", "--n", "1", "--delta", "7/3",
                     "--max-order", "12", "--json"], 0),
    "critical-n1": (["critical", "--n", "1", "--range", "0", "9", "--json"], 0),
    "resonances-n4": (["resonances", "--n", "4", "--delta", "3",
                       "--max-order", "10", "--json"], 0),
    "quantize-n2": (["quantize", "--n", "2", "--lambda1", "1/3", "--lambda2",
                     "1/5", "--mu", "1/7",
                     "x1*a1*b2 + x2^2*a1^2 - 3/2*a2*b1"], 0),
    "quantize-n3": (["quantize", "--n", "3", "--lambda1", "0", "--lambda2",
                     "1/2", "--mu", "2/3",
                     "x1*x3*a1*a2*b3 + a3^3 + x2*b1^2"], 0),
    "quantize-n2-obstruction": (["quantize", "--n", "2", "--lambda1", "0",
                                 "--lambda2", "0", "--mu", "5/3",
                                 "x1^2*a1^2 + x2*a1*b2"], 2),
    "symbol-n2": (["symbol", "--n", "2", "--lambda1", "1/3", "--lambda2",
                   "1/5", "--mu", "1/7",
                   "x1*a1*b2 + x2^2*a1^2 + 4*x1*a2 - 3/2"], 0),
    "symbol-n3": (["symbol", "--n", "3", "--lambda1", "1/4", "--lambda2=-1/3",
                   "--mu", "1", "x3*a1*a2*b2 + x1^2*a3*b1 + x2*b3"], 0),
    # fiber degree 7 at n = 3: four labels, (7, 0) to (7, 3)
    "quantize-n3-degree7": (["quantize", "--n", "3", "--lambda1", "1/3",
                             "--lambda2", "1/5", "--mu", "1/7",
                             "x1*a1^3*a2*b2*b3^2 + a3^4*b1^3"
                             " + x2*x3*a1*a2*a3*b1*b2*b3^2"], 0),
    "symbol-n2-order6": (["symbol", "--n", "2", "--lambda1", "1/3",
                          "--lambda2=-1/5", "--mu", "2/7",
                          "x1*a1^3*b2^3 + x2^2*a1*a2^2*b1^2*b2 + a2^6"
                          " + x1*a1*b2 - 5"], 0),
    # critical shift 3/2: the slot (0, 0) is free
    "quantize-n2-free-slots": (["quantize", "--n", "2", "--lambda1", "0",
                                "--lambda2", "0", "--mu", "3/2",
                                "x1*a1^2*b1*b2 + a1*a2*b1*b2 + x2*a2^3*b1"], 0),
    "quantize-n1": (["quantize", "--n", "1", "--lambda1", "1/3", "--lambda2",
                     "1/5", "--mu", "1/7",
                     "x1^3*a1^4*b1^2 + x1*a1*b1^3 + a1^2"], 0),
    # shift 2: the label q = 1 at degree 2 is resonant with (3, 1), which
    # leaves the slot (2, 1) free below an x-free source and obstructs
    # below x1 times it
    "quantize-n2-free-slot-q1": (["quantize", "--n", "2", "--lambda1", "0",
                                  "--lambda2", "0", "--mu", "2",
                                  "(a1*b2 - a2*b1)*a1"], 0),
    "quantize-n2-obstruction-q1": (["quantize", "--n", "2", "--lambda1", "0",
                                    "--lambda2", "0", "--mu", "2",
                                    "x1*(a1*b2 - a2*b1)*a1"], 2),
    # fiber degree 16 at n = 3: nine labels, (16, 0) to (16, 8)
    "quantize-n3-degree16": (["quantize", "--n", "3", "--lambda1", "1/3",
                              "--lambda2", "1/5", "--mu", "1/7",
                              "x1^2*x2*a1^4*a2^4*b2^4*b3^4"], 0),
}


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


def test_all_cli_cases_are_recorded():
    assert sorted(DIGESTS["cli"]) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_unchanged(capsys, name):
    argv, expected_code = CLI_CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert sha256(out.encode()) == DIGESTS["cli"][name]
