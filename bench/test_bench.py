"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, percentile, self_times  # noqa: E402


def _inputs(name, seed, count):
    workload = workloads.WORKLOADS[name](seed, NullTracer())
    return json.dumps([asdict(workload.generate(i)) for i in range(count)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    count = 2 * workloads.WORKLOADS[name](0, NullTracer()).cycle
    first = _inputs(name, 7, count)
    assert first == _inputs(name, 7, count)
    assert first != _inputs(name, 8, count)


@pytest.mark.parametrize("n,max_fiber,max_x", [
    *workloads.QuantizeDense.strata, (3, 4, 1), (2, 2, 0)])
def test_dense_body_counts_and_nonzero(n, max_fiber, max_x):
    rng = workloads._rng("test", 0, "ops", 0)
    body = workloads.dense_body(rng, n, max_fiber, max_x)
    expected = sum(comb(2 * n + d - 1, d) for d in range(max_fiber + 1)) * comb(n + max_x, max_x)
    assert len(body.terms) == expected
    assert all(c != 0 for c in body.terms.values())


def test_generated_work_is_bounded():
    scan = workloads.ResonanceScan(3, NullTracer())
    for i in range(4 * scan.cycle):
        inp = scan.generate(i)
        values = [Fraction(a) for a in inp.args]
        assert all(0 <= v <= 16 for v in values)
        if inp.kind == "critical":
            assert values[1] - values[0] <= 12


def test_percentile_matches_statistics():
    values = [5.0, 1.0, 9.5, 3.25, 7.0, 2.0, 8.0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert percentile(values, 50) == pytest.approx(cuts[49])
    assert percentile(values, 90) == pytest.approx(cuts[89])
    assert percentile([4.0], 90) == 4.0
    assert percentile(list(range(11)), 90) == 9.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("op", 0.0, 10.0, None, 1),
        ("parse", 1.0, 3.0, 0, 1),
        ("quantize", 2.0, 6.0, 0, 1),    # overlaps parse: covered once
        ("inner", 4.0, 5.0, 2, 1),
        ("format", 9.0, 12.0, 0, 1),     # only [9, 10] lies inside op
        ("parse", 20.0, 21.5, None, 2),
    ]
    selfs = self_times(spans)
    assert selfs["op"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["quantize"] == pytest.approx(3.0)
    assert selfs["inner"] == pytest.approx(1.0)
    assert selfs["parse"] == pytest.approx(2.0 + 1.5)
    assert selfs["format"] == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_byte_change_is_a_failure(name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, NullTracer())
    inp = workload.generate(0)
    code, output = workload.run(inp, NullTracer())
    good = run.Record(inp, code, output, 0.001, None)
    assert run.check_records(workloads, workload, [good], time.perf_counter()) == {}
    flipped = output[:-2] + chr(ord(output[-2]) ^ 1) + output[-1]
    bad = run.Record(inp, code, flipped, 0.001, None)
    assert 0 in run.check_records(workloads, workload, [bad], time.perf_counter())


def test_identity_checks_catch_a_wrong_result():
    workload = workloads.QuantizeDense(5, NullTracer())
    inp = workload.generate(0)
    code, output = workload.run(inp, NullTracer())
    assert workload.check(inp, code, output) is None
    text, rest = output.split("\n", 1)
    wrong = text.replace("+", "-", 1) + "\n" + rest
    assert workload.check(inp, code, wrong) is not None
