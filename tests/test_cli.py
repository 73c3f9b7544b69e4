"""Command-line surface: output schema, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from projquant.cli import (SCAN_ORDER_LIMIT, SOLVE_DEGREE_LIMIT,
                           SOLVE_DIM_LIMIT, VERIFY_DIM_LIMIT,
                           VERIFY_ORDER_LIMIT, main, parse_rational,
                           UsageError)
from projquant.resonance import critical_values_in_interval

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rational_argument_parsing():
    from fractions import Fraction
    assert parse_rational("5/3") == Fraction(5, 3)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(UsageError):
        parse_rational("0.5")
    with pytest.raises(UsageError):
        parse_rational("1e3")
    with pytest.raises(UsageError):
        parse_rational("1/0")


def test_spectrum_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--delta", "1",
                       "--max-order", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {(i, p): g for i, p, g in payload["gamma"]}
    assert rows[(2, 1)] == "0"
    assert rows[(1, 0)] == "0"
    assert rows[(0, 0)] == "0"
    assert rows[(2, 0)] == "4"


def test_spectrum_dimension_one_has_single_column(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "1", "--delta", "0",
                       "--max-order", "3", "--json")
    payload = json.loads(out)
    assert all(p == 0 for _, p, _ in payload["gamma"])


def test_spectrum_example_value(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--delta", "0",
                       "--max-order", "2", "--json")
    payload = json.loads(out)
    assert ["2", "0", "16"] in [[str(i), str(p), g] for i, p, g in payload["gamma"]]


def test_critical_interval(capsys):
    code, out, _ = run(capsys, "critical", "--n", "2", "--range", "0", "99/100",
                       "--json")
    assert code == 0 and json.loads(out) == []
    code, out, _ = run(capsys, "critical", "--n", "2", "--range", "1", "5/3",
                       "--json")
    deltas = [entry["delta"] for entry in json.loads(out)]
    for expected in ("1", "4/3", "5/3"):
        assert expected in deltas
    code, out, _ = run(capsys, "critical", "--n", "1", "--range", "1", "2",
                       "--json")
    deltas = [entry["delta"] for entry in json.loads(out)]
    assert deltas == ["1", "3/2", "2"]


@pytest.mark.parametrize("lo, hi, groups", [("0", "99/100", 0), ("1", "1", 1),
                                             ("1", "12", 3703)])
def test_critical_json_is_the_whole_payload(capsys, lo, hi, groups):
    """The list written one group at a time has the bytes json.dumps gives
    the whole payload."""
    payload = [{"delta": str(d), "tuples": [[t.i, t.p, t.j, t.q] for t in tuples]}
               for d, tuples in critical_values_in_interval(2, Fraction(lo),
                                                            Fraction(hi))]
    assert len(payload) == groups
    expected = json.dumps(payload, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "critical", "--n", "2", "--range", lo, hi, "--json")
    assert code == 0
    # lengths, not the strings: pytest's diff of two 400 KB lines is slow
    assert len(os.path.commonprefix([out, expected])) == len(out) == len(expected)


def test_critical_json_memory_is_a_small_multiple_of_its_output():
    """The traced peak of a 413 KB critical listing, the captured output
    included, stays below 12 bytes per output byte: the command holds one
    copy of its tuples and renders one group at a time."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["critical", "--n", "2", "--range", "1", "12", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = len(out.getvalue().encode())
    assert size > 400_000
    assert peak < 12 * size, peak / size


def test_resonances_report(capsys):
    code, out, _ = run(capsys, "resonances", "--n", "2", "--delta", "0",
                       "--max-order", "7", "--json")
    payload = json.loads(out)
    assert payload["checks"]["kind"] == "resonant"
    assert [7, 3, 6, 0, False] in payload["tuples"]


def test_quantize_success(capsys):
    code, out, _ = run(capsys, "quantize", "--n", "2", "--lambda1", "1/3",
                       "--lambda2", "0", "--mu", "5/6", "x1*a1")
    assert code == 0
    payload = json.loads(out)
    assert payload["operator"] == "x1*a1 + 2/3"
    assert payload["unique"] is True
    assert payload["free_slots"] == []


def test_quantize_obstruction_exit_two(capsys):
    code, out, _ = run(capsys, "quantize", "--n", "2", "--lambda1", "0",
                       "--lambda2", "0", "--mu", "5/3", "x1*a1*a1")
    assert code == 2
    payload = json.loads(out)
    assert payload["obstruction"]["source"] == [2, 0]
    assert payload["obstruction"]["blocked"] == [1, 0]
    assert payload["obstruction"]["component"]


def test_parse_error_exit_one(capsys):
    code, out, err = run(capsys, "quantize", "--n", "2", "--lambda1", "0",
                         "--lambda2", "0", "--mu", "1", "a1)")
    assert code == 1
    assert "error" in err


def test_decimal_rejected(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "2", "--delta", "0.5")
    assert code == 1
    assert "rational" in err


_SOLVE = ("--n", "2", "--lambda2", "0", "--mu", "0", "x1*a1")


@pytest.mark.parametrize("spaced, joined", [
    (("quantize", "--lambda1", "-1/3") + _SOLVE,
     ("quantize", "--lambda1=-1/3") + _SOLVE),
    (("symbol", "--lambda1", "-1/3") + _SOLVE,
     ("symbol", "--lambda1=-1/3") + _SOLVE),
    (("spectrum", "--n", "2", "--delta", "-1/2"),
     ("spectrum", "--n", "2", "--delta=-1/2")),
    (("resonances", "--n", "2", "--delta", "-5/7"),
     ("resonances", "--n", "2", "--delta=-5/7")),
    # No critical shift lies below 1, so the two ranges print the same.
    (("critical", "--n", "2", "--range", "-1/2", "2"),
     ("critical", "--n", "2", "--range", "0", "2")),
])
def test_negative_rationals_are_values(capsys, spaced, joined):
    code, out, err = run(capsys, *spaced)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *joined)
    assert out


def test_negative_decimal_is_rejected_as_a_rational(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "2", "--delta", "-0.5")
    assert code == 1
    assert "expected an exact rational like 3 or -5/7" in err


def test_unknown_suite_exit_one(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1


def test_symbol_command_round_trip(capsys):
    code, out, _ = run(capsys, "symbol", "--n", "2", "--lambda1", "1/3",
                       "--lambda2", "0", "--mu", "5/6", "x1*a1 + 2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbol"] == "x1*a1"
    assert payload["unique"] is True


def test_symbol_obstruction_exit_two(capsys):
    code, out, _ = run(capsys, "symbol", "--n", "2", "--lambda1", "0",
                       "--lambda2", "0", "--mu", "5/3", "x1*a1*a1")
    assert code == 2
    assert json.loads(out) == {"obstruction": {
        "source": [2, 0], "blocked": [1, 0], "component": "4*a1"}}


@pytest.mark.parametrize("command", ["quantize", "symbol"])
def test_first_obstruction_from_the_top_is_reported(capsys, command):
    """Components (2, 1) and (1, 0) both obstruct at this shift; the solve
    runs from the top degree, so (2, 1) is the one reported."""
    code, out, _ = run(capsys, command, "--n", "2", "--lambda1", "2/5",
                       "--lambda2", "-1/7", "--mu", "44/35",
                       "x1*a1*b2 + x1*x2*b1")
    assert code == 2
    assert out == ('{"obstruction": {"blocked": [1, 0], "component": '
                   '"6/5*b2 + 3/7*a2", "source": [2, 1]}}\n')


def test_verify_suites_pass(capsys):
    for suite in ("casimir", "spectrum", "resonance"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "2",
                           "--seed", "42", "--json")
        assert code == 0, f"suite {suite} failed: {out}"
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])


def test_identical_invocations_are_byte_identical(capsys):
    args = ("verify", "--suite", "casimir", "--n", "2", "--seed", "7", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("argv", [("resonances", "--delta", "1"),
                                  ("critical", "--range", "1", "2"),
                                  ("spectrum", "--delta", "1"),
                                  ("verify", "--suite", "resonance")],
                         ids=lambda argv: argv[0])
def test_dimension_below_one_exit_one(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 1
    assert out == ""
    assert err.startswith("error: dimension must be >= 1")


def test_scan_limit(capsys):
    """At n=1 the critical bound index of shift s is the least i with
    (i+1)/2 > s, so 32 is the largest integer shift a scan to the limit
    settles; unbounded shifts are rejected at once, not scanned."""
    assert SCAN_ORDER_LIMIT == 64
    code, out, _ = run(capsys, "resonances", "--n", "1", "--delta", "32", "--json")
    assert code == 0
    assert json.loads(out)["checks"]["critical_bound_index"] == SCAN_ORDER_LIMIT
    code, out, _ = run(capsys, "critical", "--n", "1", "--range", "31", "32", "--json")
    assert code == 0
    assert [entry["delta"] for entry in json.loads(out)] == ["31", "63/2", "32"]
    for argv in (("resonances", "--n", "1", "--delta", "65/2"),
                 ("critical", "--n", "1", "--range", "0", "65/2"),
                 ("resonances", "--n", "2", "--delta", "1000000"),
                 ("resonances", "--n", "2", "--delta", "1", "--max-order", "65"),
                 ("resonances", "--n", "2", "--delta", "1", "--max-order", "0"),
                 ("spectrum", "--n", "2", "--delta", "1", "--max-order", "65"),
                 ("spectrum", "--n", "0", "--delta", "1", "--max-order", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: scan limit")


def test_verify_limit(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "resonance", "--n", "2",
                       "--max-order", str(VERIFY_ORDER_LIMIT), "--json")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
    for order in (VERIFY_ORDER_LIMIT + 1, 60, -1):
        code, out, err = run(capsys, "verify", "--suite", "resonance", "--n", "3",
                             "--max-order", str(order))
        assert code == 1, order
        assert out == ""
        assert err.startswith("error: verify limit")


def test_verify_dimension_limit(capsys):
    """The spectrum suite's bracket closure check is the part that grows
    fastest with n; it still passes at the limit.  Dimensions below one keep
    their own message (test_dimension_below_one_exit_one)."""
    code, out, _ = run(capsys, "verify", "--suite", "spectrum", "--n",
                       str(VERIFY_DIM_LIMIT), "--json")
    assert code == 0
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])
    for n in (VERIFY_DIM_LIMIT + 1, 100):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "spectrum", "--n", str(n))
        assert code == 1, n
        assert out == ""
        assert err.startswith("error: verify limit: --n")
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["quantize", "symbol"])
def test_solve_degree_limit(capsys, command):
    """quantize and symbol solve up to the limit's fiber degree, and reject
    one past it, and a1^3000, at once."""
    weights = ("--n", "2", "--lambda1", "1/3", "--lambda2", "1/5", "--mu", "1/7")
    at_limit = f"x1*a1 + a1^{SOLVE_DEGREE_LIMIT - 32}*b2^32"
    code, out, _ = run(capsys, command, *weights, at_limit)
    assert code == 0
    assert json.loads(out)["unique"] is True
    for expr in (f"a1^{SOLVE_DEGREE_LIMIT + 1}",
                 f"x1 + a1^{SOLVE_DEGREE_LIMIT - 32}*b2^33", "a1^3000"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, *weights, expr)
        assert time.perf_counter() - start < 1
        assert code == 1, expr
        assert out == ""
        assert err.startswith("error: solve limit: the fiber degree must be at "
                              f"most {SOLVE_DEGREE_LIMIT}")


@pytest.mark.parametrize("command", ["quantize", "symbol"])
def test_solve_dimension_limit(capsys, command):
    """quantize and symbol solve at the limit's dimension, and reject a
    larger --n before the expression is parsed, at once."""
    weights = ("--lambda1", "1/3", "--lambda2", "1/5", "--mu", "1/7")
    top = SOLVE_DIM_LIMIT
    code, out, _ = run(capsys, command, "--n", str(top), *weights,
                       f"x1*a1*b{top} + x{top}^2*a2*b1")
    assert code == 0
    assert json.loads(out)["unique"] is True
    for n in (top + 1, 10**6):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--n", str(n), *weights, "a1")
        assert time.perf_counter() - start < 1
        assert code == 1, n
        assert out == ""
        assert err == f"error: solve limit: --n must be at most {top}\n"


def test_parse_limit(capsys):
    """Powers whose expansion would run for minutes are rejected at the '^'
    before any work; a moderate power still parses."""
    for expr, caret in (("(x1+a1)^99999999", 7), ("(x1+a1+b1)^300", 10)):
        start = time.perf_counter()
        code, out, err = run(capsys, "quantize", "--n", "1", "--lambda1", "0",
                             "--lambda2", "0", "--mu", "1/3", expr)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err.startswith("error: power too large")
        assert err.rstrip().endswith(f"(at position {caret})")
    code, out, _ = run(capsys, "symbol", "--n", "1", "--lambda1", "0",
                       "--lambda2", "0", "--mu", "1/3", "(x1+a1)^20")
    assert code == 0
    assert json.loads(out)["input"].startswith("a1^20 + 20*x1*a1^19")


def test_module_entry_point_matches_main(capsys):
    argv = ["quantize", "--n", "2", "--lambda1", "1/3", "--lambda2", "0",
            "--mu", "5/6", "x1*a1"]
    code, out, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "projquant", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
