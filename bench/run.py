"""projquant benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload quantize-dense --seed 1 --seconds 12 --trace 0

Single process, one client, closed loop: each operation starts when the
previous one has finished.  The loop runs for --seconds and then finishes
its pass over the strata, so every stratum has its share of the run.  The
workloads are defined in workloads.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced for half
the time, then reruns the same ops traced: spans and counts around the
calls into each package module, plus replays of public layer calls on each
op's input.  It writes the spans to .bench_trace/ and prints the per-layer
metrics.  Either way every output is checked after the timed
loop: against the recorded digests for the default seed, by exact identity
checks for any other seed.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from spans import NullTracer, Tracer, percentile, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
OP_CAP_S = 10.0        # an op or check running longer counts as failed
RUN_LIMIT_S = 170.0    # checks still pending at this age count as failed


class OpTimeout(Exception):
    """An operation or check overran OP_CAP_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"overran the {OP_CAP_S:g} s cap")


def capped(fn, *args):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    inp: object
    code: int | None
    output: str
    seconds: float
    error: str | None


def setup(name: str, seed: int, tracer):
    """Cold import of the package, input generation and warm-up.

    The warm-up runs one pass over the strata on inputs from a separate seed
    stream, so caches keyed on structure fill but no timed op's result can
    be served from a cache of whole results."""
    for module in [m for m in sys.modules
                   if m in ("projquant", "workloads") or m.startswith("projquant.")]:
        del sys.modules[module]
    workloads = importlib.import_module("workloads")
    origin = Path(sys.modules["projquant"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"projquant imported from {origin}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name](seed, tracer)
    pool = [workload.generate(i) for i in range(workload.pool_size)]
    workload.tracer = NullTracer()
    for i in range(workload.cycle):
        try:
            capped(workload.run, workload.generate(i, "warmup"), NullTracer())
        except Exception:  # a failing op is counted when it is timed
            pass
    return workloads, workload, pool


def run_ops(workload, pool, tracer, replay: bool, seconds=None, count=None):
    """Run the first `count` ops of the pool, or ops for `seconds` and then
    to the end of the pass over the strata, so that every stratum has the
    same share of the run."""
    records = []
    index = 0
    deadline = time.perf_counter() + (seconds or 0)
    while (index < count if count is not None
           else time.perf_counter() < deadline or index % workload.cycle):
        if index == len(pool):
            pool.append(workload.generate(index))
        inp = pool[index]
        tracer.op = index
        code, output, error = None, "", None
        began = time.perf_counter()
        try:
            with tracer.span("op"):
                code, output = capped(workload.run, inp, tracer)
        except Exception as err:  # every failure of an op is counted, not raised
            error = f"{type(err).__name__}: {err}"
        records.append(Record(inp, code, output, time.perf_counter() - began, error))
        if replay and error is None:
            try:
                capped(workload.replay, inp, code, output, tracer)
            except Exception as err:
                records[-1].error = f"replay raised {type(err).__name__}: {err}"
        tracer.op = None
        index += 1
    return records


@contextmanager
def wrapped_calls(workloads, tracer):
    """Span and count the calls to workloads.WRAPPED_CALLS from every
    package module that imported them."""
    patched = []
    for module, fname, span_name, counter in workloads.WRAPPED_CALLS:
        original = getattr(module, fname)

        def wrapper(*args, _f=original, _s=span_name, _c=counter, **kwargs):
            if _c is not None:
                tracer.count(_c)
            if _s is None:
                return _f(*args, **kwargs)
            with tracer.span(_s):
                return _f(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("projquant") and getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapper)
                patched.append((mod, fname, original))
    try:
        yield
    finally:
        for mod, fname, original in patched:
            setattr(mod, fname, original)


def check_records(workloads, workload, records, started: float) -> dict[int, str]:
    """Failures by op index: errors, reference mismatches, failed identities."""
    reference = []
    path = BENCH / "reference.json"
    if workload.seed == workloads.DEFAULT_SEED and path.exists():
        reference = json.loads(path.read_text())["ops"].get(workload.name, [])
    failures = {}
    identity_checked = []
    for r in records:
        i = r.inp.index
        if r.error is not None:
            failures[i] = r.error
        elif time.perf_counter() - started > RUN_LIMIT_S:
            failures[i] = "not checked: out of time"
        elif i < len(reference):
            if workloads.digest(r.code, r.output) != reference[i]:
                failures[i] = "output differs from the recorded reference"
        else:
            identity_checked.append(r)
            try:
                reason = capped(workload.check, r.inp, r.code, r.output)
            except Exception as err:
                reason = f"check raised {type(err).__name__}: {err}"
            if reason is not None:
                failures[i] = reason
    for r in workload.sample(identity_checked):
        if r.inp.index in failures or time.perf_counter() - started > RUN_LIMIT_S:
            continue
        try:
            reason = capped(workload.check_equivariance, r.inp)
        except Exception as err:
            reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            failures[r.inp.index] = reason
    return failures


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, failures, setup_times, peak) -> dict[str, float]:
    latencies = [r.seconds * 1e3 for r in records]
    by_group = {g: [r.seconds * 1e3 for r in records if r.inp.group == g]
                for g in ("a", "b")}
    completed = len(records) - len(failures)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": completed / sum(r.seconds for r in records),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "kind_a_mean_ms": statistics.fmean(by_group["a"]),
        "kind_b_mean_ms": statistics.fmean(by_group["b"]),
        "peak_rss_mib": peak,
    }


def per_layer(spec, tracer, setup_tracer, untraced, traced, failed, attempted,
              pool_size) -> dict[str, float]:
    """Self time (s/op) and counts (1/op) per traced op, and ratios."""
    ops = len(traced)
    selfs = self_times(tracer.spans)
    generated = self_times(setup_tracer.spans)
    counts = tracer.counts

    def rate(records):
        return len(records) / sum(r.seconds for r in records)

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "sampling.generate_s": generated.get("sampling.generate", 0.0) / pool_size,
        "isotypic.nonzero_ratio": ratio(counts["isotypic.blocks"],
                                        counts["isotypic.labels"]),
        "resonance.hit_ratio": ratio(counts["resonance.tuples_found"],
                                     counts["resonance.candidates"]),
        "trace.overhead_ratio": rate(traced) / rate(untraced),
        "bench.fail_ratio": failed / attempted,
    }
    out = {}
    for metric in spec:
        name = metric["name"]
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = selfs.get(name[:-2], 0.0) / ops
        else:
            out[name] = counts.get(name, 0.0) / ops
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_tracer = Tracer() if args.trace else NullTracer()
        began = time.perf_counter()
        workloads, workload, pool = setup(args.workload, args.seed, setup_tracer)
        setup_times.append(time.perf_counter() - began)

    if args.trace:
        # The traced pass reruns the untraced pass's inputs, so the overhead
        # ratio compares the same work.
        untraced = run_ops(workload, pool, NullTracer(), False, seconds=args.seconds / 2)
        tracer = Tracer()
        with wrapped_calls(workloads, tracer):
            traced = run_ops(workload, pool, tracer, True, count=len(untraced))
        records = untraced
    else:
        records = run_ops(workload, pool, NullTracer(), False, seconds=args.seconds)
    peak = peak_rss_mib()
    failures = check_records(workloads, workload, records, started)
    if args.trace:
        for first, again in zip(untraced, traced):
            if (again.code, again.output, again.error) != (first.code, first.output, first.error):
                failures.setdefault(again.inp.index, "traced rerun gave another output")
    failed = len(failures)

    if args.trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(spec["per_layer"], tracer, setup_tracer, untraced,
                            traced, failed, len(records), workload.pool_size)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(records, failures, setup_times, peak)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops, "
          f"{failed} failed")
    for index, reason in sorted(failures.items())[:20]:
        print(f"  failed op {index}: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as err:
        print(f"error: cannot import the projquant sources: {err}", file=sys.stderr)
        sys.exit(2)
