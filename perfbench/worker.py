"""One benchmark worker process.

Started by run.py from the checkout root with the pinned environment
(PYTHONPATH=src). It imports geophase from ./src, builds the workload's
inputs from the seed, prints ``ready`` and waits for one line on stdin:
``exit`` ends it there (a set-up measurement only), ``run`` measures and
prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from workloads import WORKLOADS, is_all_methods

OUT_DIR = ".perfbench_out"
# larger than every tolerance the gates use, so a correct result checked
# against a reference moved by this much must fail
WRONG_REFERENCE_SHIFT = 1e-2
IMPORTTIME_REPEATS = 3

SELF_TIMED = (
    "rolling.simulate_rolling", "rolling.constraint_rows",
    "rolling.rodrigues_steps", "phases.geometric_phase_baumkuchen",
    "gauge.monopole_holonomy", "quadrature.adaptive_simpson",
    "gauge.berry_holonomy", "sphere.regularize", "regions.is_simple",
    "regions.classify_poles", "regions.region_areas", "phases.total_rotation",
    "phases.extrapolated_region_report", "cli.main",
)
CALL_COUNTED = ("quadrature.adaptive_simpson", "sphere.regularize",
                "regions.is_simple")
WORK_COUNTED = ("rolling.steps", "phases.baumkuchen.mesh_points",
                "quadrature.integrand_evals", "sphere.regularize.samples",
                "regions.is_simple.chords")


def tail_percentile(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    operations beyond it, by nearest rank; (100, max) below eleven ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return 100, xs[-1]
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)      # ceil(p n / 100)
    return p, xs[rank - 1]


def timed(fn, arg):
    """(seconds, result or exception) of one operation."""
    start = time.perf_counter()
    try:
        result = fn(arg)
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, result


def problems_of(result, op, check):
    if isinstance(result, Exception):
        return [f"{type(result).__name__}: {result}"]
    return check(result, op)


def closed_loop(run, check, ops, seconds):
    """Run ops one after another for `seconds`; wall time, latencies, the
    ops run and failures."""
    latencies, kinds, failures = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        dt, result = timed(run, op)
        latencies.append(dt)
        kinds.append(op)
        failures += problems_of(result, op, check)[:1]
    return time.perf_counter() - start, latencies, kinds, failures


def warm_up_and_self_check(run, check, ops):
    """One untimed op, which also proves the gate: the same result checked
    against a deliberately wrong reference must fail."""
    op = next(ops)
    _dt, result = timed(run, op)
    if isinstance(result, Exception):
        return problems_of(result, op, check)[:1], "not run: warm-up op raised"
    problems = check(result, op)[:1]
    if not check(result, op, shift=WRONG_REFERENCE_SHIFT):
        raise SystemExit("self-check failed: a wrong reference passed the gate")
    return problems, "ok: a reference moved by 1e-2 is flagged as a failure"


def measure(workload, seconds):
    ops = workload.inputs()
    warm_failures, selfcheck = warm_up_and_self_check(workload.run, workload.check, ops)
    elapsed, lat, kinds, failures = closed_loop(workload.run, workload.check,
                                                ops, seconds)
    failures = warm_failures + failures
    attempted = len(lat) + 1
    p, tail = tail_percentile(lat)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "throughput_ops_per_s": (len(lat) / elapsed, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (len(failures) / attempted, "ratio"),
    }
    notes = {"tail_percentile": p, "timed_ops": len(lat), "latencies": lat}
    if workload.name == "cli-cold":
        line = [t for t, argv in zip(lat, kinds) if not is_all_methods(argv)]
        every = [t for t, argv in zip(lat, kinds) if is_all_methods(argv)]
        for name, runs in (("cli_line_p50_s", line), ("cli_all_p50_s", every)):
            if runs:
                metrics[name] = (statistics.median(runs), "s")
        notes.update(cli_line_runs=len(line), cli_all_runs=len(every))
    return attempted, failures, metrics, notes, selfcheck


def import_times():
    """Median over fresh interpreters of `-X importtime` for geophase, and
    the cumulative time of the outermost numpy and scipy imports in it."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import geophase"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"import geophase failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(text):
    # lines come in completion order, children before their parent; walk
    # them backwards so each module's enclosing import is known
    rows = [(len(m.group(3)), m.group(4), int(m.group(2)))
            for m in map(_IMPORTTIME.match, text.splitlines()) if m]
    totals = {"geophase": 0, "scipy": 0, "numpy": 0}
    ancestors = []
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        top = name.split(".")[0]
        if top in totals and parent.split(".")[0] != top:
            totals[top] += cumulative
        ancestors.append((depth, name))
    return {f"import.{k}_s": v * 1e-6 for k, v in totals.items()}


def measure_traced(workload, seconds, spans_path):
    """Per-layer metrics, in-process. Each op runs once untraced and once
    traced, each time on a freshly built path; the pair sees the same
    machine state, so their time ratio is the cost of tracing."""
    from geophase import sphere
    from tracer import LAYERS, NOT_SEPARABLE, ROOT, Tracer

    run = getattr(workload, "run_in_process", workload.run)
    ops = workload.inputs()
    warm_failures, selfcheck = warm_up_and_self_check(run, workload.check, ops)
    cache = sphere.cached_regularize
    tracer = Tracer()
    lat_u, lat_t, failures = [], [], list(warm_failures)
    hits = misses = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        # alternate which of the pair runs first, so warm-cache effects of
        # the repeat do not count for or against tracing
        for traced in ((False, True) if len(lat_u) % 2 == 0 else (True, False)):
            if traced:
                info0 = cache.cache_info()
                with tracer.active():
                    dt, result = timed(
                        lambda o: tracer.run_op(len(lat_t), run, o), op)
                info1 = cache.cache_info()
                hits += info1.hits - info0.hits
                misses += info1.misses - info0.misses
                lat_t.append(dt)
            else:
                dt, result = timed(run, op)
                lat_u.append(dt)
            failures += problems_of(result, op, workload.check)[:1]
    self_s, calls = tracer.self_times()
    n = len(lat_t)

    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith(layer + ".")) / n, "s")
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for name in WORK_COUNTED:
        m[name] = (tracer.counts.get(name, 0) / n, "count")
    m["sphere.cached_regularize.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    evals = tracer.counts.get("phases.eps_half.evaluations", 0)
    m["phases.eps_half.useful_ratio"] = (
        tracer.counts.get("phases.eps_half.useful", 0) / evals if evals else 0.0,
        "ratio")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    op_s = sum(lat_t) / n
    m["trace.op_s"] = (op_s, "s")
    m["trace.layer_self_sum_s"] = (sum(v for k, v in self_s.items()
                                       if k != ROOT) / n, "s")
    m["bench.self_s"] = (self_s.get(ROOT, 0.0) / n, "s")
    m["trace.overhead_ratio"] = (sum(lat_t) / sum(lat_u), "ratio")
    for key, value in import_times().items():
        m[key] = (value, "s")

    tracer.write(spans_path)
    notes = {"untraced_ops": len(lat_u), "traced_ops": n,
             "spans": len(tracer.spans), "spans_file": spans_path,
             "not_separable": NOT_SEPARABLE}
    return 1 + len(lat_u) + n, failures, m, notes, selfcheck


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
        attempted, failures, metrics, notes, selfcheck = measure_traced(
            workload, args.seconds, spans)
    else:
        attempted, failures, metrics, notes, selfcheck = measure(workload, args.seconds)
    print(json.dumps({
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:10], "selfcheck": selfcheck,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
