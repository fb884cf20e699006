"""geophase benchmark: one workload, one run, one JSON line at the end.

Usage, from the root of a geophase checkout:

    python3 perfbench/run.py --workload random-crosscheck --seed 20260823 \\
        --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run. Every
line before the last is for people; the last line is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("random-crosscheck", "gallery-clamped", "cli-cold")
DEFAULT_SEED = 20260823     # the seed of tests/test_acceptance.py
HELD_OUT_SEED = 20261017    # never used while tuning; verify claims on it
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

# the end-to-end metrics of BENCHMARK.json; the rest of what the worker
# measures is printed for people and kept in the details file
END_TO_END = ("setup_s", "throughput_ops_per_s", "latency_p50_s",
              "latency_tail_s", "peak_rss_mb")


def pinned_env() -> dict:
    """Environment of every process the benchmark starts: the package from
    ./src, no Monte-Carlo seed override, single-threaded BLAS, and the
    default bytecode policy on every commit: compiled once into
    src/geophase/__pycache__ by the first process, then read from there, as
    an installed package would be (no PYTHON* variable is passed through)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "GEOPHASE_"))}
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "geophase"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(root, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "git_commit": commit, "source_sha256": digest.hexdigest()}


def start_worker(args, env):
    """(setup seconds, process) of a fresh worker once it reports ready."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return setup, proc


def finish_worker(proc, command):
    try:
        out, _ = proc.communicate(command + "\n", timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args):
    """Set up several fresh workers, measure with the last; its report plus
    the set-up times."""
    env = pinned_env()
    setups = []
    repeats = 1 if args.trace else SETUP_REPEATS
    for k in range(repeats):
        setup, proc = start_worker(args, env)
        setups.append(setup)
        out = finish_worker(proc, "run" if k == repeats - 1 else "exit")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no report")
    report = json.loads(lines[-1])
    report["setups"] = setups
    return report


def print_table(args, report, info):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (held-out seed for claims: {HELD_OUT_SEED})")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in info.items()))
    notes = report["notes"]
    for name, m in report["metrics"].items():
        extra = ""
        if name == "latency_tail_s":
            extra = f"  (p{notes['tail_percentile']} of {notes['timed_ops']} ops)"
        elif name == "latency_p50_s":
            extra = f"  ({notes['timed_ops']} ops)"
        elif name == "setup_s":
            extra = "  (median of " + ", ".join(f"{s:.4f}" for s in report["setups"]) + ")"
        elif name == "cli_line_p50_s":
            extra = f"  ({notes['cli_line_runs']} runs)"
        elif name == "cli_all_p50_s":
            extra = f"  ({notes['cli_all_runs']} runs)"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    for name, why in notes.get("not_separable", {}).items():
        print(f"  not separable from outside: {name}: {why}")
    print(f"correctness: {report['failed']} of {report['attempted']} ops failed"
          + "".join(f"\n  failure: {f}" for f in report["failures"]))
    print(f"self-check: {report['selfcheck']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "geophase", "__init__.py")):
        print("error: src/geophase not found; run from the root of a geophase "
              "checkout", file=sys.stderr)
        return 2
    try:
        report = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(report["setups"]),
                                        "unit": "s"}
    info = machine()
    info.update(report["versions"])
    print_table(args, report, info)

    os.makedirs(OUT_DIR, exist_ok=True)
    details = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    with open(details, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": info, **report}, fh, indent=1)
    print(f"details: {details}")

    metrics = report["metrics"]
    if not args.trace:
        metrics = {k: metrics[k] for k in END_TO_END}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
