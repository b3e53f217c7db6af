"""Benchmark of the capelli verifier: one workload, run in fresh child processes.

    python3 perfbench/run.py --workload transfer_pbw --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout.  Every library cache is a
module-level singleton, and a user pays the cold build on every
`capelli verify`, so each measured run of a workload is a fresh child
interpreter (`child.py`).  Children run one at a time.

With `--trace 0` the result holds the end-to-end metrics, from untraced
children:

- `wall_s`: median over children of the time from the first suite
  entry's start to the last report written;
- `setup_s`: median over children of the time from spawning the child to
  `capelli` imported and ready;
- `peak_rss_mb`: median over children of the child's peak resident set.

With `--trace 1` it holds the per-layer metrics of `layers.py`, from
traced children, and `trace.overhead_s`, the traced wall time less that
of one untraced child.

Each child checks every report against its golden copy; `attempted` and
`failed` in the result count checks (`checks_run`, `checks_failed`).
The last line printed is the result as one JSON object.  Details of every
child, with the provenance of the run, go to `.perfbench/` in the
checkout.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench"

VERIFY_MAX_CELLS = "256"
SETUP_CHILDREN = 10      # extra import-only children per run, for setup_s
MIN_CHILDREN = 2         # a median of one child would be one sample of a noisy machine
RUN_TIMEOUT_S = 170      # a run must end within 180 s, its children included
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # the warm-up child caches the bytecode
    env["PYTHONPATH"] = str(ROOT / "src")
    env["VERIFY_MAX_CELLS"] = VERIFY_MAX_CELLS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Spawn one child; return its result with `setup_s` and `total_s`."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args} ran past the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready":
        raise BenchError(f"child {args} did not start (exit {proc.returncode})")
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if args[0] == "--setup-only":
        result = {}
    elif lines:
        result = json.loads(lines[-1])
    else:
        raise BenchError(f"child {args} printed no result")
    result["setup_s"] = setup_s
    result["total_s"] = time.perf_counter() - start
    return result


def run_children(args, seconds, deadline, at_least=MIN_CHILDREN):
    """Closed loop: children one after another until the next one would
    end past `seconds`; at least `at_least`."""
    children = []
    start = time.perf_counter()
    while True:
        children.append(run_child(args, deadline))
        elapsed = time.perf_counter() - start
        if len(children) >= at_least and elapsed + children[-1]["total_s"] > seconds:
            return children


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: {name}"


def provenance(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "VERIFY_MAX_CELLS": VERIFY_MAX_CELLS,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; return (metrics, checks_run, checks_failed, record)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    out_dir = RESULTS / f"{workload}-seed{seed}"
    args = ["--workload", workload, "--seed", str(seed), "--out-dir", str(out_dir)]
    run_child(["--setup-only"], deadline)   # warm-up: compiles bytecode, discarded
    if trace:
        untraced = run_child(args, deadline)
        children = run_children(args + ["--trace"], seconds, deadline, at_least=1)
        layers = [c["layers"] for c in children]
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(c["wall_s"] for c in children) - untraced["wall_s"]
            elif name in children[0]["caches"]:
                value = children[0]["caches"][name]
            elif unit == "count":
                value = layers[0][name]
            else:
                value = float(statistics.median(layer[name] for layer in layers))
            metrics[name] = {"value": value, "unit": unit}
        counted = [name for name, unit in PER_LAYER if unit == "count" and name in layers[0]]
        counts_repeat = all([layer[n] for n in counted] == [layers[0][n] for n in counted]
                            for layer in layers)
        measured = [untraced] + children
        setups = [c["setup_s"] for c in measured]
    else:
        setups = [run_child(["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_CHILDREN)]
        children = run_children(args, seconds, deadline)
        setups += [c["setup_s"] for c in children]
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in children),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        counts_repeat = None
        measured = children
    checks_run = sum(c["checks_run"] for c in measured)
    checks_failed = sum(c["checks_failed"] for c in measured)
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "children": len(children),
        "setup_samples_s": setups,
        "trace_counts_repeat": counts_repeat,
        "checks_run": checks_run,
        "checks_failed": checks_failed,
        "failures": sorted({f for c in measured for f in c["failures"]}),
        "child_results": measured,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return metrics, checks_run, checks_failed, record


def report(workload, metrics, checks_run, checks_failed, record):
    """Human-readable lines for one workload."""
    runs = record["children"]
    print(f"# {workload}: {runs} child run(s), provenance {json.dumps(record['provenance'])}")
    for name, m in metrics.items():
        print(f"#   {workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"#   {workload} checks_failed = {checks_failed} of checks_run = {checks_run} (count)")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")
    if record["trace_counts_repeat"] is False:
        print(f"#   WARNING: count metrics differ between traced children of {workload}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "capelli" / "__init__.py").is_file():
        print(f"error: no capelli sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total_run = total_failed = 0
    combined = {}
    try:
        for name in names:
            metrics, run, failed, record = measure(name, args.seed, args.seconds,
                                                   bool(args.trace))
            report(name, metrics, run, failed, record)
            total_run += run
            total_failed += failed
            for metric, value in metrics.items():
                combined[metric if len(names) == 1 else f"{name}.{metric}"] = value
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": total_failed == 0, "attempted": total_run,
                      "failed": total_failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
