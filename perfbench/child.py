"""One benchmark child: a fresh interpreter that runs one workload.

The parent times this process from spawn until it prints `ready`, which
it does as soon as `capelli` is imported.  It then drives each suite
entry through the public entry point `capelli.cli.main` with
`--format json --out <file>`, one after another, and times the whole
loop itself: the reports' own `ms` fields are not used.  Only after the
loop does it compare each report with its golden copy.  The last line it
prints is one JSON object with the results.

    python3 perfbench/child.py --workload fusion_battery --seed 0 --out-dir DIR [--trace]
    python3 perfbench/child.py --setup-only

The parent sets PYTHONPATH to the checkout's `src` and pins
VERIFY_MAX_CELLS and PYTHONHASHSEED.
"""

import argparse
import json
import resource
import time
import traceback
from pathlib import Path


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def score_entry(entry_key, code, report, error, reference, seed):
    """(checks run, checks failed, reason) for one entry, against its golden
    copy `reference`.  Every expected check fails when the entry raised,
    exited nonzero, ran zero checks or wrote a report that differs from
    the golden copy.  Imported lazily so that it stays out of `setup_s`."""
    from golden import compare, expected_checks

    expected = expected_checks(reference)
    if error is not None:
        reason = f"raised {error}"
    elif code != 0:
        reason = f"exited {code}"
    elif report is None:
        reason = "wrote no report"
    else:
        reason = compare(report, reference, seed)
    if reason is None:
        return expected, 0, None
    return expected, expected, f"{entry_key}: {reason}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import capelli.cli

    print("ready", flush=True)
    if args.setup_only:
        return 0

    import golden
    from layers import Tracer, cache_sizes
    from workloads import entry_key
    from workloads import entries as workload_entries

    entries = workload_entries(args.workload)
    keys = [entry_key(e) for e in entries]
    goldens = {k: golden.load(k) for k in keys}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outs = [out_dir / f"{k}.json" for k in keys]
    for out in outs:
        out.unlink(missing_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    codes, errors, entry_s = [], [], []
    start = time.perf_counter()
    for run_id, (entry, out) in enumerate(zip(entries, outs)):
        if tracer is not None:
            tracer.run_id = run_id
        t0 = time.perf_counter()
        try:
            codes.append(capelli.cli.main(["verify", *entry, "--seed", str(args.seed),
                                           "--format", "json", "--out", str(out)]))
            errors.append(None)
        except Exception as exc:  # an entry that raises fails its checks; keep going
            codes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
        entry_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    checks_run = checks_failed = 0
    failures = []
    for key, code, error, out in zip(keys, codes, errors, outs):
        report = json.loads(out.read_text()) if out.exists() else None
        run, failed, reason = score_entry(key, code, report, error, goldens[key], args.seed)
        checks_run += run
        checks_failed += failed
        if reason:
            failures.append(reason)

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "checks_run": checks_run,
        "checks_failed": checks_failed,
        "failures": failures,
        "entries": [{"entry": k, "s": s} for k, s in zip(keys, entry_s)],
        "caches": cache_sizes(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        document = tracer.trace_document()
        document["entries"] = result["entries"]
        document["runs"] = keys
        trace_path = out_dir / "trace.json"
        trace_path.write_text(json.dumps(document))
        result["trace_file"] = str(trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
