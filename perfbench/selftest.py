"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

- BENCHMARK.json names exactly the metrics that run.py reports;
- the golden gate rejects a flipped status, a dropped check id, a changed
  witness and a report with zero checks, and fails every expected check
  of an entry that exits nonzero, raises or runs zero checks (it runs the
  real `thm-6.2 --N 7`, which exits 0 with no checks);
- the seeded suites' reports match their golden copies at several seeds,
  so one golden copy covers every seed;
- two traced runs of the `battery` part give identical count metrics;
- the bypass predictions hold: `uea.nf_memo_words` is 0 on the `transfer`
  part, and `tensor.ent_mul.calls` is 0 on the `transfer` and `pbw` parts,
  and so on the workload `transfer_pbw` they make up.

The traced runs take about a minute.  The exit code is the number of
failed checks.
"""

import copy
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import run  # noqa: E402
from child import score_entry  # noqa: E402
from layers import PER_LAYER  # noqa: E402

FAILED = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILED.append(what)


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _u in run.END_TO_END]
          and [m["unit"] for m in spec["end_to_end"]] == [u for _n, u in run.END_TO_END],
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
          "BENCHMARK.json per_layer matches layers.PER_LAYER")
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(name, w["why"]) for name, w in run.WORKLOADS.items()],
          "BENCHMARK.json workloads match workloads.WORKLOADS")


def _verify(argv, seed):
    from capelli.cli import main as cli_main

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "report.json"
        code = cli_main(["verify", *argv, "--seed", str(seed), "--format", "json",
                         "--out", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_golden_gate():
    os.environ["VERIFY_MAX_CELLS"] = run.VERIFY_MAX_CELLS
    ref = golden.load("prop-3.1")
    code, report = _verify(["prop-3.1"], 5)
    check(code == 0 and golden.compare(report, ref, 5) is None,
          "a fresh prop-3.1 report matches its golden copy")
    check(golden.compare(report, ref, 6) is not None,
          "a report made at another seed than the forwarded one is rejected")

    flipped = copy.deepcopy(report)
    flipped["suites"][0]["checks"][1]["status"] = "fail"
    check(golden.compare(flipped, ref, 5) is not None, "a flipped status is rejected")

    dropped = copy.deepcopy(report)
    del dropped["suites"][0]["checks"][0]
    check(golden.compare(dropped, ref, 5) is not None, "a dropped check id is rejected")

    witnessed = copy.deepcopy(report)
    witnessed["suites"][0]["checks"][2]["witness"] = "x"
    check(golden.compare(witnessed, ref, 5) is not None, "a new witness is rejected")

    empty = copy.deepcopy(report)
    empty["suites"][0]["checks"] = []
    check(golden.compare(empty, ref, 5) is not None, "a report with zero checks is rejected")

    expected = golden.expected_checks(golden.load("thm-6.2"))
    code, report = _verify(["thm-6.2", "--N", "7"], 0)
    run_, failed, reason = score_entry("thm-6.2", code, report, None,
                                       golden.load("thm-6.2"), 0)
    check(code == 0 and (run_, failed) == (expected, expected) and reason is not None,
          f"`thm-6.2 --N 7` (exit {code}, zero checks) fails all {expected} expected checks")
    for code, error in ((1, None), (None, "ConsistencyError: boom")):
        run_, failed, _reason = score_entry("prop-3.1", code, None, error, ref, 0)
        check((run_, failed) == (3, 3),
              f"an entry with exit {code} / error {error} fails all its expected checks")


def test_seed_independent_ids():
    for name in ("prop-2.2", "prop-2.3", "thm-2.1"):
        ref = golden.load(name)
        bad = [seed for seed in (0, 1, 7, 12345)
               if golden.compare(_verify([name], seed)[1], ref, seed) is not None]
        check(not bad, f"{name} matches its golden copy at seeds 0, 1, 7, 12345 "
                       f"(mismatched at {bad})")


def _traced(workload):
    metrics, _run, failed, record = run.measure(workload, 0, 1, True)
    check(failed == 0, f"traced {workload} passes its golden gate")
    return {name: m["value"] for name, m in metrics.items()}


def test_traced_runs():
    counted = [name for name, unit in PER_LAYER if unit == "count"]
    first, second = _traced("battery"), _traced("battery")
    differ = [n for n in counted if first[n] != second[n]]
    check(not differ, f"two traced battery runs give identical counts (differing: {differ})")
    transfer, pbw = _traced("transfer"), _traced("pbw")
    check(transfer["uea.nf_memo_words"] == 0, "uea.nf_memo_words is 0 on transfer")
    check(transfer["tensor.ent_mul.calls"] == 0, "tensor.ent_mul.calls is 0 on transfer")
    check(pbw["tensor.ent_mul.calls"] == 0, "tensor.ent_mul.calls is 0 on pbw")


def main():
    test_benchmark_json()
    test_golden_gate()
    test_seed_independent_ids()
    test_traced_runs()
    print(f"{len(FAILED)} failed" if FAILED else "all benchmark self-checks passed")
    return len(FAILED)


if __name__ == "__main__":
    raise SystemExit(main())
