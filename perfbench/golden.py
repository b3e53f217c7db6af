"""Golden reports: each suite entry's JSON report with the timings removed.

`compare` is the benchmark's correctness gate.  A report matches its
golden copy when it has the same suites, parameters (apart from the
forwarded seed), check ids, statuses and witnesses, in the same order.

Run this file from the repository root to rewrite the golden copies from
the current code, at seed 0:

    python3 perfbench/golden.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def normalise(report):
    """The report without `ms` fields and without the seed parameter."""
    return {
        "version": report["version"],
        "suites": [
            {
                "name": suite["name"],
                "params": {k: v for k, v in suite["params"].items() if k != "seed"},
                "checks": [{k: v for k, v in check.items() if k != "ms"}
                           for check in suite["checks"]],
            }
            for suite in report["suites"]
        ],
    }


def load(key):
    with open(GOLDEN_DIR / f"{key}.json") as fh:
        return json.load(fh)


def expected_checks(golden):
    return sum(len(suite["checks"]) for suite in golden["suites"])


def compare(report, golden, seed):
    """None when `report` matches `golden` at `seed`, else the first difference."""
    seeds = [suite.get("params", {}).get("seed") for suite in report.get("suites", [])]
    if any(s != seed for s in seeds):
        return f"report seeds {seeds} differ from the forwarded seed {seed}"
    try:
        got = normalise(report)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    if sum(len(suite["checks"]) for suite in got["suites"]) == 0:
        return "the entry ran zero checks"
    if got["version"] != golden["version"]:
        return f"report version {got['version']!r} != {golden['version']!r}"
    if len(got["suites"]) != len(golden["suites"]):
        return "different number of suites"
    for mine, ref in zip(got["suites"], golden["suites"]):
        if (mine["name"], mine["params"]) != (ref["name"], ref["params"]):
            return f"suite {mine['name']} {mine['params']} != {ref['name']} {ref['params']}"
        mine_ids = [c["id"] for c in mine["checks"]]
        ref_ids = [c["id"] for c in ref["checks"]]
        if mine_ids != ref_ids:
            missing = sorted(set(ref_ids) - set(mine_ids))
            extra = sorted(set(mine_ids) - set(ref_ids))
            return f"check ids differ: missing {missing}, unexpected {extra}"
        for c, r in zip(mine["checks"], ref["checks"]):
            if c != r:
                return f"check {c['id']}: {c} != golden {r}"
    return None


def main():
    root = GOLDEN_DIR.parent.parent
    sys.path.insert(0, str(root / "src"))
    os.environ["VERIFY_MAX_CELLS"] = "256"
    from capelli.cli import main as cli_main
    from workloads import PARTS, entry_key

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp) / "report.json"
        for part in PARTS.values():
            for entry in part["entries"]:
                code = cli_main(["verify", *entry, "--seed", "0",
                                 "--format", "json", "--out", str(out)])
                if code != 0:
                    raise SystemExit(f"{entry} exited {code}; golden copies not written")
                report = json.loads(out.read_text())
                key = entry_key(entry)
                (GOLDEN_DIR / f"{key}.json").write_text(
                    json.dumps(normalise(report), indent=2) + "\n")
                print(f"wrote {key}: {expected_checks(normalise(report))} checks")


if __name__ == "__main__":
    main()
