"""Every benchmark entry reproduces its golden report: the same check ids,
statuses and witnesses, in the same order.  Only the `ms` fields may
differ.  The golden copies live in `perfbench/golden/` and are read, never
written, here.  The benchmark's layer tracer still installs on the
library and counts its patched methods."""

import json
import sys
from pathlib import Path

import pytest

from capelli import suites, uea
from capelli.cli import main
from capelli.weyl import WeylOperator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import golden  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import PARTS, entry_key  # noqa: E402

ENTRIES = [entry for part in PARTS.values() for entry in part["entries"]]


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_key)
def test_report_matches_golden_copy(entry, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *entry, "--seed", "0", "--format", "json", "--out", str(out)])
    assert out.exists(), f"{entry} exited {code} without a report"
    report = json.loads(out.read_text())
    assert golden.compare(report, golden.load(entry_key(entry)), 0) is None


def test_layer_tracer_patches_and_restores(monkeypatch):
    # The tracer replaces methods found in each class's own dict, so a
    # method moved to a base class would fail `install` or count nothing.
    monkeypatch.setattr(uea, "_RINGS", {})  # no memoized images: the products run
    add = WeylOperator.__dict__["__add__"]
    tracer = Tracer()
    tracer.install()
    try:
        suites.run_suite("cor-4.6")
    finally:
        tracer.uninstall()
    assert tracer.calls["weyl.add"] > 0
    assert tracer.calls["weyl.mul"] > 0
    assert tracer.calls["uea.fexpr_eval"] > 0
    assert WeylOperator.__dict__["__add__"] is add
