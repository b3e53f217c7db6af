import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import capelli
from capelli.cli import main, report_emit
from capelli.core import ConsistencyError, DimensionError
from capelli import suites, tensor
from capelli.suites import PARAMS, SUITES, CheckResult, Order, Suite, UsageError, run_suite
from capelli.uea import LieContext, UEAElement


def test_list_suites_exits_zero(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in ("capelli-gl", "thm-4.1", "thm-6.2", "series-inversion"):
        assert name in out
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert "N∈{2,3} m∈{2,3} k∈{1,2,3}" in lines["capelli-gl"]
    assert lines["series-inversion"].endswith("N∈{2,3} K∈{1..4} (default 3)")
    assert lines["thm-5.3"].endswith("k∈{1..3} (default 2)")
    assert lines["prop-5.2"].endswith("K∈{1..3} (default 2)")
    assert lines["prop-2.3"].endswith("K∈{1..16} (default 4)")
    assert lines["prop-2.2"].endswith("polynomials")


def test_verify_flags_are_the_declared_parameters_in_registry_order(capsys):
    assert PARAMS == ("N", "m", "k", "K")
    assert main(["verify", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    assert usage.startswith("usage: capelli verify [-h] [--N N] [--m M] [--k K] [--K K] [--seed")


def test_unknown_suite_usage_error(capsys):
    assert main(["verify", "no-such-suite"]) == 2


def test_out_of_range_usage_error(capsys):
    assert main(["verify", "capelli-gl", "--N", "9"]) == 2


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "capelli-gl", "--N", "2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "2/2 checks passed" in out


def test_json_schema_and_determinism(tmp_path):
    docs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        assert main(["verify", "prop-2.2", "--seed", "11", "--format", "json",
                     "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    for doc in docs:
        assert doc["version"] == "1"
        assert doc["suites"][0]["name"] == "prop-2.2"
        assert doc["suites"][0]["params"] == {"seed": 11}
        for check in doc["suites"][0]["checks"]:
            assert check["status"] == "pass"
            assert "witness" not in check
            assert "ms" in check

    def strip_ms(doc):
        for s in doc["suites"]:
            for c in s["checks"]:
                c.pop("ms")
        return doc

    assert strip_ms(docs[0]) == strip_ms(docs[1])


def test_seed_changes_random_suite_but_stays_green():
    a = run_suite("prop-2.3", {}, seed=1)
    b = run_suite("prop-2.3", {}, seed=2)
    assert all(c.status == "pass" for c in a + b)


def test_failing_check_carries_pbw_witness(monkeypatch, capsys):
    ctx = LieContext("gl", 2)
    lhs = UEAElement.E(ctx, -1, -1)
    rhs = UEAElement.E(ctx, -1, -1) + 2 * UEAElement.E(ctx, 1, 1)

    def fake_suite(params, rng):
        yield "injected", lhs.first_difference(rhs)

    monkeypatch.setitem(SUITES, "injected-failure", Suite("failure injection", {}, fake_suite))
    assert main(["verify", "injected-failure", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    check = doc["suites"][0]["checks"][0]
    assert check["status"] == "fail"
    assert "E[1,1]" in check["witness"]


def test_markdown_emission(capsys):
    assert main(["verify", "cor-4.6", "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("## cor-4.6 {'seed': 0}\n")
    assert "| check | status | witness |" in md


def test_report_emit_keeps_the_given_order_and_rejects_an_unknown_format():
    checks = [CheckResult("b", "E[1,1]", 1.0), CheckResult("a", None, 2.0)]
    text = report_emit("demo", {"N": 2, "seed": 0}, checks, "text").decode()
    assert text == "FAIL demo:b  [E[1,1]]\nPASS demo:a\ndemo: 1/2 checks passed\n"
    with pytest.raises(AttributeError):  # the status is read from the witness
        checks[0].status = "pass"
    with pytest.raises(UsageError):
        report_emit("demo", {}, checks, "yaml")


def test_out_file_written(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "cor-4.6", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suites"][0]["checks"][0]["status"] == "pass"


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["verify", "cor-4.6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: No such file or directory" in err
    assert "Traceback" not in err


def test_run_suite_rejects_unknown():
    with pytest.raises(UsageError):
        run_suite("nope", {}, seed=0)


@pytest.mark.parametrize("argv", [
    ["series-inversion", "--K", "0"],
    ["series-inversion", "--K", "-1"],
    ["prop-2.3", "--K", "-2"],
    ["thm-5.3", "--k", "0"],
    ["prop-5.2", "--K", "0"],
    ["thm-6.2", "--N", "7"],
    ["capelli-gl", "--k", "7"],
    ["cor-4.6", "--N", "3"],
    ["cor-4.5", "--N", "3", "--m", "1"],
    ["cor-4.5", "--K", "2"],
    ["cor-5.4", "--k", "3"],
    ["prop-2.2", "--N", "9"],
    ["thm-2.1", "--m", "1"],
    ["prop-6.1", "--m", "7"],
    ["prop-2.3", "--N", "9"],
    ["thm-6.2", "--m", "9"],
    ["cor-4.2", "--K", "5"],
    ["thm-3.2", "--m", "9"],
    ["thm-4.1", "--K", "3"],
    ["prop-3.10", "--k", "4"],
    ["series-inversion", "--K", "8"],
    ["series-inversion", "--K", "5"],
    ["thm-5.3", "--k", "4"],
    ["prop-5.2", "--K", "4"],
])
def test_bad_order_or_empty_run_is_usage_error(argv, capsys):
    assert main(["verify", *argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_order_past_its_bound_exits_two_at_once(capsys):
    # each of these runs for many seconds if it is let through
    for argv in (["series-inversion", "--K", "8"], ["series-inversion", "--K", "5"],
                 ["thm-5.3", "--k", "4"], ["prop-5.2", "--K", "4"]):
        start = time.monotonic()
        assert main(["verify", *argv]) == 2
        assert time.monotonic() - start < 1.0, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is outside" in err, err


def test_fixed_parameters_at_their_values_pass(capsys):
    assert main(["verify", "cor-4.5", "--N", "2", "--m", "2"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out


def _bad_params(domains):
    """One parameter dict per way of misusing `domains`: an undeclared
    parameter, a value outside a domain, and a value that is not an int
    (one that equals a member of the domain, a fraction, a bool or a
    string)."""
    for key in PARAMS:
        domain = domains.get(key)
        if domain is None:
            yield {key: 2}
            continue
        if isinstance(domain, Order):
            yield {key: 0}
            yield {key: domain.top + 1}
            inside = domain.default
        else:
            yield {key: max(domain) + 1}
            inside = min(domain)
        for value in (float(inside), inside + 0.5, True, str(inside)):
            yield {key: value}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_registry_rejects_bad_params_before_the_body(name, monkeypatch):
    def must_not_run(p, rng):
        raise AssertionError("the suite body ran on invalid parameters")

    monkeypatch.setitem(SUITES, name, SUITES[name]._replace(body=must_not_run))
    for params in _bad_params(SUITES[name].domains):
        with pytest.raises(UsageError):
            run_suite(name, params, seed=0)


@pytest.mark.parametrize("fault", [ConsistencyError, DimensionError],
                         ids=lambda fault: fault.__name__)
def test_internal_fault_exits_three(fault, monkeypatch, capsys):
    # parameters are validated before the body runs, so a fault inside it
    # is internal, a DimensionError as much as any other
    def broken_suite(p, rng):
        raise fault("generator images break the symmetry")

    monkeypatch.setitem(SUITES, "broken", Suite("internal fault", {}, broken_suite))
    assert main(["verify", "broken"]) == 3
    err = capsys.readouterr().err
    assert f"error: internal: {fault.__name__}: generator images" in err
    assert "Traceback" not in err


def test_every_suite_is_a_generator_of_checks():
    for name, suite in SUITES.items():
        assert isinstance(suite, Suite) and inspect.isgeneratorfunction(suite.body), name
    # the batteries that the relation and vanishing suites read, too
    assert inspect.isgeneratorfunction(tensor.verify_relations)
    assert inspect.isgeneratorfunction(tensor.verify_vanishing)


def test_ms_is_the_gap_since_the_previous_check(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(suites.time, "monotonic", lambda: clock[0])
    costs = {"first": 0.5, "second": 0.25, "third": 2.0}

    def timed_suite(p, rng):
        for cid, cost in costs.items():
            clock[0] += cost
            yield cid, None if cid != "second" else "injected"

    monkeypatch.setitem(SUITES, "timed", Suite("fake clock", {}, timed_suite))
    checks = run_suite("timed", {}, seed=0)
    assert [(c.id, c.status, c.ms) for c in checks] == [
        ("first", "pass", 500.0), ("second", "fail", 250.0), ("third", "pass", 2000.0)]
    assert sum(c.ms for c in checks) == (clock[0] - 100.0) * 1000.0


@pytest.mark.parametrize("suite,check", [("prop-3.6", "check_projected_products"),
                                         ("dec-3.04", "check_symmetrizer_decompositions")])
def test_each_battery_check_reports_its_own_ms(suite, check, monkeypatch):
    # every check of the battery advances the clock by its own cost
    clock = [100.0]
    monkeypatch.setattr(suites.time, "monotonic", lambda: clock[0])
    costs = []

    def timed(*args):
        costs.append(0.5 + 0.25 * len(costs))
        clock[0] += costs[-1]

    monkeypatch.setattr(tensor, check, timed)
    checks = run_suite(suite, {}, seed=0)
    assert len(checks) == len(costs) == 6
    assert [c.ms for c in checks] == [1000.0 * cost for cost in costs]


@pytest.mark.parametrize("args", [["--seed", "12988"], ["--K", "3", "--seed", "17805"],
                                  ["--K", "16", "--seed", "214"]])
def test_prop_23_redraws_a_z_value_that_hits_the_sequence(args, capsys):
    # each seed draws a z-value equal to an entry of its shift sequence
    assert main(["verify", "prop-2.3", *args]) == 0
    assert capsys.readouterr().err == ""


def test_generator_with_no_checks_is_usage_error(monkeypatch, capsys):
    def empty_suite(p, rng):
        yield from ()

    monkeypatch.setitem(SUITES, "empty", Suite("yields nothing", {}, empty_suite))
    with pytest.raises(UsageError):
        run_suite("empty", {}, seed=0)
    assert main(["verify", "empty"]) == 2
    assert "error: no check of 'empty'" in capsys.readouterr().err


@pytest.mark.parametrize("suite, params", [("thm-4.4", {"N": 4, "m": 2}), ("cor-5.4", {})])
def test_a_single_k_run_reports_the_k_checks_of_the_full_run(suite, params):
    def reported(checks):
        return [(c.id, c.status, c.witness) for c in checks]

    full = reported(run_suite(suite, params))
    for k in SUITES[suite].domains["k"]:
        expected = [check for check in full if check[0].endswith(f"k={k}]")]
        assert expected and reported(run_suite(suite, {**params, "k": k})) == expected


def _without_ms(report):
    """A report with its `ms` fields dropped, when it is JSON."""
    if not report.startswith("{"):
        return report
    doc = json.loads(report)
    for suite in doc["suites"]:
        for check in suite["checks"]:
            check.pop("ms")
    return doc


def test_a_second_main_call_keeps_no_flag_of_the_first(capsys):
    # the parser is built once per process; the second call sets neither
    # --N nor --format, so it must read cor-4.6's own N and print text,
    # as a run in a fresh process does
    runs = (["verify", "capelli-gl", "--N", "2", "--m", "2", "--format", "json"],
            ["verify", "cor-4.6"])
    reports = []
    for argv in runs:
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    env = {**os.environ, "PYTHONPATH": str(Path(capelli.__file__).resolve().parent.parent)}
    for argv, report in zip(runs, reports):
        alone = subprocess.run([sys.executable, "-m", "capelli.cli", *argv], env=env,
                               capture_output=True, text=True, check=True)
        assert _without_ms(report) == _without_ms(alone.stdout), argv
    assert reports[1].startswith("PASS cor-4.6:")
