"""Acceptance battery: every identity the library exists to certify, at
the stated desk-scale ranges, with zero tolerance (all arithmetic is
exact) and a wall-clock budget per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time

from capelli.suites import run_suite


def _run(names, budget, label, params=None):
    t0 = time.monotonic()
    failures = []
    total = 0
    for name in names:
        for check in run_suite(name, dict(params or {}), seed=0):
            total += 1
            if check.status != "pass":
                failures.append(f"{name}:{check.id}: {check.witness}")
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {label}: {status} ({total} checks, {elapsed:.1f}s < {budget}s)")
    assert not failures, failures
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget}s"


def test_criterion_01_classical_capelli_identity():
    _run(["capelli-gl"], 10, "1 (determinant identity, gl)")


def test_criterion_02_permanent_capelli_identity():
    _run(["capelli-gl-perm"], 30, "2 (permanent identity, gl)")


def test_criterion_03_pfaffian_formula_so():
    _run(["thm-4.1"], 60, "3 (Pfaffian formula, so_2..so_4)")


def test_criterion_04_hafnian_formula_sp():
    _run(["thm-5.1"], 120, "4 (Hafnian formula, sp_2/sp_4)")


def test_criterion_05_fusion_formulas():
    _run(["thm-3.2", "thm-3.3"], 120, "5 (fusion at the classical point)")


def test_criterion_06_exchange_matrix_identities():
    _run(["prop-3.1", "prop-3.6", "prop-3.9", "rel-3.03", "lem-3.5",
          "dec-3.04", "prop-3.10", "prop-3.11"], 60,
         "6 (exchange-matrix identity battery)")


def test_criterion_07_quantum_determinant():
    _run(["thm-6.2", "prop-6.1"], 60, "7 (quantum determinant formula)")


def test_criterion_08_dual_pair_transfer():
    _run(["thm-4.4", "prop-4.3", "cor-4.5", "cor-4.6",
          "thm-5.3", "prop-5.2", "cor-5.4"], 180, "8 (dual-pair transfer)")


def test_criterion_09_symmetric_function_groundwork():
    _run(["prop-2.2", "prop-2.3", "thm-2.1"], 30,
         "9 (factorial symmetric polynomials)")


def test_criterion_10_series_inversion():
    _run(["series-inversion"], 30, "10 (generating-series inversion, K=3)",
         params={"K": 3})
