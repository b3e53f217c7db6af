"""Every suite fails on a planted defect.  Each row of `DEFECTS` names a
suite, one library function it reaches with the defective version that
replaces it, and the smallest parameters at which a check sees the
defect; `run_suite` must then report a failure with a witness, and must
neither raise nor pass.  Each defect reaches one side of a comparison
only, so this guards against a suite, or a battery it reads, that yields
its checks without computing them, and against two sides built from one
shared helper."""

import re

import pytest

from capelli import suites, symfun, tensor, uea
from capelli.suites import SUITES, run_suite

_symmetrizer, _exchange_P = tensor.symmetrizer, tensor.exchange_P
_capelli_element, _family_element = uea.capelli_element, uea.family_element
_ladder_roots = tensor.ladder_roots
_dual_pair_coeffs, _dual_gamma_gen = suites.dual_pair_coeffs, uea.dual_gamma_gen
_factorial_sum, _a_lambda = symfun._factorial_sum, suites.a_lambda
_cartan_letters, _quantum_det_gl = uea._cartan_letters, tensor.quantum_det_gl


def untwisted_Rt(ctx, space, p, q, arg_u, arg_v):
    """`tm_Rt` stripped of Q: the identity over arg_u + arg_v."""
    return tensor.tm_one_plus(ctx, space, {}, arg_u + arg_v)


def flipped_Rt(ctx, space, p, q, arg_u, arg_v):
    """`tm_Rt` with the wrong sign: 1 - Q_pq/(arg_u + arg_v)."""
    twist = tensor.smat_scale(tensor.twist_Q(space, p, q, ctx.family), -1)
    return tensor.tm_one_plus(ctx, space, twist, arg_u + arg_v)


def corrupted_P(space, p, q):
    """`exchange_P` with its first cell 2 in place of 1."""
    out = _exchange_P(space, p, q)
    out[min(out)] = 2
    return out


def flipped_antisymmetrizer(space, signed, width=None, rows=None):
    """`symmetrizer` with the sign of the first cell of every nonzero
    antisymmetrizer flipped."""
    out = _symmetrizer(space, signed, width, rows)
    if signed and out:
        key = min(out)
        out[key] = -out[key]
    return out


def wrong_sign_projector(space, signed, width=None, rows=None):
    """`symmetrizer` of the other sign."""
    return _symmetrizer(space, not signed, width, rows)


def shifted_capelli_element(k, N, signed):
    """The gl_N Capelli element plus 1."""
    return _capelli_element(k, N, signed) + 1


def shifted_family_element(ctx, k):
    """The k-th formula element (Pfaffian or Hafnian sum) plus 1."""
    return _family_element(ctx, k) + 1


def shifted_dual_pair_coeffs(signed, k, l, m, N):
    """The transfer coefficient in front of the identity (l = 0) plus 1."""
    return _dual_pair_coeffs(signed, k, l, m, N) + (l == 0)


def shifted_dual_gamma_gen(dual_family, A, B, m, N):
    """The dual image of F'_AA plus 1, and so of F'_{-A,-A} minus 1."""
    out = _dual_gamma_gen(dual_family, A, B, m, N)
    return out + (1 if A > 0 else -1) if A == B else out


def shifted_factorial_sum(k, n, a, signed):
    """The factorial e_k or h_k plus 1 for k >= 1."""
    out = _factorial_sum(k, n, a, signed)
    return out + 1 if k >= 1 else out


def shifted_a_lambda(lam, n, a):
    """The evaluation point of lam with every coordinate plus 1."""
    return tuple(x + 1 for x in _a_lambda(lam, n, a))


def shifted_ladder_roots(ctx, signed, K):
    """The unsigned family's ladder roots, each plus 1."""
    roots = _ladder_roots(ctx, signed, K)
    return roots if signed else [r + 1 for r in roots]


def reversed_cartan_letters(ctx):
    """The Cartan letters in reverse weight order: the p-th read as
    lam_{r-p+1}, r their number, in place of lam_p."""
    return _cartan_letters(ctx)[::-1]


DEFECTS = {
    "capelli-gl": (suites, "capelli_element", shifted_capelli_element,
                   {"N": 2, "m": 2, "k": 1}),
    "capelli-gl-perm": (suites, "capelli_element", shifted_capelli_element,
                        {"N": 2, "m": 2, "k": 1}),
    # the formula suites read family_element themselves; the fusion and
    # determinant suites reach it through uea.central_series
    "thm-4.1": (suites, "family_element", shifted_family_element, {"N": 2, "m": 1, "k": 1}),
    "thm-5.1": (suites, "family_element", shifted_family_element, {"N": 2, "m": 1, "k": 1}),
    "thm-3.2": (uea, "family_element", shifted_family_element, {"N": 2, "k": 1}),
    "thm-3.3": (uea, "family_element", shifted_family_element, {"N": 2, "k": 1}),
    "thm-6.2": (uea, "family_element", shifted_family_element, {"N": 2}),
    "cor-4.2": (suites, "family_element", shifted_family_element, {"N": 2}),
    # the defect reaches the Harish-Chandra images, not the target product
    "prop-6.1": (uea, "_cartan_letters", reversed_cartan_letters, {"N": 2}),
    "thm-4.4": (suites, "dual_pair_coeffs", shifted_dual_pair_coeffs, {"N": 2, "m": 1, "k": 1}),
    "thm-5.3": (suites, "dual_pair_coeffs", shifted_dual_pair_coeffs, {"N": 2, "m": 1, "k": 1}),
    "prop-4.3": (uea, "dual_gamma_gen", shifted_dual_gamma_gen, {"N": 2, "m": 1}),
    "prop-5.2": (uea, "dual_gamma_gen", shifted_dual_gamma_gen, {"N": 2, "m": 1, "K": 1}),
    "cor-4.5": (uea, "dual_gamma_gen", shifted_dual_gamma_gen, {}),
    "cor-4.6": (uea, "dual_gamma_gen", shifted_dual_gamma_gen, {}),
    "cor-5.4": (uea, "dual_gamma_gen", shifted_dual_gamma_gen, {"k": 1}),
    "prop-2.2": (symfun, "_factorial_sum", shifted_factorial_sum, {}),
    "prop-2.3": (symfun, "_factorial_sum", shifted_factorial_sum, {"K": 1}),
    "thm-2.1": (suites, "a_lambda", shifted_a_lambda, {}),
    # at K = 1 the shifted root lies past the order the check compares
    "series-inversion": (tensor, "ladder_roots", shifted_ladder_roots, {"N": 2, "K": 2}),
    "prop-3.1": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "rel-3.03": (tensor, "tm_Rt", flipped_Rt, {"N": 2}),
    "lem-3.5": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "prop-3.6": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "dec-3.04": (tensor, "symmetrizer", flipped_antisymmetrizer, {"N": 2}),
    "prop-3.9": (tensor, "exchange_P", corrupted_P, {"N": 2}),
    "prop-3.10": (tensor, "symmetrizer", wrong_sign_projector, {"N": 2, "m": 2}),
    "prop-3.11": (tensor, "symmetrizer", wrong_sign_projector, {"N": 2, "m": 2}),
}


def plant(monkeypatch, suite):
    """Plant the defect of `suite` and return the suite's parameters.  The
    rings built under the defect, which keep the images and vectors they
    built, are dropped with the test."""
    module, name, defect, params = DEFECTS[suite]
    monkeypatch.setattr(uea, "_RINGS", {})
    monkeypatch.setattr(module, name, defect)
    return params


@pytest.mark.parametrize("suite", list(DEFECTS))
def test_suite_fails_on_its_planted_defect(suite, monkeypatch):
    uea.clear_caches()  # no memoized formula, image or vector predates the defect
    checks = run_suite(suite, plant(monkeypatch, suite))
    assert any(c.status == "fail" and c.witness for c in checks)


def test_a_planted_formula_reaches_past_the_formula_memo(monkeypatch):
    # the formula memo holds both families of so_2 and sp_2 before the
    # defect is planted; the native and the complementary family, built
    # from the native formulas, must both see it
    uea.clear_caches()
    for family in ("so", "sp"):
        for signed in (True, False):
            uea.central_series(uea.LieContext(family, 2), signed, 2)
    for suite in ("thm-3.3", "thm-6.2"):
        checks = run_suite(suite, plant(monkeypatch, suite))
        assert len(checks) == 2, checks  # so_2 and sp_2
        assert all(c.status == "fail" and c.witness for c in checks), (suite, checks)


def test_every_suite_has_a_planted_defect():
    assert set(DEFECTS) == set(SUITES)


@pytest.mark.parametrize("suite", ["thm-4.1", "thm-5.1"])
def test_a_projection_defect_fails_every_hc_image_check(suite, monkeypatch):
    # the defect reaches the Harish-Chandra projection only: at rank 2
    # every image check fails with a witness, not an exception, while the
    # elements stay central
    uea.clear_caches()
    monkeypatch.setattr(uea, "_cartan_letters", reversed_cartan_letters)
    checks = run_suite(suite, {"N": 4, "m": 1})
    images = [c for c in checks if "-hc-image[" in c.id]
    central = [c for c in checks if "-central[" in c.id]
    assert len(images) == len(central) == 2, checks
    assert all(c.status == "fail" and c.witness for c in images), images
    assert all(c.status == "pass" for c in central), central


@pytest.mark.parametrize("suite", ["prop-5.2", "series-inversion"])
def test_a_truncated_identity_names_the_power_that_differs(suite, monkeypatch):
    # a truncated comparison prints the differing coefficient, like an
    # exact one, not only the degree of the difference
    uea.clear_caches()
    failed = [c.witness for c in run_suite(suite, plant(monkeypatch, suite)) if c.status == "fail"]
    assert failed and all(re.match(r"^t\^\d+: ", w) for w in failed), failed


def test_a_noncentral_quantum_determinant_coefficient_fails_prop_61(monkeypatch):
    # a coefficient whose Harish-Chandra image cannot be read is a witness,
    # not an exception
    def skewed(N, eps_family="so"):
        h = list(_quantum_det_gl(N, eps_family))
        h[1] = h[1] + uea.UEAElement.E(h[1].ctx, -1, 1)
        return h

    monkeypatch.setattr(suites, "quantum_det_gl", skewed)
    checks = run_suite("prop-6.1", {"N": 2})
    assert [c.witness for c in checks] == ["u^1: coefficient is not central"] * 2, checks
