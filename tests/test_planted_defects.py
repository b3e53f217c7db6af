"""Every suite fails on a planted defect.  Each row of `DEFECTS` names a
suite, one library function it reaches with the defective version that
replaces it, and the smallest parameters at which a check sees the
defect; `run_suite` must then report a failure with a witness, and must
neither raise nor pass.  This guards against a suite, or a battery it
reads, that yields its checks without computing them."""

import pytest

from capelli import tensor
from capelli.suites import run_suite

_symmetrizer, _exchange_P = tensor.symmetrizer, tensor.exchange_P


def untwisted_Rt(ctx, space, vars, p, q, arg_u, arg_v):
    """`tm_Rt` stripped of Q: the identity over arg_u + arg_v."""
    return tensor.tm_one_plus(ctx, space, vars, {}, arg_u + arg_v)


def flipped_Rt(ctx, space, vars, p, q, arg_u, arg_v):
    """`tm_Rt` with the wrong sign: 1 - Q_pq/(arg_u + arg_v)."""
    twist = tensor.smat_scale(tensor.twist_Q(space, p, q, ctx.family), -1)
    return tensor.tm_one_plus(ctx, space, vars, twist, arg_u + arg_v)


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


DEFECTS = {
    "prop-3.1": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "rel-3.03": (tensor, "tm_Rt", flipped_Rt, {"N": 2}),
    "lem-3.5": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "prop-3.6": (tensor, "tm_Rt", untwisted_Rt, {"N": 2}),
    "dec-3.04": (tensor, "symmetrizer", flipped_antisymmetrizer, {"N": 2}),
    "prop-3.9": (tensor, "exchange_P", corrupted_P, {"N": 2}),
    "prop-3.10": (tensor, "symmetrizer", wrong_sign_projector, {"N": 2, "m": 2}),
    "prop-3.11": (tensor, "symmetrizer", wrong_sign_projector, {"N": 2, "m": 2}),
}


@pytest.mark.parametrize("suite", list(DEFECTS))
def test_suite_fails_on_its_planted_defect(suite, monkeypatch):
    module, name, defect, params = DEFECTS[suite]
    monkeypatch.setattr(module, name, defect)
    checks = run_suite(suite, params)
    assert any(c.status == "fail" and c.witness for c in checks)
