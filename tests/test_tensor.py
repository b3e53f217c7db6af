import itertools
import math
from fractions import Fraction

import pytest

from capelli import tensor
from capelli.core import (
    ConsistencyError,
    DimensionError,
    SymPoly,
    add_into,
    dense_add,
    dense_mul,
    dense_prod,
    dense_trim,
    perm_sign,
    to_dense,
)
from capelli.uea import (
    LieContext,
    UEAElement,
    capelli_element,
    central_series,
    family_element,
    gamma,
    hc_image,
    is_central,
)
from capelli.tensor import (
    TMat,
    TensorSpace,
    classical_point,
    cross_equal,
    ent_mod,
    ent_scalar_poly_mul,
    ent_to_ucoeffs,
    exchange_P,
    fused_F,
    fusion_capelli,
    generating_functions,
    ladder_roots,
    order_at_zero,
    orbit_sign,
    phi_normalizer,
    projected_trace,
    projector_rows,
    quantum_det_gl,
    sklyanin_det,
    smat_embed,
    smat_eq,
    smat_identity,
    smat_mul,
    smat_scale,
    smat_trace,
    symmetrizer,
    theorem_62_check,
    tm_E,
    tm_F,
    tm_one_plus,
    tm_q_correction,
    tm_R,
    twist_Q,
    verify_relations,
    verify_vanishing,
)
from capelli.symfun import partitions_with
from capelli.weyl import minor_delta, sgn

SO2 = LieContext("so", 2)
SO3 = LieContext("so", 3)
SP2 = LieContext("sp", 2)
SO4 = LieContext("so", 4)
SP4 = LieContext("sp", 4)


def test_exchange_operator_involution():
    for N in (2, 3):
        space = TensorSpace(N, 2)
        P = exchange_P(space, 1, 2)
        assert smat_eq(smat_mul(P, P), smat_identity(space.size))


@pytest.mark.parametrize("fam,N,sign", [("so", 2, 1), ("so", 3, 1), ("sp", 2, -1), ("sp", 4, -1)])
def test_PQ_relation(fam, N, sign):
    space = TensorSpace(N, 2)
    P = exchange_P(space, 1, 2)
    Q = twist_Q(space, 1, 2, fam)
    assert smat_eq(smat_mul(P, Q), smat_scale(Q, sign))
    assert smat_eq(smat_mul(Q, P), smat_scale(Q, sign))


@pytest.mark.parametrize("fam,N", [("so", 2), ("so", 3), ("sp", 2)])
def test_Q_squared(fam, N):
    space = TensorSpace(N, 2)
    Q = twist_Q(space, 1, 2, fam)
    assert smat_eq(smat_mul(Q, Q), smat_scale(Q, N))


def idempotent_symmetrizer(space, signed):
    """Reference for `symmetrizer`: the idempotent (anti)symmetrizer of
    (C^N)^{(x)m}, the sum over sigma of sign(sigma)/m! (1/m! when
    unsigned) times the operator that moves the p-th slot of an index
    tuple to slot sigma(p)."""
    out = {}
    norm = Fraction(1, math.factorial(space.m))
    for sigma in itertools.permutations(range(space.m)):
        perm = {}
        for t in space.tuples:
            s = [None] * space.m
            for p in range(space.m):
                s[sigma[p]] = t[p]
            perm[(space.code[tuple(s)], space.code[t])] = 1
        add_into(out, perm, norm * (perm_sign(sigma) if signed else 1))
    return out


@pytest.mark.parametrize("N,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("signed", [True, False])
def test_symmetrizer_is_width_factorial_times_the_idempotent(N, m, signed):
    space = TensorSpace(N, m)
    for width in range(m + 1):
        full = smat_embed(idempotent_symmetrizer(TensorSpace(N, width), signed), N ** width,
                          right=N ** (m - width))
        expected = smat_scale(full, math.factorial(width))
        got = symmetrizer(space, signed, width)
        assert got == expected
        assert all(type(v) is int for v in got.values())
        rows = range(1, space.size, 2)
        assert symmetrizer(space, signed, width, rows) == {
            (r, c): v for (r, c), v in expected.items() if r in rows}
    assert symmetrizer(space, signed) == symmetrizer(space, signed, m)


def test_projector_invariants():
    # A' = m! * A and B' = m! * B for the idempotents A and B
    for N in (2, 3):
        for m in (2, 3):
            space = TensorSpace(N, m)
            scale = math.factorial(m)
            A = symmetrizer(space, True)
            B = symmetrizer(space, False)
            assert smat_eq(smat_mul(A, A), smat_scale(A, scale))
            assert smat_eq(smat_mul(B, B), smat_scale(B, scale))
            assert not smat_mul(A, B)
            assert smat_trace(A) == scale * math.comb(N, m)
            assert smat_trace(B) == scale * math.comb(N + m - 1, m)


def test_symmetrizer_decompositions_fail_at_the_idempotent_scale(monkeypatch):
    monkeypatch.setattr(tensor, "symmetrizer",
                        lambda space, signed, width=None, rows=None:
                        idempotent_symmetrizer(space, signed))
    assert tensor.check_symmetrizer_decompositions(2, 2) is not None


def test_symmetrizer_decompositions_fail_on_a_flipped_sign(monkeypatch):
    build = tensor.symmetrizer

    def flipped(space, signed, width=None, rows=None):
        out = build(space, signed, width, rows)
        if signed:
            key = min(out)
            out[key] = -out[key]
        return out

    monkeypatch.setattr(tensor, "symmetrizer", flipped)
    assert tensor.check_symmetrizer_decompositions(2, 2) is not None


def test_verify_vanishing_fails_on_the_symmetric_projector(monkeypatch):
    build = tensor.symmetrizer
    monkeypatch.setattr(tensor, "symmetrizer",
                        lambda space, signed, width=None, rows=None:
                        build(space, False, width, rows))
    assert any(witness is not None for _cid, witness in verify_vanishing(2, 1, 2, "so", True))


@pytest.mark.parametrize("check", [
    lambda: tensor.check_symmetrizer_decompositions(3, 3),
    lambda: list(verify_vanishing(2, 2, 2, "sp", False)),
], ids=["dec-3.04", "vanishing"])
def test_scalar_matrix_checks_are_integral(check, monkeypatch):
    # every scalar matrix product takes only int cells, and the check passes
    mul = tensor.smat_mul
    calls = []

    def checked(a, b):
        assert all(type(x) is int for mat in (a, b) for x in mat.values())
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(tensor, "smat_mul", checked)
    out = check()
    assert calls
    assert out is None or all(witness is None for _cid, witness in out)


@pytest.mark.parametrize("ctx", [SO2, SO3, SP2])
def test_R_matrix_unitarity(ctx):
    # (1 - P/(u-v))(1 + P/(u-v)) = 1 - 1/(u-v)^2 since P^2 = 1
    space = TensorSpace(ctx.N, 2)
    u, v = SymPoly.gens(("u", "v"))
    lhs = tm_R(ctx, space, 1, 2, u, v) * tm_R(ctx, space, 1, 2, v, u)
    minus_one = smat_scale(smat_identity(space.size), -1)
    assert cross_equal(lhs, tm_one_plus(ctx, space, minus_one, (u - v) ** 2)) is None


@pytest.mark.parametrize("family,N", [("sp", 2), ("sp", 4), ("so", 2), ("so", 3)])
def test_transposed_E_factor_sign_table(family, N):
    # the (i, j) cell of the transposed factor carries eps_ij E_{-i,-j},
    # eps_ij = sgn(i) sgn(j) for sp and 1 for so, and -u on the diagonal
    ctx = LieContext("gl", N)
    space = TensorSpace(N, 1)
    mat = tm_E(ctx, space, 1, SymPoly.variable(("u",), "u"), eps_family=family)
    for i in space.indices:
        for j in space.indices:
            eps = sgn(i) * sgn(j) if family == "sp" else 1
            expected = {((0,), w): c * eps for w, c in UEAElement.E(ctx, -i, -j).terms.items()}
            if i == j:
                expected[((1,), ())] = Fraction(-1)
            assert mat.entry(space.code[(i,)], space.code[(j,)]) == expected


def matrix_words(mat):
    return [w for row in mat.rows.values() for entry in row.values() for _ev, w in entry]


@pytest.mark.parametrize("family,N", [("so", 3), ("sp", 2), ("sp", 4)])
def test_factor_and_product_entries_hold_weakly_increasing_words(family, N):
    # the entry product moves letters into sorted words, so every factor
    # and every product must keep its words weakly increasing
    ctx, gl = LieContext(family, N), LieContext("gl", N)
    space = TensorSpace(N, 2)
    u = SymPoly.variable(("u",), "u")
    mats = [tm_E(gl, space, 1, u), tm_E(gl, space, 2, u - 1, eps_family=family),
            tensor._slot_factor(gl, space, 2,
                                lambda i, j: UEAElement.E(gl, i, j) * UEAElement.E(gl, j, i), u),
            tm_F(ctx, space, 1, u), tm_F(ctx, space, 2, u + 1)]
    mats += [mats[0] * mats[1] * mats[2], mats[3] * mats[4]]
    for mat in mats:
        words = matrix_words(mat)
        assert words and all(list(w) == sorted(w) for w in words)
    assert any(len(w) == 3 for w in matrix_words(mats[5]))


def test_fused_single_factor_is_generator_matrix():
    mat = fused_F(SO3, 1, True, 0)
    space = TensorSpace(3, 1)
    direct = tm_F(SO3, space, 1, SymPoly.variable(("u",), "u"))
    assert cross_equal(mat, direct) is None


def test_fused_two_forms_agree_so2():
    # the constructor asserts the twisted-product form internally, at the
    # origin it is given
    for signed in (True, False):
        fused_F(SO2, 2, signed, 0)
        fused_F(SO2, 2, signed, classical_point(SO2, signed, 2))


def test_classical_points():
    assert classical_point(SO2, True, 2) == Fraction(1, 2)
    assert classical_point(SP2, True, 2) == Fraction(3, 2)
    assert classical_point(SO2, False, 2) == -Fraction(3, 2)
    assert classical_point(SP2, False, 2) == -Fraction(1, 2)


@pytest.mark.parametrize("ctx,k", [(SO2, 1), (SO3, 1)])
def test_fusion_column_equals_pfaffian_family(ctx, k):
    assert fusion_capelli(ctx, k, True) == family_element(ctx, k)


@pytest.mark.parametrize("ctx,k", [(SP2, 1), (SP2, 2)])
def test_fusion_row_equals_hafnian_family(ctx, k):
    assert fusion_capelli(ctx, k, False) == family_element(ctx, k)


def test_fusion_column_vanishes_past_rank():
    assert fusion_capelli(SO2, 2, True).is_zero()


def test_fusion_value_is_central():
    v = fusion_capelli(SO3, 1, False)
    assert is_central(v)


def check_trace_invariance(ctx, m, signed):
    """The partial trace of the fused matrix has invariant coefficients:
    it commutes with every subalgebra generator, coefficient by
    coefficient in u."""
    tr = projected_trace(fused_F(ctx, m, signed, 0), signed)
    for c in ent_to_ucoeffs(ctx, tr):
        for pair in ctx.letters:
            if not c.bracket(UEAElement.F(ctx, *pair)).is_zero():
                return f"coefficient fails to commute with F[{pair[0]},{pair[1]}]"
    return None


def test_trace_invariance_surrogate():
    for ctx in (SO2, SO3, SP2):
        for signed in (True, False):
            assert check_trace_invariance(ctx, 2, signed) is None


def test_verify_relations_all_pass():
    for ctx in (SO2, SP2):
        for cid, witness in verify_relations(ctx):
            assert witness is None, cid


@pytest.mark.parametrize("ctx", [SO2, SO3, SP2], ids=repr)
def test_exchange_relation_is_integral(ctx, monkeypatch):
    # built in u + eta and v + eta, every factor of prop-3.1 is integral
    calls = integral_products(monkeypatch)
    assert tensor.check_exchange_relation(ctx) is None
    assert calls


@pytest.mark.parametrize("ctx", [SO2, SO3, SP2], ids=repr)
def test_exchange_relation_fails_without_the_twist(ctx, monkeypatch):
    # Rt stripped of Q is the identity: the relation must then fail
    monkeypatch.setattr(tensor, "tm_Rt", lambda ctx, space, p, q, arg_u, arg_v:
                        tm_one_plus(ctx, space, {}, arg_u + arg_v))
    assert tensor.check_exchange_relation(ctx) is not None


def test_verify_relations_computes_only_selected_checks(monkeypatch):
    full = list(verify_relations(SP2))
    for name in ("check_exchange_relation", "check_rrr_relation", "check_boundary_regularity",
                 "check_symmetrizer_decompositions", "check_gl_exchange_relations"):
        monkeypatch.setattr(tensor, name, lambda *args: pytest.fail("an unselected check ran"))
    picked = list(verify_relations(SP2, "projected-products"))
    assert picked == [r for r in full if r[0].startswith("projected")]
    assert len(picked) == 2


def test_verify_relations_computes_each_check_as_it_yields_it(monkeypatch):
    build = tensor.check_projected_products
    calls = []

    def counted(ctx, m):
        calls.append(m)
        return build(ctx, m)

    monkeypatch.setattr(tensor, "check_projected_products", counted)
    checks = verify_relations(SP2, "projected-products")
    assert calls == []
    assert next(checks) == ("projected-products[sp2,m=2]", None)
    assert calls == [2]


def test_verify_vanishing_all_pass():
    for fam in ("so", "sp"):
        for m in (1, 2):
            for l in (0, 1, 2):
                for signed in (True, False):
                    for cid, witness in verify_vanishing(m, l, 2, fam, signed):
                        assert witness is None, cid


def test_single_factor_base_fails_on_a_corrupted_exchange_operator(monkeypatch):
    # the exchange sum is built from generator matrices, not from
    # `exchange_P`, so a wrong cell of `exchange_P` shows
    build = tensor.exchange_P

    def corrupted(space, p, q):
        out = build(space, p, q)
        out[min(out)] = 2
        return out

    monkeypatch.setattr(tensor, "exchange_P", corrupted)
    for fam in ("so", "sp"):
        for l in (1, 2):
            checks = dict(verify_vanishing(1, l, 2, fam, True))
            assert checks[f"antisym-single-factor-base[m=1,l={l},N=2,{fam}]"] is not None


@pytest.mark.parametrize("fam", ["so", "sp"])
@pytest.mark.parametrize("m,l,ids", [
    (2, 2, ["antisym-kills-row", "antisym-twisted-kills-row", "sym-kills-column",
            "sym-twisted-kills-column", "antisym-distinct-sum"]),
    (1, 2, ["antisym-distinct-sum", "antisym-single-factor-base"]),
])
def test_verify_vanishing_splits_the_four_products_by_sign(fam, m, l, ids):
    tag = f"[m={m},l={l},N=2,{fam}]"
    by_sign = {signed: [cid for cid, _ in verify_vanishing(m, l, 2, fam, signed)]
               for signed in (True, False)}
    assert sorted(by_sign[True] + by_sign[False]) == sorted(i + tag for i in ids)
    assert all(cid.startswith("antisym-") for cid in by_sign[True])
    assert all(cid.startswith("sym-") for cid in by_sign[False])


def test_quantum_det_gl1():
    h = quantum_det_gl(1)
    ctx = LieContext("gl", 1)
    assert dense_trim(h) == dense_trim([UEAElement.E(ctx, 0, 0), UEAElement.scalar(ctx, -1)])


def gl_eigenvalue(z, lam):
    """The eigenvalue of a central z of U(gl_N) on the highest-weight
    vector of weight lam under the natural action on the N x N grid: the
    product over p of the corner minors minor_delta(p, N, N) to the power
    lam_p - lam_{p+1}."""
    N = z.ctx.N
    lam = tuple(lam) + (0,) * (N + 1 - len(lam))
    v = math.prod((minor_delta(p, N, N) ** (lam[p - 1] - lam[p]) for p in range(1, N + 1)),
                  start=SymPoly.scalar(minor_delta(1, N, N).vars, 1))
    out = gamma(z, N).apply(v)
    ev, c = next(iter(v.terms.items()))
    ratio = Fraction(out.coefficient(ev), c)
    assert out == v * ratio, "not an eigenvector"
    return ratio


def shifted_product(N, lam):
    """prod_q (lam_q + N - q - u), q = 1..N, as a coefficient list in u:
    the eigenvalue of H(u) that Proposition 6.1 states."""
    lam = tuple(lam) + (0,) * (N - len(lam))
    return dense_prod([lam[q - 1] + N - q, -1] for q in range(1, N + 1))


def assert_qdet_eigenvalues(N, eps, weights):
    h = quantum_det_gl(N, eps)
    for nu in weights:
        assert [gl_eigenvalue(c, nu) for c in h] == shifted_product(N, nu), nu


def test_quantum_det_gl2_eigenvalues():
    for eps in ("so", "sp"):
        assert_qdet_eigenvalues(2, eps, [(), (1,), (2,), (1, 1)])


def test_sklyanin_scalar_normalization():
    num, den = sklyanin_det(SO2)
    scalar = [c.scalar_part() for c in num]
    # Cbar(u) has scalar part (1/2 - u)(-1/2 - u) relative to its
    # denominator; at u = eps + 1/2 that is eps(1 + eps)
    expected = [0, 1, 1]
    assert dense_trim(scalar) == dense_trim(dense_mul(expected, den))


def test_sklyanin_scalar_mismatch_names_the_coefficient(monkeypatch):
    # eps(1 + 2 eps) in place of eps(1 + eps): the error names the power
    # of eps (the variable "u") at which the two sides differ once
    # multiplied by the denominator, 2 eps
    monkeypatch.setattr(tensor, "_sklyanin_scalar", lambda ctx: [0, 1, 2])
    with pytest.raises(ConsistencyError, match=r"normalizing factor mismatch at u\^3: 2 != 4$"):
        sklyanin_det(SO2)


@pytest.mark.parametrize("ctx", [SO2, SP2, SO4, SP4])
def test_theorem_62(ctx):
    series = central_series(ctx, True, ctx.n)
    assert theorem_62_check(ctx, series) is None


@pytest.mark.parametrize("ctx", [SO4, SP4], ids=["so4", "sp4"])
@pytest.mark.parametrize("k,signed", [(1, True), (1, False), (2, True)],
                         ids=["1-column", "1-row", "2-column"])
def test_fusion_at_rank_four_is_the_central_series(ctx, k, signed):
    # the N = 4 frontier, beyond the thm-3.2/3.3 suite domains
    series = central_series(ctx, signed, k)
    assert fusion_capelli(ctx, k, signed) == series[k]


@pytest.mark.parametrize("family,N,signed,roots", [
    ("so", 2, True, [0, 1, 4]),
    ("so", 2, False, [1, 4, 9]),
    ("so", 3, True, [Fraction(1, 4), Fraction(1, 4), Fraction(9, 4)]),
    ("so", 3, False, [Fraction(9, 4), Fraction(25, 4), Fraction(49, 4)]),
    ("so", 4, True, [1, 0, 1]),
    ("so", 4, False, [4, 9, 16]),
    ("sp", 2, True, [1, 0, 1]),
    ("sp", 2, False, [4, 9, 16]),
    ("sp", 4, True, [4, 1, 0]),
    ("sp", 4, False, [9, 16, 25]),
])
def test_ladder_roots(family, N, signed, roots):
    assert ladder_roots(LieContext(family, N), signed, 3) == roots


@pytest.mark.parametrize("signed,N,m", [
    *((True, N, m) for N in (2, 3, 4) for m in (1, 2)),
    *((False, N, m) for N in (2, 4) for m in (1, 2)),
])
def test_ladder_roots_give_the_transfer_factors(signed, N, m):
    # the extra factors of the generating-function transfer, (N/2 - a)^2
    # over a^2 for C and (a - 1)^2 over (n - a + 1)^2 for D, are the
    # signed ladders of the orthogonal over the symplectic algebra
    so, sp = (LieContext("so", N), LieContext("sp", 2 * m)) if signed else (
        LieContext("so", 2 * m), LieContext("sp", N))
    if signed:
        top = [(Fraction(N, 2) - a) ** 2 for a in range(1, m + 1)]
        bottom = [Fraction(a) ** 2 for a in range(1, m + 1)]
    else:
        n = N // 2
        top = [Fraction(a - 1) ** 2 for a in range(1, m + 1)]
        bottom = [Fraction(n - a + 1) ** 2 for a in range(1, m + 1)]
    assert sorted(ladder_roots(so, True, m)) == sorted(top)
    assert sorted(ladder_roots(sp, True, m)) == sorted(bottom)


def test_generating_function_inversion_small():
    series_c = central_series(SP2, True, 2)
    series_d = central_series(SP2, False, 2)
    assert generating_functions(SP2, series_c, series_d) is None


def test_normalized_fused_matrix_is_entrywise_regular():
    # built at u0, every entry of the normalized fused column vanishes
    # below the pole order of its denominator there, which is 1
    ctx = SO2
    mat = fused_F(ctx, 2, True, classical_point(ctx, True, 2),
                  phi=phi_normalizer(ctx, True, 2))
    order = order_at_zero(mat.den)
    assert order == 1
    for row in mat.rows.values():
        for e in row.values():
            assert all(d >= order for ((d,), _w) in e)


def test_fusion_capelli_raises_on_a_pole_that_does_not_cancel(monkeypatch):
    one = SymPoly.scalar(("u",), 1)
    monkeypatch.setattr(tensor, "phi_normalizer", lambda ctx, signed, m: (one, one))
    with pytest.raises(ConsistencyError):
        fusion_capelli(SO2, 1, True)


# -- the full-row route, kept here as the oracle of the one-row-per-orbit one ---


def full_row_fused(ctx, m, signed, origin):
    """Reference for `fused_F`: the same factor chain on every one of the
    N^m rows of the (anti)symmetrizer."""
    space = TensorSpace(ctx.N, m)
    u = SymPoly.variable(("u",), "u") + origin

    def arg(q):
        return u - (q - 1) if signed else u + (q - 1)

    mat = TMat.from_scalar(ctx, space, idempotent_symmetrizer(space, signed),
                           SymPoly.scalar(u.vars, 1))
    for q in range(1, m + 1):
        if q > 1:
            mat = mat * tm_q_correction(ctx, space, q, arg(1) + arg(q))
        mat = mat * tm_F(ctx, space, q, arg(q))
    return mat


def all_cells_extraction(mat, proj):
    """Reference for `_extract_proportional`: compare every cell of the
    N^N x N^N matrix with the full idempotent antisymmetrizer (`proj` is
    ignored), whose denominator is 1, so the quotient is over mat.den."""
    space = mat.space
    full = idempotent_symmetrizer(space, signed=True)
    ref = min(full)
    for r in range(space.size):
        for c in range(space.size):
            lhs = smat_scale(mat.entry(r, c), full[ref])
            rhs = smat_scale(mat.entry(*ref), full.get((r, c), Fraction(0)))
            assert lhs == rhs, (r, c)
    return smat_scale(mat.entry(*ref), Fraction(1, full[ref])), mat.den


def full_row_qdet(N):
    """Reference for `quantum_det_gl`: the plain product on all rows."""
    ctx = LieContext("gl", N)
    space = TensorSpace(N, N)
    u = SymPoly.variable(("u",), "u")
    mat = TMat.from_scalar(ctx, space, idempotent_symmetrizer(space, signed=True),
                           SymPoly.scalar(u.vars, 1))
    for q in range(1, N + 1):
        mat = mat * tm_E(ctx, space, q, u - (q - 1))
    entry, den = all_cells_extraction(mat, None)
    assert den == 1
    return ent_to_ucoeffs(ctx, entry)


def test_orbit_sign():
    assert orbit_sign((1, -1), True) == ((-1, 1), -1)
    assert orbit_sign((-1, 1), True) == ((-1, 1), 1)
    assert orbit_sign((1, 0, -1), True) == ((-1, 0, 1), -1)
    assert orbit_sign((0, 1, -1), True) == ((-1, 0, 1), 1)
    assert orbit_sign((1, -1, 1), True) == ((-1, 1, 1), 0)
    for t in ((1, -1), (1, 0, -1), (1, -1, 1), (1, 1)):
        assert orbit_sign(t, False) == (tuple(sorted(t)), 1)


@pytest.mark.parametrize("signed", [True, False])
def test_projector_rows_are_the_sorted_rows(signed):
    # the integral rows over the scalar denominator width! are the rows
    # of the idempotent (anti)symmetrizer
    space = TensorSpace(3, 3)
    proj = projector_rows(SO3, space, signed)
    expected = {space.code[t] for t in space.tuples
                if list(t) == sorted(t) and (len(set(t)) == 3 or not signed)}
    assert set(proj.rows) == expected
    for width in (3, 2):
        proj = projector_rows(SO3, space, signed, width=width)
        full = smat_embed(idempotent_symmetrizer(TensorSpace(3, width), signed), 3 ** width,
                          right=3 ** (3 - width))
        den = proj.den.coefficient((0,))
        assert proj.den == den == math.factorial(width)
        for r, row in proj.rows.items():
            t = space.tuples[r]
            assert orbit_sign(t[:width], signed) == (t[:width], 1)
            assert {c: Fraction(e[((0,), ())], den) for c, e in row.items()} == {
                c: v for (rr, c), v in full.items() if rr == r}


@pytest.mark.parametrize("ctx,m", [
    pytest.param(c, m, id=f"{c.family}{c.N}-m{m}")
    for c, ms in ((SO2, (1, 2, 3, 4)), (SP2, (1, 2, 3, 4)), (SO3, (1, 2))) for m in ms])
@pytest.mark.parametrize("signed", [True, False], ids=["column", "row"])
def test_fused_F_matches_full_row_route(ctx, m, signed):
    # fused_F returns the representative rows of the full product, at
    # the origin 0 and at the classical point alike; every other row of
    # the full product is sign(t) times the row at sorted(t), so the
    # projected trace is its trace
    for origin in (0, classical_point(ctx, signed, m)):
        mat = fused_F(ctx, m, signed, origin)
        ref = full_row_fused(ctx, m, signed, origin)
        space = ref.space
        reps = {r for r, t in enumerate(space.tuples) if orbit_sign(t, signed) == (t, 1)}
        assert set(mat.rows) == reps & set(ref.rows)
        on_reps = TMat(ctx, space, {r: ref.rows[r] for r in mat.rows}, ref.den)
        assert cross_equal(mat, on_reps) is None
        trace = {}
        for r, t in enumerate(space.tuples):
            rep, sign = orbit_sign(t, signed)
            row = {c: smat_scale(e, sign) for c, e in ref.rows.get(space.code[rep], {}).items()}
            assert {c: e for c, e in row.items() if e} == ref.rows.get(r, {}), t
            add_into(trace, ref.entry(r, r))
        assert (ent_scalar_poly_mul(projected_trace(mat, signed), ref.den)
                == ent_scalar_poly_mul(trace, mat.den))


# -- the chains built at a point, against the origin-0 chain shifted there ------


def shift(a, c):
    """Coefficients of a(u + c), for a coefficient list a."""
    out = []
    for x in reversed(a):
        out = dense_add(dense_mul(out, [c, 1]), [x])
    return out


def shift_entry(e, c):
    """An entry over one variable u with u replaced by u + c: `shift` on
    the scalar coefficient list of each PBW word."""
    by_word = {}
    for ((d,), w), x in e.items():
        by_word.setdefault(w, {})[d] = x
    out = {}
    for w, coeffs in by_word.items():
        dense = [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]
        out.update({((d,), w): x for d, x in enumerate(shift(dense, c)) if x})
    return out


def test_shift_matches_evaluate():
    # shift(p, c) is p(u + c), read off by SymPoly.evaluate
    u = SymPoly.variable(("u",), "u")
    p = [Fraction(1), Fraction(-2), Fraction(0), Fraction(3)]
    poly = SymPoly(("u",), {(d,): x for d, x in enumerate(p)})
    for c in (Fraction(0), Fraction(5, 2), Fraction(-7, 3)):
        assert shift(p, c) == to_dense(poly.evaluate({"u": u + c}))


@pytest.mark.parametrize("ctx,k", [
    pytest.param(c, k, id=f"{c.family}{c.N}-k{k}") for c in (SO2, SP2, SO3) for k in (1, 2)])
@pytest.mark.parametrize("signed", [True, False], ids=["column", "row"])
def test_fused_F_at_the_classical_point_is_the_shifted_chain(ctx, k, signed):
    # u -> eps + u0 maps every factor of the origin-0 chain to the factor
    # built at u0, so the two matrices agree coefficient by coefficient
    u0 = classical_point(ctx, signed, 2 * k)
    at_u0 = fused_F(ctx, 2 * k, signed, u0)
    at_0 = fused_F(ctx, 2 * k, signed, 0)
    assert to_dense(at_u0.den) == shift(to_dense(at_0.den), u0)
    cells = {(r, c) for r, row in at_0.rows.items() for c in row}
    assert cells == {(r, c) for r, row in at_u0.rows.items() for c in row}
    for r, c in cells:
        assert at_u0.entry(r, c) == shift_entry(at_0.entry(r, c), u0)


def integral_products(monkeypatch):
    """Check from now on that every entry product takes only int
    coefficients; returns the list that each product appends to."""
    mul = tensor.ent_mul
    calls = []

    def checked(ctx, a, b, **kw):
        assert all(type(x) is int for e in (a, b) for x in e.values())
        calls.append(1)
        return mul(ctx, a, b, **kw)

    monkeypatch.setattr(tensor, "ent_mul", checked)
    return calls


def integral_chain(monkeypatch, build):
    """Run `build` with every entry product checked to take only int
    coefficients, and assert that so do the rows and the denominator of
    the `TMat` it returns."""
    integral_products(monkeypatch)
    mat = build()
    assert all(type(c) is int for c in mat.den.terms.values()), mat.den
    for r, row in mat.rows.items():
        for c, e in row.items():
            assert all(type(x) is int for x in e.values()), (r, c)


@pytest.mark.parametrize("ctx,k", [
    pytest.param(c, k, id=f"{c.family}{c.N}-k{k}") for c in (SO2, SP2, SO3) for k in (1, 2)])
@pytest.mark.parametrize("signed", [True, False], ids=["column", "row"])
def test_fused_F_at_the_classical_point_is_integral(ctx, k, signed, monkeypatch):
    # at u0 the eta of the F factors cancels against the origin, and the
    # projector is integral over m!, so the chain makes no Fraction
    u0 = classical_point(ctx, signed, 2 * k)
    integral_chain(monkeypatch, lambda: fused_F(ctx, 2 * k, signed, u0))


@pytest.mark.parametrize("ctx", [SO2, SP2], ids=["so2", "sp2"])
def test_sklyanin_chain_is_integral(ctx, monkeypatch):
    # built at (N-1)/2, where eta cancels at even N
    integral_chain(monkeypatch, lambda: fused_F(ctx, ctx.N, True, Fraction(ctx.N - 1, 2)))


def origin_zero_sklyanin(ctx):
    """Reference for `sklyanin_det`: the fused column built at u = 0,
    divided by g(u) = (2u+1)/(2u-N+1) in the symplectic case, and
    shifted by (N-1)/2."""
    N = ctx.N
    mat = fused_F(ctx, N, True, 0)
    proj = projector_rows(ctx, mat.space, signed=True)
    entry, den = tensor._extract_proportional(mat, proj)
    num = ent_to_ucoeffs(ctx, entry)
    den = to_dense(den)
    if ctx.family == "sp":
        num = dense_mul(num, [Fraction(1 - N, 2), 1])
        den = dense_mul(den, [Fraction(1, 2), 1])
    return shift(num, Fraction(N - 1, 2)), shift(den, Fraction(N - 1, 2))


@pytest.mark.parametrize("ctx", [SO2, SP2, SO3], ids=["so2", "sp2", "so3"])
def test_sklyanin_det_is_the_shifted_origin_zero_route(ctx):
    num, den = sklyanin_det(ctx)
    ref_num, ref_den = origin_zero_sklyanin(ctx)
    assert dense_trim(num) == dense_trim(ref_num)
    assert dense_trim(den) == dense_trim(ref_den)


@pytest.mark.parametrize("N,eps", [(1, "so"), (2, "so"), (2, "sp"), (3, "so")])
def test_quantum_det_gl_matches_all_cells_extraction(N, eps):
    assert quantum_det_gl(N, eps) == full_row_qdet(N)


@pytest.mark.parametrize("ctx", [SO2, SP2, SO3], ids=["so2", "sp2", "so3"])
def test_sklyanin_det_matches_all_cells_extraction(ctx, monkeypatch):
    fast = sklyanin_det(ctx)
    monkeypatch.setattr(tensor, "fused_F", full_row_fused)
    monkeypatch.setattr(tensor, "_extract_proportional", all_cells_extraction)
    assert fast == sklyanin_det(ctx)


@pytest.mark.parametrize("N,eps", [(3, "so"), (4, "so"), (4, "sp")])
def test_quantum_det_gl_eigenvalues_on_every_wired_weight(N, eps):
    # every weight of at most two boxes, on its highest-weight vector
    assert_qdet_eigenvalues(N, eps, [nu.parts for nu in partitions_with(N, max_weight=2)])


@pytest.mark.parametrize("nu", [(3,), (1, 1, 1)], ids=["row", "column"])
def test_quantum_det_gl_eigenvalue_on_three_boxes(nu):
    assert_qdet_eigenvalues(3, "so", [nu])


@pytest.mark.parametrize("N,eps", [(1, "so"), (2, "so"), (2, "sp"), (3, "so"), (4, "so"),
                                   (4, "sp")])
def test_quantum_det_gl_image_is_the_shifted_product(N, eps):
    # Proposition 6.1 for every highest weight at once: the Harish-Chandra
    # image of each coefficient of H(u)
    lam = SymPoly.gens(tuple(f"lam{q}" for q in range(1, N + 1)))
    assert [hc_image(c) for c in quantum_det_gl(N, eps)] == shifted_product(N, lam)


@pytest.mark.parametrize("N", [2, 3])
def test_gl_hc_image_is_the_eigenvalue_on_highest_weight_vectors(N):
    # the projection of the normal form against the natural action, on
    # the Capelli elements and the coefficients of H(u), parts at most 2
    elements = [capelli_element(k, N, signed) for k in range(1, N + 1) for signed in (True, False)]
    elements += quantum_det_gl(N)
    for z in elements:
        image = hc_image(z)
        for lam in partitions_with(N, max_part=2):
            point = {f"lam{q}": lam[q] for q in range(1, N + 1)}
            assert gl_eigenvalue(z, lam.parts) == image.evaluate(point), (z, lam)


def test_sp_sign_table_needs_even_rank():
    with pytest.raises(DimensionError):
        quantum_det_gl(3, "sp")


# -- the chains kept mod eps^(D+1), against the full polynomial chains ---------

def shape(signed):
    """The fusion shape that names a test case: the column when signed."""
    return "column" if signed else "row"


@pytest.mark.parametrize("ctx,k,signed", [
    pytest.param(c, k, signed, id=f"{c.family}{c.N}-k{k}-{shape(signed)}")
    for c in (SO2, SP2, SO3) for k in (1, 2) for signed in (True, False)])
def test_truncated_chain_is_the_full_chain_mod_the_pole_order(ctx, k, signed):
    # every thm-3.2/3.3 case with N <= 3: the chain that fusion_capelli
    # reads is the full chain times phi mod eps^(D+1), D the order at 0
    # of the full chain's denominator times phi's
    m = 2 * k
    u0 = classical_point(ctx, signed, m)
    phi_num, phi_den = phi_normalizer(ctx, signed, m)
    full = fused_F(ctx, m, signed, u0)
    cut = fused_F(ctx, m, signed, u0, phi=(phi_num, phi_den))
    assert full.order is None
    assert cut.den == full.den * phi_den
    assert cut.order == order_at_zero(cut.den) + 1
    cells = {(r, c) for r, row in full.rows.items() for c in row}
    cells |= {(r, c) for r, row in cut.rows.items() for c in row}
    for r, c in cells:
        expected = ent_mod(ent_scalar_poly_mul(full.entry(r, c), phi_num), cut.order)
        assert cut.entry(r, c) == expected, (r, c)


def test_truncated_products_multiply_like_the_full_ones():
    # mod eps^T is a ring homomorphism: truncating before or after a
    # product gives the same matrix, and the product keeps the smaller order
    space = TensorSpace(2, 2)
    eps = SymPoly.variable(("u",), "u")
    a = tm_F(SP2, space, 1, eps + 3) * tm_F(SP2, space, 2, eps - 1)
    b = tm_q_correction(SP2, space, 2, 2 * eps) * tm_F(SP2, space, 1, eps)
    full = a * b
    cut = a.mod(3) * b.mod(2)
    assert cut.order == 2 and cut.den == full.den
    assert cut.rows == full.mod(2).rows


@pytest.mark.parametrize("ctx,k,signed", [
    pytest.param(c, k, signed, id=f"{c.family}{c.N}-k{k}-{shape(signed)}")
    for c in (SO2, SP2, SO3) for k in (1, 2) for signed in (True, False)
    if not signed or 2 * k <= c.N])
def test_a_chain_one_order_short_changes_the_value(ctx, k, signed, monkeypatch):
    # every nonzero thm-3.2/3.3 case with N <= 3, those where phi's
    # numerator is eps (so columns, sp rows) included: the chain is kept
    # mod eps^(D+1), and a chain kept mod eps^D reads a different value
    expected = fusion_capelli(ctx, k, signed)
    assert not expected.is_zero()
    chain = tensor._chain

    def short(first, factors, normalized=False):
        if normalized:
            first = first.mod(sum(order_at_zero(x.den) for x in (first, *factors)))
        return chain(first, factors)

    monkeypatch.setattr(tensor, "_chain", short)
    try:
        value = fusion_capelli(ctx, k, signed)
    except ConsistencyError:
        return
    assert value != expected


def flipped_Rt(ctx, space, p, q, arg_u, arg_v):
    """`tm_Rt` with the wrong sign: 1 - Q_pq/(arg_u + arg_v)."""
    return tm_one_plus(ctx, space, smat_scale(twist_Q(space, p, q, ctx.family), -1),
                       arg_u + arg_v)


@pytest.mark.parametrize("ctx,k,signed", [
    pytest.param(c, k, signed, id=f"{c.family}{c.N}-k{k}-{shape(signed)}")
    for c, k, signed in [(SO2, 1, True), (SO2, 1, False), (SO2, 2, False),
                         (SP2, 1, True), (SP2, 1, False), (SP2, 2, False),
                         (SO3, 1, True), (SO3, 1, False)]])
def test_truncated_cross_check_sees_a_wrong_twisted_factor(ctx, k, signed, monkeypatch):
    # every case with a cross-check (at most 32 cells) and a nonzero
    # projector; the N = 2, k = 2 columns have none
    monkeypatch.setattr(tensor, "tm_Rt", flipped_Rt)
    with pytest.raises(ConsistencyError, match="fused product forms disagree"):
        fusion_capelli(ctx, k, signed)


def test_cross_equal_over_equal_denominators_keeps_the_witness():
    # the same denominators are compared entry by entry, and a mismatch
    # reports the same cell and text as the route that clears them
    space = TensorSpace(2, 2)
    eps = SymPoly.variable(("u",), "u")
    a = tm_F(SO2, space, 1, eps) * tm_q_correction(SO2, space, 2, eps + 1)
    rows = {r: dict(row) for r, row in a.rows.items()}
    (r, c), = [min((r, c) for r, row in rows.items() for c in row if r != c)]
    rows[r][c] = smat_scale(rows[r][c], 2)
    b = TMat(SO2, space, rows, a.den)
    scale = 3 * eps - 2
    cleared = TMat(SO2, space, {
        r: {c: ent_scalar_poly_mul(e, scale) for c, e in row.items()}
        for r, row in rows.items()}, a.den * scale)
    assert cross_equal(a, a) is None
    assert cross_equal(a, TMat(SO2, space, a.rows, a.den * scale)) is not None
    witness = cross_equal(a, b)
    assert witness == f"entry ({r},{c}) differs after clearing denominators"
    assert cross_equal(a, cleared) == witness


@pytest.mark.parametrize("ctx,k,signed", [
    pytest.param(SO2, 3, False, id="so2-k3-row"),
    pytest.param(SP2, 3, False, id="sp2-k3-row"),
    pytest.param(SO3, 3, True, id="so3-k3-column"),
    pytest.param(SO4, 2, False, id="so4-k2-row"),
])
def test_fusion_frontier_is_the_central_series(ctx, k, signed):
    # beyond the thm-3.2/3.3 suite domains, affordable on the truncated chain
    series = central_series(ctx, signed, k)
    value = fusion_capelli(ctx, k, signed)
    assert value == series[k]
    assert value.is_zero() == (ctx is SO3)
