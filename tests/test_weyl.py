from fractions import Fraction
import itertools
import math
import random

import pytest

from capelli import core, weyl
from capelli.core import ConsistencyError, DimensionError, SymPoly, add_into, perm_sign
from capelli.symfun import Partition
from capelli.uea import singular_vector
from capelli.weyl import (
    WeylContext,
    WeylOperator,
    cayley,
    dual_gamma_gen,
    gamma_gen,
    index_set,
    minor_delta,
    paired_blocks,
)


def test_index_set():
    assert index_set(2) == (-1, 1)
    assert index_set(3) == (-1, 0, 1)
    assert index_set(4) == (-2, -1, 1, 2)


def test_canonical_commutation():
    ctx = WeylContext(2, 2)
    x11 = WeylOperator.x(ctx, 1, 1)
    d11 = WeylOperator.d(ctx, 1, 1)
    x21 = WeylOperator.x(ctx, 2, 1)
    assert d11 * x11 == x11 * d11 + 1
    assert d11 * x21 == x21 * d11
    assert d11 * x11 - x11 * d11 == WeylOperator.scalar(ctx, 1)


def test_euler_operator_square():
    # one active variable: (x d)^2 = x^2 d^2 + x d, oracle d(d-1)+d on x^d
    ctx = WeylContext(1, 2)
    x = WeylOperator.x(ctx, 1, 1)
    d = WeylOperator.d(ctx, 1, 1)
    e = x * d
    assert e * e == x * x * d * d + x * d
    for deg in range(5):
        mono = ctx.poly_x(1, 1) ** deg
        assert (e * e).apply(mono) == (deg * (deg - 1) + deg) * mono


def test_apply_basics():
    ctx = WeylContext(1, 2)
    p = ctx.poly_x(1, 1) ** 2
    assert WeylOperator.d(ctx, 1, 1).apply(p) == 2 * ctx.poly_x(1, 1)
    euler = WeylOperator.zero(ctx)
    for i in ctx.indices:
        euler = euler + WeylOperator.x(ctx, 1, i) * WeylOperator.d(ctx, 1, i)
    assert euler.apply(ctx.poly_x(1, 1)) == ctx.poly_x(1, 1)


def test_mul_associative_randomized():
    rng = random.Random(9)
    ctx = WeylContext(2, 2)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = [0] * ctx.nvars
            beta = [0] * ctx.nvars
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(ctx.nvars)] += 1
            for _ in range(rng.randint(0, 2)):
                beta[rng.randrange(ctx.nvars)] += 1
            terms[(tuple(alpha), tuple(beta))] = Fraction(rng.randint(-4, 4))
        return WeylOperator(ctx, terms)

    for _ in range(15):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)


def operators_agree_on_degree(aop: WeylOperator, bop: WeylOperator, d: int) -> bool:
    """Independent equality oracle: compare actions on every monomial of
    total degree <= d."""
    ctx = aop.ctx
    vs = ctx.var_names
    for deg in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(ctx.nvars), deg):
            ev = [0] * ctx.nvars
            for t in combo:
                ev[t] += 1
            mono = SymPoly(vs, {tuple(ev): Fraction(1)})
            if not (aop.apply(mono) - bop.apply(mono)).is_zero():
                return False
    return True


def test_operator_equality_oracle():
    ctx = WeylContext(1, 2)
    x = WeylOperator.x(ctx, 1, 1)
    d = WeylOperator.d(ctx, 1, 1)
    assert operators_agree_on_degree(d * x, x * d + 1, 3)
    assert not operators_agree_on_degree(d * x, x * d, 3)
    assert (d * x).first_difference(x * d) is not None
    assert (d * x).first_difference(x * d + 1) is None


@pytest.mark.parametrize("m,N", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_cayley_omega_theta_k1(m, N):
    ctx = WeylContext(m, N)
    expected = WeylOperator.zero(ctx)
    for a in range(1, m + 1):
        for i in ctx.indices:
            expected = expected + WeylOperator.x(ctx, a, i) * WeylOperator.d(ctx, a, i)
    assert cayley(1, m, N, True) == expected
    assert cayley(1, m, N, False) == expected


def test_cayley_omega_vanishes_above_rank():
    assert cayley(3, 2, 2, True).is_zero()  # k > min(m,N)
    assert cayley(3, 2, 3, True).is_zero()


def test_cayley_omega_2x2_single_block():
    ctx = WeylContext(2, 2)
    i1, i2 = ctx.indices
    from capelli.core import det

    xdet = det([[WeylOperator.x(ctx, a, i) for i in (i1, i2)] for a in (1, 2)])
    ddet = det([[WeylOperator.d(ctx, a, i) for i in (i1, i2)] for a in (1, 2)])
    assert cayley(2, 2, 2, True) == xdet * ddet


def symmetrized_cayley(k, m, N, signed):
    """Oracle: the symmetrized sum term by term, each exponent vector
    spelled through `WeylContext.slot` and added on its own."""
    ctx = WeylContext(m, N)
    terms = {}
    for sigma in itertools.permutations(range(k)):
        c0 = perm_sign(sigma) if signed else 1
        for avec in itertools.product(range(1, m + 1), repeat=k):
            for ivec in itertools.product(ctx.indices, repeat=k):
                alpha = [0] * ctx.nvars
                beta = [0] * ctx.nvars
                for t in range(k):
                    alpha[ctx.slot(avec[t], ivec[t])] += 1
                    beta[ctx.slot(avec[t], ivec[sigma[t]])] += 1
                add_into(terms, {(tuple(alpha), tuple(beta)): c0})
    return WeylOperator(ctx, terms) * Fraction(1, math.factorial(k))


CAPELLI_POINTS = [(k, m, N) for N in (2, 3) for m in (2, 3) for k in (1, 2, 3) if k <= min(m, N)]


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("k,m,N", CAPELLI_POINTS + [(4, 3, 3)])
def test_cayley_equals_the_term_by_term_symmetrized_sum(k, m, N, signed):
    assert cayley(k, m, N, signed) == symmetrized_cayley(k, m, N, signed)


@pytest.mark.parametrize("signed,form", [(True, "determinantal"), (False, "permanental")])
def test_cayley_raises_when_the_block_route_is_wrong(monkeypatch, signed, form):
    monkeypatch.setattr(weyl, "det", lambda rows: 2 * core.det(rows))
    monkeypatch.setattr(weyl, "per", lambda rows: 2 * core.per(rows))
    with pytest.raises(ConsistencyError, match=f"^symmetrized and {form} forms disagree$"):
        cayley(2, 2, 2, signed)


@pytest.mark.parametrize("k,m,N", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 3, 3)])
def test_cayley_kills_low_degree(k, m, N):
    ctx = WeylContext(m, N)
    omega = cayley(k, m, N, True)
    theta = cayley(k, m, N, False)
    for deg in range(k):
        for combo in itertools.combinations_with_replacement(range(ctx.nvars), deg):
            ev = [0] * ctx.nvars
            for t in combo:
                ev[t] += 1
            mono = SymPoly(ctx.var_names, {tuple(ev): Fraction(1)})
            assert omega.apply(mono).is_zero()
            assert theta.apply(mono).is_zero()


def test_omega_AI_k1():
    m, N = 2, 4
    i1, i2 = -2, 1
    got = paired_blocks((1,), (i1, i2), m, N, True)
    ctx = WeylContext(m, N)
    expected = (
        WeylOperator.x(ctx, 1, i1) * WeylOperator.d(ctx, 1, -i2)
        - WeylOperator.x(ctx, 1, i2) * WeylOperator.d(ctx, 1, -i1)
    )
    assert got == expected
    assert paired_blocks((1,), (i2, i1), m, N, True) == expected  # I is a set
    assert paired_blocks((), (), m, N, True) == WeylOperator.scalar(ctx, 1)
    with pytest.raises(DimensionError):
        paired_blocks((1,), (1, 1), m, N, True)


def test_theta_AI_k1_and_repeats():
    m, N = 2, 2
    ctx = WeylContext(m, N)
    got = paired_blocks((1,), (-1, 1), m, N, False)
    expected = (
        -WeylOperator.x(ctx, 1, -1) * WeylOperator.d(ctx, 1, -1)
        + WeylOperator.x(ctx, 1, 1) * WeylOperator.d(ctx, 1, 1)
    )
    assert got == expected
    # repeated entry: the two positional splits coincide and are both kept
    got = paired_blocks((1,), (1, 1), m, N, False)
    assert got == 2 * WeylOperator.x(ctx, 1, 1) * WeylOperator.d(ctx, 1, -1)
    assert paired_blocks((), (), m, N, False) == WeylOperator.scalar(ctx, 1)


@pytest.mark.parametrize("signed,A,I,message", [
    (True, (1,), (1, 1), "index set I must not repeat entries"),
    (True, (1,), (-2, -1, 1), "I must have even size"),
    (False, (1,), (-1, 1, 1), "I must have even size"),
    (True, (1, 1), (-2, -1, 1, 2), "A must consist of k distinct rows"),
    (True, (1,), (-2, -1, 1, 2), "A must consist of k distinct rows"),
    (False, (1,), (-1, -1, 1, 1), "A must consist of k rows"),
], ids=["omega-repeated-I", "omega-odd-I", "theta-odd-I", "omega-repeated-A",
        "omega-short-A", "theta-short-A"])
def test_paired_blocks_reject_bad_input(signed, A, I, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        paired_blocks(A, I, 2, 4, signed)


def test_singular_vector_small():
    assert singular_vector(Partition(()), 2, 1, "so", 2) == 1
    v = singular_vector(Partition((1,)), 1, 1, "so", 3)
    ctx = WeylContext(1, 3)
    assert v == ctx.poly_x(1, -1)
    assert gamma_gen("so", -1, -1, 1, 3).apply(v) == v


@pytest.mark.parametrize("family,N,lam", [
    ("so", 4, (2, 1)),
    ("so", 3, (3,)),
    ("sp", 4, (2, 2)),
    ("sp", 2, (4,)),
])
def test_singular_vector_degree(family, N, lam):
    n = N // 2
    v = singular_vector(Partition(lam), n, n, family, N)
    assert v.total_degree() == sum(lam)


def test_minor_delta_shape():
    d2 = minor_delta(2, 2, 4)
    assert d2.total_degree() == 2
    ctx = WeylContext(2, 4)
    expected = ctx.poly_x(1, -2) * ctx.poly_x(2, -1) - ctx.poly_x(1, -1) * ctx.poly_x(2, -2)
    assert d2 == expected


def test_dual_action_commutes_with_main_action():
    # the two actions on the same grid commute generator by generator
    for inner, dual, N in (("so", "sp", 2), ("so", "sp", 3), ("sp", "so", 2)):
        m = 1
        mains = [gamma_gen(inner, i, j, m, N)
                 for i in index_set(N) for j in index_set(N)]
        duals = [dual_gamma_gen(dual, A, B, m, N)
                 for A in (-1, 1) for B in (-1, 1)]
        for g in mains:
            for h in duals:
                assert g.bracket(h).is_zero()


def test_gamma_gen_gl():
    ctx = WeylContext(2, 2)
    got = gamma_gen("gl", -1, 1, 2, 2)
    expected = (
        WeylOperator.x(ctx, 1, -1) * WeylOperator.d(ctx, 1, 1)
        + WeylOperator.x(ctx, 2, -1) * WeylOperator.d(ctx, 2, 1)
    )
    assert got == expected
