from fractions import Fraction
import itertools
import math
import random

import pytest

from capelli import uea
from capelli.core import (
    ConsistencyError,
    DimensionError,
    SymPoly,
    add_into,
    combine,
    common_denominator,
    increasing,
    perm_sign,
)
from capelli.symfun import ShiftSequence, e_factorial, h_factorial
from capelli.uea import (
    DualRing,
    FExpr,
    GammaRing,
    LieContext,
    UEAElement,
    UEARing,
    block_expr,
    canonical_symbol,
    capelli_element,
    central_series,
    dual_pair_coeffs,
    dual_ring,
    eigenvalue_on_hwv,
    express_in_family,
    family_expr,
    gamma,
    gamma_ring,
    hc_image,
    hc_polynomial,
    hc_target,
    is_central,
    lam_form,
    pbw_normal_form,
    singular_vector,
    uea_ring,
)
from capelli import suites, tensor
from capelli.suites import SUITES, run_suite
from capelli.tensor import ent_mul, fusion_capelli
from capelli.weyl import WeylContext, WeylOperator, eps_ij, sgn


GL2 = LieContext("gl", 2)
GL3 = LieContext("gl", 3)
GL4 = LieContext("gl", 4)
SO2 = LieContext("so", 2)
SO3 = LieContext("so", 3)
SO4 = LieContext("so", 4)
SP2 = LieContext("sp", 2)
SP4 = LieContext("sp", 4)


def E(ctx, i, j):
    return UEAElement.E(ctx, i, j)


def F(ctx, i, j):
    return UEAElement.F(ctx, i, j)


# -- straightening -----------------------------------------------------------


def test_bracket_gl():
    # raising against lowering gives the Cartan difference
    got = E(GL2, -1, 1).bracket(E(GL2, 1, -1))
    assert got == E(GL2, -1, -1) - E(GL2, 1, 1)
    assert E(GL2, -1, -1).bracket(E(GL2, 1, 1)).is_zero()


def test_pbw_sorted_word_fixed():
    w = pbw_normal_form(GL2, [(-1, -1), (1, 1)])
    assert w == E(GL2, -1, -1) * E(GL2, 1, 1)
    assert list(w.terms) == [(GL2.letter(-1, -1)[1], GL2.letter(1, 1)[1])]


def test_pbw_one_straightening_step():
    # lowering times raising reorders with a Cartan correction
    got = pbw_normal_form(GL2, [(1, -1), (-1, 1)])
    expected = E(GL2, -1, 1) * E(GL2, 1, -1) + E(GL2, 1, 1) - E(GL2, -1, -1)
    assert got == expected


def test_pbw_associativity_randomized():
    rng = random.Random(31)
    gens = [(i, j) for i in GL2.indices for j in GL2.indices]
    for _ in range(40):
        x, y, z = (E(GL2, *rng.choice(gens)) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_cartan_commutes():
    assert F(SO3, -1, -1).bracket(F(SO3, 0, 0)).is_zero()
    assert F(SP4, -2, -2).bracket(F(SP4, -1, -1)).is_zero()


def test_a_generator_outside_the_index_set_is_a_dimension_error():
    with pytest.raises(DimensionError, match=r"^index 5 of E\[5,1\] is not an index of gl_2$"):
        pbw_normal_form(GL2, [(5, 1)])
    with pytest.raises(DimensionError, match=r"^index 0 of E\[0,1\] is not an index of gl_2$"):
        E(GL2, 0, 1)
    with pytest.raises(DimensionError, match=r"^index 3 of F\[1,3\] is not an index of so_4$"):
        F(SO4, 1, 3)
    with pytest.raises(DimensionError, match=r"^index 3 of F\[3,1\] is not an index of sp_4$"):
        pbw_normal_form(SP4, [(1, 1), (3, 1)])


def test_so_and_sp_have_no_e_generators():
    with pytest.raises(DimensionError, match=r"^E\[1,1\] is not an element of so_4"):
        E(SO4, 1, 1)
    with pytest.raises(DimensionError, match=r"^E\[-1,2\] is not an element of sp_4"):
        E(SP4, -1, 2)


@pytest.mark.parametrize("ctx", [SO3, SP4], ids=repr)
def test_normal_forms_accept_every_spelling_of_a_generator(ctx):
    # F_{-j,-i} = -eps_ij F_ij, so a word may spell each letter either way
    pairs = [(i, j) for i in ctx.indices for j in ctx.indices]
    for a, b in itertools.product(pairs, repeat=2):
        c, pair = canonical_symbol(ctx.family, *a)
        d, other = canonical_symbol(ctx.family, *b)
        got = pbw_normal_form(ctx, [a, b])
        assert got == c * d * pbw_normal_form(ctx, [pair, other]), (a, b)
        assert got == F(ctx, *a) * F(ctx, *b), (a, b)
    assert pbw_normal_form(ctx, [(1, -1)]).is_zero() == (ctx.family == "so")
    assert pbw_normal_form(ctx, [(-1, 1), (1, 1), (1, -1)]).is_zero() == (ctx.family == "so")


# -- letter insertion against the first-descent oracle -------------------------


def first_descent_normal_form(ctx, word, memo):
    """Reference straightening of an arbitrary word of letters: swap its
    first descent h > g, add the bracket [F_h, F_g] of the swapped pair
    from the context's table, and recurse; memoized in `memo`, not on the
    context."""
    if word in memo:
        return memo[word]
    t = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
    if t is None:
        memo[word] = {word: 1}
        return memo[word]
    h, g = word[t], word[t + 1]
    head, tail = word[:t], word[t + 2:]
    out = dict(first_descent_normal_form(ctx, head + (g, h) + tail, memo))
    for f, c in ctx._table[h, g].items():
        add_into(out, first_descent_normal_form(ctx, head + (f,) + tail, memo), c)
    memo[word] = out
    return out


def random_word(rng, ctx, length):
    return tuple(rng.randrange(len(ctx.letters)) for _ in range(length))


def random_sorted_terms(rng, ctx, lengths):
    """A map of 1 to 3 weakly increasing words, with lengths drawn from
    `lengths`, to small nonzero integers or halves."""
    return {tuple(sorted(random_word(rng, ctx, rng.choice(lengths)))):
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            for _ in range(rng.randint(1, 3))}


def oracle_product(ctx, a, b, memo):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            add_into(out, first_descent_normal_form(ctx, w1 + w2, memo), c1 * c2)
    return out


ALGEBRAS = [GL2, GL3, GL4, SO3, SO4, SP4]


@pytest.mark.parametrize("ctx", ALGEBRAS, ids=repr)
def test_unsorted_words_match_the_first_descent_oracle(ctx):
    rng = random.Random(ctx.N)
    memo = {}
    for length in range(7):
        for _ in range(12):
            word = random_word(rng, ctx, length)
            got = pbw_normal_form(ctx, [ctx.letters[g] for g in word])
            expected = UEAElement(ctx, first_descent_normal_form(ctx, word, memo))
            assert got == expected, (word, got.first_difference(expected))


SHORT, LONG = (0, 1, 2), (3, 4, 5, 6)


@pytest.mark.parametrize("ctx", ALGEBRAS, ids=repr)
@pytest.mark.parametrize("left, right", [(SHORT, LONG), (LONG, SHORT), (LONG, LONG)],
                         ids=["short-long", "long-short", "long-long"])
def test_products_match_the_first_descent_oracle(ctx, left, right):
    # every product moves the letters of the right operand into the left
    # one from the right, whichever operand is longer
    rng = random.Random(10 * ctx.N + len(left) + 2 * len(right))
    memo = {}
    for _ in range(15):
        a, b = random_sorted_terms(rng, ctx, left), random_sorted_terms(rng, ctx, right)
        got = UEAElement(ctx, a) * UEAElement(ctx, b)
        expected = UEAElement(ctx, oracle_product(ctx, a, b, memo))
        assert got == expected, (a, b, got.first_difference(expected))


@pytest.mark.parametrize("ctx", ALGEBRAS, ids=repr)
@pytest.mark.parametrize("order", [None, 2])
def test_entry_products_match_the_first_descent_oracle(ctx, order):
    # an entry maps (exponent vector, word) to a scalar; with an order T a
    # pair of terms of total degree T or more is dropped
    rng = random.Random(ctx.N)
    memo = {}
    limit = math.inf if order is None else order

    def entry():
        return {((rng.randint(0, 2), rng.randint(0, 1)), w): c
                for w, c in random_sorted_terms(rng, ctx, range(5)).items()}

    for _ in range(15):
        a, b = entry(), entry()
        expected = {}
        for (e1, w1), c1 in a.items():
            for (e2, w2), c2 in b.items():
                if sum(e1) + sum(e2) < limit:
                    ev = (e1[0] + e2[0], e1[1] + e2[1])
                    nf = first_descent_normal_form(ctx, w1 + w2, memo)
                    add_into(expected, {(ev, w): c for w, c in nf.items()}, c1 * c2)
        assert ent_mul(ctx, a, b, order=order) == expected, (a, b)


def weakly_increasing(word):
    return all(a <= b for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("ctx", [GL3, SO3, SO4, SP4], ids=repr)
def test_public_constructors_build_weakly_increasing_words(ctx):
    # letter insertion assumes every operand word is sorted
    elements = [UEAElement.one(ctx), UEAElement.scalar(ctx, 3), UEAElement.zero(ctx)]
    for i in ctx.indices:
        for j in ctx.indices:
            elements.append(F(ctx, i, j))
            if ctx.family == "gl":
                elements.append(E(ctx, i, j))
    top, bottom = ctx.indices[-1], ctx.indices[0]
    elements.append(pbw_normal_form(ctx, [(top, bottom), (bottom, top)]))
    if ctx.family == "gl":
        elements.append(capelli_element(2, ctx.N, True))
    for x in elements:
        assert all(weakly_increasing(w) for w in x.terms), x


def test_memo_stores_only_nontrivial_insertions():
    # every stored key is (sorted word, letter) with a descent at the
    # join, so a product that is already sorted is never stored, and
    # every stored word is sorted
    uea.clear_caches()
    x = central_series(SO4, True, 2)[2].evaluate(uea_ring(SO4))
    assert is_central(x)
    assert len(SO4._nf) == 149  # pinned
    for key, value in SO4._nf.items():
        u, g = key
        assert type(u) is tuple and type(g) is int, key
        assert u and u[-1] > g and value != {u + (g,): 1}, key
        assert weakly_increasing(u) and all(weakly_increasing(w) for w in value), key
    square = x * x
    uea.clear_caches()
    assert not SO4._nf
    fresh = central_series(SO4, True, 2)[2].evaluate(uea_ring(SO4))
    assert fresh == x and fresh * fresh == square


def _gl_embedding_ring(ctx):
    """U(gl_N) as a target ring of so_N or sp_N: the symbol (i, j) is read
    as E_ij - eps_ij E_{-j,-i}.  One ring per context, kept in
    `_GL_RINGS`; it is not one of the library's rings, so `clear_caches`
    leaves it."""
    if ctx not in _GL_RINGS:
        gl = LieContext("gl", ctx.N)

        class GlEmbedding(uea._TargetRing):
            def scalar(self, c):
                return UEAElement.scalar(gl, c)

            def _gen_image(self, i, j):
                return E(gl, i, j) - eps_ij(ctx.family, i, j) * E(gl, -j, -i)

        _GL_RINGS[ctx] = GlEmbedding(ctx)
    return _GL_RINGS[ctx]


_GL_RINGS = {}


def gl_image(x):
    """The image in U(gl_N) of an element of U(so_N) or U(sp_N), word by
    word through F_ij = E_ij - eps_ij E_{-j,-i}: the test oracle for the
    straightening in the F basis."""
    return _gl_embedding_ring(x.ctx).image({tuple(x.ctx.letters[g] for g in w): c
                                            for w, c in x.terms.items()})


@pytest.mark.parametrize("ctx", [SO2, SO3, SO4, SP2, SP4], ids=repr)
def test_bracket_table_rebuilds_the_gl_brackets(ctx):
    # each entry, read in U(gl_N), is the bracket of the two embedded
    # letters there, and [F_h, F_g] is the table's entry
    letters = [UEAElement(ctx, {(g,): 1}) for g in range(len(ctx.letters))]
    assert [x.terms for x in letters] == [F(ctx, *pair).terms for pair in ctx.letters]
    for h, g in itertools.permutations(range(len(letters)), 2):
        entry = ctx._table[max(h, g), min(h, g)]
        rebuilt = combine(((c if h > g else -c, letters[f]) for f, c in entry.items()),
                          UEAElement.zero(ctx))
        assert letters[h].bracket(letters[g]) == rebuilt
        assert gl_image(rebuilt) == gl_image(letters[h]).bracket(gl_image(letters[g])), (h, g)


def test_so3_brackets_reexpress_over_the_letters():
    # F_{0,1} = -F_{-1,0}, so this bracket is zero; [F_{-1,0}, F_{0,-1}]
    # is the Cartan letter F_{-1,-1}
    assert F(SO3, -1, 0).bracket(F(SO3, 0, 1)).is_zero()
    assert F(SO3, -1, 0).bracket(F(SO3, 0, -1)) == F(SO3, -1, -1)


@pytest.fixture
def fresh_context_key():
    """The key ("so", 5) of the context cache, vacated for the test and
    restored after it."""
    key = ("so", 5)
    saved = LieContext._cache.pop(key, None)
    yield key
    LieContext._cache.pop(key, None)
    if saved is not None:
        LieContext._cache[key] = saved


def test_bracket_table_rejects_a_bracket_outside_the_letters(fresh_context_key, monkeypatch):
    # a gl rule that drops the first term of every bracket with E_12 on
    # the left gives [F_{-2,-1}, F_{-1,-2}] outside the span of the letters
    rule = uea._gl_bracket

    def broken(a, b):
        out = rule(a, b)
        if a == (1, 2):
            out.pop((1, b[1]), None)
        return out

    monkeypatch.setattr(uea, "_gl_bracket", broken)
    with pytest.raises(ConsistencyError, match=r"^LieContext\(so_5\): \[F\[-2,-1\], "
                                               r"F\[-1,-2\]\] is not a combination of letters$"):
        LieContext(*fresh_context_key)
    assert fresh_context_key not in LieContext._cache


def test_bracket_table_rejects_a_table_that_breaks_jacobi(fresh_context_key, monkeypatch):
    # doubling both gl brackets behind [F_{-2,-1}, F_{-1,-1}] keeps that
    # entry inside the span of the letters (it becomes 2 F_{-2,-1}) but
    # breaks the Jacobi identity
    rule = uea._gl_bracket
    doubled = {((-2, -1), (-1, -1)), ((1, 2), (1, 1))}

    def broken(a, b):
        out = rule(a, b)
        return {k: 2 * c for k, c in out.items()} if (a, b) in doubled else out

    monkeypatch.setattr(uea, "_gl_bracket", broken)
    with pytest.raises(ConsistencyError, match=r"^LieContext\(so_5\): the bracket table fails "
                                               r"the Jacobi identity on F\[-2,-1\], "):
        LieContext(*fresh_context_key)
    assert fresh_context_key not in LieContext._cache
    monkeypatch.setattr(uea, "_gl_bracket", rule)
    assert LieContext(*fresh_context_key)._table


def test_clear_caches_keeps_the_bracket_tables():
    x = central_series(SP4, False, 1)[1].evaluate(uea_ring(SP4))
    square = x * x
    table = SP4._table
    assert SP4._nf
    uea.clear_caches()
    assert not SP4._nf and SP4._table is table and table
    fresh = central_series(SP4, False, 1)[1].evaluate(uea_ring(SP4))
    assert fresh == x and fresh * fresh == square


def test_every_product_the_suites_straighten_matches_the_gl_embedding(monkeypatch):
    # every suite at its default domain (the fused columns and rows of
    # thm-3.2/3.3 among them, at N = 2, 3); each product u w of two sorted
    # words that is straightened over so_N or sp_N, mapped into U(gl_N),
    # is the product of the mapped words there
    uea.clear_caches()
    seen = {}

    def recording(ctx, u, w, _word_times=uea._word_times):
        out = _word_times(ctx, u, w)
        if ctx.family != "gl":
            seen.setdefault((ctx, u, w), UEAElement(ctx, out))
        return out

    monkeypatch.setattr(uea, "_word_times", recording)
    monkeypatch.setattr(tensor, "_word_times", recording)
    for name in SUITES:
        assert all(c.status == "pass" for c in run_suite(name, {})), name
    assert {ctx.family for ctx, _, _ in seen} == {"so", "sp"} and len(seen) > 1000
    for (ctx, u, w), out in seen.items():
        product = gl_image(UEAElement(ctx, {u: 1})) * gl_image(UEAElement(ctx, {w: 1}))
        assert gl_image(out) == product, (ctx, u, w)


@pytest.mark.parametrize("ctx, signed, k", [
    (SO2, True, 1), (SO3, True, 1), (SO3, True, 2), (SO3, False, 2), (SP2, False, 2),
    (SP4, False, 1), (SP4, True, 2), (SP4, False, 3)],
    ids=lambda x: repr(x) if isinstance(x, LieContext) else None)
def test_elements_match_their_gl_embedding(ctx, signed, k):
    # the formula read in the F basis and mapped into U(gl_N) is the
    # formula read in U(gl_N) through F_ij = E_ij - eps_ij E_{-j,-i}, and
    # its natural action is that of its image under the gl_N action (on
    # one row only for k = 3, whose two-row images take a second each);
    # the oracle reads the formula's own words in U(gl_N)
    expr = central_series(ctx, signed, k)[k]
    x = expr.evaluate(uea_ring(ctx))
    image = gl_image(x)
    assert image == _gl_embedding_ring(ctx).image(expr.terms)
    words = {tuple(image.ctx.letters[g] for g in w): c for w, c in image.terms.items()}
    for m in (1,) if k == 3 else (1, 2):
        assert gamma(x, m) == gamma_ring(image.ctx, m).image(words)


@pytest.mark.parametrize("ctx", [SO2, SO3, SP2], ids=repr)
@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("k", [1, 2])
def test_fused_elements_match_their_gl_embedding(ctx, signed, k):
    fused = fusion_capelli(ctx, k, signed)
    expected = _gl_embedding_ring(ctx).image(central_series(ctx, signed, k)[k].terms)
    assert gl_image(fused) == expected


def test_f_vanishes_for_so_self_pair():
    assert F(SO4, 1, -1).is_zero()
    assert not F(SP2, 1, -1).is_zero()  # symplectic self-pair survives


# -- Capelli elements --------------------------------------------------------


def test_capelli_k1():
    for ctx in (GL2, GL3):
        expected = UEAElement.zero(ctx)
        for i in ctx.indices:
            expected = expected + E(ctx, i, i)
        assert capelli_element(1, ctx.N, True) == expected
        assert capelli_element(1, ctx.N, False) == expected


def test_capelli_e_2_2_hand_expansion():
    # independent expansion of the k=2 sum over S_2 and index pairs,
    # straightened by hand
    a, b = -1, 1
    expected = E(GL2, a, a) * E(GL2, b, b) - E(GL2, a, b) * E(GL2, b, a) + E(GL2, a, a)
    assert capelli_element(2, 2, True) == expected


def test_capelli_h_2_2_hand_expansion():
    a, b = -1, 1
    expected = (E(GL2, a, a) * E(GL2, a, a) + E(GL2, a, a) * E(GL2, b, b)
                + E(GL2, b, b) * E(GL2, b, b) + E(GL2, a, b) * E(GL2, b, a)
                - 2 * E(GL2, a, a) - E(GL2, b, b))
    assert capelli_element(2, 2, False) == expected


@pytest.mark.parametrize("k,N", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_capelli_central(k, N):
    assert is_central(capelli_element(k, N, True))
    assert is_central(capelli_element(k, N, False))


# -- Pfaffians and Hafnians --------------------------------------------------


def test_pfaffian_k1():
    assert block_expr(SO4, (-2, 1)).evaluate(uea_ring(SO4)) == F(SO4, -2, -1)
    assert block_expr(SO2, (-1, 1)).evaluate(uea_ring(SO2)) == F(SO2, -1, -1)
    with pytest.raises(DimensionError):
        block_expr(SO4, (1, 1))


def test_pfaffian_k2_matching_expansion():
    # oracle: sum over the three perfect matchings, averaged over both
    # orders of the noncommuting pair factors
    I = (-2, -1, 1, 2)
    m = {(p, q): F(SO4, I[p - 1], -I[q - 1]) for p in range(1, 5) for q in range(1, 5)}
    sym = Fraction(1, 2) * (
        m[(1, 2)] * m[(3, 4)] + m[(3, 4)] * m[(1, 2)]
        - m[(1, 3)] * m[(2, 4)] - m[(2, 4)] * m[(1, 3)]
        + m[(1, 4)] * m[(2, 3)] + m[(2, 3)] * m[(1, 4)])
    assert block_expr(SO4, I).evaluate(uea_ring(SO4)) == sym


def test_hafnian_k1():
    assert block_expr(SP2, (1, 1)).evaluate(uea_ring(SP2)) == F(SP2, 1, -1)  # sgn(1) * F
    assert block_expr(SP4, (-1, 2)).evaluate(uea_ring(SP4)) == -F(SP4, -1, -2)
    tilde = lambda i, j: Fraction(sgn(i)) * F(SP4, i, j)
    assert block_expr(SP4, (-1, 2)).evaluate(uea_ring(SP4)) == tilde(-1, -2)
    # symmetric matrix: tilde F_{i,-j} = tilde F_{j,-i}
    assert tilde(-1, -2) == tilde(2, 1)


def test_hafnian_k2_matching_expansion():
    I = (-2, -1, 1, 2)
    t = {(p, q): Fraction(sgn(I[p - 1])) * F(SP4, I[p - 1], -I[q - 1])
         for p in range(1, 5) for q in range(1, 5)}
    sym = Fraction(1, 2) * (
        t[(1, 2)] * t[(3, 4)] + t[(3, 4)] * t[(1, 2)]
        + t[(1, 3)] * t[(2, 4)] + t[(2, 4)] * t[(1, 3)]
        + t[(1, 4)] * t[(2, 3)] + t[(2, 3)] * t[(1, 4)])
    assert block_expr(SP4, I).evaluate(uea_ring(SP4)) == sym


# -- canonical symbols against the expanded words ---------------------------


def _expanded_matching_expr(I, signed):
    """Oracle: the Pfaffian (signed) or Hafnian of [F_{i_p,-i_q}] as the
    average over all (2k)! permutations, with both spellings of every
    symbol kept."""
    I = tuple(sorted(I))
    k = len(I) // 2
    norm = Fraction(1, 2 ** k * math.factorial(k))
    terms = {}
    for sigma in itertools.permutations(range(2 * k)):
        word = tuple((I[sigma[2 * t]], -I[sigma[2 * t + 1]]) for t in range(k))
        weight = (perm_sign(sigma) if signed
                  else math.prod(sgn(I[sigma[2 * t]]) for t in range(k)))
        add_into(terms, {word: norm * weight})
    return FExpr(terms)


def _oracle_rings(ctx):
    """uea, gamma m = 1, 2, and dual when N is even: over the inner N = 2,
    and for sp also over the odd inner N = 3, whose diagonal generator
    images carry the fractional shift N/2."""
    rings = [uea_ring(ctx), gamma_ring(ctx, 1), gamma_ring(ctx, 2)]
    if ctx.N % 2 == 0:
        rings.append(dual_ring(ctx, 2))
    if ctx.family == "sp":
        rings.append(dual_ring(ctx, 3))
    return rings


@pytest.mark.parametrize("ctx", [SO3, SO4, SP2, SP4], ids=repr)
def test_canonical_words_match_expanded_oracle(ctx):
    # the library reads each canonical formula through its normal form in
    # U(g); the oracle reads the expanded words themselves in each ring
    signed = ctx.family == "so"
    exprs = [(block_expr(ctx, I), _expanded_matching_expr(I, signed))
             for k in (1, 2) for I in increasing(ctx.indices, 2 * k, signed)]
    for ring in _oracle_rings(ctx):
        for got, oracle in exprs:
            assert len(got.terms) <= len(oracle.terms)
            assert got.evaluate(ring) == ring.image(oracle.terms), (ring, oracle)


@pytest.mark.parametrize("ctx", [SO3, SO4, SP2, SP4], ids=repr)
def test_central_families_match_expanded_oracle(ctx, monkeypatch):
    # both families, the complementary one through the Harish-Chandra
    # route, rebuilt from the expanded Pfaffian/Hafnian words, whose
    # images the oracle reads word by word in each ring
    got = {signed: central_series(ctx, signed, 2) for signed in (True, False)}
    monkeypatch.setattr(uea, "block_expr",
                        lambda ctx, I: _expanded_matching_expr(I, ctx.family == "so"))
    monkeypatch.setattr(ctx, "_formulas", {})  # the oracle builds its own formulas
    oracle = {signed: central_series(ctx, signed, 2) for signed in (True, False)}
    for ring in _oracle_rings(ctx):
        for signed in (True, False):
            for k in (1, 2):
                expected = ring.image(oracle[signed][k].terms)
                assert got[signed][k].evaluate(ring) == expected, (ring, signed, k)


# -- one common denominator against the per-coefficient Fraction route ------------


def _fraction_image(ring, terms):
    """Oracle: sum c * image(w) over the (w, c) items of `terms`, the image
    of each word the product of its generator images folded letter by
    letter (cached by prefix), each coefficient a Fraction and every
    product and sum reduced at once."""
    images = {(): ring.scalar(1)}

    def word_image(w):
        if w not in images:
            images[w] = word_image(w[:-1]) * ring.f_gen(*w[-1])
        return images[w]

    out = {}
    for w, c in terms.items():
        add_into(out, word_image(w).terms, Fraction(c))
    return out


@pytest.mark.parametrize("ctx", [SO3, SO4, SP4], ids=repr)
def test_evaluation_over_one_denominator_matches_fraction_oracle(ctx):
    # the rings include dual_ring(SP4, 3), where sp_4's 408-word C_2 is
    # summed from fractional word images
    rings = _oracle_rings(ctx)
    fractional = False  # some coefficient has a denominator to clear
    for signed in (True, False):
        series = central_series(ctx, signed, 2)
        for k in (1, 2):
            expr = series[k]
            fractional |= common_denominator(expr.terms.values()) > 1
            for ring in rings:
                assert expr.evaluate(ring).terms == _fraction_image(ring, expr.terms)
            x = expr.evaluate(uea_ring(ctx))
            words = {tuple(ctx.letters[g] for g in w): c for w, c in x.terms.items()}
            for m in (1, 2):
                assert gamma(x, m).terms == _fraction_image(gamma_ring(ctx, m), words)
    assert fractional or ctx.n == 1  # at rank 1, C_1 and D_1, D_2 are integral


@pytest.mark.parametrize("suite, params, algebras", [
    ("thm-4.1", {"N": 2}, [SO2]), ("thm-4.1", {"N": 3}, [SO3]),
    ("thm-4.4", {"N": 2}, [SO2, SP2, SP4]), ("thm-4.4", {"N": 3}, [SO3, SP2, SP4]),
    ("thm-5.3", {"N": 2}, [SP2, SO2, SO4]),
], ids=["thm-4.1-N2", "thm-4.1-N3", "thm-4.4-N2", "thm-4.4-N3", "thm-5.3-N2"])
def test_stored_coefficients_are_ints_or_proper_fractions(suite, params, algebras, monkeypatch):
    # every element built by the suite (the images of the central series,
    # the transferred operators) and by the central series of its inner
    # and dual algebras in U(gl_N) stores an integral coefficient as an
    # int, any other as a Fraction, and never a float
    uea.clear_caches()  # a memoized image would build no element
    built = []
    for cls in (UEAElement, WeylOperator, FExpr, SymPoly):
        def recording(self, *args, _init=cls.__init__):
            _init(self, *args)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", recording)
    checks = run_suite(suite, params)
    assert checks and all(c.status == "pass" for c in checks)
    for ctx in algebras:
        for signed in (True, False):
            series = central_series(ctx, signed, 2)
            for k in (1, 2):
                series[k].evaluate(uea_ring(ctx))
    assert {type(x) for x in built} >= {UEAElement, WeylOperator, FExpr}
    for x in built:
        for c in x.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (x, c)


def test_images_are_memoized_until_cleared():
    expr = central_series(SP2, False, 2)[2]
    ring = dual_ring(SP2, 3)
    first = expr.evaluate(ring)
    assert FExpr(dict(expr.terms)).evaluate(ring) is first
    vector = singular_vector((1,), 1, 1, "so", 3)
    vectors = gamma_ring(SO3, 1)
    assert singular_vector((1,), 1, 1, "so", 3) is vector
    assert vectors._vectors and SP2._formulas
    uea.clear_caches()
    assert not ring._words and not vectors._vectors and not uea._RINGS
    assert not any(ctx._nf or ctx._formulas
                   for ctx in LieContext._cache.values())
    fresh = dual_ring(SP2, 3)
    assert fresh is not ring
    again = expr.evaluate(fresh)
    assert again is not first and again == first


@pytest.mark.parametrize("ctx", [SO3, SO4, SP2, SP4], ids=repr)
def test_central_series_hands_out_the_same_formulas(ctx):
    for signed in (True, False):
        first = central_series(ctx, signed, 2)
        second = central_series(ctx, signed, 2)
        assert all(a is b for a, b in zip(first[1:], second[1:])), (ctx, signed)
        assert central_series(ctx, signed, 1)[1] is first[1]


def test_memoized_formulas_equal_fresh_builds():
    # the suites read the memoized formulas; none of them may change one
    for suite, params in (("thm-3.2", {"N": 2}), ("thm-3.3", {"N": 2}), ("thm-4.4", {"N": 2}),
                          ("thm-5.3", {"N": 2}), ("thm-6.2", {}), ("series-inversion", {})):
        assert all(c.status == "pass" for c in run_suite(suite, params))
    memos = {ctx: dict(ctx._formulas) for ctx in LieContext._cache.values() if ctx._formulas}
    assert {SO2, SO3, SO4, SP2, SP4} <= set(memos)
    uea.clear_caches()
    for ctx, memo in memos.items():
        for (signed, k), x in memo.items():
            fresh = central_series(ctx, signed, k)[k]
            assert fresh is not x and fresh == x, (ctx, signed, k)


def test_hc_polynomial_builds_its_image_and_each_vector_once(monkeypatch):
    uea.clear_caches()
    c1, c2 = (family_expr(SO4, k).evaluate(uea_ring(SO4)) for k in (1, 2))
    calls = {"gamma": 0, "minors": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(uea, "gamma", counted("gamma", uea.gamma))
    monkeypatch.setattr(uea, "minor_delta", counted("minors", uea.minor_delta))
    hc_polynomial(c2, 2)
    vectors = gamma_ring(SO4, 2)._vectors
    built = calls["minors"]
    assert calls["gamma"] == 1 and built and len(vectors) == 21  # the weights with parts <= 5
    hc_polynomial(c1, 1)  # its grid, parts <= 3, lies inside the first one
    assert calls == {"gamma": 2, "minors": built} and len(vectors) == 21


@pytest.mark.parametrize("minor, message", [
    (lambda p, m, N: WeylContext(m, N).poly_x(1, 1), "F\\[-1,0\\] does not annihilate"),
    (lambda p, m, N: WeylContext(m, N).poly_x(1, -1) ** 2, "wrong weight on F\\[-1,-1\\]"),
], ids=["not-annihilated", "wrong-weight"])
def test_a_vector_that_fails_its_checks_is_rejected_and_not_kept(minor, message, monkeypatch):
    monkeypatch.setattr(uea, "_RINGS", {})
    monkeypatch.setattr(uea, "minor_delta", minor)
    with pytest.raises(ConsistencyError, match=message):
        singular_vector((1,), 1, 1, "so", 3)
    assert not gamma_ring(SO3, 1)._vectors


def test_canonical_word_counts():
    assert len(central_series(SO4, True, 2)[2].terms) == 36
    assert len(central_series(SP4, False, 2)[2].terms) == 334
    assert len(central_series(SP4, True, 2)[2].terms) == 408


def test_canonical_symbol():
    assert canonical_symbol("so", 1, -2) == (1, (1, -2))
    assert canonical_symbol("so", 2, -1) == (-1, (1, -2))
    assert canonical_symbol("so", 1, -1) == (0, (1, -1))
    assert canonical_symbol("so", 0, 0) == (0, (0, 0))
    assert canonical_symbol("sp", 2, -1) == (1, (1, -2))
    assert canonical_symbol("sp", 2, 1) == (-1, (-1, -2))
    assert canonical_symbol("sp", 1, -1) == (1, (1, -1))


def _ring_kinds(ctx):
    kinds = [lambda: UEARing(ctx), lambda: GammaRing(ctx, 2)]
    if ctx.N % 2 == 0:
        kinds.append(lambda: DualRing(ctx, 3 if ctx.family == "sp" else 4))
    return kinds


@pytest.mark.parametrize("ctx", [SO3, SO4, SP2, SP4], ids=repr)
def test_rings_pass_symbol_symmetry_check(ctx):
    for make in _ring_kinds(ctx):
        make()


def test_ring_breaking_symbol_symmetry_is_rejected(monkeypatch):
    # an image that ignores F_{-j,-i} = -eps_ij F_ij for one symbol
    original = uea._TargetRing.f_gen

    def broken(self, i, j):
        image = original(self, i, j)
        return image * 2 if (i, j) == (1, 1) else image

    monkeypatch.setattr(uea._TargetRing, "f_gen", broken)
    for ctx in (SO4, SP4):
        for make in _ring_kinds(ctx):
            with pytest.raises(ConsistencyError):
                make()


# -- central families --------------------------------------------------------


def test_c1_so2_frozen():
    f = F(SO2, -1, -1)
    assert family_expr(SO2, 1).evaluate(uea_ring(SO2)) == -(f * f)
    assert family_expr(SO2, 2).evaluate(uea_ring(SO2)).is_zero()  # k > n


def test_c1_so3_eigenvalues():
    C1 = family_expr(SO3, 1).evaluate(uea_ring(SO3))
    for lam in range(5):
        assert eigenvalue_on_hwv(C1, (lam,)) == -lam * (lam + 1)


def test_eigenvalue_rejects_a_weight_that_is_not_integral():
    # truncated to (2,), the weight would give the eigenvalue -6 of (2,)
    C1 = family_expr(SO3, 1).evaluate(uea_ring(SO3))
    with pytest.raises(TypeError):
        eigenvalue_on_hwv(C1, (2.9,))


def test_pfaffian_and_hafnian_builders_need_so_or_sp():
    with pytest.raises(DimensionError, match="live in so_N or sp_N"):
        block_expr(GL2, (-1, 1))
    with pytest.raises(DimensionError, match="live in so_N or sp_N"):
        family_expr(GL2, 1)
    with pytest.raises(DimensionError, match="live in so_N or sp_N"):
        central_series(GL2, True, 1)


def test_d1_sp2_eigenvalue():
    D1 = family_expr(SP2, 1).evaluate(uea_ring(SP2))
    assert eigenvalue_on_hwv(D1, (1,)) == 3  # (1+1)^2 - 1


def test_eigenvalue_of_identity():
    one = UEAElement.one(SO3)
    assert eigenvalue_on_hwv(one, (2,)) == 1


def test_eigenvalue_rejects_noncentral():
    with pytest.raises(ConsistencyError):
        eigenvalue_on_hwv(F(SO3, -1, -1), (1,))


@pytest.mark.parametrize("ctx,k", [(SO3, 1), (SO4, 1), (SO4, 2)])
def test_hc_of_c_family(ctx, k):
    hc = hc_polynomial(family_expr(ctx, k).evaluate(uea_ring(ctx)), k, in_l_squared=True)
    target = e_factorial(k, ctx.n, ctx.shift_sequence) * Fraction((-1) ** k)
    assert hc == SymPoly(hc.vars, target.terms)


@pytest.mark.parametrize("ctx,k", [(SP2, 1), (SP4, 1), (SP4, 2)])
def test_hc_of_d_family(ctx, k):
    hc = hc_polynomial(family_expr(ctx, k).evaluate(uea_ring(ctx)), k, in_l_squared=True)
    target = h_factorial(k, ctx.n, ctx.shift_sequence)
    assert hc == SymPoly(hc.vars, target.terms)


def test_hc_of_identity():
    hc = hc_polynomial(UEAElement.one(SO3), 1)
    assert hc == SymPoly.scalar(hc.vars, 1)


def test_hc_in_lambda_variables():
    # so_3: hc(C_1) = -(lam+1/2)^2 + 1/4 = -lam^2 - lam
    hc = hc_polynomial(family_expr(SO3, 1).evaluate(uea_ring(SO3)), 1)
    lam = SymPoly.variable(("lam1",), "lam1")
    assert hc == -(lam * lam) - lam


def test_complementary_family_so():
    series = central_series(SO3, False, 3)
    for k in (1, 2, 3):
        dk = series[k].evaluate(uea_ring(SO3))
        assert is_central(dk)
        hc = hc_polynomial(dk, k, in_l_squared=True)
        target = h_factorial(k, 1, SO3.shift_sequence)
        assert hc == SymPoly(hc.vars, target.terms)


def test_complementary_family_needs_only_the_generators_up_to_K():
    # K = 1 below the rank n = 2 builds the complementary family from the
    # first native generator alone and must agree with the K = 2 build
    for ctx, signed in ((SP4, True), (LieContext("so", 5), False)):
        ring = uea_ring(ctx)
        first, second = (central_series(ctx, signed, K)[1].evaluate(ring) for K in (1, 2))
        assert first == second


def test_complementary_family_sp():
    c1, c2, c3 = (x.evaluate(uea_ring(SP2)) for x in central_series(SP2, True, 3)[1:])
    assert c1 == -family_expr(SP2, 1).evaluate(uea_ring(SP2))
    assert c2.is_zero() and c3.is_zero()
    series4 = central_series(SP4, True, 2)
    for k in (1, 2):
        ck = series4[k].evaluate(uea_ring(SP4))
        assert is_central(ck)
        hc = hc_polynomial(ck, k, in_l_squared=True)
        target = e_factorial(k, 2, SP4.shift_sequence) * Fraction((-1) ** k)
        assert hc == SymPoly(hc.vars, target.terms)


def _hc_cases():
    """(ctx, signed, k) of every element that thm-4.1 and thm-5.1 read at
    their default domains, then the complementary families so_3 D_1..D_3
    and sp_4 C_1, C_2."""
    for suite, family in (("thm-4.1", "so"), ("thm-5.1", "sp")):
        domains = SUITES[suite].domains
        for N in domains["N"]:
            for k in domains["k"]:
                yield LieContext(family, N), family == "so", k
    yield from ((SO3, False, k) for k in (1, 2, 3))
    yield from ((SP4, True, k) for k in (1, 2))


def _hc_params(cases):
    return [pytest.param(ctx, signed, k, id=f"{ctx.family}{ctx.N}-{'C' if signed else 'D'}{k}")
            for ctx, signed, k in cases]


@pytest.mark.parametrize("ctx, signed, k", _hc_params(_hc_cases()))
def test_hc_image_equals_the_grid_oracle(ctx, signed, k):
    # the projection of the normal form against the interpolation over
    # highest-weight vectors
    z = central_series(ctx, signed, k)[k].evaluate(uea_ring(ctx))
    got, oracle = hc_image(z), hc_polynomial(z, k)
    assert got == oracle and repr(got) == repr(oracle), (got, oracle)


def test_hc_image_of_identity_and_of_so3_c1():
    assert hc_image(UEAElement.one(SO3)) == SymPoly.scalar(("lam1",), 1)
    lam = SymPoly.variable(("lam1",), "lam1")
    assert hc_image(family_expr(SO3, 1).evaluate(uea_ring(SO3))) == -(lam * lam) - lam


@pytest.mark.parametrize("ctx, signed, k", _hc_params(
    (LieContext(family, N), signed, k)
    for family, N, top in (("so", 5, 2), ("so", 6, 2), ("sp", 6, 2), ("so", 7, 1))
    for signed in (True, False) for k in range(1, top + 1)))
def test_hc_image_past_the_suite_domains(ctx, signed, k):
    # ranks where the grid route is too slow to run
    got = hc_image(central_series(ctx, signed, k)[k].evaluate(uea_ring(ctx)))
    assert got == lam_form(ctx, hc_target(ctx, signed, k))


def test_hc_image_rejects_a_noncentral_element():
    with pytest.raises(ConsistencyError, match="not invariant"):
        hc_image(F(SO3, -1, -1))


def test_an_image_not_in_the_squares_of_l_fails_the_suite_check(monkeypatch):
    # past the centrality guard, F_{-1,-1} reads as lam1 = l1 - 1/2, which
    # no target in l1^2 matches
    monkeypatch.setattr(uea, "is_central", lambda x: True)
    assert hc_image(F(SO3, -1, -1)) == SymPoly.variable(("lam1",), "lam1")
    assert suites._hc_witness(F(SO3, -1, -1), hc_target(SO3, True, 1)) == \
        "harish-chandra image is lam1"


def test_hc_image_needs_the_triangular_order_of_so_or_sp():
    with pytest.raises(DimensionError, match="triangular"):
        hc_image(capelli_element(1, 2, True))


def test_formula_suites_read_no_highest_weight_vector(monkeypatch):
    calls = {"gamma": 0, "singular_vector": 0, "hc_polynomial": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        wrapped = counted(name, getattr(uea, name))
        monkeypatch.setattr(uea, name, wrapped)
        monkeypatch.setattr(suites, name, wrapped, raising=False)
    for suite in ("thm-4.1", "thm-5.1"):
        checks = run_suite(suite, {})
        assert any("-hc-image[" in c.id for c in checks)
        assert all(c.status == "pass" for c in checks)
    assert calls == {"gamma": 0, "singular_vector": 0, "hc_polynomial": 0}


def test_express_in_family():
    a = ShiftSequence.squares(1)
    e1 = e_factorial(1, 2, a)
    e2 = e_factorial(2, 2, a)
    combo = express_in_family(h_factorial(2, 2, a), [e1, e2])
    rebuilt = SymPoly.zero(e1.vars)
    for (a1, a2), c in combo.items():
        rebuilt = rebuilt + c * (e1 ** a1) * (e2 ** a2)
    assert rebuilt == h_factorial(2, 2, a)


def test_express_in_family_reads_each_generator_degree():
    # the degrees come from the generators, so their order is free, and a
    # target outside their span has no combination
    a = ShiftSequence.squares(1)
    e1, e2 = e_factorial(1, 2, a), e_factorial(2, 2, a)
    combo = express_in_family(h_factorial(2, 2, a), [e1, e2])
    swapped = express_in_family(h_factorial(2, 2, a), [e2, e1])
    assert swapped == {(a2, a1): c for (a1, a2), c in combo.items()}
    with pytest.raises(ConsistencyError):
        express_in_family(h_factorial(3, 2, a), [e1])


# -- representations ---------------------------------------------------------


def test_gamma_is_homomorphism():
    rng = random.Random(41)
    gens = [(i, j) for i in GL2.indices for j in GL2.indices]
    for _ in range(10):
        x = E(GL2, *rng.choice(gens)) * E(GL2, *rng.choice(gens))
        y = E(GL2, *rng.choice(gens))
        assert gamma(x * y, 2) == gamma(x, 2) * gamma(y, 2)


def test_gamma_of_so_element_restricts_gl_action():
    from capelli.weyl import gamma_gen

    got = gamma(F(SO4, -2, 1), 2)
    expected = gamma_gen("so", -2, 1, 2, 4)
    assert got == expected


def check_bracket_compatibility(ring):
    """The letter images of `ring` satisfy the bracket table of its
    context: [g(F_h), g(F_g)] = g([F_h, F_g]) for all letters h > g, so
    reading a PBW normal form in `ring` is a homomorphism."""
    ctx = ring.ctx
    images = [ring.f_gen(*pair) for pair in ctx.letters]
    for (h, g), entry in ctx._table.items():
        rhs = combine(((c, images[f]) for f, c in entry.items()), ring.scalar(0))
        if not images[h].bracket(images[g]) == rhs:
            raise ConsistencyError(f"{type(ring).__name__} of {ctx}: bracket mismatch on "
                                   f"{ctx.letters[h]}, {ctx.letters[g]}")
    return True


@pytest.mark.parametrize("ctx", [GL2, GL3, SO2, SO3, SO4, SP2, SP4], ids=repr)
@pytest.mark.parametrize("m", [1, 2])
def test_gamma_bracket_compatibility(ctx, m):
    assert check_bracket_compatibility(gamma_ring(ctx, m))


def test_dual_bracket_compatibility():
    # the dual rings the suites build at their default domains: sp_2m
    # against so_N and so_2m against sp_N, m = 1, 2
    for dual_ctx, Ns in ((SP2, (2, 3, 4)), (SP4, (2, 3, 4)), (SO2, (2, 4)), (SO4, (2, 4))):
        for N in Ns:
            assert check_bracket_compatibility(dual_ring(dual_ctx, N))


def test_bracket_compatibility_rejects_a_scaled_letter():
    ring = GammaRing(SO3, 1)  # a ring of its own, not the cached one
    ring._gens[SO3.letters[0]] = ring.f_gen(*SO3.letters[0]) * 2
    with pytest.raises(ConsistencyError, match="bracket mismatch"):
        check_bracket_compatibility(ring)


@pytest.mark.parametrize("ctx", [SO4, SP4], ids=repr)
def test_integral_eps_and_rho_are_ints(ctx):
    assert type(ctx.eps) is int
    assert all(type(r) is int for r in ctx.rho)
    assert ctx.rho == ((1, 0) if ctx.family == "so" else (2, 1))


def test_central_series_has_no_index_past_its_order():
    series = central_series(SO4, True, 2)
    assert len(series) == 3 and series[0] == FExpr.one()
    assert series[2].evaluate(uea_ring(SO4)) == family_expr(SO4, 2).evaluate(uea_ring(SO4))
    with pytest.raises(IndexError):
        series[3]


def test_central_element_gamma_routes_agree():
    # the formula read in the ring, its normal form read by `gamma`, and
    # the oracle: the formula's own words read in the ring
    elt = central_series(SO3, True, 1)[1]
    ring = gamma_ring(SO3, 2)
    assert elt.evaluate(ring) == gamma(elt.evaluate(uea_ring(SO3)), 2) == ring.image(elt.terms)


# -- transfer coefficients ---------------------------------------------------


def test_dual_pair_coeffs_edges():
    assert dual_pair_coeffs(True, 2, 2, 2, 3) == 1
    assert dual_pair_coeffs(False, 2, 2, 2, 4) == 1
    for m, N in ((1, 2), (2, 3), (2, 4)):
        d = Fraction(m) - Fraction(N, 2) + 1
        assert dual_pair_coeffs(True, 1, 0, m, N) == m * Fraction(N, 2) * d


def test_dual_pair_coeffs_g_vanishing():
    # g_{kl} = 0 whenever k > d + l with d = n - m + 1
    m, N = 2, 4
    d = N // 2 - m + 1
    for k in range(1, 5):
        for l in range(0, k + 1):
            if k > d + l:
                assert dual_pair_coeffs(False, k, l, m, N) == 0


def test_first_difference_witness():
    x = E(GL2, -1, -1)
    y = E(GL2, -1, -1) + 2 * E(GL2, 1, 1)
    w = x.first_difference(y)
    assert w is not None and "E[1,1]" in w
    assert x.first_difference(x) is None


def test_elements_of_different_algebras_do_not_mix():
    message = "^elements of different enveloping algebras$"
    with pytest.raises(DimensionError, match=message):
        E(GL2, 1, 1) + E(GL3, 1, 1)
    with pytest.raises(DimensionError, match=message):
        E(GL2, 1, 1).first_difference(E(GL3, 1, 1))


def test_fexpr_linear_structure_and_witness():
    f11, g = FExpr({((1, 1),): 1}), FExpr({((-1, -1),): 1})
    a = f11 * g + 2
    assert (a - a).is_zero()
    assert a == a * 1 and a != a * 2
    assert a.first_difference(a + f11) == "F[1,1]: 0 != 1"


@pytest.mark.parametrize("zero,one", [
    (SymPoly.zero(("x",)), SymPoly.scalar(("x",), 1)),
    (UEAElement.zero(GL2), UEAElement.one(GL2)),
    (WeylOperator.zero(WeylContext(1, 2)), WeylOperator.scalar(WeylContext(1, 2), 1)),
    (FExpr.zero(), FExpr.one()),
], ids=["SymPoly", "UEAElement", "WeylOperator", "FExpr"])
def test_zero_element_is_falsy(zero, one):
    assert not zero and not (one - one)
    assert one and (one + one)
