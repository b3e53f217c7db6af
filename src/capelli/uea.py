"""PBW arithmetic in enveloping algebras and the central elements built
from it.

Each algebra is computed in its own basis: U(gl_N) in the E_ij, U(so_N)
and U(sp_N) in the F_ij = E_ij - eps_ij E_{-j,-i}, one letter for each
canonical spelling.  A context numbers its letters once, in one
triangular order for every family: lowering (i > j), then Cartan
(i = j), then raising (i < j).  It derives a fixed table of their
brackets from the rule of gl_N, checked on every entry and on the
Jacobi identity when the context is built.  One
straightening engine reads that table for every family: a product u w
of two weakly increasing words moves the letters of w into u from the
right, one at a time, and each context memoizes those single-letter
moves that are not already sorted.

A central element is its PBW normal form, built from its factors: each
Pfaffian or Hafnian block is one `FExpr`, a noncommutative polynomial in
the F symbols, straightened alone in `uea_ring`, and the sums of
products of blocks (`family_element`) and the polynomials in them (the
complementary family of `central_series`) multiply those normal forms,
never the raw words.  Any element or formula x is read in the enveloping
algebra, under the natural action on polynomials or under the dual
(oscillator) action by `x.evaluate(ring)` for `uea_ring`, `gamma_ring`
or `dual_ring`.  Both actions are homomorphisms of U(g), so a Weyl ring
reads the normal form, as `gamma` does: a formula is straightened once.
Each context builds each central element once, in a formula memo keyed
by (signed, k).  Each target ring is built once per parameter set and
memoizes every image it has read; a `gamma_ring` also keeps the
highest-weight vectors that `singular_vector` builds on its grid.
`clear_caches` drops the rings and empties every context's memos; the
bracket tables stay.

The Harish-Chandra image of a central element of U(gl_N), U(so_N) or
U(sp_N) is read from its normal form by `hc_image`: in the triangular
letter order it is the sum of the pure-Cartan words, each Cartan letter
read as one coordinate of the highest weight.  The suites use it.  Over
so_N and sp_N, `hc_polynomial` interpolates the same image from the
eigenvalues on highest-weight vectors under the natural action, a route
that does not rely on the letter order; it is the test oracle.

Since F_{-j,-i} = -eps_ij F_ij, the formulas keep one canonical spelling
of each symbol (`canonical_symbol`).  A target ring is valid only if its
generator images satisfy the same relation; each ring checks this when
it is built and raises ConsistencyError otherwise.

A flag `signed` picks one of the twin constructions throughout: signed
means the determinant-type Capelli element and the family C (Pfaffians
over so_N, strictly increasing choices, the factorial e_k), unsigned the
permanent-type element and the family D (Hafnians over sp_N, weakly
increasing choices, the factorial h_k).  `capelli_element`,
`hc_target`, `central_series` and `dual_pair_coeffs` take it.  The
Pfaffian and Hafnian constructions live in one algebra each, so
`block_expr` and `family_element` read the twin from their context: so_N
gives Pfaffians and sp_N Hafnians.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .core import (
    ConsistencyError,
    DimensionError,
    Scalar,
    Sparse,
    SymPoly,
    add_into,
    combine,
    common_denominator,
    exact_terms,
    increasing,
    multiplicity_factorial,
    perm_sign,
    scal,
)
from .symfun import Partition, ShiftSequence, e_factorial, h_factorial, partitions_with
from .weyl import (
    WeylContext,
    WeylOperator,
    dual_gamma_gen,
    eps_ij,
    gamma_gen,
    index_set,
    minor_delta,
    sgn,
)


class LieContext:
    """A classical Lie algebra gl_N, so_N or sp_N with its index set,
    sign table, half-sum vector and shift sequence."""

    _cache = {}

    def __new__(cls, family, N):
        key = (family, N)
        if key in cls._cache:
            return cls._cache[key]
        if family not in ("gl", "so", "sp"):
            raise ValueError(f"unknown family {family!r}")
        if family == "sp" and N % 2:
            raise DimensionError("sp_N needs even N")
        self = object.__new__(cls)
        self.family = family
        self.N = N
        self.n = N // 2
        self.indices = index_set(N)
        self._pos = {i: p for p, i in enumerate(self.indices)}
        if family == "so":
            self.eps = 0 if N % 2 == 0 else Fraction(1, 2)
            self.eta = Fraction(1, 2)
        elif family == "sp":
            self.eps = 1
            self.eta = Fraction(-1, 2)
        else:
            self.eps = None
            self.eta = None
        if family in ("so", "sp"):
            self.rho = tuple(self.eps + self.n - p for p in range(1, self.n + 1))
            self.shift_sequence = ShiftSequence.squares(self.eps)
        else:
            self.rho = None
            self.shift_sequence = None
        # lowering (i > j), then Cartan (i = j), then raising (i < j)
        pairs = ((i, j) for i in self.indices for j in self.indices)
        self.letters = tuple(sorted((p for p in pairs if canonical_symbol(family, *p) == (1, p)),
                                    key=lambda p: (-(p[0] > p[1]), p[0] != p[1], p)))
        self._symbol = "E" if family == "gl" else "F"
        self._ids = {p: g for g, p in enumerate(self.letters)}
        self._table = _bracket_table(self)
        self._nf = {}
        self._formulas = {}
        cls._cache[key] = self
        return self

    def letter(self, i, j):
        """(c, g) with the generator (i, j) equal to c times the letter g:
        E_ij over gl_N; over so_N and sp_N, F_ij spelled by its
        `canonical_symbol` (c = 0 and g None for the vanishing F_{i,-i}
        of so)."""
        for x in (i, j):
            if x not in self._pos:
                raise DimensionError(f"index {x} of {self._symbol}[{i},{j}] is not an index of "
                                     f"{self.family}_{self.N}")
        c, pair = canonical_symbol(self.family, i, j)
        return c, self._ids.get(pair)

    def __repr__(self):
        return f"LieContext({self.family}_{self.N})"


def canonical_symbol(family, i, j):
    """(c, pair) with F_ij = c * F_pair: over gl, (1, (i, j)); over so/sp,
    `pair` is the smaller of (i, j) and (-j, -i), the two spellings
    related by F_{-j,-i} = -eps_ij F_ij, and c is 0 for the vanishing
    F_{i,-i} of so."""
    if family == "gl":
        return 1, (i, j)
    if family == "so" and j == -i:
        return 0, (i, j)
    if (i, j) <= (-j, -i):
        return 1, (i, j)
    return -eps_ij(family, i, j), (-j, -i)


# -- the bracket table --------------------------------------------------------


def _gl_bracket(a, b):
    """[E_a, E_b] in gl_N for index pairs a = (i, j), b = (k, l):
    d_jk E_il - d_li E_kj, as a map from index pairs to coefficients."""
    (i, j), (k, l) = a, b
    out = {}
    if j == k:
        add_into(out, {(i, l): 1})
    if l == i:
        add_into(out, {(k, j): -1})
    return out


def _embedding(ctx: LieContext, g):
    """The letter g of ctx in gl_N, as a map from index pairs to
    coefficients: E_ij itself, or F_ij = E_ij - eps_ij E_{-j,-i}."""
    i, j = ctx.letters[g]
    out = {(i, j): 1}
    if ctx.family != "gl":
        add_into(out, {(-j, -i): 1}, -eps_ij(ctx.family, i, j))
    return out


def _bracket_table(ctx: LieContext):
    """The structure constants {(h, g): [F_h, F_g]} for letters h > g,
    each bracket a map from letters to coefficients, derived from
    `_gl_bracket` through `_embedding`.  Raises ConsistencyError unless
    each entry, mapped back into gl_N, is the gl bracket it was read from,
    and unless the table satisfies the Jacobi identity on every triple of
    letters."""
    emb = [_embedding(ctx, g) for g in range(len(ctx.letters))]
    name = [f"{ctx._symbol}[{i},{j}]" for i, j in ctx.letters]
    table = {}
    for g, h in itertools.combinations(range(len(emb)), 2):
        target = {}
        for a, x in emb[h].items():
            for b, y in emb[g].items():
                add_into(target, _gl_bracket(a, b), x * y)
        entry, rebuilt = {}, {}
        for pair, x in target.items():
            f = ctx._ids.get(pair)
            if f is not None:
                entry[f] = scal(Fraction(x, emb[f][pair]))
                add_into(rebuilt, emb[f], entry[f])
        if rebuilt != target:
            raise ConsistencyError(f"{ctx}: [{name[h]}, {name[g]}] is not a combination "
                                   "of letters")
        table[h, g] = entry

    def bracket(h, x):
        """[F_h, x] for a map x from letters to coefficients."""
        out = {}
        for g, c in x.items():
            if h > g:
                add_into(out, table[h, g], c)
            elif h < g:
                add_into(out, table[g, h], -c)
        return out

    for f, g, h in itertools.combinations(range(len(emb)), 3):
        jacobi = bracket(h, table[g, f])
        add_into(jacobi, bracket(g, table[h, f]), -1)
        add_into(jacobi, bracket(f, table[h, g]))
        if jacobi:
            raise ConsistencyError(f"{ctx}: the bracket table fails the Jacobi identity on "
                                   f"{name[h]}, {name[g]}, {name[f]}")
    return table


# -- straightening engine ----------------------------------------------------
#
# nf(x) is the expansion of x over the PBW basis of weakly increasing words
# of letters.  Every product is built from single-letter moves on the
# right, the rewriting rule of Bergman's diamond lemma (Adv. Math. 29, 1978):
# a letter passes a larger neighbour at the cost of their bracket, read
# from the context's table.


def _times_letter(ctx: LieContext, u, g):
    """nf(u F_g) for a weakly increasing word u, by p h g = (p g) h +
    p [h, g] with [F_h, F_g] read from `ctx._table`: the letter moves left
    past the larger letters of u.  A product that is already sorted is
    returned as it is; every other is memoized on the context by
    (word, letter)."""
    if not u or u[-1] <= g:
        return {u + (g,): 1}
    key = (u, g)
    cached = ctx._nf.get(key)
    if cached is not None:
        return cached
    p, h = u[:-1], u[-1]
    out = {}
    for v, c in _times_letter(ctx, p, g).items():
        add_into(out, _times_letter(ctx, v, h), c)
    for f, c in ctx._table[h, g].items():
        add_into(out, _times_letter(ctx, p, f), c)
    ctx._nf[key] = out
    return out


def _insert(ctx: LieContext, terms, letters):
    """nf of the sum c * v over the (v, c) items of `terms`, a map of
    weakly increasing words, multiplied on the right by each of `letters`
    in turn."""
    for g in letters:
        out = {}
        for v, c in terms.items():
            add_into(out, _times_letter(ctx, v, g), c)
        terms = out
    return terms


def _word_times(ctx: LieContext, u, w):
    """nf(u w) for two weakly increasing words: their concatenation when
    it is sorted, and otherwise the letters of w moved into u from the
    right, one at a time.  The result may be a memoized map, so callers
    read it and never change it."""
    if not u or not w or u[-1] <= w[0]:
        return {u + w: 1}
    return _insert(ctx, _times_letter(ctx, u, w[0]), w[1:])


class UEAElement(Sparse):
    """Element of U(gl_N), U(so_N) or U(sp_N) in PBW normal form: a
    sparse map from weakly increasing words of the context's letters to
    exact scalars."""

    __slots__ = ("ctx", "terms")

    _mismatch = "elements of different enveloping algebras"

    def __init__(self, ctx: LieContext, terms):
        self.ctx = ctx
        self.terms = exact_terms(terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def one(cls, ctx):
        return cls.scalar(ctx, 1)

    @classmethod
    def E(cls, ctx, i, j):
        """E_ij of gl_N."""
        if ctx.family != "gl":
            raise DimensionError(f"E[{i},{j}] is not an element of {ctx.family}_{ctx.N}, "
                                 "whose generators are F")
        return cls.F(ctx, i, j)

    @classmethod
    def F(cls, ctx, i, j):
        """F_ij: E_ij over gl_N; over so_N and sp_N one letter times the
        sign of `canonical_symbol` (zero for so's F_{i,-i})."""
        c, g = ctx.letter(i, j)
        return cls(ctx, {(g,): c})

    # -- arithmetic ------------------------------------------------------

    def _home(self):
        return self.ctx

    def _like(self, terms):
        return UEAElement(self.ctx, terms)

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return self._scaled(other)
        if other.ctx is not self.ctx:
            raise DimensionError(self._mismatch)
        out = {}
        ctx = self.ctx
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_into(out, _word_times(ctx, w1, w2), c1 * c2)
        return UEAElement(self.ctx, out)

    __rmul__ = __mul__

    def evaluate(self, ring):
        """The image in `ring`, a ring of the element's own context: the
        element itself in U(g), and in any other ring Horner over its PBW
        words, each letter sent to its generator image."""
        if ring.ctx is not self.ctx:
            raise DimensionError(self._mismatch)
        if isinstance(ring, UEARing):
            return self
        letters = self.ctx.letters
        return ring.image({tuple(letters[g] for g in w): c for w, c in self.terms.items()})

    def scalar_part(self):
        return self.terms.get(self._unit, 0)

    # -- display -----------------------------------------------------------

    def _render(self, w):
        return "*".join(f"{self.ctx._symbol}[{i},{j}]"
                        for i, j in (self.ctx.letters[g] for g in w)) or "1"


def pbw_normal_form(ctx: LieContext, pairs) -> UEAElement:
    """Normal form of an arbitrary product of the algebra's generators,
    E_ij over gl_N and F_ij over so_N and sp_N, given as a sequence of
    (i, j) pairs in any spelling."""
    letters = [ctx.letter(i, j) for i, j in pairs]
    sign = math.prod(c for c, _ in letters)
    if not sign:
        return UEAElement.zero(ctx)
    return UEAElement(ctx, _insert(ctx, {(): 1}, [g for _, g in letters])) * sign


# -- evaluation rings ---------------------------------------------------------


def check_symbol_symmetry(ring):
    """Raise ConsistencyError unless the generator images of `ring`
    satisfy F_{-j,-i} = -eps_ij F_ij (and F_{i,-i} = 0 for so), the
    relation that lets an FExpr keep one spelling of each symbol; over
    gl every spelling is canonical."""
    ctx = ring.ctx
    for i in ctx.indices:
        for j in ctx.indices:
            c, pair = canonical_symbol(ctx.family, i, j)
            if (c, pair) != (1, (i, j)) and not ring.f_gen(i, j) == ring.f_gen(*pair) * c:
                raise ConsistencyError(
                    f"{type(ring).__name__} of {ctx}: the image of F[{i},{j}] "
                    f"is not {c} times the image of F{list(pair)}")


class _TargetRing:
    """A ring U(g) maps to: the generator images f_gen(i, j), each built
    once, and the images of sums of words, memoized in `_words` by their
    frozen term set until `clear_caches` (`perfbench` reads the memo's
    size under that name).  U(g) reads a formula's own words; a Weyl ring
    reads PBW normal forms, through `UEAElement.evaluate`.  An image is
    shared by every caller that asks for it, so callers never change its
    terms.  Subclasses supply `scalar` and `_gen_image`.  Construction
    checks the symbol symmetry the canonical words rely on."""

    def __init__(self, ctx: LieContext):
        self.ctx = ctx
        self._gens = {}
        self._words = {}
        check_symbol_symmetry(self)

    def f_gen(self, i, j):
        key = (i, j)
        if key not in self._gens:
            self._gens[key] = self._gen_image(i, j)
        return self._gens[key]

    def image(self, terms):
        """The image of sum c * word over the (word, c) items of `terms`.
        The coefficients are scaled by the lcm D of their denominators to
        ints, the scaled sum is evaluated by `_horner`, and the result is
        divided by D once."""
        key = frozenset(terms.items())
        cached = self._words.get(key)
        if cached is None:
            den = common_denominator(terms.values())
            cached = self._horner({w: c.numerator * (den // c.denominator)
                                   for w, c in terms.items()})
            if den != 1:
                cached = cached * Fraction(1, den)
            self._words[key] = cached
        return cached

    def _horner(self, terms):
        """Horner's rule on the last letter: the image of E is its
        constant term plus the sum over letters l of image(E/l) f_gen(l),
        where E/l is the sum of the words of E that end in l, with that l
        removed.  Each product takes a partial sum whose words have
        already cancelled, not a single word."""
        out = dict(self.scalar(terms.get((), 0)).terms)
        quotients = {}
        for w, c in terms.items():
            if w:
                quotients.setdefault(w[-1], {})[w[:-1]] = c
        for letter, quotient in quotients.items():
            add_into(out, (self._horner(quotient) * self.f_gen(*letter)).terms)
        return self.scalar(0)._like(out)


class UEARing(_TargetRing):
    """Target ring U(g) of the context's own algebra: a symbol (i, j) is
    read as E_ij (gl) or F_ij (so/sp)."""

    def scalar(self, c):
        return UEAElement.scalar(self.ctx, c)

    def _gen_image(self, i, j):
        return UEAElement.F(self.ctx, i, j)


class GammaRing(_TargetRing):
    """Target ring PD on the m x N grid under the natural action.  It
    also keeps the highest-weight vectors `singular_vector` builds on its
    grid, in `_vectors`."""

    def __init__(self, ctx: LieContext, m: int):
        self.m = m
        self.wctx = WeylContext(m, ctx.N)
        self._vectors = {}
        super().__init__(ctx)

    def scalar(self, c):
        return WeylOperator.scalar(self.wctx, c)

    def _gen_image(self, i, j):
        return gamma_gen(self.ctx.family, i, j, self.m, self.ctx.N)


class DualRing(_TargetRing):
    """Target ring PD on the m x N grid under the dual (oscillator)
    action of the commutant algebra of rank m, m = dual_ctx.N / 2."""

    def __init__(self, dual_ctx: LieContext, N: int):
        self.m = dual_ctx.N // 2
        self.N = N
        self.wctx = WeylContext(self.m, N)
        super().__init__(dual_ctx)

    def scalar(self, c):
        return WeylOperator.scalar(self.wctx, c)

    def _gen_image(self, a, b):
        return dual_gamma_gen(self.ctx.family, a, b, self.m, self.N)


_RINGS = {}


def _ring(cls, *args):
    """The one `cls(*args)` ring, built on first use and kept in `_RINGS`
    (the contexts in `args` are singletons)."""
    key = (cls, *args)
    if key not in _RINGS:
        _RINGS[key] = cls(*args)
    return _RINGS[key]


def uea_ring(ctx) -> UEARing:
    return _ring(UEARing, ctx)


def gamma_ring(ctx, m) -> GammaRing:
    return _ring(GammaRing, ctx, m)


def dual_ring(dual_ctx, N) -> DualRing:
    return _ring(DualRing, dual_ctx, N)


def clear_caches():
    """Drop every target ring, with its generator and expression images
    and its highest-weight vectors, and empty the straightening and
    formula memos of every Lie context.  The contexts stay: they are
    singletons compared by identity."""
    for ring in _RINGS.values():
        ring._words.clear()
        if isinstance(ring, GammaRing):
            ring._vectors.clear()
    _RINGS.clear()
    for ctx in LieContext._cache.values():
        ctx._nf.clear()
        ctx._formulas.clear()


class FExpr(Sparse):
    """Noncommutative polynomial in the generator symbols (i, j): a map
    from words of pairs to scalars, read in U(g) and, through its normal
    form there, in the Weyl rings.

    The so/sp builders spell every symbol by its `canonical_symbol`
    representative, one of (i, j) and (-j, -i), so each word appears
    once.  That is valid only in a ring whose generator images satisfy
    F_{-j,-i} = -eps_ij F_ij (and F_{i,-i} = 0 for so), which every
    target ring checks when it is built."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = exact_terms(terms or {})

    @classmethod
    def zero(cls, home=None):
        return cls()

    @classmethod
    def one(cls):
        return cls.scalar(None, 1)

    def _home(self):
        return None

    def _like(self, terms):
        return FExpr(terms)

    def __mul__(self, other):
        if not isinstance(other, FExpr):
            return self._scaled(other)
        out = {}
        for w1, c1 in self.terms.items():
            add_into(out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return FExpr(out)

    __rmul__ = __mul__

    def evaluate(self, ring):
        """The image in `ring`: the normal form of the words in
        `uea_ring(ring.ctx)`, read in `ring` by `UEAElement.evaluate`."""
        return uea_ring(ring.ctx).image(self.terms).evaluate(ring)

    def _render(self, word):
        return "*".join(f"F[{i},{j}]" for i, j in word) or "1"

    def __repr__(self):
        return f"FExpr({len(self.terms)} words)"


# -- Capelli elements of U(gl_N) ----------------------------------------------


def capelli_element(k: int, N: int, signed: bool) -> UEAElement:
    """Row-ordered symmetrized sum with +(s-1) diagonal shifts (signed)
    whose image under the natural action is the k-th antisymmetric Cayley
    operator, or its permanental counterpart with -(s-1) shifts and no
    signs.  It is built once per gl_N context and kept in its formula
    memo under ("capelli", signed, k), a key no (signed, k) of the
    central families can equal."""
    ctx = LieContext("gl", N)
    key = ("capelli", signed, k)
    cached = ctx._formulas.get(key)
    if cached is not None:
        return cached

    def factor(s, i, j):
        return UEAElement.E(ctx, i, j) + UEAElement.scalar(ctx, (s if signed else -s) * (i == j))

    pairs = ((perm_sign(sigma) if signed else 1,
              math.prod((factor(s, ivec[s], ivec[sigma[s]]) for s in range(k)),
                        start=UEAElement.one(ctx)))
             for sigma in itertools.permutations(range(k))
             for ivec in itertools.product(ctx.indices, repeat=k))
    ctx._formulas[key] = out = combine(pairs, UEAElement.zero(ctx)) * Fraction(1, math.factorial(k))
    return out


# -- Pfaffians, Hafnians and the central families -----------------------------


def _native_signed(ctx: LieContext) -> bool:
    """The twin an algebra builds from its own symbols: signed (Pfaffians,
    the family C) over so_N, unsigned (Hafnians, the family D) over
    sp_N."""
    if ctx.family not in ("so", "sp"):
        raise DimensionError("Pfaffians, Hafnians and the central families live in so_N or sp_N")
    return ctx.family == "so"


@functools.cache
def _ordered_matchings(k):
    """The (2k)!/2^k sequences of k disjoint pairs (p, q), p < q, that
    cover range(2k), as a tuple built once per k."""
    def grow(free):
        if not free:
            yield ()
            return
        for p, q in itertools.combinations(free, 2):
            rest = tuple(x for x in free if x != p and x != q)
            for tail in grow(rest):
                yield ((p, q),) + tail

    return tuple(grow(tuple(range(2 * k))))


def block_expr(ctx: LieContext, I) -> FExpr:
    """The Pfaffian Phi_I of [F_{i_p, -i_q}] over a set of 2k distinct
    indices (so_N) or the Hafnian Psi_I of [sgn(i_p) F_{i_p, -i_q}] over
    a weakly increasing index sequence of even length (sp_N), as a
    noncommutative polynomial in the symbols of ctx.

    It is the sum over the ordered matchings of the positions of I of
    the sign of the matching (so) or sgn(i_p ...) over its first entries
    (sp), divided by k!, times the word of symbols (I_p, -I_q), spelled
    canonically.  The 2^k orders inside the pairs of a permutation give
    one canonical word with one coefficient, so this is the average over
    all (2k)! permutations."""
    signed = _native_signed(ctx)
    I = tuple(sorted(I))
    if signed and len(set(I)) != len(I):
        raise DimensionError("Pfaffian index set must not repeat entries")
    if len(I) % 2:
        raise DimensionError("a Pfaffian or Hafnian needs an even number of indices")
    k = len(I) // 2
    terms = {}
    for pairs in _ordered_matchings(k):
        c = (perm_sign([p for pair in pairs for p in pair]) if signed
             else math.prod(sgn(I[p]) for p, _ in pairs))
        word = []
        for p, q in pairs:
            s, symbol = canonical_symbol(ctx.family, I[p], -I[q])
            c *= s
            word.append(symbol)
        add_into(terms, {tuple(word): c})
    return FExpr(terms) * Fraction(1, math.factorial(k))


def family_element(ctx: LieContext, k: int) -> UEAElement:
    """The k-th element of the family the algebra builds natively, in PBW
    normal form: over so_N, C_k = (-1)^k sum over 2k-subsets I of
    Phi_I Phi_{I*}, empty past the rank n; over sp_N, D_k = (-1)^k sum
    over weakly increasing 2k-sequences I of sgn(i_1...i_{2k})
    Psi_I Psi_{I*} / (f_1! f_{-1}! ... f_n! f_{-n}!).

    Each block is built and straightened once, `block_expr(ctx, I)` read
    in `uea_ring(ctx)`, whose image memo keeps it (I* runs over the same
    choices as I), and each term multiplies two normal forms: straightening is a homomorphism, so this is the
    normal form of the raw-word product, without expanding it.  The
    element is built once per context and kept in its formula memo under
    (signed, k), so every caller gets the same object."""
    signed = _native_signed(ctx)
    key = (signed, k)
    cached = ctx._formulas.get(key)
    if cached is not None:
        return cached
    ring = uea_ring(ctx)
    blocks = {I: block_expr(ctx, I).evaluate(ring)
              for I in increasing(ctx.indices, 2 * k, signed)}
    pairs = []
    for I, block in blocks.items():
        Istar = tuple(sorted(-i for i in I))
        weight = (-1) ** k if signed else Fraction((-1) ** k * math.prod(sgn(i) for i in I),
                                                   multiplicity_factorial(I))
        pairs.append((weight, block * blocks[Istar]))
    ctx._formulas[key] = out = combine(pairs, UEAElement.zero(ctx))
    return out


def gamma(x: UEAElement, m: int) -> WeylOperator:
    """Natural action on the polynomial ring: x read in `gamma_ring(x.ctx, m)`."""
    return x.evaluate(gamma_ring(x.ctx, m))


# -- eigenvalues and the Harish-Chandra oracle -------------------------------


def is_central(x: UEAElement) -> bool:
    return all(x.bracket(UEAElement.F(x.ctx, *pair)).is_zero() for pair in x.ctx.letters)


def singular_vector(lam, m: int, n: int, family: str, N: int) -> SymPoly:
    """Product of powers of the corner minors realizing a highest-weight
    vector of weight lam on the m x N grid; the defining annihilation and
    weight conditions are asserted under the natural action of family_N
    before returning.  The generator images are those of
    `gamma_ring(LieContext(family, N), m)`, and each vector is built once
    and kept on that ring."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if not (m >= n >= len(lam)):
        raise DimensionError("need m >= n >= len(lam)")
    ring = gamma_ring(LieContext(family, N), m)
    key = (lam, n)
    cached = ring._vectors.get(key)
    if cached is not None:
        return cached
    v = SymPoly.scalar(ring.wctx.var_names, 1)
    for p in range(1, n + 1):
        e = lam[p] - lam[p + 1] if p < n else lam[n]
        if e:
            v = v * minor_delta(p, m, N) ** e
    idx = ring.ctx.indices
    for i in idx:
        for j in idx:
            if i < j and not ring.f_gen(i, j).apply(v).is_zero():
                raise ConsistencyError(f"F[{i},{j}] does not annihilate v_lambda")
    for p in range(1, n + 1):
        if not (ring.f_gen(-p, -p).apply(v) - lam[n - p + 1] * v).is_zero():
            raise ConsistencyError(f"wrong weight on F[{-p},{-p}]")
    ring._vectors[key] = v
    return v


def _require_central(z: UEAElement):
    if not is_central(z):
        raise ConsistencyError("element is not invariant (or the engine is broken)")


def _hwv_eigenvalue(ctx: LieContext, image: WeylOperator, lam) -> Scalar:
    """The eigenvalue of `image`, the natural action gamma(z, n) of a
    central element z of U(ctx) on the grid with n rows, on the
    highest-weight vector of weight lam."""
    v = singular_vector(lam, ctx.n, ctx.n, ctx.family, ctx.N)
    out = image.apply(v)
    ev0, c0 = next(iter(v.terms.items()))
    ratio = scal(Fraction(out.coefficient(ev0), c0))
    if not (out - ratio * v).is_zero():
        raise ConsistencyError("image of the highest-weight vector is not proportional to it")
    return ratio


def eigenvalue_on_hwv(z: UEAElement, lam) -> Scalar:
    """Eigenvalue of a central element on the irreducible with highest
    weight lam, read off from its action on the explicit highest-weight
    vector in the polynomial ring with m = n rows; raises
    ConsistencyError unless z is central."""
    _require_central(z)
    return _hwv_eigenvalue(z.ctx, gamma(z, z.ctx.n), lam)


def _monomial_symmetric(vs, mu):
    """Monomial symmetric polynomial m_mu in the variables vs."""
    mu = tuple(mu.parts) + (0,) * (len(vs) - len(mu))
    exps = set(itertools.permutations(mu))
    return SymPoly(vs, {e: 1 for e in exps})


def _solve_exact(rows, rhs, ncols):
    """Solve an overdetermined exact linear system; raises if inconsistent
    or rank-deficient.  Returns the unique solution vector."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][c]
        aug[r] = [Fraction(x, lead) for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if len(pivots) < ncols:
        raise ConsistencyError("interpolation system is singular (need more samples)")
    for i in range(r, len(aug)):
        if any(x != 0 for x in aug[i]):
            raise ConsistencyError("inconsistent interpolation system")
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


def _variables(name, n):
    """The variable names name1, ..., name<n>."""
    return tuple(f"{name}{p}" for p in range(1, n + 1))


def lam_form(ctx: LieContext, poly: SymPoly) -> SymPoly:
    """A polynomial in l_1^2, ..., l_n^2 (its p-th variable read as
    l_p^2), written in the variables lam1..lamn through
    l_p = lam_p + rho_p."""
    lamvars = _variables("lam", ctx.n)
    squares = [(SymPoly.variable(lamvars, v) + r) ** 2 for v, r in zip(lamvars, ctx.rho)]
    value = poly.evaluate(dict(zip(poly.vars, squares)))
    return value if isinstance(value, SymPoly) else SymPoly.scalar(lamvars, value)


def hc_polynomial(z: UEAElement, degree_bound: int) -> SymPoly:
    """Harish-Chandra image of a central element, interpolated from its
    eigenvalues on a grid of dominant weights.

    The result is the unique symmetric polynomial of degree at most
    `degree_bound` in l_p^2 = (lam_p + rho_p)^2 matching every sampled
    eigenvalue, returned in the lam variables (`lam_form`).

    This is the test oracle for `hc_image`, which the suites read: it
    reads z through its natural action on highest-weight vectors, not
    through the letter order of its normal form.  The l_p^2 are those of
    so_N and sp_N: a gl_N element raises DimensionError.
    """
    ctx = z.ctx
    if ctx.rho is None:
        raise DimensionError("the interpolation in l_p^2 is for so_N and sp_N")
    _require_central(z)
    n = ctx.n
    basis = list(partitions_with(n, max_weight=degree_bound))
    yvars = _variables("y", n)
    basis_polys = [_monomial_symmetric(yvars, mu) for mu in basis]
    grid = list(partitions_with(n, max_part=2 * degree_bound + 1))
    image = gamma(z, n)
    rows, rhs = [], []
    for lam in grid:
        ls = [lam[p] + ctx.rho[p - 1] for p in range(1, n + 1)]
        ys = {f"y{p}": ls[p - 1] ** 2 for p in range(1, n + 1)}
        rows.append([bp.evaluate(ys) for bp in basis_polys])
        rhs.append(_hwv_eigenvalue(ctx, image, lam))
    coeffs = _solve_exact(rows, rhs, len(basis))
    result = combine(zip(coeffs, basis_polys), SymPoly.zero(yvars))
    return lam_form(ctx, result)


def _cartan_letters(ctx: LieContext):
    """The diagonal letters of ctx in letter order, which is the order of
    the weight: E_ii in index order over gl_N, F_{-n,-n}, ..., F_{-1,-1}
    over so_N and sp_N.  The p-th acts on a highest-weight vector of
    weight lam by lam_p (over so/sp the weight `singular_vector`
    asserts)."""
    return tuple(g for g, (i, j) in enumerate(ctx.letters) if i == j)


def hc_image(z: UEAElement) -> SymPoly:
    """Harish-Chandra image of a central element of U(gl_N), U(so_N) or
    U(sp_N), read from its normal form; the route the suites use.

    In the letter order lowering < Cartan < raising, a normal-form word
    with a raising letter ends with one and kills a highest-weight vector
    v_lam, and a word of weight zero with a lowering letter has a raising
    one too, so z acts on v_lam by its pure-Cartan words alone
    (U(g) = U(h) + n^-U(g) + U(g)n^+, Dixmier 7.4).  The image keeps
    those words with the p-th of `_cartan_letters` read as lam_p, a
    polynomial in lam1..lamN over gl_N and lam1..lamn over so/sp, the
    variables of `hc_polynomial`, its test oracle there.  A non-central
    element, whose lower-weight parts this reading would drop, raises
    ConsistencyError."""
    _require_central(z)
    cartan = _cartan_letters(z.ctx)
    return SymPoly(_variables("lam", len(cartan)),
                   {tuple(map(w.count, cartan)): c for w, c in z.terms.items()
                    if all(g in cartan for g in w)})


# -- the two central families -------------------------------------------------


def _power_product(gens, alpha, one):
    """one * g_1^a_1 * g_2^a_2 * ..., multiplied in one factor at a time."""
    return math.prod((g for g, a in zip(gens, alpha) for _ in range(a)), start=one)


def express_in_family(target: SymPoly, gens):
    """Coefficients writing a symmetric polynomial as a polynomial in the
    given algebraically independent symmetric generators, as a map from
    exponent tuples (one exponent per generator) to nonzero scalars."""
    d = max(target.total_degree(), 0)
    gen_degrees = [g.total_degree() for g in gens]
    alphas = []
    for alpha in itertools.product(*(range(d // gd + 1) for gd in gen_degrees)):
        if sum(a * gd for a, gd in zip(alpha, gen_degrees)) <= d:
            alphas.append(alpha)
    vs = target.vars
    products = [_power_product(gens, alpha, SymPoly.scalar(vs, 1)) for alpha in alphas]
    monomials = sorted({ev for p in products for ev in p.terms}
                       | set(target.terms))
    rows = [[p.coefficient(ev) for p in products] for ev in monomials]
    rhs = [target.coefficient(ev) for ev in monomials]
    sol = _solve_exact(rows, rhs, len(alphas))
    return {alpha: c for alpha, c in zip(alphas, sol) if c != 0}


def hc_target(ctx: LieContext, signed: bool, k: int) -> SymPoly:
    """Harish-Chandra image of the k-th element of the signed family C or
    the unsigned family D, in the squared variables l_p^2: (-1)^k e_k or
    h_k, the factorial elementary or complete symmetric polynomial over
    the shift sequence of ctx."""
    if signed:
        return e_factorial(k, ctx.n, ctx.shift_sequence) * Fraction((-1) ** k)
    return h_factorial(k, ctx.n, ctx.shift_sequence)


def central_series(ctx: LieContext, signed: bool, K: int) -> tuple[UEAElement, ...]:
    """The elements (X_0, X_1, ..., X_K) of U(ctx), in PBW normal form, of
    the first K coefficients of the signed family C (zero past the rank)
    or the unsigned family D, with X_0 = 1.  A caller reads X in a ring
    by `X.evaluate(ring)`: in `uea_ring(ctx)` X itself, in
    `gamma_ring(ctx, m)` and `dual_ring(ctx, N)` the image of its words.

    The native constructions are the Pfaffian sums (signed family over
    so_N) and the Hafnian sums (unsigned family over sp_N).  The
    complementary family in each algebra is assembled through the
    Harish-Chandra characterization: its target symmetric polynomial is
    expressed in the images of the native generators 1..min(K, n), and
    the same polynomial is taken in the elements themselves, multiplying
    their normal forms.  X_k needs only the generators up to k, so it
    does not depend on K.

    The native elements come from `family_element`, which memoizes them;
    each complementary X_k joins them in the context's formula memo
    under (signed, k).  The memo serves X_k only while `family_element`
    hands back the memoized generators it was built from, so a
    replaced `family_element` always reaches the complementary family
    too.
    """
    native = _native_signed(ctx)
    top = K if signed == native else min(K, ctx.n)
    elements = [family_element(ctx, k) for k in range(1, top + 1)]
    if signed != native:
        memo = ctx._formulas
        memoized = all(x is memo.get((native, j)) for j, x in enumerate(elements, 1))
        gens, elements = elements, []
        for k in range(1, K + 1):
            x = memo.get((signed, k)) if memoized else None
            if x is None:
                x = _complementary_element(ctx, signed, k, gens)
                if memoized:
                    memo[signed, k] = x
            elements.append(x)
    return (UEAElement.one(ctx), *elements)


def _complementary_element(ctx: LieContext, signed: bool, k: int, gens) -> UEAElement:
    """X_k of the family that ctx does not build natively: the polynomial
    in the native elements `gens` (X_1, X_2, ... of the other family)
    that its Harish-Chandra target is in the targets of theirs."""
    gen_imgs = [hc_target(ctx, not signed, j) for j in range(1, len(gens) + 1)]
    combo = express_in_family(hc_target(ctx, signed, k), gen_imgs)
    return combine(((c, _power_product(gens, alpha, UEAElement.one(ctx)))
                    for alpha, c in combo.items()), UEAElement.zero(ctx))


# -- dual pair transfer coefficients ------------------------------------------


def dual_pair_coeffs(signed: bool, k: int, l: int, m: int, N: int) -> Fraction:
    """Transfer coefficient in front of gamma(C_l) (signed) or gamma(D_l)
    in the expansion of the dual image of the k-th element of the
    commutant algebra."""
    if not 0 <= l <= k:
        raise DimensionError("need 0 <= l <= k")
    out = Fraction(1)
    if signed:
        d = Fraction(m) - Fraction(N, 2) + 1
        for s in range(l, k):
            out *= Fraction(m - s) * (Fraction(N, 2) - s) * (d + l - s) / (k - s)
    else:
        n = N // 2
        d = n - m + 1
        for s in range(l, k):
            out *= Fraction((m + s) * (n + s) * (d - k + s + 1), s - l + 1)
    return out
