"""Exact matrix algebra over the enveloping algebra with rational
dependence on spectral variables.

A `TMat` is an N^m x N^m sparse matrix whose entries are polynomials in
the central variables (u, v, w, ...) with coefficients in U(gl_N),
divided by one common scalar polynomial.  Rational identities are decided
by clearing denominators.  A fused product is read at one point u0: the
classical point for the fused column and row, (N-1)/2 for the Sklyanin
determinant.  Its chain runs in the variable eps = u - u0 from the start,
since the spectral arguments carry the origin u0 (`_spectral_args`; the
variable keeps the name "u"), and u -> eps + u0
is a ring homomorphism, so every identity of the chain holds in eps as
it does in u.  The value at u0, where the denominator vanishes, is a
quotient of Taylor coefficients at eps = 0, read at the pole order.

The normalizing factor phi is the first factor of the fused chain:
`fused_F` scales the projector's rows by it, so the chain is phi * F,
read at the pole order D of its whole denominator.  That needs the
numerator only mod eps^(D+1), and reducing mod eps^(D+1) is a ring
homomorphism (the arithmetic of truncated power series, Knuth, TAOCP
vol. 2, 4.7).  So a normalized chain takes D from its factors'
denominators and keeps every product mod eps^(D+1) (`TMat.order`,
`ent_mul`'s `order`); the denominators stay whole.  The cut is tight
also where phi's numerator is eps, since that eps is in the chain.
`cross_equal` compares two truncated matrices as far as both are known.
`sklyanin_det` keeps the full, unnormalized polynomial, since Theorem 6.2
compares the whole generating function.

Scalar polynomials in the spectral variables (denominators, arguments,
normalizing factors) are `SymPoly` values.  An entry maps (exponent
vector, PBW word) to a nonzero scalar; entries and the plain scalar
matrices (exchange and twist operators, symmetrizers) are sparse maps
that add through `core.add_into`.  Every factor is built by `tm_one_plus`
(1 + X/den: the Yang and twisted R-matrices, the twist correction) or by
`_slot_factor` (a generator matrix in one tensor slot: `tm_F`, `tm_E`).
Polynomials in one variable are read out as dense coefficient lists for
the `core.dense_*` functions, with scalar or U(gl_N) coefficients alike;
the generating functions are `core.series_as_fraction` fractions of such
lists, and `core.series_witness` decides every identity between them:
their inversion, Theorem 6.2 and the scalar part of the quantum
determinant.

Every projected product (the fused row and column, the quantum
determinants, the projected twisted chain) starts with an
(anti)symmetrizer A and runs on the representative rows of A only: the
index tuples sorted ascending (strictly, for the antisymmetrizer).
Because P_tau * A = sign(tau) * A for every permutation operator P_tau
(sign 1 for the symmetrizer), the row of A * Y at an index tuple t equals
orbit_sign(t)'s sign times the row at sorted(t), for any Y, so the
representative rows fix the whole product exactly, and every reading
stays on them: the trace is the signed sum of the cells (sorted(t), t)
(`projected_trace`), and the quantum determinants read one row.  Two
products that start with the same projector are equal exactly when their
representative rows are.  There is one construction of the projector,
and it is integral: `symmetrizer` builds m! * A, in full for the scalar
matrix checks (decompositions, eigenvalues, vanishing), and
`projector_rows` reads its representative rows over the scalar
denominator m!.  So a chain that starts with it stays in `int` wherever
its factors are integral (at u0 the eta of `tm_F` cancels against the
origin), and m! joins the chain's denominator, which every reading
divides out (`fusion_capelli`, `_extract_proportional`).

A flag `signed` picks one of the two twin constructions throughout:
signed means the antisymmetrizer (permutation signs, distinct indices,
spectral shifts u - (q-1), the fused column, the signed family C),
unsigned the symmetrizer (no signs, repeated indices, shifts u + (q-1),
the fused row, the unsigned family D).  `symmetrizer`, `orbit_sign`,
`projector_rows`, `projected_trace`, `_spectral_args`,
`classical_point`, `phi_normalizer`, `fused_F`, `fusion_capelli`,
`ladder_roots` and `verify_vanishing` all take it.

A matrix's variables are those of its denominator, and every factor
constructor reads them from its `SymPoly` arguments.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import (
    ConsistencyError,
    DimensionError,
    SymPoly,
    add_into,
    dense_mul,
    dense_prod,
    exact_terms,
    linear_ladder,
    perm_sign,
    scal,
    series_as_fraction,
    series_witness,
    to_dense,
)
from .uea import LieContext, UEAElement, _word_times, uea_ring
from .weyl import eps_ij, index_set


# -- plain scalar sparse matrices (dict[(r, c)] -> exact rational) -------------


def smat_identity(size):
    return {(r, r): 1 for r in range(size)}


def smat_scale(a, c):
    """c * a for any sparse map a (a matrix, a polynomial or an entry)."""
    c = scal(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def smat_mul(a, b):
    brows = {}
    for (t, q), c in b.items():
        brows.setdefault(t, {})[q] = c
    rows = {}
    for (r, t), c in a.items():
        if t in brows:
            add_into(rows.setdefault(r, {}), brows[t], c)
    return {(r, q): c for r, row in rows.items() for q, c in row.items()}


def smat_eq(a, b):
    return not add_into(dict(a), b, -1)


def smat_trace(a):
    return sum(c for (r, q), c in a.items() if r == q)


class TensorSpace:
    """Row/column coding of (C^N)^{(x)m} by base-N digits, leftmost factor
    most significant."""

    _cache = {}

    def __new__(cls, N, m):
        key = (N, m)
        if key in cls._cache:
            return cls._cache[key]
        self = object.__new__(cls)
        self.N = N
        self.m = m
        self.size = N ** m
        self.indices = index_set(N)
        self.tuples = list(itertools.product(self.indices, repeat=m))
        self.code = {t: r for r, t in enumerate(self.tuples)}
        cls._cache[key] = self
        return self


def symmetrizer(space: TensorSpace, signed: bool, width=None, rows=None):
    """width! * A for the (anti)symmetrizer A of the first `width` tensor
    slots (all of them by default) times the identity on the others, as
    an integral sparse matrix over the row codes `rows` (all rows by
    default).  Row t holds, for every permutation sigma of the first
    `width` slots, sign(sigma) (1 when unsigned) at the column t permuted
    by sigma; so the square is width! times the matrix."""
    width = space.m if width is None else width
    perms = [(sigma, perm_sign(sigma) if signed else 1)
             for sigma in itertools.permutations(range(width))]
    out = {}
    for r in range(space.size) if rows is None else rows:
        t = space.tuples[r]
        for sigma, sign in perms:
            key = (r, space.code[tuple(t[p] for p in sigma) + t[width:]])
            out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def orbit_sign(t, signed):
    """(sorted(t), sign) with row t of an (anti)symmetrizer equal to sign
    times its row sorted(t): the sign of the permutation that sorts t
    when `signed` (0 if an index repeats), and 1 when not."""
    rep = tuple(sorted(t))
    if not signed:
        return rep, 1
    if len(set(t)) < len(t):
        return rep, 0
    return rep, perm_sign(t)


def exchange_P(space: TensorSpace, p, q):
    """Exchange operator between tensor slots p < q (1-based)."""
    out = {}
    for t in space.tuples:
        s = list(t)
        s[p - 1], s[q - 1] = s[q - 1], s[p - 1]
        out[(space.code[tuple(s)], space.code[t])] = 1
    return out


def twist_Q(space: TensorSpace, p, q, family):
    """Rank-one twist of the exchange operator by the defining bilinear
    form (symmetric for so, alternating for sp) in slots p < q."""
    out = {}
    for t in space.tuples:
        a = t[p - 1]
        if t[q - 1] != -a:
            continue
        for i in space.indices:
            s = list(t)
            s[p - 1], s[q - 1] = i, -i
            # distinct i give distinct rows, so every cell is written once
            out[(space.code[tuple(s)], space.code[t])] = eps_ij(family, i, a)
    return out


def smat_embed(b, size, left=1, right=1):
    """1_left (x) b (x) 1_right: a matrix b on a factor of dimension
    `size`, between identity factors of dimensions `left` and `right`."""
    out = {}
    span = size * right
    for (r, c), v in b.items():
        for s in range(left):
            for t in range(right):
                out[(s * span + r * right + t, s * span + c * right + t)] = v
    return out


# -- entries: polynomials with enveloping-algebra coefficients -----------------
#
# An entry maps (exponent vector, PBW word) to a nonzero scalar.


def ent_mul(ctx, a, b, *, order=None):
    """The product of two entries; with `order` T, the product mod eps^T:
    a pair of terms whose degrees sum to T or more is dropped before its
    word is straightened."""
    limit = math.inf if order is None else order
    terms = [(e2, sum(e2), w2, c2) for (e2, w2), c2 in b.items()]
    out = {}
    for (e1, w1), c1 in a.items():
        d1 = sum(e1)
        for e2, d2, w2, c2 in terms:
            if d1 + d2 >= limit:
                continue
            ev = tuple(map(operator.add, e1, e2))
            c12 = c1 * c2
            if not w1 or not w2 or w1[-1] <= w2[0]:
                # a sorted concatenation is its own normal form
                k = (ev, w1 + w2)
                s = out.get(k, 0) + c12
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
                continue
            for w, c in _word_times(ctx, w1, w2).items():
                k = (ev, w)
                s = out.get(k, 0) + c12 * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return exact_terms(out)


def ent_scalar_poly_mul(e, p: SymPoly):
    """The entry e times the scalar polynomial p, summed in one map."""
    out = {}
    for pe, pc in p.terms.items():
        for (ev, w), c in e.items():
            k = (tuple(map(operator.add, ev, pe)), w)
            s = out.get(k, 0) + pc * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def ent_mod(e, order):
    """The entry e mod eps^order: its terms of degree below `order`."""
    return {k: c for k, c in e.items() if sum(k[0]) < order}


def order_at_zero(p: SymPoly):
    """The order of vanishing of a nonzero p at the origin, its least
    total degree: in one variable eps, the pole order that p contributes
    as a denominator at eps = 0."""
    return min(sum(ev) for ev in p.terms)


def ent_from_scalar_poly(p: SymPoly):
    return {(ev, ()): c for ev, c in p.terms.items()}


def ent_to_ucoeffs(ctx, e):
    """Entry over a single variable as a dense list of elements."""
    deg = max((ev[0] for (ev, _w) in e), default=-1)
    out = [{} for _ in range(deg + 1)]
    for ((d,), w), c in e.items():
        out[d][w] = c  # each (degree, word) key occurs once
    return [UEAElement(ctx, terms) for terms in out]


# -- the matrix class ----------------------------------------------------------


class TMat:
    """Sparse N^m x N^m matrix of UEA-coefficient polynomials over a
    common scalar denominator polynomial `den` (a `SymPoly`, whose
    variable tuple is the matrix's).

    `order` None means the entries are the full polynomials; an int T
    means they are kept mod eps^T, the terms of total degree T or more
    dropped.  That truncation is a ring homomorphism, so a product of
    truncated matrices is the truncated product; the product's order is
    the smaller of its factors' orders.  The denominator is always kept
    in full."""

    __slots__ = ("ctx", "space", "rows", "den", "order")

    def __init__(self, ctx: LieContext, space: TensorSpace, rows, den: SymPoly, order=None):
        self.ctx = ctx
        self.space = space
        self.rows = rows
        self.den = den
        self.order = order

    @classmethod
    def from_scalar(cls, ctx, space, smat, den: SymPoly):
        zero = (0,) * len(den.vars)
        rows = {}
        for (r, c), v in smat.items():
            rows.setdefault(r, {})[c] = {(zero, ()): v}
        return cls(ctx, space, rows, den)

    def __mul__(self, other):
        if not isinstance(other, TMat):
            raise TypeError("TMat multiplies TMat")
        if (self.ctx, self.space, self.den.vars) != (other.ctx, other.space, other.den.vars):
            raise DimensionError("tensor matrices over different setups")
        order = min((x for x in (self.order, other.order) if x is not None), default=None)
        rows = {}
        for r, row in self.rows.items():
            acc = {}
            for t, e1 in row.items():
                brow = other.rows.get(t)
                if not brow:
                    continue
                for q, e2 in brow.items():
                    prod = ent_mul(self.ctx, e1, e2, order=order)
                    if q in acc:
                        add_into(acc[q], prod)
                    elif prod:
                        acc[q] = prod
            acc = {q: e for q, e in acc.items() if e}
            if acc:
                rows[r] = acc
        return TMat(self.ctx, self.space, rows, self.den * other.den, order)

    def entry(self, r, c):
        return self.rows.get(r, {}).get(c, {})

    def mod(self, order):
        """This matrix with its entries kept mod eps^order from now on."""
        rows = {}
        for r, row in self.rows.items():
            kept = {c: t for c, e in row.items() if (t := ent_mod(e, order))}
            if kept:
                rows[r] = kept
        return TMat(self.ctx, self.space, rows, self.den, order)


def cross_equal(a: TMat, b: TMat):
    """Equality of rational matrices by clearing denominators, cell by
    cell in ascending order; returns None or a witness string.  When the
    denominators are equal the entries are compared as they are:
    multiplying both sides by the same nonzero polynomial is injective.

    A truncated side is compared only as far as it is known.  If a is
    kept mod eps^Ta and b's denominator has order Db at 0, then a.num *
    b.den is known mod eps^(Ta + Db), since changing a.num by a multiple
    of eps^Ta changes the product by a multiple of eps^(Ta + Db); the two
    cleared sides are compared mod the smaller of the two such bounds.
    For chains kept mod eps^(D + 1), D the order of their own
    denominator, that is eps^(Da + Db + 1); a.den * b.den has order
    Da + Db, so agreement mod eps^(Da + Db + 1) is exactly agreement of
    the two Laurent expansions at eps = 0 through eps^0, every polar term
    and the value read there.  With equal denominators the same bound
    is the smaller of the two orders."""
    if (a.space, a.den.vars) != (b.space, b.den.vars):
        return "shape mismatch"
    same = a.den == b.den
    order = min((x.order + (0 if same else order_at_zero(y.den))
                 for x, y in ((a, b), (b, a)) if x.order is not None), default=None)
    cells = {(r, c) for r, row in a.rows.items() for c in row}
    cells |= {(r, c) for r, row in b.rows.items() for c in row}
    for r, c in sorted(cells):
        lhs, rhs = a.entry(r, c), b.entry(r, c)
        if not same:
            lhs, rhs = ent_scalar_poly_mul(lhs, b.den), ent_scalar_poly_mul(rhs, a.den)
        if order is not None:
            lhs, rhs = ent_mod(lhs, order), ent_mod(rhs, order)
        if lhs != rhs:
            return f"entry ({r},{c}) differs after clearing denominators"
    return None


# -- projected products: one row per orbit -----------------------------------


def projector_rows(ctx, space: TensorSpace, signed, width=None):
    """The representative rows of `symmetrizer(space, signed, width)`
    (those whose first `width` indices are sorted, and distinct when
    `signed`) as a `TMat` in the one variable u over the scalar
    denominator width!, which makes it the projector A itself.  The rows
    are integral, so a chain that starts with it stays in `int` wherever
    its factors are integral."""
    width = space.m if width is None else width
    reps = [r for r, t in enumerate(space.tuples)
            if orbit_sign(t[:width], signed) == (t[:width], 1)]
    return TMat.from_scalar(ctx, space, symmetrizer(space, signed, width, reps),
                            SymPoly.scalar(("u",), math.factorial(width)))


def projected_trace(mat, signed):
    """The trace of the product A * Y from its representative rows (the
    rows of a product that starts with `projector_rows(..., signed)`):
    row t of A * Y is the row at sorted(t) times the sign of
    `orbit_sign(t, signed)`, so the trace is the sum over t of that sign
    times the cell (sorted(t), t).  Returns an entry."""
    space = mat.space
    acc = {}
    for c, t in enumerate(space.tuples):
        rep, sign = orbit_sign(t, signed)
        if sign:
            add_into(acc, mat.entry(space.code[rep], c), sign)
    return acc


# -- factor constructors -------------------------------------------------------


def tm_one_plus(ctx, space, smat, den: SymPoly) -> TMat:
    """The factor 1 + smat/den for a scalar matrix `smat`, over the
    denominator `den`: den on the diagonal plus smat."""
    zero = (0,) * len(den.vars)
    rows = {r: {r: ent_from_scalar_poly(den)} for r in range(space.size)}
    for (r, c), v in smat.items():
        if not add_into(rows[r].setdefault(c, {}), {(zero, ()): v}):
            del rows[r][c]
    return TMat(ctx, space, rows, den)


def tm_R(ctx, space, p, q, arg_u, arg_v):
    """Yang R-matrix 1 - P_pq/(arg_u - arg_v)."""
    return tm_one_plus(ctx, space, smat_scale(exchange_P(space, p, q), -1), arg_u - arg_v)


def tm_Rt(ctx, space, p, q, arg_u, arg_v):
    """Twisted counterpart 1 + Q_pq/(arg_u + arg_v)."""
    return tm_one_plus(ctx, space, twist_Q(space, p, q, ctx.family), arg_u + arg_v)


def tm_q_correction(ctx, space, q, denom):
    """Factor 1 + (Q_{1q} + ... + Q_{q-1,q}) / denom."""
    total = {}
    for p in range(1, q):
        add_into(total, twist_Q(space, p, q, ctx.family))
    return tm_one_plus(ctx, space, total, denom)


def _slot_factor(ctx, space, q, cell, shift: SymPoly) -> TMat:
    """The factor -shift + sum_ij e_ij (x) cell(i, j) with e_ij acting in
    tensor slot q: the matrix cell whose slot-q row and column indices
    are (i, j) carries the element cell(i, j), minus `shift` on the
    diagonal."""
    zero = (0,) * len(shift.vars)
    rows = {}
    for r, t in enumerate(space.tuples):
        row = {}
        i = t[q - 1]
        for j in space.indices:
            s = list(t)
            s[q - 1] = j
            entry = {(zero, w): c for w, c in cell(i, j).terms.items()}
            if j == i:
                add_into(entry, ent_from_scalar_poly(shift), -1)
            if entry:
                row[space.code[tuple(s)]] = entry
        if row:
            rows[r] = row
    return TMat(ctx, space, rows, SymPoly.scalar(shift.vars, 1))


def tm_F(ctx, space, q, arg):
    """Factor F_q(arg) = F - arg - eta in tensor slot q: the (i, j) cell
    of sum E_ij (x) F_ji carries F_ji."""
    return _slot_factor(ctx, space, q, lambda i, j: UEAElement.F(ctx, j, i), arg + ctx.eta)


def tm_E(ctx, space, q, arg, eps_family=None):
    """Factor E_q(arg) = -arg + sum E_ij (x) E_ji in slot q over U(gl_N).
    With `eps_family` ("so" or "sp") the form-transposed factor, whose
    (i, j) cell carries eps_ij E_{-i,-j} with the sign table of that
    family."""
    if eps_family is None:
        def cell(i, j):
            return UEAElement.E(ctx, j, i)
    else:
        form = LieContext(eps_family, ctx.N).family  # sp needs an even N

        def cell(i, j):
            return UEAElement.E(ctx, -i, -j) * eps_ij(form, i, j)
    return _slot_factor(ctx, space, q, cell, arg)


# -- fusion ---------------------------------------------------------------------


def classical_point(ctx: LieContext, signed: bool, m: int) -> Fraction:
    """The point u0 = m/2 - eta of the fused column (signed) of height
    m, or -m/2 - eta of the fused row of length m."""
    return Fraction(m if signed else -m, 2) - ctx.eta


def phi_normalizer(ctx: LieContext, signed: bool, m: int):
    """Normalizing rational factor (numerator, denominator) making the
    fused matrix regular at the classical point, in eps = u - u0:
    eps / (eps + m/2) for an orthogonal column (signed), eps / (eps - m/2)
    for a symplectic row, and 1 otherwise."""
    eps = SymPoly.variable(("u",), "u")
    if signed == (ctx.family == "so"):
        return eps, eps + Fraction(m if signed else -m, 2)
    one = SymPoly.scalar(("u",), 1)
    return one, one


def _spectral_args(signed, origin):
    """The argument rule of a chain over the variable eps = u - origin:
    slot q gets eps + origin - (q-1) in an antisymmetrized (signed) chain
    and eps + origin + (q-1) in a symmetrized one."""
    eps = SymPoly.variable(("u",), "u")
    step = -1 if signed else 1
    return lambda q: eps + origin + step * (q - 1)


def _rt_chain(ctx, space, q, arg):
    """The twisted factors Rt_pq(arg(p), arg(q)) for p = 1 .. q-1, in
    product order."""
    return [tm_Rt(ctx, space, p, q, arg(p), arg(q)) for p in range(1, q)]


def _chain(first, factors, normalized=False):
    """The product first * factors[0] * factors[1] * ....  A `normalized`
    chain (one whose first factor carries the normalizing factor phi) is
    read at eps = 0, at the pole order D of its whole denominator, the sum
    of the orders at 0 of every factor's denominator; so it is kept mod
    eps^(D+1), since that reading needs no coefficient above eps^D."""
    mat = first
    if normalized:
        mat = mat.mod(1 + sum(order_at_zero(x.den) for x in (first, *factors)))
    for factor in factors:
        mat = mat * factor
    return mat


def fused_F(ctx: LieContext, m: int, signed: bool, origin, *, phi=None) -> TMat:
    """Ordered fused product over the variable eps = u - origin.

    `signed` builds the fused column, the antisymmetrized product with
    arguments u, u-1, ..., and unsigned the fused row, the symmetrized
    one with u, u+1, ....  The
    chain runs on the representative rows of the projector, C(N, m) for a
    column and C(N+m-1, m) for a row, and returns only those rows; every
    other row is a signed copy of one of them (P_tau * A = sign(tau) * A).
    On a tensor space of at most 32 cells the twisted-R product form is
    also built on the same rows, at the same origin and from the same
    first factor, and the two are asserted equal as rational matrices;
    both start with the projector, so equal representative rows mean
    equal products.

    By default every entry is the full polynomial in eps, as
    `sklyanin_det` needs.  With `phi` = (num, den) from `phi_normalizer`,
    the projector's rows are scaled by num / den, so the chain is the
    normalized matrix phi * F, kept mod eps^(D+1) (`_chain`).  The twisted
    form, kept mod eps^(Db+1), is compared with it mod eps^(Da+Db+1), Da
    and Db the orders at 0 of their denominators (`cross_equal`): that is
    agreement of the Laurent expansions of phi * F through eps^0, every
    polar term and the value read.
    """
    space = TensorSpace(ctx.N, m)
    arg = _spectral_args(signed, origin)
    first = projector_rows(ctx, space, signed)
    if phi is not None:
        rows = {r: {c: ent_scalar_poly_mul(e, phi[0]) for c, e in row.items()}
                for r, row in first.rows.items()}
        first = TMat(ctx, space, rows, first.den * phi[1])
    F = [tm_F(ctx, space, q, arg(q)) for q in range(1, m + 1)]
    factors = [F[0]]
    for q in range(2, m + 1):
        factors += [tm_q_correction(ctx, space, q, arg(1) + arg(q)), F[q - 1]]
    mat = _chain(first, factors, phi is not None)
    if space.size <= 32:
        factors = []
        for q in range(1, m + 1):
            factors += _rt_chain(ctx, space, q, arg) + [F[q - 1]]
        witness = cross_equal(mat, _chain(first, factors, phi is not None))
        if witness is not None:
            raise ConsistencyError(f"fused product forms disagree: {witness}")
    return mat


def fusion_capelli(ctx: LieContext, k: int, signed: bool) -> UEAElement:
    """Value of the normalized partial trace of the fused matrix at the
    classical point u0: the k-th element of the signed family for the
    fused column (signed), of the unsigned family for the fused row.

    The normalized chain phi * F is built in eps = u - u0 and kept mod
    eps^(D+1), D the order at 0 of its denominator (the pole order at
    u0), so its projected trace and its denominator are read as Taylor
    coefficients at eps = 0.  A term of the trace of degree below D means
    a pole that does not cancel, and raises `ConsistencyError`; the value
    is the trace's degree-D terms over the denominator's coefficient of
    eps^D.
    """
    m = 2 * k
    u0 = classical_point(ctx, signed, m)
    mat = fused_F(ctx, m, signed, u0, phi=phi_normalizer(ctx, signed, m))
    order = order_at_zero(mat.den)
    trace = projected_trace(mat, signed)
    if any(d < order for ((d,), _w) in trace):
        raise ConsistencyError(f"the pole of order {order} at u = {u0} does not cancel")
    value = UEAElement(ctx, {w: c for ((d,), w), c in trace.items() if d == order})
    return value * Fraction(1, mat.den.coefficient((order,)))


# -- quantum determinants --------------------------------------------------------


def _extract_proportional(mat: TMat, proj: TMat):
    """Assert mat = A (x) X(u) for the rank-one antisymmetrizer A, given
    by its one representative row `proj` (from `projector_rows`), and
    return X(u) as (entry, denominator): the quotient of mat by proj
    over the first cell of that row, denominators included, that is
    mat's entry over proj's weight there, over mat.den / proj.den.
    Only that row of `mat` is read: every other row of a product that
    starts with A is a signed copy of it (P_tau * A = sign(tau) * A)."""
    [(r, prow)] = proj.rows.items()
    weight = {c: v for c, e in prow.items() for v in e.values()}  # scalar cells
    row = mat.rows.get(r, {})
    ref = min(weight)
    for c in sorted(set(row) | set(weight)):
        if smat_scale(row.get(c, {}), weight[ref]) != smat_scale(row.get(ref, {}),
                                                                 weight.get(c, 0)):
            raise ConsistencyError(
                f"matrix is not proportional to the projector at ({r},{c})")
    return (smat_scale(row.get(ref, {}), Fraction(1, weight[ref])),
            mat.den.exact_div(proj.den))


def quantum_det_gl(N: int, eps_family="so"):
    """The central polynomial H(u) carried by the antisymmetrized product
    of E factors; the reversed twisted form is asserted to carry the same
    polynomial; `eps_family` names the sign table of the transposition.
    Both products run on the one representative row of the
    antisymmetrizer.  Returns a dense coefficient list over U(gl_N).

    No determinant can see the sp sign table: the signs conjugate the
    generator matrix by diag(sgn i), the antisymmetrizer commutes with
    that conjugation, and so the polynomial is the same without them.
    The checks that see it compare the transposed factor itself:
    `gl-exchange[N=...,eps=sp]` (prop-3.9) and
    `test_transposed_E_factor_sign_table`."""
    ctx = LieContext("gl", N)
    space = TensorSpace(N, N)
    arg = _spectral_args(True, 0)
    proj = projector_rows(ctx, space, signed=True)
    mat = twisted = proj
    for q in range(1, N + 1):
        mat = mat * tm_E(ctx, space, q, arg(q))
        twisted = twisted * tm_E(ctx, space, q, arg(N + 1 - q), eps_family)
    # the E factors carry no denominator, so each quotient's is 1
    h = ent_to_ucoeffs(ctx, _extract_proportional(mat, proj)[0])
    h2 = ent_to_ucoeffs(ctx, _extract_proportional(twisted, proj)[0])
    if h != h2:
        raise ConsistencyError("twisted and plain determinant forms disagree")
    return h


def _sklyanin_scalar(ctx: LieContext):
    """The scalar part prod_q ((N+1)/2 - q - eta - eps), q = 1..N, of the
    quantum determinant Cbar(u) at u = eps + (N-1)/2."""
    N = ctx.N
    return dense_prod([Fraction(N + 1, 2) - q - ctx.eta, -1] for q in range(1, N + 1))


def sklyanin_det(ctx: LieContext):
    """The quantum determinant of the fused column of full height N:
    F_{(1^N)}(u) = g(u) * A_N (x) Cbar(u), built at the origin (N-1)/2.
    Returns (coefficient list, scalar denominator list) for
    Cbar(eps + (N-1)/2) as a rational function of eps, the form that
    Theorem 6.2 compares with the generating function.

    The normalizing factor g(u) is (2u+1)/(2u-N+1), that is
    (eps + N/2)/eps, in the symplectic case and 1 in the orthogonal case;
    the derived scalar part of Cbar is asserted to match
    `_sklyanin_scalar` so any discrepancy in g(u) is flagged rather than
    silently renormalized.
    """
    N = ctx.N
    mat = fused_F(ctx, N, True, Fraction(N - 1, 2))
    entry, den = _extract_proportional(mat, projector_rows(ctx, mat.space, signed=True))
    num = ent_to_ucoeffs(ctx, entry)
    den = to_dense(den)
    if ctx.family == "sp":
        num = dense_mul(num, [0, 1])
        den = dense_mul(den, [Fraction(N, 2), 1])
    witness = series_witness(([c.scalar_part() for c in num], den),
                             (_sklyanin_scalar(ctx), [1]), "u")
    if witness is not None:
        raise ConsistencyError("scalar part of the quantum determinant is off: "
                               f"normalizing factor mismatch at {witness}")
    return num, den


# -- generating functions --------------------------------------------------------


def ladder_roots(ctx: LieContext, signed: bool, K: int):
    """Squared denominators, j = 1..K, of the generating function of the
    signed family, (b - j)^2, or of the unsigned family, (b + j - 1)^2,
    where b = n + eps (N/2 for so_N, n + 1 for sp_N)."""
    b = ctx.n + ctx.eps
    return [(b - j) ** 2 if signed else (b + j - 1) ** 2 for j in range(1, K + 1)]


def generating_functions(ctx: LieContext, series_c, series_d):
    """Whether the two generating functions in t = u^2 of the formula
    series `series_c` and `series_d` = (1, D_1, ..., D_K) (from
    `central_series`, read in U(gl_N)) have the product 1 + O(t^{-K-1}),
    that is C(t) = 1/D(t) + O(t^{-K-1}) (D(t) = 1 + O(1/t)), by
    `series_witness`; returns None or its witness."""
    K = len(series_d) - 1
    kc = min(K, ctx.n)
    ring = uea_ring(ctx)
    c_elems = [series_c[k].evaluate(ring) for k in range(0, kc + 1)]
    d_elems = [series_d[k].evaluate(ring) for k in range(0, K + 1)]
    c_num, c_den = series_as_fraction(c_elems, linear_ladder(ladder_roots(ctx, True, kc)))
    d_num, d_den = series_as_fraction(d_elems, linear_ladder(ladder_roots(ctx, False, K)))
    return series_witness((c_num, c_den), (d_den, d_num), "t", K)


# -- the section-6 identity -------------------------------------------------------


def theorem_62_check(ctx: LieContext, series_c):
    """The generating function C(u) of the signed family (the formula
    series `series_c` from `central_series`) times the scalar part
    `_sklyanin_scalar` equals the quantum determinant Cbar(u + (N-1)/2),
    as `sklyanin_det` returns it.  Exact cross-multiplied identity;
    returns None or a witness string."""
    n = ctx.n
    cbar_num, cbar_den = sklyanin_det(ctx)
    # C(u) in the variable u (ladder roots are squares, expand in u)
    ladder = [[-r, 0, 1] for r in ladder_roots(ctx, True, n)]
    ring = uea_ring(ctx)
    cnum, cden = series_as_fraction([series_c[k].evaluate(ring) for k in range(n + 1)], ladder)
    return series_witness((cnum, cden),
                          (cbar_num, dense_mul(_sklyanin_scalar(ctx), cbar_den)), "u")


def slot_action(space: TensorSpace, i, j, slots):
    """The generator E_ij of gl_N acting on the tensor slots `slots`
    (1-based) of `space`: the sum over those slots of the matrix unit
    e_ij in that slot, as a scalar matrix."""
    out = {}
    for r, t in enumerate(space.tuples):
        for slot in slots:
            if t[slot - 1] == j:
                w = list(t)
                w[slot - 1] = i
                add_into(out, {(space.code[tuple(w)], r): 1})
    return out


# -- relation suites ---------------------------------------------------------


def check_exchange_relation(ctx: LieContext):
    """The fundamental exchange relation between two spectral copies of
    the generator matrix, conjugated by the Yang and twisted factors.
    It is built in U = u + eta and V = v + eta (u, v = U - eta, V - eta):
    that substitution is a ring automorphism, so the relation holds in U
    and V as it does in u and v, and every factor is integral there (F's
    shift is U, R's denominator U - V, Rt's U + V - 2 eta = U + V -+ 1)."""
    space = TensorSpace(ctx.N, 2)
    u, v = (x - ctx.eta for x in SymPoly.gens(("u", "v")))
    R = tm_R(ctx, space, 1, 2, u, v)
    Rt = tm_Rt(ctx, space, 1, 2, u, v)
    F1 = tm_F(ctx, space, 1, u)
    F2 = tm_F(ctx, space, 2, v)
    lhs = R * F1 * Rt * F2
    rhs = F2 * Rt * F1 * R
    return cross_equal(lhs, rhs)


def check_rrr_relation(ctx: LieContext):
    """Mixed Yang-Baxter relation among R_12, twisted R_13 and twisted
    R_23 in three spectral variables (scalar matrices)."""
    space = TensorSpace(ctx.N, 3)
    u, v, w = SymPoly.gens(("u", "v", "w"))
    R12 = tm_R(ctx, space, 1, 2, u, v)
    Rt13 = tm_Rt(ctx, space, 1, 3, u, w)
    Rt23 = tm_Rt(ctx, space, 2, 3, v, w)
    lhs = R12 * Rt13 * Rt23
    rhs = Rt23 * Rt13 * R12
    return cross_equal(lhs, rhs)


def check_boundary_regularity(ctx: LieContext):
    """On the lines v = u +- 1 the triple product is regular at v+w = 0:
    the numerator vanishes identically on that line, and the product
    collapses to (1 +- P_12)(1 + (Q_13+Q_23)/(u+w))."""
    space = TensorSpace(ctx.N, 3)
    u, w = SymPoly.gens(("u", "w"))
    for pm in (1, -1):
        v = u + pm
        R12 = tm_R(ctx, space, 1, 2, u, v)
        Rt13 = tm_Rt(ctx, space, 1, 3, u, w)
        Rt23 = tm_Rt(ctx, space, 2, 3, v, w)
        prod = R12 * Rt13 * Rt23
        # numerator must vanish on w = -u -+ 1, word by word
        line = {"u": u, "w": -u - pm}
        for r, row in prod.rows.items():
            for c, e in row.items():
                by_word = {}
                for (ev, word), x in e.items():
                    by_word.setdefault(word, {})[ev] = x
                if any(SymPoly(u.vars, t).evaluate(line) for t in by_word.values()):
                    return f"entry ({r},{c}) does not vanish on the polar line (v=u{pm:+d})"
        # collapsed form
        psum = add_into(smat_identity(space.size), exchange_P(space, 1, 2), pm)
        qsum = add_into(twist_Q(space, 1, 3, ctx.family), twist_Q(space, 2, 3, ctx.family))
        collapsed = (TMat.from_scalar(ctx, space, psum, SymPoly.scalar(u.vars, 1))
                     * tm_one_plus(ctx, space, qsum, u + w))
        witness = cross_equal(prod, collapsed)
        if witness is not None:
            return f"collapsed form mismatch (v=u{pm:+d}): {witness}"
    return None


def check_projected_products(ctx: LieContext, m: int):
    """The chain of twisted factors against the (anti)symmetrizer of the
    first m-1 slots collapses to a single twist correction.  Both sides
    start with that projector, so they are compared on its
    representative rows (orbits of S_{m-1} on the first m-1 slots)."""
    space = TensorSpace(ctx.N, m)
    for signed in (True, False):
        arg = _spectral_args(signed, 0)
        projm = projector_rows(ctx, space, signed, width=m - 1)
        lhs = projm
        for factor in _rt_chain(ctx, space, m, arg):
            lhs = lhs * factor
        rhs = projm * tm_q_correction(ctx, space, m, arg(1) + arg(m))
        witness = cross_equal(lhs, rhs)
        if witness is not None:
            return f"{'anti' if signed else ''}symmetrized collapse failed: {witness}"
    return None


def check_symmetrizer_decompositions(N: int, m: int):
    """The integral (anti)symmetrizers A' = m! * A and B' = m! * B of
    `symmetrizer` are m! times projectors: A'^2 = m! * A', the same for
    B', A' * B' = 0, tr A' = m! * C(N, m) and tr B' = m! * C(N+m-1, m).
    The ordered product of the numeric Yang factors (a - b) - P_pq, with
    a - b = -+(p - q) (the upper sign for A'), is the product of the
    (a - b) times A' (B')."""
    space = TensorSpace(N, m)
    scale = math.factorial(m)
    A = symmetrizer(space, signed=True)
    B = symmetrizer(space, signed=False)
    if any(not smat_eq(smat_mul(X, X), smat_scale(X, scale)) for X in (A, B)):
        return "projectors are not idempotent"
    if m >= 2 and smat_mul(A, B):
        return "antisymmetrizer times symmetrizer is not zero"
    if (smat_trace(A) != scale * math.comb(N, m)
            or smat_trace(B) != scale * math.comb(N + m - 1, m)):
        return "projector traces are off"
    for signed, proj in ((True, A), (False, B)):
        # both loops must ascend: descending the inner loop composes the
        # transposed chain and misses the projector for m >= 3
        prod, weight = smat_identity(space.size), 1
        for p in range(1, m):
            for q in range(p + 1, m + 1):
                d = (q - p) if signed else (p - q)
                factor = add_into(smat_scale(smat_identity(space.size), d),
                                  exchange_P(space, p, q), -1)
                prod, weight = smat_mul(prod, factor), weight * d
        if not smat_eq(prod, smat_scale(proj, weight)):
            return f"{'' if signed else 'un'}signed product decomposition failed"
    return None


def check_gl_exchange_relations(N: int, eps_family: str):
    """The three exchange relations among the plain and form-transposed
    generator matrices of gl_N; `eps_family` ("so" or "sp") names the
    sign table of the twisted R-matrix and of the transposition."""
    ctx = LieContext("gl", N)
    space = TensorSpace(N, 2)
    u, v = SymPoly.gens(("u", "v"))
    R = tm_R(ctx, space, 1, 2, u, v)
    Rt = tm_one_plus(ctx, space, twist_Q(space, 1, 2, eps_family), u + v)
    E1u = tm_E(ctx, space, 1, u)
    E2v = tm_E(ctx, space, 2, v)
    Et1 = tm_E(ctx, space, 1, -u, eps_family)
    Et2 = tm_E(ctx, space, 2, -v, eps_family)
    w = cross_equal(R * E1u * E2v, E2v * E1u * R)
    if w is not None:
        return f"plain exchange: {w}"
    w = cross_equal(R * Et1 * Et2, Et2 * Et1 * R)
    if w is not None:
        return f"transposed exchange: {w}"
    w = cross_equal(Et1 * Rt * E2v, E2v * Rt * Et1)
    if w is not None:
        return f"mixed exchange: {w}"
    return None


def verify_relations(ctx: LieContext, relation=None):
    """Yield the operator-identity battery for one algebra as (check id,
    witness) pairs, the witness None on a pass, each check computed as it
    is yielded.  With `relation`, the id up to its bracket (such as
    "exchange-relation"), only that relation's checks run."""
    alg = f"{ctx.family}{ctx.N}"
    table = [("exchange-relation", alg, check_exchange_relation, (ctx,)),
             ("rrr-relation", alg, check_rrr_relation, (ctx,)),
             ("boundary-regularity", alg, check_boundary_regularity, (ctx,))]
    for m in (2, 3):
        table += [("projected-products", f"{alg},m={m}", check_projected_products, (ctx, m)),
                  ("symmetrizer-decompositions", f"N={ctx.N},m={m}",
                   check_symmetrizer_decompositions, (ctx.N, m))]
    table.append(("gl-exchange", f"N={ctx.N},eps={ctx.family}",
                  check_gl_exchange_relations, (ctx.N, ctx.family)))
    for name, suffix, check, args in table:
        if relation in (None, name):
            yield f"{name}[{suffix}]", check(*args)


# -- vanishing suites ---------------------------------------------------------


def _image_factor(space, m, q, const, family=None):
    """Image of the q-th spectral factor under the representation on the
    slots m+1, m+2, ... of `space` past the first m: const + sum_r
    P_{q,m+r} (plain) or with the twisted operator Q (family set)."""
    total = smat_scale(smat_identity(space.size), const)
    for slot in range(m + 1, space.m + 1):
        if family is None:
            add_into(total, exchange_P(space, q, slot))
        else:
            add_into(total, twist_Q(space, q, slot, family))
    return total


def verify_vanishing(m: int, l: int, N: int, family: str, signed: bool):
    """Exact matrix checks of the annihilation statements for the two
    ordered products of spectral factors under the antisymmetrizer
    (signed) or the symmetrizer, represented on l extra slots; yields
    (check id, witness) pairs, the witness None on a pass, each check
    computed as it is yielded.

    The products are (anti)symmetrizer * prod_q image(q), one plain and
    one twisted: plain factors E_q(-+(q-1)) act by +-(q-1) + sum P,
    twisted factors Et_q(-+(m-q)) by +-(m-q) + sum Q, the upper signs
    when signed.  For l < m every product must vanish outright (all
    isotypic components of the small tensor power are killed).  At l = m
    each product must kill the one-row (signed) or one-column (unsigned)
    component, and the plain antisymmetrized product must also equal the
    distinct-index exchange sum.  Every check is linear in the projector,
    so it is the integral m! * A of `symmetrizer`.
    """
    space = TensorSpace(N, m + l)
    proj = symmetrizer(space, signed, width=m)
    step = 1 if signed else -1
    tag = f"m={m},l={l},N={N},{family}"
    for twisted in (False, True):
        prod = proj
        for q in range(1, m + 1):
            const = step * (m - q if twisted else q - 1)
            prod = smat_mul(prod, _image_factor(space, m, q, const, family if twisted else None))
        if not twisted:
            plain = prod
        name = ("anti" if signed else "") + "sym" + ("-twisted" if twisted else "")
        what = ("twisted " if twisted else "") + ("anti" if signed else "") + "symmetrized product"
        if l < m and (signed or m >= 2):
            yield (f"{name}-vanishes-small[{tag}]",
                   f"the {what} failed to vanish" + ("" if twisted else " on the small power")
                   if prod else None)
        if l >= m >= 2:
            shape = "row" if signed else "column"
            component = smat_embed(symmetrizer(TensorSpace(N, l), not signed), N ** l,
                                   left=N ** m)
            yield (f"{name}-kills-{shape}[{tag}]",
                   f"{what} does not kill the one-{shape} component"
                   if smat_mul(prod, component) else None)
    if signed and l >= m:
        distinct = {}
        for rs in itertools.permutations(range(1, l + 1), m):
            term = proj
            for q, r in enumerate(rs, start=1):
                term = smat_mul(term, exchange_P(space, q, m + r))
            add_into(distinct, term)
        yield (f"antisym-distinct-sum[{tag}]", None if smat_eq(plain, distinct) else
               "antisymmetrized product differs from the distinct-index sum")
    if signed and m == 1:
        # sum_r P_{1,1+r} = sum_ij pi_1(E_ij) * sum_r pi_{1+r}(E_ji), from
        # the generator matrices rather than from `exchange_P`
        base = _image_factor(space, 1, 1, 0, None)
        expect = {}
        for i in space.indices:
            for j in space.indices:
                add_into(expect, smat_mul(slot_action(space, i, j, (1,)),
                                          slot_action(space, j, i, range(2, l + 2))))
        yield (f"antisym-single-factor-base[{tag}]", None if smat_eq(base, expect) else
               "single-factor image is not the exchange sum")
