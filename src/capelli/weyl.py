"""Differential operators with polynomial coefficients on C^m (x) C^N.

Operators are kept in normal order (every multiplication operator to the
left of every differentiation) as a sparse map from exponent-vector pairs
to exact scalars.  The module also houses the invariant Cayley operators,
their determinant/permanent building blocks, the corner minors that
highest-weight vectors are built from, and the images of the Lie algebra
generators under the natural and the dual (oscillator) actions.

The Cayley operators and the paired blocks come in two forms, built by
one function that takes `signed`: signed uses det over strictly
increasing (distinct) choices, unsigned uses per over weakly increasing
ones.  `cayley` gives Omega_k or Theta_k, and `paired_blocks` gives
omega_AI or theta_AI.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import (
    ConsistencyError,
    DimensionError,
    Sparse,
    SymPoly,
    add_into,
    combine,
    det,
    exact_terms,
    increasing,
    multiplicity_factorial,
    per,
    perm_sign,
)


def index_set(N):
    """-n..-1, 1..n for N=2n, with 0 inserted for N=2n+1."""
    n = N // 2
    mid = (0,) if N % 2 else ()
    return tuple(range(-n, 0)) + mid + tuple(range(1, n + 1))


def sgn(i):
    if i == 0:
        raise ValueError("sign of index 0")
    return 1 if i > 0 else -1


def eps_ij(family, i, j):
    """The sign eps_ij of the defining bilinear form: sgn(i) sgn(j) for
    sp (alternating), 1 for so (symmetric) and gl."""
    return sgn(i) * sgn(j) if family == "sp" else 1


class WeylContext:
    """Variable grid x_{ai}, a = 1..m, i in the index set of size N."""

    _cache = {}

    def __new__(cls, m, N):
        key = (m, N)
        if key in cls._cache:
            return cls._cache[key]
        self = object.__new__(cls)
        self.m = m
        self.N = N
        self.indices = index_set(N)
        self._pos = {i: p for p, i in enumerate(self.indices)}
        self.nvars = m * N
        self.var_names = tuple(
            f"x{a}_{i}" for a in range(1, m + 1) for i in self.indices
        )
        self.zero_ev = (0,) * self.nvars
        cls._cache[key] = self
        return self

    def slot(self, a, i):
        if not 1 <= a <= self.m or i not in self._pos:
            raise DimensionError(f"variable x[{a},{i}] outside the {self.m}x{self.N} grid")
        return (a - 1) * self.N + self._pos[i]

    def unit_ev(self, a, i):
        ev = [0] * self.nvars
        ev[self.slot(a, i)] = 1
        return tuple(ev)

    def poly_x(self, a, i):
        return SymPoly.variable(self.var_names, f"x{a}_{i}")

    def __repr__(self):
        return f"WeylContext(m={self.m}, N={self.N})"


def _falling(g, k):
    out = 1
    for t in range(k):
        out *= g - t
    return out


class WeylOperator(Sparse):
    """Normal-ordered differential operator Sum c * x^alpha d^beta."""

    __slots__ = ("ctx", "terms")

    _mismatch = "operators over different contexts"
    _shown = 8

    def __init__(self, ctx: WeylContext, terms):
        self.ctx = ctx
        self.terms = exact_terms(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, ctx, a, i):
        return cls(ctx, {(ctx.unit_ev(a, i), ctx.zero_ev): 1})

    @classmethod
    def d(cls, ctx, a, i):
        return cls(ctx, {(ctx.zero_ev, ctx.unit_ev(a, i)): 1})

    # -- ring structure ----------------------------------------------------

    def _home(self):
        return self.ctx

    def _like(self, terms):
        return WeylOperator(self.ctx, terms)

    @property
    def _unit(self):
        return (self.ctx.zero_ev, self.ctx.zero_ev)

    # The layer tracer patches `__add__`/`__radd__` in this class's own
    # dict, so the inherited addition is bound here by name.
    __add__ = __radd__ = Sparse.__add__

    def __mul__(self, other):
        if not isinstance(other, WeylOperator):
            return self._scaled(other)
        if other.ctx is not self.ctx:
            raise DimensionError(self._mismatch)
        out = {}
        nv = self.ctx.nvars
        right = [(a2, b2, c2, [t for t in range(nv) if a2[t]])
                 for (a2, b2), c2 in other.terms.items()]
        for (a1, b1), c1 in self.terms.items():
            for a2, b2, c2, slots in right:
                aa = tuple(map(operator.add, a1, a2))
                bb = tuple(map(operator.add, b1, b2))
                # commute d^b1 past x^a2: sum over contraction multi-indices
                hot = [t for t in slots if b1[t]]
                if not hot:
                    s = out.get((aa, bb), 0) + c1 * c2
                    if s:
                        out[aa, bb] = s
                    else:
                        out.pop((aa, bb), None)
                    continue
                for ks in itertools.product(*[range(min(b1[t], a2[t]) + 1) for t in hot]):
                    coeff = c1 * c2
                    ka = list(aa)
                    kb = list(bb)
                    for t, k in zip(hot, ks):
                        coeff *= math.comb(b1[t], k) * _falling(a2[t], k)
                        ka[t] -= k
                        kb[t] -= k
                    key = (tuple(ka), tuple(kb))
                    s = out.get(key, 0) + coeff
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return WeylOperator(self.ctx, out)

    __rmul__ = __mul__

    # -- action ------------------------------------------------------------

    def apply(self, p: SymPoly) -> SymPoly:
        if p.vars != self.ctx.var_names:
            raise DimensionError("polynomial over a different variable grid")
        out = {}
        for (alpha, beta), c in self.terms.items():
            for ev, pc in p.terms.items():
                if any(b > e for b, e in zip(beta, ev)):
                    continue
                coeff = c * pc
                for b, e in zip(beta, ev):
                    if b:
                        coeff *= _falling(e, b)
                key = tuple(e - b + a for e, b, a in zip(ev, beta, alpha))
                s = out.get(key, 0) + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SymPoly(self.ctx.var_names, out)

    # -- display -----------------------------------------------------------

    def _render(self, key):
        alpha, beta = key
        ctx = self.ctx
        parts = []
        for label, ev in (("x", alpha), ("d", beta)):
            for t, e in enumerate(ev):
                if e:
                    a, i = divmod(t, ctx.N)
                    name = f"{label}[{a + 1},{ctx.indices[i]}]"
                    parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"


# -- representation generators ---------------------------------------------


def gamma_gen(family: str, i, j, m: int, N: int) -> WeylOperator:
    """Image of a Lie algebra generator under the natural action on the
    polynomial ring: E_ij for gl, F_ij for so/sp."""
    if family not in ("gl", "so", "sp"):
        raise ValueError(f"unknown family {family!r}")
    ctx = WeylContext(m, N)
    eps = eps_ij(family, i, j)
    op = WeylOperator.zero(ctx)
    for a in range(1, m + 1):
        op = op + WeylOperator.x(ctx, a, i) * WeylOperator.d(ctx, a, j)
        if family != "gl":
            op = op - eps * WeylOperator.x(ctx, a, -j) * WeylOperator.d(ctx, a, -i)
    return op


def dual_gamma_gen(dual_family: str, A: int, B: int, m: int, N: int) -> WeylOperator:
    """Image of the generator F'_{AB} of the commutant algebra (sp_{2m}
    when the inner group is orthogonal, so_{2m} when it is symplectic)
    acting on the same variable grid; A, B range over -m..-1, 1..m."""
    ctx = WeylContext(m, N)
    if A == 0 or B == 0 or not (abs(A) <= m and abs(B) <= m):
        raise DimensionError(f"dual generator F'[{A},{B}] out of range")
    if dual_family not in ("sp", "so"):
        raise ValueError(f"unknown dual family {dual_family!r}")
    if dual_family == "so" and N % 2:
        raise DimensionError("orthogonal dual action needs an even inner dimension")
    if A < 0 and B < 0:
        return -dual_gamma_gen(dual_family, -B, -A, m, N)
    x, d = WeylOperator.x, WeylOperator.d
    op = WeylOperator.zero(ctx)
    for i in index_set(N):
        xx_sign, dd_sign = (sgn(i), sgn(i)) if dual_family == "so" else (-1, 1)
        if A > 0 and B > 0:
            op = op + x(ctx, A, i) * d(ctx, B, i)
        elif A > 0:  # B < 0
            op = op + xx_sign * x(ctx, A, i) * x(ctx, -B, -i)
        else:  # A < 0 < B
            op = op + dd_sign * d(ctx, -A, i) * d(ctx, B, -i)
    if A == B:
        op = op + WeylOperator.scalar(ctx, Fraction(N, 2))
    return op


# -- Cayley operators --------------------------------------------------------


def cayley(k: int, m: int, N: int, signed: bool) -> WeylOperator:
    """k-th antisymmetric (signed, Omega_k) or symmetric (Theta_k) Cayley
    operator: the symmetrized sum over permutations, cross-checked before
    returning against the sum of block[x]*block[d] over the chosen rows
    and columns, where the block is det over strictly increasing choices
    or per over weakly increasing ones, weighted by the inverse
    multiplicity factorials (1 on strictly increasing choices)."""
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
    op = WeylOperator(ctx, terms) * Fraction(1, math.factorial(k))
    block = det if signed else per
    pairs = []
    for avec in increasing(range(1, m + 1), k, signed):
        for ivec in increasing(ctx.indices, k, signed):
            xblock = block([[WeylOperator.x(ctx, a, i) for i in ivec] for a in avec])
            dblock = block([[WeylOperator.d(ctx, a, i) for i in ivec] for a in avec])
            weight = Fraction(1, multiplicity_factorial(avec) * multiplicity_factorial(ivec))
            pairs.append((weight, xblock * dblock))
    if not op == combine(pairs, WeylOperator.zero(ctx)):
        form = "determinantal" if signed else "permanental"
        raise ConsistencyError(f"symmetrized and {form} forms disagree")
    return op


# -- paired determinant/permanent blocks -------------------------------------


def paired_blocks(A, I, m: int, N: int, signed: bool) -> WeylOperator:
    """omega_AI (signed) or theta_AI: the sum over the splittings of the
    sorted index sequence I into two subsequences J, J' of length
    k = |I|/2 of sign * block[x_{a_p j_q}] * block[d_{a_p, -j'_q}], a in A.

    Signed: I has distinct entries, A has k distinct rows, the block is
    det and the sign is that of the interleaving j_1 j'_1 ... j_k j'_k.
    Unsigned: I is weakly increasing, the block is per and the sign is
    sgn(j_1 ... j_k); splittings are enumerated by position, so
    coincident splits of repeated entries are counted with multiplicity,
    the counting under which the representation image of the Hafnian
    equals Sum_A theta_AI / (d_1! ... d_m!).
    """
    ctx = WeylContext(m, N)
    I = tuple(sorted(I))
    if signed and len(set(I)) != len(I):
        raise DimensionError("index set I must not repeat entries")
    if len(I) % 2:
        raise DimensionError("I must have even size")
    k = len(I) // 2
    A = tuple(sorted(A))
    if signed and len(set(A)) != k:
        raise DimensionError("A must consist of k distinct rows")
    if len(A) != k:
        raise DimensionError("A must consist of k rows")
    block = det if signed else per
    pairs = []
    for positions in itertools.combinations(range(2 * k), k):
        rest = [p for p in range(2 * k) if p not in positions]
        J = [I[p] for p in positions]
        if signed:
            sign = perm_sign([p for pair in zip(positions, rest) for p in pair])
        else:
            sign = math.prod(sgn(j) for j in J)
        xblock = block([[WeylOperator.x(ctx, a, j) for j in J] for a in A])
        dblock = block([[WeylOperator.d(ctx, a, -I[p]) for p in rest] for a in A])
        pairs.append((sign, xblock * dblock))
    return combine(pairs, WeylOperator.zero(ctx))


# -- corner minors -----------------------------------------------------------


def minor_delta(p: int, m: int, N: int) -> SymPoly:
    """Determinant of the p x p block x_{ai}, a=1..p, on the p most
    negative column indices."""
    ctx = WeylContext(m, N)
    cols = ctx.indices[:p]
    return det([[ctx.poly_x(a, i) for i in cols] for a in range(1, p + 1)])
