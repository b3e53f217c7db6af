"""Exact commutative kernel: rational scalars, sparse polynomials,
determinants/permanents of matrices with commuting entries, and
generating series in one variable.

Every coefficient in the library is an exact rational: an `int` when it
is integral, otherwise a `fractions.Fraction` (`scal` and `exact_terms`
hold this one rule); there is no floating point anywhere.  A linear
combination of elements is one `combine`: elements in, an element out,
over one common denominator, so a `Fraction` appears only where a true
division happens.  Polynomials are stored sparsely as a map from dense
exponent vectors to nonzero coefficients, over a fixed ordered variable
tuple; their products and exact quotients run the same way, over the
integer numerators of each operand's common denominator, with one
division per result term at the end.

The module also holds the shared building blocks of the other layers:
`add_into`, the one in-place accumulation for sparse maps; `Sparse`, the
one base class of the four exact linear combinations (`SymPoly`,
`UEAElement`, `WeylOperator`, `FExpr`), which holds their linear
structure, equality and mismatch witness once; and the functions on
coefficient lists in one variable: `dense_add`, `dense_mul`,
`dense_prod`, `dense_trim` and `to_dense` (a `SymPoly` in one variable as
such a list).  A series in one variable is a fraction of two such lists
(`series_as_fraction`), and `series_witness` is the one rule that decides
a one-variable rational identity, exactly or up to a truncation order,
by cross-multiplying; it names the lowest power whose coefficients
differ.

The flag `signed` picks one of the twin constructions of the paper
throughout the library; here it picks det or per (`_laplace`) and the
strictly or weakly increasing index choices (`increasing`), the one
choice rule every twin body draws its tuples from.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction


Scalar = int | Fraction


class DimensionError(ValueError):
    """Matrix input is not square (or sizes are inconsistent)."""


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact left a remainder."""


class ConsistencyError(RuntimeError):
    """Two internal routes to the same value disagreed (bug trap)."""


def scal(x) -> Scalar:
    """Coerce an int/str/Fraction into an exact rational: an `int` when
    it is integral, otherwise a `Fraction`.  A float is a TypeError: its
    binary value is not the decimal the caller wrote."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact scalar")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_terms(terms):
    """The nonzero entries of a sparse map, each coefficient stored by the
    rule of `scal`; the constructors of the element classes use it."""
    return {k: v.numerator if v.denominator == 1 else v for k, v in terms.items() if v}


def add_into(out, terms, c=1):
    """out += c * terms, in place; returns `out`.

    Both arguments are sparse maps: every key maps to a nonzero exact
    scalar, and a key that is absent has coefficient zero.  A key whose
    coefficient cancels is deleted at once, so `out` keeps that contract
    after every step.  `terms` is not modified.  Every `Sparse` element
    (`SymPoly`, `UEAElement`, `WeylOperator`, `FExpr`) and the matrices
    and entry maps of `tensor` add through this one kernel; only the
    product loops that compute each key on the fly repeat its body inline.
    """
    if c == 1:  # the common case; no product per term
        for k, v in terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    else:
        for k, v in terms.items():
            s = out.get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def common_denominator(values):
    """The lcm of the denominators of exact rationals; 1 for none, or
    when every value is an int."""
    return math.lcm(*(v.denominator for v in values))


def combine(pairs, start):
    """start + sum of c * x over the (c, x) pairs, an element of the class
    and home of the `Sparse` element `start`; a scalar x is coerced into
    it.  The sum runs over one common denominator: each exact rational c
    is scaled by the lcm D of their denominators to an int, so the
    products and sums stay in int where the elements are integral, and
    the sum is divided by D once at the end.  Every sum of elements in
    the library is `combine` or `+`; only `_TargetRing._horner` and the
    product loops accumulate raw terms with `add_into`."""
    pairs = [(c, start._coerce(x)) for c, x in pairs]
    den = common_denominator(c for c, _ in pairs)
    out = {}
    for c, x in pairs:
        add_into(out, x.terms, c.numerator * (den // c.denominator))
    if den != 1:
        out = {k: Fraction(v, den) for k, v in out.items()}
    return start._like(add_into(out, start.terms))


def multiplicity_factorial(seq):
    """Product of the factorials of the run lengths of a sorted sequence:
    the order of its stabilizer under permutations of the positions."""
    out = 1
    for _, grp in itertools.groupby(seq):
        out *= math.factorial(sum(1 for _ in grp))
    return out


def increasing(seq, k, signed):
    """The strictly (signed) or weakly increasing k-tuples of the entries
    of the sorted `seq`: the index choices of det or of per."""
    choose = itertools.combinations if signed else itertools.combinations_with_replacement
    return choose(seq, k)


def perm_sign(perm):
    """Sign of a permutation given as a sequence of distinct integers."""
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def _laplace(rows, signed):
    """Cofactor expansion along the first row, of the determinant when
    `signed` and of the permanent when not, skipping zero pivots: no
    division, so any commutative entry ring works, at a cost of up to n!
    products."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionError(f"{'det' if signed else 'per'} of a non-square matrix")
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    acc = None
    for j, piv in enumerate(rows[0]):
        if piv:
            term = piv * _laplace([[*r[:j], *r[j + 1:]] for r in rows[1:]], signed)
            if signed and j % 2:
                term = -term
            acc = term if acc is None else acc + term
    return rows[0][0] * 0 if acc is None else acc


def det(rows):
    """Determinant of a square matrix of pairwise commuting ring elements."""
    return _laplace(rows, signed=True)


def per(rows):
    """Permanent of a square matrix of pairwise commuting ring elements."""
    return _laplace(rows, signed=False)


class Sparse:
    """An exact linear combination: `terms` maps keys (monomials, PBW
    words, normal-ordered operator symbols) to nonzero scalars, over a
    `home` (a context or a variable tuple) that two operands must share.

    The base holds the linear structure, equality, the truth value (a
    zero element is falsy, as the scalar 0 is) and the mismatch witness
    once.  A subclass supplies its constructor and its product,
    `_home()`, `_like(terms)` (a new element over the same home),
    `_mismatch` (the text of the `DimensionError` for operands over
    different homes) and `_render(key)`, and overrides `_unit` (the key
    of the scalar 1) and `_shown` (the number of terms `repr` lists)
    where the defaults do not fit.
    """

    __slots__ = ()

    _unit = ()
    _shown = 6

    @classmethod
    def zero(cls, home):
        return cls(home, {})

    @classmethod
    def scalar(cls, home, c):
        out = cls.zero(home)
        c = scal(c)
        if c:
            out.terms[out._unit] = c
        return out

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other._home() != self._home():
                raise DimensionError(self._mismatch)
            return other
        return self.scalar(self._home(), other)

    def __add__(self, other):
        other = self._coerce(other)
        return self._like(add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return self._like(add_into(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _scaled(self, c):
        """The product with the scalar c: the scalar branch of `*`."""
        c = scal(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return self.terms == self._coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def bracket(self, other):
        return self * other - other * self

    def first_difference(self, other):
        """Witness string "<term>: a != b" for the first key, in sorted
        order, on which the two elements disagree, or None if equal."""
        other = self._coerce(other)
        if self.terms == other.terms:
            return None
        for k in sorted(set(self.terms) | set(other.terms)):
            a = self.terms.get(k, 0)
            b = other.terms.get(k, 0)
            if a != b:
                return f"{self._render(k)}: {a} != {b}"
        return None

    def __repr__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms)[:self._shown]
        body = " + ".join(f"({self.terms[k]})*{self._render(k)}" for k in keys)
        more = "" if len(self.terms) <= self._shown else f" + ... ({len(self.terms)} terms)"
        return body + more


class SymPoly(Sparse):
    """Sparse commutative polynomial over exact scalars.

    `vars` is the ordered tuple of variable names; `terms` maps an exponent
    tuple (same length as `vars`) to a nonzero exact rational, an `int`
    when it is integral, otherwise a `Fraction`.  Instances are
    immutable; all operations return new objects.  `==` against a
    polynomial over another variable tuple is False, not an error.

    The constructor checks each exponent vector's length and coerces
    each coefficient by `scal`; the results of the operations skip those
    checks (`_like` keeps only `exact_terms`, `_over` divides int
    numerators once).
    """

    __slots__ = ("vars", "terms")

    _mismatch = "polynomials over different variable tuples"

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        for ev, c in terms.items():
            if len(ev) != nv:
                raise DimensionError("exponent vector length mismatch")
            c = scal(c)
            if c != 0:
                clean[tuple(ev)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        ev = [0] * len(vars)
        ev[vars.index(name)] = 1
        return cls(vars, {tuple(ev): 1})

    @classmethod
    def gens(cls, vars):
        return [cls.variable(vars, v) for v in vars]

    # -- ring structure --------------------------------------------------

    def _home(self):
        return self.vars

    def _like(self, terms):
        """A polynomial over the same variables from well-formed terms
        (tuple keys of the right length, exact scalar values): the
        internal results skip the checks of the public constructor."""
        out = object.__new__(SymPoly)
        out.vars = self.vars
        out.terms = exact_terms(terms)
        return out

    @property
    def _unit(self):
        return (0,) * len(self.vars)

    def _numerators(self):
        """(den, terms): the lcm `den` of the coefficients' denominators
        and the terms scaled by it, all ints; (1, self.terms) when every
        coefficient is an int."""
        den = common_denominator(self.terms.values())
        if den == 1:
            return 1, self.terms
        return den, {ev: c.numerator * (den // c.denominator) for ev, c in self.terms.items()}

    def _over(self, terms, den):
        """The polynomial of the int `terms` divided by the int `den`, one
        division per nonzero term: an int where it is exact, otherwise a
        `Fraction`, so the terms are exact as they stand."""
        out = object.__new__(SymPoly)
        out.vars = self.vars
        if den == 1:
            out.terms = {ev: v for ev, v in terms.items() if v}
        else:
            out.terms = {ev: v // den if v % den == 0 else Fraction(v, den)
                         for ev, v in terms.items() if v}
        return out

    def __mul__(self, other):
        """The product over integer numerators: each operand is scaled by
        its common denominator, the int products are summed, and the sum
        is divided once by the product of the two denominators."""
        if not isinstance(other, SymPoly):
            return self._scaled(other)
        if other.vars != self.vars:
            raise DimensionError(self._mismatch)
        d1, left = self._numerators()
        d2, right = other._numerators()
        right = list(right.items())
        add = operator.add
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right:
                ev = tuple(map(add, e1, e2))
                out[ev] = out.get(ev, 0) + c1 * c2
        return self._over(out, d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, k):
        """The k-th power by squaring from the top bit down: bit_length +
        popcount - 2 products for k >= 1, none for k = 1."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if k == 0:
            return SymPoly.scalar(self.vars, 1)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.vars == other.vars and self.terms == other.terms
        return self.terms == SymPoly.scalar(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- queries ---------------------------------------------------------

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(ev) for ev in self.terms)

    def top_component(self):
        """Sum of the terms of maximal total degree."""
        d = self.total_degree()
        return self._like({ev: c for ev, c in self.terms.items() if sum(ev) == d})

    def coefficient(self, ev):
        return self.terms.get(tuple(ev), 0)

    def degree_in(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(ev[i] for ev in self.terms)

    # -- evaluation and division -----------------------------------------

    def evaluate(self, values):
        """Substitute values (scalars or polynomials over any ring with
        +,*) for all variables; unlisted variables must not occur."""
        missing = [v for i, v in enumerate(self.vars)
                   if v not in values and any(ev[i] for ev in self.terms)]
        if missing:
            raise ValueError(f"no value supplied for {missing}")
        powers = {}  # powers[i][e - 1] = values[vars[i]] ** e, each made once
        acc = None
        for ev, c in self.terms.items():
            term = c
            for i, e in enumerate(ev):
                if e:
                    row = powers.get(i)
                    if row is None:
                        row = powers[i] = [values[self.vars[i]]]
                    while len(row) < e:
                        row.append(row[-1] * row[0])
                    term = term * row[e - 1]
            acc = term if acc is None else acc + term
        return 0 if acc is None else acc

    def exact_div(self, divisor):
        """Exact quotient by `divisor`; raises ExactDivisionError if the
        division leaves a remainder."""
        if not isinstance(divisor, SymPoly):
            c = scal(divisor)
            if c == 0:
                raise ZeroDivisionError("division by zero polynomial")
            return self * Fraction(1, c)
        if divisor.vars != self.vars:
            raise DimensionError(self._mismatch)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        # Over integer numerators: with self = P / dp and divisor = Q / dq,
        # P, Q integral, the loop keeps s * P = Q * q + rem with q and rem
        # integral, scaling q and rem (and s) by the least factor that
        # makes the next quotient coefficient an int, so the quotient is
        # q * dq / (s * dp), divided once at the end.
        dp, rem = self._numerators()
        dq, div = divisor._numerators()
        rem = dict(rem)  # divided in place
        dev, dc = max(div.items())  # lex order on exponent tuples
        div = list(div.items())
        q = {}
        s = 1
        while rem:
            rev = max(rem)
            rc = rem[rev]
            qev = tuple(a - b for a, b in zip(rev, dev))
            if any(e < 0 for e in qev):
                raise ExactDivisionError("inexact polynomial division")
            f = dc // math.gcd(rc, dc)
            if f not in (1, -1):
                f = abs(f)
                rem = {ev: f * c for ev, c in rem.items()}
                q = {ev: f * c for ev, c in q.items()}
                s *= f
                rc *= f
            qc = rc // dc
            q[qev] = qc  # the leading exponent strictly drops, so qev is new
            for ev, c in div:
                key = tuple(map(operator.add, qev, ev))
                v = rem.get(key, 0) - qc * c
                if v:
                    rem[key] = v
                else:
                    del rem[key]
        if dq != 1:
            q = {ev: dq * c for ev, c in q.items()}
        return self._over(q, s * dp)

    # -- display ---------------------------------------------------------

    def _render(self, ev):
        return "*".join(f"{v}^{e}" if e > 1 else v
                        for v, e in zip(self.vars, ev) if e) or "1"

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for ev in sorted(self.terms, reverse=True):
            c = self.terms[ev]
            if any(ev):
                parts.append(f"{c}*{self._render(ev)}" if c != 1 else self._render(ev))
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


# -- dense coefficient lists ------------------------------------------------
#
# A polynomial in one variable u is also kept densely, as the list of its
# coefficients from the constant term up.  The coefficients may be of any
# type with + and * that compares equal to 0 when zero: exact rationals,
# UEAElement, WeylOperator, mixed with scalars where a product needs it.
# Products keep the left factor's coefficients on the left, which matters
# for noncommuting coefficients.


def dense_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def dense_mul(a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
    return out


def dense_prod(factors):
    """Product of a sequence of coefficient lists; [1] when empty."""
    out = [1]
    for f in factors:
        out = dense_mul(out, f)
    return out


def dense_trim(a):
    """The list without its trailing zero coefficients."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def to_dense(p: SymPoly):
    """A polynomial in one variable as its dense coefficient list,
    constant term first (empty for zero)."""
    d = p.degree_in(p.vars[0]) if len(p.vars) == 1 else None
    if d is None:
        raise DimensionError("univariate polynomial expected")
    out = [0] * (d + 1) if d >= 0 else []
    for ev, c in p.terms.items():
        out[ev[0]] = c
    return out


# -- generating series in one variable ------------------------------------------
#
# A series in t is kept as a fraction (num, den) of two coefficient lists;
# two fractions are equal when num_a * den_b and num_b * den_a are.


def linear_ladder(roots):
    """The ladder factors (t - r) for the given roots."""
    return [[-r, 1] for r in roots]


def series_as_fraction(elements, ladder):
    """sum_k elements[k] / (ladder[0] * ... * ladder[k-1]) for k = 0 ..
    len(ladder), over the common denominator, the product of the whole
    ladder.  `elements` are ring elements (elements[0] is the ring's one)
    and the ladder factors are scalar coefficient lists.  Returns the
    numerator and the denominator as coefficient lists."""
    num = []
    for k in range(len(ladder) + 1):
        num = dense_add(num, [elements[k] * c for c in dense_prod(ladder[k:])])
    return num, dense_prod(ladder)


def series_witness(a, b, var, K=None):
    """Whether the series a = (num_a, den_a) and b = (num_b, den_b) in
    `var` agree, exactly (K None) or up to O(var^{-K-1}): None, or
    "<var>^d: <witness>" for the lowest power d, among those that must
    agree, at which num_a * den_b and num_b * den_a differ.  Up to order
    K these are the powers from deg den_a + deg den_b - K on.  The
    witness is the element's `first_difference` for a `Sparse`
    coefficient, or "a != b" for a scalar one.  Products keep num_a and
    num_b on the left."""
    (num_a, den_a), (num_b, den_b) = a, b
    lhs, rhs = dense_mul(num_a, den_b), dense_mul(num_b, den_a)
    low = 0 if K is None else len(dense_trim(den_a)) + len(dense_trim(den_b)) - 2 - K
    for d in range(max(low, 0), max(len(lhs), len(rhs))):
        x = lhs[d] if d < len(lhs) else 0
        y = rhs[d] if d < len(rhs) else 0
        if isinstance(y, Sparse) and not isinstance(x, Sparse):
            x = y._coerce(x)
        witness = (x.first_difference(y) if isinstance(x, Sparse)
                   else None if x == y else f"{x} != {y}")
        if witness is not None:
            return f"{var}^{d}: {witness}"
    return None
