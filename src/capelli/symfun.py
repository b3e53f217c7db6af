"""Factorial symmetric polynomials.

The basis s_mu(z|a) defined as a ratio of alternants with generalized
factorial powers, the explicit sums for the factorial elementary and
complete polynomials, the evaluation points a_lambda, the interpolation
characterization of s_mu, and the two generating-series identities for
the e- and h-families.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .core import (
    DimensionError,
    Scalar,
    SymPoly,
    combine,
    dense_prod,
    det,
    increasing,
    linear_ladder,
    scal,
    series_as_fraction,
    series_witness,
)


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros
    trimmed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(isinstance(p, int) for p in parts):
            raise TypeError(f"partition parts must be ints, not {parts!r}")
        if any(p < 0 for p in parts):
            raise ValueError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, p):
        """1-based part access; parts beyond the length are zero."""
        if p < 1:
            raise IndexError("parts are 1-based")
        return self.parts[p - 1] if p <= len(self.parts) else 0

    def weight(self):
        return sum(self.parts)

    def __eq__(self, other):
        if isinstance(other, (tuple, list)):
            other = Partition(other)
        elif not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_with(max_length, max_part=None, max_weight=None):
    """All partitions with length <= max_length, parts <= max_part and
    weight <= max_weight (None means unbounded, but at least one bound on
    part size must come from max_part or max_weight)."""
    if max_part is None and max_weight is None:
        raise ValueError("need a bound on parts or weight")
    cap = min(x for x in (max_part, max_weight) if x is not None)

    def rec(prefix, prev, budget):
        yield Partition(prefix)
        if len(prefix) == max_length:
            return
        for p in range(1, min(prev, budget) + 1):
            yield from rec(prefix + [p], p, budget - p)

    yield from rec([], cap, max_weight if max_weight is not None else cap * max_length)


class ShiftSequence:
    """The sequence a_1, a_2, ... entering the factorial powers, realized
    by a generator rule with a cached prefix.

    Identities only ever touch a finite prefix; `multiplicity_free`
    checks distinctness on the cached prefix actually used.
    """

    def __init__(self, rule, name="a"):
        self._rule = rule
        self._cache = []
        self.name = name

    def __getitem__(self, k):
        """1-based: a_k."""
        if k < 1:
            raise IndexError("shift sequences are 1-based")
        while len(self._cache) < k:
            self._cache.append(scal(self._rule(len(self._cache) + 1)))
        return self._cache[k - 1]

    def prefix(self, k):
        return tuple(self[j] for j in range(1, k + 1))

    def multiplicity_free(self, upto):
        vals = self.prefix(upto)
        return len(set(vals)) == len(vals)

    @classmethod
    def zeros(cls):
        return cls(lambda k: 0, name="0")

    @classmethod
    def from_values(cls, values):
        """The finite sequence a_1, ..., a_len(values); reading past its
        end raises IndexError."""
        values = [scal(v) for v in values]
        return cls(lambda k: values[k - 1], name=f"list({', '.join(map(str, values))})")

    @classmethod
    def squares(cls, eps):
        """a_k = (eps + k - 1)^2, the shifted-squares choice attached to a
        half-sum offset eps."""
        eps = scal(eps)
        return cls(lambda k: (eps + k - 1) ** 2, name=f"squares({eps})")

    def __repr__(self):
        return f"ShiftSequence({self.name})"


def zvars(n):
    return tuple(f"z{q}" for q in range(1, n + 1))


def factorial_power(z, a: ShiftSequence, k: int):
    """Generalized factorial power (z|a)^k = (z - a_1)...(z - a_k)."""
    if k < 0:
        raise ValueError("factorial power needs k >= 0")
    result = None
    for j in range(1, k + 1):
        f = z - a[j]
        result = f if result is None else result * f
    if result is None:
        return z ** 0 if isinstance(z, SymPoly) else 1
    return result


@functools.cache
def vandermonde(n):
    """prod_{p<q} (z_p - z_q) over z1..zn, built once per n: a `SymPoly`
    is immutable, so every caller can share it."""
    vs = zvars(n)
    gens = SymPoly.gens(vs)
    prod = SymPoly.scalar(vs, 1)
    for p in range(n):
        for q in range(p + 1, n):
            prod = prod * (gens[p] - gens[q])
    return prod


def schur_factorial(mu: Partition, n: int, a: ShiftSequence) -> SymPoly:
    """Generalized factorial Schur polynomial as the ratio of the
    factorial alternant by the Vandermonde determinant; the division is
    exact in the polynomial ring."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if len(mu) > n:
        raise DimensionError("partition longer than the number of variables")
    vs = zvars(n)
    gens = SymPoly.gens(vs)
    num = det([[factorial_power(gens[q], a, mu[p + 1] + n - p - 1)
                for q in range(n)] for p in range(n)])
    return num.exact_div(vandermonde(n))


def e_factorial(k: int, n: int, a: ShiftSequence) -> SymPoly:
    """Factorial elementary symmetric polynomial, by the explicit sum
    over strictly increasing index tuples."""
    return _factorial_sum(k, n, a, signed=True)


def h_factorial(k: int, n: int, a: ShiftSequence) -> SymPoly:
    """Factorial complete symmetric polynomial, by the explicit sum over
    weakly increasing index tuples."""
    return _factorial_sum(k, n, a, signed=False)


def _factorial_sum(k, n, a, signed):
    """Sum over the strictly (signed) or weakly increasing p_1..p_k of the
    products of (z_{p_t} - a_{p_t - t + 1}) (signed) or
    (z_{p_t} - a_{p_t + t - 1})."""
    vs = zvars(n)
    gens = SymPoly.gens(vs)
    one = SymPoly.scalar(vs, 1)
    return combine(((1, math.prod((gens[p - 1] - a[p - t + 1 if signed else p + t - 1]
                                   for t, p in enumerate(ps, start=1)), start=one))
                    for ps in increasing(range(1, n + 1), k, signed)), SymPoly.zero(vs))


def a_lambda(lam: Partition, n: int, a: ShiftSequence):
    """The evaluation point (a_{lam_1+n}, ..., a_{lam_n+1})."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if len(lam) > n:
        raise DimensionError("partition longer than the number of variables")
    return tuple(a[lam[p] + n - p + 1] for p in range(1, n + 1))


def is_symmetric(f: SymPoly, n: int) -> bool:
    """Invariance under the adjacent transpositions, which generate the
    full symmetric group."""
    vs = zvars(n)
    if f.vars != vs:
        raise DimensionError("polynomial not over z1..zn")
    gens = {v: SymPoly.variable(vs, v) for v in vs}
    for i in range(n - 1):
        swapped = dict(gens)
        swapped[vs[i]] = gens[vs[i + 1]]
        swapped[vs[i + 1]] = gens[vs[i]]
        if not (f.evaluate(swapped) - f) == 0:
            return False
    return True


def eval_at(f: SymPoly, point) -> Scalar:
    return f.evaluate({v: scal(c) for v, c in zip(f.vars, point)})


def check_characterization(f: SymPoly, mu: Partition, n: int, a: ShiftSequence):
    """Truth values of the three equivalent interpolation conditions for
    f against s_mu(z|a).

    The vanishing conditions quantify over infinitely many partitions
    lambda; here they are tested over the finite grid lambda_1 <= |mu|,
    len(lambda) <= n, which the degree bound deg f <= |mu| makes an
    honest truncation (recorded in the verification report).
    """
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if not is_symmetric(f, n):
        raise DimensionError("input polynomial is not symmetric")
    if f.total_degree() > mu.weight():
        raise DimensionError("degree exceeds |mu|")
    s_mu = schur_factorial(mu, n, a)

    # (i) proportionality to s_mu(z|a)
    cond1 = _proportional(f, s_mu)

    grid = list(partitions_with(n, max_part=mu.weight()))
    # (ii) vanishing whenever lambda_k < mu_k for some k
    cond2 = all(
        eval_at(f, a_lambda(lam, n, a)) == 0
        for lam in grid
        if any(lam[k] < mu[k] for k in range(1, n + 1))
    )
    # (iii) vanishing for |lambda| < |mu|, with ordinary-Schur leading part
    lead_ok = _proportional(f.top_component(),
                            schur_factorial(mu, n, ShiftSequence.zeros()))
    cond3 = lead_ok and all(
        eval_at(f, a_lambda(lam, n, a)) == 0
        for lam in grid
        if lam.weight() < mu.weight()
    )
    return cond1, cond2, cond3


def _proportional(f: SymPoly, g: SymPoly) -> bool:
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    ev = next(iter(g.terms))
    c = f.coefficient(ev)
    if c == 0:
        return False
    ratio = Fraction(c, g.terms[ev])
    return (f - g * ratio).is_zero()


class PoleCollision(ArithmeticError):
    """z-values collided with sequence entries; resample and retry."""


def check_generating_series(n: int, K: int, a: ShiftSequence, zvals):
    """Both generating-series identities for the factorial e- and
    h-families at concrete rational z-values, against the interpolation
    kernel X(t) = prod(t - z_p) / prod(t - a_p), p = 1..n; returns None
    or a witness that names the failing side.

    The e-side sums (-1)^k e_k over the ladder (t - a_n), ..., (t - a_1);
    it is a rational identity in t, decided exactly.  The h-side sums h_k
    over the ladder (t - a_{n+1}), (t - a_{n+2}), ...; it is an identity
    of power series in 1/t, and its truncation at K terms must equal 1/X
    up to O(t^{-K-1}).  `series_witness` decides both and names the power
    of t whose coefficients differ.
    """
    if not a.multiplicity_free(n + K):
        raise PoleCollision("shift sequence has repeated entries on the needed prefix")
    zvals = [scal(z) for z in zvals]
    if any(z == a[j] for z in zvals for j in range(1, n + K + 1)):
        raise PoleCollision("z-value hits a sequence entry")

    def value(family, k):
        return eval_at(family(k, n, a), zvals)

    x_num = dense_prod(linear_ladder(zvals))
    x_den = dense_prod(linear_ladder(a.prefix(n)))
    e = series_as_fraction([(-1) ** k * value(e_factorial, k) for k in range(n + 1)],
                           linear_ladder(a[j] for j in range(n, 0, -1)))
    witness = series_witness(e, (x_num, x_den), "t")
    if witness is not None:
        return f"e-side: {witness}"
    h = series_as_fraction([value(h_factorial, k) for k in range(K + 1)],
                           linear_ladder(a[j] for j in range(n + 1, n + K + 1)))
    witness = series_witness(h, (x_den, x_num), "t", K)
    return None if witness is None else f"h-side: {witness}"
