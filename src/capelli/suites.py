"""Named verification suites.

Each suite bundles the exact checks for one statement about the central
elements: the two classical Capelli identities over gl_N, the Pfaffian
and Hafnian formulas over so_N/sp_N, the fusion constructions, the
operator-identity battery for the exchange matrices, the quantum
determinant formula, the dual-pair transfer, the symmetric-function
groundwork, and the generating-series inversion.

Suites are data: `SUITES` maps each suite name to one `Suite` row, its
description, its parameter domains and its body; adding a statement
means adding a row.  The body is a generator of `(check id, witness)`
pairs, where the witness is None on a pass.  `run_suite` resolves the
given parameters against the declared domains before the body runs, so
no suite reads raw parameters, and it is the one place that reads the
clock and builds the `CheckResult`s.

Twin statements about the signed family C (Pfaffians over so_N, det,
strictly increasing choices) and the unsigned family D (Hafnians over
sp_N, per, weakly increasing choices) share one body that takes
`signed`: `_capelli_suite` (capelli-gl/capelli-gl-perm),
`_formula_suite` (thm-4.1/5.1), `_fusion_suite` (thm-3.2/3.3),
`_vanishing_suite` (prop-3.10/3.11) and the three dual-pair bodies over
`_dual_pair` (so_N against sp_2m for C, sp_N against so_2m for D):
`_transfer_suite` (thm-4.4/5.3), `_generating_suite` (prop-4.3/5.2) and
`_identity_suite` (cor-4.6/5.4).  The suites alone turn the flag into
the names in check ids (`det-capelli`, `transfer-C`, `fusion-row`, ...);
the library's Pfaffian and Hafnian builders read the twin from the
algebra instead.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .core import (
    combine,
    dense_mul,
    dense_prod,
    increasing,
    linear_ladder,
    multiplicity_factorial,
    series_as_fraction,
    series_witness,
)
from .symfun import (
    Partition,
    ShiftSequence,
    a_lambda,
    check_characterization,
    check_generating_series,
    e_factorial,
    eval_at,
    h_factorial,
    partitions_with,
    schur_factorial,
)
from .uea import (
    LieContext,
    block_expr,
    capelli_element,
    central_series,
    dual_pair_coeffs,
    dual_ring,
    family_expr,
    gamma,
    gamma_ring,
    hc_image,
    hc_target,
    is_central,
    lam_form,
    uea_ring,
)
from .tensor import (
    eigenvalue_check_gl,
    fusion_capelli,
    generating_functions,
    ladder_roots,
    quantum_det_gl,
    theorem_62_check,
    verify_relations,
    verify_vanishing,
)
from .weyl import cayley, paired_blocks


@dataclass
class CheckResult:
    id: str
    witness: str | None
    ms: float

    @property
    def status(self):
        """"pass" exactly when the check carries no witness."""
        return "pass" if self.witness is None else "fail"


class UsageError(ValueError):
    """Out-of-range or unknown parameters; maps to exit code 2."""


def _hc_witness(element, target):
    """None when the Harish-Chandra image of `element` is `target`, a
    polynomial in the l_p^2.  Both are compared in the lam variables, so
    an image that is not a polynomial in the l_p^2 fails with a witness
    too."""
    hc = hc_image(element)
    return None if hc == lam_form(element.ctx, target) else f"harish-chandra image is {hc!r}"


def _image_witness(ctx, m, k):
    """The first I at which the Pfaffian (so_N) or Hafnian (sp_N) of I
    acts on the m-fold grid differently from the sum over A of
    omega_AI (so_N) or theta_AI / multiplicity_factorial(A), or None.
    I and A run over the strictly (so_N) or weakly increasing choices of
    2k indices and of k rows."""
    signed = ctx.family == "so"
    ring = gamma_ring(ctx, m)
    for I in increasing(ctx.indices, 2 * k, signed):
        lhs = block_expr(ctx, I).evaluate(ring)
        blocks = ((Fraction(1, multiplicity_factorial(A)), paired_blocks(A, I, m, ctx.N, signed))
                  for A in increasing(range(1, m + 1), k, signed))
        witness = lhs.first_difference(combine(blocks, ring.scalar(0)))
        if witness is not None:
            return f"I={I}: {witness}"
    return None


def _families(N):
    return ("so", "sp") if N % 2 == 0 else ("so",)


# -- gl_N: the two classical identities ---------------------------------------


def _capelli_suite(p, rng, signed):
    """The determinant-type (signed) or permanent-type Capelli identity:
    the natural action of the Capelli element is the Cayley operator."""
    prefix = "det" if signed else "per"
    for N in p["N"]:
        for m in p["m"]:
            for k in p["k"]:
                if k <= min(m, N):
                    yield (f"{prefix}-capelli[N={N},m={m},k={k}]",
                           gamma(capelli_element(k, N, signed), m).first_difference(
                               cayley(k, m, N, signed)))


# -- so_N and sp_N: the Pfaffian and Hafnian formulas ----------------------------


def _formula_suite(p, rng, signed):
    """thm-4.1 (signed: the Pfaffian sums C_k over so_N, empty past the
    rank n) or thm-5.1 (unsigned: the Hafnian sums D_k over sp_N): each
    element is central, has the Harish-Chandra image `hc_target` and acts
    on the m-fold grid as the sum of the paired blocks."""
    family, name = ("so", "pfaffian") if signed else ("sp", "hafnian")
    for N in p["N"]:
        ctx = LieContext(family, N)
        for k in p["k"]:
            z = family_expr(ctx, k).evaluate(uea_ring(ctx))
            if signed and k > ctx.n:
                yield (f"pfaffian-vanishes[N={N},k={k}]",
                       None if z.is_zero() else "nonzero past the rank")
                continue
            yield (f"{name}-central[N={N},k={k}]",
                   None if is_central(z) else "element is not central")
            yield (f"{name}-hc-image[N={N},k={k}]",
                   _hc_witness(z, hc_target(ctx, signed, k)))
        for m in p["m"]:
            for k in p["k"]:
                if not (signed and k > ctx.n):
                    yield (f"{name}-image[N={N},m={m},k={k}]",
                           _image_witness(ctx, m, k))


# -- fusion --------------------------------------------------------------------


def _fusion_suite(p, rng, signed):
    """thm-3.2 (signed: the fused column gives C_k) or thm-3.3 (unsigned:
    the fused row gives D_k), over so_N and, for even N, sp_N."""
    shape = "column" if signed else "row"
    for N in p["N"]:
        for family in _families(N):
            for k in p["k"]:
                ctx = LieContext(family, N)
                expected = central_series(ctx, signed, k)[k].evaluate(uea_ring(ctx))
                yield (f"fusion-{shape}[{family}{N},k={k}]",
                       fusion_capelli(ctx, k, signed).first_difference(expected))


# -- exchange-matrix identities --------------------------------------------------


def _relation_suite(p, rng, relation):
    for N in p["N"]:
        for family in _families(N):
            yield from verify_relations(LieContext(family, N), relation)


def _vanishing_suite(p, rng, signed):
    for N in p["N"]:
        for family in ("so", "sp"):
            for m in p["m"]:
                for l in range(0, 3):
                    yield from verify_vanishing(m, l, N, family, signed)


# -- quantum determinant ----------------------------------------------------------


def suite_thm_62(p, rng):
    for N in p["N"]:
        for family in _families(N):
            ctx = LieContext(family, N)
            yield (f"sklyanin-det[{family}{N}]",
                   theorem_62_check(ctx, central_series(ctx, True, ctx.n)))


def suite_prop_61(p, rng):
    for N in p["N"]:
        for eps_family in ("so", "sp"):
            h = quantum_det_gl(N, eps_family)
            witness = None
            for nu in partitions_with(N, max_weight=2):
                witness = eigenvalue_check_gl(nu, h)
                if witness is not None:
                    break
            yield f"gl-det-eigenvalue[N={N},eps={eps_family}]", witness


# -- dual pair transfer ------------------------------------------------------------


def _dual_pair(N, m, signed):
    """(inner ctx, dual ctx): so_N against sp_2m for the signed family C,
    sp_N against so_2m for the unsigned family D."""
    if signed:
        return LieContext("so", N), LieContext("sp", 2 * m)
    return LieContext("sp", N), LieContext("so", 2 * m)


def _transfer_suite(p, rng, signed):
    """thm-4.4 (signed: the grid's k up to m, both series to order m) or
    thm-5.3 (unsigned: k = 1..K, both series to order K): the dual action
    of the k-th dual element is the combination of the inner elements'
    images with the coefficients `dual_pair_coeffs`; only the images
    with a nonzero coefficient are evaluated."""
    kind = "C" if signed else "D"
    for N in p["N"]:
        for m in p["m"]:
            inner, dual = _dual_pair(N, m, signed)
            ring = gamma_ring(inner, m)
            order = m if signed else p["k"]
            series_inner = central_series(inner, signed, order)
            series_dual = central_series(dual, signed, order)
            for k in p["k"] if signed else range(1, order + 1):
                if k <= order:
                    lhs = series_dual[k].evaluate(dual_ring(dual, N))
                    coeffs = [(dual_pair_coeffs(signed, k, l, m, N), l) for l in range(k + 1)]
                    rhs = combine(((f, series_inner[l].evaluate(ring)) for f, l in coeffs if f),
                                  ring.scalar(0))
                    yield f"transfer-{kind}[N={N},m={m},k={k}]", lhs.first_difference(rhs)


def _generating_suite(p, rng, signed):
    """prop-4.3 (signed: the inner series to the rank n and the dual one
    to m, compared exactly) or prop-5.2 (unsigned: both to order K,
    compared to O(t^{-K-1})): in t = u^2, the series of the inner images
    times the quotient of two ladders of m roots (orthogonal over
    symplectic) is the series of the dual images."""
    K, kind = p.get("K"), "C" if signed else "D"
    for N in p["N"]:
        for m in p["m"]:
            inner, dual = _dual_pair(N, m, signed)
            inner_order, dual_order = (inner.n, m) if signed else (K, K)
            series_inner = central_series(inner, signed, inner_order)
            series_dual = central_series(dual, signed, dual_order)
            lhs_num, lhs_den = series_as_fraction(
                [x.evaluate(gamma_ring(inner, m)) for x in series_inner],
                linear_ladder(ladder_roots(inner, signed, inner_order)))
            rhs = series_as_fraction([x.evaluate(dual_ring(dual, N)) for x in series_dual],
                                     linear_ladder(ladder_roots(dual, signed, dual_order)))
            top, bottom = (dense_prod(linear_ladder(ladder_roots(ctx, True, m)))
                           for ctx in ((inner, dual) if signed else (dual, inner)))
            lhs = (dense_mul(lhs_num, top), dense_mul(lhs_den, bottom))
            order = "" if K is None else f",K={K}"
            yield (f"generating-transfer-{kind}[N={N},m={m}{order}]",
                   series_witness(lhs, rhs, "t", K))


def _identity_suite(p, rng, signed):
    """cor-4.6 (signed, N = 2n and m = n - 1) or cor-5.4 (unsigned,
    n = m - 1): the transfer is the identity map, so the dual action of
    the k-th dual element is the image of the k-th inner element; both
    series are built to order m (k <= m on both domains)."""
    kind = "C" if signed else "D"
    for N in p["N"]:
        for m in p["m"]:
            inner, dual = _dual_pair(N, m, signed)
            series_inner = central_series(inner, signed, m)
            series_dual = central_series(dual, signed, m)
            for k in p["k"]:
                yield (f"transfer-identity-{kind}[N={N},m={m},k={k}]",
                       series_dual[k].evaluate(dual_ring(dual, N)).first_difference(
                           series_inner[k].evaluate(gamma_ring(inner, m))))


def suite_cor_45(p, rng):
    # N = 2n with m > n: the higher dual elements die under the action
    [N], [m], [k] = p["N"], p["m"], p["k"]
    dual = LieContext("sp", 2 * m)
    img = central_series(dual, True, m)[k].evaluate(dual_ring(dual, N))
    yield (f"dual-image-vanishes[N={N},m={m},k={k}]",
           None if img.is_zero() else "image is nonzero")


# -- corollary 4.2 and the series inversion ----------------------------------------


def suite_cor_42(p, rng):
    for N in p["N"]:
        n = N // 2
        ctx = LieContext("so", N)
        pf = block_expr(ctx, ctx.indices).evaluate(uea_ring(ctx))
        lhs = family_expr(ctx, n).evaluate(uea_ring(ctx))
        yield f"top-pfaffian-square[N={N}]", lhs.first_difference((pf * pf) * (-1) ** n)


def suite_series_inversion(p, rng):
    """The generating functions of the signed and unsigned families are
    inverse series up to O(t^{-K-1}), over so_3 and sp_2.

    Only the sp_2 half sees a wrong native element.  Over so_3 (rank 1)
    `central_series` builds the unsigned family as polynomials in C_1
    (`express_in_family`), so the inversion holds for every value of
    C_1: with `family_expr` returning C_1 + 1, or C_1 + 7, the so_3
    check still passes at every K in 1..4."""
    K = p["K"]
    for family, N in (("so", 3), ("sp", 2)):
        if N not in p["N"]:
            continue
        ctx = LieContext(family, N)
        series_c = central_series(ctx, True, min(K, ctx.n))
        series_d = central_series(ctx, False, K)
        yield (f"series-inversion[{family}{N},K={K}]",
               generating_functions(ctx, series_c, series_d))


# -- the symmetric-function groundwork ----------------------------------------------


def _random_sequence(rng, count):
    vals = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-24, 24), rng.randint(1, 4)))
    return ShiftSequence.from_values(sorted(vals))


def suite_prop_22(p, rng):
    for trial in range(5):
        a = _random_sequence(rng, 10)
        witness = None
        for n in (1, 2, 3):
            for k in range(0, 5):
                ek = e_factorial(k, n, a)
                hk = h_factorial(k, n, a)
                if k <= n:
                    if not ek == schur_factorial(Partition((1,) * k), n, a):
                        witness = f"e_{k} vs column shape at n={n}"
                elif not ek.is_zero():
                    witness = f"e_{k} nonzero past n={n}"
                if not hk == schur_factorial(Partition((k,)), n, a):
                    witness = f"h_{k} vs row shape at n={n}"
                if witness:
                    break
            if witness:
                break
        yield f"explicit-sums[trial={trial}]", witness


def suite_prop_23(p, rng):
    K = p["K"]
    for trial in range(3):
        for n in (1, 2):
            a = _random_sequence(rng, n + K + 4)
            poles = set(a.prefix(n + K))
            z = []
            while len(z) < n:  # redraw a z-value that hits a sequence entry
                x = Fraction(rng.randint(30, 90), rng.randint(1, 3))
                if x not in poles:
                    z.append(x)
            yield (f"generating-series[trial={trial},n={n},K={K}]",
                   check_generating_series(n, K, a, z))


def suite_thm_21(p, rng):
    n = 2
    a = _random_sequence(rng, 12)
    witness = None
    for mu in partitions_with(n, max_weight=4):
        s = schur_factorial(mu, n, a)
        for lam in partitions_with(n, max_weight=4):
            val = eval_at(s, a_lambda(lam, n, a))
            bad = any(lam[k] < mu[k] for k in (1, 2))
            if bad and val != 0:
                witness = f"s_{tuple(mu.parts)} fails to vanish at {tuple(lam.parts)}"
        if eval_at(s, a_lambda(mu, n, a)) == 0:
            witness = f"s_{tuple(mu.parts)} vanishes at its own point"
        if mu.weight() <= 3:
            conds = check_characterization(s, mu, n, a)
            if conds != (True, True, True):
                witness = f"characterization fails for {tuple(mu.parts)}: {conds}"
        if witness:
            break
    yield "interpolation-grid", witness


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    """A series order: any value from 1 to `top`, `default` when none is
    given.  `top` is the largest order that has been timed at the
    costliest point of the suite's grid."""
    default: int
    top: int

    def __contains__(self, value):
        return 1 <= value <= self.top


class Suite(NamedTuple):
    """One registry row.  A domain is a tuple of the values a grid
    parameter may take (all of them by default), or an `Order`.  The body
    is a generator function of (resolved domains, rng): it gets a tuple of
    values per grid parameter and an int per order, and yields one
    (check id, witness) pair per check, with witness None on a pass."""
    description: str
    domains: dict
    body: Callable


SUITES = {
    "capelli-gl": Suite("classical determinant-type identity over gl_N",
                        {"N": (2, 3), "m": (2, 3), "k": (1, 2, 3)},
                        partial(_capelli_suite, signed=True)),
    "capelli-gl-perm": Suite("permanent-type identity over gl_N",
                             {"N": (2, 3), "m": (2, 3), "k": (1, 2, 3)},
                             partial(_capelli_suite, signed=False)),
    "thm-4.1": Suite("Pfaffian formula for the signed family over so_N",
                     {"N": (2, 3, 4), "m": (1, 2, 3), "k": (1, 2)},
                     partial(_formula_suite, signed=True)),
    "thm-5.1": Suite("Hafnian formula for the unsigned family over sp_N",
                     {"N": (2, 4), "m": (1, 2), "k": (1, 2)},
                     partial(_formula_suite, signed=False)),
    "thm-3.2": Suite("fused column evaluates to the signed family",
                     {"N": (2, 3), "k": (1, 2)}, partial(_fusion_suite, signed=True)),
    "thm-3.3": Suite("fused row evaluates to the unsigned family",
                     {"N": (2, 3), "k": (1, 2)}, partial(_fusion_suite, signed=False)),
    "prop-3.1": Suite("exchange relation for the generator matrix",
                      {"N": (2, 3)}, partial(_relation_suite, relation="exchange-relation")),
    "prop-3.6": Suite("projected twisted-factor collapse",
                      {"N": (2, 3)}, partial(_relation_suite, relation="projected-products")),
    "prop-3.9": Suite("exchange relations for the gl_N generator matrices",
                      {"N": (2, 3)}, partial(_relation_suite, relation="gl-exchange")),
    "rel-3.03": Suite("mixed triple product relation",
                      {"N": (2, 3)}, partial(_relation_suite, relation="rrr-relation")),
    "lem-3.5": Suite("boundary regularity on the shifted lines",
                     {"N": (2, 3)}, partial(_relation_suite, relation="boundary-regularity")),
    "dec-3.04": Suite("product decompositions of the (anti)symmetrizers", {"N": (2, 3)},
                      partial(_relation_suite, relation="symmetrizer-decompositions")),
    "prop-3.10": Suite("annihilation by the antisymmetrized spectral product",
                       {"N": (2,), "m": (1, 2)}, partial(_vanishing_suite, signed=True)),
    "prop-3.11": Suite("annihilation by the symmetrized spectral product",
                       {"N": (2,), "m": (1, 2)}, partial(_vanishing_suite, signed=False)),
    "thm-6.2": Suite("quantum determinant formula for the generating function",
                     {"N": (2, 3)}, suite_thm_62),
    "prop-6.1": Suite("eigenvalue of the gl_N quantum determinant", {"N": (2,)}, suite_prop_61),
    "thm-4.4": Suite("dual-pair transfer of the signed family",
                     {"N": (2, 3, 4), "m": (1, 2), "k": (1, 2)},
                     partial(_transfer_suite, signed=True)),
    "prop-4.3": Suite("generating-function transfer, orthogonal inner action",
                      {"N": (2, 3, 4), "m": (1, 2)}, partial(_generating_suite, signed=True)),
    "cor-4.5": Suite("vanishing of high dual elements",
                     {"N": (2,), "m": (2,), "k": (2,)}, suite_cor_45),
    "cor-4.6": Suite("identity transfer at the balanced rank",
                     {"N": (4,), "m": (1,), "k": (1,)}, partial(_identity_suite, signed=True)),
    "thm-5.3": Suite("dual-pair transfer of the unsigned family",
                     {"N": (2, 4), "m": (1, 2), "k": Order(2, top=3)},
                     partial(_transfer_suite, signed=False)),
    "prop-5.2": Suite("generating-function transfer, symplectic inner action",
                      {"N": (2, 4), "m": (1, 2), "K": Order(2, top=3)},
                      partial(_generating_suite, signed=False)),
    "cor-5.4": Suite("identity transfer at the balanced unsigned rank",
                     {"N": (2,), "m": (2,), "k": (1, 2)}, partial(_identity_suite, signed=False)),
    "cor-4.2": Suite("top element as the square of the full Pfaffian",
                     {"N": (2, 4)}, suite_cor_42),
    "prop-2.2": Suite("explicit sums for the factorial e and h polynomials", {}, suite_prop_22),
    "prop-2.3": Suite("generating series of the factorial families",
                      {"K": Order(4, top=16)}, suite_prop_23),
    "thm-2.1": Suite("interpolation characterization grid", {}, suite_thm_21),
    "series-inversion": Suite("the two generating functions are inverse series",
                              {"N": (2, 3), "K": Order(3, top=4)}, suite_series_inversion),
}

# The parameters a suite may declare: every domain key, in registry order.
PARAMS = tuple(dict.fromkeys(key for suite in SUITES.values() for key in suite.domains))


def domain_text(domains):
    """`N∈{2,3}` for a grid parameter, `K∈{1..4} (default 3)` for a series
    order, one entry per parameter of `domains`."""
    return " ".join(f"{key}∈{{1..{d.top}}} (default {d.default})" if isinstance(d, Order)
                    else f"{key}∈{{{','.join(map(str, d))}}}" for key, d in domains.items())


def _resolve(domains, given):
    """Resolve the `given` parameters against `domains`, or raise
    UsageError: a suite must not pass while ignoring a parameter, nor run
    outside its declared domain."""
    undeclared = [key for key in given if key not in domains]
    if undeclared:
        reads = "/".join(domains) or "none"
        raise UsageError(f"this suite takes no {'/'.join(undeclared)} parameter "
                         f"(it reads {reads})")
    resolved = {key: d.default if isinstance(d, Order) else d for key, d in domains.items()}
    for key, value in given.items():
        domain = domains[key]
        if type(value) is not int or value not in domain:
            raise UsageError(f"{key}={value!r} is outside {domain_text({key: domain})}")
        resolved[key] = value if isinstance(domain, Order) else (value,)
    return resolved


def run_suite(name, params=None, seed=0):
    """Run one suite on the given `params` (a name absent from them takes
    its declared default) and time its checks.  A check's `ms` is the time since
    the previous check was yielded (since the body started, for the first
    one), so the values add up to the time the body ran."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}")
    given = params or {}
    suite = SUITES[name]
    checks = suite.body(_resolve(suite.domains, given), random.Random(seed))
    results = []
    last = time.monotonic()
    for cid, witness in checks:
        now = time.monotonic()
        results.append(CheckResult(cid, witness, (now - last) * 1000.0))
        last = now
    if not results:
        raise UsageError(f"no check of {name!r} matches the parameters {given}")
    return results
