from fractions import Fraction
import itertools
import random

import pytest

from capelli.core import (
    DimensionError,
    SymPoly,
    add_into,
    combine,
    common_denominator,
    dense_add,
    dense_mul,
    dense_trim,
    det,
    exact_terms,
    linear_ladder,
    per,
    perm_sign,
    scal,
    series_as_fraction,
    series_witness,
)


def poly_vars(*names):
    return SymPoly.gens(tuple(names))


def brute_det(rows):
    """Independent oracle: alternating sum over all permutations."""
    n = len(rows)
    acc = None
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        term = rows[0][sigma[0]]
        for p in range(1, n):
            term = term * rows[p][sigma[p]]
        term = term * sign
        acc = term if acc is None else acc + term
    return acc


def rand_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def rand_poly(rng, vars, deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        ev = tuple(rng.randint(0, deg) for _ in vars)
        terms[ev] = rand_fraction(rng)
    return SymPoly(vars, terms)


# -- det / per ------------------------------------------------------------


def test_det_base_cases():
    x, = poly_vars("x")
    assert det([[x]]) == x
    a, b, c, d = poly_vars("a", "b", "c", "d")
    assert det([[a, b], [c, d]]) == a * d - b * c


def test_det_vandermonde_n2():
    # det[(z_q|a)^{n-p}] for n=2, a=(0,1): rows are p=1,2 -> powers 1,0.
    # Hand oracle: (z1|a)^1 (z2|a)^0 - (z2|a)^1 (z1|a)^0 = z1 - z2.
    z1, z2 = poly_vars("z1", "z2")
    rows = [[z1, z2], [z1 ** 0, z2 ** 0]]
    assert det(rows) == z1 - z2


def test_det_nonsquare_rejected():
    with pytest.raises(DimensionError):
        det([[Fraction(1), Fraction(2)]])


def test_per_base_cases():
    a, b, c, d = poly_vars("a", "b", "c", "d")
    assert per([[a]]) == a
    assert per([[a, b], [c, d]]) == a * d + b * c


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_per_all_ones_is_factorial(k):
    # oracle: direct sum over S_k of products of ones
    ones = [[Fraction(1)] * k for _ in range(k)]
    expected = sum(1 for _ in itertools.permutations(range(k)))
    assert per(ones) == expected


def test_det_matches_brute_force_and_bareiss():
    rng = random.Random(7)
    for n in (2, 3, 4, 5, 6):
        rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        assert det(rows) == brute_det(rows)


def test_det_bareiss_on_polynomials():
    rng = random.Random(11)
    vars = ("x", "y")
    rows = [[rand_poly(rng, vars, deg=1) for _ in range(5)] for _ in range(5)]
    assert det(rows) == brute_det(rows)


def test_det_multilinear_and_alternating():
    rng = random.Random(3)
    vars = ("x", "y", "z")
    for _ in range(5):
        rows = [[rand_poly(rng, vars) for _ in range(3)] for _ in range(3)]
        extra = [rand_poly(rng, vars) for _ in range(3)]
        c = rand_fraction(rng)
        # linearity in row 1
        bumped = [list(r) for r in rows]
        bumped[1] = [a + c * b for a, b in zip(rows[1], extra)]
        other = [list(r) for r in rows]
        other[1] = extra
        assert det(bumped) == det(rows) + c * det(other)
        # swapping two rows flips the sign
        swapped = [rows[1], rows[0], rows[2]]
        assert det(swapped) == -det(rows)
        # equal rows kill the determinant
        degenerate = [rows[0], rows[0], rows[2]]
        assert det(degenerate) == 0


def test_per_multilinear_and_symmetric():
    rng = random.Random(5)
    for _ in range(5):
        rows = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
        extra = [rand_fraction(rng) for _ in range(3)]
        c = rand_fraction(rng)
        bumped = [list(r) for r in rows]
        bumped[0] = [a + c * b for a, b in zip(rows[0], extra)]
        other = [list(r) for r in rows]
        other[0] = extra
        assert per(bumped) == per(rows) + c * per(other)
        assert per([rows[2], rows[1], rows[0]]) == per(rows)


# -- scalars --------------------------------------------------------------


def test_scalar_field_axioms_randomized():
    rng = random.Random(17)
    for _ in range(50):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1
    assert scal("3/4") == Fraction(3, 4)


def test_scal_rejects_floats():
    # a float's binary value is not the decimal written: 0.1 would become
    # 3602879701896397/36028797018963968
    for value in (0.1, 2.0, float("inf")):
        with pytest.raises(TypeError):
            scal(value)
    assert scal("0.1") == Fraction(1, 10)


def test_integral_scalars_are_stored_as_int():
    for value, expected in ((Fraction(6, 3), 2), ("-4/2", -2), (True, 1), (7, 7)):
        assert type(scal(value)) is int and scal(value) == expected
    assert type(scal("3/4")) is Fraction
    terms = exact_terms({"a": Fraction(4, 2), "b": Fraction(1, 2), "c": Fraction(0), "d": 3})
    assert terms == {"a": 2, "b": Fraction(1, 2), "d": 3}
    assert [type(v) for v in terms.values()] == [int, Fraction, int]
    assert type(SymPoly(("x",), {(1,): Fraction(2, 2)}).terms[(1,)]) is int


def test_common_denominator():
    assert common_denominator([]) == 1
    assert common_denominator([3, -2, 0]) == 1
    assert common_denominator([Fraction(1, 6), 4, Fraction(-3, 4)]) == 12


def test_combine_matches_per_coefficient_fractions():
    x, y, z = poly_vars("x", "y", "z")
    zero = SymPoly.zero(x.vars)
    a = x + 2 * y
    b = Fraction(1, 2) * y + 3 * z
    pairs = [(Fraction(1, 3), a), (2, b), (Fraction(-1, 6), a), (Fraction(1, 4), b)]
    expected = {}
    for c, p in pairs:
        add_into(expected, p.terms, Fraction(c))
    assert combine(pairs, zero).terms == expected
    assert combine(iter(pairs), zero).terms == expected
    assert combine([], zero) == zero
    assert combine([(Fraction(1, 2), a), (Fraction(-1, 2), a)], zero).is_zero()
    integral = combine([(2, a), (-1, 2 * x)], zero)
    assert integral == 4 * y and type(integral.terms[(0, 1, 0)]) is int


def test_combine_adds_to_its_start_and_coerces_scalars():
    x, y = poly_vars("x", "y")
    total = combine([(Fraction(1, 2), x), (3, 1)], y)
    assert type(total) is SymPoly and total.vars == ("x", "y")
    assert total == Fraction(1, 2) * x + y + 3
    with pytest.raises(DimensionError):
        combine([(1, poly_vars("z")[0])], y)


def test_power_by_squaring_spends_bit_length_plus_popcount_minus_two_products(monkeypatch):
    x, y = poly_vars("x", "y")
    g = x + 2 * y + 1
    products = []
    multiply = SymPoly.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    expected = SymPoly.scalar(g.vars, 1)
    for e in range(1, 10):
        expected = multiply(expected, g)
        products.clear()
        monkeypatch.setattr(SymPoly, "__mul__", counted)
        power = g ** e
        monkeypatch.setattr(SymPoly, "__mul__", multiply)
        assert power == expected
        assert len(products) == e.bit_length() + bin(e).count("1") - 2, e
    assert g ** 0 == 1


# -- the sparse accumulation kernel ----------------------------------------


def test_add_into_deletes_cancelled_key_in_place():
    out = {"a": Fraction(1), "b": Fraction(2)}
    terms = {"a": Fraction(-1), "c": Fraction(5)}
    result = add_into(out, terms)
    assert result is out
    assert out == {"b": 2, "c": 5}
    assert "a" not in out
    assert terms == {"a": -1, "c": 5}


def test_add_into_scaled_and_operand_unchanged():
    out = {"a": Fraction(1, 2), "b": Fraction(1)}
    terms = {"a": Fraction(1, 4), "b": Fraction(1, 3), "c": Fraction(2)}
    add_into(out, terms, Fraction(-3))
    assert out == {"a": Fraction(-1, 4), "c": Fraction(-6)}
    assert terms == {"a": Fraction(1, 4), "b": Fraction(1, 3), "c": Fraction(2)}
    add_into(out, terms, 0)
    assert out == {"a": Fraction(-1, 4), "c": Fraction(-6)}


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign(()) == 1


# -- dense coefficient lists -------------------------------------------------


def test_series_witness_names_the_lowest_differing_power():
    from capelli.uea import LieContext, UEAElement

    ctx = LieContext("gl", 2)
    e, f = UEAElement.E(ctx, 1, 1), UEAElement.E(ctx, -1, 1)
    a = [e, e + f, e]

    def witness(x, y, var):
        return series_witness((x, [1]), (y, [1]), var)

    assert witness(a, list(a), "u") is None
    assert witness(a + [e - e], a, "u") is None
    assert witness(a, [e, e + 2 * f, e], "u") == "u^1: E[-1,1]: 1 != 2"
    assert witness(a, a[:2], "u") == "u^2: E[1,1]: 1 != 0"
    assert witness(a[:2], a, "t") == "t^2: E[1,1]: 0 != 1"


# -- polynomials ----------------------------------------------------------


def test_sympoly_arithmetic_and_eval():
    x, y = poly_vars("x", "y")
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert p.evaluate({"x": Fraction(1), "y": Fraction(2)}) == 9
    assert p.total_degree() == 2
    assert (p - p).is_zero()


def test_sympoly_equality_across_variable_tuples_is_false():
    (x,) = poly_vars("x")
    xy, _ = poly_vars("x", "y")
    assert not x == xy
    assert x != xy
    assert SymPoly.zero(("x",)) != SymPoly.zero(("y",))
    with pytest.raises(DimensionError, match="^polynomials over different variable tuples$"):
        x + xy


def test_sympoly_exact_division():
    x, y = poly_vars("x", "y")
    p = (x - y) * (x + 3 * y) ** 2
    q = p.exact_div(x - y)
    assert q == (x + 3 * y) ** 2
    from capelli.core import ExactDivisionError

    with pytest.raises(ExactDivisionError):
        (x * x + y).exact_div(x - y)


@pytest.mark.parametrize("case", range(4))
def test_exact_division_undoes_a_product(case):
    x, y, z = poly_vars("x", "y", "z")
    quotient, divisor = [
        (x * y - 2 * z + 5, 3 * x - 2 * y),  # leading coefficient 3
        (Fraction(1, 2) * x ** 2 - y * z, y - x),  # leading coefficient -1
        ((x + y + z) ** 2, x * z + Fraction(2, 3) * y ** 2 - 1),
        (x - y, (x - y) * (y - z) * (x - z)),  # a Vandermonde in three letters
    ][case]
    dividend = quotient * divisor
    q = dividend.exact_div(divisor)
    assert q == quotient
    assert q * divisor == dividend


@pytest.mark.parametrize("case", range(3))
def test_inexact_division_raises(case):
    from capelli.core import ExactDivisionError

    x, y, z = poly_vars("x", "y", "z")
    dividend, divisor = [
        (x * y + 1, x),  # a constant remainder
        (x, x * y),  # the divisor's leading exponent does not divide
        ((x - z) * (y + z) + z, y + z),
    ][case]
    with pytest.raises(ExactDivisionError):
        dividend.exact_div(divisor)


# Oracles in plain Fraction arithmetic, one term at a time.


def fraction_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            ev = tuple(a + b for a, b in zip(e1, e2))
            out[ev] = out.get(ev, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {ev: c for ev, c in out.items() if c}


def fraction_quotient(p, divisor):
    rem = {ev: Fraction(c) for ev, c in p.terms.items()}
    dev = max(divisor.terms)
    q = {}
    while rem:
        rev = max(rem)
        qev = tuple(a - b for a, b in zip(rev, dev))
        assert min(qev) >= 0
        q[qev] = rem[rev] / divisor.terms[dev]
        for ev, c in divisor.terms.items():
            key = tuple(a + b for a, b in zip(qev, ev))
            rem[key] = rem.get(key, Fraction(0)) - q[qev] * c
            if not rem[key]:
                del rem[key]
    return q


def fraction_value(p, values):
    total = Fraction(0)
    for ev, c in p.terms.items():
        term = Fraction(c)
        for v, e in zip(p.vars, ev):
            term *= Fraction(values[v]) ** e
        total += term
    return total


def assert_exact_coefficients(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c)


def small_denominator_poly(rng, vars):
    return SymPoly(vars, {tuple(rng.randint(0, 2) for _ in vars):
                          Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 5))})


@pytest.mark.parametrize("seed", range(25))
def test_sympoly_product_quotient_and_value_match_fraction_loops(seed):
    rng = random.Random(seed)
    vars = ("x", "y", "z")
    p, q = small_denominator_poly(rng, vars), small_denominator_poly(rng, vars)
    product = p * q
    assert product.terms == fraction_product(p, q)
    assert_exact_coefficients(product)
    if q:
        quotient = product.exact_div(q)
        assert quotient.terms == fraction_quotient(product, q)
        assert quotient == p
        assert_exact_coefficients(quotient)
    values = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in vars}
    assert p.evaluate(values) == fraction_value(p, values)
    assert (p * p * q).evaluate(values) == fraction_value(p, values) ** 2 * fraction_value(q, values)


def test_sympoly_products_that_cancel_and_divisors_with_non_unit_leading_coefficients():
    x, y = poly_vars("x", "y")
    half, third = Fraction(1, 2), Fraction(1, 3)
    square_difference = (half * x + third * y) * (half * x - third * y)
    assert square_difference.terms == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    integral = (half * x + half) * (2 * x - 2)  # the denominators cancel
    assert integral.terms == {(2, 0): 1, (0, 0): -1}
    assert all(type(c) is int for c in integral.terms.values())
    assert ((x + y) * (x - y) - x * x + y * y).is_zero()
    for divisor in (3 * x + 2 * y, Fraction(3, 2) * x - 5, 4 * x * y + Fraction(2, 3) * y):
        for quotient in (x - y, Fraction(5, 6) * y * y + 7, half * x + third):
            dividend = quotient * divisor
            q = dividend.exact_div(divisor)
            assert q.terms == fraction_quotient(dividend, divisor)
            assert q == quotient
            assert_exact_coefficients(q)


def test_inexact_division_by_a_non_unit_leading_coefficient_raises():
    from capelli.core import ExactDivisionError

    x, y = poly_vars("x", "y")
    for dividend, divisor in ((x * y + 1, 2 * x + 1), (Fraction(1, 2) * x * x, 3 * x + 1)):
        with pytest.raises(ExactDivisionError):
            dividend.exact_div(divisor)


def test_sympoly_rejects_an_exponent_vector_of_the_wrong_length():
    with pytest.raises(DimensionError, match="^exponent vector length mismatch$"):
        SymPoly(("x", "y"), {(1,): 1})
    with pytest.raises(DimensionError):
        SymPoly(("x",), {(1, 0): 1, (0,): 2})


# -- generating series in one variable ------------------------------------


def test_series_as_fraction_two_step_ladder():
    # 1 + 5/(t - 2) + 7/((t - 2)(t - 3)) over (t - 2)(t - 3):
    # (t^2 - 5t + 6) + 5(t - 3) + 7 = t^2 - 2
    num, den = series_as_fraction([Fraction(1), Fraction(5), Fraction(7)],
                                  linear_ladder([Fraction(2), Fraction(3)]))
    assert dense_trim(num) == [-2, 0, 1]
    assert den == [6, -5, 1]


def test_series_witness_at_the_truncation_bound():
    # sum_{k<=K} (r/t)^k agrees with t/(t - r) up to r^{K+1}/t^{K+1}
    # exactly: it passes at order K and fails one order above, at the
    # constant term of the cross-multiplied numerators.
    r, K = Fraction(3, 2), 4
    truncated = series_as_fraction([r ** k for k in range(K + 1)],
                                   linear_ladder([Fraction(0)] * K))
    exact = ([Fraction(0), Fraction(1)], [-r, Fraction(1)])
    assert series_witness(truncated, exact, "t", K) is None
    assert series_witness(truncated, exact, "t", K + 1) == "t^0: -243/32 != 0"
    assert series_witness(truncated, exact, "t") == "t^0: -243/32 != 0"


def defect_oracle(a, b, K):
    """The degree form of the rule, as an independent oracle: a = b +
    O(t^{-K-1}) exactly when num_a * den_b - num_b * den_a has degree at
    most deg den_a + deg den_b - (K+1); K None asks for degree -1.  Equal
    series agree to every order, also where that bound is below -1,
    which the bare degree comparison would reject."""
    (num_a, den_a), (num_b, den_b) = a, b
    lhs, rhs = dense_mul(num_a, den_b), dense_mul(num_b, den_a)
    diff = [(lhs[d] if d < len(lhs) else 0) - (rhs[d] if d < len(rhs) else 0)
            for d in range(max(len(lhs), len(rhs)))]
    degree = len(dense_trim(diff)) - 1
    if K is None:
        return degree == -1
    bound = len(dense_trim(den_a)) - 1 + len(dense_trim(den_b)) - 1 - (K + 1)
    return degree <= max(bound, -1)


def random_list(rng, degree, monic=False):
    out = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)]
    if monic or not out[-1]:
        out[-1] = Fraction(1)
    return out


def series_agreeing_to(rng, b, j):
    """b + c for a random series c of exact order t^{-j-1}, or b itself
    when j is None."""
    num_b, den_b = b
    if j is None:
        return list(num_b), list(den_b)
    c_num = random_list(rng, rng.randint(0, 2))
    c_den = random_list(rng, len(c_num) + j, monic=True)
    return (dense_add(dense_mul(num_b, c_den), dense_mul(c_num, den_b)),
            dense_mul(den_b, c_den))


@pytest.mark.parametrize("K", [*range(7), None])
def test_series_witness_agrees_with_the_degree_bound(K):
    rng = random.Random(100 + (K or 0) + 50 * (K is None))
    # c of exact order t^{-j-1}: j = -1 is a constant, and j >= K passes
    orders = [None] + ([-1, 0, 1, 2] if K is None else [j for j in range(K - 2, K + 3) if j >= -1])
    for _ in range(4):
        den_b = random_list(rng, rng.randint(1, 4), monic=True)
        b = (random_list(rng, len(den_b) - 1 + rng.randint(-1, 1)), den_b)
        for j in orders:
            a = series_agreeing_to(rng, b, j)
            expected = j is None or (K is not None and j >= K)
            assert defect_oracle(a, b, K) == expected
            for x, y in ((a, b), (b, a)):
                witness = series_witness(x, y, "t", K)
                assert (witness is None) == expected, (x, y, witness)
                assert witness is None or witness.startswith("t^")


@pytest.mark.parametrize("K", [0, 2, 5, None])
def test_series_witness_compares_elements_with_scalars(K):
    # the shape generating_functions compares: element numerators (with
    # trailing zeros) against scalar lists, the differing power alike
    from capelli.uea import LieContext, UEAElement

    one = UEAElement.scalar(LieContext("gl", 2), 1)
    rng = random.Random(7 + (K or 0))
    for j in [None, -1, 0, 1, 2, 3, 5, 6]:
        den_b = random_list(rng, rng.randint(1, 3), monic=True)
        b = (random_list(rng, len(den_b) - 1), den_b)
        num_a, den_a = series_agreeing_to(rng, b, j)
        lifted = ([one * c for c in num_a] + [one - one] * rng.randint(1, 2), den_a)
        scalar = series_witness((num_a, den_a), b, "t", K)
        for x, y in ((lifted, b), (b, lifted)):
            witness = series_witness(x, y, "t", K)
            assert (witness is None) == (scalar is None)
            assert witness is None or witness.split(":")[0] == scalar.split(":")[0]
