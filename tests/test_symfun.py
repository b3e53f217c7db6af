from fractions import Fraction
import random
import re

import pytest

from capelli import core, symfun
from capelli.core import DimensionError, SymPoly
from capelli.symfun import (
    Partition,
    PoleCollision,
    ShiftSequence,
    a_lambda,
    check_characterization,
    check_generating_series,
    e_factorial,
    eval_at,
    factorial_power,
    h_factorial,
    is_symmetric,
    partitions_with,
    schur_factorial,
    vandermonde,
    zvars,
)


SQ0 = ShiftSequence.squares(0)          # 0, 1, 4, 9, ...
SQH = ShiftSequence.squares(Fraction(1, 2))  # 1/4, 9/4, 25/4, ...


def rand_seq(rng, count=8):
    vals = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
    return ShiftSequence.from_values(sorted(vals))


def test_partition_basics():
    mu = Partition((3, 1))
    assert mu.weight() == 4 and len(mu) == 2
    assert mu[1] == 3 and mu[2] == 1 and mu[5] == 0
    assert Partition((2, 0, 0)) == Partition((2,))
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_partition_equality_with_a_foreign_object_is_false():
    mu = Partition((2, 1))
    assert mu == (2, 1, 0) and mu == [2, 1] and mu != (2,)
    assert mu != None and mu != 3 and mu != "21"  # noqa: E711
    assert mu not in [None, 3] and mu in [None, (2, 1)]


@pytest.mark.parametrize("parts", [(2.9,), (2.0,), (Fraction(2),), ("2",), (3, 1.0)])
def test_partition_rejects_parts_that_are_not_ints(parts):
    # int() would truncate 2.9 to the partition (2,)
    with pytest.raises(TypeError):
        Partition(parts)


def test_factorial_power():
    assert factorial_power(Fraction(3), SQ0, 0) == 1
    assert factorial_power(Fraction(3), SQ0, 2) == 6  # (3-0)(3-1)
    z = SymPoly.variable(("z",), "z")
    assert factorial_power(z, SQH, 1) == z - Fraction(1, 4)


def test_a_lambda_values():
    a = ShiftSequence(lambda k: Fraction(10 + k))  # a_k = 10+k, injective
    assert a_lambda(Partition(()), 2, a) == (a[2], a[1])
    assert a_lambda(Partition((1,)), 1, a) == (a[2],)
    assert a_lambda(Partition((2, 1)), 2, SQ0) == (Fraction(9), Fraction(1))
    with pytest.raises(DimensionError):
        a_lambda(Partition((1, 1)), 1, SQ0)


def test_schur_factorial_small():
    one = schur_factorial(Partition(()), 2, SQ0)
    assert one == 1
    z1, z2 = SymPoly.gens(zvars(2))
    assert schur_factorial(Partition((1, 1)), 2, SQ0) == z1 * z2


def test_vandermonde_quotient_is_made_in_int(monkeypatch):
    # the Vandermonde's leading coefficient is 1, so an integral
    # alternant divides by it without making a single Fraction
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was made")

    v = vandermonde(3)
    s = schur_factorial(Partition((2, 1)), 3, SQ0)
    alternant = s * v
    monkeypatch.setattr(core, "Fraction", NoFraction)
    q = alternant.exact_div(v)
    assert q == s
    assert q.terms and all(type(c) is int for c in q.terms.values())


def test_from_values_reads_its_list_and_no_further():
    a = ShiftSequence.from_values([Fraction(1, 2), 2, 5])
    assert a.prefix(3) == (Fraction(1, 2), 2, 5)
    with pytest.raises(IndexError):
        a[4]


def test_schur_zero_sequence_is_ordinary_schur():
    # against the classical bialternant for mu=(2,1), n=2
    z1, z2 = SymPoly.gens(zvars(2))
    s21 = schur_factorial(Partition((2, 1)), 2, ShiftSequence.zeros())
    assert s21 == z1 * z2 * (z1 + z2)


def test_schur_lower_order_terms():
    rng = random.Random(1)
    for _ in range(3):
        a = rand_seq(rng)
        for mu in [Partition((2,)), Partition((2, 1)), Partition((1, 1))]:
            s = schur_factorial(mu, 2, a)
            s0 = schur_factorial(mu, 2, ShiftSequence.zeros())
            diff = s - s0
            assert diff.is_zero() or diff.total_degree() < mu.weight()


def test_e_h_factorial_explicit():
    z1, z2 = SymPoly.gens(zvars(2))
    assert e_factorial(0, 2, SQ0) == 1
    assert e_factorial(2, 2, SQ0) == z1 * z2  # (z1-a1)(z2-a1), a1=0
    assert e_factorial(3, 2, SQ0).is_zero()
    (z1_,) = SymPoly.gens(zvars(1))
    expected = (z1_ - SQ0[1]) * (z1_ - SQ0[2])
    assert h_factorial(2, 1, SQ0) == expected
    assert h_factorial(0, 1, SQ0) == 1


def test_e_h_agree_with_schur_rows_and_columns():
    rng = random.Random(2)
    for n in (1, 2, 3):
        a = rand_seq(rng, count=n + 5)
        for k in range(0, n + 2):
            ek = e_factorial(k, n, a)
            if k <= n:
                assert ek == schur_factorial(Partition((1,) * k), n, a)
            else:
                assert ek.is_zero()
        for k in range(0, 4):
            assert h_factorial(k, n, a) == schur_factorial(Partition((k,)), n, a)


def test_e_h_symmetric():
    rng = random.Random(3)
    a = rand_seq(rng)
    for n in (2, 3):
        for k in (1, 2, 3):
            assert is_symmetric(e_factorial(k, n, a), n)
            assert is_symmetric(h_factorial(k, n, a), n)


def test_schur_vanishing_grid():
    # s_mu(a_lambda|a)=0 when some lambda_k < mu_k, nonzero at lambda=mu
    rng = random.Random(4)
    a = rand_seq(rng, count=10)
    n = 2
    for mu in partitions_with(n, max_weight=4):
        s = schur_factorial(mu, n, a)
        for lam in partitions_with(n, max_weight=4):
            val = eval_at(s, a_lambda(lam, n, a))
            if any(lam[k] < mu[k] for k in (1, 2)):
                assert val == 0, (mu, lam)
        assert eval_at(s, a_lambda(mu, n, a)) != 0


def test_check_characterization():
    a = SQH
    n, mu = 2, Partition((2,))
    s = schur_factorial(mu, n, a)
    assert check_characterization(s, mu, n, a) == (True, True, True)
    assert check_characterization(2 * s, mu, n, a) == (True, True, True)
    nu = Partition((1, 1))
    s_nu = schur_factorial(nu, n, a)
    assert check_characterization(s_nu, mu, n, a) == (False, False, False)
    with pytest.raises(DimensionError):
        z1 = SymPoly.variable(zvars(2), "z1")
        check_characterization(z1, mu, n, a)


def test_generating_series_n1_hand_expansion():
    # one variable: (t-z1)/(t-a1) = 1 + (a1-z1)/(t-a1), e_1 = z1-a1
    assert check_generating_series(1, 3, SQ0, [Fraction(5, 2)]) is None


def test_generating_series_random():
    rng = random.Random(6)
    for n in (1, 2):
        a = rand_seq(rng, count=n + 8)
        for _ in range(3):
            z = [Fraction(rng.randint(20, 60), rng.randint(1, 3)) for _ in range(n)]
            assert check_generating_series(n, 4, a, z) is None


@pytest.mark.parametrize("family, k", [("e_factorial", 2), ("h_factorial", 3)])
def test_generating_series_rejects_a_perturbed_coefficient(monkeypatch, family, k):
    # the witness names the side that fails and the power of t at which
    # the cross-multiplied numerators differ
    side = {"e_factorial": "e-side", "h_factorial": "h-side"}[family]
    exact = getattr(symfun, family)

    def perturbed(j, n, a):
        p = exact(j, n, a)
        return p * Fraction(101, 100) if j == k else p

    z = [Fraction(7, 3), Fraction(11, 2)]
    assert check_generating_series(2, 4, SQH, z) is None
    monkeypatch.setattr(symfun, family, perturbed)
    witness = check_generating_series(2, 4, SQH, z)
    assert witness is not None and re.match(rf"^{side}: t\^\d+: -?\d+(/\d+)? != ", witness), witness


def test_generating_series_pole_collision():
    with pytest.raises(PoleCollision):
        check_generating_series(1, 2, SQ0, [SQ0[1]])


def test_partitions_with_enumeration():
    got = {p.parts for p in partitions_with(2, max_weight=3)}
    assert got == {(), (1,), (2,), (3,), (1, 1), (2, 1)}
