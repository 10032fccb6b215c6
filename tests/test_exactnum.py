import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    RationalFunction,
    bar,
    complex_value,
    cyclo_inverse,
    cyclo_one,
    cyclo_pow,
    cyclo_zero,
    cyclotomic_polynomial,
    embed_cyclo,
    evaluate,
    even_parity,
    exact_divide,
    from_pairs,
    poly_divmod,
    root_of_unity,
    shift,
    stretch,
    two_cos_pi_over,
)

from coxcells.errors import InternalInconsistencyError, UsageError
from coxcells.exactnum import (
    LaurentPoly,
    cyclo_rational,
    is_palindromic,
)


# ---------------------------------------------------------------------------
# cyclotomic numbers


# field axioms of Q(zeta_M) as properties, on sums of roots of unity with
# small rational coefficients

_CONDUCTORS = (5, 12, 24, 60)


def _cyclo_numbers(order: int, count: int):
    term = st.tuples(
        st.integers(min_value=0, max_value=order - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    number = st.lists(term, max_size=5).map(lambda terms: sum(
        (c * root_of_unity(order, k) for k, c in terms),
        cyclo_rational(order, 0),
    ))
    return st.tuples(*[number] * count)


_triples = st.sampled_from(_CONDUCTORS).flatmap(
    lambda order: _cyclo_numbers(order, 3))


@given(_triples)
def test_cyclo_ring_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - x == 0 and x * 1 == x


@given(_triples)
def test_cyclo_multiplicative_inverse(xyz):
    x, y, _ = xyz
    if x:
        assert x * cyclo_inverse(x) == 1
        assert (y * cyclo_inverse(x)) * x == y


@given(_triples)
def test_conjugate_is_ring_automorphism(xyz):
    x, y, _ = xyz
    one = cyclo_rational(x.ctx.order, 1)
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert one.conjugate() == one
    assert x.conjugate().conjugate() == x


def test_golden_ratio_relation():
    # 2*cos(2*pi/5) = zeta5 + zeta5^4 is a root of x^2 + x - 1
    g = root_of_unity(5, 1) + root_of_unity(5, 4)
    assert g * g + g == cyclo_one(5)
    assert g * g + g - 1 == cyclo_zero(5) + 0  # also reachable by subtraction


def test_two_cos_values():
    assert two_cos_pi_over(6, 3) == 1          # 2cos(pi/3)
    assert cyclo_pow(two_cos_pi_over(8, 4), 2) == 2  # 2cos(pi/4) = sqrt(2)
    assert two_cos_pi_over(60, 2) == 0
    g = two_cos_pi_over(10, 5)                 # golden ratio
    assert g * g == g + 1
    # odd m embeds without needing zeta_{2m}
    g5 = two_cos_pi_over(5, 5)
    assert g5 * g5 == g5 + 1
    import math

    assert abs(complex_value(g5) - 2 * math.cos(math.pi / 5)) < 1e-9
    g7 = two_cos_pi_over(7, 7)
    assert abs(complex_value(g7) - 2 * math.cos(math.pi / 7)) < 1e-9
    assert two_cos_pi_over(3, 3) == 1


def test_root_of_unity_order():
    z = root_of_unity(12, 1)
    assert cyclo_pow(z, 12) == 1
    assert cyclo_pow(z, 6) == -1
    assert all(cyclo_pow(z, k) != 1 for k in range(1, 12))


def test_inverse_and_conjugate():
    z = root_of_unity(7, 3)
    x = 2 * z + cyclo_pow(z, 2) - cyclo_rational(7, Fraction(1, 3))
    assert x * cyclo_inverse(x) == 1
    assert cyclo_inverse(cyclo_rational(7, -3)) == Fraction(-1, 3)
    assert x.conjugate().conjugate() == x
    # norm x * conj(x) must equal |x|^2 numerically
    n = x * x.conjugate()
    approx = abs(complex_value(x)) ** 2
    assert abs(complex_value(n) - approx) < 1e-9


def test_complex_embeddings_respect_arithmetic():
    rng = random.Random(901)
    for m in (5, 8, 12, 60):
        for _ in range(5):
            a = sum(
                (rng.randrange(-3, 4) * root_of_unity(m, k) for k in range(4)),
                cyclo_zero(m),
            )
            b = sum(
                (rng.randrange(-3, 4) * root_of_unity(m, k) for k in range(4)),
                cyclo_zero(m),
            )
            for emb in range(1, m):
                from math import gcd

                if gcd(emb, m) != 1:
                    continue
                lhs = complex_value(a * b, emb)
                rhs = complex_value(a, emb) * complex_value(b, emb)
                assert abs(lhs - rhs) < 1e-9


def test_conductor_mismatch_rejected():
    with pytest.raises(UsageError):
        root_of_unity(5, 1) + root_of_unity(7, 1)
    with pytest.raises(UsageError):
        two_cos_pi_over(10, 4)  # zeta_8 does not live in Q(zeta_10)


def test_embed_into_larger_conductor():
    g = root_of_unity(5, 1) + root_of_unity(5, 4)
    h = embed_cyclo(g, 60)
    assert h == root_of_unity(60, 12) + root_of_unity(60, 48)
    assert abs(complex_value(h) - complex_value(g)) < 1e-9
    # rationals ride along unchanged, same-conductor embedding is identity
    assert embed_cyclo(cyclo_rational(3, Fraction(5, 2)), 12).as_fraction() == Fraction(5, 2)
    assert embed_cyclo(g, 5) == g
    with pytest.raises(UsageError):
        embed_cyclo(g, 12)


def test_rational_detection_and_hash():
    x = root_of_unity(5, 1) + root_of_unity(5, 2) + root_of_unity(5, 3) + root_of_unity(5, 4)
    assert x == -1            # full sum of nontrivial 5th roots
    assert x.is_rational() and x.is_integer()
    assert hash(x) == hash(-1)
    assert cyclo_rational(5, Fraction(3, 2)).as_fraction() == Fraction(3, 2)


def test_render_stable():
    g = root_of_unity(5, 1) + root_of_unity(5, 4)
    assert g.render() == "-1 - z5^2 - z5^3"  # zeta^4 reduces into the basis
    assert cyclo_rational(5, -2).render() == "-2"


# ---------------------------------------------------------------------------
# Laurent polynomials


def v_poly(*pairs):
    return from_pairs(pairs, var="v")


def test_basic_laurent_arithmetic():
    p = LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)  # v + v^-1
    sq = p * p
    assert sq == v_poly((2, 1), (0, 2), (-2, 1))
    assert sq.render() == "v^-2 + 2 + v^2"
    assert (p - p).is_zero()
    assert bar(p) == p
    assert evaluate(p, Fraction(2)) == Fraction(5, 2)
    assert p.at_one() == 2


def test_variable_mismatch_rejected():
    with pytest.raises(UsageError):
        LaurentPoly.monomial(1, var="v") * LaurentPoly.monomial(1, var="X")


def test_shift_stretch_valuation():
    p = v_poly((0, 1), (1, 2), (3, -1))
    assert shift(p, 2).valuation() == 2
    assert stretch(p, 2) == v_poly((0, 1), (2, 2), (6, -1))
    assert p.degree() == 3
    with pytest.raises(UsageError):
        LaurentPoly.zero().valuation()


def test_even_parity():
    assert even_parity(v_poly((0, 3), (2, 1), (-4, 2)))
    assert not even_parity(v_poly((0, 3), (1, 1)))
    assert even_parity(LaurentPoly.zero())


def test_palindromic_witness():
    X = LaurentPoly.monomial(1, var="X")
    one = LaurentPoly.constant(1, var="X")
    assert is_palindromic(X + X * X) == 3
    assert is_palindromic(one + X + X * X) == 2
    assert is_palindromic(one + X * X) == 2
    assert is_palindromic(one + X) == 1
    assert is_palindromic(one + X + X * X * X) is None
    with pytest.raises(UsageError):
        is_palindromic(LaurentPoly.zero("X"))


def test_exact_divide_poincare_small():
    # product form (1+X)(1+X+X^2) = 1 + 2X + 2X^2 + X^3 divides back out exactly
    X = LaurentPoly.monomial(1, var="X")
    one = LaurentPoly.constant(1, var="X")
    num = one + 2 * X + 2 * stretch(X, 2) + stretch(X, 3)
    assert exact_divide(num, one + X) == one + X + stretch(X, 2)
    with pytest.raises(InternalInconsistencyError):
        exact_divide(one + stretch(X, 2), one + X + stretch(X, 2))


def test_exact_divide_roundtrip_randomized():
    rng = random.Random(31415)
    for trial in range(1000):
        var = "v" if trial % 2 else "X"

        def rand_poly():
            n = rng.randrange(1, 6)
            d = {}
            for _ in range(n):
                d[rng.randrange(-4, 7)] = rng.randrange(-5, 6) or 1
            return LaurentPoly(d, var)

        a, b = rand_poly(), rand_poly()
        if not a or not b:
            continue
        assert exact_divide(a * b, b) == a


def test_exact_divide_with_cyclo_coeffs():
    g = two_cos_pi_over(10, 5)
    p = LaurentPoly({0: g, 1: 1}, var="v")
    q = LaurentPoly({0: 1, 2: g}, var="v")
    assert exact_divide(p * q, p) == q
    # an irrational leading coefficient would need an irrational inverse,
    # which the engine never takes
    with pytest.raises(InternalInconsistencyError):
        exact_divide(p * q, q)


def test_poly_divmod():
    X = LaurentPoly.monomial(1, var="X")
    one = LaurentPoly.constant(1, var="X")
    q, r = poly_divmod(stretch(X, 3) + one, X + one)
    assert q == stretch(X, 2) - X + one and r.is_zero()
    q, r = poly_divmod(stretch(X, 2) + one, X + one)
    assert r == 2 * one
    with pytest.raises(UsageError):
        poly_divmod(LaurentPoly.monomial(-1, var="X"), X)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1).render() == "-1 + X"
    assert cyclotomic_polynomial(2).render() == "1 + X"
    assert cyclotomic_polynomial(6).render() == "1 - X + X^2"
    assert cyclotomic_polynomial(12).render() == "1 - X^2 + X^4"
    # product of Phi_d over d | n reassembles X^n - 1
    for n in (6, 10, 12, 30):
        prod = LaurentPoly.constant(1, "X")
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == LaurentPoly({0: -1, n: 1}, "X")


# ---------------------------------------------------------------------------
# rational functions


def test_rational_function_sum_closes_to_poly():
    X = LaurentPoly.monomial(1, var="X")
    one = LaurentPoly.constant(1, var="X")
    # 1/(1-X) + 1/(1+X) = 2/(1-X^2)
    f = RationalFunction(one, one - X) + RationalFunction(one, one + X)
    assert f == RationalFunction(2 * one, one - stretch(X, 2))
    # (1-X^2) * f closes exactly to the constant 2
    g = f * RationalFunction.from_poly(one - stretch(X, 2))
    assert g.as_poly() == 2 * one


def test_rational_function_zero_denominator():
    one = LaurentPoly.constant(1, var="X")
    with pytest.raises(UsageError):
        RationalFunction(one, LaurentPoly.zero("X"))
