"""The integer and prime-field arithmetic against the division-based
references in oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import _cyclotomic_coeffs, _dense_divmod, _dense_mul

from coxcells.coxeter import group_datum
from coxcells.errors import InternalInconsistencyError, UsageError
from coxcells.modp import cyclotomic, div_one_minus, mul_one_minus

# every type symbol the tests build a group or a datum for
_TYPES = (
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5", "E6",
     "E7", "E8", "F4", "H3", "H4", "I2(60)", "I2(100)"]
    + [f"I2({m})" for m in range(3, 31)]
)


def test_cyclotomic_matches_the_division_reference():
    for n in range(1, 1001):
        assert cyclotomic(n) == _cyclotomic_coeffs(n), n


@pytest.mark.parametrize("symbol", _TYPES)
def test_cyclotomic_at_each_tested_conductor(symbol):
    datum = group_datum(symbol)
    for m in (datum.conductor, datum.refl_conductor):
        assert cyclotomic(m) == _cyclotomic_coeffs(m)


def test_cyclotomic_index_must_be_positive():
    with pytest.raises(UsageError):
        cyclotomic(0)


def _one_minus(d):
    return [1] + [0] * (d - 1) + [-1]


@given(st.lists(st.integers(-9, 9), max_size=12), st.integers(1, 7))
def test_one_minus_product_and_quotient(c, d):
    # in place, the product keeps c's trailing zeros and the quotient
    # gives c back as it was
    prod = list(c)
    mul_one_minus(prod, d)
    assert len(prod) == len(c) + d
    while prod and not prod[-1]:
        prod.pop()
    assert prod == _dense_mul(c, _one_minus(d))
    prod += [0] * (len(c) + d - len(prod))
    div_one_minus(prod, d)
    assert prod == c


@pytest.mark.parametrize("c, d", [([1, 1], 2), ([1, 0, 0, 1], 1),
                                  ([1, 0, 0, -1, 0, 1], 3), ([5], 1)])
def test_dividing_with_a_remainder_raises(c, d):
    # the reference agrees that 1 - X^d leaves a remainder
    assert _dense_divmod(c, _one_minus(d))[1]
    with pytest.raises(InternalInconsistencyError):
        div_one_minus(c, d)
