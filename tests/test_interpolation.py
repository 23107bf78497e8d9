from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from powerdex.interpolation import vandermonde_dual, vandermonde_solve

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def nodes_weights_values(draw):
    nodes = draw(st.lists(rationals, min_size=1, max_size=7, unique=True))
    n = len(nodes)
    weights = draw(st.lists(rationals, min_size=n, max_size=n))
    values = draw(st.lists(rationals, min_size=n, max_size=n))
    return nodes, weights, values


@given(nodes_weights_values())
# the z- and y-axes of a non-default bivariate grid
@example(([Fraction(1, 2), Fraction(2), Fraction(9, 4)], [Fraction(1), Fraction(-2), Fraction(3, 7)], [Fraction(5), Fraction(-1, 3), Fraction(2)]))
@example(([Fraction(0), Fraction(5, 3), Fraction(3)], [Fraction(1), Fraction(-1), Fraction(1)], [Fraction(4, 9), Fraction(7), Fraction(-6)]))
def test_dual_weights_match_weighted_interpolated_coefficients(case):
    nodes, weights, values = case
    dual = vandermonde_dual(nodes, weights)
    coefficients = vandermonde_solve(nodes, values)
    assert sum(
        (u * v for u, v in zip(dual, values)), Fraction(0)
    ) == sum((q * c for q, c in zip(weights, coefficients)), Fraction(0))
