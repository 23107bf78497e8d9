from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from powerdex.interaction import _signed_weights
from powerdex.interpolation import _lagrange, vandermonde_solve

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

# the z- and y-axes of a non-default bivariate grid
GRID_AXES = (
    [Fraction(1, 2), Fraction(2), Fraction(9, 4)],
    [Fraction(0), Fraction(5, 3), Fraction(3)],
)


def newton_solve(nodes, values):
    """Power-basis coefficients by Newton divided differences (the reference)."""
    n = len(nodes)
    dd = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # coefficients of prod_{t<i} (x - nodes[t])
    for i in range(n):
        for t, b in enumerate(basis):
            coeffs[t] += dd[i] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for t, b in enumerate(basis):
            nxt[t + 1] += b
            nxt[t] -= nodes[i] * b
        basis = nxt
    return tuple(coeffs)


@st.composite
def nodes_weights_values(draw):
    nodes = draw(st.lists(rationals, min_size=1, max_size=7, unique=True))
    n = len(nodes)
    weights = draw(st.lists(rationals, min_size=n, max_size=n))
    values = draw(st.lists(rationals, min_size=n, max_size=n))
    return nodes, weights, values


@given(nodes_weights_values())
@example((GRID_AXES[0], [Fraction(1), Fraction(-2), Fraction(3, 7)], [Fraction(5), Fraction(-1, 3), Fraction(2)]))
@example((GRID_AXES[1], [Fraction(1), Fraction(-1), Fraction(1)], [Fraction(4, 9), Fraction(7), Fraction(-6)]))
def test_the_integer_solve_equals_newton_and_passes_through_its_points(case):
    nodes, weights, values = case
    coefficients = vandermonde_solve(nodes, values)
    assert coefficients == newton_solve(nodes, values)
    # several rows share one denominator and give the same coefficients
    rows, den = _lagrange(nodes, [weights, values])
    assert [tuple(Fraction(c, den) for c in row) for row in rows] == [
        newton_solve(nodes, weights),
        coefficients,
    ]
    for x, v in zip(nodes, values):
        assert sum((c * x**k for k, c in enumerate(coefficients)), Fraction(0)) == v


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=12), min_size=1, max_size=8, unique=True))
@example(GRID_AXES[0])
@example(GRID_AXES[1])
def test_the_signed_weights_sum_each_power_to_its_sign(nodes):
    # sum_j (-1)^m l_j(-1) y_j^k = (-1)^(m-k) for every k <= m
    m = len(nodes) - 1
    weights = _signed_weights(nodes)
    for k in range(m + 1):
        assert sum((w * y**k for w, y in zip(weights, nodes)), Fraction(0)) == (-1) ** (m - k)
