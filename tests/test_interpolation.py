import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerdex.interpolation import (
    SingularSystemError,
    _lagrange,
    solve_linear_system,
    vandermonde_solve,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)

# fractional and zero nodes, which the public vandermonde_solve accepts
FRACTION_NODES = (
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


@given(nodes_weights_values(), st.integers(min_value=0, max_value=4))
@example((FRACTION_NODES[0], [Fraction(1), Fraction(-2), Fraction(3, 7)], [Fraction(5), Fraction(-1, 3), Fraction(2)]), 0)
@example((FRACTION_NODES[1], [Fraction(1), Fraction(-1), Fraction(1)], [Fraction(4, 9), Fraction(7), Fraction(-6)]), 3)
def test_the_integer_solve_equals_newton_and_passes_through_its_points(case, power):
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
    # with a power, through (x, x^power v)
    (row,), den = _lagrange(nodes, [values], power)
    assert tuple(Fraction(c, den) for c in row) == newton_solve(nodes, [x**power * v for x, v in zip(nodes, values)])


def test_the_gaussian_solve_satisfies_its_system():
    rng = random.Random(71)
    for n in range(1, 8):
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        for i in range(n):  # diagonally dominant, so nonsingular
            matrix[i][i] = 1 + sum(abs(v) for v in matrix[i])
        rhs = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
        solution = solve_linear_system(matrix, rhs)
        assert len(solution) == n
        for row, b in zip(matrix, rhs):
            assert sum((a * x for a, x in zip(row, solution)), Fraction(0)) == b


def test_the_gaussian_solve_rejects_a_singular_matrix():
    matrix = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularSystemError, match="^matrix is singular$"):
        solve_linear_system(matrix, [Fraction(1), Fraction(2)])


def test_the_gaussian_solve_rejects_a_non_square_system():
    with pytest.raises(ValueError, match="not square"):
        solve_linear_system([[Fraction(1), Fraction(2)]], [Fraction(1)])
    with pytest.raises(ValueError, match="not square"):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])


@pytest.mark.parametrize(
    "nodes, rows, message",
    [
        ([Fraction(0), Fraction(1)], [[Fraction(1)]], "node and value counts differ"),
        ([Fraction(2), Fraction(2)], [[Fraction(1), Fraction(3)]], "interpolation nodes must be distinct"),
    ],
    ids=["counts", "repeated-node"],
)
def test_lagrange_rejects_a_malformed_system(nodes, rows, message):
    with pytest.raises(ValueError) as excinfo:
        _lagrange(nodes, rows)
    assert str(excinfo.value) == message
