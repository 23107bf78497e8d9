"""Exact polynomial interpolation and linear solving over rationals."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import PowerdexError


class SingularSystemError(PowerdexError):
    """A linear system expected to be nonsingular turned out not to be."""


def vandermonde_solve(
    nodes: Sequence[Fraction], values: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the polynomial through (nodes[i], values[i]).

    Newton divided differences followed by basis expansion: O(n^2) exact
    operations, no pivoting needed since the nodes are distinct.
    """
    n = len(nodes)
    if len(values) != n:
        raise ValueError("node and value counts differ")
    if len(set(nodes)) != n:
        raise ValueError("interpolation nodes must be distinct")
    dd = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # coefficients of prod_{t<i} (x - nodes[t])
    for i in range(n):
        for t, b in enumerate(basis):
            coeffs[t] += dd[i] * b
        if i + 1 < n:
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, b in enumerate(basis):
                nxt[t + 1] += b
                nxt[t] -= nodes[i] * b
            basis = nxt
    return tuple(coeffs)


def vandermonde_dual(
    nodes: Sequence[Fraction], weights: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """The vector u = V^-T w for the Vandermonde matrix V of the nodes.

    For every value vector v, sum_i u_i * v_i equals
    sum_k w_k * vandermonde_solve(nodes, v)[k], so a fixed weighted sum of
    interpolated coefficients becomes one dot product with the sampled
    values.  u_i is sum_k w_k [x^k] L_i(x), with L_i the Lagrange basis
    polynomial of node i: O(n^2) operations.
    """
    n = len(nodes)
    if len(weights) != n:
        raise ValueError("node and weight counts differ")
    if len(set(nodes)) != n:
        raise ValueError("interpolation nodes must be distinct")
    # With nodes X/D for integers X, V = V_X diag(D^-k), so u = V_X^-T (w_k D^k):
    # everything below is integer arithmetic over one common denominator
    # until the last division.
    nodes = [Fraction(x) for x in nodes]
    scale = lcm(*(x.denominator for x in nodes))
    xs = [x.numerator * (scale // x.denominator) for x in nodes]
    scaled = [Fraction(w) * scale**k for k, w in enumerate(weights)]
    common = lcm(*(w.denominator for w in scaled))
    ws = [w.numerator * (common // w.denominator) for w in scaled]
    master = [1]  # coefficients of prod_t (x - xs[t])
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for t, b in enumerate(master):
            nxt[t + 1] += b
            nxt[t] -= x * b
        master = nxt
    dual = []
    for i, x in enumerate(xs):
        # synthetic division of the master polynomial by (t - x), top down
        carry = 0
        numerator = 0
        for k in range(n, 0, -1):
            carry = master[k] + x * carry
            numerator += ws[k - 1] * carry
        denominator = common
        for j, other in enumerate(xs):
            if j != i:
                denominator *= x - other
        dual.append(Fraction(numerator, denominator))
    return tuple(dual)


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Solve a square rational system exactly by Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / inv
            if factor == 0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    solution = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n]
        for c in range(r + 1, n):
            acc -= a[r][c] * solution[c]
        solution[r] = acc / a[r][r]
    return tuple(solution)
