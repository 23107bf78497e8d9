"""Exact polynomial interpolation over rationals.

Every polynomial solve is one integer Lagrange solve (``_lagrange``),
whose coefficients share one denominator; ``vandermonde_solve`` returns
them as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .core import PowerdexError


class SingularSystemError(PowerdexError):
    """A linear system expected to be nonsingular turned out not to be."""


def vandermonde_solve(
    nodes: Sequence[Fraction], values: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the polynomial through (nodes[i], values[i])."""
    (coeffs,), den = _lagrange(nodes, [values])
    return tuple(Fraction(c, den) for c in coeffs)


def _lagrange(
    nodes: Sequence[Fraction], rows: Sequence[Sequence[Fraction]], power: int = 0
) -> tuple[list[list[int]], int]:
    """Per row of values v, the coefficients of the polynomial through (x, x^power v).

    The coefficients of every row come as integers over one common
    denominator.  This is the Lagrange form in integers: with nodes X_i/S
    for integers X_i, the basis polynomial of node i in t = S*x is
    M_i(t) / d_i, M_i the master polynomial prod_j (t - X_j) divided by
    (t - X_i) and d_i the integer prod_{j != i} (X_i - X_j).  Each scaled
    value over its d_i is one Fraction, and coefficient k is scaled back
    by S^k: O(n^2) integer operations per row.
    """
    n = len(nodes)
    if any(len(row) != n for row in rows):
        raise ValueError("node and value counts differ")
    if len(set(nodes)) != n:
        raise ValueError("interpolation nodes must be distinct")
    nodes = [Fraction(x) for x in nodes]
    scale = lcm(*(x.denominator for x in nodes))
    xs = [x.numerator * (scale // x.denominator) for x in nodes]
    master = [1]  # coefficients of prod_t (t - xs[t])
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for t, b in enumerate(master):
            nxt[t + 1] += b
            nxt[t] -= x * b
        master = nxt
    columns = [[0] * n for _ in range(n)]  # columns[k][i]: [t^k] M_i
    ups, downs = [], []  # x_i^power / d_i
    for i, x in enumerate(xs):
        # synthetic division of the master polynomial by (t - x), top down
        carry = 0
        for k in range(n, 0, -1):
            carry = master[k] + x * carry
            columns[k - 1][i] = carry
        d = scale**power
        for j, other in enumerate(xs):
            if j != i:
                d *= x - other
        ups.append(x**power)
        downs.append(d)
    weighted = [
        [Fraction(v.numerator * u, v.denominator * d) for v, u, d in zip(row, ups, downs)]
        for row in rows
    ]
    common = lcm(*(r.denominator for row in weighted for r in row))
    out = []
    for row in weighted:
        cs = [r.numerator * (common // r.denominator) for r in row]
        out.append([sum(map(mul, cs, column)) * scale**k for k, column in enumerate(columns)])
    return out, common


def solve_linear_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Solve a square rational system exactly by Gaussian elimination.

    No library path calls it; the tests check the converse against it."""
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
