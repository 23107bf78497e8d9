"""Recovering the plain expectation from a per-feature index oracle.

For any cardinality-based scheme with q_0 > 0, summing the n indices
computed under the z-mixture distribution gives one linear constraint on
the size-partitioned sums of conditional expectations; n constraints at
distinct positive nodes pin them all down, and the size-0 sum is E[F].
Which nodes does not change the answer, so they are fixed: z = 1..n.
The constraint polynomials are built from the signed weight differences
beta_k = k*q_{k-1} - (n-k)*q_k.  For l < n, P_l has degree l and top
coefficient (l-n)*sum_{k<=l} C(l,k)*q_k < 0, so the system is Vandermonde
times upper triangular: one interpolation, then back-substitution.

The upper-triangular matrix C of the coefficients of P_0..P_n depends
only on the weights, so a system builds it once, as integers over one
denominator.  The recovery then runs in integers: the theta sums, the
right-hand side at each node, and a fraction-free back-substitution, with
one Fraction per unknown at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Sequence

from .core import (
    Instance,
    PowerdexError,
    ProductDistribution,
    as_rational,
    mixture_distribution,
)
from .indices import SimpleWeights, attribute_all
from .interpolation import _lagrange
from .models import Model


class ConverseInapplicableError(PowerdexError):
    """The weight vector does not support the expectation recovery."""


IndexOracle = Callable[[ProductDistribution], Sequence[Fraction]]


@dataclass(frozen=True)
class ConverseSystem:
    """The recovery system for one weight vector: betas and the query nodes 1..n.

    ``nodes`` holds 1..n as Fractions.  The matrix C of the constraint
    polynomials' coefficients is built once, here, and read by ``eval_P``,
    ``polynomial_coefficients`` and the recovery."""

    weights: SimpleWeights
    nodes: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __init__(self, weights: SimpleWeights):
        n = weights.n
        q = (Fraction(0),) + weights.q + (Fraction(0),)  # pad q_{-1} and q_n
        beta = tuple(
            k * q[k] - (n - k) * q[k + 1] for k in range(n + 1)
        )  # q[k] is q_{k-1} after the pad
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "nodes", tuple(Fraction(z) for z in range(1, n + 1)))
        object.__setattr__(self, "beta", beta)
        # C as integer rows over one denominator; not fields, so equality,
        # hashing and repr see weights, nodes and beta alone
        rows, den = _constraint_table(beta)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_den", den)

    @property
    def n(self) -> int:
        return self.weights.n


def _constraint_table(
    beta: Sequence[Fraction],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The power-basis coefficients of P_0..P_n as integers over one denominator.

    P_l(z) = sum_{k<=l} C(l,k) beta_k (1+z)^k z^(l-k); with beta_k = B_k/D
    over the lcm D of their denominators, row l holds D times the
    coefficients of P_l, degree 0..l.
    """
    den = lcm(*(b.denominator for b in beta))
    scaled = [b.numerator * (den // b.denominator) for b in beta]
    rows = []
    for ell in range(len(beta)):
        coeffs = [0] * (ell + 1)
        for k in range(ell + 1):
            b = scaled[k]
            if not b:
                continue
            c = comb(ell, k) * b
            # (1+z)^k z^(ell-k) contributes to degrees ell-k .. ell
            for t in range(k + 1):
                coeffs[ell - k + t] += c * comb(k, t)
        rows.append(tuple(coeffs))
    return tuple(rows), den


def _table_row(system: ConverseSystem, ell: int) -> tuple[int, ...]:
    n = system.n
    if not 0 <= ell <= n:
        raise ValueError(f"polynomial index {ell} outside 0..{n}")
    return system._rows[ell]


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    # b^deg * p(a/b) for the integer coefficients of p, by Horner's rule
    total, scale = 0, 1
    for c in reversed(coeffs):
        total = total * a + c * scale
        scale *= b
    return total


def eval_P(system: ConverseSystem, ell: int, z: Fraction) -> Fraction:
    """Evaluate the ell-th constraint polynomial at z, from the system's integer table."""
    coeffs = _table_row(system, ell)
    z = as_rational(z)
    a, b = z.numerator, z.denominator
    return Fraction(_homogeneous(coeffs, a, b), b**ell * system._den)


def polynomial_coefficients(system: ConverseSystem, ell: int) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the ell-th constraint polynomial (degree index 0..ell).

    Read from the integer table the system builds once."""
    return tuple(Fraction(c, system._den) for c in _table_row(system, ell))


@dataclass(frozen=True)
class ConverseDiagnostics:
    """Everything needed to localize a failed recovery."""

    expected_value: Fraction
    coefficients: tuple[Fraction, ...]  # size-partitioned sums, index 0..n
    theta_samples: tuple[Fraction, ...]  # summed indices at each node
    nodes: tuple[Fraction, ...]


def recover_expectation_detailed(
    system: ConverseSystem,
    oracle: IndexOracle,
    dist: ProductDistribution,
    e: Instance,
    model_at_e: Fraction,
) -> ConverseDiagnostics:
    """Query the oracle at the mixture nodes and solve for all coefficients.

    ``model_at_e`` supplies the known top coefficient (the prediction at
    the explained instance); the oracle must compute indices under the
    same weight vector as the system, and each of its n answers must be a
    rational (``as_rational``), or ValueError names it.
    """
    weights = system.weights
    if weights.q[0] <= 0:
        raise ConverseInapplicableError(
            "converse reduction inapplicable: it requires q_0 > 0"
        )
    n = system.n
    rows, den = system._rows, system._den
    c_n = as_rational(model_at_e)
    c_num, c_den = c_n.numerator, c_n.denominator
    thetas, rhs = [], []
    for z in range(1, n + 1):
        answers = list(oracle(mixture_distribution(dist, e, z)))
        if len(answers) != n:
            raise ValueError(f"oracle returned {len(answers)} indices for n={n}")
        answers = [as_rational(v) for v in answers]  # ValueError names a non-rational
        common = lcm(*(v.denominator for v in answers))
        theta = sum(v.numerator * (common // v.denominator) for v in answers)
        thetas.append(Fraction(theta, common))
        # (1+z)^n * theta - c_n * P_n(z), over common * c_den * den
        rhs.append(
            Fraction(
                (1 + z) ** n * theta * c_den * den - c_num * _homogeneous(rows[n], z, 1) * common,
                common * c_den * den,
            )
        )
    # rhs interpolates sum_{l<n} c_l P_l; peel off the P_l from the top.
    # With P_l = rows[l] / den, the rest after each step is rest / scale:
    # c_l = rest[l] / (scale * pivot), and the other entries are multiplied
    # by the pivot rather than divided, so they stay integers.
    (rest,), scale = _lagrange(system.nodes, [rhs])
    rest = [r * den for r in rest]
    solved = [Fraction(0)] * n
    for ell in range(n - 1, -1, -1):
        coeffs = rows[ell]
        pivot = coeffs[ell]  # < 0 as q_0 > 0
        top = rest[ell]
        solved[ell] = Fraction(top, scale * pivot)
        for k in range(ell):
            rest[k] = rest[k] * pivot - top * coeffs[k]
        scale *= pivot
    return ConverseDiagnostics(
        expected_value=solved[0],
        coefficients=tuple(solved) + (c_n,),
        theta_samples=tuple(thetas),
        nodes=system.nodes,
    )


def recover_expectation(
    system: ConverseSystem,
    oracle: IndexOracle,
    dist: ProductDistribution,
    e: Instance,
    model_at_e: Fraction,
) -> Fraction:
    """E[F] recovered purely from per-feature index queries plus F(e)."""
    return recover_expectation_detailed(system, oracle, dist, e, model_at_e).expected_value


def index_engine_oracle(
    model: Model, e: Instance, weights: SimpleWeights
) -> IndexOracle:
    """An index oracle backed by this library's own interpolation engine."""
    untagged = SimpleWeights(weights.n, weights.q)  # no preset: always interpolates

    def oracle(dist: ProductDistribution) -> list[Fraction]:
        return list(attribute_all(model, dist, e, untagged).values)

    return oracle
