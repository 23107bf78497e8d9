"""Recovering the plain expectation from a per-feature index oracle.

For any cardinality-based scheme with q_0 > 0, summing the n indices
computed under the z-mixture distribution gives one linear constraint on
the size-partitioned sums of conditional expectations; n constraints at
distinct positive nodes pin them all down, and the size-0 sum is E[F].
The constraint polynomials are built from the signed weight differences
beta_k = k*q_{k-1} - (n-k)*q_k.  For l < n, P_l has degree l and top
coefficient (l-n)*sum_{k<=l} C(l,k)*q_k < 0, so the system is Vandermonde
times upper triangular: one interpolation, then back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

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
    """The recovery system for one weight vector: betas and query nodes."""

    weights: SimpleWeights
    nodes: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __init__(self, weights: SimpleWeights, nodes: Optional[Sequence] = None):
        n = weights.n
        if nodes is None:
            nodes = range(1, n + 1)
        node_values = tuple(as_rational(z) for z in nodes)
        if len(node_values) != n:
            raise ValueError(f"{len(node_values)} nodes for n={n}")
        if any(z <= 0 for z in node_values):
            raise ValueError("nodes must be strictly positive")
        if len(set(node_values)) != n:
            raise ValueError("nodes must be distinct")
        q = (Fraction(0),) + weights.q + (Fraction(0),)  # pad q_{-1} and q_n
        beta = tuple(
            k * q[k] - (n - k) * q[k + 1] for k in range(n + 1)
        )  # q[k] is q_{k-1} after the pad
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "nodes", node_values)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return self.weights.n


def eval_P(system: ConverseSystem, ell: int, z: Fraction) -> Fraction:
    """Evaluate the ell-th constraint polynomial at z (Horner's rule)."""
    coeffs = polynomial_coefficients(system, ell)
    z = as_rational(z)
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * z + c
    return total


def polynomial_coefficients(system: ConverseSystem, ell: int) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the ell-th constraint polynomial (degree index 0..ell)."""
    n = system.n
    if not 0 <= ell <= n:
        raise ValueError(f"polynomial index {ell} outside 0..{n}")
    coeffs = [Fraction(0)] * (ell + 1)
    for k in range(ell + 1):
        b = system.beta[k]
        if not b:
            continue
        c = comb(ell, k) * b
        # (1+z)^k z^(ell-k) contributes to degrees ell-k .. ell
        for t in range(k + 1):
            coeffs[ell - k + t] += c * comb(k, t)
    return tuple(coeffs)


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
    same weight vector as the system.
    """
    weights = system.weights
    if weights.q[0] <= 0:
        raise ConverseInapplicableError(
            "converse reduction inapplicable: it requires q_0 > 0"
        )
    n = system.n
    c_n = as_rational(model_at_e)
    thetas = []
    for z in system.nodes:
        indices = list(oracle(mixture_distribution(dist, e, z)))
        if len(indices) != n:
            raise ValueError(f"oracle returned {len(indices)} indices for n={n}")
        thetas.append(sum(indices, Fraction(0)))
    rhs = [
        (1 + z) ** n * theta - c_n * eval_P(system, n, z)
        for z, theta in zip(system.nodes, thetas)
    ]
    # rhs interpolates sum_{l<n} c_l P_l; peel off the P_l from the top
    (row,), den = _lagrange(system.nodes, [rhs])
    rest = [Fraction(r, den) for r in row]
    solved = [Fraction(0)] * n
    for ell in range(n - 1, -1, -1):
        coeffs = polynomial_coefficients(system, ell)
        c = solved[ell] = rest[ell] / coeffs[ell]  # coeffs[ell] < 0 as q_0 > 0
        for k in range(ell):
            rest[k] -= c * coeffs[k]
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
