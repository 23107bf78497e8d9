"""Interaction indices for feature sets.

The marginal contribution of a set A is the alternating sum of
conditional expectations over its subsets (a discrete mixed derivative).
Cardinality-based interaction weights are handled by bivariate
interpolation on a (n-m+1) x (m+1) grid of scaled expected values;
Bernoulli interaction weights need only 2^|A| expected values.  Both
run on the reductions of ``indices``, where a single feature is the
|A| = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    Coalition,
    Instance,
    ProductDistribution,
    WeightError,
    as_rational,
    check_shared_space,
    mixture_row,
    subsets,
)
from .indices import (
    BernoulliWeights,
    _bernoulli_indices,
    _check_cardinality_row,
    _check_scheme_size,
    _node_polynomials,
    _walked_indices,
    _z_node_sums,
)
from .models import Model, conditional_expectation

PATH_BIVARIATE = "bivariate-interpolation"

# Prefactor variants for the grid expectations.  "factored" scales by
# (1+z)^(n-m) * (1+y)^m, which makes the scaled values the exact
# generating polynomial and is validated against the brute-force oracle.
# "z-only" scales by (1+z)^n instead; it is wrong whenever the grid uses
# y != z and exists so the discrepancy is demonstrable.
PREFACTOR_FACTORED = "factored"
PREFACTOR_Z_ONLY = "z-only"

INTERACTION_SET_LIMIT = 20


class InteractionWeights:
    """Coalition weights q(k, m) depending only on |S| = k and |A| = m.

    Stored per target-set size m as a row q(0,m)..q(n-m,m); each stored
    row must satisfy q >= 0 and sum_k C(n-m,k) q(k,m) = 1 exactly.
    """

    def __init__(self, n: int, rows: Mapping[int, Sequence]):
        if n < 1:
            raise WeightError("interaction weights need n >= 1")
        self.n = n
        table = {}
        for m, values in rows.items():
            if not 1 <= m <= n:
                raise WeightError(f"target-set size {m} outside 1..{n}")
            row = tuple(as_rational(v) for v in values)
            if len(row) != n - m + 1:
                raise WeightError(
                    f"row for |A|={m} has {len(row)} weights, expected {n - m + 1}"
                )
            _check_cardinality_row(
                row, n - m, lambda k: f"q({k},{m})", f"row for |A|={m} sums to"
            )
            table[m] = row
        self._rows = table

    def rows(self) -> dict[int, tuple[Fraction, ...]]:
        return dict(self._rows)

    def row(self, m: int, n: Optional[int] = None) -> tuple[Fraction, ...]:
        if n is not None:
            _check_scheme_size(self, n)
        try:
            return self._rows[m]
        except KeyError:
            raise WeightError(f"no weight row for target-set size {m}") from None

    def q(self, k: int, m: int) -> Fraction:
        return self.row(m)[k]

    @classmethod
    def single(cls, n: int, m: int, values: Sequence) -> "InteractionWeights":
        return cls(n, {m: values})

    @classmethod
    def from_simple(cls, weights) -> "InteractionWeights":
        """Embed a single-feature weight vector as the m=1 interaction row."""
        return cls(weights.n, {1: weights.q})


# Interaction coalitions take the same per-feature inclusion probabilities;
# the entries of the target set go unused.
BernoulliInteractionWeights = BernoulliWeights


@dataclass(frozen=True)
class BivariateGrid:
    """Interpolation nodes for the two coalition-size variables.

    z-nodes drive the coalitions outside the target set, y-nodes those
    inside; each axis must be pairwise distinct and nonnegative so the
    tensor-product Vandermonde system is solvable and every grid point
    yields a genuine distribution.
    """

    z_nodes: tuple[Fraction, ...]
    y_nodes: tuple[Fraction, ...]

    def __init__(self, z_nodes: Sequence, y_nodes: Sequence):
        zs = tuple(as_rational(z) for z in z_nodes)
        ys = tuple(as_rational(y) for y in y_nodes)
        for axis_name, axis in (("z", zs), ("y", ys)):
            if any(v < 0 for v in axis):
                raise ValueError(f"{axis_name}-nodes must be nonnegative")
            if len(set(axis)) != len(axis):
                raise ValueError(f"{axis_name}-nodes must be pairwise distinct")
        object.__setattr__(self, "z_nodes", zs)
        object.__setattr__(self, "y_nodes", ys)

    @classmethod
    def default(cls, n: int, m: int) -> "BivariateGrid":
        return cls(range(n - m + 1), range(m + 1))


def interaction_marginal(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    coalition: Coalition,
) -> Fraction:
    """Alternating sum of E[F|S u B] over the subsets B of the target set."""
    space = check_shared_space(model, dist, e)
    a_set.check_within(space)
    coalition.check_within(space)
    if not a_set:
        raise ValueError("the interaction set must be nonempty")
    if a_set & coalition:
        raise ValueError("the interaction set and the coalition must be disjoint")
    m = len(a_set)
    total = Fraction(0)
    for b in subsets(a_set):
        sign = -1 if (m - len(b)) % 2 else 1
        total += sign * conditional_expectation(model, dist, e, coalition | b)
    return total


def compute_interaction_simple(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    weights: InteractionWeights,
    grid: Optional[BivariateGrid] = None,
    prefactor: str = PREFACTOR_FACTORED,
) -> Fraction:
    """Cardinality-based interaction index via bivariate interpolation.

    Exactly (n-m+1)(m+1) expected-value calls: one per grid point, with
    the target set's features mixed by the y-node and the rest by the
    z-node.  The scaled values interpolate the generating polynomial
    whose coefficients are the size-partitioned sums of E[F|S u B];
    the index is their signed, weighted total.
    """
    return _interaction_simple(model, dist, e, a_set, weights, grid, prefactor)[0]


def _interaction_simple(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    weights: InteractionWeights,
    grid: Optional[BivariateGrid] = None,
    prefactor: str = PREFACTOR_FACTORED,
) -> tuple[Fraction, int]:
    # the index and the number of expectations it requested
    space = check_shared_space(model, dist, e)
    a_set.check_within(space)
    if not a_set:
        raise ValueError("the interaction set must be nonempty")
    if prefactor not in (PREFACTOR_FACTORED, PREFACTOR_Z_ONLY):
        raise ValueError(f"unknown prefactor variant {prefactor!r}")
    n = space.n
    m = len(a_set)
    row = weights.row(m, n)
    if grid is None:
        grid = BivariateGrid.default(n, m)
    if len(grid.z_nodes) != n - m + 1 or len(grid.y_nodes) != m + 1:
        raise ValueError(
            f"grid must be {n - m + 1} z-nodes by {m + 1} y-nodes for n={n}, |A|={m}"
        )

    # the y-weights sum the y-interpolant's coefficients with the signs
    # (-1)^(m-k); the z-sums then interpolate into Q_{A,n}
    if prefactor == PREFACTOR_FACTORED:
        z_power, y_power = n - m, m
    else:
        z_power, y_power = n, 0
    variants = [
        (
            w * (1 + y) ** y_power,
            {i: mixture_row(dist.probs[i], e._positions[i], y) for i in a_set},
        )
        for y, w in zip(grid.y_nodes, _signed_weights(grid.y_nodes))
    ]
    sums = _z_node_sums(model, dist, e, grid.z_nodes, [variants])
    polys, den = _node_polynomials([0], grid.z_nodes, sums, z_power, n)
    return _walked_indices(([polys[0]], den), row, n)[0], (n - m + 1) * (m + 1)


def _signed_weights(nodes: Sequence[Fraction]) -> list[Fraction]:
    """(-1)^m l_j(-1) per node, l_j the Lagrange basis polynomial of node j.

    For m + 1 distinct nodes and every k <= m these satisfy
    sum_j w_j * nodes[j]^k = (-1)^(m-k).
    """
    m = len(nodes) - 1
    weights = []
    for j, y in enumerate(nodes):
        w = Fraction((-1) ** m)
        for i, other in enumerate(nodes):
            if i != j:
                w *= (-1 - other) / (y - other)
        weights.append(w)
    return weights


def compute_interaction_bernoulli(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    weights: BernoulliWeights,
) -> Fraction:
    """Bernoulli interaction index from 2^|A| expected values.

    Each subset B of the target set contributes one expectation, with B
    pinned to e, the rest of the target set left on its original
    marginals, and the complement on its theta-mixtures.  theta entries
    inside the target set are ignored.  This is the reduction of
    ``compute_bernoulli_index``, whose feature is the |A| = 1 case.
    """
    return _interaction_bernoulli(model, dist, e, a_set, weights)[0]


def _interaction_bernoulli(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    weights: BernoulliWeights,
) -> tuple[Fraction, int]:
    # the index and the number of expectations it requested
    space = check_shared_space(model, dist, e)
    a_set.check_within(space)
    if not a_set:
        raise ValueError("the interaction set must be nonempty")
    m = len(a_set)
    if m > INTERACTION_SET_LIMIT:
        raise ValueError(
            f"interaction set of size {m} would need 2^{m} expectations "
            f"(limit {INTERACTION_SET_LIMIT})"
        )
    values, calls = _bernoulli_indices(model, dist, e, [a_set.members()], weights)
    return values[0], calls[0]
