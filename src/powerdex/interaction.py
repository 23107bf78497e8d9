"""Interaction indices for feature sets.

The marginal contribution of a set A is the alternating sum of
conditional expectations over its subsets (a discrete mixed derivative).
Both index kinds are the feature reductions of ``indices`` for a set of
m members, a feature being the m = 1 case: cardinality-based interaction
weights read the z-reduction, whose batch interpolates a (n-m+1) x (m+1)
grid of scaled expected values, and Bernoulli interaction weights the
theta-reduction's 2^m expected values.  A one-member set takes the
model's walk where the model has one, as a feature does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (
    BudgetExceededError,
    Coalition,
    Instance,
    ProductDistribution,
    WeightError,
    as_rational,
    check_shared_space,
    subsets,
)
from .core import mixture_row  # noqa: F401 -- unused: perfbench's self-test names this import site
from .indices import (
    BernoulliWeights,
    SimpleWeights,
    _bernoulli_indices,
    _check_cardinality_row,
    _check_scheme,
    _check_target,
    _walked_indices,
    _z_reduction,
)
from .models import Model, conditional_expectation

PATH_BIVARIATE = "bivariate-interpolation"

# Prefactor variants for the grid expectations.  "factored" scales by
# (1+z)^(n-m) * (1+y)^m, which makes the scaled values the exact
# generating polynomial and is validated against the brute-force oracle.
# "z-only" scales by (1+z)^n instead; it is off at every grid point with
# y != z and exists so the discrepancy is demonstrable.
PREFACTOR_FACTORED = "factored"
PREFACTOR_Z_ONLY = "z-only"

INTERACTION_SET_LIMIT = 20


class InteractionWeights:
    """Coalition weights q(k, m) for target sets of one size m, k = |S|.

    One row ``q`` = q(0,m)..q(n-m,m), which must satisfy q >= 0 and
    sum_k C(n-m,k) q(k,m) = 1 exactly.  A single feature's weights
    (``SimpleWeights``) are the m = 1 case.
    """

    def __init__(self, n: int, m: int, values: Sequence):
        if n < 1:
            raise WeightError("interaction weights need n >= 1")
        if not 1 <= m <= n:
            raise WeightError(f"target-set size {m} outside 1..{n}")
        q = tuple(as_rational(v) for v in values)
        if len(q) != n - m + 1:
            raise WeightError(f"row for |A|={m} has {len(q)} weights, expected {n - m + 1}")
        _check_cardinality_row(q, n - m, lambda k: f"q({k},{m})", f"row for |A|={m} sums to")
        self.n, self.m, self.q = n, m, q

    @classmethod
    def single(cls, n: int, m: int, values: Sequence) -> "InteractionWeights":
        return cls(n, m, values)

    @classmethod
    def from_simple(cls, weights) -> "InteractionWeights":
        """Embed a single-feature weight vector as the m=1 interaction row."""
        if not isinstance(weights, SimpleWeights):
            raise TypeError(f"unsupported scheme {weights!r}")
        return cls(weights.n, 1, weights.q)


# Interaction coalitions take the same per-feature inclusion probabilities;
# the entries of the target set go unused.
BernoulliInteractionWeights = BernoulliWeights


def interaction_marginal(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    coalition: Coalition,
) -> Fraction:
    """Alternating sum of E[F|S u B] over the subsets B of the target set."""
    space = check_shared_space(model, dist, e)
    _check_target(a_set, space)
    coalition.check_within(space)
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
    prefactor: str = PREFACTOR_FACTORED,
) -> Fraction:
    """Cardinality-based interaction index via bivariate interpolation.

    (n-m+1)(m+1) expectations: one per point of the fixed integer grid
    z = 0..n-m by y = 0..m, with the target set's features mixed by y and
    the rest by z.  The scaled values interpolate the generating
    polynomial whose coefficients are the size-partitioned sums of
    E[F|S u B]; the index is their signed, weighted total.  Any distinct
    nodes give the same exact value, so the nodes are not a parameter.  A
    one-member set is a feature: a model with its own walk answers it from
    the walk instead.  The weights are a row for |A| = m; ``SimpleWeights``
    fit a single feature.
    """
    space = check_shared_space(model, dist, e)
    _check_target(a_set, space)
    if prefactor not in (PREFACTOR_FACTORED, PREFACTOR_Z_ONLY):
        raise ValueError(f"unknown prefactor variant {prefactor!r}")
    n = space.n
    m = len(a_set)
    _check_scheme(weights, (InteractionWeights, SimpleWeights), n, m)
    z_only = prefactor == PREFACTOR_Z_ONLY
    reduced = _z_reduction(model, dist, e, [a_set.members()], z_only)
    return _walked_indices(reduced, weights.q)[0]


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
    _check_target(a_set, check_shared_space(model, dist, e))
    m = len(a_set)
    if m > INTERACTION_SET_LIMIT:
        raise BudgetExceededError(
            f"interaction set of size {m} would need 2^{m} expectations "
            f"(limit {INTERACTION_SET_LIMIT})"
        )
    return _bernoulli_indices(model, dist, e, [a_set.members()], weights)[0]
