"""Brute-force reference implementations by explicit enumeration.

These are the ground truth the fast reductions are tested against.  They
only ever evaluate the model on full assignments, never through its
expected-value engine, so agreement between the two is a real check.
F is read by domain positions through the private ``Model._evaluate_at``:
the built-in models answer it from their stored form, and any other model
is evaluated through its public ``evaluate`` on a full instance.
Shipped in the library (not test-only) so external index implementations
can be validated via the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence, Union

from .core import (
    Coalition,
    Instance,
    PowerdexError,
    ProductDistribution,
    check_shared_space,
    subsets,
)
from .indices import BernoulliWeights, SimpleWeights, _check_scheme_size
from .interaction import InteractionWeights
from .models import Model


class BudgetExceededError(PowerdexError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration limits, enforced before any work starts."""

    max_features: int = 12
    max_outcomes: int = 1 << 20

    def check(self, model: Model) -> None:
        space = model.space
        if space.n > self.max_features:
            raise BudgetExceededError(
                f"{space.n} features exceed the oracle budget of {self.max_features}"
            )
        size = space.outcome_count()
        if size > self.max_outcomes:
            raise BudgetExceededError(
                f"{size} outcomes exceed the oracle budget of {self.max_outcomes}"
            )


DEFAULT_BUDGET = OracleBudget()

ConditionalTable = dict[int, Fraction]


def brute_expectation(
    model: Model, dist: ProductDistribution, budget: OracleBudget = DEFAULT_BUDGET
) -> Fraction:
    """E[F]: F(omega) * P(Y = omega) summed over the outcomes, feature by feature."""
    budget.check(model)
    check_shared_space(model, dist)
    return _contract(model, dist, None)[0]


def conditional_table(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> ConditionalTable:
    """All 2^n conditional expectations E[F|S], keyed by coalition mask.

    E[F|S] sums F(omega) times the probability of omega's features outside
    S over the outcomes that agree with e on S.  Each outcome is evaluated
    once and the sums are taken feature by feature (see ``_contract``).
    """
    budget.check(model)
    check_shared_space(model, dist, e)
    return dict(enumerate(_contract(model, dist, e)))


def _contract(model: Model, dist: ProductDistribution, e: Optional[Instance]) -> list[Fraction]:
    """Sum F over the outcome grid one feature at a time, depth first, in integers.

    Row i is scaled to integers over the lcm L_i of its denominators, and
    feature i's visits are worked out once: the ``(position, weight,
    pinned)`` triples of its values that have a nonzero weight or are e_i
    (pinned).  ``_walk`` fixes the positions of features 0..i-1 and returns
    ``(nums, den)``, a vector over the coalitions S of features i..n-1, bit
    0 standing for feature i, whose entry S is nums[S] / (den * prod of L_j
    over j >= i not in S).  Its even entries (i not in S) are the
    row-weighted sums of the sub-vectors of i's values; its odd entries (i
    in S) are the sub-vector at e_i.  A sub-vector over another denominator
    is brought to the lcm of the two first.  With ``e`` None nothing is
    pinned, only the weighted sum is taken and the vector is [E[F]].  F is
    read once per visited outcome, by ``Model._evaluate_at`` on its
    positions.  That is at most n * |Omega| integer multiply-adds, and one
    Fraction per coalition at the end; the walk holds one vector per level,
    so memory stays O(2^n).
    """
    scales = [lcm(*(p.denominator for p in row)) for row in dist.probs]
    hits = [None] * len(scales) if e is None else e._positions
    visits = []
    for row, scale, hit in zip(dist.probs, scales, hits):
        visits.append(tuple(
            (k, p.numerator * (scale // p.denominator), k == hit)
            for k, p in enumerate(row)
            if p or k == hit
        ))
    nums, den = _walk(model, visits, e is not None, [0] * len(visits), 0)
    if e is None:
        return [Fraction(nums[0], den * prod(scales))]
    # the denominator of coalition S is den * prod of L_i over i not in S
    dens = [den]
    for scale in scales:
        dens = [d * scale for d in dens] + dens
    return [Fraction(x, d) for x, d in zip(nums, dens)]


def _walk(
    model: Model, visits: Sequence[tuple], pinning: bool, positions: list[int], i: int
) -> tuple[list[int], int]:
    # ``_contract``'s vector for the prefix fixed in positions[:i]; with
    # ``pinning`` (e given) it also carries the sub-vector at e_i
    if i == len(visits):
        num, den = model._evaluate_at(positions)
        return [num], den
    free: Optional[list[int]] = None
    pinned: list[int] = []
    den = 0
    for k, w, pin in visits[i]:
        positions[i] = k
        sub, d = _walk(model, visits, pinning, positions, i + 1)
        if not den:
            den = d
        elif d != den:
            common = lcm(den, d)
            if common != den:
                up = common // den
                if free is not None:
                    free = [x * up for x in free]
                pinned = [x * up for x in pinned]
                den = common
            if common != d:
                up = common // d
                sub = [x * up for x in sub]
        if pin:
            pinned = sub
        if w:
            if free is None:
                free = [w * x for x in sub]
            else:
                free = [f + w * x for f, x in zip(free, sub)]
    if not pinning:  # no e: only the weighted sum
        return free, den
    both = free + pinned
    both[0::2] = free
    both[1::2] = pinned
    return both, den


def _table_or_compute(
    model, dist, e, budget, table: Optional[ConditionalTable]
) -> ConditionalTable:
    if table is None:
        return conditional_table(model, dist, e, budget)
    return table


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_table(table: ConditionalTable) -> tuple[dict[int, int], int]:
    """The table's entries as integer numerators over one denominator, keyed by mask."""
    nums, den = _integer_row(list(table.values()))
    return dict(zip(table, nums)), den


def brute_simple_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    weights: SimpleWeights,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> Fraction:
    """The definitional sum over all 2^(n-1) coalitions avoiding feature a.

    The sum is taken in integers, the table and the weights each over one
    denominator, and divided once.
    """
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    _check_scheme_size(weights, space.n)
    nums, den = _integer_table(_table_or_compute(model, dist, e, budget, table))
    return _simple_sum(nums, den, space.n, a, weights)


def _simple_sum(nums: dict, den: int, n: int, a: int, weights: SimpleWeights) -> Fraction:
    # brute_simple_index's sum over the table nums / den (``_integer_table``)
    q, q_den = _integer_row(weights.q)
    bit = 1 << a
    total = 0
    for s in subsets(Coalition.singleton(a).complement(n)):
        w = q[len(s)]
        if w:
            total += w * (nums[s.mask | bit] - nums[s.mask])
    return Fraction(total, den * q_den)


def brute_bernoulli_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    weights: BernoulliWeights,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> Fraction:
    """The definitional sum with coalition probabilities from Bernoulli trials, in integers."""
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    _check_scheme_size(weights, space.n)
    nums, den = _integer_table(_table_or_compute(model, dist, e, budget, table))
    return _bernoulli_sum(nums, den, space.n, a, weights)


def _bernoulli_sum(nums: dict, den: int, n: int, a: int, weights: BernoulliWeights) -> Fraction:
    # brute_bernoulli_index's sum over the table nums / den (``_integer_table``)
    probs, q_den = _coalition_probs(weights.theta, Coalition.singleton(a).complement(n))
    bit = 1 << a
    total = sum(q * (nums[mask | bit] - nums[mask]) for mask, q in probs)
    return Fraction(total, den * q_den)


def _coalition_probs(
    theta: Sequence[Fraction], members: Coalition
) -> tuple[list[tuple[int, int]], int]:
    """(S, prod of theta_i over i in S times 1 - theta_i over members - S), in integers.

    One subset-product sweep over the members.  Each probability is an
    integer numerator over the product of the thetas' denominators, which
    is returned alongside; only the coalitions S of members with a nonzero
    probability are kept.
    """
    probs = [(0, 1)]
    for i in members:
        t, bit = theta[i], 1 << i
        a, rest = t.numerator, t.denominator - t.numerator
        probs = [(mask, q * rest) for mask, q in probs if rest] + [
            (mask | bit, q * a) for mask, q in probs if a
        ]
    return probs, prod(theta[i].denominator for i in members)


def brute_interaction_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a_set: Coalition,
    weights: Union[InteractionWeights, BernoulliWeights],
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> Fraction:
    """Sum of Q_A(S) times the alternating-sum marginal m(A;S) over S in A^c."""
    space = check_shared_space(model, dist, e)
    a_set.check_within(space)
    if not a_set:
        raise ValueError("the interaction set must be nonempty")
    _check_scheme_size(weights, space.n)
    nums, den = _integer_table(_table_or_compute(model, dist, e, budget, table))
    n = space.n
    m = len(a_set)
    complement = a_set.complement(n)

    if isinstance(weights, InteractionWeights):
        row, q_den = _integer_row(weights.row(m))
        coalitions = [(s.mask, row[len(s)]) for s in subsets(complement)]
    else:
        coalitions, q_den = _coalition_probs(weights.theta, complement)
    signed = [(b.mask, -1 if (m - len(b)) % 2 else 1) for b in subsets(a_set)]
    total = 0
    for mask, q in coalitions:
        if q:
            total += q * sum(sign * nums[mask | b] for b, sign in signed)
    return Fraction(total, den * q_den)


def brute_coalition_sums(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> tuple[Fraction, ...]:
    """The n+1 sums of E[F|S] grouped by coalition size."""
    space = check_shared_space(model, dist, e)
    nums, den = _integer_table(_table_or_compute(model, dist, e, budget, table))
    sums = [0] * (space.n + 1)
    for mask, num in nums.items():
        sums[mask.bit_count()] += num
    return tuple([Fraction(s, den) for s in sums])


def brute_coefficient_sums(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> tuple[Fraction, ...]:
    """The n sums of m(a;S) grouped by |S|, for cross-checking interpolation."""
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    nums, den = _integer_table(_table_or_compute(model, dist, e, budget, table))
    n = space.n
    bit = 1 << a
    sums = [0] * n
    for s in subsets(Coalition.singleton(a).complement(n)):
        sums[len(s)] += nums[s.mask | bit] - nums[s.mask]
    return tuple([Fraction(s, den) for s in sums])
