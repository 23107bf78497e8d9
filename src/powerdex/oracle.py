"""Brute-force reference implementations by explicit enumeration.

These are the ground truth the fast reductions are tested against.  They
only ever call ``Model.evaluate`` on full instances, never the model's
expected-value engine, so agreement between the two is a real check.
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

    Row i is scaled to integers over the lcm L_i of its denominators.
    ``walk(i)`` fixes features 0..i-1 and returns ``(nums, den)``, a vector
    over the coalitions S of features i..n-1, bit 0 standing for feature
    i, whose entry S is nums[S] / (den * prod of L_j over j >= i not in S).
    Its even entries (i not in S) are the row-weighted sums of the
    sub-vectors of i's values; its odd entries (i in S) are the sub-vector
    at e_i.  A sub-vector over another denominator is brought to the lcm
    of the two first.  With ``e`` None only the weighted sum is taken and
    the vector is [E[F]].  A value of probability 0 is visited only when it
    is e_i.  That is at most n * |Omega| integer multiply-adds, and one
    Fraction per coalition at the end; the walk holds one vector per level,
    so memory stays O(2^n).
    """
    space = model.space
    n = space.n
    scales = [lcm(*(p.denominator for p in row)) for row in dist.probs]
    rows = [
        [p.numerator * (scale // p.denominator) for p in row]
        for row, scale in zip(dist.probs, scales)
    ]
    hits = [None] * n if e is None else [space.position(i, e[i]) for i in range(n)]
    omega: list = [None] * n

    def walk(i: int) -> tuple[list[int], int]:
        if i == n:
            value = model.evaluate(Instance._from_trusted_values(space, tuple(omega)))
            return [value.numerator], value.denominator
        free: Optional[list[int]] = None
        pinned: list[int] = []
        den = 0
        for k, (v, w) in enumerate(zip(space.domains[i], rows[i])):
            pin = k == hits[i]
            if not w and not pin:
                continue
            omega[i] = v
            sub, d = walk(i + 1)
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
        if e is None:
            return free, den
        both = free + pinned
        both[0::2] = free
        both[1::2] = pinned
        return both, den

    nums, den = walk(0)
    if e is None:
        return [Fraction(nums[0], den * prod(scales))]
    # the denominator of coalition S is den * prod of L_i over i not in S
    dens = [den]
    for scale in scales:
        dens = [d * scale for d in dens] + dens
    return [Fraction(x, d) for x, d in zip(nums, dens)]


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
    q, q_den = _integer_row(weights.q)
    bit = 1 << a
    total = 0
    for s in subsets(Coalition.singleton(a).complement(space.n)):
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
    probs, q_den = _coalition_probs(weights.theta, Coalition.singleton(a).complement(space.n))
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
    table = _table_or_compute(model, dist, e, budget, table)
    n = space.n
    sums = [Fraction(0)] * (n + 1)
    for mask, value in table.items():
        sums[mask.bit_count()] += value
    return tuple(sums)


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
    table = _table_or_compute(model, dist, e, budget, table)
    n = space.n
    bit = 1 << a
    sums = [Fraction(0)] * n
    for s in subsets(Coalition.singleton(a).complement(n)):
        sums[len(s)] += table[s.mask | bit] - table[s.mask]
    return tuple(sums)
