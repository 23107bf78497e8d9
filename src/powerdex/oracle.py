"""Brute-force reference implementations by explicit enumeration.

These are the ground truth the fast reductions are tested against.  They
only ever evaluate the model on full assignments, never through its
expected-value engine, so agreement between the two is a real check.
F is tabulated through the private ``Model._tabulate``, at most
``BLOCK_OUTCOMES`` outcomes at a time, and only on the outcomes that can
count: trees and ensembles fill a block from their stored form (an
additive model from its single-split trees), tables read it point by
point, and any other model is evaluated through its public ``evaluate``,
once per outcome.
Shipped in the library (not test-only) so external index implementations
can be validated via the CLI.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence, Union

from .core import (
    BudgetExceededError,
    Coalition,
    Instance,
    ProductDistribution,
    check_shared_space,
    subsets,
)
from .indices import BernoulliWeights, SimpleWeights, _check_scheme, _check_target
from .interaction import InteractionWeights
from .models import Model


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

# The most outcomes F is tabulated on at once: a block is every outcome of
# the trailing features under one prefix of positions of the others.
BLOCK_OUTCOMES = 1 << 16

ConditionalTable = dict[int, Fraction]


def brute_expectation(
    model: Model, dist: ProductDistribution, budget: OracleBudget = DEFAULT_BUDGET
) -> Fraction:
    """E[F]: F(omega) * P(Y = omega) summed over the outcomes, feature by feature."""
    budget.check(model)
    check_shared_space(model, dist)
    nums, den = _contract(model, dist, None)
    return Fraction(nums[0], den)


def conditional_table(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> ConditionalTable:
    """All 2^n conditional expectations E[F|S], keyed by coalition mask.

    E[F|S] sums F(omega) times the probability of omega's features outside
    S over the outcomes that agree with e on S.  F is tabulated in blocks,
    each outcome at most once, and the sums are taken feature by feature
    (see ``_contract``).
    """
    budget.check(model)
    check_shared_space(model, dist, e)
    nums, den = _contract(model, dist, e)
    return {mask: Fraction(x, den) for mask, x in enumerate(nums)}


def _contract(
    model: Model, dist: ProductDistribution, e: Optional[Instance]
) -> tuple[list[int], int]:
    """Sum F over the outcome grid one feature at a time, in integers, block by block.

    Row i is scaled to integers over the lcm L_i of its denominators, and
    only feature i's kept positions are read: those of nonzero weight and
    e_i's; the others would be summed with weight 0.  The trailing features
    t..n-1 are the most whose kept outcomes number at most
    ``BLOCK_OUTCOMES``.  Under each prefix of kept positions of features
    0..t-1, in grid order, ``Model._tabulate`` gives F on the prefix's
    block over one denominator, and ``_sweep`` contracts the block over
    features t..n-1 to one entry per coalition of them.  The block results
    are brought to the lcm of their denominators and stacked, and the same
    sweep over features 0..t-1 contracts the stack: entry S is then
    nums[S] / (den * prod of L_j over j not in S), the coalition of
    features 0..t-1 outermost.  Reordered by mask and scaled by the
    product of L_j over j in S, every E[F|S] is nums[S] / den over one
    denominator, returned as ``(nums, den)``; with ``e`` None nothing is
    pinned and the result is [E[F]].  Each kept outcome is read once, and
    the sweeps cost at most n integer multiply-adds per kept outcome.
    Memory holds one block and its sweep, and the stacked results: 2^(n-t)
    entries per prefix (one with ``e`` None).
    """
    scales = [lcm(*(p.denominator for p in row)) for row in dist.probs]
    hits = [None] * len(scales) if e is None else e._positions
    kept = [[k for k, p in enumerate(row) if p or k == hit] for row, hit in zip(dist.probs, hits)]
    rows = [
        [row[k].numerator * (scale // row[k].denominator) for k in ks]
        for row, scale, ks in zip(dist.probs, scales, kept)
    ]
    hits = [None if hit is None else ks.index(hit) for ks, hit in zip(kept, hits)]
    t, block = len(kept), 1
    while t and block * len(kept[t - 1]) <= BLOCK_OUTCOMES:
        t -= 1
        block *= len(kept[t])
    parts = []
    for prefix in itertools.product(*kept[:t]):
        grid, den = model._tabulate([(k,) for k in prefix] + kept[t:])
        parts.append((_sweep(grid, rows[t:], hits[t:]), den))
    den = lcm(*[d for _, d in parts])
    stacked: list[int] = []
    for part, d in parts:
        stacked += part if d == den else [x * (den // d) for x in part]
    nums = _sweep(stacked, rows[:t], hits[:t])
    den *= prod(scales)
    if e is None:
        return nums, den
    width = len(nums) >> t  # entries per leading coalition, one per trailing one
    nums = [x for low in range(width) for x in nums[low::width]]  # now by mask
    ups = [1]  # per coalition S, the product of L_i over i in S
    for scale in scales:
        ups += [up * scale for up in ups]
    return [x * up for x, up in zip(nums, ups)], den


def _sweep(
    nums: list[int], rows: Sequence[Sequence[int]], hits: Sequence[Optional[int]]
) -> list[int]:
    """Contract the leading features of a flat vector, first to last, by whole slices.

    ``nums`` holds, outermost first, one position per feature of ``rows``
    and then a tail the sweep leaves alone.  It is cut into blocks, block c
    standing for the coalition mask c of the features swept so far.  At
    feature i each block is |D_i| contiguous sub-slices, one per position;
    it becomes a free block, the sum of its sub-slices weighted by row i,
    and, where e_i is given (``hits[i]``), a pinned block, its sub-slice at
    e_i.  The free blocks come first and the pinned ones after them, so
    block c of the result is still coalition mask c.
    """
    blocks = 1
    for row, hit in zip(rows, hits):
        width = len(nums) // blocks
        step = width // len(row)
        (first, w0), *rest = [(k * step, w) for k, w in enumerate(row) if w]
        free: list[int] = []
        pinned: list[int] = []
        for start in range(0, len(nums), width):
            at = start + first
            acc = [w0 * x for x in nums[at : at + step]]
            for at, w in rest:
                at += start
                acc = [a + w * x for a, x in zip(acc, nums[at : at + step])]
            free += acc
            if hit is not None:
                at = start + hit * step
                pinned += nums[at : at + step]
        nums = free + pinned
        if hit is not None:
            blocks *= 2
    return nums


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_table(model, dist, e, budget=DEFAULT_BUDGET, table=None) -> tuple[list[int], int]:
    """Every E[F|S], by mask, in integers over one denominator; a given table converted once."""
    if table is None:
        budget.check(model)
        return _contract(model, dist, e)
    return _integer_row([table[mask] for mask in range(1 << model.space.n)])


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
    check_shared_space(model, dist, e).check_feature(a)
    a_set = Coalition.singleton(a)
    return _brute_index(model, dist, e, a_set, weights, SimpleWeights, budget, table)


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
    check_shared_space(model, dist, e).check_feature(a)
    a_set = Coalition.singleton(a)
    return _brute_index(model, dist, e, a_set, weights, BernoulliWeights, budget, table)


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
    _check_target(a_set, check_shared_space(model, dist, e))
    kinds = (SimpleWeights, InteractionWeights, BernoulliWeights)
    return _brute_index(model, dist, e, a_set, weights, kinds, budget, table)


def _brute_index(model, dist, e, a_set: Coalition, weights, kinds, budget, table) -> Fraction:
    # the index of a checked, nonempty target set (a feature is a
    # singleton) under a scheme of one of ``kinds``, as its fast path takes
    n = model.space.n
    _check_scheme(weights, kinds, n, len(a_set))
    nums, den = _integer_table(model, dist, e, budget, table)
    return _index_sum(nums, den, n, a_set, weights)


def _index_sum(nums: Sequence[int], den: int, n: int, a_set: Coalition, weights) -> Fraction:
    """Sum over S in A^c of Q_A(S) * sum_{B in A} (-1)^(m-|B|) * nums[S u B] / den.

    Q_A(S) is the cardinality weight q_|S| of the set's row (a feature's
    for |A| = 1) or S's Bernoulli probability, in integers over q_den; one
    division at the end.
    """
    m = len(a_set)
    complement = a_set.complement(n)
    if isinstance(weights, BernoulliWeights):
        coalitions, q_den = _coalition_probs(weights.theta, complement)
    else:
        q, q_den = _integer_row(weights.q)
        coalitions = [(s.mask, q[len(s)]) for s in subsets(complement)]
    total = 0
    for b in subsets(a_set):
        bits = b.mask
        part = sum(w * nums[mask | bits] for mask, w in coalitions if w)
        total += -part if (m - len(b)) % 2 else part
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


def brute_coalition_sums(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[ConditionalTable] = None,
) -> tuple[Fraction, ...]:
    """The n+1 sums of E[F|S] grouped by coalition size."""
    space = check_shared_space(model, dist, e)
    nums, den = _integer_table(model, dist, e, budget, table)
    sums = [0] * (space.n + 1)
    for mask, num in enumerate(nums):
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
    nums, den = _integer_table(model, dist, e, budget, table)
    n = space.n
    bit = 1 << a
    sums = [0] * n
    for s in subsets(Coalition.singleton(a).complement(n)):
        sums[len(s)] += nums[s.mask | bit] - nums[s.mask]
    return tuple([Fraction(s, den) for s in sums])
