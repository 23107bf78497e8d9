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
from collections.abc import Iterator, Mapping
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


class ConditionalTable(Mapping):
    """The 2^n conditional expectations E[F|S], keyed by coalition mask, read-only.

    Held as integer numerators over one denominator, as ``_contract``
    returns them; ``table[mask]`` builds the ``Fraction`` when read.  The
    keys are exactly ``range(2**n)``: any other key raises ``KeyError``.
    It compares equal to the dict of its entries.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: Sequence[int], den: int):
        self._nums = tuple(nums)
        self._den = den

    def __getitem__(self, mask: int) -> Fraction:
        if not isinstance(mask, int) or not 0 <= mask < len(self._nums):
            raise KeyError(mask)
        return Fraction(self._nums[mask], self._den)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._nums)))

    def __len__(self) -> int:
        return len(self._nums)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


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
    (see ``_contract``).  The table keeps their integer numerators over one
    denominator, which every ``brute_*`` function given it reads directly.
    """
    budget.check(model)
    check_shared_space(model, dist, e)
    return ConditionalTable(*_contract(model, dist, e))


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
    block over one denominator, and ``_sweep`` contracts the block to one
    entry per coalition of features t..n-1.  The block results are brought
    to the lcm of their denominators and stacked with the prefix axis
    innermost, so the same sweep contracts features 0..t-1 of the stack.
    Entry r of the result is then nums[r] / (den * prod of L_j over j not
    in S), where r is S's mask read with feature 0 as the most significant
    bit; one permutation reorders the entries by mask and scales each by
    the product of L_j over j in S, so every E[F|S] is nums[S] / den over
    one denominator, returned as ``(nums, den)``.  With ``e`` None nothing
    is pinned and the result is [E[F]].  Each kept outcome is read once,
    and the sweeps cost at most n integer multiply-adds per kept outcome.
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
    parts = [part if d == den else [x * (den // d) for x in part] for part, d in parts]
    stacked = [part[s] for s in range(len(parts[0])) for part in parts]  # prefix innermost
    nums = _sweep(stacked, rows[:t], hits[:t])
    den *= prod(scales)
    if e is None:
        return nums, den
    n = len(scales)
    order = [(0, 1)]  # per mask S: S's entry in nums, and the product of L_i over i in S
    for i, scale in enumerate(scales):
        bit = 1 << (n - 1 - i)
        order += [(at | bit, up * scale) for at, up in order]
    return [nums[at] * up for at, up in order], den


def _sweep(
    nums: list[int], rows: Sequence[Sequence[int]], hits: Sequence[Optional[int]]
) -> list[int]:
    """Contract the innermost features of a flat vector, last to first, by strided slices.

    ``nums`` holds outer axes the sweep leaves alone and then one axis per
    feature of ``rows``, the last innermost.  The innermost feature i, of
    d = |D_i| positions, holds its position k in the slice ``nums[k::d]``.
    It is contracted to a free half, the row-weighted sum of those slices,
    followed, where e_i is given (``hits[i]``), by a pinned half, the
    slice at e_i.  So each pinned feature adds a coalition bit as the new
    outermost axis: the result holds one bit per pinned feature, the first
    feature outermost, and then the outer axes.
    """
    for row, hit in zip(reversed(rows), reversed(hits)):
        d = len(row)
        (k, w), *rest = [(k, w) for k, w in enumerate(row) if w]
        acc = nums[k::d] if w == 1 else [w * x for x in nums[k::d]]
        for k, w in rest:
            acc = [a + w * x for a, x in zip(acc, nums[k::d])]
        if hit is not None:
            acc += nums[hit::d]
        nums = acc
    return nums


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_table(
    model, dist, e, budget=DEFAULT_BUDGET, table=None
) -> tuple[Sequence[int], int]:
    """Every E[F|S], by mask, in integers over one denominator.

    A ``ConditionalTable`` of the model's size gives its own integers; any
    other given table is converted once.
    """
    if table is None:
        budget.check(model)
        return _contract(model, dist, e)
    size = 1 << model.space.n
    if isinstance(table, ConditionalTable) and len(table) == size:
        return table._nums, table._den
    return _integer_row([table[mask] for mask in range(size)])


def brute_simple_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    weights: SimpleWeights,
    budget: OracleBudget = DEFAULT_BUDGET,
    table: Optional[Mapping[int, Fraction]] = None,
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
    table: Optional[Mapping[int, Fraction]] = None,
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
    table: Optional[Mapping[int, Fraction]] = None,
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
    for |A| = 1) or S's Bernoulli probability, in integers over q_den;
    only the coalitions of nonzero weight are summed, S and B as int
    masks, and there is one division at the end.
    """
    m = len(a_set)
    complement = a_set.complement(n)
    if isinstance(weights, BernoulliWeights):
        coalitions, q_den = _coalition_probs(weights.theta, complement)
    else:
        q, q_den = _integer_row(weights.q)
        coalitions = [(s, w) for s in _submasks(complement.mask) if (w := q[s.bit_count()])]
    total = 0
    for b in _submasks(a_set.mask):
        part = sum([w * nums[s | b] for s, w in coalitions])
        total += -part if (m - b.bit_count()) % 2 else part
    return Fraction(total, den * q_den)


def _submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, as ints."""
    subs = [0]
    while mask:
        bit = mask & -mask
        subs += [s | bit for s in subs]
        mask ^= bit
    return subs


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
    table: Optional[Mapping[int, Fraction]] = None,
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
    table: Optional[Mapping[int, Fraction]] = None,
) -> tuple[Fraction, ...]:
    """The n sums of m(a;S) grouped by |S|, for cross-checking interpolation."""
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    nums, den = _integer_table(model, dist, e, budget, table)
    n = space.n
    bit = 1 << a
    sums = [0] * n
    for s in _submasks(((1 << n) - 1) ^ bit):
        sums[s.bit_count()] += nums[s | bit] - nums[s]
    return tuple([Fraction(s, den) for s in sums])
