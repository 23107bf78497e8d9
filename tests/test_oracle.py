import itertools
import random
import re
from collections.abc import Mapping
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerdex import (
    AdditiveModel,
    BernoulliInteractionWeights,
    BernoulliWeights,
    BudgetExceededError,
    Coalition,
    ConditionalTable,
    CountingModel,
    EnsembleModel,
    FeatureSpace,
    Instance,
    InteractionWeights,
    OracleBudget,
    ProductDistribution,
    SimpleWeights,
    TableModel,
    TreeModel,
    WeightError,
    brute_bernoulli_index,
    brute_coalition_sums,
    brute_coefficient_sums,
    brute_expectation,
    brute_interaction_index,
    brute_simple_index,
    compute_bernoulli_index,
    compute_simple_index,
    conditional_expectation,
    conditional_table,
    subsets,
)

from powerdex import oracle
from powerdex.models import Leaf, Split

from corpus import (
    MODEL_KINDS,
    THETA_GRID,
    and_space,
    and_table_model,
    constant_model,
    cycles_left_by,
    instances,
    models,
    ones_instance,
    peak_kib_of,
    or_table_model,
    random_distribution,
    random_instance,
    random_model_of_kind,
    random_space,
    random_tree_model,
    rationals,
    small_spaces,
    sparse_distributions,
)


@pytest.fixture
def and2():
    space = and_space(2)
    return space, and_table_model(space), ProductDistribution.uniform(space), ones_instance(space)


def test_brute_expectation_and_or(and2):
    space, model, dist, e = and2
    assert brute_expectation(model, dist) == Fraction(1, 4)
    assert brute_expectation(or_table_model(space), dist) == Fraction(3, 4)


def test_brute_expectation_point_mass(and2):
    space, model, _, e = and2
    assert brute_expectation(model, ProductDistribution.point_mass(e)) == model.evaluate(e)


def _definitional_table(model, dist, e):
    # E[F|S] by definition: F(omega) times the product of the marginals
    # of omega's features outside S, summed over the outcomes that agree
    # with e on S
    space = model.space
    table = {}
    for mask in range(1 << space.n):
        grid = [(e[i],) if mask >> i & 1 else d for i, d in enumerate(space.domains)]
        total = Fraction(0)
        for omega in itertools.product(*grid):
            weight = Fraction(1)
            for i, v in enumerate(omega):
                if not mask >> i & 1:
                    weight *= dist.prob(i, v)
            total += weight * model.evaluate(Instance(space, omega))
        table[mask] = total
    return table


def _sparse_around(rng, dist, e):
    # per feature: zero probability on e's value, zero probability off it,
    # a point mass on a random value, or the row as drawn
    space = dist.space
    rows = []
    for i, row in enumerate(dist.probs):
        size = len(row)
        hit = space.position(i, e[i])
        pick = rng.randrange(4)
        if pick == 0 and size > 1:
            weights = [0 if k == hit else rng.randint(1, 3) for k in range(size)]
        elif pick == 1:
            weights = [int(k == hit) for k in range(size)]
        elif pick == 2:
            mass = rng.randrange(size)
            weights = [int(k == mass) for k in range(size)]
        else:
            rows.append(row)
            continue
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return ProductDistribution(space, rows)


def _oracle_case(kind, n, sparse, seed):
    rng = random.Random(seed)
    space = random_space(rng, n)
    model = random_model_of_kind(kind, rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    if sparse:
        dist = _sparse_around(rng, dist, e)
    return model, dist, e


@given(
    st.sampled_from(MODEL_KINDS),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
@example("tree", 4, False, 2)
@settings(deadline=None)
def test_conditional_table_matches_direct_conditioning(kind, n, sparse, seed):
    model, dist, e = _oracle_case(kind, n, sparse, seed)
    table = conditional_table(model, dist, e)
    assert list(table) == list(range(1 << n))
    want = _definitional_table(model, dist, e)
    for mask in range(1 << n):
        assert table[mask] == want[mask]
        assert table[mask] == conditional_expectation(model, dist, e, Coalition(mask))
    assert brute_expectation(model, dist) == want[0] == model.expected_value(dist)


@pytest.mark.parametrize("kind", ["tree", "ensemble"])
def test_oracle_calls_only_evaluate_once_per_outcome(kind):
    # F is read on exactly the outcomes whose every position has a nonzero
    # probability or is e's (conditional_table) or has a nonzero one
    model, dist, e = _oracle_case(kind, 5, True, 17)
    for run, hits in (
        (lambda counted: conditional_table(counted, dist, e), e._positions),
        (lambda counted: brute_expectation(counted, dist), [None] * 5),
    ):
        read = prod(
            len([k for k, p in enumerate(row) if p or k == hit])
            for row, hit in zip(dist.probs, hits)
        )
        assert read < model.space.outcome_count()  # the sparse case has outcomes to skip
        counted = CountingModel(model)
        run(counted)
        assert counted.expected_value_calls == 0
        assert counted.evaluate_calls == read


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_oracle_leaves_no_reference_cycle(kind):
    model, dist, e = _oracle_case(kind, 4, True, 5)
    assert cycles_left_by(lambda: conditional_table(model, dist, e)) == 0
    assert cycles_left_by(lambda: brute_expectation(model, dist)) == 0


def _mixed_case():
    # mixed denominators in a row and among the leaves, e_1 of probability
    # 0 on a point-mass row, a one-value feature, a zero component weight
    # and an ensemble inside an ensemble
    space = FeatureSpace([("a", "b", "c"), ("x", "y"), ("u",)])
    dist = ProductDistribution(
        space,
        [
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
            [Fraction(0), Fraction(1)],
            [Fraction(1)],
        ],
    )
    tree = TreeModel(
        space,
        Split(0, (
            Leaf(Fraction(1, 5)),
            Split(1, (Leaf(Fraction(-7, 4)), Leaf(Fraction(2, 9)))),
            Leaf(Fraction(3)),
        )),
    )
    table = TableModel(space, [Fraction(k, k + 2) for k in range(6)])
    additive = AdditiveModel(
        space,
        Fraction(1, 7),
        [[Fraction(1, 2), 0, Fraction(-5, 3)], [Fraction(1, 11), 2], [Fraction(3, 8)]],
    )
    inner = EnsembleModel([(Fraction(-1, 4), additive), (Fraction(2, 3), tree)])
    model = EnsembleModel([(Fraction(1, 3), tree), (Fraction(0), table), (Fraction(5, 2), inner)])
    return model, dist, Instance(space, ("b", "x", "u"))


@st.composite
def _contraction_cases(draw):
    space = draw(small_spaces())
    return draw(models(space)), draw(sparse_distributions(space)), draw(instances(space))


@given(_contraction_cases())
@example(_mixed_case())
@settings(deadline=None)
def test_integer_contraction_equals_the_sum_over_every_outcome(case):
    model, dist, e = case
    want = _definitional_table(model, dist, e)
    assert conditional_table(model, dist, e) == want
    assert brute_expectation(model, dist) == want[0]


@given(_contraction_cases())
@example(_mixed_case())
@settings(deadline=None)
def test_blocked_tabulation_equals_the_sum_over_every_outcome(case):
    # a block of one outcome, of a few, and of every outcome of these cases
    model, dist, e = case
    want = _definitional_table(model, dist, e)
    for block in (1, 4, 1 << 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "BLOCK_OUTCOMES", block)
            assert conditional_table(model, dist, e) == want
            assert brute_expectation(model, dist) == want[0]


@given(_contraction_cases())
@example(_mixed_case())
@settings(deadline=None)
def test_a_conditional_table_is_the_read_only_dict_of_its_fractions(case):
    model, dist, e = case
    n = model.space.n
    table = conditional_table(model, dist, e)
    assert isinstance(table, ConditionalTable) and isinstance(table, Mapping)
    plain = {mask: table[mask] for mask in range(1 << n)}
    assert table == plain and plain == table and dict(table) == plain
    assert table == _definitional_table(model, dist, e)
    assert list(table) == list(range(1 << n)) and len(table) == 1 << n
    assert all(isinstance(table[mask], Fraction) for mask in table)
    for key in (-1, 1 << n, 0.0, "0", None, (0,)):
        with pytest.raises(KeyError):
            table[key]
        assert key not in table and table.get(key) is None
    with pytest.raises(TypeError):
        table[0] = Fraction(0)
    with pytest.raises(TypeError):
        del table[0]
    with pytest.raises(AttributeError):
        table.extra = 1
    assert table == plain  # unchanged by the attempts


def _every_brute_value(model, dist, e, table, theta, a_set, pair):
    """Each brute_* function's value on the case, read from ``table``."""
    n = model.space.n
    shapley, bernoulli = SimpleWeights.shapley(n), BernoulliWeights(theta)
    return (
        [brute_simple_index(model, dist, e, a, shapley, table=table) for a in range(n)],
        [brute_bernoulli_index(model, dist, e, a, bernoulli, table=table) for a in range(n)],
        [brute_coefficient_sums(model, dist, e, a, table=table) for a in range(n)],
        brute_coalition_sums(model, dist, e, table=table),
        brute_interaction_index(model, dist, e, a_set, pair, table=table),
        brute_interaction_index(model, dist, e, a_set, BernoulliInteractionWeights(theta), table=table),
    )


@given(_contraction_cases(), st.data())
@example(_mixed_case(), None)
@settings(deadline=None)
def test_every_brute_function_reads_a_conditional_table_as_its_dict(case, data):
    model, dist, e = case
    n = model.space.n
    if data is None:  # the mixed case, drawn by hand
        theta, members = [Fraction(0), Fraction(1), Fraction(1, 2)], [0, 2]
    else:
        theta = data.draw(st.lists(st.sampled_from(THETA_GRID), min_size=n, max_size=n))
        members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    a_set = Coalition.from_members(members)
    m = len(a_set)
    total = sum(comb(n - m, k) * (k + 1) for k in range(n - m + 1))
    pair = InteractionWeights.single(n, m, [Fraction(k + 1, total) for k in range(n - m + 1)])
    args = (model, dist, e)
    want = _every_brute_value(*args, None, theta, a_set, pair)
    for block in (1, 4, 1 << 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "BLOCK_OUTCOMES", block)
            table = conditional_table(*args)
            assert _every_brute_value(*args, None, theta, a_set, pair) == want
        assert _every_brute_value(*args, table, theta, a_set, pair) == want
        assert _every_brute_value(*args, dict(table), theta, a_set, pair) == want


def _uniform_and_ones(n):
    space = and_space(n)
    return ProductDistribution.uniform(space), ones_instance(space)


def test_a_table_of_the_wrong_size_is_read_as_its_dict():
    # a smaller table misses a mask either way; a larger one gives its first
    # 2^n entries either way
    model, (dist, e) = and_table_model(and_space(2)), _uniform_and_ones(2)
    small = conditional_table(and_table_model(and_space(1)), *_uniform_and_ones(1))
    for given_table in (small, dict(small)):
        with pytest.raises(KeyError):
            brute_coalition_sums(model, dist, e, table=given_table)
    large = conditional_table(and_table_model(and_space(3)), *_uniform_and_ones(3))
    want = brute_coalition_sums(model, dist, e, table={mask: large[mask] for mask in range(4)})
    assert brute_coalition_sums(model, dist, e, table=large) == want
    assert brute_coalition_sums(model, dist, e, table=dict(large)) == want


# A 12-feature, all-3-valued ensemble of 3 trees (531 441 outcomes, 9 blocks
# of 59 049), every probability nonzero so that every outcome is read; the
# oracle's table on a sample of masks against a conditioned walk of each
# tree.
_TWELVE_FEATURE_TABLE = """
import random
from fractions import Fraction
from powerdex import EnsembleModel, FeatureSpace, Instance, ProductDistribution, TreeModel, conditional_table
from powerdex.models import Leaf, Split

rng = random.Random(12)
n = 12
space = FeatureSpace([("a", "b", "c")] * n)

def tree(free, depth):
    if not free or depth == 4 or rng.random() < 0.2:
        return Leaf(Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
    f = rng.choice(sorted(free))
    return Split(f, tuple(tree(free - {f}, depth + 1) for _ in range(3)))

def expect(node, rows):
    if isinstance(node, Leaf):
        return node.value
    return sum(p * expect(c, rows) for p, c in zip(rows[node.feature], node.children) if p)

roots = [tree(frozenset(range(n)), 0) for _ in range(3)]
weights = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)]
model = EnsembleModel([(w, TreeModel(space, r)) for w, r in zip(weights, roots)])
rows = []
for _ in range(n):
    counts = [rng.randint(1, 4) for _ in range(3)]
    rows.append([Fraction(c, sum(counts)) for c in counts])
dist = ProductDistribution(space, rows)
e = Instance(space, [rng.choice("abc") for _ in range(n)])
table = conditional_table(model, dist, e)
for mask in [0, (1 << n) - 1, *rng.sample(range(1, (1 << n) - 1), 30)]:
    pinned = [[Fraction(int(k == e._positions[i])) for k in range(3)] if mask >> i & 1 else row
              for i, row in enumerate(rows)]
    assert table[mask] == sum(w * expect(r, pinned) for w, r in zip(weights, roots)), mask
"""


def test_a_twelve_feature_table_is_tabulated_in_bounded_memory():
    # the whole grid as one block peaks near 67 MB, block by block under 30
    assert peak_kib_of(_TWELVE_FEATURE_TABLE) < 30 * 1024


def _theta_product(theta, members, mask):
    q = Fraction(1)
    for i in members:
        q *= theta[i] if mask >> i & 1 else 1 - theta[i]
    return q


@given(_contraction_cases(), st.data())
@settings(deadline=None)
def test_bernoulli_oracles_equal_the_per_coalition_product(case, data):
    model, dist, e = case
    n = model.space.n
    theta = data.draw(st.lists(st.sampled_from(THETA_GRID), min_size=n, max_size=n))
    table = _definitional_table(model, dist, e)
    for a in range(n):
        rest = [i for i in range(n) if i != a]
        want = sum(
            _theta_product(theta, rest, mask) * (table[mask | 1 << a] - table[mask])
            for mask in range(1 << n)
            if not mask >> a & 1
        )
        assert brute_bernoulli_index(
            model, dist, e, a, BernoulliWeights(theta), table=table
        ) == want
    a_set = Coalition.from_members(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    complement = list(a_set.complement(n))
    want = 0
    for mask in range(1 << n):
        if mask & a_set.mask:
            continue
        marginal = sum(
            (-1) ** (len(a_set) - b.mask.bit_count()) * table[mask | b.mask]
            for b in subsets(a_set)
        )
        want += _theta_product(theta, complement, mask) * marginal
    assert brute_interaction_index(
        model, dist, e, a_set, BernoulliInteractionWeights(theta), table=table
    ) == want


def _weight_row(draw, size):
    """Nonnegative integer weights of the given length, some zero, at least one not."""
    raw = draw(st.lists(st.sampled_from((0, 0, 1, 2, 5)), min_size=size, max_size=size))
    if not any(raw):
        raw[draw(st.integers(0, size - 1))] = 1
    return raw


@st.composite
def _tables_and_weights(draw):
    """Any table over n features, cardinality weights with zeros, and thetas in [0, 1]."""
    n = draw(st.integers(1, 5))
    table = {mask: draw(rationals()) for mask in range(1 << n)}
    a_set = Coalition.from_members(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    m = len(a_set)
    raw = _weight_row(draw, n - m + 1)
    total = sum(comb(n - m, k) * v for k, v in enumerate(raw))
    pair = InteractionWeights.single(n, m, [Fraction(v, total) for v in raw])
    theta = draw(st.lists(st.sampled_from(THETA_GRID), min_size=n, max_size=n))
    return table, SimpleWeights.normalized(_weight_row(draw, n)), theta, a_set, pair


@given(_tables_and_weights())
@settings(deadline=None)
def test_integer_index_sums_equal_the_fraction_sums(case):
    table, weights, theta, a_set, pair = case
    n = weights.n
    space = and_space(n)
    model, dist = constant_model(space, Fraction(0)), ProductDistribution.uniform(space)
    e = ones_instance(space)
    for a in range(n):
        rest = [i for i in range(n) if i != a]
        gaps = [
            (mask, table[mask | 1 << a] - table[mask])
            for mask in range(1 << n)
            if not mask >> a & 1
        ]
        want = sum(weights.q[mask.bit_count()] * gap for mask, gap in gaps)
        assert brute_simple_index(model, dist, e, a, weights, table=table) == want
        want = sum(_theta_product(theta, rest, mask) * gap for mask, gap in gaps)
        got = brute_bernoulli_index(model, dist, e, a, BernoulliWeights(theta), table=table)
        assert got == want
    m = len(a_set)
    complement = list(a_set.complement(n))
    marginals = {
        mask: sum((-1) ** (m - len(b)) * table[mask | b.mask] for b in subsets(a_set))
        for mask in range(1 << n)
        if not mask & a_set.mask
    }
    want = sum(pair.q[mask.bit_count()] * marginal for mask, marginal in marginals.items())
    assert brute_interaction_index(model, dist, e, a_set, pair, table=table) == want
    want = sum(
        _theta_product(theta, complement, mask) * marginal for mask, marginal in marginals.items()
    )
    scheme = BernoulliInteractionWeights(theta)
    assert brute_interaction_index(model, dist, e, a_set, scheme, table=table) == want


def test_brute_simple_index_and(and2):
    space, model, dist, e = and2
    assert brute_simple_index(model, dist, e, 0, SimpleWeights.shapley(2)) == Fraction(3, 8)


def test_brute_simple_index_dummy_feature():
    space = and_space(3)
    values = [
        Fraction(1) if omega[0] == "1" and omega[1] == "1" else Fraction(0)
        for omega in space.outcomes()
    ]
    model = TableModel(space, values)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    assert brute_simple_index(model, dist, e, 2, SimpleWeights.shapley(3)) == 0


def test_brute_simple_index_marginal_weights(and2):
    space, model, dist, e = and2
    rest = Coalition.singleton(0).complement(2)
    expected = model.evaluate(e) - conditional_expectation(model, dist, e, rest)
    assert brute_simple_index(model, dist, e, 0, SimpleWeights.marginal(2)) == expected


def test_brute_bernoulli_index_values(and2):
    space, model, dist, e = and2
    assert brute_bernoulli_index(
        model, dist, e, 0, BernoulliWeights.constant(2, Fraction(1, 2))
    ) == Fraction(3, 8)
    assert brute_bernoulli_index(
        model, dist, e, 0, BernoulliWeights.constant(2, Fraction(0))
    ) == Fraction(1, 4)
    # theta = 1 concentrates on the full complement coalition
    rest = Coalition.singleton(0).complement(2)
    assert brute_bernoulli_index(
        model, dist, e, 0, BernoulliWeights.constant(2, Fraction(1))
    ) == model.evaluate(e) - conditional_expectation(model, dist, e, rest)


def test_brute_interaction_index_values(and2):
    space, model, dist, e = and2
    both = Coalition.from_members([0, 1])
    assert brute_interaction_index(
        model, dist, e, both, InteractionWeights.single(2, 2, [Fraction(1)])
    ) == Fraction(1, 4)
    assert brute_interaction_index(
        model, dist, e, both, BernoulliInteractionWeights.constant(2, Fraction(1, 3))
    ) == Fraction(1, 4)


def test_brute_interaction_singleton_collapse():
    rng = random.Random(71)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    w = SimpleWeights.shapley(4)
    assert brute_interaction_index(
        model, dist, e, Coalition.singleton(2), InteractionWeights.from_simple(w)
    ) == brute_simple_index(model, dist, e, 2, w)
    theta = BernoulliWeights.constant(4, Fraction(1, 4))
    assert brute_interaction_index(
        model, dist, e, Coalition.singleton(2), BernoulliInteractionWeights(theta.theta)
    ) == brute_bernoulli_index(model, dist, e, 2, theta)


def test_brute_coalition_sums_and(and2):
    space, model, dist, e = and2
    assert brute_coalition_sums(model, dist, e) == (Fraction(1, 4), Fraction(1), Fraction(1))


def test_brute_coalition_sums_top_entry_is_prediction():
    rng = random.Random(12)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    sums = brute_coalition_sums(model, dist, e)
    assert sums[-1] == model.evaluate(e)


def test_brute_coalition_sums_constant_model():
    n = 4
    space = and_space(n)
    c = Fraction(3, 7)
    model = constant_model(space, c)
    dist = ProductDistribution.uniform(space)
    sums = brute_coalition_sums(model, dist, ones_instance(space))
    assert sums == tuple(comb(n, k) * c for k in range(n + 1))


def test_budget_enforced():
    budget = OracleBudget(max_features=3, max_outcomes=8)
    space = and_space(4)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    with pytest.raises(BudgetExceededError):
        brute_expectation(model, dist, budget=budget)
    wide = FeatureSpace([tuple(map(str, range(3)))] * 3)  # 27 outcomes > 8
    with pytest.raises(BudgetExceededError):
        brute_expectation(
            TableModel(wide, [Fraction(0)] * 27), ProductDistribution.uniform(wide), budget=budget
        )


@pytest.mark.parametrize(
    "brute, weights, message",
    [
        (brute_simple_index, SimpleWeights.shapley(3), "weights are for n=3, space has n=2"),
        (brute_bernoulli_index, BernoulliWeights.constant(3, Fraction(1, 2)), "theta has 3 entries for n=2"),
        (brute_interaction_index, BernoulliWeights.constant(1, Fraction(1, 2)), "theta has 1 entries for n=2"),
        (brute_interaction_index, InteractionWeights.single(3, 1, ["1/4"] * 3), "weights are for n=3, space has n=2"),
    ],
)
def test_oracle_rejects_a_mis_sized_scheme_as_the_engine_does(and2, brute, weights, message):
    _, model, dist, e = and2
    target = Coalition.singleton(0) if brute is brute_interaction_index else 0
    with pytest.raises(WeightError, match=message):
        brute(model, dist, e, target, weights)


_SHAPLEY3 = SimpleWeights.shapley(3)


@pytest.mark.parametrize(
    "brute, fast, weights",
    [
        (brute_simple_index, compute_simple_index, BernoulliWeights.constant(3, Fraction(1, 2))),
        (brute_simple_index, compute_simple_index, InteractionWeights.from_simple(_SHAPLEY3)),
        (brute_bernoulli_index, compute_bernoulli_index, _SHAPLEY3),
        (brute_bernoulli_index, compute_bernoulli_index, InteractionWeights.from_simple(_SHAPLEY3)),
    ],
)
def test_the_per_feature_oracles_reject_a_scheme_of_the_other_kind_as_the_engine_does(
    brute, fast, weights
):
    space = and_space(3)
    model, dist, e = and_table_model(space), ProductDistribution.uniform(space), ones_instance(space)
    message = "^" + re.escape(f"unsupported scheme {weights!r}") + "$"
    with pytest.raises(TypeError, match=message):
        fast(model, dist, e, 0, weights)
    with pytest.raises(TypeError, match=message):
        brute(model, dist, e, 0, weights)
    table = conditional_table(model, dist, e)
    with pytest.raises(TypeError, match=message):
        brute(model, dist, e, 0, weights, table=table)


def test_the_oracle_fits_a_feature_scheme_to_singletons_only():
    space = and_space(3)
    model, dist, e = and_table_model(space), ProductDistribution.uniform(space), ones_instance(space)
    shapley = SimpleWeights.shapley(3)
    with pytest.raises(WeightError, match=r"weights are for \|A\|=1, the set has \|A\|=2"):
        brute_interaction_index(model, dist, e, Coalition.from_members([0, 1]), shapley)
    assert brute_interaction_index(
        model, dist, e, Coalition.singleton(1), shapley
    ) == brute_simple_index(model, dist, e, 1, shapley)


def test_default_budget_limits():
    budget = OracleBudget()
    assert budget.max_features == 12
    assert budget.max_outcomes == 1 << 20


def test_oracles_are_permutation_equivariant():
    rng = random.Random(88)
    space = random_space(rng, 5)
    model = TableModel.tabulate(random_tree_model(rng, space))
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)

    perm = list(range(5))
    rng.shuffle(perm)  # new feature j corresponds to old feature perm[j]
    inv = {old: new for new, old in enumerate(perm)}

    new_space = FeatureSpace([space.domains[old] for old in perm])
    new_values = []
    for omega in new_space.outcomes():
        old_values = [None] * 5
        for j, v in enumerate(omega):
            old_values[perm[j]] = v
        new_values.append(model.evaluate(Instance(space, old_values)))
    new_model = TableModel(new_space, new_values)
    new_dist = ProductDistribution(new_space, [dist.probs[old] for old in perm])
    new_e = Instance(new_space, [e[old] for old in perm])

    w = SimpleWeights.shapley(5)
    theta = BernoulliWeights([Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1), Fraction(3, 4)])
    new_theta = BernoulliWeights([theta.theta[old] for old in perm])
    for a in range(5):
        assert brute_simple_index(model, dist, e, a, w) == brute_simple_index(
            new_model, new_dist, new_e, inv[a], w
        )
        assert brute_bernoulli_index(model, dist, e, a, theta) == brute_bernoulli_index(
            new_model, new_dist, new_e, inv[a], new_theta
        )
    assert brute_coalition_sums(model, dist, e) == brute_coalition_sums(
        new_model, new_dist, new_e
    )
    old_set = Coalition.from_members([0, 3])
    new_set = Coalition.from_members([inv[0], inv[3]])
    iw = InteractionWeights.single(5, 2, [Fraction(1, 8)] * 4)
    assert brute_interaction_index(model, dist, e, old_set, iw) == brute_interaction_index(
        new_model, new_dist, new_e, new_set, iw
    )
