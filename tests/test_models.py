import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powerdex import (
    AdditiveModel,
    BernoulliWeights,
    Coalition,
    CountingModel,
    EnsembleModel,
    FeatureSpace,
    Instance,
    ProductDistribution,
    SimpleWeights,
    SpaceMismatchError,
    TableModel,
    TreeModel,
    attribute_all,
    conditional_expectation,
)
from powerdex.core import check_shared_space
from powerdex.models import TREE_DEPTH_LIMIT, Leaf, Model, Split

from corpus import (
    MODEL_KINDS,
    component_weights,
    cycles_left_by,
    models,
    and_space,
    and_table_model,
    and_tree_model,
    ones_instance,
    random_additive_model,
    random_distribution,
    random_instance,
    random_model_of_kind,
    random_space,
    random_tree_model,
    small_spaces,
)


@pytest.fixture
def and2():
    space = and_space(2)
    return space, and_table_model(space), ProductDistribution.uniform(space)


def test_table_evaluate(and2):
    space, model, _ = and2
    assert model.evaluate(Instance(space, ("1", "1"))) == 1
    assert model.evaluate(Instance(space, ("1", "0"))) == 0


def test_additive_evaluate():
    space = FeatureSpace([("0", "1")])
    model = AdditiveModel(space, Fraction(1), [[Fraction(0), Fraction(1)]])
    assert model.evaluate(Instance(space, ("1",))) == 2
    assert model.evaluate(Instance(space, ("0",))) == 1


def test_tree_evaluate():
    space = and_space(2)
    model = and_tree_model(space)
    assert model.evaluate(Instance(space, ("1", "0"))) == 0
    assert model.evaluate(Instance(space, ("1", "1"))) == 1


def test_expected_value_and(and2):
    space, model, dist = and2
    assert model.expected_value(dist) == Fraction(1, 4)


def test_expected_value_point_mass(and2):
    space, model, _ = and2
    for omega in space.outcomes():
        e = Instance(space, omega)
        assert model.expected_value(ProductDistribution.point_mass(e)) == model.evaluate(e)


def test_ensemble_expected_value(and2):
    space, model, dist = and2
    ensemble = EnsembleModel([(Fraction(2), model), (Fraction(3), and_tree_model(space))])
    assert ensemble.expected_value(dist) == Fraction(5, 4)
    assert ensemble.evaluate(Instance(space, ("1", "1"))) == 5


def test_conditional_expectation_and(and2):
    space, model, dist = and2
    e = ones_instance(space)
    assert conditional_expectation(model, dist, e, Coalition.singleton(0)) == Fraction(1, 2)
    assert conditional_expectation(model, dist, e, Coalition.full(2)) == 1
    assert conditional_expectation(model, dist, e, Coalition()) == Fraction(1, 4)


def test_full_conditioning_returns_the_prediction():
    rng = random.Random(11)
    space = random_space(rng, 4)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    for model in (
        random_tree_model(rng, space),
        TableModel.tabulate(random_tree_model(rng, space)),
    ):
        assert conditional_expectation(model, dist, e, Coalition.full(4)) == model.evaluate(e)


def test_space_mismatch_rejected(and2):
    _, model, _ = and2
    other = ProductDistribution.uniform(and_space(3))
    with pytest.raises(SpaceMismatchError):
        model.expected_value(other)
    with pytest.raises(SpaceMismatchError):
        model.evaluate(ones_instance(and_space(3)))


def test_table_size_guard():
    space = FeatureSpace([("0", "1")] * 25)  # 2^25 > 2^24
    with pytest.raises(ValueError):
        TableModel(space, [])


def test_tree_totality_enforced():
    space = and_space(2)
    with pytest.raises(ValueError):
        TreeModel(space, Split(0, (Leaf(Fraction(1)),)))  # one child for two values


def test_tree_repeated_feature_rejected():
    space = and_space(2)
    inner = Split(0, (Leaf(Fraction(0)), Leaf(Fraction(1))))
    with pytest.raises(ValueError):
        TreeModel(space, Split(0, (inner, Leaf(Fraction(0)))))


def test_tree_shared_nodes_rejected():
    space = and_space(2)
    shared = Leaf(Fraction(1))
    with pytest.raises(ValueError):
        TreeModel(space, Split(0, (shared, shared)))


def test_tree_matches_table_enumeration():
    rng = random.Random(4179)
    for trial in range(25):
        n = rng.randint(2, 10)
        space = random_space(rng, n)
        if space.outcome_count() > 1 << 16:
            continue
        tree = random_tree_model(rng, space, max_depth=4)
        table = TableModel.tabulate(tree)
        dist = random_distribution(rng, space)
        assert tree.expected_value(dist) == table.expected_value(dist), trial


def test_and_conditioning_is_monotone():
    # agreeing features only raise the AND model's conditional expectation
    for n in (2, 3, 5):
        space = and_space(n)
        model = and_table_model(space)
        dist = ProductDistribution.uniform(space)
        e = ones_instance(space)
        coalition = Coalition()
        previous = conditional_expectation(model, dist, e, coalition)
        for feature in range(n):
            coalition = coalition.with_member(feature)
            current = conditional_expectation(model, dist, e, coalition)
            assert current >= previous
            previous = current


def test_expected_value_linear_in_each_marginal():
    rng = random.Random(140)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    d1 = random_distribution(rng, space)
    d2 = random_distribution(rng, space)
    alpha = Fraction(2, 7)
    for feature in range(4):
        blended_row = tuple(
            alpha * p + (1 - alpha) * q
            for p, q in zip(d1.probs[feature], d2.probs[feature])
        )
        blended = d1.with_rows({feature: blended_row})
        other = d1.with_rows({feature: d2.probs[feature]})
        assert model.expected_value(blended) == alpha * model.expected_value(d1) + (
            1 - alpha
        ) * model.expected_value(other)


def test_ensemble_equals_weighted_component_sum():
    rng = random.Random(99)
    space = random_space(rng, 5)
    models = [random_tree_model(rng, space) for _ in range(3)]
    weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    ensemble = EnsembleModel(list(zip(weights, models)))
    for _ in range(5):
        dist = random_distribution(rng, space)
        expected = sum(
            (w * m.expected_value(dist) for w, m in zip(weights, models)), Fraction(0)
        )
        assert ensemble.expected_value(dist) == expected


@given(st.data())
def test_ensemble_evaluate_is_the_weighted_sum_of_its_components(data):
    space = data.draw(small_spaces())
    # weights with denominators or 0; components of every kind, ensembles too
    components = data.draw(
        st.lists(st.tuples(component_weights(), models(space)), min_size=1, max_size=4)
    )
    ensemble = EnsembleModel(components)
    for x in space.outcomes():
        x = Instance(space, x)
        assert ensemble.evaluate(x) == sum(
            (w * m.evaluate(x) for w, m in components), Fraction(0)
        )
    foreign = FeatureSpace([*space.domains, ("0",)])
    with pytest.raises(SpaceMismatchError):
        ensemble.evaluate(Instance(foreign, ("0",) * foreign.n))


def test_ensemble_evaluate_checks_the_space_once(monkeypatch):
    rng = random.Random(5)
    space = random_space(rng, 4)
    inner = EnsembleModel([
        (Fraction(1, 2), random_tree_model(rng, space)),
        (Fraction(3), random_additive_model(rng, space)),
    ])
    ensemble = EnsembleModel([
        (Fraction(2), inner),
        (Fraction(1, 3), TableModel.tabulate(random_tree_model(rng, space))),
    ])
    counted = CountingModel(ensemble)
    outer = EnsembleModel([(Fraction(-1), counted)])
    e = random_instance(rng, space)
    want = ensemble.evaluate(e)
    checks = []

    def counting_check(*objects):
        checks.append(objects)
        return check_shared_space(*objects)

    monkeypatch.setattr("powerdex.models.check_shared_space", counting_check)
    assert ensemble.evaluate(e) == want
    assert len(checks) == 1
    # a user model inside an ensemble is still reached through its evaluate
    assert outer.evaluate(e) == -want
    assert counted.evaluate_calls == 1


class _PointModel(Model):
    """A model from outside the library: it defines evaluate and takes no expectation."""

    def __init__(self, inner: Model):
        self.inner = inner
        self.space = inner.space

    def evaluate(self, instance: Instance) -> Fraction:
        return self.inner.evaluate(instance)

    def expected_value(self, dist: ProductDistribution) -> Fraction:
        raise AssertionError("a point evaluation took an expectation")


def _point_value(model: Model, x: Instance) -> Fraction:
    # F(x) by definition, from each model's public fields and domain order
    space = x.space
    if isinstance(model, TableModel):
        return model.values[list(space.outcomes()).index(x.values)]
    if isinstance(model, AdditiveModel):
        terms = [row[d.index(v)] for row, d, v in zip(model.terms, space.domains, x.values)]
        return model.bias + sum(terms, Fraction(0))
    if isinstance(model, TreeModel):
        node = model.root
        while isinstance(node, Split):
            node = node.children[space.domains[node.feature].index(x[node.feature])]
        return node.value
    if isinstance(model, EnsembleModel):
        return sum((w * _point_value(m, x) for w, m in model.components), Fraction(0))
    return _point_value(model.inner, x)  # CountingModel, _PointModel


@given(st.data())
def test_evaluate_at_positions_is_evaluate(data):
    space = data.draw(small_spaces())
    inner = data.draw(models(space))  # every kind, ensembles nested two deep
    counted = CountingModel(inner)
    user = _PointModel(inner)
    w = data.draw(component_weights())
    ensemble = EnsembleModel([(w, inner), (Fraction(-2, 3), counted), (Fraction(5), user)])
    for positions in itertools.product(*(range(len(d)) for d in space.domains)):
        x = Instance(space, [d[k] for d, k in zip(space.domains, positions)])
        for model, calls_made in ((inner, 0), (counted, 1), (user, 0), (ensemble, 1)):
            want = _point_value(model, x)
            calls = counted.evaluate_calls
            assert model.evaluate(x) == want
            # a pair in lowest terms, its denominator positive
            assert model._evaluate_at(positions) == (want.numerator, want.denominator)
            assert counted.evaluate_calls == calls + 2 * calls_made


# ---------------------------------------------------------------------------
# the batch contract: expected_values equals a loop over expected_value


@given(
    st.sampled_from(MODEL_KINDS),
    st.integers(min_value=0, max_value=2**32),
)
def test_expected_values_equals_the_loop(kind, seed):
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(1, 5))
    model = random_model_of_kind(kind, rng, space)
    pool = [random_distribution(rng, space).probs for _ in range(3)]
    batch = []
    for _ in range(rng.randint(0, 8)):
        if batch and rng.random() < 0.2:
            batch.append(rng.choice(batch))  # the same distribution again
            continue
        rows = []
        for i in range(space.n):
            row = rng.choice(pool)[i]  # shared with other members of the batch
            if rng.random() < 0.3:
                row = tuple(list(row))  # equal, but a distinct object
            rows.append(row)
        batch.append(ProductDistribution(space, rows))
    assert model.expected_values(batch) == [model.expected_value(d) for d in batch]


def test_expected_values_checks_every_space(and2):
    space, model, dist = and2
    tree = and_tree_model(space)
    other = ProductDistribution.uniform(and_space(3))
    for m in (model, tree, EnsembleModel([(Fraction(1), tree)])):
        with pytest.raises(SpaceMismatchError):
            m.expected_values([dist, other])


# ---------------------------------------------------------------------------
# one feature's row swapped: the batch equals a loop over the swapped rows


def _sparse_distribution(rng, space):
    # many zero-probability values and some point-mass rows
    rows = []
    for domain in space.domains:
        weights = [rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in domain]
        if not any(weights):
            weights[rng.randrange(len(domain))] = 1
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return ProductDistribution(space, rows)


@given(
    st.sampled_from(MODEL_KINDS),
    st.integers(min_value=0, max_value=2**32),
)
def test_expected_values_of_swapped_rows_equal_the_loop(kind, seed):
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(1, 5))
    model = random_model_of_kind(kind, rng, space)
    dist = _sparse_distribution(rng, space)
    swaps = []
    for _ in range(rng.randint(0, 8)):
        i = rng.randrange(space.n)  # the same feature may be swapped again
        size = len(space.domains[i])
        pick = rng.random()
        if pick < 0.5:  # often onto a value the distribution gives probability 0
            hit = rng.randrange(size)
            row = tuple(Fraction(int(k == hit)) for k in range(size))
        elif pick < 0.7:
            row = dist.probs[i]
        else:
            row = random_distribution(rng, space).probs[i]
        swaps.append((i, row))
    swapped = [dist.with_rows({i: row}) for i, row in swaps]
    assert model.expected_values(swapped) == [model.expected_value(d) for d in swapped]


def test_swapping_a_feature_the_tree_never_reads_returns_its_expectation():
    space = and_space(3)
    tree = TreeModel(space, Split(0, (Leaf(Fraction(2)), Leaf(Fraction(5)))))
    dist = ProductDistribution.uniform(space)
    pin = (Fraction(1), Fraction(0))
    swapped = [dist.with_rows({i: pin}) for i in (1, 2)]
    assert tree.expected_values(swapped) == [Fraction(7, 2)] * 2
    swapped = [dist.with_rows({i: pin}) for i in (0, 1)]
    assert tree.expected_values(swapped) == [2, Fraction(7, 2)]


# ---------------------------------------------------------------------------
# the tree kernel on reduced integer pairs equals the Fraction recursion


def _fraction_expectation(node, probs):
    # the tree's expectation as one Fraction recursion over Leaf/Split nodes
    if isinstance(node, Leaf):
        return node.value
    total = Fraction(0)
    for p, child in zip(probs[node.feature], node.children):
        if p:
            total += p * _fraction_expectation(child, probs)
    return total


def _reference(components, probs):
    return sum(
        (w * _fraction_expectation(root, probs) for w, root in components), Fraction(0)
    )


def _big_rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _big_row(rng, size, bound):
    # zero entries, point masses, and weights up to the bound
    if rng.random() < 0.25:
        hit = rng.randrange(size)
        return tuple(Fraction(int(k == hit)) for k in range(size))
    weights = [rng.randint(0, bound) if rng.random() < 0.7 else 0 for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = rng.randint(1, bound)
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _big_tree(rng, space, bound):
    def build(available, depth):
        if not available or depth >= 4 or rng.random() < 0.3:
            return Leaf(_big_rational(rng, bound))
        feature = rng.choice(sorted(available))
        return Split(
            feature,
            tuple(build(available - {feature}, depth + 1) for _ in space.domains[feature]),
        )

    return build(frozenset(range(space.n)), 0)  # sometimes a single leaf


@given(
    st.sampled_from(("tree", "ensemble")),
    st.sampled_from((9, 2**64)),
    st.integers(min_value=0, max_value=2**32),
)
def test_pair_kernel_equals_the_fraction_recursion(kind, bound, seed):
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(1, 5))
    if kind == "tree":
        components = [(Fraction(1), _big_tree(rng, space, bound))]
        model = TreeModel(space, components[0][1])
    else:
        components = [
            (_big_rational(rng, bound), _big_tree(rng, space, bound))
            for _ in range(rng.randint(1, 4))
        ]
        model = EnsembleModel([(w, TreeModel(space, root)) for w, root in components])
    dists = [
        ProductDistribution(space, [_big_row(rng, len(d), bound) for d in space.domains])
        for _ in range(rng.randint(1, 3))
    ]
    for dist in dists:
        assert model.expected_value(dist) == _reference(components, dist.probs)
    assert model.expected_values(dists) == [_reference(components, d.probs) for d in dists]
    dist = dists[0]
    swaps = []
    for _ in range(rng.randint(0, 8)):
        i = rng.randrange(space.n)
        if rng.random() < 0.2:
            row = dist.probs[i]
        else:  # often mass on values the distribution gives probability 0
            row = _big_row(rng, len(space.domains[i]), bound)
        swaps.append((i, row))
    want = []
    for i, row in swaps:
        rows = list(dist.probs)  # the swap, by rebuilding the distribution
        rows[i] = row
        want.append(_reference(components, rows))
    assert model.expected_values([dist.with_rows({i: row}) for i, row in swaps]) == want


def test_tree_root_is_rebuilt_equal():
    rng = random.Random(8)
    space = random_space(rng, 5)
    root = _big_tree(rng, space, 2**64)
    tree = TreeModel(space, root)
    assert tree.root == root
    assert tree.root is not root  # only the compiled form is stored
    with pytest.raises(AttributeError):
        tree.root = root


# ---------------------------------------------------------------------------
# the depth limit


def _chain(space, depth):
    node = Leaf(Fraction(1))
    for feature in reversed(range(depth)):
        node = Split(feature, (Leaf(Fraction(0)), node))
    return node


def test_tree_depth_limit():
    depth = TREE_DEPTH_LIMIT
    space = and_space(depth + 1)
    tree = TreeModel(space, _chain(space, depth))  # at the limit: every walk works
    dist = ProductDistribution.uniform(space)
    assert tree.expected_value(dist) == Fraction(1, 2**depth)
    pin = (Fraction(0), Fraction(1))
    assert tree.expected_value(dist.with_rows({depth - 1: pin})) == Fraction(1, 2 ** (depth - 1))
    assert tree.evaluate(ones_instance(space)) == 1
    # the gap-polynomial walk recurses once per level too; at the point
    # mass at e every gap is 0, so it stays cheap
    e = ones_instance(space)
    report = attribute_all(tree, ProductDistribution.point_mass(e), e, SimpleWeights.shapley(depth + 1))
    assert report.values == (0,) * (depth + 1)
    assert report.engine_calls == (2 * (depth + 1),) * (depth + 1)
    # Banzhaf runs the same walk on the theta = 1/2 rows (1/4, 3/4), where
    # every gap is nonzero
    report = attribute_all(tree, dist, e, SimpleWeights.banzhaf(depth + 1))
    assert report.values == (Fraction(1, 2) * Fraction(3, 4) ** (depth - 1),) * depth + (0,)
    assert report.path == "bernoulli-direct"
    root = tree.root  # rebuilt one frame per level, within the default limit
    limit = sys.getrecursionlimit()
    # dataclass equality recurses about four frames per level
    sys.setrecursionlimit(limit + 4 * depth)
    try:
        assert root == _chain(space, depth)
    finally:
        sys.setrecursionlimit(limit)
    with pytest.raises(ValueError, match="deeper than the limit"):
        TreeModel(space, _chain(space, depth + 1))


def _from_depth(frames, call):
    # call() from ``frames`` frames below the caller
    if frames:
        return _from_depth(frames - 1, call)
    return call()


def test_the_walks_run_from_a_deep_caller():
    # a Bernoulli scheme keeps the walk linear in n; an interpolation
    # scheme at this n would cost O(n^3)
    depth = TREE_DEPTH_LIMIT
    space = and_space(depth + 1)
    tree = TreeModel(space, _chain(space, depth))
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    scheme = BernoulliWeights.constant(depth + 1, Fraction(1, 3))
    shallow = attribute_all(tree, dist, e, scheme)
    assert shallow.path == "bernoulli-direct"
    assert _from_depth(700, lambda: attribute_all(tree, dist, e, scheme)) == shallow


@pytest.mark.parametrize("kind", ["tree", "ensemble", "table", "additive"])
@pytest.mark.parametrize("scheme", ["shapley", "bernoulli"])
def test_a_gap_walk_leaves_no_reference_cycle(kind, scheme):
    rng = random.Random(3)
    space = random_space(rng, 3)
    model = random_model_of_kind(kind, rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    weights = (
        SimpleWeights.shapley(3)
        if scheme == "shapley"
        else BernoulliWeights([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
    )
    # nothing the call left behind needed the collector
    assert cycles_left_by(lambda: attribute_all(model, dist, e, weights)) == 0
