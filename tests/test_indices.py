import collections
import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from powerdex import (
    AdditiveModel,
    BernoulliInteractionWeights,
    BernoulliWeights,
    Coalition,
    CountingModel,
    EnsembleModel,
    FeatureSpace,
    Instance,
    ProductDistribution,
    SimpleWeights,
    TableModel,
    TreeModel,
    WeightError,
    all_coefficients,
    attribute_all,
    bernoulli_indices,
    bernoulli_mixture,
    brute_bernoulli_index,
    brute_coefficient_sums,
    brute_interaction_index,
    brute_simple_index,
    compute_bernoulli_index,
    compute_interaction_bernoulli,
    compute_simple_index,
    conditional_expectation,
    conditional_table,
    interpolate_coefficients,
    marginal_contribution,
    marginal_index,
    simple_indices,
)

from powerdex.core import mixture_row, point_mass_row
from powerdex.indices import _bernoulli_indices, _z_reduction
from powerdex.models import Leaf, Split, _fixed_factors, _z_factors

from corpus import (
    THETA_GRID,
    and_space,
    and_table_model,
    constant_model,
    exact_polynomials,
    instances,
    models,
    ones_instance,
    random_additive_model,
    random_distribution,
    random_instance,
    random_simple_weights,
    random_space,
    random_tree_model,
    small_spaces,
    sparse_distributions,
)

@pytest.fixture
def and2():
    space = and_space(2)
    return space, and_table_model(space), ProductDistribution.uniform(space), ones_instance(space)

# ---------------------------------------------------------------------------
# weights

def test_preset_weight_formulas():
    from math import factorial

    n = 5
    shapley = SimpleWeights.shapley(n)
    for k in range(n):
        assert shapley.q[k] == Fraction(factorial(k) * factorial(n - 1 - k), factorial(n))
    assert SimpleWeights.banzhaf(n).q == (Fraction(1, 16),) * 5
    theta = Fraction(1, 3)
    binomial = SimpleWeights.binomial(n, theta)
    assert binomial.q[2] == theta**2 * (1 - theta) ** 2
    assert SimpleWeights.dictatorial(n).q[0] == 1
    assert SimpleWeights.marginal(n).q[n - 1] == 1

def test_weight_vector_validation():
    # q must satisfy sum_k C(n-1,k) q_k = 1 exactly, with no silent rescale
    with pytest.raises(WeightError):
        SimpleWeights.from_values([Fraction(1), Fraction(1)])
    with pytest.raises(WeightError):
        SimpleWeights.from_values([Fraction(-1), Fraction(2)])
    w = SimpleWeights.normalized([Fraction(1), Fraction(1)])
    assert w.q == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(WeightError):
        SimpleWeights.normalized([Fraction(0), Fraction(0)])

def test_binomial_preset_range():
    with pytest.raises(WeightError):
        SimpleWeights.binomial(3, Fraction(0))
    with pytest.raises(WeightError):
        SimpleWeights.binomial(3, Fraction(1))

def test_bernoulli_weights_range():
    with pytest.raises(WeightError):
        BernoulliWeights([Fraction(1, 2), Fraction(9, 8)])
    BernoulliWeights([Fraction(0), Fraction(1)])

# ---------------------------------------------------------------------------
# marginal contributions and interpolation

def test_marginal_contribution_and(and2):
    space, model, dist, e = and2
    assert marginal_contribution(model, dist, e, 0, Coalition()) == Fraction(1, 4)
    assert marginal_contribution(model, dist, e, 0, Coalition.singleton(1)) == Fraction(1, 2)

def test_marginal_contribution_rejects_member(and2):
    space, model, dist, e = and2
    with pytest.raises(ValueError):
        marginal_contribution(model, dist, e, 0, Coalition.singleton(0))

def test_marginal_contribution_constant_model():
    space = and_space(3)
    model = constant_model(space, Fraction(7, 2))
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    for a in range(3):
        assert marginal_contribution(model, dist, e, a, Coalition()) == 0

def test_interpolated_coefficients_and(and2):
    space, model, dist, e = and2
    assert interpolate_coefficients(model, dist, e, 0) == (Fraction(1, 4), Fraction(1, 2))

def test_interpolated_coefficients_dummy_feature():
    space = and_space(3)
    # model reads only features 0 and 1
    values = [
        Fraction(1) if omega[0] == "1" and omega[1] == "1" else Fraction(0)
        for omega in space.outcomes()
    ]
    model = TableModel(space, values)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    assert interpolate_coefficients(model, dist, e, 2) == (Fraction(0),) * 3

def test_interpolated_coefficients_single_feature():
    space = FeatureSpace([("a", "b", "c")])
    model = TableModel(space, [Fraction(1), Fraction(4), Fraction(6)])
    dist = ProductDistribution(space, [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]])
    e = Instance(space, ("b",))
    expected = model.evaluate(e) - model.expected_value(dist)
    assert interpolate_coefficients(model, dist, e, 0) == (expected,)

def test_interpolation_matches_brute_size_sums():
    from powerdex import brute_coefficient_sums

    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(2, 6)
        space = random_space(rng, n)
        model = random_tree_model(rng, space)
        dist = random_distribution(rng, space)
        e = random_instance(rng, space)
        table = conditional_table(model, dist, e)
        for a in range(n):
            coeffs = interpolate_coefficients(model, dist, e, a)
            assert coeffs == brute_coefficient_sums(model, dist, e, a, table=table)

# ---------------------------------------------------------------------------
# indices

def test_simple_index_and_values(and2):
    space, model, dist, e = and2
    assert compute_simple_index(model, dist, e, 0, SimpleWeights.shapley(2)) == Fraction(3, 8)
    assert compute_simple_index(model, dist, e, 0, SimpleWeights.banzhaf(2)) == Fraction(3, 8)
    assert compute_simple_index(model, dist, e, 0, SimpleWeights.dictatorial(2)) == Fraction(1, 4)

def test_simple_index_dimension_check(and2):
    space, model, dist, e = and2
    with pytest.raises(WeightError):
        compute_simple_index(model, dist, e, 0, SimpleWeights.shapley(3))

@pytest.mark.parametrize(
    "index, scheme, kind",
    [
        (compute_simple_index, BernoulliWeights.constant(2, Fraction(1, 2)), "BernoulliWeights"),
        (compute_bernoulli_index, SimpleWeights.shapley(2), "SimpleWeights"),
    ],
)
def test_a_fast_path_refuses_the_other_kind_of_scheme(and2, index, scheme, kind):
    space, model, dist, e = and2
    with pytest.raises(TypeError, match=rf"^unsupported scheme {kind}\("):
        index(model, dist, e, 0, scheme)


def test_bernoulli_index_and_values(and2):
    space, model, dist, e = and2
    half = BernoulliWeights.constant(2, Fraction(1, 2))
    assert compute_bernoulli_index(model, dist, e, 0, half) == Fraction(3, 8)
    zero = BernoulliWeights.constant(2, Fraction(0))
    assert compute_bernoulli_index(model, dist, e, 0, zero) == marginal_contribution(
        model, dist, e, 0, Coalition()
    )
    one = BernoulliWeights.constant(2, Fraction(1))
    rest = Coalition.singleton(0).complement(2)
    assert compute_bernoulli_index(model, dist, e, 0, one) == model.evaluate(
        e
    ) - conditional_expectation(model, dist, e, rest)

def test_bernoulli_index_ignores_target_theta(and2):
    space, model, dist, e = and2
    for own in (Fraction(0), Fraction(1, 3), Fraction(1)):
        w = BernoulliWeights([own, Fraction(1, 2)])
        assert compute_bernoulli_index(model, dist, e, 0, w) == Fraction(3, 8)

def test_bernoulli_index_is_two_engine_calls(and2):
    space, model, dist, e = and2
    counted = CountingModel(model)
    compute_bernoulli_index(counted, dist, e, 0, BernoulliWeights.constant(2, Fraction(1, 4)))
    assert counted.expected_value_calls == 2

def test_interpolation_is_2n_engine_calls():
    rng = random.Random(3)
    space = random_space(rng, 5)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    counted = CountingModel(model)
    compute_simple_index(counted, dist, e, 2, SimpleWeights.shapley(5))
    assert counted.expected_value_calls == 10

def test_marginal_preset_short_circuits(and2):
    space, model, dist, e = and2
    counted = CountingModel(model)
    value = compute_simple_index(counted, dist, e, 0, SimpleWeights.marginal(2))
    assert counted.expected_value_calls == 0
    # F(e) plus one per value of nonzero probability, both values here
    assert counted.evaluate_calls == 3
    assert value == Fraction(1, 2)
    # closed form agrees with the untagged weight vector run through interpolation
    plain = SimpleWeights.from_values([Fraction(0), Fraction(1)])
    assert plain.preset is None
    assert compute_simple_index(model, dist, e, 0, plain) == value

def test_marginal_index_closed_form(and2):
    space, model, dist, e = and2
    # F(e) - sum_v F(v, e_2) P(Y_1 = v) = 1 - 1/2
    assert marginal_index(model, dist, e, 0) == Fraction(1, 2)


@given(st.data())
def test_marginal_index_is_the_definitional_sum(data):
    space = data.draw(small_spaces())
    inner = data.draw(models(space))  # every kind, ensembles nested two deep
    dist = data.draw(sparse_distributions(space))  # zero entries and point masses
    e = data.draw(instances(space))
    a = data.draw(st.integers(0, space.n - 1))
    averaged = sum(
        (p * inner.evaluate(e.replaced(a, v)) for v, p in zip(space.domains[a], dist.probs[a])),
        Fraction(0),
    )
    counted = CountingModel(inner)
    assert marginal_index(inner, dist, e, a) == inner.evaluate(e) - averaged
    assert marginal_index(counted, dist, e, a) == inner.evaluate(e) - averaged
    assert counted.evaluate_calls == 1 + sum(1 for p in dist.probs[a] if p)
    assert counted.expected_value_calls == 0

# ---------------------------------------------------------------------------
# attribute_all

def test_attribute_all_shapley(and2):
    space, model, dist, e = and2
    report = attribute_all(model, dist, e, SimpleWeights.shapley(2))
    assert report.values == (Fraction(3, 8), Fraction(3, 8))
    assert report.path == "interpolation"
    assert report.engine_calls == (4, 4)

def test_attribute_all_constant_model():
    space = and_space(3)
    model = constant_model(space, Fraction(-2))
    report = attribute_all(
        model, ProductDistribution.uniform(space), ones_instance(space), SimpleWeights.shapley(3)
    )
    assert report.values == (Fraction(0),) * 3

def test_attribute_all_banzhaf_uses_direct_path(and2):
    space, model, dist, e = and2
    report = attribute_all(model, dist, e, SimpleWeights.banzhaf(2))
    assert report.values == (Fraction(3, 8), Fraction(3, 8))
    assert report.path == "bernoulli-direct"
    assert report.engine_calls == (2, 2)

def test_attribute_all_marginal_uses_closed_form(and2):
    space, model, dist, e = and2
    report = attribute_all(model, dist, e, SimpleWeights.marginal(2))
    assert report.path == "closed-form"
    assert report.engine_calls == (0, 0)
    assert report.values == (Fraction(1, 2), Fraction(1, 2))

class SpyTree(TreeModel):
    """A tree that counts its traversals and its gap walks."""

    traversals = 0
    walks = 0

    def _value(self, rows):
        self.traversals += 1
        return super()._value(rows)

    def _gap_polynomials(self, factors, wanted, batches):
        self.walks += 1
        return super()._gap_polynomials(factors, wanted, batches)


def test_tree_skips_traversals_for_a_feature_it_never_reads():
    rng = random.Random(5)
    space = random_space(rng, 4)
    leaves = lambda k: tuple(Leaf(Fraction(rng.randint(-9, 9), 7)) for _ in range(k))
    root = Split(0, tuple(Split(1, leaves(len(space.domains[1]))) for _ in space.domains[0]))
    spy = SpyTree(space, root)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    counted = CountingModel(spy)
    value = compute_simple_index(counted, dist, e, 3, SimpleWeights.shapley(4))
    assert value == 0  # a dummy feature
    assert counted.expected_value_calls == 8  # the 2n contract counts distributions
    # the wrapper hides the walk; pinned and free coincide, one traversal per node
    assert (spy.walks, spy.traversals) == (0, 4)


def test_attribute_all_engine_calls_count_requested_expectations():
    rng = random.Random(12)
    space = random_space(rng, 5)
    model = EnsembleModel([(Fraction(1, 2), random_tree_model(rng, space)) for _ in range(2)])
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    for scheme in (
        SimpleWeights.shapley(5),
        random_simple_weights(rng, 5),
        SimpleWeights.banzhaf(5),
        BernoulliWeights([Fraction(k, 5) for k in range(5)]),
        SimpleWeights.marginal(5),
    ):
        counted = CountingModel(model)
        report = attribute_all(counted, dist, e, scheme)
        assert counted.expected_value_calls == sum(report.engine_calls), report.path
        assert report == attribute_all(model, dist, e, scheme)


def test_all_coefficients_match_per_feature_interpolation():
    rng = random.Random(31)
    space = random_space(rng, 5)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    counted = CountingModel(model)
    sums = all_coefficients(counted, dist, e)
    assert counted.expected_value_calls == 2 * 5 * 5
    assert sums == [interpolate_coefficients(model, dist, e, a) for a in range(5)]


# ---------------------------------------------------------------------------
# structural properties (small-scale; the acceptance suite runs the corpus)

def test_shapley_efficiency_on_random_trees():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 6)
        space = random_space(rng, n)
        model = random_tree_model(rng, space)
        dist = random_distribution(rng, space)
        e = random_instance(rng, space)
        report = attribute_all(model, dist, e, SimpleWeights.shapley(n))
        assert sum(report.values) == model.evaluate(e) - model.expected_value(dist)

def test_linearity_over_ensembles():
    rng = random.Random(31)
    space = random_space(rng, 4)
    f = random_tree_model(rng, space)
    g = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    alpha, beta = Fraction(2), Fraction(-3, 2)
    combined = EnsembleModel([(alpha, f), (beta, g)])
    for w in (SimpleWeights.shapley(4), random_simple_weights(rng, 4)):
        for a in range(4):
            expected = alpha * compute_simple_index(f, dist, e, a, w) + (
                beta * compute_simple_index(g, dist, e, a, w)
            )
            assert compute_simple_index(combined, dist, e, a, w) == expected

def test_oracle_equivalence_at_n10():
    # the stated bound for the exhaustive-oracle property is n <= 10
    rng = random.Random(1009)
    space = FeatureSpace([("0", "1")] * 10)
    model = random_tree_model(rng, space, max_depth=5)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    table = conditional_table(model, dist, e)
    for w in (SimpleWeights.shapley(10), random_simple_weights(rng, 10)):
        for a in (0, 7):
            assert compute_simple_index(model, dist, e, a, w) == brute_simple_index(
                model, dist, e, a, w, table=table
            )

def test_path_agreement_banzhaf_binomial():
    rng = random.Random(64)
    space = random_space(rng, 5)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    theta = Fraction(2, 5)
    for a in range(5):
        assert compute_simple_index(
            model, dist, e, a, SimpleWeights.banzhaf(5)
        ) == compute_bernoulli_index(model, dist, e, a, BernoulliWeights.constant(5, Fraction(1, 2)))
        assert compute_simple_index(
            model, dist, e, a, SimpleWeights.binomial(5, theta)
        ) == compute_bernoulli_index(model, dist, e, a, BernoulliWeights.constant(5, theta))


def test_tree_answers_every_node_from_one_walk():
    rng = random.Random(5)
    space = random_space(rng, 4)
    leaves = lambda k: tuple(Leaf(Fraction(rng.randint(-9, 9), 7)) for _ in range(k))
    root = Split(0, tuple(Split(1, leaves(len(space.domains[1]))) for _ in space.domains[0]))
    spy = SpyTree(space, root)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    shapley = SimpleWeights.shapley(4)
    value = compute_simple_index(spy, dist, e, 1, shapley)
    assert (spy.walks, spy.traversals) == (1, 0)  # the four nodes from one walk
    counted = CountingModel(spy)
    assert compute_simple_index(counted, dist, e, 1, shapley) == value
    assert counted.expected_value_calls == 8  # the 2n contract counts distributions
    # the wrapper hides the walk: pinned and free differ on a read feature
    assert (spy.walks, spy.traversals) == (1, 8)
    assert value == brute_simple_index(spy, dist, e, 1, shapley)


def test_bernoulli_singleton_interaction_is_the_feature_reduction():
    rng = random.Random(5)
    space = random_space(rng, 4)
    leaves = lambda k: tuple(Leaf(Fraction(rng.randint(-9, 9), 7)) for _ in range(k))
    root = Split(0, tuple(Split(1, leaves(len(space.domains[1]))) for _ in space.domains[0]))
    spy = SpyTree(space, root)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    theta = BernoulliWeights([Fraction(k, 5) for k in range(4)])
    singleton = Coalition.singleton(1)
    value = compute_interaction_bernoulli(spy, dist, e, singleton, theta)
    assert (spy.walks, spy.traversals) == (1, 0)  # both expectations from one walk
    counted = CountingModel(spy)
    assert compute_interaction_bernoulli(counted, dist, e, singleton, theta) == value
    assert counted.expected_value_calls == 2
    assert (spy.walks, spy.traversals) == (1, 2)  # wrapped: one traversal each
    assert value == compute_bernoulli_index(spy, dist, e, 1, theta)


def test_interaction_theta_is_the_feature_theta(and2):
    space, model, dist, e = and2
    assert BernoulliInteractionWeights is BernoulliWeights
    weights = BernoulliInteractionWeights.constant(2, Fraction(1, 2))
    report = attribute_all(model, dist, e, weights)
    assert report.path == "bernoulli-direct"
    assert report.values == attribute_all(model, dist, e, SimpleWeights.banzhaf(2)).values


def test_all_feature_indices_match_the_per_feature_functions():
    rng = random.Random(77)
    space = random_space(rng, 5)
    model = EnsembleModel([(Fraction(2, 3), random_tree_model(rng, space)) for _ in range(3)])
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    for w in (
        SimpleWeights.shapley(5),
        SimpleWeights.banzhaf(5),
        SimpleWeights.binomial(5, Fraction(2, 7)),
        SimpleWeights.marginal(5),
        random_simple_weights(rng, 5),
    ):
        want = [compute_simple_index(model, dist, e, a, w) for a in range(5)]
        assert simple_indices(model, dist, e, w) == want, w.preset
    theta = BernoulliWeights([Fraction(k, 4) for k in range(5)])
    want = [compute_bernoulli_index(model, dist, e, a, theta) for a in range(5)]
    assert bernoulli_indices(model, dist, e, theta) == want


def test_attribute_all_reports_coefficient_sums_from_the_same_pass():
    rng = random.Random(31)
    space = random_space(rng, 5)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    counted = CountingModel(model)
    report = attribute_all(counted, dist, e, SimpleWeights.shapley(5), coefficient_sums=True)
    assert list(report.coefficient_sums) == all_coefficients(model, dist, e)
    assert counted.expected_value_calls == 2 * 5 * 5  # no second pass
    assert attribute_all(model, dist, e, SimpleWeights.shapley(5)).coefficient_sums is None
    direct = attribute_all(model, dist, e, SimpleWeights.banzhaf(5), coefficient_sums=True)
    assert direct.coefficient_sums is None


# ---------------------------------------------------------------------------
# the per-tree polynomial walk against the n-node reduction

def test_an_unwrapped_tree_makes_no_traversal_on_either_walk_path():
    rng = random.Random(5)
    space = random_space(rng, 4)
    leaves = lambda k: tuple(Leaf(Fraction(rng.randint(-9, 9), 7)) for _ in range(k))
    root = Split(0, tuple(Split(1, leaves(len(space.domains[1]))) for _ in space.domains[0]))
    spy = SpyTree(space, root)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    shapley = SimpleWeights.shapley(4)
    report = attribute_all(spy, dist, e, shapley, coefficient_sums=True)
    values = simple_indices(spy, dist, e, shapley)
    sums = all_coefficients(spy, dist, e)
    banzhaf = attribute_all(spy, dist, e, SimpleWeights.banzhaf(4))
    theta = BernoulliWeights([Fraction(k, 3) for k in range(4)])
    bernoulli = bernoulli_indices(spy, dist, e, theta)
    assert (spy.walks, spy.traversals) == (5, 0)  # one walk per call, interpolated or direct
    assert report.engine_calls == (8,) * 4  # the 2n contract still counts distributions
    assert banzhaf.engine_calls == (2,) * 4  # and the 2 of bernoulli-direct
    assert list(report.values) == values
    assert list(report.coefficient_sums) == sums
    assert report == attribute_all(CountingModel(spy), dist, e, shapley, coefficient_sums=True)
    assert banzhaf == attribute_all(CountingModel(spy), dist, e, SimpleWeights.banzhaf(4))
    assert bernoulli == bernoulli_indices(CountingModel(spy), dist, e, theta)


def _deep_chain(rng, space, depth):
    # a chain through features 0..depth-1: at each split one random child
    # goes on down and every other child is a random leaf
    def leaf():
        return Leaf(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    node = leaf()
    for feature in reversed(range(depth)):
        size = len(space.domains[feature])
        on = rng.randrange(size)
        node = Split(feature, tuple(node if k == on else leaf() for k in range(size)))
    return TreeModel(space, node)


@pytest.mark.parametrize("shape", ["chain", "ensemble"])
def test_a_deep_walk_equals_the_node_reduction(shape):
    # 40 interpolation nodes, and gap terms at every offset from u^39 to u^0
    rng = random.Random(11)
    n = 40
    space = random_space(rng, n)
    model = _deep_chain(rng, space, n)
    if shape == "ensemble":
        model = EnsembleModel([
            (Fraction(2, 3), model),
            (Fraction(-1, 2), random_tree_model(rng, space, max_depth=3)),
            (Fraction(5), random_additive_model(rng, space)),
        ])
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    counted = CountingModel(model)
    shapley = attribute_all(model, dist, e, SimpleWeights.shapley(n), coefficient_sums=True)
    assert shapley == attribute_all(counted, dist, e, SimpleWeights.shapley(n), coefficient_sums=True)
    assert list(shapley.coefficient_sums) == all_coefficients(model, dist, e)
    weights = random_simple_weights(rng, n)
    assert simple_indices(model, dist, e, weights) == simple_indices(counted, dist, e, weights)
    theta = BernoulliWeights([rng.choice(THETA_GRID) for _ in range(n)])
    assert bernoulli_indices(model, dist, e, theta) == bernoulli_indices(counted, dist, e, theta)


ROW_KINDS = ("random", "zero entry", "zero at e", "point mass at e", "point mass off e")
PRESETS = ("shapley", "banzhaf", "dictatorial", "marginal", "binomial", "random")
SHAPES = ("tree", "leaf", "ensemble", "nested", "with table", "with additive", "with counted tree")


def _row(rng, size, hit, kind):
    if kind == "point mass at e" or (size == 1 and kind != "random"):
        return [Fraction(int(k == hit)) for k in range(size)]
    if kind == "point mass off e":
        off = rng.choice([k for k in range(size) if k != hit])
        return [Fraction(int(k == off)) for k in range(size)]
    weights = [rng.randint(1, 6) for _ in range(size)]
    if kind == "zero at e":
        weights[hit] = 0
    elif kind == "zero entry":
        weights[rng.randrange(size)] = 0
    if not any(weights):
        weights[(hit + 1) % size] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _walk_model(rng, space, shape, depth):
    def tree():
        if rng.random() < 0.15:
            return constant_model(space, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        return random_tree_model(rng, space, max_depth=depth)

    def weight():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    if shape == "tree":
        return tree()
    if shape == "leaf":
        return constant_model(space, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    components = [(weight(), tree()) for _ in range(rng.randint(1, 3))]
    if shape == "nested":
        inner = EnsembleModel([(weight(), tree()) for _ in range(rng.randint(1, 3))])
        components.append((weight(), inner))
    elif shape == "with table":
        components.append((weight(), TableModel.tabulate(tree())))
    elif shape == "with additive":
        components.append((weight(), random_additive_model(rng, space)))
    elif shape == "with counted tree":
        components.append((weight(), CountingModel(tree())))
    rng.shuffle(components)
    return EnsembleModel(components)


def _bare_trees(model, live=True):
    """Each tree reached as a component, and whether every weight above it is nonzero."""
    if type(model) is TreeModel:
        return [(model, live)]
    if isinstance(model, EnsembleModel):
        return [pair for w, m in model.components for pair in _bare_trees(m, live and w != 0)]
    return []  # tables and wrapped trees; an additive model is an ensemble of trees


@contextlib.contextmanager
def _tree_spies():
    """Per tree id, its gap walks and its traversals while inside."""
    walks, traversals = collections.Counter(), collections.Counter()
    walk, value = TreeModel._gap_polynomials, TreeModel._value

    def spied_walk(self, *args):
        walks[id(self)] += 1
        return walk(self, *args)

    def spied_value(self, rows):
        traversals[id(self)] += 1
        return value(self, rows)

    TreeModel._gap_polynomials, TreeModel._value = spied_walk, spied_value
    try:
        yield walks, traversals
    finally:
        TreeModel._gap_polynomials, TreeModel._value = walk, value


def _weights(rng, n, preset):
    if preset == "random":
        return random_simple_weights(rng, n)
    if preset == "binomial":
        tagged = SimpleWeights.binomial(n, Fraction(rng.randint(1, 6), 7))
    else:
        tagged = getattr(SimpleWeights, preset)(n)
    # untagged, so that every preset's vector interpolates
    return SimpleWeights.from_values(tagged.q)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=7),
    shape=st.sampled_from(SHAPES),
    depth=st.integers(min_value=1, max_value=7),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=7, max_size=7),
    preset=st.sampled_from(PRESETS),
    thetas=st.lists(st.sampled_from(THETA_GRID), min_size=7, max_size=7),
)
# theta_j = 1 (a point mass at e), and theta_j = 0 on a zero entry at e,
# each give a split above a wanted feature a child whose context factor is
# 0 but whose own gap is not
@example(
    seed=1, n=3, shape="tree", depth=3, kinds=["random"] * 7,
    preset="shapley", thetas=[Fraction(1)] * 7,
)
@example(
    seed=1, n=3, shape="tree", depth=3, kinds=["zero at e"] * 7,
    preset="shapley", thetas=[Fraction(0)] * 7,
)
def test_the_walk_equals_the_node_reduction_and_the_oracle(
    seed, n, shape, depth, kinds, preset, thetas
):
    rng = random.Random(seed)
    space = random_space(rng, n)
    e = random_instance(rng, space)
    rows = [
        _row(rng, len(domain), space.position(i, e[i]), kind)
        for i, (domain, kind) in enumerate(zip(space.domains, kinds))
    ]
    dist = ProductDistribution(space, rows)
    model = _walk_model(rng, space, shape, depth)
    w = _weights(rng, n, preset)
    features = range(n)
    bare = _bare_trees(model)
    counted = CountingModel(model)

    def reduce(reduction, *args):
        # every bare tree walks once (none behind a zero weight) and is never
        # traversed, whatever its siblings are
        with _tree_spies() as (walks, traversals):
            result = reduction(model, dist, e, *args)
        for tree, live in bare:
            assert (walks[id(tree)], traversals[id(tree)]) == (int(live), 0)
        return result

    values = reduce(simple_indices, w)
    sums = reduce(all_coefficients)
    assert values == simple_indices(counted, dist, e, w)
    assert sums == all_coefficients(counted, dist, e)
    report = reduce(attribute_all, w, True)
    assert report == attribute_all(counted, dist, e, w, coefficient_sums=True)
    assert (list(report.values), list(report.coefficient_sums)) == (values, sums)
    a = rng.randrange(n)  # one wanted feature
    assert reduce(compute_simple_index, a, w) == values[a]
    assert reduce(interpolate_coefficients, a) == sums[a]

    theta = BernoulliWeights(thetas[:n])
    bernoulli = reduce(bernoulli_indices, theta)
    assert bernoulli == bernoulli_indices(counted, dist, e, theta)
    direct = []
    for scheme in (SimpleWeights.banzhaf(n), SimpleWeights.binomial(n, Fraction(rng.randint(1, 6), 7))):
        report = reduce(attribute_all, scheme)
        assert report == attribute_all(counted, dist, e, scheme)
        direct.append((scheme, report.values))
    if n <= 6:
        table = conditional_table(model, dist, e)
        for a in features:
            assert values[a] == brute_simple_index(model, dist, e, a, w, table=table)
            assert sums[a] == brute_coefficient_sums(model, dist, e, a, table=table)
            assert bernoulli[a] == brute_bernoulli_index(model, dist, e, a, theta, table=table)
            for scheme, got in direct:
                assert got[a] == brute_simple_index(model, dist, e, a, scheme, table=table)


@pytest.mark.parametrize(
    "n, q, message",
    [(0, (), "weights need n >= 1"), (2, (Fraction(1),), "1 weights for n=2")],
    ids=["n-0", "q-length"],
)
def test_simple_weights_reject_a_malformed_shape(n, q, message):
    with pytest.raises(WeightError) as excinfo:
        SimpleWeights(n, q)
    assert str(excinfo.value) == message


class _RecordingModel(CountingModel):
    """A ``CountingModel`` that also keeps the rows of each distribution it is asked for."""

    def __init__(self, inner):
        super().__init__(inner)
        self.requested = []

    def expected_value(self, dist):
        self.requested.append(dist.probs)
        return super().expected_value(dist)

    def expected_values(self, dists):
        self.requested += [d.probs for d in dists]
        return super().expected_values(dists)


@st.composite
def _theta_cases(draw):
    space = draw(small_spaces())
    thetas = draw(st.lists(st.sampled_from(THETA_GRID), min_size=space.n, max_size=space.n))
    return draw(models(space)), draw(sparse_distributions(space)), draw(instances(space)), thetas


def _unread_feature_case():
    # one tree reads feature 0 only: feature 1 has zero probability at e
    # and theta 1, feature 2 is a point mass off e with theta 0
    space = FeatureSpace([("a", "b"), ("x", "y", "z"), ("u", "v")])
    model = EnsembleModel([
        (Fraction(2, 3), TreeModel(space, Split(0, (Leaf(Fraction(1, 3)), Leaf(Fraction(-2)))))),
        (Fraction(-1, 2), TreeModel(space, Leaf(Fraction(5, 7)))),
    ])
    dist = ProductDistribution(space, [
        [Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 2), Fraction(0), Fraction(1, 2)],
        [Fraction(1), Fraction(0)],
    ])
    return model, dist, Instance(space, ("b", "y", "v")), [Fraction(1, 2), Fraction(1), Fraction(0)]


def _zero_at_e_case():
    # e on a zero-probability value under theta 0 and theta 1, a table and
    # an additive model beside a tree that reads every feature
    space = FeatureSpace([("a", "b"), ("x", "y")])
    tree = TreeModel(space, Split(1, (
        Split(0, (Leaf(Fraction(1)), Leaf(Fraction(-3, 4)))),
        Leaf(Fraction(2, 5)),
    )))
    terms = [[Fraction(1), Fraction(0)], [Fraction(-1, 2), Fraction(3)]]
    additive = AdditiveModel(space, Fraction(1, 9), terms)
    table = TableModel(space, [Fraction(k, 3) for k in range(4)])
    model = EnsembleModel([(Fraction(1), tree), (Fraction(1, 4), additive), (Fraction(-2), table)])
    dist = ProductDistribution(space, [[Fraction(0), Fraction(1)], [Fraction(3, 5), Fraction(2, 5)]])
    return model, dist, Instance(space, ("a", "x")), [Fraction(0), Fraction(1)]


@given(_theta_cases())
@example(_unread_feature_case())
@example(_zero_at_e_case())
@settings(deadline=None)
def test_the_theta_factor_hook_equals_the_batches_and_the_oracle(case):
    model, dist, e, thetas = case
    n = model.space.n
    theta = BernoulliWeights(thetas)
    mixed = bernoulli_mixture(dist, e, thetas).probs
    # each feature's factor is its theta-mixture and its own gap over one denominator
    factors = _fixed_factors(theta.theta, dist.probs, e._positions)
    for (den, context, hit, gaps), fixed, row, at in zip(factors, mixed, dist.probs, e._positions):
        assert hit == -1
        assert tuple(Fraction(c, den) for c in context) == fixed
        assert [Fraction(g, den) for g in gaps] == [int(k == at) - p for k, p in enumerate(row)]
    hooked = bernoulli_indices(model, dist, e, theta)
    recorder = _RecordingModel(model)
    assert bernoulli_indices(recorder, dist, e, theta) == hooked
    # the fallback's batch: per feature a, a pinned to e_a and then a free,
    # every other feature on its theta-mixture
    requested = []
    for a, at in enumerate(e._positions):
        for own in (point_mass_row(len(dist.probs[a]), at), dist.probs[a]):
            requested.append((*mixed[:a], own, *mixed[a + 1 :]))
    assert recorder.expected_value_calls == 2 * n
    assert recorder.requested == requested
    table = conditional_table(model, dist, e)
    assert hooked == [brute_bernoulli_index(model, dist, e, a, theta, table=table) for a in range(n)]
    assert hooked == [
        compute_interaction_bernoulli(model, dist, e, Coalition.singleton(a), theta)
        for a in range(n)
    ]


def test_a_feature_batch_on_the_z_path_requests_its_pinned_and_free_rows():
    # a table has no walk: at each z-node, each feature's two variants are
    # e's point mass and its input row, the others on their z-mixtures
    rng = random.Random(9)
    space = random_space(rng, 3)
    model = TableModel.tabulate(random_tree_model(rng, space))
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    recorder = _RecordingModel(model)
    sums = all_coefficients(recorder, dist, e)
    assert sums == [brute_coefficient_sums(model, dist, e, a) for a in range(3)]
    requested = []
    for z in range(3):
        node = [mixture_row(row, hit, z) for row, hit in zip(dist.probs, e._positions)]
        for a, hit in enumerate(e._positions):
            for own in (point_mass_row(len(dist.probs[a]), hit), dist.probs[a]):
                requested.append([*node[:a], own, *node[a + 1 :]])
    assert recorder.expected_value_calls == 2 * 3 * 3
    assert [[list(row) for row in rows] for rows in recorder.requested] == [
        [list(row) for row in rows] for rows in requested
    ]


# ---------------------------------------------------------------------------
# the packing bound of the tree walk: each polynomial is one int, decoded in
# digits whose width comes from the tree's leaf count, depth and largest
# leaf, and the product of the read rows' denominators

BIG_PRIMES = (1_000_000_007, 2**61 - 1, 2**89 - 1, 2**127 - 1)
BIG_ROW_KINDS = ("random", "zero entry", "zero at e", "point mass at e")


def _big_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 7, *BIG_PRIMES)))


def _big_tree(rng, space, depth):
    # leaves up to about 10^30 over large primes, zero leaves among them
    def leaf():
        return Leaf(Fraction(0) if rng.random() < 0.15 else _big_fraction(rng, 10**30))

    def build(available, level):
        if level and (not available or level >= depth or rng.random() < 0.2):
            return leaf()
        feature = rng.choice(sorted(available))
        rest = available - {feature}
        return Split(feature, tuple(build(rest, level + 1) for _ in space.domains[feature]))

    return TreeModel(space, build(frozenset(range(space.n)), 0))


def _big_row(rng, size, hit, kind):
    # entries over a large prime, with a zero at e's position or at a random one
    if kind == "point mass at e" or size == 1:
        return [Fraction(int(k == hit)) for k in range(size)]
    den = rng.choice(BIG_PRIMES)
    zero = {"zero at e": hit, "zero entry": rng.randrange(size)}.get(kind)
    free = [k for k in range(size) if k != zero]
    cuts = sorted(rng.randint(1, den - 1) for _ in range(len(free) - 1))
    row = [Fraction(0)] * size
    for k, low, high in zip(free, [0, *cuts], [*cuts, den]):
        row[k] = Fraction(high - low, den)
    return row


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=6),
    trees=st.integers(min_value=0, max_value=3),
    one=st.booleans(),
    kinds=st.lists(st.sampled_from(BIG_ROW_KINDS), min_size=6, max_size=6),
)
def test_the_packed_walk_is_exact_at_large_values(seed, n, trees, one, kinds):
    rng = random.Random(seed)
    space = random_space(rng, n)
    e = random_instance(rng, space)
    dist = ProductDistribution(space, [
        _big_row(rng, len(domain), space.position(i, e[i]), kind)
        for i, (domain, kind) in enumerate(zip(space.domains, kinds))
    ])
    # no trees: one bare tree; else an ensemble of that many, weights large too
    if trees:
        model = EnsembleModel([
            (_big_fraction(rng, 10**20), _big_tree(rng, space, n)) for _ in range(trees)
        ])
    else:
        model = _big_tree(rng, space, n)
    features = [rng.randrange(n)] if one else list(range(n))
    singles = [(a,) for a in features]
    counted = CountingModel(model)
    # z factors: the walk's polynomials are the batch reduction's
    assert exact_polynomials(_z_reduction(model, dist, e, singles)) == exact_polynomials(
        _z_reduction(counted, dist, e, singles)
    )
    # theta factors, e's own entry included: the derivative, the polynomial at u = 1
    theta = BernoulliWeights([
        rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(1, p - 1), p)))
        for p in rng.choices(BIG_PRIMES, k=n)
    ])
    walked = _bernoulli_indices(model, dist, e, singles, theta)
    assert walked == _bernoulli_indices(counted, dist, e, singles, theta)
    assert counted.expected_value_calls == 2 * n * len(features) + 2 * len(features)
    # and the indices are the oracle's
    table = conditional_table(model, dist, e)
    shapley = SimpleWeights.shapley(n)
    assert [compute_simple_index(model, dist, e, a, shapley) for a in features] == [
        brute_simple_index(model, dist, e, a, shapley, table=table) for a in features
    ]
    assert walked == [brute_bernoulli_index(model, dist, e, a, theta, table=table) for a in features]


# ---------------------------------------------------------------------------
# Bernoulli sets: one pass per set on trees, at u = 1 with each member on its
# signed row delta_e - p, against the 2^m batch and the oracle

SET_SHAPES = SHAPES + ("additive",)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=2, max_value=4),
    full=st.booleans(),
    shape=st.sampled_from(SET_SHAPES),
    depth=st.integers(min_value=1, max_value=6),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=6, max_size=6),
    thetas=st.lists(st.sampled_from(THETA_GRID), min_size=6, max_size=6),
)
# e on a zero-probability value with theta 0, and point masses at e with
# theta 1: a context factor of 0 beside a nonzero gap
@example(
    seed=2, n=4, m=2, full=False, shape="tree", depth=4, kinds=["zero at e"] * 6,
    thetas=[Fraction(0)] * 6,
)
@example(
    seed=2, n=4, m=3, full=True, shape="ensemble", depth=4, kinds=["point mass at e"] * 6,
    thetas=[Fraction(1)] * 6,
)
def test_the_set_pass_equals_the_batches_and_the_oracle(
    seed, n, m, full, shape, depth, kinds, thetas
):
    rng = random.Random(seed)
    space = random_space(rng, n)
    e = random_instance(rng, space)
    dist = ProductDistribution(space, [
        _row(rng, len(domain), space.position(i, e[i]), kind)
        for i, (domain, kind) in enumerate(zip(space.domains, kinds))
    ])
    if shape == "additive":
        model = random_additive_model(rng, space)
    else:
        model = _walk_model(rng, space, shape, depth)
    a_set = Coalition.from_members(range(n) if full else rng.sample(range(n), min(m, n)))
    theta = BernoulliWeights(thetas[:n])
    # every bare tree answers from its own pass (none behind a zero
    # weight) and requests no expectation, whatever its siblings are
    with _tree_spies() as (walks, traversals):
        value = compute_interaction_bernoulli(model, dist, e, a_set, theta)
    for tree, live in _bare_trees(model):
        assert (walks[id(tree)], traversals[id(tree)]) == (int(live), 0)
    counted = CountingModel(model)
    assert compute_interaction_bernoulli(counted, dist, e, a_set, theta) == value
    assert counted.expected_value_calls == 2 ** len(a_set)
    assert value == brute_interaction_index(model, dist, e, a_set, theta)


def _set_cases():
    # over six binary features: feature 0 at the root, 1 and 2 in its two
    # subtrees, 3 below 1, and 5 read by no split
    space = and_space(6)
    leaf = lambda k: Leaf(Fraction(k, 7))
    left = Split(1, (Split(3, (leaf(1), leaf(-4))), leaf(2)))
    right = Split(2, (leaf(-3), Split(4, (leaf(5), leaf(6)))))
    tree = TreeModel(space, Split(0, (left, right)))
    dist = ProductDistribution(space, [[Fraction(k, k + 2), Fraction(2, k + 2)] for k in range(1, 7)])
    e = ones_instance(space)
    theta = BernoulliWeights([Fraction(1, 3), Fraction(1), Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1, 5)])
    return tree, dist, e, theta


@pytest.mark.parametrize(
    "members, zero",
    [
        ((0, 1), False),  # on one path
        ((0, 1, 3), False),  # on one path, three deep
        ((0, 2, 4), False),
        ((1, 2), True),  # in sibling subtrees: no path reads both
        ((1, 4), True),
        ((0, 5), True),  # 5 is read by no split
        ((0, 1, 2, 3, 4, 5), True),
    ],
)
def test_a_set_pass_counts_only_the_paths_that_read_every_member(members, zero):
    tree, dist, e, theta = _set_cases()
    a_set = Coalition.from_members(members)
    value = compute_interaction_bernoulli(tree, dist, e, a_set, theta)
    assert value == brute_interaction_index(tree, dist, e, a_set, theta)
    assert (value == 0) == zero
    counted = CountingModel(tree)
    assert compute_interaction_bernoulli(counted, dist, e, a_set, theta) == value
    for inner in (tree, TableModel.tabulate(tree), AdditiveModel(tree.space, Fraction(1), [[Fraction(1), Fraction(2)]] * 6)):
        ensemble = EnsembleModel([(Fraction(2), tree), (Fraction(-1, 3), inner)])
        assert compute_interaction_bernoulli(ensemble, dist, e, a_set, theta) == brute_interaction_index(
            ensemble, dist, e, a_set, theta
        )


class _CountedFactors(list):
    """Walk factors that count how often a split's factor is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_a_set_pass_skips_every_subtree_that_misses_a_member():
    tree, dist, e, theta = _set_cases()
    factors = _CountedFactors(_fixed_factors(theta.theta, dist.probs, e._positions))
    refuse = lambda component: pytest.fail("a tree answers a Bernoulli set itself")
    tree._gap_polynomials(factors, [(0, 1, 3)], refuse)
    before = factors.reads
    polys, den = tree._gap_polynomials(factors, [(0, 1, 3)], refuse)
    # the splits on 0, 1 and 3, not feature 2's subtree or the leaf beside 3
    assert factors.reads - before == len(tree._read) + 3
    assert [Fraction(sum(g), den) for g in polys.values()] == [
        brute_interaction_index(tree, dist, e, Coalition.from_members([0, 1, 3]), theta)
    ]


def test_an_unwrapped_tree_answers_a_bernoulli_pair_with_no_traversal():
    rng = random.Random(5)
    space = random_space(rng, 4)
    leaves = lambda k: tuple(Leaf(Fraction(rng.randint(-9, 9), 7)) for _ in range(k))
    root = Split(0, tuple(Split(1, leaves(len(space.domains[1]))) for _ in space.domains[0]))
    spy = SpyTree(space, root)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    theta = BernoulliWeights([Fraction(k, 5) for k in range(4)])
    pair = Coalition.from_members([0, 1])
    value = compute_interaction_bernoulli(spy, dist, e, pair, theta)
    assert (spy.walks, spy.traversals) == (1, 0)  # one pass, no expectation
    counted = CountingModel(spy)
    assert compute_interaction_bernoulli(counted, dist, e, pair, theta) == value
    assert counted.expected_value_calls == 4  # the 2^m contract counts distributions
    assert (spy.walks, spy.traversals) == (1, 4)  # wrapped: the four variants differ on read features
    assert value == brute_interaction_index(spy, dist, e, pair, theta)


def test_a_tree_takes_the_batches_for_a_set_under_z_rows():
    # the z rows have a z term: a set of two or more members has no pass
    tree, dist, e, _ = _set_cases()
    factors = _z_factors(dist.probs, e._positions)
    answer = ({(0, 1): [1, 2]}, 3)
    assert tree._gap_polynomials(factors, [(0,), (0, 1)], lambda component: answer) is answer


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=6),
    trees=st.integers(min_value=0, max_value=3),
    m=st.integers(min_value=2, max_value=4),
    kinds=st.lists(st.sampled_from(BIG_ROW_KINDS), min_size=6, max_size=6),
)
def test_the_u1_passes_are_exact_at_large_values(seed, n, trees, m, kinds):
    # the shapes of the packed walk's test: big leaves, weights and rows
    rng = random.Random(seed)
    space = random_space(rng, n)
    e = random_instance(rng, space)
    dist = ProductDistribution(space, [
        _big_row(rng, len(domain), space.position(i, e[i]), kind)
        for i, (domain, kind) in enumerate(zip(space.domains, kinds))
    ])
    if trees:
        model = EnsembleModel([
            (_big_fraction(rng, 10**20), _big_tree(rng, space, n)) for _ in range(trees)
        ])
    else:
        model = _big_tree(rng, space, n)
    theta = BernoulliWeights([
        rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(1, p - 1), p)))
        for p in rng.choices(BIG_PRIMES, k=n)
    ])
    member_sets = [(a,) for a in range(n)] + [tuple(sorted(rng.sample(range(n), min(m, n))))]
    # at u = 1 every answer is one int per set, as the batch's one theta node
    factors = _fixed_factors(theta.theta, dist.probs, e._positions)
    refuse = lambda component: pytest.fail("trees and ensembles of trees answer fixed rows themselves")
    polys, _ = model._gap_polynomials(factors, member_sets, refuse)
    assert all(len(g) == 1 for g in polys.values())
    counted = CountingModel(model)
    for sets in (member_sets[:-1], member_sets[-1:]):
        walked = _bernoulli_indices(model, dist, e, sets, theta)
        assert walked == _bernoulli_indices(counted, dist, e, sets, theta)
    table = conditional_table(model, dist, e)
    a_set = Coalition.from_members(member_sets[-1])
    assert walked == [brute_interaction_index(model, dist, e, a_set, theta, table=table)]


# ---------------------------------------------------------------------------
# the marginal closed form in integers


@given(_theta_cases())
@example(_unread_feature_case())
@example(_zero_at_e_case())
@settings(deadline=None)
def test_the_integer_closed_form_is_the_oracles_marginal_preset(case):
    model, dist, e, _ = case
    n = model.space.n
    marginal = SimpleWeights.marginal(n)
    counted = CountingModel(model)
    report = attribute_all(counted, dist, e, marginal)
    assert report.path == "closed-form"
    # F(e) once for the call, then one read per value of nonzero probability
    assert counted.evaluate_calls == 1 + sum(1 for row in dist.probs for p in row if p)
    assert counted.expected_value_calls == 0
    table = conditional_table(model, dist, e)
    want = tuple(brute_simple_index(model, dist, e, a, marginal, table=table) for a in range(n))
    assert report.values == want
    assert tuple(marginal_index(model, dist, e, a) for a in range(n)) == want
    assert tuple(simple_indices(model, dist, e, marginal)) == want
