import itertools
import random
from fractions import Fraction

import pytest

import powerdex.indices
from powerdex import (
    AdditiveModel,
    BernoulliInteractionWeights,
    BernoulliWeights,
    BudgetExceededError,
    Coalition,
    CountingModel,
    EnsembleModel,
    InteractionWeights,
    ProductDistribution,
    SimpleWeights,
    TableModel,
    TreeModel,
    WeightError,
    attribute_all,
    brute_interaction_index,
    compute_bernoulli_index,
    compute_interaction_bernoulli,
    compute_interaction_simple,
    compute_simple_index,
    conditional_table,
    interaction_marginal,
    marginal_contribution,
)
from powerdex.interaction import INTERACTION_SET_LIMIT, PREFACTOR_Z_ONLY

from corpus import (
    and_space,
    and_table_model,
    constant_model,
    ones_instance,
    random_additive_model,
    random_distribution,
    random_grid_theta,
    random_instance,
    random_interaction_row,
    random_model_of_kind,
    random_simple_weights,
    random_space,
    random_tree_model,
)


@pytest.fixture
def and2():
    space = and_space(2)
    return space, and_table_model(space), ProductDistribution.uniform(space), ones_instance(space)


BOTH = Coalition.from_members([0, 1])


# ---------------------------------------------------------------------------
# weights


def test_interaction_weight_rows_validated(and2):
    InteractionWeights.single(3, 2, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(WeightError):
        InteractionWeights.single(3, 2, [Fraction(1), Fraction(1)])
    with pytest.raises(WeightError):
        InteractionWeights.single(3, 2, [Fraction(2), Fraction(-1, 2)])
    with pytest.raises(WeightError):
        InteractionWeights.single(3, 2, [Fraction(1)])  # wrong row length
    # a row for pairs does not fit a singleton
    _, model, dist, e = and2
    pair = InteractionWeights.single(2, 2, [Fraction(1)])
    for index in (compute_interaction_simple, brute_interaction_index):
        with pytest.raises(WeightError, match=r"weights are for \|A\|=2, the set has \|A\|=1"):
            index(model, dist, e, Coalition.singleton(0), pair)


def test_simple_weights_fit_a_singleton_on_the_fast_path():
    rng = random.Random(20)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    weights = SimpleWeights.shapley(4)
    for a in range(4):
        a_set = Coalition.singleton(a)
        want = compute_interaction_simple(
            model, dist, e, a_set, InteractionWeights.from_simple(weights)
        )
        assert compute_interaction_simple(model, dist, e, a_set, weights) == want


def test_the_grid_path_refuses_bernoulli_weights(and2):
    _, model, dist, e = and2
    with pytest.raises(TypeError, match=r"^unsupported scheme BernoulliWeights\("):
        compute_interaction_simple(
            model, dist, e, BOTH, BernoulliInteractionWeights.constant(2, Fraction(1, 2))
        )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimpleWeights.from_values([-1, 2]), "q_0 = -1 is negative"),
        (lambda: SimpleWeights.from_values([1, 1]), "weights sum to 2 under binomial counts, not 1"),
        (lambda: InteractionWeights.single(3, 2, [2, "-1/2"]), "q(1,2) = -1/2 is negative"),
        (
            lambda: InteractionWeights.single(3, 2, [1, 1]),
            "row for |A|=2 sums to 2 under binomial counts, not 1",
        ),
        (lambda: BernoulliWeights(["1/2", "9/8"]), "theta_1 = 9/8 outside [0, 1]"),
        (lambda: BernoulliInteractionWeights([-1]), "theta_0 = -1 outside [0, 1]"),
    ],
)
def test_weight_validation_messages(build, message):
    # the single-feature and interaction classes share one check each
    with pytest.raises(WeightError) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# the alternating-sum marginal


def test_interaction_marginal_and(and2):
    space, model, dist, e = and2
    assert interaction_marginal(model, dist, e, BOTH, Coalition()) == Fraction(1, 4)


def test_interaction_marginal_singleton_collapse():
    rng = random.Random(6)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    s = Coalition.from_members([1, 3])
    assert interaction_marginal(
        model, dist, e, Coalition.singleton(0), s
    ) == marginal_contribution(model, dist, e, 0, s)


def test_interaction_marginal_additive_vanishes():
    rng = random.Random(13)
    space = random_space(rng, 4)
    model = random_additive_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    assert interaction_marginal(model, dist, e, BOTH, Coalition()) == 0
    assert interaction_marginal(model, dist, e, BOTH, Coalition.singleton(2)) == 0


def test_interaction_marginal_rejects_overlap(and2):
    space, model, dist, e = and2
    with pytest.raises(ValueError):
        interaction_marginal(model, dist, e, BOTH, Coalition.singleton(1))
    with pytest.raises(ValueError):
        interaction_marginal(model, dist, e, Coalition(), Coalition())


# ---------------------------------------------------------------------------
# the bivariate-interpolation path


def test_interaction_simple_and(and2):
    space, model, dist, e = and2
    w = InteractionWeights.single(2, 2, [Fraction(1)])
    assert compute_interaction_simple(model, dist, e, BOTH, w) == Fraction(1, 4)


def test_interaction_simple_singleton_equals_simple_index(and2):
    space, model, dist, e = and2
    w = InteractionWeights.from_simple(SimpleWeights.shapley(2))
    value = compute_interaction_simple(model, dist, e, Coalition.singleton(0), w)
    assert value == Fraction(3, 8)


def test_interaction_simple_constant_model():
    space = and_space(3)
    model = constant_model(space, Fraction(5))
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    w = InteractionWeights.single(3, 2, [Fraction(3, 4), Fraction(1, 4)])
    assert compute_interaction_simple(model, dist, e, BOTH, w) == 0


def test_interaction_simple_call_count():
    rng = random.Random(77)
    space = random_space(rng, 5)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    a_set = Coalition.from_members([1, 4])
    counted = CountingModel(model)
    compute_interaction_simple(
        counted, dist, e, a_set, InteractionWeights.single(5, 2, random_interaction_row(rng, 5, 2))
    )
    assert counted.expected_value_calls == (5 - 2 + 1) * (2 + 1)


def test_interaction_simple_full_set():
    # A = N leaves no outside features: a single z-node and n+1 y-nodes
    rng = random.Random(91)
    space = random_space(rng, 3)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    a_set = Coalition.full(3)
    w = InteractionWeights.single(3, 3, [Fraction(1)])
    assert compute_interaction_simple(model, dist, e, a_set, w) == brute_interaction_index(
        model, dist, e, a_set, w
    )


def test_z_only_prefactor_fails_oracle_equality():
    space = and_space(3)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    a_set = BOTH  # m = 2 with n = 3, so 1 <= m <= n-1
    w = InteractionWeights.single(3, 2, [Fraction(0), Fraction(1)])
    reference = brute_interaction_index(model, dist, e, a_set, w)
    assert compute_interaction_simple(model, dist, e, a_set, w) == reference
    wrong = compute_interaction_simple(model, dist, e, a_set, w, prefactor=PREFACTOR_Z_ONLY)
    assert wrong != reference


def _refuse_requests(patch):
    # every built-in model fails an expected-value request, so a call that
    # answers made none
    def refuse(self, *args):
        raise AssertionError("an expected-value request")

    for cls in (TableModel, AdditiveModel, TreeModel, EnsembleModel):
        for name in ("expected_value", "expected_values"):
            patch.setattr(cls, name, refuse)


def _four_feature_case(seed: int, kind: str = "tree"):
    rng = random.Random(seed)
    space = random_space(rng, 4)
    model = random_model_of_kind(kind, rng, space)
    return rng, model, random_distribution(rng, space), random_instance(rng, space)


@pytest.mark.parametrize("kind", ["tree", "additive", "ensemble"])
def test_a_one_member_set_walks_as_its_feature_does(kind, monkeypatch):
    rng, model, dist, e = _four_feature_case(37, kind)
    simple = random_simple_weights(rng, 4)
    weights = InteractionWeights.from_simple(simple)
    for a in range(4):
        a_set = Coalition.singleton(a)
        with monkeypatch.context() as patch:
            _refuse_requests(patch)
            value = compute_interaction_simple(model, dist, e, a_set, weights)
        assert value == compute_simple_index(model, dist, e, a, simple)
        assert value == brute_interaction_index(model, dist, e, a_set, weights)
        counted = CountingModel(model)  # the wrapper has no walk: the grid's 2n
        assert compute_interaction_simple(counted, dist, e, a_set, weights) == value
        assert counted.expected_value_calls == 2 * 4


def test_a_walk_builds_no_mixture_rows(monkeypatch):
    _, model, dist, e = _four_feature_case(41, "ensemble")
    built = []
    row = powerdex.indices.mixture_row
    monkeypatch.setattr(powerdex.indices, "mixture_row", lambda *args: built.append(args) or row(*args))
    attribute_all(model, dist, e, SimpleWeights.shapley(4))
    weights = InteractionWeights.from_simple(SimpleWeights.shapley(4))
    compute_interaction_simple(model, dist, e, Coalition.singleton(2), weights)
    assert built == []
    # a pair takes the batches: 3 y-variants of 2 members, and 3 z-nodes
    # past z = 0 of 4 rows
    pair = InteractionWeights.single(4, 2, random_interaction_row(random.Random(3), 4, 2))
    compute_interaction_simple(model, dist, e, BOTH, pair)
    assert len(built) == 3 * 2 + 2 * 4


def test_z_only_prefactor_takes_the_batches_for_a_one_member_set():
    _, tree, dist, e = _four_feature_case(43)
    weights = InteractionWeights.from_simple(SimpleWeights.shapley(4))
    for model in (tree, TableModel.tabulate(tree)):
        for a in range(4):
            a_set = Coalition.singleton(a)
            wrong = compute_interaction_simple(model, dist, e, a_set, weights, prefactor=PREFACTOR_Z_ONLY)
            assert wrong != brute_interaction_index(model, dist, e, a_set, weights)
            counted = CountingModel(model)
            assert compute_interaction_simple(
                counted, dist, e, a_set, weights, prefactor=PREFACTOR_Z_ONLY
            ) == wrong
            assert counted.expected_value_calls == 2 * 4


# ---------------------------------------------------------------------------
# the bernoulli path


def test_interaction_bernoulli_and(and2):
    space, model, dist, e = and2
    w = BernoulliInteractionWeights.constant(2, Fraction(1, 2))
    assert compute_interaction_bernoulli(model, dist, e, BOTH, w) == Fraction(1, 4)


def test_interaction_bernoulli_singleton_collapse(and2):
    space, model, dist, e = and2
    w = BernoulliInteractionWeights.constant(2, Fraction(1, 2))
    assert compute_interaction_bernoulli(
        model, dist, e, Coalition.singleton(0), w
    ) == compute_bernoulli_index(model, dist, e, 0, BernoulliWeights.constant(2, Fraction(1, 2)))


def test_interaction_bernoulli_theta_zero_gives_marginal(and2):
    space, model, dist, e = and2
    w = BernoulliInteractionWeights.constant(2, Fraction(0))
    assert compute_interaction_bernoulli(model, dist, e, BOTH, w) == interaction_marginal(
        model, dist, e, BOTH, Coalition()
    )


def test_interaction_bernoulli_call_count():
    rng = random.Random(19)
    space = random_space(rng, 6)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    a_set = Coalition.from_members([0, 2, 5])
    counted = CountingModel(model)
    compute_interaction_bernoulli(
        counted, dist, e, a_set, BernoulliInteractionWeights.constant(6, Fraction(1, 3))
    )
    assert counted.expected_value_calls == 8


def test_interaction_bernoulli_refuses_a_set_past_the_limit_before_any_call():
    m = INTERACTION_SET_LIMIT + 1
    space = and_space(m + 1)
    counted = CountingModel(constant_model(space, Fraction(1)))
    dist, e = ProductDistribution.uniform(space), ones_instance(space)
    weights = BernoulliInteractionWeights.constant(m + 1, Fraction(1, 2))
    message = f"interaction set of size {m} would need 2\\^{m} expectations \\(limit {m - 1}\\)"
    with pytest.raises(BudgetExceededError, match=f"^{message}$"):
        compute_interaction_bernoulli(counted, dist, e, Coalition.full(m), weights)
    assert counted.expected_value_calls == 0


def test_interaction_bernoulli_ignores_inside_theta():
    rng = random.Random(21)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    a_set = Coalition.from_members([1, 2])
    base = [Fraction(1, 3)] * 4
    tweaked = list(base)
    tweaked[1] = Fraction(1)
    tweaked[2] = Fraction(0)
    assert compute_interaction_bernoulli(
        model, dist, e, a_set, BernoulliInteractionWeights(base)
    ) == compute_interaction_bernoulli(
        model, dist, e, a_set, BernoulliInteractionWeights(tweaked)
    )


def test_interaction_set_size_guard():
    space = and_space(2)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    big = Coalition.from_members(range(21))
    with pytest.raises(ValueError):
        compute_interaction_bernoulli(
            model, dist, e, big, BernoulliInteractionWeights.constant(2, Fraction(0))
        )


# ---------------------------------------------------------------------------
# oracle equivalence on random models (small-scale; acceptance runs the corpus)


def test_both_paths_match_brute_on_random_models():
    rng = random.Random(303)
    for _ in range(6):
        n = rng.randint(3, 6)
        space = random_space(rng, n)
        model = random_tree_model(rng, space)
        dist = random_distribution(rng, space)
        e = random_instance(rng, space)
        table = conditional_table(model, dist, e)
        for m in range(1, n + 1):  # every y-weight row up to m = 6
            for combo in itertools.combinations(range(n), m):
                a_set = Coalition.from_members(combo)
                w = InteractionWeights.single(n, m, random_interaction_row(rng, n, m))
                assert compute_interaction_simple(
                    model, dist, e, a_set, w
                ) == brute_interaction_index(model, dist, e, a_set, w, table=table)
                bw = BernoulliInteractionWeights(random_grid_theta(rng, n).theta)
                assert compute_interaction_bernoulli(
                    model, dist, e, a_set, bw
                ) == brute_interaction_index(model, dist, e, a_set, bw, table=table)


def test_additive_models_have_no_interactions():
    rng = random.Random(404)
    for _ in range(4):
        space = random_space(rng, 4)
        model = random_additive_model(rng, space)
        dist = random_distribution(rng, space)
        e = random_instance(rng, space)
        for combo in itertools.combinations(range(4), 2):
            a_set = Coalition.from_members(combo)
            w = InteractionWeights.single(4, 2, random_interaction_row(rng, 4, 2))
            assert compute_interaction_simple(model, dist, e, a_set, w) == 0
            bw = BernoulliInteractionWeights(random_grid_theta(rng, 4).theta)
            assert compute_interaction_bernoulli(model, dist, e, a_set, bw) == 0


# ---------------------------------------------------------------------------
# malformed arguments

_PAIR_WEIGHTS = InteractionWeights.single(2, 2, [Fraction(1)])
_HALVES = BernoulliWeights([Fraction(1, 2)] * 2)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (
            lambda m, d, e: compute_interaction_simple(m, d, e, Coalition(), _PAIR_WEIGHTS),
            ValueError,
            "the interaction set must be nonempty",
        ),
        (
            lambda m, d, e: compute_interaction_simple(m, d, e, BOTH, _PAIR_WEIGHTS, prefactor="x"),
            ValueError,
            "unknown prefactor variant 'x'",
        ),
        (
            lambda m, d, e: compute_interaction_bernoulli(m, d, e, Coalition(), _HALVES),
            ValueError,
            "the interaction set must be nonempty",
        ),
        (
            lambda m, d, e: brute_interaction_index(m, d, e, Coalition(), _HALVES),
            ValueError,
            "the interaction set must be nonempty",
        ),
        (lambda m, d, e: InteractionWeights(0, 1, []), WeightError, "interaction weights need n >= 1"),
        (lambda m, d, e: InteractionWeights(2, 0, [1]), WeightError, "target-set size 0 outside 1..2"),
        (lambda m, d, e: InteractionWeights(2, 3, [1]), WeightError, "target-set size 3 outside 1..2"),
        (
            lambda m, d, e: InteractionWeights.from_simple(_HALVES),
            TypeError,
            f"unsupported scheme {_HALVES!r}",
        ),
    ],
    ids=[
        "simple-empty-set",
        "unknown-prefactor",
        "bernoulli-empty-set",
        "brute-empty-set",
        "weights-n-0",
        "weights-m-0",
        "weights-m-above-n",
        "from-simple-wrong-kind",
    ],
)
def test_interaction_calls_reject_malformed_arguments(and2, call, kind, message):
    _, model, dist, e = and2
    with pytest.raises(kind) as excinfo:
        call(model, dist, e)
    assert str(excinfo.value) == message
