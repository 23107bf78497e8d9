import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerdex import (
    ConverseInapplicableError,
    ConverseSystem,
    ProductDistribution,
    SimpleWeights,
    brute_coalition_sums,
    eval_P,
    index_engine_oracle,
    polynomial_coefficients,
    recover_expectation,
    recover_expectation_detailed,
)
from powerdex.interpolation import solve_linear_system

from corpus import (
    and_space,
    and_table_model,
    constant_model,
    ones_instance,
    random_distribution,
    random_instance,
    random_simple_weights,
    random_space,
    random_tree_model,
    rationals,
)

EVAL_POINTS = [Fraction(1, 3), Fraction(7, 5), Fraction(2), Fraction(5)]


# ---------------------------------------------------------------------------
# the constraint polynomials


def test_beta_construction():
    system = ConverseSystem(SimpleWeights.shapley(2))
    assert system.beta == (Fraction(-1), Fraction(0), Fraction(1))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shapley_polynomials_are_minus_powers(n):
    system = ConverseSystem(SimpleWeights.shapley(n))
    for ell in range(n):
        for z in EVAL_POINTS:
            assert eval_P(system, ell, z) == -(z**ell)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_banzhaf_polynomial_closed_form(n):
    system = ConverseSystem(SimpleWeights.banzhaf(n))
    for ell in range(n):
        for z in EVAL_POINTS:
            closed = Fraction(1, 2 ** (n - 1)) * (
                ell * (1 + 2 * z) ** (ell - 1) - (n - ell) * (1 + 2 * z) ** ell
            )
            assert eval_P(system, ell, z) == closed


@pytest.mark.parametrize("n", [3, 5])
def test_binomial_polynomial_closed_form(n):
    theta = Fraction(1, 3)
    system = ConverseSystem(SimpleWeights.binomial(n, theta))
    for ell in range(n):
        for z in EVAL_POINTS:
            closed = (1 - theta) ** (n - ell - 1) * (
                ell * (z + 1) * (z + theta) ** (ell - 1) - n * (z + theta) ** ell
            )
            assert eval_P(system, ell, z) == closed


@pytest.mark.parametrize("n", [2, 4])
def test_dictatorial_polynomial_closed_form(n):
    system = ConverseSystem(SimpleWeights.dictatorial(n))
    for ell in range(n):
        for z in EVAL_POINTS:
            assert eval_P(system, ell, z) == ell * z ** (ell - 1) - (n - ell) * z**ell


@pytest.mark.parametrize("n", [3, 5, 7])
def test_marginal_polynomials_vanish(n):
    system = ConverseSystem(SimpleWeights.marginal(n))
    for ell in range(n - 1):
        assert polynomial_coefficients(system, ell) == (Fraction(0),) * (ell + 1)


def test_leading_coefficient_law():
    rng = random.Random(17)
    for n in range(1, 11):
        for _ in range(10):
            w = random_simple_weights(rng, n)
            system = ConverseSystem(w)
            for ell in range(n):
                coeffs = polynomial_coefficients(system, ell)
                lead = (ell - n) * sum(comb(ell, k) * w.q[k] for k in range(ell + 1))
                assert coeffs[ell] == lead
                if w.q[0] > 0:
                    assert coeffs[ell] < 0


def test_top_polynomial_degree_drops():
    rng = random.Random(29)
    for n in range(1, 11):
        for _ in range(10):
            system = ConverseSystem(random_simple_weights(rng, n))
            assert polynomial_coefficients(system, n)[n] == 0
            # equivalently, the binomial-weighted betas cancel
            assert sum(comb(n, k) * system.beta[k] for k in range(n + 1)) == 0


def _definition_coefficients(weights, ell):
    # P_l(z) = sum_{k<=l} C(l,k) beta_k (1+z)^k z^(l-k), term by term in Fractions
    n, q = weights.n, (Fraction(0),) + weights.q + (Fraction(0),)
    coeffs = [Fraction(0)] * (ell + 1)
    for k in range(ell + 1):
        c = comb(ell, k) * (k * q[k] - (n - k) * q[k + 1])
        for t in range(k + 1):
            coeffs[ell - k + t] += c * comb(k, t)
    return tuple(coeffs)


SCHEMES = ("random", "shapley", "banzhaf", "marginal", "dictatorial")
FIXED_POINTS = [0, 5, -3, Fraction(9, 4), Fraction(-2, 7)]


@given(
    st.sampled_from(SCHEMES),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.integers(-9, 9) | rationals(), max_size=3),
)
@example("random", 12, 3, [Fraction(-7, 12)])
@example("marginal", 12, 0, [])
@settings(deadline=None, max_examples=60)
def test_the_integer_table_is_the_definition(kind, n, seed, points):
    if kind == "random":
        w = random_simple_weights(random.Random(seed), n)
    else:
        w = getattr(SimpleWeights, kind)(n)
    system = ConverseSystem(w)
    for ell in range(n + 1):
        coeffs = _definition_coefficients(w, ell)
        assert polynomial_coefficients(system, ell) == coeffs
        for z in FIXED_POINTS + points:
            horner = Fraction(0)
            for c in reversed(coeffs):
                horner = horner * z + c
            value = eval_P(system, ell, z)
            assert type(value) is Fraction and value == horner
    # the table is no field: systems compare, hash and print by weights and nodes
    same = ConverseSystem(w)
    assert same == system and hash(same) == hash(system) and repr(same) == repr(system)
    assert repr(system) == (
        f"ConverseSystem(weights={w!r}, nodes={system.nodes!r}, beta={system.beta!r})"
    )


def test_eval_P_rejects_the_index_before_the_point():
    system = ConverseSystem(SimpleWeights.shapley(2))
    with pytest.raises(ValueError, match=re.escape("polynomial index 3 outside 0..2")):
        eval_P(system, 3, "not a rational")


# ---------------------------------------------------------------------------
# system construction


def test_default_nodes_are_one_through_n():
    system = ConverseSystem(SimpleWeights.shapley(4))
    assert system.nodes == (Fraction(1), Fraction(2), Fraction(3), Fraction(4))


# ---------------------------------------------------------------------------
# expectation recovery


def test_recover_and_shapley():
    space = and_space(2)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    w = SimpleWeights.shapley(2)
    value = recover_expectation(
        ConverseSystem(w), index_engine_oracle(model, e, w), dist, e, model.evaluate(e)
    )
    assert value == Fraction(1, 4)


def test_recover_constant_model():
    rng = random.Random(5)
    space = random_space(rng, 4)
    c = Fraction(9, 7)
    model = constant_model(space, c)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    w = SimpleWeights.banzhaf(4)
    diag = recover_expectation_detailed(
        ConverseSystem(w), index_engine_oracle(model, e, w), dist, e, model.evaluate(e)
    )
    assert diag.expected_value == c
    assert diag.theta_samples == (Fraction(0),) * 4


def test_recover_banzhaf_random_tree():
    rng = random.Random(41)
    space = random_space(rng, 4)
    model = random_tree_model(rng, space)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    w = SimpleWeights.banzhaf(4)
    value = recover_expectation(
        ConverseSystem(w), index_engine_oracle(model, e, w), dist, e, model.evaluate(e)
    )
    assert value == model.expected_value(dist)


def test_recovered_coefficients_match_brute_sums():
    rng = random.Random(47)
    for _ in range(6):
        n = rng.randint(2, 5)
        space = random_space(rng, n)
        model = random_tree_model(rng, space)
        dist = random_distribution(rng, space)
        e = random_instance(rng, space)
        w = random_simple_weights(rng, n, positive_q0=True)
        diag = recover_expectation_detailed(
            ConverseSystem(w), index_engine_oracle(model, e, w), dist, e, model.evaluate(e)
        )
        assert diag.coefficients == brute_coalition_sums(model, dist, e)


def test_marginal_weights_rejected():
    space = and_space(2)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    w = SimpleWeights.marginal(2)
    with pytest.raises(ConverseInapplicableError, match="inapplicable"):
        recover_expectation(
            ConverseSystem(w), index_engine_oracle(model, e, w), dist, e, model.evaluate(e)
        )


def test_oracle_length_validated():
    space = and_space(2)
    model = and_table_model(space)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    w = SimpleWeights.shapley(2)
    with pytest.raises(ValueError):
        recover_expectation(
            ConverseSystem(w), lambda d: [Fraction(0)], dist, e, model.evaluate(e)
        )


@pytest.mark.parametrize("answer", [0.5, "half", None])
def test_oracle_answers_must_be_rational(answer):
    space = and_space(2)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    system = ConverseSystem(SimpleWeights.shapley(2))
    with pytest.raises(ValueError, match=re.escape(repr(answer))):
        recover_expectation_detailed(
            system, lambda d: [Fraction(1, 3), answer], dist, e, Fraction(1)
        )


def test_oracle_answers_may_be_ints():
    space = and_space(2)
    dist = ProductDistribution.uniform(space)
    e = ones_instance(space)
    system = ConverseSystem(SimpleWeights.banzhaf(2))

    def recover(kind):
        answers = iter([[3, -1], [0, 2]])
        return recover_expectation_detailed(
            system, lambda d: [kind(v) for v in next(answers)], dist, e, Fraction(1)
        )

    as_ints, as_fractions = recover(int), recover(Fraction)
    assert as_ints == as_fractions
    assert as_ints.theta_samples == (Fraction(2), Fraction(2))
    assert all(type(t) is Fraction for t in as_ints.theta_samples)


def _random_recovery(rng, n):
    # arbitrary theta sums, not those of any model: the recovery is the
    # solution of the n x n system P_l(z_i) whatever the oracle answers
    system = ConverseSystem(random_simple_weights(rng, n, positive_q0=True))
    thetas = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in system.nodes]
    answers = iter(thetas)

    def oracle(dist):
        return [next(answers)] + [Fraction(0)] * (n - 1)

    space = random_space(rng, n)
    dist = random_distribution(rng, space)
    e = random_instance(rng, space)
    c_n = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
    diag = recover_expectation_detailed(system, oracle, dist, e, c_n)
    matrix = [[eval_P(system, ell, z) for ell in range(n)] for z in system.nodes]
    rhs = [
        (1 + z) ** n * theta - c_n * eval_P(system, n, z)
        for z, theta in zip(system.nodes, thetas)
    ]
    assert diag.coefficients == solve_linear_system(matrix, rhs) + (c_n,)
    assert diag.theta_samples == tuple(thetas)


def test_recovery_at_larger_n_equals_the_gaussian_solve():
    # the sizes where the fraction-free back-substitution's integers grow most
    rng = random.Random(2026)
    for n in range(11, 21):
        _random_recovery(rng, n)


@pytest.mark.parametrize("seed", range(6))
def test_back_substitution_equals_the_gaussian_solve(seed):
    rng = random.Random(1000 + seed)
    for n in range(1, 11):
        _random_recovery(rng, n)


@pytest.mark.parametrize("ell", [-1, 3])
def test_polynomial_coefficients_reject_an_index_out_of_range(ell):
    with pytest.raises(ValueError) as excinfo:
        polynomial_coefficients(ConverseSystem(SimpleWeights.shapley(2)), ell)
    assert str(excinfo.value) == f"polynomial index {ell} outside 0..2"
