"""Exact power-index feature attribution over finite feature domains."""

from .core import (
    BudgetExceededError,
    Coalition,
    FeatureSpace,
    Instance,
    PowerdexError,
    ProductDistribution,
    Rational,
    SpaceMismatchError,
    WeightError,
    all_coalitions,
    bernoulli_mixture,
    condition,
    decimal_string,
    format_rational,
    mixture_distribution,
    parse_rational,
    subsets,
)
from .models import (
    AdditiveModel,
    CountingModel,
    EnsembleModel,
    Leaf,
    Model,
    Split,
    TableModel,
    TreeModel,
    conditional_expectation,
)
from .indices import (
    AttributionReport,
    BernoulliWeights,
    SimpleWeights,
    all_coefficients,
    attribute_all,
    bernoulli_indices,
    compute_bernoulli_index,
    compute_simple_index,
    interpolate_coefficients,
    marginal_contribution,
    marginal_index,
    simple_indices,
)
from .converse import (
    ConverseDiagnostics,
    ConverseInapplicableError,
    ConverseSystem,
    eval_P,
    index_engine_oracle,
    polynomial_coefficients,
    recover_expectation,
    recover_expectation_detailed,
)
from .interaction import (
    BernoulliInteractionWeights,
    InteractionWeights,
    compute_interaction_bernoulli,
    compute_interaction_simple,
    interaction_marginal,
)
from .oracle import (
    ConditionalTable,
    OracleBudget,
    brute_bernoulli_index,
    brute_coalition_sums,
    brute_coefficient_sums,
    brute_expectation,
    brute_interaction_index,
    brute_simple_index,
    conditional_table,
)

__version__ = "0.1.0"
