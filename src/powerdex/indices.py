"""Single-feature power indices, and the reductions interactions share.

Three computation paths, all exact:

* interpolation -- works for any cardinality-based weight vector; 2n
  expected values per feature at the integer nodes z = 0..n-1 give the
  feature's generating polynomial, whose coefficients (the per-size
  marginal sums) the vector weighs.
* bernoulli-direct -- two expected values, for indices whose coalition
  distribution factors into independent per-feature inclusion trials.
* closed-form -- the marginal preset, which needs no expectations at all.

Both paths that need expectations take a feature's derivative
E[F | a pinned to e_a] - E[F | a free], the other features on their
z-mixture rows (interpolation) or theta-mixture rows (bernoulli-direct),
and read it in one form (``Reduced``): per member set A, polynomials
Q_{A,L} over one denominator whose sum_L Q_{A,L}(z) (1+z)^(n-L) is the
generating polynomial.  Every model gives them through
``Model._gap_polynomials``: trees and additive models from one walk of
their own, ensembles as the sum of their components' answers, and every
other model through the batch reduction passed in.  That reduction
requests the distributions of all targets (``_derivative``) at one node
as one ``expected_values`` batch (``batched_node_sums``) and interpolates
the node sums into Q_{A,n} (``_node_polynomials``).  An interaction set
of two or more members takes it on the model itself.  Engine calls count
requested expectations: 2n per feature, and 2^m for a derivative along m
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .core import (
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    WeightError,
    as_rational,
    bernoulli_mixture,
    check_shared_space,
    mixture_row,
    point_mass_row,
)
from .interpolation import _lagrange
from .models import (
    Factor,
    GapPolynomials,
    Model,
    _fixed_factors,
    _z_factors,
    conditional_expectation,
)

PATH_INTERPOLATION = "interpolation"
PATH_BERNOULLI = "bernoulli-direct"
PATH_CLOSED_FORM = "closed-form"


def _check_cardinality_row(q: Sequence[Fraction], pool: int, entry, row: str) -> None:
    """q_k >= 0 and sum_k C(pool, k) q_k = 1 exactly, or a WeightError.

    ``entry(k)`` names q_k and ``row`` the vector in the messages.
    """
    total = Fraction(0)
    for k, qk in enumerate(q):
        if qk < 0:
            raise WeightError(f"{entry(k)} = {qk} is negative")
        total += comb(pool, k) * qk
    if total != 1:
        raise WeightError(f"{row} {total} under binomial counts, not 1")


@dataclass(frozen=True)
class SimpleWeights:
    """A cardinality-based coalition weight vector q_0..q_{n-1}.

    Validity demands q_k >= 0 and sum_k C(n-1,k) q_k = 1 exactly; there
    is no silent renormalization (use :meth:`normalized`).  ``preset``
    tags vectors built by the named constructors so higher layers can
    pick specialized computation paths.
    """

    n: int
    q: tuple[Fraction, ...]
    preset: Optional[str] = None
    theta: Optional[Fraction] = None  # binomial preset parameter

    def __post_init__(self):
        if self.n < 1:
            raise WeightError("weights need n >= 1")
        if len(self.q) != self.n:
            raise WeightError(f"{len(self.q)} weights for n={self.n}")
        _check_cardinality_row(self.q, self.n - 1, lambda k: f"q_{k}", "weights sum to")

    @classmethod
    def from_values(cls, values: Sequence) -> "SimpleWeights":
        q = tuple(as_rational(v) for v in values)
        return cls(len(q), q)

    @classmethod
    def normalized(cls, values: Sequence) -> "SimpleWeights":
        """Scale a nonnegative vector so the coalition weights sum to 1."""
        raw = [as_rational(v) for v in values]
        n = len(raw)
        total = sum(comb(n - 1, k) * v for k, v in enumerate(raw))
        if total <= 0:
            raise WeightError("cannot normalize: weights sum to zero")
        return cls(n, tuple(v / total for v in raw))

    @classmethod
    def shapley(cls, n: int) -> "SimpleWeights":
        q = tuple(
            Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) for k in range(n)
        )
        return cls(n, q, preset="shapley")

    @classmethod
    def banzhaf(cls, n: int) -> "SimpleWeights":
        q = (Fraction(1, 2 ** (n - 1)),) * n
        return cls(n, q, preset="banzhaf")

    @classmethod
    def binomial(cls, n: int, theta) -> "SimpleWeights":
        theta = as_rational(theta)
        if not 0 < theta < 1:
            raise WeightError(f"binomial parameter must lie in (0, 1), got {theta}")
        q = tuple(theta**k * (1 - theta) ** (n - 1 - k) for k in range(n))
        return cls(n, q, preset="binomial", theta=theta)

    @classmethod
    def dictatorial(cls, n: int) -> "SimpleWeights":
        q = (Fraction(1),) + (Fraction(0),) * (n - 1)
        return cls(n, q, preset="dictatorial")

    @classmethod
    def marginal(cls, n: int) -> "SimpleWeights":
        q = (Fraction(0),) * (n - 1) + (Fraction(1),)
        return cls(n, q, preset="marginal")


@dataclass(frozen=True)
class BernoulliWeights:
    """Per-feature inclusion probabilities defining the coalition distribution."""

    theta: tuple[Fraction, ...]

    def __init__(self, theta: Sequence):
        values = tuple(as_rational(t) for t in theta)
        for i, t in enumerate(values):
            if t < 0 or t > 1:
                raise WeightError(f"theta_{i} = {t} outside [0, 1]")
        object.__setattr__(self, "theta", values)

    @classmethod
    def constant(cls, n: int, theta) -> "BernoulliWeights":
        return cls([as_rational(theta)] * n)


IndexScheme = Union[SimpleWeights, BernoulliWeights]


def _check_scheme_size(weights, n: int) -> None:
    """A WeightError unless the scheme is for n features (Bernoulli weights: one theta each)."""
    if isinstance(weights, BernoulliWeights):
        if len(weights.theta) != n:
            raise WeightError(f"theta has {len(weights.theta)} entries for n={n}")
    elif weights.n != n:
        raise WeightError(f"weights are for n={weights.n}, space has n={n}")


@dataclass(frozen=True)
class AttributionReport:
    """Per-feature index values plus the provenance of the computation."""

    values: tuple[Fraction, ...]
    scheme: IndexScheme
    path: str
    engine_calls: tuple[int, ...]  # expected-value calls, per feature
    # per feature, its interpolate_coefficients vector: interpolation path,
    # on request only
    coefficient_sums: Optional[tuple[tuple[Fraction, ...], ...]] = None


def marginal_contribution(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    coalition: Coalition,
) -> Fraction:
    """Change in conditional expectation when feature a joins the coalition."""
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    coalition.check_within(space)
    if a in coalition:
        raise ValueError(f"feature {a} is already in the coalition")
    joined = coalition.with_member(a)
    return conditional_expectation(model, dist, e, joined) - conditional_expectation(
        model, dist, e, coalition
    )


# A variant of a batch: its coefficient and the rows it puts in place of
# the node's rows, keyed by feature.
Variant = tuple[Fraction, Mapping[int, Sequence[Fraction]]]


def batched_node_sums(
    model: Model,
    space: FeatureSpace,
    node_rows: Iterable[Sequence[Sequence[Fraction]]],
    targets: Sequence[Sequence[Variant]],
) -> list[list[Fraction]]:
    """Per target and node, the sum of coefficient * E[F] over the target's variants.

    ``node_rows`` yields the n base probability rows of each node, and a
    variant's distribution is the node's rows with its own rows put in.
    Each node makes one ``model.expected_values`` request for every
    variant of every target.
    """
    sums: list[list[Fraction]] = [[] for _ in targets]
    overrides = [rows for variants in targets for _, rows in variants]
    for rows in node_rows:
        batch = []
        for extra in overrides:
            varied = list(rows)
            for i, row in extra.items():
                varied[i] = row
            batch.append(ProductDistribution._from_trusted_rows(space, tuple(varied)))
        values = iter(model.expected_values(batch))
        for total, variants in zip(sums, targets):
            total.append(sum((coef * next(values) for coef, _ in variants), Fraction(0)))
    return sums


_SIGNS = (Fraction(1), Fraction(-1))


def _derivative(
    space: FeatureSpace, dist: ProductDistribution, e: Instance, members: Sequence[int]
) -> list[Variant]:
    """The discrete derivative along the members, one variant per subset B.

    B is pinned to e, the other members stay on their input marginals,
    and the sign is (-1)^(m-|B|).  A single feature's derivative is its
    pinned-minus-free gap.
    """
    m = len(members)
    pins = [point_mass_row(space, i, e[i]) for i in members]
    variants = []
    for mask in range((1 << m) - 1, -1, -1):
        rows = {i: pins[j] if mask >> j & 1 else dist.probs[i] for j, i in enumerate(members)}
        variants.append((_SIGNS[(m - mask.bit_count()) % 2], rows))
    return variants


def _z_node_sums(
    model: Model, dist: ProductDistribution, e: Instance, nodes: Sequence[Fraction], targets
) -> list[list[Fraction]]:
    """``batched_node_sums`` with every marginal blended toward e by each node's z-mixture."""
    def rows(z):
        if not z:
            # the input rows themselves: nothing to build, and a tree's batch
            # key (row identity) sees them as the input rows
            return dist.probs
        return tuple(mixture_row(row, hit, z) for row, hit in zip(dist.probs, e._positions))

    return batched_node_sums(model, dist.space, (rows(z) for z in nodes), targets)


def _node_polynomials(
    keys: Iterable, nodes: Sequence[Fraction], node_sums, power: int, n: int
) -> GapPolynomials:
    """Per key, the polynomial through the points (z, (1+z)^power s(z)), read as Q_{A,n}.

    ``node_sums`` holds each key's sums s at the nodes.  With the power
    n - m this is the generating polynomial of the key's member set A.
    """
    coeffs, den = _lagrange(nodes, node_sums, power)
    return {key: {n: c} for key, c in zip(keys, coeffs)}, den


# Per member set A, its polynomials Q_{A,L} by path length L, and their
# one denominator: sum_L Q_{A,L}(z) (1+z)^(n-L) is the set's generating
# polynomial.
Reduced = tuple[list[dict[int, list[int]]], int]


def _reduce(
    model: Model,
    factors: Sequence[Factor],
    member_sets: Sequence[Sequence[int]],
    batches: Callable[[Model, Sequence], GapPolynomials],
) -> Reduced:
    """The member sets' polynomials: a feature's from the model's hook.

    ``batches(component, keys)`` is the batch reduction keyed by ``keys``.
    A set of two or more members takes it on the model itself.
    """
    if all(len(members) == 1 for members in member_sets):
        keys = [a for (a,) in member_sets]
        wanted = 0
        for a in keys:
            wanted |= 1 << a
        polys, den = model._gap_polynomials(
            factors, wanted, lambda component: batches(component, keys)
        )
    else:
        keys = range(len(member_sets))
        polys, den = batches(model, keys)
    return [polys.get(key, {}) for key in keys], den


def _walked_indices(reduced: Reduced, q: Sequence[Fraction], n: int) -> list[Fraction]:
    # sum_k q_k [z^k] sum_L Q_L(z) (1+z)^(n-L) = sum_L sum_i Q_{L,i} W_{L,i}
    # with W_{L,i} = sum_j q_{i+j} C(n-L, j): W_n = q, and Pascal's rule
    # gives W_{L,i} = W_{L+1,i} + W_{L+1,i+1}
    by_set, den = reduced
    common = lcm(*(x.denominator for x in q))
    w = [x.numerator * (common // x.denominator) for x in q]
    weights = {n: w}
    shortest = min((length for polys in by_set for length in polys), default=n)
    for length in range(n - 1, shortest - 1, -1):
        w = [a + b for a, b in zip(w, w[1:])]
        weights[length] = w
    den *= common
    values = []
    for polys in by_set:
        total = 0
        for length, coeffs in polys.items():
            total += sum(c * x for c, x in zip(coeffs, weights[length]))
        values.append(Fraction(total, den))
    return values


def _walked_coefficients(reduced: Reduced, n: int) -> list[tuple[Fraction, ...]]:
    # sum_L Q_L(z) (1+z)^(n-L) by Horner's rule in (1+z), shortest L first
    by_set, den = reduced
    sums = []
    for polys in by_set:
        c = [0] * n
        for length in range(min(polys, default=n), n + 1):
            c = c[:1] + [a + b for a, b in zip(c[1:], c)]  # times (1+z)
            for k, x in enumerate(polys.get(length, ())):
                c[k] += x
        sums.append(tuple(Fraction(x, den) for x in c))
    return sums


def _z_reduction(
    model: Model, dist: ProductDistribution, e: Instance, features: Sequence[int]
) -> Reduced:
    """The features' gap polynomials under the z-mixture rows of the others."""
    space = dist.space
    n = space.n

    def batches(component, keys):
        # the gaps at z = 0..n-1, scaled by (1+z)^(n-1), interpolate G_a
        nodes = [Fraction(z) for z in range(n)]
        targets = [_derivative(space, dist, e, (a,)) for a in keys]
        sums = _z_node_sums(component, dist, e, nodes, targets)
        return _node_polynomials(keys, nodes, sums, n - 1, n)

    factors = _z_factors(dist.probs, e._positions)
    return _reduce(model, factors, [(a,) for a in features], batches)


def interpolate_coefficients(
    model: Model, dist: ProductDistribution, e: Instance, a: int
) -> tuple[Fraction, ...]:
    """Per-size sums of feature a's marginal contributions, exactly.

    Entry k is the sum of m(a;S) over the coalitions of size k avoiding
    a.  Obtained from 2n expected values: at each node z in 0..n-1 the
    difference between pinning feature a to e_a and leaving it free,
    under the z-mixture of the remaining features, scaled by (1+z)^(n-1),
    is the value of the generating polynomial at z.  A model with its own
    walk gives that polynomial directly.
    """
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    return _walked_coefficients(_z_reduction(model, dist, e, [a]), space.n)[0]


def all_coefficients(
    model: Model, dist: ProductDistribution, e: Instance
) -> list[tuple[Fraction, ...]]:
    """``interpolate_coefficients`` of every feature, from one batch per node."""
    space = check_shared_space(model, dist, e)
    return _walked_coefficients(_z_reduction(model, dist, e, range(space.n)), space.n)


def _interpolated_indices(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    features: Sequence[int],
    q: Sequence[Fraction],
    coefficient_sums: bool = False,
) -> tuple[list[Fraction], list[int], Optional[list[tuple[Fraction, ...]]]]:
    """The features' indices, engine calls and, on request, coefficient sums.

    The model's hook gives the gap polynomials; a model without a walk
    interpolates its gaps at the nodes 0..n-1.  Either way the reduction
    requests 2n expectations per feature.
    """
    n = dist.space.n
    reduced = _z_reduction(model, dist, e, features)
    sums = _walked_coefficients(reduced, n) if coefficient_sums else None
    return _walked_indices(reduced, q, n), [2 * n] * len(features), sums


def _bernoulli_indices(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    member_sets: Sequence[Sequence[int]],
    weights: BernoulliWeights,
) -> tuple[list[Fraction], list[int]]:
    # per member tuple (a feature, or an interaction set), its derivative
    # under the theta-mixture; the members' own theta entries go unused
    space = dist.space
    for members in member_sets:
        for i in members:
            space.check_feature(i)
    _check_scheme_size(weights, space.n)
    mixed = bernoulli_mixture(dist, e, weights.theta)

    def batches(component, keys):
        targets = [_derivative(space, dist, e, members) for members in member_sets]
        sums = batched_node_sums(component, space, [mixed.probs], targets)
        return _node_polynomials(keys, [Fraction(0)], sums, 0, space.n)

    factors = _fixed_factors(mixed.probs, dist.probs, e._positions)
    by_set, den = _reduce(model, factors, member_sets, batches)
    # fixed rows: each Q_{A,L} is a constant, and the derivative is their sum
    values = [Fraction(sum(q[0] for q in polys.values()), den) for polys in by_set]
    return values, [2 ** len(members) for members in member_sets]


def marginal_index(
    model: Model, dist: ProductDistribution, e: Instance, a: int
) -> Fraction:
    """Closed form for the marginal preset: F(e) minus the a-averaged prediction.

    Needs one model evaluation per value of feature a's domain with a
    nonzero probability, plus F(e), and no expected-value engine calls.
    """
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    positions = list(e._positions)
    averaged = Fraction(0)
    for k, p in enumerate(dist.probs[a]):
        if p:
            positions[a] = k
            averaged += p * Fraction(*model._evaluate_at(positions))
    return Fraction(*model._evaluate_at(e._positions)) - averaged


def _simple_indices(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    features: Sequence[int],
    weights: SimpleWeights,
) -> list[Fraction]:
    space = check_shared_space(model, dist, e)
    _check_scheme_size(weights, space.n)
    if weights.preset == "marginal":
        return [marginal_index(model, dist, e, a) for a in features]
    for a in features:
        space.check_feature(a)
    return _interpolated_indices(model, dist, e, features, weights.q)[0]


def compute_simple_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    weights: SimpleWeights,
) -> Fraction:
    """Cardinality-based index of feature a under the given weight vector.

    General path: interpolation (2n engine calls).  The marginal preset
    short-circuits to its closed form.
    """
    return _simple_indices(model, dist, e, [a], weights)[0]


def simple_indices(
    model: Model, dist: ProductDistribution, e: Instance, weights: SimpleWeights
) -> list[Fraction]:
    """``compute_simple_index`` of every feature, from one batch per node.

    The same paths as ``compute_simple_index``: the marginal preset takes
    its closed form and every other vector interpolates (unlike
    ``attribute_all``, which sends banzhaf and binomial to the direct path).
    """
    return _simple_indices(model, dist, e, range(dist.space.n), weights)


def compute_bernoulli_index(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    a: int,
    weights: BernoulliWeights,
) -> Fraction:
    """Bernoulli index of feature a as a difference of two expected values.

    The input theta_a is ignored: the two expectations pin it to 1 and 0.
    """
    check_shared_space(model, dist, e)
    return _bernoulli_indices(model, dist, e, [(a,)], weights)[0][0]


def bernoulli_indices(
    model: Model, dist: ProductDistribution, e: Instance, weights: BernoulliWeights
) -> list[Fraction]:
    """``compute_bernoulli_index`` of every feature, from one batch."""
    singles = [(a,) for a in range(check_shared_space(model, dist, e).n)]
    return _bernoulli_indices(model, dist, e, singles, weights)[0]


def _bernoulli_equivalent(weights: SimpleWeights) -> Optional[BernoulliWeights]:
    if weights.preset == "banzhaf":
        return BernoulliWeights.constant(weights.n, Fraction(1, 2))
    if weights.preset == "binomial":
        return BernoulliWeights.constant(weights.n, weights.theta)
    return None


def attribute_all(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    scheme: IndexScheme,
    coefficient_sums: bool = False,
) -> AttributionReport:
    """All n per-feature indices, routed through the cheapest valid path.

    Presets with a two-expectation equivalent (banzhaf, binomial) take
    the bernoulli-direct path; the marginal preset takes its closed
    form; everything else interpolates.  The expectations of all
    features at one node go to the model as one batch.  With
    ``coefficient_sums`` the interpolation path also reports every
    feature's ``interpolate_coefficients``, solved from the same values.
    """
    space = check_shared_space(model, dist, e)
    n = space.n
    features = range(n)
    sums = None
    if isinstance(scheme, SimpleWeights):
        _check_scheme_size(scheme, n)
        direct = _bernoulli_equivalent(scheme)
    elif isinstance(scheme, BernoulliWeights):
        direct = scheme
    else:
        raise TypeError(f"unsupported scheme {scheme!r}")
    if direct is not None:
        path = PATH_BERNOULLI
        singles = [(a,) for a in features]
        values, calls = _bernoulli_indices(model, dist, e, singles, direct)
    elif scheme.preset == "marginal":
        path = PATH_CLOSED_FORM
        values = [marginal_index(model, dist, e, a) for a in features]
        calls = [0] * n  # the closed form builds no distributions
    else:
        path = PATH_INTERPOLATION
        values, calls, sums = _interpolated_indices(
            model, dist, e, features, scheme.q, coefficient_sums
        )
        if sums is not None:
            sums = tuple(sums)
    return AttributionReport(
        values=tuple(values),
        scheme=scheme,
        path=path,
        engine_calls=tuple(calls),
        coefficient_sums=sums,
    )
