"""Single-feature power indices, and the reductions interactions share.

Three computation paths, all exact:

* interpolation -- works for any cardinality-based weight vector; 2n
  expected values per feature at the integer nodes z = 0..n-1 give the
  feature's generating polynomial, whose coefficients (the per-size
  marginal sums) the vector weighs.
* bernoulli-direct -- two expected values, for indices whose coalition
  distribution factors into independent per-feature inclusion trials.
* closed-form -- the marginal preset, which needs no expectations at all.

Both paths that need expectations reduce a member set A (a feature is
the one-member set) to one form (``Reduced``): its generating polynomial
in powers of u = 1 + z, all over one denominator.  A one-member set gets
it through ``Model._gap_polynomials``: trees from one walk of their own,
ensembles (additive models among them) as the sum of their components'
answers, and every other model through the batch reduction passed in.
A set of two or more members takes the batch reduction on the model
itself.  It requests, at each node, one ``expected_values`` batch
(``batched_node_sums``) and interpolates the node sums at the nodes
u = 1 + z (``_node_polynomials``): on the z path (``_z_reduction``) each
set's m+1 y-variants at each of the n-m+1 z-nodes, on the theta path
the 2^m signed variants of its derivative (``_derivative``) at the one
theta node.  Each reader is one expression in the coefficients g_j: an
index is sum_j g_j R_j with R_j = sum_k C(j, k) q_k, a Bernoulli
derivative is sum_j g_j, and the coefficient sums come from Horner's
rule in 1 + z.  Engine calls count requested expectations whichever way
a model answers (``_engine_calls``): (n-m+1)(m+1) on the z path, 2n for
a feature, and 2^m on the theta path, 2 for a feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence, Union

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

    m: ClassVar[int] = 1  # the target-set size: these weigh a single feature
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


def _check_scheme(weights, kinds, n: int, m: int = 1) -> None:
    """Fit a scheme to a call on n features and a target set of m members (1 for a feature).

    A TypeError unless it is one of ``kinds``; a WeightError unless its
    theta, or its n and set size m, match the call's."""
    if not isinstance(weights, kinds):
        raise TypeError(f"unsupported scheme {weights!r}")
    if isinstance(weights, BernoulliWeights):
        if len(weights.theta) != n:
            raise WeightError(f"theta has {len(weights.theta)} entries for n={n}")
    elif weights.n != n:
        raise WeightError(f"weights are for n={weights.n}, space has n={n}")
    elif weights.m != m:
        raise WeightError(f"weights are for |A|={weights.m}, the set has |A|={m}")


def _check_target(a_set: Coalition, space: FeatureSpace) -> None:
    """An interaction set within the space and nonempty, or a ValueError."""
    a_set.check_within(space)
    if not a_set:
        raise ValueError("the interaction set must be nonempty")


def _engine_calls(path: str, n: int, m: int = 1) -> int:
    """The expectations one target of m members (1 for a feature) requests on a path.

    2^m on bernoulli-direct, none in closed form, and one per grid point,
    (n-m+1)(m+1), on the z path: 2 and 2n for a feature.
    """
    if path == PATH_BERNOULLI:
        return 2**m
    if path == PATH_CLOSED_FORM:
        return 0
    return (n - m + 1) * (m + 1)


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


def _derivative(dist: ProductDistribution, e: Instance, members: Sequence[int]) -> list[Variant]:
    """The discrete derivative along the members, one variant per subset B.

    B is pinned to e, the other members stay on their input marginals,
    and the sign is (-1)^(m-|B|).  A single feature's derivative is its
    pinned-minus-free gap.
    """
    m = len(members)
    pins = [point_mass_row(len(dist.probs[i]), e._positions[i]) for i in members]
    variants = []
    for mask in range((1 << m) - 1, -1, -1):
        rows = {i: pins[j] if mask >> j & 1 else dist.probs[i] for j, i in enumerate(members)}
        variants.append((_SIGNS[(m - mask.bit_count()) % 2], rows))
    return variants


def _node_polynomials(keys: Iterable, node_sums, power: int) -> GapPolynomials:
    """Per key, the polynomial through the points (u, u^power s(z)), u = 1 + z.

    ``node_sums`` holds each key's sums s at the z-nodes 0, 1, 2, ...  With
    the power n - m this is the generating polynomial of the key's member
    set A, in powers of u.
    """
    coeffs, den = _lagrange(range(1, len(node_sums[0]) + 1), node_sums, power)
    return dict(zip(keys, coeffs)), den


# Per member set A, its generating polynomial's coefficients in powers of
# u = 1 + z, lowest first, times the one denominator, and that denominator.
Reduced = tuple[list[list[int]], int]


def _reduce(
    model: Model,
    factors: Callable[[], Sequence[Factor]],
    member_sets: Sequence[Sequence[int]],
    batches: Callable[[Model, Sequence], GapPolynomials],
    walk: bool = True,
) -> Reduced:
    """The member sets' polynomials: a feature's from the model's hook.

    ``factors()`` builds the hook's factors, and ``batches(component,
    keys)`` is the batch reduction keyed by ``keys``.  A set of two or
    more members, and any set with ``walk`` off, takes the batches on the
    model itself, and no factors are built.
    """
    if walk and all(len(members) == 1 for members in member_sets):
        keys = [a for (a,) in member_sets]
        wanted = 0
        for a in keys:
            wanted |= 1 << a
        polys, den = model._gap_polynomials(
            factors(), wanted, lambda component: batches(component, keys)
        )
    else:
        keys = range(len(member_sets))
        polys, den = batches(model, keys)
    return [polys.get(key, []) for key in keys], den


def _walked_indices(reduced: Reduced, q: Sequence[Fraction]) -> list[Fraction]:
    # sum_k q_k [z^k] sum_j g_j (1+z)^j = sum_j g_j R_j, R_j = sum_k C(j, k) q_k;
    # no g has more entries than q
    by_set, den = reduced
    common = lcm(*(x.denominator for x in q))
    w = [x.numerator * (common // x.denominator) for x in q]
    r = [sum(comb(j, k) * x for k, x in enumerate(w[: j + 1])) for j in range(len(w))]
    den *= common
    return [Fraction(sum(map(mul, g, r)), den) for g in by_set]


def _walked_coefficients(reduced: Reduced, n: int) -> list[tuple[Fraction, ...]]:
    # sum_j g_j (1+z)^j by Horner's rule in (1+z), from the top entry down
    by_set, den = reduced
    sums = []
    for g in by_set:
        c = [0] * n
        for x in reversed(g):
            c = [c[0] + x] + [a + b for a, b in zip(c[1:], c)]  # c * (1+z) + x
        sums.append(tuple(Fraction(x, den) for x in c))
    return sums


def _z_reduction(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    member_sets: Sequence[Sequence[int]],
    z_only: bool = False,
) -> Reduced:
    """The polynomials of member sets of one size m, the other features on z-mixture rows.

    The batch requests, at each z-node 0..n-m, every set's m+1 y-variants,
    one per y-node 0..m: its members on their y-mixture rows, weighted by
    the integer (-1)^(m+y) C(m+1, y+1) (1+y)^m.  The sign and binomial are
    (-1)^m l_y(-1), l_y the Lagrange basis polynomial of y-node y, so the
    y-sum reads the members' discrete derivative.  The sums times
    (1+z)^(n-m) interpolate G_A in u = 1 + z.  Any distinct nodes would
    give the same exact polynomial, so the nodes are fixed.  ``z_only``
    scales by (1+z)^n alone, wrong whenever y != z, so even a feature
    takes the batches: no walk gives it.
    """
    n = dist.space.n
    m = len(member_sets[0])
    z_power, y_power = (n, 0) if z_only else (n - m, m)
    probs, hits = dist.probs, e._positions

    def batches(component, keys):
        # the rows are built only here, never on a call the walk answers
        targets = [
            [
                (
                    (-1) ** (m + y) * comb(m + 1, y + 1) * (1 + y) ** y_power,
                    {i: mixture_row(probs[i], hits[i], y) for i in members},
                )
                for y in range(m + 1)
            ]
            for members in member_sets
        ]
        node_rows = (
            # at z = 0 the input rows themselves: nothing to build, and a
            # tree's batch key (row identity) sees them as the input rows
            tuple(mixture_row(row, hit, z) for row, hit in zip(probs, hits)) if z else probs
            for z in range(n - m + 1)
        )
        sums = batched_node_sums(component, dist.space, node_rows, targets)
        return _node_polynomials(keys, sums, z_power)

    return _reduce(model, lambda: _z_factors(probs, hits), member_sets, batches, not z_only)


def interpolate_coefficients(
    model: Model, dist: ProductDistribution, e: Instance, a: int
) -> tuple[Fraction, ...]:
    """Per-size sums of feature a's marginal contributions, exactly.

    Entry k is the sum of m(a;S) over the coalitions of size k avoiding
    a.  Obtained from 2n expected values: at each node z in 0..n-1 the
    difference between pinning feature a to e_a and leaving it free,
    under the z-mixture of the remaining features, scaled by (1+z)^(n-1),
    is the value of the generating polynomial at z; the batch reads it as
    the signed sum of a's two y-variants.  A model with its own walk gives
    that polynomial directly.
    """
    space = check_shared_space(model, dist, e)
    space.check_feature(a)
    return _walked_coefficients(_z_reduction(model, dist, e, [(a,)]), space.n)[0]


def all_coefficients(
    model: Model, dist: ProductDistribution, e: Instance
) -> list[tuple[Fraction, ...]]:
    """``interpolate_coefficients`` of every feature, from one batch per node."""
    n = check_shared_space(model, dist, e).n
    return _walked_coefficients(_z_reduction(model, dist, e, [(a,) for a in range(n)]), n)


def _bernoulli_indices(
    model: Model,
    dist: ProductDistribution,
    e: Instance,
    member_sets: Sequence[Sequence[int]],
    weights: BernoulliWeights,
) -> list[Fraction]:
    # per member tuple (a feature, or an interaction set), its derivative
    # under the theta-mixture; the members' own theta entries go unused
    space = dist.space
    for members in member_sets:
        for i in members:
            space.check_feature(i)
    _check_scheme(weights, BernoulliWeights, space.n)

    def batches(component, keys):
        # the rows are built only here, never on a call the walk answers
        mixed = bernoulli_mixture(dist, e, weights.theta)
        targets = [_derivative(dist, e, members) for members in member_sets]
        sums = batched_node_sums(component, space, [mixed.probs], targets)
        return _node_polynomials(keys, sums, 0)

    by_set, den = _reduce(
        model, lambda: _fixed_factors(weights.theta, dist.probs, e._positions), member_sets, batches
    )
    # fixed rows: the derivative is the polynomial at u = 1
    return [Fraction(sum(g), den) for g in by_set]


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
    _check_scheme(weights, SimpleWeights, space.n)
    if weights.preset == "marginal":
        return [marginal_index(model, dist, e, a) for a in features]
    for a in features:
        space.check_feature(a)
    return _walked_indices(_z_reduction(model, dist, e, [(a,) for a in features]), weights.q)


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
    return _bernoulli_indices(model, dist, e, [(a,)], weights)[0]


def bernoulli_indices(
    model: Model, dist: ProductDistribution, e: Instance, weights: BernoulliWeights
) -> list[Fraction]:
    """``compute_bernoulli_index`` of every feature, from one batch."""
    singles = [(a,) for a in range(check_shared_space(model, dist, e).n)]
    return _bernoulli_indices(model, dist, e, singles, weights)


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
    n = check_shared_space(model, dist, e).n
    singles = [(a,) for a in range(n)]
    sums = None
    _check_scheme(scheme, (SimpleWeights, BernoulliWeights), n)
    direct = _bernoulli_equivalent(scheme) if isinstance(scheme, SimpleWeights) else scheme
    if direct is not None:
        path = PATH_BERNOULLI
        values = _bernoulli_indices(model, dist, e, singles, direct)
    elif scheme.preset == "marginal":
        path = PATH_CLOSED_FORM
        values = [marginal_index(model, dist, e, a) for a in range(n)]
    else:
        path = PATH_INTERPOLATION
        reduced = _z_reduction(model, dist, e, singles)
        values = _walked_indices(reduced, scheme.q)
        if coefficient_sums:
            sums = tuple(_walked_coefficients(reduced, n))
    return AttributionReport(
        values=tuple(values),
        scheme=scheme,
        path=path,
        engine_calls=(_engine_calls(path, n),) * n,
        coefficient_sums=sums,
    )
