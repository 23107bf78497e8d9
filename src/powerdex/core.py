"""Feature spaces, instances, coalitions, and exact product distributions.

Every probability, weight, and result in this library is a
:class:`fractions.Fraction`.  Nothing is ever rounded; equality checks
between computation paths are therefore meaningful as exact equalities.
"""

from __future__ import annotations

import decimal
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

Rational = Fraction
Value = Hashable


class PowerdexError(Exception):
    """Base class for all domain errors raised by this library."""


class SpaceMismatchError(PowerdexError):
    """Two objects bound to different feature spaces were combined."""


class WeightError(PowerdexError):
    """A weight scheme violates its normalization or range constraints."""


class BudgetExceededError(PowerdexError):
    """A stated size bound would be exceeded; checked before the work it bounds."""


# Most digits one run of a rational literal may hold (an integer part, a
# decimal part, a numerator or a denominator), checked before any
# conversion.  It equals CPython's default ``int_max_str_digits``, so every
# literal the default interpreter converts is accepted, and the bound still
# holds where that limit is raised or switched off.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS  # the least integer with more digits

_DIGIT_RUN = re.compile(r"[\d_]+")

# An integer or p/q in ASCII digits, with no sign but '-', no spaces and no
# underscores: the form ``format_rational`` writes, read without the
# checks below.  Its length bound is the least ``int_max_str_digits`` the
# interpreter accepts, so ``int`` converts it under any setting.
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_PLAIN_LENGTH = 640


def _quote(text: str) -> str:
    # at most 40 characters of a literal go into an error message
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse the rational literal grammar: "p/q" (q > 0), integer, or decimal string.

    Decimal strings convert exactly ("0.25" -> 1/4).  The grammar has no
    exponents: "1e999999999" would otherwise build a billion-digit integer.
    A run of more than ``MAX_LITERAL_DIGITS`` digits is rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    plain = _PLAIN.fullmatch(text) if len(text) <= _PLAIN_LENGTH else None
    if plain is not None:
        num, den = plain.groups()
        if den is None:
            return Fraction(int(num))
        den = int(den)
        if den:  # a zero denominator takes the checks below
            return Fraction(int(num), den)
    s = text.strip()
    if "e" in s or "E" in s:
        raise ValueError(f"invalid rational literal {_quote(text)}: exponents are not allowed")
    if len(s) > MAX_LITERAL_DIGITS and any(
        len(run) - run.count("_") > MAX_LITERAL_DIGITS for run in _DIGIT_RUN.findall(s)
    ):
        raise ValueError(
            f"invalid rational literal {_quote(text)}: "
            f"more than {MAX_LITERAL_DIGITS} digits in a row"
        )
    if "/" in s:
        num_s, _, den_s = s.partition("/")
        try:
            num = int(num_s)
            den = int(den_s)
        except ValueError:
            raise ValueError(f"invalid rational literal {_quote(text)}") from None
        if den <= 0:
            raise ValueError(
                f"invalid rational literal {_quote(text)}: denominator must be positive"
            )
        return Fraction(num, den)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational literal {_quote(text)}") from None


def format_rational(x: Fraction) -> str:
    """Format a rational as "p" or "p/q"; parse_rational(format_rational(x)) == x.

    p or q of more than ``MAX_LITERAL_DIGITS`` digits is a BudgetExceededError.
    """
    if not -_LITERAL_BOUND < x.numerator < _LITERAL_BOUND or x.denominator >= _LITERAL_BOUND:
        raise BudgetExceededError(
            f"a result has more than {MAX_LITERAL_DIGITS} digits in its numerator or denominator"
        )
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def decimal_string(x: Fraction, significant_digits: int = 12) -> str:
    """Advisory decimal rendering, round-half-even to the given significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = significant_digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    return str(d)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, or literal strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class FeatureSpace:
    """The feature index set and one finite value domain per feature.

    Domain values are opaque tokens; their position in the declared
    sequence is the stable ordering used everywhere (serialization,
    probability rows, table layouts).
    """

    domains: tuple[tuple[Value, ...], ...]

    def __init__(self, domains: Sequence[Sequence[Value]]):
        object.__setattr__(self, "domains", tuple(tuple(d) for d in domains))
        if self.n < 1:
            raise ValueError("a feature space needs at least one feature")
        positions = []
        for i, domain in enumerate(self.domains):
            if not domain:
                raise ValueError(f"feature {i} has an empty domain")
            index = {v: pos for pos, v in enumerate(domain)}
            if len(index) != len(domain):
                raise ValueError(f"feature {i} has duplicate domain values")
            positions.append(index)
        object.__setattr__(self, "_positions", tuple(positions))

    @property
    def n(self) -> int:
        return len(self.domains)

    def position(self, feature: int, value: Value) -> int:
        """Index of a value within its feature's domain ordering."""
        try:
            return self._positions[feature][value]
        except KeyError:
            raise ValueError(f"value {value!r} is not in the domain of feature {feature}") from None

    def outcome_count(self) -> int:
        total = 1
        for domain in self.domains:
            total *= len(domain)
        return total

    def outcomes(self) -> Iterator[tuple[Value, ...]]:
        """All full assignments, last feature varying fastest."""
        return itertools.product(*self.domains)

    def check_feature(self, feature: int) -> None:
        if not 0 <= feature < self.n:
            raise ValueError(f"feature index {feature} out of range for n={self.n}")


@dataclass(frozen=True)
class Instance:
    """A fixed full assignment, the reference point being explained."""

    space: FeatureSpace
    values: tuple[Value, ...]

    # ``_positions``, each value's position in its feature's domain, is kept
    # beside the fields (not one of them, so equality, hashing and repr see
    # only the values): the form models and distributions read e in.

    def __init__(self, space: FeatureSpace, values: Sequence[Value]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", tuple(values))
        if len(self.values) != space.n:
            raise ValueError(f"instance has {len(self.values)} values for {space.n} features")
        # raises on an unknown value
        positions = tuple([space.position(i, v) for i, v in enumerate(self.values)])
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def _at(cls, space: FeatureSpace, positions: Sequence[int]) -> "Instance":
        # the instance at one domain position per feature; skips validation,
        # so callers must supply a position within each feature's domain
        positions = tuple(positions)
        instance = object.__new__(cls)
        object.__setattr__(instance, "space", space)
        object.__setattr__(
            instance, "values", tuple([d[k] for d, k in zip(space.domains, positions)])
        )
        object.__setattr__(instance, "_positions", positions)
        return instance

    def __getitem__(self, feature: int) -> Value:
        return self.values[feature]

    def replaced(self, feature: int, value: Value) -> "Instance":
        vals = list(self.values)
        vals[feature] = value
        return Instance(self.space, vals)


@dataclass(frozen=True, order=True)
class Coalition:
    """A subset of feature indices with bitset semantics."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("coalition mask must be nonnegative")

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "Coalition":
        mask = 0
        for i in members:
            if i < 0:
                raise ValueError(f"feature index {i} is negative")
            mask |= 1 << i
        return cls(mask)

    @classmethod
    def singleton(cls, feature: int) -> "Coalition":
        return cls.from_members([feature])

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1)

    def __contains__(self, feature: int) -> bool:
        return bool(self.mask >> feature & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        i = 0
        while mask:
            if mask & 1:
                yield i
            mask >>= 1
            i += 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask)

    def __and__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask)

    def __sub__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & ~other.mask)

    def with_member(self, feature: int) -> "Coalition":
        return Coalition(self.mask | 1 << feature)

    def complement(self, n: int) -> "Coalition":
        return Coalition(((1 << n) - 1) & ~self.mask)

    def issubset(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def check_within(self, space: FeatureSpace) -> None:
        if self.mask >> space.n:
            raise ValueError(f"coalition {sorted(self)} exceeds the space's {space.n} features")


def all_coalitions(n: int) -> Iterator[Coalition]:
    """All 2^n coalitions over n features, in ascending mask order."""
    for mask in range(1 << n):
        yield Coalition(mask)


def subsets(coalition: Coalition) -> Iterator[Coalition]:
    """All subsets of a coalition (submask enumeration, ascending)."""
    mask = coalition.mask
    sub = 0
    while True:
        yield Coalition(sub)
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-feature marginals, stored as exact probability rows.

    Row i is aligned with ``space.domains[i]``.  Zero probabilities are
    permitted; conditioning is product substitution, never Bayes, so no
    division by a marginal probability ever occurs.
    """

    space: FeatureSpace
    probs: tuple[tuple[Fraction, ...], ...]

    def __init__(self, space: FeatureSpace, probs: Sequence[Sequence[Fraction]]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "probs", tuple(tuple(row) for row in probs))
        if len(self.probs) != space.n:
            raise ValueError(f"{len(self.probs)} probability rows for {space.n} features")
        for i, (row, domain) in enumerate(zip(self.probs, space.domains)):
            if len(row) != len(domain):
                raise ValueError(f"feature {i}: {len(row)} probabilities for {len(domain)} values")
            total = Fraction(0)
            for p in row:
                if not isinstance(p, Fraction):
                    raise ValueError(f"feature {i}: probabilities must be Fractions")
                if p < 0 or p > 1:
                    raise ValueError(f"feature {i}: probability {p} outside [0, 1]")
                total += p
            if total != 1:
                raise ValueError(f"feature {i}: probabilities sum to {total}, not 1")

    @classmethod
    def _from_trusted_rows(
        cls, space: FeatureSpace, probs: tuple[tuple[Fraction, ...], ...]
    ) -> "ProductDistribution":
        # skips validation; callers must supply exact probability rows
        # (internally constructed mixtures and point masses qualify)
        dist = object.__new__(cls)
        object.__setattr__(dist, "space", space)
        object.__setattr__(dist, "probs", probs)
        return dist

    @classmethod
    def uniform(cls, space: FeatureSpace) -> "ProductDistribution":
        return cls(space, [[Fraction(1, len(d))] * len(d) for d in space.domains])

    @classmethod
    def point_mass(cls, e: Instance) -> "ProductDistribution":
        rows = [point_mass_row(len(d), hit) for d, hit in zip(e.space.domains, e._positions)]
        return cls(e.space, rows)

    def prob(self, feature: int, value: Value) -> Fraction:
        return self.probs[feature][self.space.position(feature, value)]

    def with_rows(self, replacements: Mapping[int, Sequence[Fraction]]) -> "ProductDistribution":
        rows = list(self.probs)
        for i, row in replacements.items():
            rows[i] = tuple(row)
        return ProductDistribution(self.space, rows)


def check_shared_space(*objects) -> FeatureSpace:
    first = objects[0].space
    for obj in objects[1:]:
        other = obj.space
        if other is not first and other != first:
            raise SpaceMismatchError("objects are bound to different feature spaces")
    return first


def point_mass_row(size: int, hit: int) -> tuple[Fraction, ...]:
    # the point mass at position hit of a domain of this size
    return tuple(Fraction(1) if k == hit else Fraction(0) for k in range(size))


def mixture_row(
    row: Sequence[Fraction], hit: int, z: Fraction
) -> tuple[Fraction, ...]:
    # blend (z*delta + p) / (1+z); hit is the position of e_i in the domain.
    # In integers: with z = a/b and the row nums/den over its lcm, entry k
    # is (b*nums[k] + a*den*[k == hit]) / ((a+b)*den), one Fraction each.
    a, b = z.numerator, z.denominator
    den = lcm(*[p.denominator for p in row])
    out = (a + b) * den
    nums = [b * p.numerator * (den // p.denominator) for p in row]
    if 0 <= hit < len(nums):
        nums[hit] += a * den
    return tuple([Fraction(v, out) for v in nums])


def bernoulli_row(
    row: Sequence[Fraction], hit: int, theta: Fraction
) -> tuple[Fraction, ...]:
    # blend theta*delta + (1-theta)*p
    rest = 1 - theta
    return tuple(theta + rest * p if k == hit else rest * p for k, p in enumerate(row))


def mixture_distribution(
    dist: ProductDistribution, e: Instance, z: Fraction
) -> ProductDistribution:
    """Blend every marginal toward the point mass at e with weight z/(1+z).

    The new marginal of feature i is (z*delta_i + P(Y_i = .)) / (1+z),
    where delta_i is the indicator of e_i.  z = 0 returns the input
    distribution unchanged.
    """
    z = as_rational(z)
    if z < 0:
        raise ValueError(f"mixture parameter must be >= 0, got {z}")
    space = check_shared_space(dist, e)
    rows = tuple(mixture_row(row, hit, z) for row, hit in zip(dist.probs, e._positions))
    return ProductDistribution._from_trusted_rows(space, rows)


def bernoulli_mixture(
    dist: ProductDistribution, e: Instance, theta: Sequence[Fraction]
) -> ProductDistribution:
    """Per-feature blends theta_i*delta_i + (1-theta_i)*P(Y_i = .).

    theta_i = 1 degenerates feature i at e_i; theta_i = 0 leaves it
    unchanged.
    """
    space = check_shared_space(dist, e)
    thetas = [as_rational(t) for t in theta]
    if len(thetas) != space.n:
        raise ValueError(f"{len(thetas)} mixing weights for {space.n} features")
    for i, t in enumerate(thetas):
        if t < 0 or t > 1:
            raise ValueError(f"mixing weight for feature {i} is {t}, outside [0, 1]")
    rows = tuple(
        bernoulli_row(row, hit, t) for row, hit, t in zip(dist.probs, e._positions, thetas)
    )
    return ProductDistribution._from_trusted_rows(space, rows)


def condition(
    dist: ProductDistribution, e: Instance, coalition: Coalition
) -> ProductDistribution:
    """Replace the marginals of coalition members by point masses at e."""
    space = check_shared_space(dist, e)
    coalition.check_within(space)
    rows = list(dist.probs)
    for i in coalition:
        rows[i] = point_mass_row(len(rows[i]), e._positions[i])
    return ProductDistribution._from_trusted_rows(space, tuple(rows))
