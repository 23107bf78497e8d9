import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerdex import (
    Coalition,
    FeatureSpace,
    Instance,
    ProductDistribution,
    SpaceMismatchError,
    all_coalitions,
    bernoulli_mixture,
    condition,
    decimal_string,
    format_rational,
    mixture_distribution,
    parse_rational,
    subsets,
)
from powerdex.core import MAX_LITERAL_DIGITS, _quote

from corpus import and_space, ones_instance


@pytest.fixture
def binary():
    space = and_space(2)
    return space, ProductDistribution.uniform(space), ones_instance(space)


# ---------------------------------------------------------------------------
# rational grammar


def test_parse_fraction_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/3") == Fraction(-2, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


# exponents are outside the grammar; 1e999999999 must fail without
# building 10**999999999
@pytest.mark.parametrize(
    "bad", ["3/0", "3/-4", "1/2/3", "abc", "", "1.5.2", "nan", "1e3", "2.5E-1", "1e999999999"]
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_accepts_digit_runs_up_to_the_bound():
    run = "7" * MAX_LITERAL_DIGITS
    assert parse_rational(run) == int(run)
    assert parse_rational("0." + run) == Fraction(int(run), 10**MAX_LITERAL_DIGITS)
    assert parse_rational(f"-{run}/{run}") == -1


def test_parse_rejects_a_longer_digit_run_in_a_short_message():
    text = "0.5" + "0" * MAX_LITERAL_DIGITS
    with pytest.raises(ValueError, match=f"more than {MAX_LITERAL_DIGITS} digits") as info:
        parse_rational(text)
    assert len(str(info.value)) < 200


def _reference_parse_rational(text):
    # parse_rational without its fast path for plain literals
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    s = text.strip()
    if "e" in s or "E" in s:
        raise ValueError(f"invalid rational literal {_quote(text)}: exponents are not allowed")
    if len(s) > MAX_LITERAL_DIGITS and any(
        len(run) - run.count("_") > MAX_LITERAL_DIGITS for run in re.findall(r"[\d_]+", s)
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


# pieces of literals: ASCII and other decimal digits (Arabic-Indic, Bengali,
# fullwidth), digits that are not decimal, signs, separators and spaces
LITERAL_PIECES = st.sampled_from(
    ("0", "1", "7", "00", "42", "-", "+", "/", ".", "_", " ", "\t", "\n", "\u00a0", "e", "E",
     "\u0663", "\u09ea", "\uff10", "\u00b2", "\u00bd", "nan", "inf", "x")
)
# digit runs around the fast path's length bound and MAX_LITERAL_DIGITS
DIGIT_RUNS = st.sampled_from(("1", "0", "_1", "\u0663")).flatmap(
    lambda digit: st.sampled_from((639, 640, 641, MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1)).map(
        lambda k: digit * k
    )
)
LITERALS = st.lists(LITERAL_PIECES | DIGIT_RUNS | st.text(max_size=3), max_size=6).map("".join)
# near the plain form p/q: signs, spaces, underscores and other digits around it
DIGITS = st.text(alphabet="0123456789_\u0663", max_size=4)
NEAR_PLAIN = st.tuples(
    st.sampled_from(("", "-", "+", " ", "--")), DIGITS, st.sampled_from(("", "/", "//", ".")), DIGITS,
    st.sampled_from(("", " ", "\n")),
).map("".join)


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # noqa: BLE001 - the kind and message are compared
        return type(exc).__name__, str(exc)
    return type(value).__name__, value


@settings(max_examples=500)
@example("1/0")
@example("-3/000")
@example("1_0/2")
@example(" -5 ")
@given(
    NEAR_PLAIN
    | LITERALS
    | st.fractions().map(format_rational)
    | st.integers()
    | st.none()
    | st.lists(st.just("1"))
)
def test_parse_fast_path_answers_as_the_full_grammar(text):
    assert _outcome(parse_rational, text) == _outcome(_reference_parse_rational, text)


@given(st.fractions())
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_decimal_rendering_is_half_even():
    assert decimal_string(Fraction(3, 8)) == "0.375"
    assert decimal_string(Fraction(1, 3)) == "0.333333333333"
    assert decimal_string(Fraction(0)) == "0"
    # 0.0000000000005 at 12 digits: ties round to the even neighbor
    assert decimal_string(Fraction(1250000000005, 10**13)) == "0.125000000000"
    assert decimal_string(Fraction(1250000000015, 10**13)) == "0.125000000002"


# ---------------------------------------------------------------------------
# spaces, instances, coalitions


def test_space_validation():
    with pytest.raises(ValueError):
        FeatureSpace([])
    with pytest.raises(ValueError):
        FeatureSpace([()])
    with pytest.raises(ValueError):
        FeatureSpace([("a", "a")])


def test_instance_membership_checked():
    space = and_space(2)
    with pytest.raises(ValueError):
        Instance(space, ("1", "2"))
    with pytest.raises(ValueError):
        Instance(space, ("1",))


@st.composite
def _spaces(draw):
    # domains of distinct mixed tokens, in no particular order
    token = st.one_of(st.integers(-3, 3), st.text(max_size=2))
    domain = st.lists(token, min_size=1, max_size=4, unique=True)
    return FeatureSpace(draw(st.lists(domain, min_size=1, max_size=4)))


@given(st.data())
def test_an_instance_keeps_the_positions_of_its_values(data):
    space = data.draw(_spaces())
    positions = [data.draw(st.integers(0, len(d) - 1)) for d in space.domains]
    built = Instance(space, [d[k] for d, k in zip(space.domains, positions)])
    at = Instance._at(space, positions)
    a = data.draw(st.integers(0, space.n - 1))
    replaced = built.replaced(a, data.draw(st.sampled_from(space.domains[a])))
    for x in (built, at, replaced):
        assert x._positions == tuple(space.position(i, v) for i, v in enumerate(x.values))
    positions[0] = -1  # the instance holds its own copy
    assert at._positions == built._positions
    # the positions are not a field: equality, hashing and repr see the values
    assert at == built and hash(at) == hash(built) and repr(at) == repr(built)
    assert "_positions" not in repr(built)


def test_coalition_basics():
    c = Coalition.from_members([0, 3])
    assert list(c) == [0, 3]
    assert len(c) == 2
    assert 3 in c and 1 not in c
    assert (c | Coalition.singleton(1)).members() == (0, 1, 3)
    assert c.complement(4).members() == (1, 2)
    assert Coalition.from_members([0]).issubset(c)
    assert len(list(all_coalitions(3))) == 8
    assert sorted(s.mask for s in subsets(c)) == [0, 1, 8, 9]


def test_distribution_rows_must_normalize():
    space = and_space(1)
    with pytest.raises(ValueError):
        ProductDistribution(space, [[Fraction(1, 2), Fraction(1, 3)]])
    with pytest.raises(ValueError):
        ProductDistribution(space, [[Fraction(3, 2), Fraction(-1, 2)]])
    # zero-probability values are fine as long as the row normalizes
    ProductDistribution(space, [[Fraction(0), Fraction(1)]])


# ---------------------------------------------------------------------------
# mixtures


def test_mixture_at_zero_is_identity(binary):
    space, dist, e = binary
    assert mixture_distribution(dist, e, Fraction(0)) == dist


def test_mixture_direct_substitution(binary):
    space, dist, e = binary
    mixed = mixture_distribution(dist, e, Fraction(1))
    assert mixed.prob(0, "1") == Fraction(3, 4)
    assert mixed.prob(0, "0") == Fraction(1, 4)


def test_mixture_three_values():
    space = FeatureSpace([("a", "b", "c")])
    dist = ProductDistribution.uniform(space)
    e = Instance(space, ("a",))
    mixed = mixture_distribution(dist, e, Fraction(2))
    assert mixed.prob(0, "a") == Fraction(7, 9)
    assert mixed.prob(0, "b") == Fraction(1, 9)
    assert mixed.prob(0, "c") == Fraction(1, 9)


def test_mixture_rejects_negative_parameter(binary):
    space, dist, e = binary
    with pytest.raises(ValueError):
        mixture_distribution(dist, e, Fraction(-1, 2))


def test_mixture_rejects_space_mismatch(binary):
    _, dist, _ = binary
    other = ones_instance(and_space(3))
    with pytest.raises(SpaceMismatchError):
        mixture_distribution(dist, other, Fraction(1))


@given(st.fractions(min_value=0, max_value=100))
def test_mixture_rows_stay_normalized(z):
    space = FeatureSpace([("a", "b", "c"), ("x", "y")])
    dist = ProductDistribution(
        space,
        [
            [Fraction(1, 6), Fraction(2, 6), Fraction(3, 6)],
            [Fraction(0), Fraction(1)],
        ],
    )
    e = Instance(space, ("b", "x"))
    mixed = mixture_distribution(dist, e, z)
    for row in mixed.probs:
        assert sum(row) == 1


def test_bernoulli_mixture_extremes(binary):
    space, dist, e = binary
    assert bernoulli_mixture(dist, e, [Fraction(0)] * 2) == dist
    full = bernoulli_mixture(dist, e, [Fraction(1)] * 2)
    assert full == ProductDistribution.point_mass(e)
    assert full == condition(dist, e, Coalition.full(2))


def test_bernoulli_mixture_substitution(binary):
    space, dist, e = binary
    mixed = bernoulli_mixture(dist, e, [Fraction(1, 2), Fraction(0)])
    assert mixed.prob(0, "1") == Fraction(3, 4)
    assert mixed.probs[1] == dist.probs[1]


@pytest.mark.parametrize("theta", [Fraction(-1, 4), Fraction(5, 4)])
def test_bernoulli_mixture_range_checked(binary, theta):
    space, dist, e = binary
    with pytest.raises(ValueError):
        bernoulli_mixture(dist, e, [theta, Fraction(0)])


@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=2, max_size=2))
def test_bernoulli_rows_stay_normalized(theta):
    space = and_space(2)
    dist = ProductDistribution(
        space, [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]]
    )
    e = Instance(space, ("1", "0"))
    mixed = bernoulli_mixture(dist, e, theta)
    for row in mixed.probs:
        assert sum(row) == 1
        assert all(0 <= p <= 1 for p in row)


# ---------------------------------------------------------------------------
# conditioning


def test_condition_cases(binary):
    space, dist, e = binary
    assert condition(dist, e, Coalition()) == dist
    assert condition(dist, e, Coalition.full(2)) == ProductDistribution.point_mass(e)
    partial = condition(dist, e, Coalition.singleton(0))
    assert partial.prob(0, "1") == 1 and partial.prob(0, "0") == 0
    assert partial.probs[1] == dist.probs[1]


def test_condition_well_defined_at_zero_probability():
    space = and_space(1)
    dist = ProductDistribution(space, [[Fraction(1), Fraction(0)]])
    e = Instance(space, ("1",))  # P(e) = 0; product substitution still works
    conditioned = condition(dist, e, Coalition.full(1))
    assert conditioned.prob(0, "1") == 1
