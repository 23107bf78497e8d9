"""The four workloads: op pools built from the generator, and the exact correctness gate.

An op is one user-level call (an ``attribute_all``, an interaction index,
an oracle comparison, a converse recovery, or one ``powerdex.cli.main``
invocation).  Its ``call`` is what gets timed; its ``check`` runs after the
timed phase and returns ``None`` when the result is exactly right, or a
one-line reason.  Every check is an exact equality against a reference
that does not share the op's computation path: the brute-force oracle
where the case is small, otherwise an identity (Shapley efficiency, the
additive closed form, a binomial mixture recomputed on the direct path, an
index recomputed on the interpolation path, a converse round trip) or,
for the CLI, the byte-exact report rendered from library results on the
generator's in-memory objects.

Timed calls go through module attributes (``indices.attribute_all``), so
the span recorder in ``spans.py`` sees them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import powerdex.cli as cli
import powerdex.converse as converse
import powerdex.indices as indices
import powerdex.interaction as interaction
import powerdex.oracle as oracle
from powerdex import (
    AdditiveModel,
    BernoulliInteractionWeights,
    BernoulliWeights,
    Coalition,
    ConverseSystem,
    InteractionWeights,
    SimpleWeights,
    decimal_string,
    format_rational,
)

import gen

# Cases with at most this many features are also compared with the oracle.
ORACLE_MAX_N = 8


@dataclass
class Op:
    """One user-level call: ``call`` is timed, ``check`` runs after timing."""

    kind: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    render: Callable[[object], str]  # canonical text for repeats and the digest
    bytes_in: int = 0  # input bytes the CLI reads for this op


class Facts:
    """Reference values for one case, computed lazily and only while checking."""

    def __init__(self, case: gen.Case):
        self.case = case

    @property
    def small(self) -> bool:
        return self.case.n <= ORACLE_MAX_N

    @cached_property
    def value_at_e(self) -> Fraction:
        return self.case.model.evaluate(self.case.e)

    @cached_property
    def expectation(self) -> Fraction:
        return self.case.model.expected_value(self.case.dist)

    @cached_property
    def table(self):
        c = self.case
        return oracle.conditional_table(c.model, c.dist, c.e)


def equal(label: str, got, want) -> Optional[str]:
    if got == want:
        return None
    if isinstance(got, (tuple, list)) and isinstance(want, (tuple, list)) and len(got) == len(want):
        at = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return f"{label}: entry {at} is {got[at]}, expected {want[at]}"
    return f"{label}: got {got}, expected {want}"


def first_error(*checks: Callable[[], Optional[str]]) -> Optional[str]:
    for check in checks:
        error = check()
        if error:
            return error
    return None


def render_report(report) -> str:
    values = " ".join(format_rational(v) for v in report.values)
    return f"{report.path} {list(report.engine_calls)} {values}"


def render_values(values) -> str:
    return " ".join(format_rational(v) for v in values)


def check_report(report, path: str, calls: int, n: int) -> Optional[str]:
    if report.path != path:
        return f"path {report.path}, expected {path}"
    return equal("engine calls", report.engine_calls, (calls,) * n)


def combine(mix: Sequence[Fraction], vectors) -> tuple[Fraction, ...]:
    return tuple(sum((w * v for w, v in zip(mix, column)), Fraction(0)) for column in zip(*vectors))


def oracle_indices(facts: Facts, values, weights) -> Optional[str]:
    """Exact comparison with the definitional sums, for small cases only."""
    if not facts.small:
        return None
    c = facts.case
    brute = (
        oracle.brute_simple_index if isinstance(weights, SimpleWeights) else oracle.brute_bernoulli_index
    )
    want = tuple(
        brute(c.model, c.dist, c.e, a, weights, table=facts.table) for a in range(c.n)
    )
    return equal("oracle", tuple(values), want)


def oracle_interaction(facts: Facts, value, a_set, weights) -> Optional[str]:
    if not facts.small:
        return None
    c = facts.case
    want = oracle.brute_interaction_index(c.model, c.dist, c.e, a_set, weights, table=facts.table)
    return equal("oracle", value, want)


def additive_indices(case: gen.Case) -> tuple[Fraction, ...]:
    """For an additive model every normalized index of a is t_a(e_a) - E[t_a]."""
    model, dist, e = case.model, case.dist, case.e
    space = model.space
    return tuple(
        row[space.position(a, e[a])] - sum((t * p for t, p in zip(row, dist.probs[a])), Fraction(0))
        for a, row in enumerate(model.terms)
    )


# ---------------------------------------------------------------------------
# interp-ensemble


def interp_ensemble(seed: int, workdir: Path, items: Optional[int] = None) -> list[Op]:
    spec = gen.SPEC["interp-ensemble"]
    ops = []
    for j in range(spec["pool_models"] if items is None else items):
        rng = gen.rng_for("interp-ensemble", seed, j)
        n = spec["n"][j % len(spec["n"])]
        case = gen.ensemble_case(rng, n, spec["trees"], spec["splits"], spec["depth"])
        ops += _interp_ops(rng, case)
    return ops


def _interp_ops(rng, case: gen.Case) -> list[Op]:
    model, dist, e, n = case.model, case.dist, case.e, case.n
    facts = Facts(case)
    shapley = SimpleWeights.shapley(n)
    q_thetas = (gen.random_theta(rng), gen.random_theta(rng))
    q_mix = gen.random_mix(rng, 2)
    q = SimpleWeights.from_values(gen.mixed_row(n, q_thetas, q_mix))
    pair = Coalition.from_members(rng.sample(range(n), 2))
    p_thetas = (gen.random_theta(rng), gen.random_theta(rng))
    p_mix = gen.random_mix(rng, 2)
    pair_weights = InteractionWeights.single(n, 2, gen.mixed_row(n - 1, p_thetas, p_mix))

    def check_shapley(report):
        return first_error(
            lambda: check_report(report, "interpolation", 2 * n, n),
            lambda: equal(
                "efficiency", sum(report.values, Fraction(0)), facts.value_at_e - facts.expectation
            ),
            lambda: oracle_indices(facts, report.values, shapley),
        )

    def check_q(report):
        direct = [
            indices.attribute_all(model, dist, e, SimpleWeights.binomial(n, t)).values
            for t in q_thetas
        ]
        return first_error(
            lambda: check_report(report, "interpolation", 2 * n, n),
            lambda: equal("binomial mixture on the direct path", report.values, combine(q_mix, direct)),
            lambda: oracle_indices(facts, report.values, q),
        )

    def check_pair(value):
        direct = [
            interaction.compute_interaction_bernoulli(
                model, dist, e, pair, BernoulliInteractionWeights.constant(n, t)
            )
            for t in p_thetas
        ]
        return first_error(
            lambda: equal(
                "binomial mixture on the 2^m path",
                value,
                sum((w * v for w, v in zip(p_mix, direct)), Fraction(0)),
            ),
            lambda: oracle_interaction(facts, value, pair, pair_weights),
        )

    return [
        Op("shapley", n, lambda: indices.attribute_all(model, dist, e, shapley), check_shapley, render_report),
        Op("q-mix", n, lambda: indices.attribute_all(model, dist, e, q), check_q, render_report),
        Op(
            "pair-mix",
            n,
            lambda: interaction.compute_interaction_simple(model, dist, e, pair, pair_weights),
            check_pair,
            format_rational,
        ),
    ]


# ---------------------------------------------------------------------------
# direct-paths


def direct_paths(seed: int, workdir: Path, items: Optional[int] = None) -> list[Op]:
    spec = gen.SPEC["direct-paths"]
    families = spec["families"]
    seen = {family: 0 for family in families}
    ops = []
    for j in range(spec["pool_models"] if items is None else items):
        family = families[j % len(families)]
        schedule = spec[f"{family}_n"]
        n = schedule[seen[family] % len(schedule)]
        seen[family] += 1
        rng = gen.rng_for("direct-paths", seed, j)
        ops += _direct_ops(rng, gen.family_case(rng, family, n, spec))
    return ops


def _direct_ops(rng, case: gen.Case) -> list[Op]:
    model, dist, e, n = case.model, case.dist, case.e, case.n
    facts = Facts(case)
    additive = isinstance(model, AdditiveModel)
    banzhaf = SimpleWeights.banzhaf(n)
    binomial = SimpleWeights.binomial(n, gen.random_theta(rng))
    bernoulli = BernoulliWeights([gen.random_theta(rng) for _ in range(n)])
    marginal = SimpleWeights.marginal(n)
    pair = Coalition.from_members(rng.sample(range(n), 2))
    pair_theta = gen.random_theta(rng)
    pair_weights = BernoulliInteractionWeights.constant(n, pair_theta)
    probe = rng.randrange(n)  # feature recomputed on the interpolation path

    def reference(values, weights, large: Callable[[], Optional[str]]):
        if additive:
            return equal("additive closed form", tuple(values), additive_indices(case))
        if facts.small:
            return oracle_indices(facts, values, weights)
        return large()

    def interaction_path(values, theta) -> Optional[str]:
        """Every feature again as a |A| = 1 Bernoulli interaction."""
        weights = BernoulliInteractionWeights(theta)
        want = tuple(
            interaction.compute_interaction_bernoulli(model, dist, e, Coalition.singleton(a), weights)
            for a in range(n)
        )
        return equal("|A|=1 interaction path", tuple(values), want)

    def check_preset(weights, path, calls, theta):
        """A preset equals the Bernoulli index with constant ``theta`` (marginal: theta = 1)."""

        def check(report):
            untagged = SimpleWeights.from_values(weights.q)  # no preset: interpolation path
            return first_error(
                lambda: check_report(report, path, calls, n),
                lambda: reference(
                    report.values,
                    weights,
                    lambda: interaction_path(report.values, (theta,) * n)
                    or equal(
                        f"feature {probe} on the interpolation path",
                        report.values[probe],
                        indices.compute_simple_index(model, dist, e, probe, untagged),
                    ),
                ),
            )

        return check

    def check_bernoulli(report):
        return first_error(
            lambda: check_report(report, "bernoulli-direct", 2, n),
            lambda: reference(
                report.values, bernoulli, lambda: interaction_path(report.values, bernoulli.theta)
            ),
        )

    def check_pair(value):
        if additive:
            return equal("additive models have no pair interaction", value, Fraction(0))
        if facts.small:
            return oracle_interaction(facts, value, pair, pair_weights)
        grid = InteractionWeights.single(n, 2, gen.binomial_row(n - 1, pair_theta))
        return equal(
            "bivariate interpolation path",
            value,
            interaction.compute_interaction_simple(model, dist, e, pair, grid),
        )

    return [
        Op(
            "banzhaf",
            n,
            lambda: indices.attribute_all(model, dist, e, banzhaf),
            check_preset(banzhaf, "bernoulli-direct", 2, Fraction(1, 2)),
            render_report,
        ),
        Op(
            "binomial",
            n,
            lambda: indices.attribute_all(model, dist, e, binomial),
            check_preset(binomial, "bernoulli-direct", 2, binomial.theta),
            render_report,
        ),
        Op(
            "bernoulli",
            n,
            lambda: indices.attribute_all(model, dist, e, bernoulli),
            check_bernoulli,
            render_report,
        ),
        Op(
            "marginal",
            n,
            lambda: indices.attribute_all(model, dist, e, marginal),
            check_preset(marginal, "closed-form", 0, Fraction(1)),
            render_report,
        ),
        Op(
            "bernoulli-pair",
            n,
            lambda: interaction.compute_interaction_bernoulli(model, dist, e, pair, pair_weights),
            check_pair,
            format_rational,
        ),
    ]


# ---------------------------------------------------------------------------
# validate


def validate(seed: int, workdir: Path, items: Optional[int] = None) -> list[Op]:
    spec = gen.SPEC["validate"]
    ops = []
    for j in range(spec["pool_models"] if items is None else items):
        rng = gen.rng_for("validate", seed, j)
        n = spec["n"][j % len(spec["n"])]
        case = gen.ensemble_case(rng, n, spec["trees"], spec["splits"], spec["depth"])
        ops += _validate_ops(rng, case)
    return ops


def oracle_comparison(case: gen.Case, weights) -> tuple[tuple[Fraction, Fraction], ...]:
    """The library work of ``powerdex oracle-check``: (engine, oracle) pairs."""
    model, dist, e = case.model, case.dist, case.e
    pairs = [(model.expected_value(dist), oracle.brute_expectation(model, dist))]
    table = oracle.conditional_table(model, dist, e)
    for a in range(case.n):
        if isinstance(weights, SimpleWeights):
            fast = indices.compute_simple_index(model, dist, e, a, weights)
            brute = oracle.brute_simple_index(model, dist, e, a, weights, table=table)
        else:
            fast = indices.compute_bernoulli_index(model, dist, e, a, weights)
            brute = oracle.brute_bernoulli_index(model, dist, e, a, weights, table=table)
        pairs.append((fast, brute))
    return tuple(pairs)


def converse_round_trip(case: gen.Case, weights: SimpleWeights):
    """The library work of ``powerdex converse``: recovery, direct value, oracle sums."""
    model, dist, e = case.model, case.dist, case.e
    diagnostics = converse.recover_expectation_detailed(
        ConverseSystem(weights),
        converse.index_engine_oracle(model, e, weights),
        dist,
        e,
        model.evaluate(e),
    )
    direct = model.expected_value(dist)
    sums = oracle.brute_coalition_sums(model, dist, e)
    return diagnostics.expected_value, direct, diagnostics.coefficients, sums


def _validate_ops(rng, case: gen.Case) -> list[Op]:
    n = case.n
    facts = Facts(case)
    shapley = SimpleWeights.shapley(n)
    # quarters keep rational sizes, and so op costs, alike from seed to seed
    bernoulli = BernoulliWeights([Fraction(rng.randint(1, 3), 4) for _ in range(n)])

    def check_pairs(pairs, efficiency: bool):
        engine = tuple(fast for fast, _ in pairs)
        brute = tuple(slow for _, slow in pairs)
        return first_error(
            lambda: equal("engine against oracle", engine, brute),
            lambda: equal("efficiency", sum(engine[1:], Fraction(0)), facts.value_at_e - brute[0])
            if efficiency
            else None,
        )

    def check_round_trip(result):
        recovered, direct, coefficients, sums = result
        return first_error(
            lambda: equal("recovered expectation", recovered, direct),
            lambda: equal("coefficients against oracle sums", tuple(coefficients), tuple(sums)),
        )

    def render_pairs(pairs):
        return render_values(v for pair in pairs for v in pair)

    def render_round_trip(result):
        recovered, direct, coefficients, sums = result
        return render_values((recovered, direct, *coefficients, *sums))

    return [
        Op(
            "oracle-shapley",
            n,
            lambda: oracle_comparison(case, shapley),
            lambda pairs: check_pairs(pairs, True),
            render_pairs,
        ),
        Op(
            "oracle-bernoulli",
            n,
            lambda: oracle_comparison(case, bernoulli),
            lambda pairs: check_pairs(pairs, False),
            render_pairs,
        ),
        Op(
            "converse",
            n,
            lambda: converse_round_trip(case, shapley),
            check_round_trip,
            render_round_trip,
        ),
    ]


# ---------------------------------------------------------------------------
# cli-files


def run_cli(argv: Sequence[str]) -> tuple[int, bytes, str]:
    """``powerdex.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def report_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def check_cli_ok(expected: Callable[[], bytes]):
    def check(result):
        code, stdout, stderr = result
        if code != cli.EXIT_OK:
            return f"exit {code}, expected 0: {stderr.strip()}"
        if stderr:
            return f"unexpected stderr {stderr.strip()!r}"
        want = expected()
        if stdout != want:
            at = next((i for i, (a, b) in enumerate(zip(stdout, want)) if a != b), min(len(stdout), len(want)))
            return f"stdout differs from the reference at byte {at}"
        return None

    return check


def check_cli_error(code_wanted: int):
    def check(result):
        code, stdout, stderr = result
        if code != code_wanted:
            return f"exit {code}, expected {code_wanted}"
        if stdout:
            return "a failing command wrote to stdout"
        if not stderr.startswith("error: ") or stderr.count("\n") != 1:
            return f"stderr is not one error line: {stderr!r}"
        return None

    return check


@dataclass
class ModelFile:
    path: Path
    dist_path: Path
    names: tuple[str, ...]
    case: gen.Case
    size: int


def _write_model(workdir: Path, stem: str, names, case: gen.Case) -> ModelFile:
    path = workdir / f"{stem}.json"
    dist_path = workdir / f"{stem}-dist.json"
    size = gen.write_model_file(path, names, case.model)
    size += gen.write_json(dist_path, gen.dist_doc(names, case.dist))
    return ModelFile(path, dist_path, tuple(names), case, size)


@dataclass
class CliFiles:
    root: Path  # the directory holding every file below
    big: list[ModelFile]  # hundreds of trees, one shared space and distribution
    csvs: list[tuple[Path, int, list[list[int]], int]]  # path, rows, counts, bytes
    space_path: Path  # a one-split model over the big space, for ingest
    space_size: int
    attr: list[ModelFile]
    bad_dist_path: Path
    over_budget: ModelFile

    def render(self, result) -> str:
        """Canonical text of a CLI outcome, with the scratch directory masked
        so that outputs compare across checkouts."""
        code, stdout, stderr = result
        return f"exit {code}\n{stdout.decode('utf-8')}{stderr}".replace(str(self.root), "<work>")


def write_cli_files(seed: int, workdir: Path) -> CliFiles:
    spec = gen.SPEC["cli-files"]
    rng = gen.rng_for("cli-files", seed, "files")
    big_n = spec["big_n"]
    names = gen.feature_names(big_n)
    space = gen.random_space(rng, big_n)
    dist = gen.random_distribution(rng, space)
    big = []
    for k, trees in enumerate(spec["big_trees"]):
        model = gen.random_ensemble(rng, space, trees, spec["big_splits"], spec["depth"])
        case = gen.Case(model, dist, gen.random_instance(rng, space))
        big.append(_write_model(workdir, f"big{k}", names, case))
    csvs = []
    for k, rows in enumerate(spec["csv_rows"]):
        path = workdir / f"rows{k}.csv"
        counts = gen.write_csv(rng, path, names, dist, rows)
        csvs.append((path, rows, counts, path.stat().st_size))
    space_path = workdir / "space.json"
    space_size = gen.write_model_file(space_path, names, gen.random_tree(rng, space, 1, 1))
    attr = []
    for k, n in enumerate(spec["attr_n"]):
        case = gen.ensemble_case(rng, n, spec["attr_trees"], spec["splits"], spec["depth"])
        attr.append(_write_model(workdir, f"attr{k}", gen.feature_names(n), case))
    bad = gen.dist_doc(attr[0].names, attr[0].case.dist)
    bad["marginals"][0]["probs"][0] = format_rational(attr[0].case.dist.probs[0][0] + Fraction(1, 97))
    bad_dist_path = workdir / "bad-dist.json"
    gen.write_json(bad_dist_path, bad)
    n = spec["oracle_n"]
    over = gen.ensemble_case(rng, n, 2, spec["splits"], spec["depth"])
    over_budget = _write_model(workdir, "over-budget", gen.feature_names(n), over)
    return CliFiles(workdir, big, csvs, space_path, space_size, attr, bad_dist_path, over_budget)


def cli_files(seed: int, workdir: Path, items: Optional[int] = None) -> list[Op]:
    spec = gen.SPEC["cli-files"]
    files = write_cli_files(seed, workdir)
    cycle = spec["cycle"]
    count = len(cycle) * spec["pool_cycles"] if items is None else items
    seen: dict[str, int] = {}
    ops = []
    for i in range(count):
        kind = cycle[i % len(cycle)]
        k = seen.get(kind, 0)
        seen[kind] = k + 1
        ops.append(_cli_op(gen.rng_for("cli-files", seed, i), kind, k, files))
    return ops


def _cli_op(rng, kind: str, k: int, files: CliFiles) -> Op:
    if kind == "expected":
        big = files.big[k % len(files.big)]
        case = big.case
        argv = ["expected", "--model", str(big.path), "--dist", str(big.dist_path)]

        def expected():
            value = case.model.expected_value(case.dist)
            return report_bytes(
                {"command": "expected", "value": format_rational(value), "decimal": decimal_string(value)}
            )

        return Op(kind, case.n, lambda: run_cli(argv), check_cli_ok(expected), files.render, big.size)

    if kind == "ingest":
        path, rows, counts, size = files.csvs[k % len(files.csvs)]
        big = files.big[0]
        argv = ["ingest", "--model", str(files.space_path), "--from-csv", str(path)]

        def expected():
            domains = big.case.model.space.domains
            return report_bytes(
                {
                    "marginals": [
                        {
                            "feature": name,
                            "values": list(domains[i]),
                            "probs": [format_rational(Fraction(c, rows)) for c in counts[i]],
                        }
                        for i, name in enumerate(big.names)
                    ]
                }
            )

        return Op(kind, len(big.names), lambda: run_cli(argv), check_cli_ok(expected), files.render,
                  files.space_size + size)

    attr = files.attr[k % len(files.attr)]
    case = attr.case
    n, names = case.n, attr.names
    e = gen.random_instance(rng, case.model.space)
    instance = json.dumps(gen.instance_doc(names, e))
    common = ["--model", str(attr.path), "--dist", str(attr.dist_path), "--instance", instance]
    size = attr.size + len(instance)

    if kind in ("attribute-marginal", "attribute-banzhaf"):
        preset = kind.split("-")[1]
        weights = getattr(SimpleWeights, preset)(n)
        scheme = json.dumps({"preset": preset})
        argv = ["attribute", *common, "--scheme", scheme]

        def expected():
            report = indices.attribute_all(case.model, case.dist, e, weights)
            return report_bytes(
                {
                    "command": "attribute",
                    "features": list(names),
                    "instance": gen.instance_doc(names, e),
                    "scheme": {"preset": preset},
                    "path": report.path,
                    "engine_calls": list(report.engine_calls),
                    "values": [format_rational(v) for v in report.values],
                    "decimals": [decimal_string(v) for v in report.values],
                }
            )

        return Op(kind, n, lambda: run_cli(argv), check_cli_ok(expected), files.render, size + len(scheme))

    if kind == "interact-bernoulli":
        members = rng.sample(range(n), 2)
        a_set = Coalition.from_members(members)
        theta = [format_rational(gen.random_theta(rng)) for _ in range(n)]
        scheme = json.dumps({"bernoulli": {"theta": theta}})
        argv = ["interact", *common, "--set", ",".join(names[i] for i in members), "--scheme", scheme]

        def expected():
            weights = BernoulliInteractionWeights([Fraction(t) for t in theta])
            value = interaction.compute_interaction_bernoulli(case.model, case.dist, e, a_set, weights)
            return report_bytes(
                {
                    "command": "interact",
                    "features": list(names),
                    "instance": gen.instance_doc(names, e),
                    "set": [names[i] for i in a_set],
                    "scheme": {"bernoulli": {"theta": theta}},
                    "path": "bernoulli-direct",
                    "engine_calls": 4,
                    "value": format_rational(value),
                    "decimal": decimal_string(value),
                }
            )

        return Op(kind, n, lambda: run_cli(argv), check_cli_ok(expected), files.render, size + len(scheme))

    if kind == "bad-schema":
        attr = files.attr[0]
        e = gen.random_instance(rng, attr.case.model.space)
        instance = json.dumps(gen.instance_doc(attr.names, e))
        argv = ["attribute", "--model", str(attr.path), "--dist", str(files.bad_dist_path),
                "--instance", instance, "--scheme", '{"preset": "banzhaf"}']
        return Op(kind, attr.case.n, lambda: run_cli(argv), check_cli_error(cli.EXIT_SCHEMA), files.render,
                  attr.size + len(instance))

    if kind == "bad-scheme":
        scheme = json.dumps({"preset": "binomial", "theta": "3/2"})
        argv = ["attribute", *common, "--scheme", scheme]
        return Op(kind, n, lambda: run_cli(argv), check_cli_error(cli.EXIT_SCHEME), files.render,
                  size + len(scheme))

    if kind == "over-budget":
        over = files.over_budget
        e = gen.random_instance(rng, over.case.model.space)
        instance = json.dumps(gen.instance_doc(over.names, e))
        argv = ["oracle-check", "--model", str(over.path), "--dist", str(over.dist_path),
                "--instance", instance, "--scheme", '{"preset": "shapley"}']
        return Op(kind, over.case.n, lambda: run_cli(argv), check_cli_error(cli.EXIT_BUDGET), files.render,
                  over.size + len(instance))

    raise ValueError(f"unknown cli op kind {kind!r}")


def known_defect_probe(workdir: Path) -> tuple[bool, str]:
    """``powerdex expected`` on a legal chain tree of depth 1200.

    The documented outcome is exit 2 with one error line.  Returns whether
    the outcome matches, and what happened.
    """
    chain_path = workdir / "chain.json"
    uniform_path = workdir / "uniform.json"
    gen.write_chain_file(chain_path, gen.CHAIN_DEPTH)
    gen.write_json(uniform_path, {"uniform": True})
    argv = ["expected", "--model", str(chain_path), "--dist", str(uniform_path)]
    try:
        result = run_cli(argv)
    except RecursionError:
        return False, "RecursionError escaped powerdex.cli.main"
    error = check_cli_error(cli.EXIT_SCHEMA)(result)
    return error is None, error or "exit 2 with one error line"


def is_cli_result(outcome) -> bool:
    return isinstance(outcome, tuple) and len(outcome) == 3 and isinstance(outcome[1], bytes)


def cycle_length(workload: str) -> int:
    """Ops in one cycle of the workload's fixed schedule of sizes, families or kinds."""
    spec = gen.SPEC[workload]
    if "cycle" in spec:
        return len(spec["cycle"])
    return len(spec["n"] if "n" in spec else spec["families"]) * len(spec["ops"])


def prefix_length(workload: str) -> int:
    """Ops in the traced prefix: the first ``trace_items`` models (cli-files: ops)."""
    spec = gen.SPEC[workload]
    return spec["trace_items"] * len(spec.get("ops", ("one op per item",)))


WORKLOADS = {
    "interp-ensemble": interp_ensemble,
    "direct-paths": direct_paths,
    "cli-files": cli_files,
    "validate": validate,
}
