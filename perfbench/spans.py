"""Span recorder that measures powerdex's layers from outside.

``Recorder.install`` replaces public functions and methods of the
``powerdex`` package with wrappers that open a span around each call.  A
function imported by name into another module is wrapped at every import
site (``powerdex.indices.mixture_row`` and ``powerdex.interaction.mixture_row``
are the same function and get the same wrapper).  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

Spans are kept in memory and written as JSON lines when the run ends.  A
span's self time is its duration minus the time its child spans cover;
the process is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import powerdex

# span name -> (module, attribute) of each function it covers
FUNCTIONS = {
    "core.parse_rational": [("powerdex.core", "parse_rational")],
    "core.mixture_row": [("powerdex.core", "mixture_row")],
    "core.bernoulli_row": [("powerdex.core", "bernoulli_row")],
    "core.point_mass_row": [("powerdex.core", "point_mass_row")],
    "indices.attribute_all": [("powerdex.indices", "attribute_all")],
    "indices.interpolate_coefficients": [("powerdex.indices", "interpolate_coefficients")],
    "indices.compute_simple_index": [("powerdex.indices", "compute_simple_index")],
    "indices.compute_bernoulli_index": [("powerdex.indices", "compute_bernoulli_index")],
    "indices.marginal_index": [("powerdex.indices", "marginal_index")],
    "interaction.compute_interaction_simple": [("powerdex.interaction", "compute_interaction_simple")],
    "interaction.compute_interaction_bernoulli": [
        ("powerdex.interaction", "compute_interaction_bernoulli")
    ],
    "interpolation.vandermonde_solve": [("powerdex.interpolation", "vandermonde_solve")],
    "interpolation.solve_linear_system": [("powerdex.interpolation", "solve_linear_system")],
    "converse.recover_expectation_detailed": [("powerdex.converse", "recover_expectation_detailed")],
    "converse.eval_P": [("powerdex.converse", "eval_P")],
    "oracle.conditional_table": [("powerdex.oracle", "conditional_table")],
    "oracle.brute_expectation": [("powerdex.oracle", "brute_expectation")],
    "oracle.brute_coalition_sums": [("powerdex.oracle", "brute_coalition_sums")],
    "oracle.brute_index": [
        ("powerdex.oracle", "brute_simple_index"),
        ("powerdex.oracle", "brute_bernoulli_index"),
        ("powerdex.oracle", "brute_interaction_index"),
    ],
    "cli.main": [("powerdex.cli", "main")],
    "cli.load_model_file": [("powerdex.cli", "load_model_file")],
    "cli.parse_model": [("powerdex.cli", "parse_model")],
    "cli.parse_distribution": [("powerdex.cli", "parse_distribution")],
    "cli.parse_instance": [("powerdex.cli", "parse_instance")],
    "cli.parse_scheme": [
        ("powerdex.cli", "parse_scheme"),
        ("powerdex.cli", "parse_interaction_scheme"),
    ],
    "cli.ingest_csv": [("powerdex.cli", "ingest_csv")],
}

MODEL_CLASSES = ("TableModel", "AdditiveModel", "TreeModel", "EnsembleModel")

# span name -> (class, method) pairs it covers
METHODS = {
    "models.table.expected_value": [("TableModel", "expected_value")],
    "models.additive.expected_value": [("AdditiveModel", "expected_value")],
    "models.tree.expected_value": [("TreeModel", "expected_value")],
    "models.ensemble.expected_value": [("EnsembleModel", "expected_value")],
    "models.evaluate": [(cls, "evaluate") for cls in MODEL_CLASSES],
    "models.tree.construct": [("TreeModel", "__init__")],
    "core.ProductDistribution": [("ProductDistribution", "__init__")],
}

# The per-layer metrics of a traced run, in report order, with their units.
PER_LAYER = [
    ("models.tree.expected_value.calls", "count"),
    ("models.tree.expected_value.self_s", "s"),
    ("models.ensemble.expected_value.calls", "count"),
    ("models.ensemble.expected_value.self_s", "s"),
    ("models.table.expected_value.calls", "count"),
    ("models.table.expected_value.self_s", "s"),
    ("models.additive.expected_value.calls", "count"),
    ("models.additive.expected_value.self_s", "s"),
    ("models.evaluate.calls", "count"),
    ("models.evaluate.self_s", "s"),
    ("models.tree.construct.calls", "count"),
    ("models.tree.construct_s", "s"),
    ("models.expected_value.max_bits", "bits"),
    ("core.mixture_row.calls", "count"),
    ("core.mixture_row.self_s", "s"),
    ("core.mixture_row.distinct_ratio", "ratio"),
    ("core.bernoulli_row.calls", "count"),
    ("core.point_mass_row.calls", "count"),
    ("core.parse_rational.calls", "count"),
    ("core.parse_rational.self_s", "s"),
    ("core.ProductDistribution.calls", "count"),
    ("core.ProductDistribution.self_s", "s"),
    ("indices.attribute_all.calls", "count"),
    ("indices.attribute_all.self_s", "s"),
    ("indices.interpolate_coefficients.calls", "count"),
    ("indices.interpolate_coefficients.self_s", "s"),
    ("indices.compute_simple_index.calls", "count"),
    ("indices.compute_bernoulli_index.calls", "count"),
    ("indices.marginal_index.calls", "count"),
    ("interaction.compute_interaction_simple.calls", "count"),
    ("interaction.compute_interaction_simple.self_s", "s"),
    ("interaction.compute_interaction_bernoulli.calls", "count"),
    ("interaction.compute_interaction_bernoulli.self_s", "s"),
    ("interpolation.vandermonde_solve.calls", "count"),
    ("interpolation.vandermonde_solve.self_s", "s"),
    ("interpolation.vandermonde_solve.max_size", "count"),
    ("interpolation.vandermonde_solve.max_bits", "bits"),
    ("interpolation.solve_linear_system.calls", "count"),
    ("interpolation.solve_linear_system.self_s", "s"),
    ("interpolation.solve_linear_system.max_size", "count"),
    ("converse.recover_expectation_detailed.calls", "count"),
    ("converse.recover_expectation_detailed.self_s", "s"),
    ("converse.eval_P.calls", "count"),
    ("oracle.conditional_table.self_s", "s"),
    ("oracle.brute_expectation.self_s", "s"),
    ("oracle.brute_coalition_sums.self_s", "s"),
    ("oracle.brute_index.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.load_model_file.self_s", "s"),
    ("cli.parse_model.self_s", "s"),
    ("cli.parse_distribution.self_s", "s"),
    ("cli.parse_instance.self_s", "s"),
    ("cli.parse_scheme.self_s", "s"),
    ("cli.ingest_csv.self_s", "s"),
    ("cli.bytes_in", "bytes"),
    ("cli.bytes_out", "bytes"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("known_defects.open", "count"),
]


def bits(x) -> int:
    """Largest bit length of a rational's numerator and denominator."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Recorder:
    """In-memory span recorder with per-name totals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.max_bits: dict[str, int] = {}
        self.max_size: dict[str, int] = {}
        self.mixture_keys: set = set()
        self._stack: list[list] = []  # open spans: [id, parent id, name, start, child_s]
        self._next_id = 0
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        self.spans.append((span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _note_bits(self, key: str, value: int) -> None:
        if value > self.max_bits.get(key, 0):
            self.max_bits[key] = value

    def _note_size(self, key: str, value: int) -> None:
        if value > self.max_size.get(key, 0):
            self.max_size[key] = value

    def _hooks(self) -> dict:
        def expectation(args, result):
            self._note_bits("models.expected_value", bits(result))

        def vandermonde(args, result):
            nodes, values = args[0], args[1]
            self._note_size("interpolation.vandermonde_solve", len(nodes))
            self._note_bits(
                "interpolation.vandermonde_solve",
                max(bits(v) for group in (nodes, values, result) for v in group),
            )

        def linear(args, result):
            self._note_size("interpolation.solve_linear_system", len(args[0]))

        def mixture(args, result):
            row, hit, z = args
            self.mixture_keys.add((tuple(row), hit, z))

        hooks = {name: expectation for name in METHODS if name.endswith(".expected_value")}
        hooks["interpolation.vandermonde_solve"] = vandermonde
        hooks["interpolation.solve_linear_system"] = linear
        hooks["core.mixture_row"] = mixture
        return hooks

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("the recorder is already installed")
        hooks = self._hooks()
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "powerdex" or key.startswith("powerdex."))
        ]
        for name, targets in FUNCTIONS.items():
            for module_name, attribute in targets:
                original = getattr(sys.modules[module_name], attribute)
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:  # every import site of the same function
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)
        for name, targets in METHODS.items():
            for class_name, method in targets:
                cls = getattr(powerdex, class_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_values(self) -> dict[str, float]:
        """Every span-derived metric of ``PER_LAYER`` (``run.py`` adds the rest)."""
        values = {}
        for metric, _unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = self.calls(base)
            elif field == "self_s":
                values[metric] = self.self_s(base)
            elif field == "max_bits":
                values[metric] = self.max_bits.get(base, 0)
            elif field == "max_size":
                values[metric] = self.max_size.get(base, 0)
        values["models.tree.construct_s"] = self.total_s("models.tree.construct")
        mixture_calls = self.calls("core.mixture_row")
        values["core.mixture_row.distinct_ratio"] = (
            len(self.mixture_keys) / mixture_calls if mixture_calls else 0.0
        )
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps([span_id, parent, name, start, end]) + "\n")
