"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the generator is deterministic for a seed, that every
count in a traced run repeats exactly, that the correctness gate flags a
deliberately perturbed result, and that ``BENCHMARK.json`` lists exactly
the metrics ``run.py`` reports.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

import powerdex  # noqa: E402

WORKLOADS = list(ops.WORKLOADS)
SMALL = {"interp-ensemble": 1, "direct-paths": 4, "cli-files": 8, "validate": 1}


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, like the one ``run.py`` uses."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def rendered_outputs(workload, seed, workdir, items):
    pool = ops.WORKLOADS[workload](seed, workdir, items)
    return [op.render(op.call()) for op in pool]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    items = SMALL[workload]
    outputs = rendered_outputs(workload, 7, first, items)
    assert outputs == rendered_outputs(workload, 7, second, items)
    assert outputs != rendered_outputs(workload, 8, other, items)
    for path in first.iterdir():  # files written for the CLI are byte-identical
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_pool_prefix_does_not_depend_on_pool_size(tmp_path):
    short = rendered_outputs("interp-ensemble", 3, tmp_path, 1)
    pool = ops.interp_ensemble(3, tmp_path, 2)
    assert [op.render(op.call()) for op in pool[: len(short)]] == short


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    units = dict(spans.PER_LAYER)
    runs = []
    for k in range(2):
        workdir = tmp_path / f"w{k}"
        workdir.mkdir()
        _, failed, messages, metrics, _, sha = run.traced_run(workload, 5, workdir, tmp_path / f"t{k}.jsonl")
        assert failed == 0, messages
        runs.append(({m: v for m, v in metrics.items() if units[m] != "s"}, sha))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["trace.ops"] == ops.prefix_length(workload)
    assert counts["trace.spans"] > counts["trace.ops"]


def test_recorder_wraps_every_import_site_and_restores_them():
    original = powerdex.core.mixture_row
    recorder = spans.Recorder()
    recorder.install()
    try:
        wrapped = powerdex.indices.mixture_row
        assert wrapped is not original
        assert powerdex.interaction.mixture_row is wrapped
        assert powerdex.core.mixture_row is wrapped
        row = (Fraction(1, 3), Fraction(2, 3))
        powerdex.indices.mixture_row(row, 0, Fraction(2))
        powerdex.interaction.mixture_row(row, 0, Fraction(2))
    finally:
        recorder.uninstall()
    assert powerdex.indices.mixture_row is original
    assert powerdex.interaction.mixture_row is original
    assert recorder.calls("core.mixture_row") == 2
    assert recorder.layer_values()["core.mixture_row.distinct_ratio"] == 0.5


def test_scaling_uses_reference_samples_near_the_measurement():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 0.5, 10.0]
    probe.durations = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, speed.REFERENCE_S]
    assert probe.scaled(1.0, 0.2) == pytest.approx(0.5)  # twice as slow near t = 0
    assert probe.scaled(1.0, 9.5) == pytest.approx(1.0)
    probe.sample_if_due(10.05)
    assert len(probe.starts) == 3  # the last sample is younger than the interval
    probe.sample_if_due(10.2)
    assert len(probe.starts) == 4


def perturbed(outcome):
    """The same result with one value or byte changed."""
    nudge = Fraction(1, 10**9)
    if isinstance(outcome, Fraction):
        return outcome + nudge
    if isinstance(outcome, powerdex.AttributionReport):
        return dataclasses.replace(outcome, values=(outcome.values[0] + nudge, *outcome.values[1:]))
    if ops.is_cli_result(outcome):
        code, stdout, stderr = outcome
        if not stdout:
            return code + 1, stdout, stderr
        return code, stdout[:-2] + bytes([stdout[-2] ^ 1]) + stdout[-1:], stderr
    if isinstance(outcome[0], tuple):  # oracle comparison: (engine, oracle) pairs
        (fast, brute), *rest = outcome
        return ((fast + nudge, brute), *rest)
    recovered, *rest = outcome  # converse round trip
    return (recovered + nudge, *rest)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_flags_a_perturbed_result(workload, tmp_path):
    pool = ops.WORKLOADS[workload](2, tmp_path, SMALL[workload])
    kinds = set()
    for op in pool:
        outcome = op.call()
        assert op.check(outcome) is None, op.kind
        assert op.check(perturbed(outcome)), f"{op.kind}: perturbed result passed the gate"
        kinds.add(op.kind)
    assert len(kinds) > 1


def test_verify_counts_exceptions_and_differing_repeats(tmp_path):
    pool = ops.validate(2, tmp_path, 1)[:1]
    good = pool[0].call()
    results = [(0, good), (0, perturbed(good)), (0, RuntimeError("boom"))]
    failed, messages, _ = run.verify(pool, results)
    assert failed == 2 and len(messages) == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert sorted(ops.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
