"""powerdex benchmark runner: one single-threaded, closed-loop client.

    python3 perfbench/run.py --workload interp-ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run sets up its inputs (several times,
reporting the median), then calls ops back to back for ``--seconds``
seconds and reports the end-to-end metrics, scaled to reference machine
speed (see ``speed.py``).  With ``--trace 1`` it runs the fixed traced
prefix of the op pool twice, untraced and then under the span recorder,
and reports the per-layer metrics.  Either way every op result is checked
exactly after the timed phase, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in its own process and prints each
metric by name with its unit.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("interp-ensemble", "direct-paths", "cli-files", "validate")
SETUP_REPEATS = 5
SAME = object()  # marks a repeated op whose outcome equals its first outcome

END_TO_END = [
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import powerdex; print(time.perf_counter() - t)"
)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import powerdex from it."""
    if not (SRC / "powerdex" / "__init__.py").is_file():
        raise SystemExit(f"error: no powerdex sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import powerdex

    if not Path(powerdex.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported powerdex from {powerdex.__file__}, not from {SRC}")


def timed_repeats(probe, action) -> tuple[list[float], list[float]]:
    """Run ``action`` ``SETUP_REPEATS`` times; it returns its own duration.

    Returns the (scaled, raw) durations.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample(3)
        start = time.perf_counter()
        duration = action()
        probe.sample(3)
        raw.append(duration)
        scaled.append(probe.scaled(duration, start))
    return scaled, raw


def import_seconds(probe) -> tuple[list[float], list[float]]:
    """Durations of ``import powerdex`` in fresh interpreters, as timed inside each."""

    def once() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=60
        )
        return float(proc.stdout)

    return timed_repeats(probe, once)


def run_ops(pool, limit_s=None, probe=None):
    """Call ops back to back: the pool once, or cyclically until ``limit_s`` has passed.

    Returns (pool index, outcome) pairs, per-op (start, latency) pairs and
    the wall time.  An outcome is the op's return value or the exception it
    raised; a repeat equal to the first outcome of its op is kept as
    ``SAME``, so memory does not grow with the number of ops run.  With a
    probe, the reference loop runs between ops whenever a sample is due.
    """
    results, timings, first = [], [], {}
    start = time.perf_counter()
    i = 0
    while limit_s is not None or i < len(pool):
        index = i % len(pool)
        if probe is not None:
            probe.sample_if_due(time.perf_counter())
        t = time.perf_counter()
        try:
            outcome = pool[index].call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = exc
        now = time.perf_counter()
        timings.append((t, now - t))
        if index not in first:
            first[index] = outcome
        elif outcome == first[index]:
            outcome = SAME
        results.append((index, outcome))
        i += 1
        if limit_s is not None and now - start >= limit_s:
            break
    wall = time.perf_counter() - start
    if probe is not None:
        probe.sample(3)
    return results, timings, wall


def verify(pool, results):
    """Check each distinct op once and each repeat against its first result.

    Returns (failed result count, failure messages, rendering by pool index).
    """
    failed, messages, rendered, verdict = 0, [], {}, {}
    for index, outcome in results:
        op = pool[index]
        if outcome is SAME:
            error = verdict[index]
        elif isinstance(outcome, Exception):
            error = f"raised {type(outcome).__name__}: {outcome}"
        elif index in rendered:
            error = "a repeat differs from the first result"
        else:
            rendered[index] = op.render(outcome)
            try:
                error = verdict[index] = op.check(outcome)
            except Exception as exc:
                error = verdict[index] = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failed += 1
            messages.append(f"op {index} {op.kind} (n={op.n}): {error}")
    return failed, messages, rendered


def digest(rendered: dict, count: int):
    """sha256 over the outputs of the first ``count`` pool ops, or None if one did not run."""
    if any(i not in rendered for i in range(count)):
        return None
    h = hashlib.sha256()
    for i in range(count):
        h.update(rendered[i].encode("utf-8") + b"\0")
    return h.hexdigest()


def p90_rank(count: int) -> int:
    """1-based rank of ``op_ms.p90``: the nearest-rank 90th percentile, lowered
    when needed so that at least 10 samples lie beyond it."""
    return max(1, min(math.ceil(0.9 * count), count - 10))


def latency_metrics(latencies_s: list[float]) -> dict:
    """p50, p90 and back-to-back throughput of op latencies."""
    ms = sorted(x * 1000.0 for x in latencies_s)
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": ms[p90_rank(len(ms)) - 1],
        "ops_per_s": len(ms) / sum(latencies_s),
    }


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path):
    import ops
    import speed

    build = ops.WORKLOADS[workload]
    probe = speed.SpeedProbe()
    pool = None

    def set_up() -> float:
        nonlocal pool
        pool = None  # every repetition starts from the same heap
        gc.collect()
        start = time.perf_counter()
        pool = build(seed, workdir)
        pool[0].call()  # warm-up
        return time.perf_counter() - start

    setups, setups_raw = timed_repeats(probe, set_up)
    imports, imports_raw = import_seconds(probe)
    results, timings, wall = run_ops(pool, seconds, probe)
    start = time.perf_counter()
    failed, messages, rendered = verify(pool, results)
    verify_s = time.perf_counter() - start

    # Latency metrics use whole cycles of the schedule, so that where the
    # deadline cuts the last cycle does not change the mix of op sizes.
    cycle = ops.cycle_length(workload)
    count = len(timings) // cycle * cycle or len(timings)
    timed = timings[:count]
    scaled = [probe.scaled(latency, at) for at, latency in timed]
    metrics = latency_metrics(scaled)
    metrics["setup_s"] = statistics.median(imports) + statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = latency_metrics([latency for _, latency in timed])
    unscaled["setup_s"] = statistics.median(imports_raw) + statistics.median(setups_raw)

    by_kind = {}
    for (index, _), latency in zip(results, scaled):
        by_kind.setdefault(pool[index].kind, []).append(latency * 1000.0)
    note = "\n".join(
        [
            f"{workload}: "
            + "; ".join(f"{k} x{len(v)} median {statistics.median(v):.1f} ms" for k, v in by_kind.items()),
            f"{workload}: {len(timings)} ops ({len(rendered)} distinct, pool of {len(pool)}) in "
            f"{wall:.2f} s; metrics over the first {count} ({count // cycle} cycles of {cycle}); "
            f"op_ms.p90 is the {100 * p90_rank(count) / count:.1f}th percentile, "
            f"{count - p90_rank(count)} ops beyond it; checks took {verify_s:.2f} s",
            f"{workload}: unscaled "
            + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items())
            + f"; median slowness {statistics.median(probe.durations) / speed.REFERENCE_S:.3f} "
            f"over {len(probe.durations)} reference samples",
        ]
    )
    return results, failed, messages, metrics, note, digest(rendered, ops.prefix_length(workload))


def traced_run(workload: str, seed: int, workdir: Path, trace_path: Path):
    import ops
    import spans

    build = ops.WORKLOADS[workload]
    items = ops.gen.SPEC[workload]["trace_items"]
    pool = build(seed, workdir, items)
    plain, _, untraced_wall = run_ops(pool)

    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.span("setup"):
            pool = build(seed, workdir, items)
        results = []
        start = time.perf_counter()
        for index, op in enumerate(pool):
            with recorder.span(f"op.{op.kind}"):
                try:
                    outcome = op.call()
                except Exception as exc:
                    outcome = exc
            results.append((index, outcome))
        traced_wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    recorder.write(trace_path)

    failed, messages, rendered = verify(pool, results)
    _, plain_messages, plain_rendered = verify(pool, plain)
    messages += [f"untraced {m}" for m in plain_messages]
    if plain_rendered != rendered:
        failed += 1
        messages.append("traced and untraced outputs differ")

    metrics = recorder.layer_values()
    metrics["cli.bytes_in"] = sum(op.bytes_in for op in pool)
    metrics["cli.bytes_out"] = sum(
        len(outcome[1]) for _, outcome in results if ops.is_cli_result(outcome)
    )
    metrics["trace.ops"] = len(pool)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    note = (
        f"{workload}: traced {len(pool)} ops in {traced_wall:.3f} s, untraced in "
        f"{untraced_wall:.3f} s; {len(recorder.spans)} spans in {trace_path}"
    )
    return results, failed, messages, metrics, note, digest(rendered, len(pool))


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name with its unit."""
    status = 0
    print(f"{'workload':<16} {'metric':<46} {'value':>14}  unit")
    for workload in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:<16} failed with exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<16} {name:<46} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{workload:<16} {'attempted / failed':<46} {result['attempted']:>8} / {result['failed']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="powerdex benchmark runner")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: gen.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import ops
    import spans

    if args.seed is None:
        args.seed = ops.gen.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            run = traced_run(args.workload, args.seed, workdir, trace_path)
        else:
            run = untraced_run(args.workload, args.seed, args.seconds, workdir)
        probe_ok, probe_outcome = ops.known_defect_probe(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results, failed, messages, values, note, sha = run

    if args.trace:
        values["known_defects.open"] = 0 if probe_ok else 1
    units = spans.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    print(note, file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed}: {sha or 'traced prefix incomplete'}", file=sys.stderr)
    print(
        f"known defect, chain tree of depth {ops.gen.CHAIN_DEPTH} (documented: exit 2): "
        f"{'fixed' if probe_ok else 'open'}, {probe_outcome}",
        file=sys.stderr,
    )
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
