"""Benchmark of the mackey package, one workload per process.

    python3 perfbench/run.py --workload socle --seed 1 --seconds 25 --trace 0

The workloads (``socle``, ``product``, ``length``, ``referee``) are described
in ``perfbench/README.md``. A run is a closed loop on one thread: it
repeats whole rounds of the workload's operations for about ``--seconds``,
each round from cold program caches, and checks every output outside the
timed region. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. Wall-clock totals and latencies are printed above
it for reference. Each run also writes its per-operation times, and
a traced run its spans, to ``perfbench/results/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7


class NoProgram(Exception):
    """The checkout holds no mackey package to benchmark."""


def load_program():
    """Import mackey from this checkout's ``src/`` and nowhere else."""
    package = SRC / "mackey"
    if not (package / "__init__.py").is_file():
        raise NoProgram(f"no mackey package at {package}")
    sys.path.insert(0, str(SRC))
    import mackey
    import mackey.brute
    import mackey.linalg
    if Path(mackey.__file__).resolve().parent != package.resolve():
        raise NoProgram(f"mackey was imported from {mackey.__file__}, not {package}")
    return mackey


def set_up(workload: str, seed: int):
    """Import the program and make the workload's inputs; returns the time
    this took, the package and the operations."""
    start = time.perf_counter()
    mackey = load_program()
    ops = workloads.WORKLOADS[workload](mackey, seed)
    return time.perf_counter() - start, mackey, ops


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes, each importing the program
    and making the inputs once."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return median(samples)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    program's (Fraction arithmetic, tuple keys, dict updates) and sharing
    no code with it. The garbage collector is paused so the program's live
    objects do not change its speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int], Fraction] = {}
        for i in range(1, 110):
            x = Fraction(i % 11 + 1, i % 7 + 2)
            key = (i % 13, i % 5)
            table[key] = table.get(key, Fraction(0)) * Fraction(1, 2) + x * x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def program_caches() -> list:
    """The functools caches of the package, cleared before every round so
    that each round starts as cold as a fresh process."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "mackey" or name.startswith("mackey."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def run_round(ops, tracer, first_id: int, references: list[float]):
    """One pass over the operations. Returns per-op seconds and
    reference-normalised times (None where the op raised), the number of
    failed ops, and the labels of ops whose output was wrong. Appends the
    reference kernel's samples to ``references``."""
    state: dict = {}
    seconds: list[float | None] = [None] * len(ops)
    ratios: list[float | None] = [None] * len(ops)
    failed = 0
    wrong = []
    before = reference_kernel()
    for i, op in enumerate(ops):
        try:
            args = op.args(state)
            if tracer is not None:
                tracer.op = first_id + i
            start = time.perf_counter()
            out = op.call(args)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            failed += 1
            print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.op = None
        after = reference_kernel()
        references.append(after)
        seconds[i] = elapsed
        ratios[i] = elapsed / ((before + after) / 2)
        before = after
        try:
            ok = op.check(out, state)
        except Exception as exc:
            ok = False
            print(f"check of {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        del out
        if not ok:
            failed += 1
            wrong.append(op.label)
            print(f"WRONG {op.label}", file=sys.stderr)
    return seconds, ratios, failed, wrong


def per_op_medians(rounds: list[list[float | None]]) -> list[float | None]:
    """Each operation's median over the rounds in which it returned."""
    medians = []
    for column in zip(*rounds):
        values = [v for v in column if v is not None]
        medians.append(median(values) if values else None)
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    args = parser.parse_args(argv)

    try:
        setup_once, _, ops = set_up(args.workload, args.seed)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_once))
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    caches = program_caches()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    times, ratios, references, layer_rounds, wrong = [], [], [], [], []
    attempted = failed = 0
    # Whole rounds only: another round starts while the run would end
    # nearer to --seconds with it than without it.
    begin = time.perf_counter()
    while not times or ((elapsed := time.perf_counter() - begin)
                        + elapsed / len(times) / 2 < args.seconds):
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        mark = tracer.snapshot() if tracer else None
        seconds, normalised, round_failed, round_wrong = run_round(
            ops, tracer, len(times) * len(ops), references)
        times.append(seconds)
        ratios.append(normalised)
        attempted += len(ops)
        failed += round_failed
        wrong += round_wrong
        if tracer:
            layer_rounds.append(tracer.round_metrics(mark))
    if tracer:
        tracer.uninstall()

    op_seconds = per_op_medians(times)
    samples = sorted(t for r in times for t in r if t is not None)
    normalised = sorted(t for r in ratios for t in r if t is not None)
    wall_s = sum(t for t in op_seconds if t is not None)
    wall_ref = sum(r for r in per_op_medians(ratios) if r is not None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times)} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed")
    # Wall-clock figures: printed for reference, not bounded, because the
    # speed of a shared machine moves them between runs (see README.md).
    print(f"wall_s {wall_s:.4f} s per round (sum over operations of the median over rounds)")
    if samples:
        p90 = quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
        print(f"op_p50_ms {median(samples) * 1e3:.3f} ms, op_p90_ms {p90 * 1e3:.3f} ms "
              f"over {len(samples)} samples")
    if references:
        print(f"reference kernel {median(references) * 1e3:.4f} ms "
              f"(median of {len(references)} samples)")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(times), "wall_s": wall_s, "wall_ref": wall_ref,
              "op_p50_ms": median(samples) * 1e3 if samples else None,
              "reference_ms": median(references) * 1e3 if references else None,
              "ops": [{"label": op.label, "median_s": t} for op, t in zip(ops, op_seconds)]}
    if tracer:
        values = tracing.median_metrics(layer_rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in tracing.LAYER_METRICS}
        record.update(layers_per_round=layer_rounds,
                      span_fields=["op", "id", "parent", "name", "start", "end", "self"],
                      spans=tracer.spans)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "op_p50_ref": {"value": median(normalised) if normalised else 0.0, "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(f"per-operation times{' and spans' if tracer else ''} written to "
          f"{out.relative_to(HERE.parent)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
