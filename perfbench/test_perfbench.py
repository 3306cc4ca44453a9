"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that BENCHMARK.json names the metrics the code reports, that a
traced round of each workload calls every wrapped function listed for it
(so a rename inside ``src/`` fails here rather than reporting zeros), that
the output checks reject planted wrong answers, and that the command
refuses to run where there is no program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_ref", "op_p50_ref", "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_round_covers_the_layers_listed_for_it(workload):
    _, mackey, ops = run.set_up(workload, SEED)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cache in run.program_caches():
            cache.cache_clear()
        mark = tracer.snapshot()
        _, _, failed, wrong = run.run_round(ops, tracer, 0, [])
        metrics = tracer.round_metrics(mark)
    finally:
        tracer.uninstall()
    assert failed == 0 and not wrong
    assert set(metrics) == {name for name, *_ in tracing.LAYER_METRICS}
    missing = [name for name, _, _, listed in tracing.LAYER_METRICS
               if workload in listed and not metrics[name] > 0]
    assert not missing, f"{workload} never reached {missing}"
    assert mackey.symfunc.lr_coefficient.__name__ == "lr_coefficient"  # unwrapped again


def _first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def _output(op, state=None):
    state = {} if state is None else state
    return op.call(op.args(state)), state


def test_checks_reject_planted_wrong_answers():
    _, mackey, _ = run.set_up("socle", SEED)

    op = _first(workloads.socle_ops(mackey, SEED), "socle_layers")
    report, state = _output(op)
    assert op.check(report, state)
    layers = [list(layer) for layer in report.layers]
    layers[1][0] = dataclasses.replace(layers[1][0],
                                       multiplicity=layers[1][0].multiplicity + 1)
    assert not op.check(dataclasses.replace(report, layers=tuple(map(tuple, layers))), state)
    assert not op.check(dataclasses.replace(report, layers=report.layers[:-1]), state)

    op = _first(workloads.product_ops(mackey, SEED), "schur_product")
    product, state = _output(op)
    assert op.check(product, state)
    lam, c = next(iter(product.terms.items()))
    assert not op.check(type(product)({**product.terms, lam: c + 1}), state)

    ops = workloads.length_ops(mackey, SEED)
    op = _first(ops, "tensor_length")
    value, state = _output(op)
    assert op.check(value, state) and not op.check(value + 1, state)
    op = _first(ops, "decompose_mixed_tensor")
    triples, state = _output(op)
    assert op.check(triples, state)
    assert not op.check(triples[:-1], state)
    assert not op.check(triples + triples[-1:], state)

    ops = workloads.referee_ops(mackey, SEED)
    state = {}
    for op in ops:  # run the ops of the first module with a filtration
        out, state = _output(op, state)
        assert op.check(out, state)
        if op.function == "socle_filtration_parabolic":
            break
    dropped = type(out)(out.steps[:1] + out.steps[2:])
    assert not op.check(dropped, state)


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "socle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
