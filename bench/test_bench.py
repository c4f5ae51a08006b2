"""Tests of the benchmark itself: generator, metric names, tiny runs.

Run from the repository root with the package on the path:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netalign.cli  # noqa: F401  (imports the modules whose bindings are traced)
import netalign.cuts
import run
import scenarios
import tracing
from netalign import (
    corpus_names,
    load_corpus,
    oracle_coupling_verdicts,
    oracle_session_polys,
    parse_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def connectivity(sc):
    polys = oracle_session_polys(sc)
    return {pair: not p.is_zero() for pair, p in polys.items()}


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize("shape", [None, (1, 0), (2, 0), (1, 1)])
def test_inflation_keeps_exact_verdicts(name, shape):
    gadget = load_corpus(name)
    big = parse_scenario(scenarios.inflate(gadget, shape, random.Random(7)))
    inner = len(scenarios.interior_edges(gadget)) if shape else 0
    extra = inner * (scenarios.block_edges(*shape) - 1) if shape else 0
    assert len(big.edges) == len(gadget.edges) + extra
    assert connectivity(big) == connectivity(gadget)
    assert oracle_coupling_verdicts(big) == oracle_coupling_verdicts(gadget)


def test_shape_near_reaches_target():
    sc = load_corpus("rich_type3")
    rng = random.Random(1)
    for target in (2000, 5000, 20000):
        shape = scenarios.shape_near(sc, target, range(2, 13), rng)
        edges = len(parse_scenario(scenarios.inflate(sc, shape, rng)).edges)
        assert edges == scenarios.inflated_edges(sc, shape)
        assert abs(edges - target) <= scenarios.SHAPE_TOLERANCE * target


def test_printed_metrics_are_declared():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.E2E_UNITS == declared_e2e
    assert run.LAYER_UNITS == declared_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_has_no_failures(workload):
    result = run.run(workload, seed=3, seconds=0.01, trace=False, scale=0.05)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["classify_large", "simulate_small"])
def test_traced_self_times_add_up(workload):
    result = run.run(workload, seed=4, seconds=0.01, trace=True, scale=0.05)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.LAYER_UNITS)
    layer_s = sum(v for k, v in metrics.items()
                  if run.LAYER_UNITS[k] == "s" and k != "trace.job_s")
    assert layer_s == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    assert metrics["dag.parse_s"] > 0 and metrics["dag.reach_calls"] > 0
    if workload == "simulate_small":
        assert metrics["pbna.propagate_calls"] > 0 and metrics["gf2m.mul_calls"] > 0
        assert 0 < metrics["pbna.draw_accept_ratio"] <= 1


def test_missing_binding_is_reported_absent(monkeypatch):
    monkeypatch.delattr(netalign.cuts, "min_cut")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["netalign.cuts:min_cut"]
        assert hasattr(netalign.cuts.cut_by_pair, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(netalign.cuts.cut_by_pair, "__wrapped__")


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
