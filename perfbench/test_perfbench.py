"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench

A run must emit exactly the metrics BENCHMARK.json names, and the traced
counts must equal the solver's own counters: that shows the wrappers sit
on the names vsep actually calls.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vsep.graphs import path_graph  # noqa: E402
from vsep.solver import DualCertificate, SolverConfig  # noqa: E402


def tiny_search() -> workloads.Workload:
    # n = 12 runs the exact embedding and ends in brute force, n = 70 the
    # sketch; without the brute bypass both go through the update loop
    config = SolverConfig(brute_bypass=False, t_cap=3)
    instances = (workloads.path_instance(12), workloads.path_instance(70))
    return workloads.Workload("tiny_search", instances, config, "search", 1)


def tiny_mmwu() -> workloads.Workload:
    # the certify_k4 run cut to 40 steps: easy and flow feedback, no certificate
    full = workloads.certify_k4()
    config = replace(full.config, t_cap=40)
    return workloads.Workload("tiny_mmwu", full.instances, config, "mmwu", 1)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny_search", tiny_search)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny_mmwu", tiny_mmwu)
    monkeypatch.setattr(harness, "setup_seconds", lambda name: 0.5)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def test_metric_tables_match_benchmark_json():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["tiny_search", "tiny_mmwu"])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_named_metric(tiny, capsys, name, trace):
    spec = benchmark_spec()
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("factory", [tiny_search, tiny_mmwu])
def test_traced_counts_equal_solver_counters(factory):
    workload = factory()
    tracer = tracing.Tracer()
    with tracer.install():
        solves = workloads.solve_pass(workload, 5, tracer)
    tracing.annotate_schedules(tracer.spans)
    assert all(rec.error is None for rec in solves)
    m = tracing.layer_metrics(tracer.spans)

    total = {}
    for rec in solves:
        for key, value in rec.counters.items():
            if key != "oracle_outcomes":
                total[key] = total.get(key, 0) + value
        for case, n in rec.counters["oracle_outcomes"].items():
            total[case] = total.get(case, 0) + n
    assert m["flow.max_flow.calls"] == total["maxflow_calls"] > 0
    assert m["solver.iterations"] == total["iterations"] > 0
    assert m["solver.runs"] == total["mmwu_runs"]
    assert m["oracle.matching_calls"] == total["matching_calls"]
    assert m["oracle.chain_attempts"] == total["chain_attempts"]
    for case in tracing.ORACLE_CASES:
        assert m.get(f"oracle.case.{case}", 0) == total.get(case, 0)
    assert harness.cross_check(m, solves) == []

    # the root spans' self times and every layer's self time partition the roots
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.root_s"], rel=1e-9, abs=1e-9)
    assert sum(1 for s in tracer.spans if s.parent is None) == len(workload.instances)


def test_tiny_workloads_reach_every_layer():
    tracer = tracing.Tracer()
    with tracer.install():
        for factory in (tiny_search, tiny_mmwu):
            workloads.solve_pass(factory(), 1, tracer)
    names = {s.name for s in tracer.spans}
    assert names >= {
        "binary_search_solve",
        "mmwu_run",
        "dense_reference",
        "project_embedding",
        "run_oracle",
        "build_split_network",
        "max_flow",
        "decompose",
        "validate_separator",
        "brute_force_opt",
    }


def test_install_restores_the_originals():
    import vsep.solver

    original = vsep.solver.run_oracle
    with tracing.Tracer().install():
        assert vsep.solver.run_oracle is not original
    assert vsep.solver.run_oracle is original


def test_references_verify():
    for factory in workloads.WORKLOADS.values():
        assert workloads.verify_references(factory()) == []


def test_wrong_reference_is_reported():
    good = workloads.path_instance(30)
    bad = workloads.Instance(good.name, good.graph, 2, True, good.witness, good.family)
    workload = workloads.Workload("w", (bad,), SolverConfig(), "search", 1)
    assert workloads.verify_references(workload)


def test_certificate_recheck_catches_each_broken_part():
    g = path_graph(2)
    base = dict(
        n=2,
        alpha=Fraction(1),
        delta=Fraction(1, 2),
        xi=Fraction(1, 4),
        y=(Fraction(1, 4), Fraction(1, 4)),
        z=(),
        f=(),
        lam=(),
        lambda_max_estimate=0.0,
        norm_scale=1.0,
    )
    assert workloads.recheck_certificate(g, DualCertificate(**base), 1e-6) is None
    broken = [
        {"lam": (((0, 1), Fraction(-1)),)},
        {"lam": (((0, 1), Fraction(2)),)},
        {"y": (Fraction(1, 4), Fraction(1, 3))},
        {"lambda_max_estimate": 1e-3},
    ]
    for change in broken:
        assert workloads.recheck_certificate(g, DualCertificate(**{**base, **change}), 1e-6)


def test_setup_probe_times_a_cold_import():
    assert 0 < harness.setup_seconds("search_mix") < 60


def test_exits_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "search_mix", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
