"""Measurement loops of the benchmark: untraced and traced runs.

A run makes passes over a workload until the next one would overrun
``seconds``, but always at least the workload's ``quality_passes``.  Every
solve is checked (``workloads.check_solve``); failures count against the
run and harness problems make it incorrect.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import (
    ORACLE_CASES,
    PER_LAYER_UNITS,
    Tracer,
    annotate_schedules,
    layer_metrics,
)
from workloads import Workload, check_solve, pass_seed, solve_pass

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7

#: the end-to-end metrics an untraced run reports, with their units
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cost_ratio": "ratio"}


def setup_seconds(workload_name: str) -> float:
    """Median cold set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Checked solves of a run: failures, quality, report lines."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.quality: list[tuple[Fraction, int]] = []  # (worst ratio, certificates)
        self.lines: list[str] = []

    def check(self, solves, quality: bool):
        checked = [check_solve(self.workload, rec) for rec in solves]
        self.attempted += len(checked)
        for c in checked:
            if c.failure is not None:
                self.failures.append(f"{c.instance} seed {c.seed}: {c.failure}")
            ratio = "-" if c.ratio is None else f"{float(c.ratio):.6g}"
            self.lines.append(
                f"solve {c.instance} seed={c.seed} {c.summary} ratio={ratio} digest={c.digest}"
            )
        if quality:
            ratios = [c.ratio for c in checked if c.ratio is not None]
            worst = max(ratios) if ratios else Fraction(0)
            self.quality.append((worst, sum(c.certificates for c in checked)))
        return checked


def run_untraced(workload: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metric values of one untraced run."""
    setup = setup_seconds(workload.name)
    times = []
    start = time.perf_counter()
    while True:
        index = len(times)
        t0 = time.perf_counter()
        solves = solve_pass(workload, pass_seed(seed, index))
        times.append(time.perf_counter() - t0)
        tally.check(solves, quality=index < workload.quality_passes)
        elapsed = time.perf_counter() - start
        if len(times) >= workload.quality_passes and elapsed + times[-1] > seconds:
            break
    worst = sum((w for w, _ in tally.quality), Fraction(0)) / len(tally.quality)
    tally.lines.append(f"passes={len(times)} wall_s min={min(times):.4f} max={max(times):.4f}")
    certificates = statistics.fmean(c for _, c in tally.quality)
    tally.lines.append(f"{workload.name} certificates = {certificates:g} count per pass")
    return {
        "wall_s": statistics.median(times),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cost_ratio": float(worst),
    }


def cross_check(metrics: dict, solves) -> list[str]:
    """Traced counts must equal the solver's own counters: proof that the
    wrappers sit on the names that are actually called."""
    if any(rec.counters is None for rec in solves):
        return []
    total: dict = {}
    for rec in solves:
        for key, value in rec.counters.items():
            if key == "oracle_outcomes":
                for case, n in value.items():
                    total[f"oracle.case.{case}"] = total.get(f"oracle.case.{case}", 0) + n
            else:
                total[key] = total.get(key, 0) + value
    pairs = [
        ("flow.max_flow.calls", "maxflow_calls"),
        ("solver.iterations", "iterations"),
        ("solver.runs", "mmwu_runs"),
        ("oracle.matching_calls", "matching_calls"),
        ("oracle.chain_attempts", "chain_attempts"),
    ] + [(f"oracle.case.{c}", f"oracle.case.{c}") for c in ORACLE_CASES]
    return [
        f"trace {mine} = {metrics.get(mine, 0)} but counters {theirs} = {total.get(theirs, 0)}"
        for mine, theirs in pairs
        if metrics.get(mine, 0) != total.get(theirs, 0)
    ]


def run_traced(workload: Workload, seed: int, seconds: float, tally: Tally, out_dir: Path) -> dict:
    """Per-layer metric values, averaged over traced passes.

    Each traced pass follows an untraced pass on the same solve seed: the
    digests of the two must agree, and the difference of their times is
    the tracing overhead.  Spans stay in memory until the run ends, then
    go to ``out_dir``, one file per pass.
    """
    per_pass, tracers = [], []
    start = time.perf_counter()
    while True:
        index = len(per_pass)
        s = pass_seed(seed, index)
        t0 = time.perf_counter()
        plain = solve_pass(workload, s)
        t1 = time.perf_counter()
        tracer = Tracer()
        with tracer.install():
            t2 = time.perf_counter()
            traced = solve_pass(workload, s, tracer)
            t3 = time.perf_counter()
        annotate_schedules(tracer.spans)
        tracers.append(tracer)

        a = tally.check(plain, quality=False)
        b = tally.check(traced, quality=False)
        if [c.digest for c in a] != [c.digest for c in b]:
            tally.problems.append(f"seed {s}: traced and untraced digests differ")
        m = layer_metrics(tracer.spans)
        wall = t3 - t2
        m["trace.wall_s"] = wall
        m["trace.overhead_s"] = wall - (t1 - t0)
        m["trace.unaccounted_s"] = wall - m["trace.self_sum_s"]
        if abs(m["trace.self_sum_s"] - m["trace.root_s"]) > 1e-6 * (1 + m["trace.spans"]):
            tally.problems.append(f"seed {s}: self times do not add up to the root spans")
        if m["trace.unaccounted_s"] > 0.01 * wall + 0.01:
            tally.problems.append(f"seed {s}: {m['trace.unaccounted_s']:.3g} s outside any span")
        tally.problems.extend(f"seed {s}: {p}" for p in cross_check(m, traced))
        per_pass.append(m)
        if time.perf_counter() - start + (t3 - t0) > seconds:
            break
    tally.lines.extend(schedule_lines(tracers[0]))
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, tracer in enumerate(tracers):
        tracer.write(out_dir / f"trace-{workload.name}-seed{seed}-pass{index}.jsonl.gz")
    return {name: statistics.fmean(m.get(name, 0) for m in per_pass) for name in PER_LAYER_UNITS}


def schedule_lines(tracer: Tracer) -> list[str]:
    """One line per distinct planned schedule: scheduled T against t_cap."""
    return list(
        dict.fromkeys(
            f"schedule n={a['n']} alpha={a['alpha']} T={a['scheduled_T']} "
            f"t_cap={a['t_cap']} completes={a['completes']} outcome={a['outcome']}"
            for a in (s.attrs for s in tracer.spans if s.name == "mmwu_run")
        )
    )
