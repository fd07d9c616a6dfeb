"""Spans around vsep's layer boundaries, and the per-layer metrics.

The wrappers are installed as attributes of the module where each name
is looked up at call time: ``solver`` imports its callees by name, so
``vsep.solver.run_oracle`` is patched rather than ``vsep.oracle``'s, and
``max_flow`` calls ``decompose`` through ``vsep.flow``.  Nothing inside
``src/`` is instrumented.  Spans nest strictly (one thread, synchronous
calls), so a span's self time is its duration minus its direct children's
durations, and the self times of one root's tree add up to the root's
duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import vsep.flow
import vsep.oracle
import vsep.solver
from vsep.embedding import DEFAULT_C_D, DEFAULT_C_K, projection_dimension, taylor_terms
from vsep.oracle import FeedbackOutcome, SeparatorOutcome
from vsep.solver import MMWUSchedule, make_oracle_params
from workloads import run_outcome


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    self_s: float
    error: Optional[str]
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`install` patches the call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span id, children's time]
        self._next_id = 0

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as a root span: the workload's own call into vsep."""
        return self._wrap(fn, fn.__name__)(*args, **kwargs)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        """Time ``fn`` as a span named ``name``.  ``HOOKS[name]`` may add a
        ``before(args, kwargs)`` snapshot taken ahead of the clock and an
        ``after(args, kwargs, result, snapshot)`` giving the span's
        attributes; ``after`` also runs on error, with ``result`` None."""
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            snapshot = before(args, kwargs) if before is not None else None
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            result = None
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                attrs = after(args, kwargs, result, snapshot) if after is not None else None
                self.spans.append(
                    Span(
                        sid,
                        None if parent is None else parent[0],
                        name,
                        start,
                        end,
                        duration - frame[1],
                        error,
                        attrs,
                    )
                )

        return traced

    @contextmanager
    def install(self):
        """Patch the layer boundaries for the duration of the block."""
        saved = []
        try:
            for module, names in PATCHES:
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(original, name))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                }
                if s.error:
                    row["error"] = s.error
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# span attributes
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _run_attrs(args, kwargs, result, _snapshot) -> dict:
    """Outcome and iterations of one run.  The arguments are kept so that
    :func:`annotate_schedules` can plan the schedule after the pass,
    outside every timed span."""
    outcome, iterations = ("error", 0) if result is None else run_outcome(result)
    call = tuple(_arg(args, kwargs, i, k) for i, k in enumerate(("g", "alpha", "config")))
    return {"outcome": outcome, "iterations": iterations, "_call": call}


def _sketch_attrs(args, kwargs, _result, _snapshot) -> dict:
    op = _arg(args, kwargs, 0, "op")
    tau = _arg(args, kwargs, 2, "tau")
    lambda_max = _arg(args, kwargs, 3, "lambda_max")
    c_k = _arg(args, kwargs, 6, "c_k", DEFAULT_C_K)
    c_d = _arg(args, kwargs, 5, "c_d", DEFAULT_C_D)
    return {
        "taylor_terms": taylor_terms(op.n, tau, lambda_max, c_k),
        "dim": projection_dimension(op.n, _arg(args, kwargs, 1, "gamma"), c_d),
        "nnz": op.matrix.nnz,
    }


def _oracle_snapshot(args, kwargs):
    counters = _arg(args, kwargs, 4, "counters")
    return counters.matching_calls, counters.chain_attempts


def _oracle_attrs(args, kwargs, result, snapshot) -> dict:
    counters = _arg(args, kwargs, 4, "counters")
    if isinstance(result, SeparatorOutcome):
        case = "separator"
    elif isinstance(result, FeedbackOutcome):
        case = result.feedback.case
    else:
        case = None
    return {
        "case": case,
        "matching_calls": counters.matching_calls - snapshot[0],
        "chain_attempts": counters.chain_attempts - snapshot[1],
    }


def _build_attrs(_args, _kwargs, result, _snapshot) -> dict:
    return {"arcs": result.net.num_arcs if result is not None else 0}


def _decompose_attrs(_args, _kwargs, result, _snapshot) -> dict:
    return {"paths": len(result[0]) if result is not None else 0}


#: the names each layer boundary is looked up under at call time
PATCHES = (
    (
        vsep.solver,
        (
            "mmwu_run",
            "dense_reference",
            "project_embedding",
            "run_oracle",
            "largest_eigenvalue",
            "spectral_norm",
            "validate_separator",
            "brute_force_opt",
        ),
    ),
    (vsep.oracle, ("build_split_network", "max_flow")),
    (vsep.flow, ("decompose",)),
)

HOOKS = {
    "mmwu_run": (None, _run_attrs),
    "project_embedding": (None, _sketch_attrs),
    "run_oracle": (_oracle_snapshot, _oracle_attrs),
    "build_split_network": (None, _build_attrs),
    "decompose": (None, _decompose_attrs),
}


def annotate_schedules(spans: list[Span]) -> None:
    """Replace each run's kept arguments by the schedule it planned:
    alpha, scheduled T, ``t_cap`` and whether the horizon is reachable.
    Runs that bypass the loop for brute force plan no schedule."""
    for s in spans:
        if s.name != "mmwu_run" or "_call" not in s.attrs:
            continue
        g, alpha, config = s.attrs.pop("_call")
        s.attrs["n"] = g.n
        s.attrs["alpha"] = str(alpha)
        s.attrs["t_cap"] = config.t_cap
        if config.brute_bypass and g.n <= config.brute_cap:
            s.attrs["scheduled_T"] = None
            s.attrs["completes"] = None
            continue
        sched = MMWUSchedule.plan(make_oracle_params(g, alpha, config), config)
        s.attrs["scheduled_T"] = sched.iterations
        s.attrs["completes"] = sched.completes


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ORACLE_CASES = ("easy", "flow", "chain", "separator")
RUN_OUTCOMES = ("separator", "certificate", "inconclusive")

#: every span's self time lands in exactly one of these (a root's in
#: ``solver.bookkeeping_s`` or ``solver.search_self_s``), so they add up to
#: the roots' durations, which is the traced wall time
SELF_TIME_METRICS = (
    "embedding.dense.s",
    "embedding.sketch.s",
    "oracle.self_s",
    "flow.build.s",
    "flow.max_flow.self_s",
    "flow.decompose.s",
    "solver.bookkeeping_s",
    "solver.certify.s",
    "solver.search_self_s",
    "graphs.validate.s",
    "graphs.brute.s",
)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and seconds of one traced pass."""
    m: dict = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for s in spans:
        a = s.attrs or {}
        if s.name == "dense_reference":
            add("embedding.dense.calls", 1)
            add("embedding.dense.s", s.duration)
        elif s.name == "project_embedding":
            add("embedding.sketch.calls", 1)
            add("embedding.sketch.s", s.duration)
            add("embedding.sketch.taylor_terms", a["taylor_terms"])
            add("_sketch.dim", a["dim"])
            add("_sketch.nnz", a["nnz"])
        elif s.name == "run_oracle":
            add("oracle.calls", 1)
            add("oracle.s", s.duration)
            add("oracle.self_s", s.self_s)
            add("oracle.failed", int(s.error == "OracleError"))
            if a["case"] is not None:
                add(f"oracle.case.{a['case']}", 1)
            add("oracle.matching_calls", a["matching_calls"])
            add("oracle.chain_attempts", a["chain_attempts"])
        elif s.name == "build_split_network":
            add("flow.build.calls", 1)
            add("flow.build.s", s.duration)
            add("flow.build.arcs", a["arcs"])
        elif s.name == "max_flow":
            add("flow.max_flow.calls", 1)
            add("flow.max_flow.s", s.duration)
            add("flow.max_flow.self_s", s.self_s)
        elif s.name == "decompose":
            add("flow.decompose.s", s.duration)
            add("flow.decompose.paths", a["paths"])
        elif s.name == "mmwu_run":
            add("solver.runs", 1)
            add(f"solver.runs.{a['outcome']}", 1)
            add("solver.iterations", a["iterations"])
            add("solver.run.s", s.duration)
            add("solver.bookkeeping_s", s.self_s)
            add("solver.runs.unreachable", int(a["completes"] is False))
        elif s.name in ("largest_eigenvalue", "spectral_norm"):
            add("solver.certify.s", s.duration)
        elif s.name == "binary_search_solve":
            add("solver.search_self_s", s.self_s)
        elif s.name == "validate_separator":
            add("graphs.validate.s", s.duration)
        elif s.name == "brute_force_opt":
            add("graphs.brute.s", s.duration)
        if s.parent is None:
            add("trace.root_s", s.duration)
        add("trace.spans", 1)

    calls = m.get("embedding.sketch.calls", 0)
    m["embedding.sketch.dim"] = m.pop("_sketch.dim", 0) / calls if calls else 0.0
    m["embedding.sketch.nnz"] = m.pop("_sketch.nnz", 0) / calls if calls else 0.0
    oracle_calls = m.get("oracle.calls", 0)
    outcomes = oracle_calls - m.get("oracle.failed", 0)
    m["oracle.useful_ratio"] = outcomes / oracle_calls if oracle_calls else 0.0
    iterations = m.get("solver.iterations", 0)
    m["solver.iteration_s"] = m.get("solver.run.s", 0.0) / iterations if iterations else 0.0
    m["trace.self_sum_s"] = sum(m.get(k, 0.0) for k in SELF_TIME_METRICS)
    return m


def _units(unit: str, *names: str) -> dict:
    return {name: unit for name in names}


#: the per-layer metrics a traced run reports, with their units
PER_LAYER_UNITS = {
    **_units("count", "embedding.dense.calls", "embedding.sketch.calls"),
    **_units("s", "embedding.dense.s", "embedding.sketch.s"),
    **_units("count", "embedding.sketch.taylor_terms", "embedding.sketch.dim", "embedding.sketch.nnz"),
    **_units("count", "oracle.calls", "oracle.failed"),
    **_units("s", "oracle.s", "oracle.self_s"),
    **_units("count", *(f"oracle.case.{c}" for c in ORACLE_CASES)),
    "oracle.useful_ratio": "ratio",
    **_units("count", "oracle.matching_calls", "oracle.chain_attempts"),
    **_units("count", "flow.build.calls", "flow.build.arcs", "flow.max_flow.calls"),
    **_units("s", "flow.build.s", "flow.max_flow.s", "flow.max_flow.self_s", "flow.decompose.s"),
    "flow.decompose.paths": "count",
    **_units("count", "solver.runs", *(f"solver.runs.{o}" for o in RUN_OUTCOMES)),
    **_units("count", "solver.runs.unreachable", "solver.iterations"),
    **_units("s", "solver.iteration_s", "solver.run.s", "solver.bookkeeping_s"),
    **_units("s", "solver.certify.s", "solver.search_self_s"),
    **_units("s", "graphs.validate.s", "graphs.brute.s"),
    **_units("s", "trace.wall_s", "trace.overhead_s", "trace.unaccounted_s"),
    "trace.spans": "count",
}
