"""The three benchmark workloads and the checks on their outputs.

A workload is a fixed set of instances run through vsep's public API.
One *pass* solves every instance once with one solve seed; pass ``i`` of
a run started with ``--seed s`` uses solve seed ``1000 * s + i``, so the
same seed always gives the same inputs and outputs.

* ``certify_k4``: ``mmwu_run`` at alpha = 1 on K4 with every weight 64.
  The one desk-scale run that completes its horizon (T = 79 851) and
  reaches the certificate: exact ``eigh`` embedding, exact dual
  bookkeeping and the easy-case oracle dominate; the sketch never runs.
* ``search_mix``: default ``binary_search_solve`` on path 400, grid 20x20
  and two_blobs 100/100/4.  Every run stops at iteration 0 with an
  oracle separator, so the time goes to the sketch at A = 0 and to max
  flow on clique networks; bookkeeping and certify cost nothing.
* ``flow_loop``: ``binary_search_solve`` with ``t_cap = 10`` on path
  1000, grid 30x30 and a weight-8 path 401 with one weight-1 middle
  vertex.  The alpha = 1 runs (and alpha = 2 on the weighted path) take
  flow feedback every step until the cap, so the sketch runs against a
  growing A, the dense n x n accumulators update every step and flow runs
  on long-path networks.  Under the default ``t_cap`` these solves would
  run for hours; the benchmark keeps the instances at full size so the
  per-step cost growth stays visible.

``certify_k4`` is left out of BENCHMARK.json's gated set: a run of it is
a single pass of 30 to 42 s, so its wall time carries the full drift of
a shared machine's speed (about 15 % over minutes), which no median can
average out within one run.  It runs by name like the others.

``cost_ratio`` compares each output with a reference cost at the
workload's balance c: the exact optimum where one is known, and for grids
the k-vertex middle-column separator, an upper bound on the optimum.
``verify_references`` re-derives every reference instead of assuming it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from vsep.graphs import (
    SeparatorSolution,
    WeightedGraph,
    brute_force_opt,
    complete_graph,
    grid_graph,
    path_graph,
    two_blobs_graph,
    validate_separator,
    with_weights,
)
from vsep.oracle import OracleCounters
from vsep.solver import (
    CertificateFound,
    DualCertificate,
    Inconclusive,
    SeparatorFound,
    SolverConfig,
    binary_search_solve,
    mmwu_run,
    report_to_dict,
)

PASS_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Instance:
    """One graph of a workload and the reference its cost is judged by.

    ``witness`` is a separator of cost ``reference`` that must validate at
    the workload's balance, so the reference is at least an upper bound on
    the optimum.  ``family`` lists small members of the same family as
    ``(graph, optimum, separator or None)``; brute force must reproduce each
    optimum, which is what makes an ``exact`` reference more than a claim.
    """

    name: str
    graph: WeightedGraph
    reference: int
    exact: bool
    witness: SeparatorSolution
    family: tuple = ()


@dataclass(frozen=True)
class Workload:
    """Instances, the solver configuration and the call that solves them.

    ``call`` is ``"search"`` for ``binary_search_solve`` or ``"mmwu"`` for a
    single ``mmwu_run`` at alpha = 1.  ``quality_passes`` is the number of
    passes every run makes whatever ``--seconds`` says; ``cost_ratio`` and
    ``certificates`` average over exactly these passes, so they are a
    function of the seed alone.
    """

    name: str
    instances: tuple[Instance, ...]
    config: SolverConfig
    call: str
    quality_passes: int
    expect_certificate: bool = False


def _split(g: WeightedGraph, a, b, sep) -> SeparatorSolution:
    return SeparatorSolution.build(g, a, b, sep, balance_achieved=Fraction(1, 3))


def middle_vertex_separator(g: WeightedGraph) -> SeparatorSolution:
    mid = g.n // 2
    return _split(g, range(mid), range(mid + 1, g.n), [mid])


def column_separator(rows: int, cols: int) -> SeparatorSolution:
    """The middle column of a rows x cols grid, with the halves as sides."""
    g = grid_graph(rows, cols)
    mid = cols // 2
    a = [r * cols + c for r in range(rows) for c in range(mid)]
    b = [r * cols + c for r in range(rows) for c in range(mid + 1, cols)]
    return _split(g, a, b, [r * cols + mid for r in range(rows)])


def cheap_middle_path(n: int, heavy: int = 8) -> WeightedGraph:
    """Path with every weight ``heavy`` except a weight-1 middle vertex."""
    return with_weights(path_graph(n), [1 if i == n // 2 else heavy for i in range(n)])


def path_instance(n: int) -> Instance:
    g = path_graph(n)
    family = tuple((path_graph(k), 1, None) for k in (12, 13, 14))
    return Instance(f"path{n}", g, 1, True, middle_vertex_separator(g), family)


def cheap_middle_path_instance(n: int) -> Instance:
    g = cheap_middle_path(n)
    family = tuple((cheap_middle_path(k), 1, None) for k in (12, 13, 14))
    return Instance(f"cheap_middle_path{n}", g, 1, True, middle_vertex_separator(g), family)


def grid_instance(k: int) -> Instance:
    # the column is an upper bound only: a diagonal corner cut of about
    # 0.82 k vertices also balances at c = 1/3
    family = ((grid_graph(3, 4), 3, column_separator(3, 4)),)
    return Instance(f"grid{k}x{k}", grid_graph(k, k), k, False, column_separator(k, k), family)


def two_blobs_instance(a: int, b: int, bridge: int) -> Instance:
    g = two_blobs_graph(a, b, bridge)
    witness = _split(g, range(a - bridge), range(a, g.n), range(a - bridge, a))
    family = ((two_blobs_graph(7, 7, 2), 2, None),)
    return Instance(f"two_blobs{a}_{b}_{bridge}", g, bridge, True, witness, family)


def certify_k4() -> Workload:
    config = SolverConfig(
        c=Fraction(49, 100),
        c_prime=Fraction(6, 25),
        epsilon=1.0,
        brute_bypass=False,
        t_cap=200_000,
    )
    # K4 minus one vertex is a triangle, so two weight-64 vertices must go
    g = with_weights(complete_graph(4), [64] * 4)
    k4 = Instance("k4x64", g, 128, True, _split(g, [0, 1], [], [2, 3]), ((g, 128, None),))
    return Workload("certify_k4", (k4,), config, "mmwu", 1, expect_certificate=True)


def search_mix() -> Workload:
    instances = (path_instance(400), grid_instance(20), two_blobs_instance(100, 100, 4))
    return Workload("search_mix", instances, SolverConfig(), "search", 8)


def flow_loop() -> Workload:
    instances = (path_instance(1000), grid_instance(30), cheap_middle_path_instance(401))
    return Workload("flow_loop", instances, SolverConfig(t_cap=10), "search", 3)


WORKLOADS = {"certify_k4": certify_k4, "search_mix": search_mix, "flow_loop": flow_loop}


def pass_seed(seed: int, index: int) -> int:
    return PASS_SEED_STRIDE * seed + index


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    """What one solve call returned, or the exception it raised."""

    instance: Instance
    seed: int
    result: object = None
    counters: Optional[dict] = None
    error: Optional[str] = None


def solve_pass(workload: Workload, seed: int, tracer=None) -> list[Solve]:
    """Solve every instance once.  Exceptions are recorded, not raised.

    With a ``tracer``, each solve call is the root span of its tree.
    """
    call = tracer.root if tracer is not None else (lambda fn, *a, **k: fn(*a, **k))
    out = []
    for inst in workload.instances:
        rec = Solve(inst, seed)
        try:
            if workload.call == "search":
                rec.result = call(binary_search_solve, inst.graph, workload.config, seed=seed)
                rec.counters = rec.result.counters
            else:
                counters = OracleCounters()
                rec.result = call(
                    mmwu_run,
                    inst.graph,
                    1,
                    workload.config,
                    seed=seed,
                    counters=counters,
                )
                rec.counters = _mmwu_counters(rec.result, counters)
        except Exception as exc:  # every exception is a failed operation
            rec.error = f"{type(exc).__name__}: {exc}"
        out.append(rec)
    return out


def run_outcome(outcome) -> tuple[str, int]:
    """Kind of an ``mmwu_run`` outcome and the iterations it counts for,
    as ``binary_search_solve`` counts them."""
    if isinstance(outcome, SeparatorFound):
        return "separator", outcome.iteration + 1
    if isinstance(outcome, CertificateFound):
        return "certificate", outcome.diagnostics.iterations_run
    return "inconclusive", outcome.iterations_run


def _mmwu_counters(outcome, counters: OracleCounters) -> dict:
    """The counter dict ``binary_search_solve`` would report for one run."""
    return {
        "mmwu_runs": 1,
        "iterations": run_outcome(outcome)[1],
        "maxflow_calls": counters.maxflow_calls,
        "matching_calls": counters.matching_calls,
        "chain_attempts": counters.chain_attempts,
        "oracle_outcomes": dict(sorted(counters.outcome_tags.items())),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Checked:
    """The verdict on one solve: quality, certificate, digest, failure."""

    instance: str
    seed: int
    ratio: Optional[Fraction]
    certificates: int
    digest: Optional[str]
    failure: Optional[str]
    summary: str


def recheck_certificate(g: WeightedGraph, cert: DualCertificate, tol: float) -> Optional[str]:
    """Re-verify a certificate from its parts; None when it holds."""
    if not cert.nonneg_ok():
        return "certificate has a negative z/f/lambda"
    if not cert.degree_ok(g):
        return "certificate lambda degrees exceed vertex weights"
    if cert.objective() != cert.alpha - cert.delta:
        return f"certificate objective {cert.objective()} != alpha - delta"
    if not cert.lambda_max_estimate <= tol * max(cert.norm_scale, 1e-12):
        return (
            f"certificate lambda_max {cert.lambda_max_estimate:.3e} above "
            f"{tol:g} * {cert.norm_scale:.3e}"
        )
    return None


def _separator_failure(g: WeightedGraph, sol: SeparatorSolution) -> Optional[str]:
    ok, msg = validate_separator(g, sol, sol.balance_achieved)
    return None if ok else f"separator rejected: {msg}"


def _sha(tree) -> str:
    text = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_digest(cert: DualCertificate) -> str:
    """sha256 over the exact y, z, f, lambda and objective."""
    return _sha(
        {
            "y": [str(v) for v in cert.y],
            "z": [[list(s), str(v)] for s, v in cert.z],
            "f": [[list(p), str(v)] for p, v in cert.f],
            "lam": [[list(e), str(v)] for e, v in cert.lam],
            "objective": str(cert.objective()),
        }
    )


def check_solve(workload: Workload, rec: Solve) -> Checked:
    inst = rec.instance
    g = inst.graph
    tol = workload.config.certification_tol
    kind = "exact" if inst.exact else "upper bound"

    def verdict(ratio=None, certs=0, digest=None, failure=None, summary=""):
        summary += f", reference {inst.reference} ({kind})"
        return Checked(inst.name, rec.seed, ratio, certs, digest, failure, summary)

    if rec.error is not None:
        return verdict(failure=rec.error, summary="raised")
    res = rec.result
    if workload.call == "search":
        failure = _separator_failure(g, res.separator)
        certs = 0
        if failure is None and res.certificate is not None:
            failure = recheck_certificate(g, res.certificate, tol)
            certs = int(failure is None)
        ratio = Fraction(res.separator.cost, inst.reference)
        return verdict(
            ratio,
            certs,
            _sha(report_to_dict(res)),
            failure,
            f"cost {res.separator.cost} via {res.separator_via}",
        )
    if isinstance(res, CertificateFound):
        cert = res.certificate
        failure = recheck_certificate(g, cert, tol)
        # the run returns a bound, not a separator: judge how far the
        # certified bound sits below the reference optimum
        return verdict(
            Fraction(inst.reference) / cert.certified_lower_bound,
            int(failure is None),
            certificate_digest(cert),
            failure,
            f"certificate bound {cert.certified_lower_bound}",
        )
    if isinstance(res, SeparatorFound):
        failure = _separator_failure(g, res.separator)
        if failure is None and workload.expect_certificate:
            failure = "expected a certificate, got a separator"
        return verdict(
            Fraction(res.separator.cost, inst.reference),
            digest=None,
            failure=failure,
            summary=f"separator cost {res.separator.cost}",
        )
    assert isinstance(res, Inconclusive)
    failure = f"expected a certificate: {res.reason}" if workload.expect_certificate else None
    return verdict(failure=failure, summary=f"inconclusive: {res.reason}")


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def verify_references(workload: Workload) -> list[str]:
    """Re-derive the reference of every instance; returns the problems.

    Brute force must reproduce the optimum of each small family member
    (paths and cheap-middle paths at n = 12..14: 1, two_blobs 7/7/2: 2,
    grid 3x4: 3, K4x64: 128), every listed separator must validate at the
    workload's balance, and the full-size witness must cost the reference.
    """
    c = workload.config.c
    problems = []
    for inst in workload.instances:
        for g, opt, sep in inst.family:
            got = brute_force_opt(g, c, cap=14)[0]
            if got != opt:
                problems.append(f"{inst.name}: brute optimum {got} on n={g.n}, expected {opt}")
            if sep is not None:
                ok, msg = validate_separator(g, sep, c)
                if not ok or sep.cost != opt:
                    problems.append(f"{inst.name}: small separator cost {sep.cost}: {msg}")
        ok, msg = validate_separator(inst.graph, inst.witness, c)
        if not ok or inst.witness.cost != inst.reference:
            problems.append(
                f"{inst.name}: reference separator cost {inst.witness.cost} "
                f"(reference {inst.reference}): {msg}"
            )
    return problems
