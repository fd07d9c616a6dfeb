"""Whole-system acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with its measured quantities
and then asserts the same gate, so the verdict is visible both in the
captured output and in the pytest report.  Everything is seeded; reruns
measure identical numbers.
"""

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction as F
from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sp

import conftest
from test_embedding import floats_are_exact, hop_loads, reference_dense
from test_maxflow import (
    brute_min_cut,
    check_structural,
    check_t_cut_minimal,
    random_network,
)
from vsep.cli import main as cli_main
from vsep.embedding import (
    DEFAULT_GAMMA,
    AccumulatedOperator,
    Embedding,
    FeedbackMatrix,
    approximation_violations,
    dense_reference,
    project_embedding,
    spectral_norm,
    symmetric_dense,
)
from vsep.flow import max_flow
from vsep.graphs import (
    brute_force_opt,
    complete_graph,
    connected_components,
    gnp_graph,
    grid_graph,
    path_graph,
    render_graph,
    star_graph,
    two_blobs_graph,
    validate_separator,
    with_weights,
)
from vsep.oracle import (
    OracleCounters,
    OracleError,
    OracleParams,
    SeparatorOutcome,
    run_oracle,
    slices_fit,
)
from vsep.solver import (
    SIGMA_FLOOR,
    CertificateFound,
    MMWUSchedule,
    SolverConfig,
    binary_search_solve,
    make_oracle_params,
    mmwu_run,
    primal_witness,
    report_to_dict,
)


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.record_criterion_line(line)


def _heavy(g, w):
    return with_weights(g, [w] * g.n)


def _cheap_path(n, cheap_at, w=9):
    ws = [w] * n
    ws[cheap_at] = 1
    return with_weights(path_graph(n), ws)


# ---------------------------------------------------------------------------
# 1: exact flow subsystem
# ---------------------------------------------------------------------------

def test_criterion_1_maxflow_matches_brute_min_cut():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    for _ in range(500):
        net, arcs = random_network(rng)  # <= 12 internal nodes
        result = max_flow(net)
        assert result.value == brute_min_cut(
            net.num_nodes, net.source, net.sink, arcs
        )
        check_structural(net, result)  # includes arc-exact path re-add
        check_t_cut_minimal(net, result)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(1, ok, f"500 networks exact, decomposition arc-exact, {elapsed:.1f}s < 10s")
    assert ok


# ---------------------------------------------------------------------------
# 2: sketch fidelity against the dense reference
# ---------------------------------------------------------------------------

def test_criterion_2_embedding_fidelity():
    rng = np.random.default_rng(2026)
    bad = total = 0
    t0 = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(32, 65))
        gmat = rng.standard_normal((n, n))
        a = (gmat + gmat.T) / (2.0 * math.sqrt(n))
        lam = spectral_norm(a)
        op = AccumulatedOperator(n, sp.csr_matrix(a))
        emb = project_embedding(op, DEFAULT_GAMMA, 0.125, lam, seed=trial)
        b, t = approximation_violations(emb, dense_reference(a), DEFAULT_GAMMA, 0.125)
        bad += b
        total += t
    elapsed = time.perf_counter() - t0
    rate = bad / total
    ok = rate <= 0.01 and elapsed < 60.0
    _report(2, ok, f"norm/distance violations {bad}/{total} = {rate:.4%} <= 1%, {elapsed:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# 3 and 4 share one batch of recorded oracle invocations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleTrial:
    kind: str  # feedback case, or "separator"
    instance: str
    nonneg_ok: bool
    budget_ok: bool
    degree_ok: bool
    inner_surrogate: float
    inner_exact: float
    norm: float  # exact ||N||
    width: float  # the matrix's own certified width_bound
    bound: float  # the schedule's per-case width bound
    separator_ok: bool
    floats_exact: bool = True  # N's floats are its exact entries, each rounded once


def _case_bound(fm: FeedbackMatrix, params: OracleParams) -> float:
    return params.feedback_cases[fm.case].bound


def _budget(fm: FeedbackMatrix, params: OracleParams) -> F:
    """sum(y) + xi n^2 z of one step, formed exactly from its parts."""
    r = fm.record
    m_s = 0 if fm.easy_set is None else fm.easy_set[1]
    return r.n * r.y + params.xi * r.n * r.n * r.unit * m_s


def _degree_ok(loads, unit, weights) -> bool:
    """Each vertex's edge coefficients, unit * sum of its edges' loads,
    sum to at most its weight, exactly."""
    deg = [0] * len(weights)
    for (i, j), m in loads.items():
        deg[i] += m
        deg[j] += m
    return all(unit * d <= w for d, w in zip(deg, weights))


def _record_feedback(fm, params, g, surrogate_gram, exact_gram, name):
    dense = reference_dense(fm)
    # a routed step's edge terms are the loads its paths imply
    loads = hop_loads(fm.path_terms) if fm.record.routed else {}
    return OracleTrial(
        kind=fm.case,
        instance=name,
        nonneg_ok=(
            fm.record.unit > 0
            and (fm.easy_set is None or fm.easy_set[1] >= 0)
            and all(m >= 0 for _, m in fm.path_terms)
            and all(m >= 0 for m in loads.values())
        ),
        budget_ok=_budget(fm, params) >= params.alpha,
        degree_ok=_degree_ok(loads, fm.record.unit, g.weights),
        inner_surrogate=float(np.sum(dense * surrogate_gram)),
        inner_exact=float(np.sum(dense * exact_gram)),
        norm=spectral_norm(dense),
        width=fm.width_bound,
        bound=_case_bound(fm, params),
        separator_ok=True,
        floats_exact=floats_are_exact(fm),
    )


def _drift_instance(name, g, cfg, alpha, iters, slow, idx, trials):
    """Feed the oracle a drifting trace-n iterate, recording every outcome.

    The iterate follows the exponential-update trajectory at a fixed
    drift rate; the oracle always sees the randomized sketch while the
    exact Gram matrix is kept alongside for the inner-product audit.
    """
    n = g.n
    params = make_oracle_params(g, alpha, cfg)
    eta = 0.5 / (n * slow)
    tau_val = cfg.resolved_tau()
    a_eta = np.zeros((n, n))
    width_sum = 0.0
    sigma_now = params.sigma
    counters = OracleCounters()
    for t in range(iters):
        op = AccumulatedOperator(n, sp.csr_matrix(a_eta))
        emb = project_embedding(
            op, DEFAULT_GAMMA, tau_val, width_sum, seed=np.random.default_rng((idx, 7, t))
        )
        exact_cols = dense_reference(a_eta)
        exact_gram = exact_cols.T @ exact_cols
        outcome = None
        for r in range(4):
            try:
                outcome = run_oracle(
                    g,
                    emb,
                    replace(params, sigma=sigma_now),
                    np.random.default_rng((idx, 11, t, r)),
                    counters,
                )
                break
            except OracleError as exc:
                # mmwu_run's replica rule: only a chain shortfall retries
                if exc.harvested is None:
                    return
                if exc.harvested == 0:
                    sigma_now = max(sigma_now / 2.0, SIGMA_FLOOR)
        if outcome is None:
            return  # every replica failed: mmwu_run ends the run here
        if isinstance(outcome, SeparatorOutcome):
            sol = outcome.separator
            valid, _ = validate_separator(g, sol, sol.balance_achieved)
            cost_ok = F(sol.cost) <= 2 * params.c_prime * n * params.beta
            trials.append(
                OracleTrial(
                    kind="separator",
                    instance=name,
                    nonneg_ok=True,
                    budget_ok=True,
                    degree_ok=True,
                    inner_surrogate=0.0,
                    inner_exact=0.0,
                    norm=0.0,
                    width=0.0,
                    bound=1.0,
                    separator_ok=valid and cost_ok,
                )
            )
            break  # a separator ends the run
        fm = outcome.feedback
        trials.append(
            _record_feedback(fm, params, g, emb.gram(), exact_gram, name)
        )
        a_eta = a_eta + eta * reference_dense(fm)
        width_sum += eta * fm.width_bound


def _line_separator_fixture(n, idx, trials):
    """Weighted path with a cheap middle vertex on a line embedding; the
    routing step always prefers the cheap cut here."""
    g = _cheap_path(n, n // 2)
    params = OracleParams(
        n=n, alpha=F(2), c=F(1, 3), c_prime=F(1, n), sigma=0.05,
        epsilon=0.5, delta_spread=2.0, beta_p=10, beta_q=1,
        k_rounds=2, path_min=2, attempt_budget=20,
    )
    emb = Embedding(vectors=np.array([[0.5 * i for i in range(n)]]))
    out = run_oracle(g, emb, params, np.random.default_rng((idx, n)), OracleCounters())
    assert isinstance(out, SeparatorOutcome)
    sol = out.separator
    valid, _ = validate_separator(g, sol, sol.balance_achieved)
    cost_ok = F(sol.cost) <= 2 * params.c_prime * n * params.beta
    trials.append(
        OracleTrial(
            kind="separator", instance=f"line{n}", nonneg_ok=True,
            budget_ok=True, degree_ok=True, inner_surrogate=0.0,
            inner_exact=0.0, norm=0.0, width=0.0, bound=1.0,
            separator_ok=valid and cost_ok,
        )
    )


@pytest.fixture(scope="module")
def oracle_trials():
    specs = [
        ("heavy-k4", _heavy(complete_graph(4), 64),
         SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0,
                      brute_bypass=False), 1, 60, 4.0),
        ("gnp16w", _heavy(gnp_graph(16, 0.35, seed=1), 30),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 2, 45, 1.0),
        ("gnp24w", _heavy(gnp_graph(24, 0.25, seed=2), 30),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 2, 45, 1.0),
        ("grid5x5w", _heavy(grid_graph(5, 5), 24),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 2, 40, 1.0),
        ("blobs17w", _heavy(two_blobs_graph(10, 10, 3), 30),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 2, 35, 1.0),
        ("gnp48w", _heavy(gnp_graph(48, 0.12, seed=3), 40),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 3, 30, 1.0),
        ("cheap-path21", _cheap_path(21, 10),
         SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 2, 20, 1.0),
    ]
    trials: list[OracleTrial] = []
    for idx, (name, g, cfg, alpha, iters, slow) in enumerate(specs):
        _drift_instance(name, g, cfg, alpha, iters, slow, idx, trials)
    for n in (7, 9, 11):
        _line_separator_fixture(n, 100 + n, trials)
    return trials


def test_criterion_3_oracle_contract(oracle_trials):
    feedback = [t for t in oracle_trials if t.kind != "separator"]
    separators = [t for t in oracle_trials if t.kind == "separator"]
    total = len(oracle_trials)
    exact_hits = sum(1 for t in feedback if t.inner_exact <= 0)
    exact_rate = exact_hits / len(feedback)
    surrogate_all = all(t.inner_surrogate <= 0 for t in feedback)
    structural = all(t.nonneg_ok and t.budget_ok and t.degree_ok for t in feedback)
    seps_ok = separators and all(t.separator_ok for t in separators)
    cases = {
        k: sum(1 for t in feedback if t.kind == k)
        for k in sorted({t.kind for t in feedback})
    }
    ok = (
        total >= 200
        and structural
        and surrogate_all
        and exact_rate >= 0.95
        and seps_ok
    )
    _report(
        3,
        ok,
        f"{total} invocations (cases {cases}, separators {len(separators)}); "
        f"coefficient/budget/degree exact on all; surrogate inner <= 0 on "
        f"100%; exact inner <= 0 on {exact_rate:.1%} >= 95%; separator "
        f"costs within 2c'nb",
    )
    assert ok


def test_feedback_floats_are_exact_entries_rounded_once(oracle_trials):
    # every emitted N's float form N - y I, which the solver adds to A,
    # mirrored dense and as CSR, equals, bitwise, the matrix whose entries
    # are structured_entries over the exact coefficients without y, each
    # float()ed once
    feedback = [t for t in oracle_trials if t.kind != "separator"]
    assert feedback
    assert all(t.floats_exact for t in feedback)


def test_criterion_4_width_bounds(oracle_trials):
    # Each feedback matrix must satisfy ||N|| <= width_bound <= the case
    # bound the schedule plans eta and T with; the tolerance is the one
    # mmwu_run applies to width_bound.
    feedback = [t for t in oracle_trials if t.kind != "separator"]
    tol = 1 + 1e-9
    parts = []
    for case in ("easy", "flow", "chain"):
        rows = [t for t in feedback if t.kind == case]
        if not rows:
            parts.append(f"{case}: 0 trials")
            continue
        norm_ratio = max(t.norm / t.width for t in rows)
        width_ratio = max(t.width / t.bound for t in rows)
        parts.append(
            f"{case}: {len(rows)} trials, max norm/width = {norm_ratio:.6f}, "
            f"max width/bound = {width_ratio:.6f}"
        )
    ok = bool(feedback) and all(
        t.norm <= t.width * tol and t.width <= t.bound * tol for t in feedback
    )
    detail = "; ".join(parts)
    _report(4, ok, f"{detail} (gate 1 + 1e-9)")
    # easy: y = -a/n and sum(y) + xi n^2 z = a force z = 2a/(xi n^2), so
    #   the top eigenvalue at |S| = n is (2/xi - 1) a/n, 7a/n at c = 1/3.
    # flow: source arcs carry 2p at scale 2q, so endpoint mass reaches b
    #   and diag(a/n) - L(D) has norm up to a/n + 2b.
    assert ok, detail


# ---------------------------------------------------------------------------
# 5 and 8 share one small-instance suite; 5 and 6 share the long run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_suite():
    suite = []
    for n in (4, 6, 9, 12, 14):
        suite.append((f"path{n}", path_graph(n)))
    for leaves in (4, 7, 10, 13):
        suite.append((f"star{leaves}", star_graph(leaves)))
    suite.append(("k4", complete_graph(4)))
    suite.append(("k6", complete_graph(6)))
    suite.append(("grid3x4", grid_graph(3, 4)))
    for a, b, bridge in ((5, 5, 2), (6, 6, 2), (8, 8, 2)):
        suite.append((f"blobs{a}{b}{bridge}", two_blobs_graph(a, b, bridge)))
    for n in (8, 10, 12, 14):
        for s in (1, 2, 3):
            g = gnp_graph(n, 0.5, seed=s)
            if len(connected_components(g, set())) == 1:
                suite.append((f"gnp{n}s{s}", g))
    rnd = random.Random(99)
    for n in (8, 11, 14):
        g = with_weights(path_graph(n), [rnd.randint(1, 9) for _ in range(n)])
        suite.append((f"wpath{n}", g))
    assert len(suite) >= 30
    return suite


@pytest.fixture(scope="module")
def staged_run():
    # Heavy K4 is the one desk-scale instance whose full horizon is
    # reachable: T = 79851 at alpha 1 under this configuration.
    g = _heavy(complete_graph(4), 64)
    cfg = SolverConfig(
        c=F(49, 100), c_prime=F(6, 25), epsilon=1.0,
        brute_bypass=False, t_cap=200_000,
    )
    out = mmwu_run(g, 1, cfg, seed=0)
    return g, cfg, out


def test_criterion_5_end_to_end_vs_brute_force(small_suite, staged_run):
    t0 = time.perf_counter()
    worst_ratio = F(0)
    for i, (name, g) in enumerate(small_suite):
        rep = binary_search_solve(g, SolverConfig(), seed=i)
        valid, msg = validate_separator(
            g, rep.separator, rep.separator.balance_achieved
        )
        assert valid, f"{name}: {msg}"
        opt, _ = brute_force_opt(g, F(1, 3), cap=14)
        if opt == 0:
            assert rep.separator.cost == 0, name
            continue
        worst_ratio = max(worst_ratio, F(rep.separator.cost, opt))
        if rep.certified_lower_bound is not None:
            assert 4 * opt >= rep.certified_lower_bound, name
    elapsed = time.perf_counter() - t0

    # accepted-certificate soundness, exercised on the run that reaches
    # its full horizon (the sweep above ends in brute separators)
    g, _, out = staged_run
    assert isinstance(out, CertificateFound)
    bound = out.certificate.certified_lower_bound
    opt_staged, _ = brute_force_opt(g, F(49, 100), cap=14)
    bridge_ok = 4 * opt_staged >= bound
    ok = worst_ratio <= 8 and bridge_ok and elapsed < 300.0
    _report(
        5,
        ok,
        f"{len(small_suite)} instances valid, worst cost/OPT = {worst_ratio} "
        f"<= 8, certificate bridge 4*{opt_staged} >= {bound}, {elapsed:.1f}s < 300s",
    )
    assert ok


def test_schedule_step_times_width_below_a_quarter(small_suite):
    # the regret algebra needs eta rho <= 1, and the schedule gives
    # eta rho = alpha / (4 n rho) < 1/4 because rho > alpha / n: over the
    # suite, every guess of the ladder up to w(V), at the default config,
    # a small epsilon and the staged run's balance constants
    configs = [
        SolverConfig(),
        SolverConfig(epsilon=0.25),
        SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0),
    ]
    checked = 0
    for name, g in small_suite:
        for cfg in configs:
            if not slices_fit(g.n, cfg.resolved_c_prime()):
                continue
            for i in range(g.total_weight().bit_length()):
                params = make_oracle_params(g, 2**i, cfg)
                sched = MMWUSchedule.plan(params, cfg)
                assert sched.rho > params.alpha / g.n, (name, i)
                assert sched.eta * sched.rho < 0.25, (name, i)
                checked += 1
    assert checked >= 100


def test_criterion_6_regret_arithmetic(staged_run):
    g, cfg, out = staged_run
    assert isinstance(out, CertificateFound)
    cert, diag = out.certificate, out.diagnostics
    scheduled = MMWUSchedule.plan(make_oracle_params(g, 1, cfg), cfg).iterations
    completed = diag.iterations_run == scheduled
    spectral_ok = cert.lambda_max_estimate <= 1e-6 * max(cert.norm_scale, 1e-12)
    objective_ok = cert.objective() == cert.alpha - cert.delta

    # sum N / T = certificate matrix + (delta/n) I exactly: the
    # certificate's y is -delta/n + sum y / T, its z, f, lambda the averages
    mean_n = symmetric_dense(g.n, cert.entries()) + float(cert.delta / g.n) * np.eye(g.n)
    lhs = float(np.linalg.eigvalsh(mean_n).max())
    rhs = (
        diag.mean_inner / g.n
        + diag.eta * diag.rho**2
        + math.log(g.n) / (diag.eta * diag.iterations_run)
    )
    regret_ok = lhs <= rhs + 0.05 * abs(rhs)
    ok = completed and spectral_ok and objective_ok and regret_ok
    _report(
        6,
        ok,
        f"T = {diag.iterations_run} completed; lam_max {cert.lambda_max_estimate:.3g} "
        f"<= 1e-6 * {cert.norm_scale:.3g}; objective {cert.objective()} exact; "
        f"regret {lhs:.4f} <= {rhs:.4f} + 5%",
    )
    assert ok


def test_staged_certificate_digest(staged_run):
    # sha256 of the exact dual, serialised as the benchmark's
    # certificate_digest does: any change to the certificate's exact
    # y, z, f, lambda or objective fails here
    _, _, out = staged_run
    assert isinstance(out, CertificateFound)
    cert = out.certificate
    tree = {
        "y": [str(v) for v in cert.y],
        "z": [[list(s), str(v)] for s, v in cert.z],
        "f": [[list(p), str(v)] for p, v in cert.f],
        "lam": [[list(e), str(v)] for e, v in cert.lam],
        "objective": str(cert.objective()),
    }
    text = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5d5bf868d206826c3c9b57eac9edee2414c683d0a06f0c7bd135a3fc2b552f16"
    )


# ---------------------------------------------------------------------------
# 7: determinism and call accounting
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_accounting(tmp_path, capsys):
    g = two_blobs_graph(8, 8, 2)
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 4))
    r1 = binary_search_solve(g, cfg, seed=42)
    r2 = binary_search_solve(g, cfg, seed=42)
    identical = report_to_dict(r1) == report_to_dict(r2)

    params = make_oracle_params(g, 1, cfg)  # budget does not depend on alpha
    replication = cfg.resolved_replication(g.n, params.epsilon)
    call_cap = replication * params.attempt_budget * r1.counters["iterations"]
    calls_ok = r1.counters["maxflow_calls"] <= call_cap

    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(render_graph(path_graph(5)))
    code = cli_main(
        [
            "bench", "--input", str(graph_file), "--no-brute-bypass",
            "--c-prime", "1/4", "--epsilons", "0.5,1.0", "--format", "json",
        ]
    )
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"]
    bench_ok = (
        code == 0
        and len(rows) == 2
        and all(row["kappa"] is not None and row["kappa"] > 0 for row in rows)
    )
    ok = identical and calls_ok and bench_ok
    _report(
        7,
        ok,
        f"identical reports at seed 42; maxflow calls "
        f"{r1.counters['maxflow_calls']} <= {call_cap} "
        f"(= {replication} x {params.attempt_budget} x "
        f"{r1.counters['iterations']}); bench rows report kappa "
        f"{[round(row['kappa'], 3) for row in rows]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8: primal witness on every brute-force optimum
# ---------------------------------------------------------------------------

def test_criterion_8_primal_witness(small_suite):
    checked = 0
    for name, g in small_suite:
        opt, wit = brute_force_opt(g, F(1, 3), cap=14)
        pw = primal_witness(g, wit, F(1, 3))
        assert pw.objective == 4 * sum(g.weights[i] for i in wit.separator), name
        assert any(c.startswith("edge-slack[") for c in pw.checks), name
        assert any(c.startswith("path-family-exhaustive") for c in pw.checks), name
        assert any(c.startswith("spread-family-exhaustive") for c in pw.checks), name
        assert "objective-4wC" in pw.checks, name
        checked += 1
    ok = checked == len(small_suite)
    _report(
        8,
        ok,
        f"{checked} witnesses verified exhaustively, objective = 4w(C) exact on all",
    )
    assert ok
