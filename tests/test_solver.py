"""Schedule planning, single runs, the alpha sweep, and primal witnesses.

Numeric expectations are frozen from hand-derived arithmetic stated next
to each assertion; graph optima reuse the independently argued values
from test_graphs.
"""

import hashlib
import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from vsep.embedding import (
    DENSE_CAP, Embedding, FeedbackCase, FeedbackMatrix, norm_bound, spectral_norm,
    symmetric_dense,
)
from vsep.graphs import (
    SeparatorSolution,
    complete_graph,
    grid_graph,
    make_graph,
    path_graph,
    two_blobs_graph,
    with_weights,
)
import vsep.embedding
from vsep.oracle import FeedbackOutcome, OracleCounters, OracleError
import vsep.solver as solver_mod
from vsep.solver import (
    REFINE_STEPS,
    SIGMA_FLOOR,
    WITNESS_EXHAUSTIVE_CAP,
    CertificateFound,
    CertificationError,
    DualCertificate,
    DualLedger,
    Inconclusive,
    MMWUSchedule,
    RunDiagnostics,
    SeparatorFound,
    SolverConfig,
    binary_search_solve,
    clamp_epsilon,
    make_oracle_params,
    mmwu_run,
    primal_witness,
    rationalize_beta,
    report_to_dict,
    verify,
    _most_balanced_extension,
)
from test_embedding import exact_entries

F = Fraction


# ---------------------------------------------------------------------------
# configuration and parameter derivation
# ---------------------------------------------------------------------------

def test_clamp_epsilon_window():
    # the log guard pins L(2) = 1, so the window is [1/4, 1]
    assert clamp_epsilon(0.1, 2) == (0.25, True)
    assert clamp_epsilon(0.5, 2) == (0.5, False)
    assert clamp_epsilon(2.0, 2) == (1.0, True)
    lo, warned = clamp_epsilon(0.01, 100)
    assert warned and math.isclose(lo, 1.0 / (4.0 * math.log(100)))


def test_config_validation_and_resolution():
    with pytest.raises(ValueError):
        SolverConfig(c=F(1, 2))
    with pytest.raises(ValueError):
        SolverConfig(c=F(1, 3), c_prime=F(2, 5))
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(replication=0)
    with pytest.raises(ValueError):
        SolverConfig(certification_tol=-1e-6)
    # float balances pass the range checks but would reach the exact dual
    with pytest.raises(ValueError, match="Fractions"):
        SolverConfig(c=0.49, c_prime=0.24, epsilon=1.0, brute_bypass=False, t_cap=3000)
    with pytest.raises(ValueError, match="Fractions"):
        SolverConfig(c_prime=0.04)
    with pytest.raises(ValueError, match="t_cap must be >= 1"):
        SolverConfig(t_cap=0)
    with pytest.raises(ValueError, match="brute_cap must be >= 0"):
        SolverConfig(brute_cap=-1)
    assert SolverConfig(brute_cap=0).brute_cap == 0
    cfg = SolverConfig()
    assert cfg.resolved_c_prime() == F(1, 24)
    assert cfg.resolved_tau() == 0.125  # min(2, xi/2) at c = 1/3
    assert SolverConfig(c_prime=F(1, 4)).resolved_c_prime() == F(1, 4)
    # ceil(16^0.5 * ln 16) = ceil(11.09) = 12, under the cap
    assert cfg.resolved_replication(16, 0.5) == 12
    assert SolverConfig(replication=3).resolved_replication(16, 0.5) == 3
    assert cfg.resolved_replication(10 ** 6, 1.0) == 64  # capped


@pytest.mark.parametrize(
    "name, bad",
    [("t_cap", 1e4), ("t_cap", 10.5), ("brute_cap", 12.0), ("replication", 2.0)],
)
def test_config_rejects_float_counts(name, bad):
    # range(), bit_length() and slicing would raise TypeError deep in a solve
    with pytest.raises(ValueError, match="must be ints"):
        SolverConfig(**{name: bad})


@pytest.mark.parametrize("bad", ["no", 0.0, 1, None])
def test_config_rejects_a_non_bool_bypass(bad):
    # "no" is truthy, so it would turn the brute-force bypass on
    with pytest.raises(ValueError, match="brute_bypass must be a bool"):
        SolverConfig(brute_bypass=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["epsilon", "sigma", "certification_tol"])
def test_config_rejects_non_finite(name, bad):
    # a NaN tolerance makes lambda_max > tol False, accepting any certificate
    with pytest.raises(ValueError):
        SolverConfig(**{name: bad})


def test_rationalize_beta_examples():
    # ratio = 2n/margin = 32; p = ceil(2 * 32) = 64 -> exactly beta0
    assert rationalize_beta(2.0, 4) == (64, 32)
    # ratio = 80; p = ceil(0.3 * 80) = 24 -> 24/80 = 0.3
    assert rationalize_beta(0.3, 10) == (24, 80)
    with pytest.raises(ValueError):
        rationalize_beta(0.001, 10)  # below the margin/n floor
    with pytest.raises(ValueError):
        rationalize_beta(1.0, 0)


def test_rationalize_beta_bracket_property():
    import random

    rng = random.Random(123)
    for _ in range(500):
        n = rng.randint(1, 500)
        beta0 = rng.uniform(0.25 / n, 1000.0)
        p, q = rationalize_beta(beta0, n)
        ratio = F(p, q)
        b0 = F(beta0)
        assert b0 <= ratio <= 2 * b0
        assert q == math.floor(2 * n / F(1, 4))


def test_make_oracle_params_frozen_values():
    # n = 16, alpha = 4, eps = 0.5, c' = 1/4:
    #   Delta = sqrt(0.5/ln 16) = 0.42466...
    #   k_rounds = ceil(Delta * ln 16) = ceil(1.177) = 2
    #   path_min = ceil(16^(1 - 0.125)) = ceil(11.31) = 12
    #   attempt_budget = 2 * ceil(sqrt(16) * ln 16) = 2 * 12 = 24
    g = grid_graph(4, 4)
    cfg = SolverConfig(c_prime=F(1, 4))
    params = make_oracle_params(g, 4, cfg)
    assert params.delta_spread == pytest.approx(math.sqrt(0.5 / math.log(16)))
    assert params.k_rounds == 2
    assert params.path_min == 12
    assert params.attempt_budget == 24
    assert params.beta_q == 128  # floor(2 * 16 / (1/4))
    beta0 = F(6 * 4, 4) / F(params.delta_spread)
    assert beta0 <= params.beta <= 2 * beta0
    assert params.epsilon == 0.5
    assert params.alpha == 4


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_formulas_and_bounds():
    g = grid_graph(4, 4)
    cfg = SolverConfig(c_prime=F(1, 4), t_cap=100)
    params = make_oracle_params(g, 4, cfg)
    sched = MMWUSchedule.plan(params, cfg)
    n, alpha = 16, F(4)
    assert sched.delta == alpha / 2
    rho = sched.rho
    assert sched.eta == pytest.approx(float(sched.delta) / (2 * n * rho * rho))
    lg = math.log(n)
    want_t = math.ceil(4 * n * n * rho * rho * lg / float(sched.delta) ** 2)
    assert sched.iterations == want_t
    assert sched.eta * rho < 0.25  # alpha / (4 n rho), rho > alpha / n

    bounds = {name: case.bound for name, case in params.feedback_cases.items()}
    assert set(bounds) == {"easy", "flow", "chain"}
    # easy: (2/xi - 1) alpha / n = 7 alpha / n at c = 1/3
    assert bounds["easy"] == pytest.approx(7 * 4 / 16)
    assert bounds["flow"] == pytest.approx(4 / 16 + 2 * float(params.beta))
    assert bounds["chain"] == pytest.approx(
        4 / 16 + 12 * 4 / params.delta_spread
    )
    assert rho == max(bounds.values())
    assert not sched.completes and sched.run_iterations == 100


def test_schedule_plans_a_million_vertex_path():
    # eta rho T passes 10^9 on a path at alpha = 1 and n = 10^6, where a
    # cap on it once aborted the solve after its sweep cut; the horizon
    # runs to t_cap instead.  The oracle's constants read only g.n, so a
    # stand-in with n alone spares building the path
    cfg = SolverConfig()
    params = make_oracle_params(SimpleNamespace(n=10**6), 1, cfg)
    sched = MMWUSchedule.plan(params, cfg)
    assert sched.eta * sched.rho * sched.iterations > 1e9
    assert not sched.completes and sched.run_iterations == cfg.t_cap


# (graph, alpha, config) of runs elsewhere in the suite: the staged heavy
# K4, the grid of the schedule test, and the default grid 30x30, path 1000
# and two_blobs 20/20/2 solves
PLANNED = [
    (with_weights(complete_graph(4), [64] * 4), 1,
     SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0)),
    (grid_graph(4, 4), 4, SolverConfig(c_prime=F(1, 4), t_cap=100)),
    (grid_graph(30, 30), 1, SolverConfig()),
    (path_graph(1000), 3, SolverConfig(epsilon=0.25)),
    (two_blobs_graph(20, 20, 2), 5, SolverConfig(c=F(1, 4))),
]


@pytest.mark.parametrize("g, alpha, cfg", PLANNED)
def test_feedback_case_budget_is_tight_at_its_least_multiplicity(g, alpha, cfg):
    params = make_oracle_params(g, alpha, cfg)
    n, xi = g.n, params.xi
    cases = params.feedback_cases
    assert params.feedback_cases is cases  # formed once per run

    def budget(case, m):
        return n * case.y + xi * n * n * case.unit * m

    assert {name: c.min_easy for name, c in cases.items()} == {
        "easy": 1, "flow": 0, "chain": 0,
    }
    for name, case in cases.items():
        assert case.name == name and case.n == n
        assert F(case.y_num, case.den) == case.y
        assert F(case.unit_num, case.den) == case.unit
        assert budget(case, case.min_easy) >= params.alpha
        FeedbackMatrix(case, easy_set=((0, 1), case.min_easy))
        if case.min_easy > 0:
            assert budget(case, case.min_easy - 1) < params.alpha
            with pytest.raises(ValueError, match="violates"):
                FeedbackMatrix(case, easy_set=((0, 1), case.min_easy - 1))
    # the easy case's budget identity is exact: -alpha + 2 alpha = alpha
    assert budget(cases["easy"], 1) == params.alpha


# rho, eta (float.hex) and T of each PLANNED run, pinned bit for bit: a
# change to a width-bound formula or to the order it is evaluated in fails
PLANNED_SCHEDULES = [
    ("0x1.e000000000000p+3", "0x1.23456789abcdfp-12", 79851),
    ("0x1.c5201d6707a65p+6", "0x1.46d889d77a249p-18", 9108406),
    ("0x1.621a0afdc58f2p+5", "0x1.307987508f7c9p-23", 172720130285),
    ("0x1.7a79bec95ead3p+7", "0x1.67cdb39841a2cp-26", 439774580321),
    ("0x1.43eef8f2f59f2p+7", "0x1.5099b23a693c8p-20", 88188541),
]


@pytest.mark.parametrize("planned, want", list(zip(PLANNED, PLANNED_SCHEDULES)))
def test_schedule_bits_unchanged(planned, want):
    g, alpha, cfg = planned
    sched = MMWUSchedule.plan(make_oracle_params(g, alpha, cfg), cfg)
    assert (sched.rho.hex(), sched.eta.hex(), sched.iterations) == want


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------

def test_mmwu_run_ignores_brute_bypass():
    # the bypass is the solve's decision alone: below the brute cap a run
    # iterates, and brute_bypass does not change what it returns
    outs = [
        mmwu_run(
            path_graph(5), 5,
            SolverConfig(brute_bypass=bypass, c_prime=F(1, 4)), seed=1,
        )
        for bypass in (True, False)
    ]
    assert all(isinstance(out, SeparatorFound) for out in outs)
    assert outs[0].separator == outs[1].separator
    assert outs[0].kappa == outs[1].kappa > 0


def test_mmwu_run_input_validation():
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="seed"):
        mmwu_run(path_graph(5), 3, cfg, seed=-1)
    with pytest.raises(ValueError):
        mmwu_run(path_graph(5), F(1, 2), cfg, seed=0)
    with pytest.raises(ValueError):
        mmwu_run(path_graph(5), 6, cfg, seed=0)  # above w(V) = 5


def test_solve_rejects_negative_seed_up_front(monkeypatch):
    # the brute bypass (path 5) makes no run, and grid 9x9 would fail only
    # at its first child seed, after the brute check and the sweep cut
    def unreachable(*args, **kwargs):
        raise AssertionError("work done before the seed was checked")

    monkeypatch.setattr(solver_mod, "brute_force_opt", unreachable)
    monkeypatch.setattr(solver_mod, "sweep_separator", unreachable)
    for g in (path_graph(5), grid_graph(9, 9)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            binary_search_solve(g, SolverConfig(), seed=-1)


def test_mmwu_run_finds_separator_on_path():
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 4))
    out = mmwu_run(path_graph(5), 5, cfg, seed=1)
    assert isinstance(out, SeparatorFound)
    params = make_oracle_params(path_graph(5), 5, cfg)
    assert out.separator.cost <= params.separator_cost_bound
    assert out.kappa == pytest.approx(
        float(2 * F(1, 4) * params.beta * 5 / 5)
    )
    # deterministic: the same seed reproduces the same outcome
    again = mmwu_run(path_graph(5), 5, cfg, seed=1)
    assert isinstance(again, SeparatorFound)
    assert again.separator == out.separator
    assert again.iteration == out.iteration


def test_mmwu_run_no_false_certificate_on_k4():
    # at alpha = 1 the throughput outruns K4's unit weights, so the run
    # must yield a separator (never a lower-bound certificate above OPT)
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 4))
    out = mmwu_run(complete_graph(4), 1, cfg, seed=0)
    assert isinstance(out, SeparatorFound)
    assert out.iteration == 0


def test_mmwu_run_iteration_cap_is_inconclusive():
    # heavy K4 schedules ~80k iterations; a tight cap must surface as
    # inconclusive rather than as a certificate or an error
    g = with_weights(complete_graph(4), [64, 64, 64, 64])
    cfg = SolverConfig(
        c=F(49, 100), c_prime=F(6, 25), epsilon=1.0,
        brute_bypass=False, t_cap=50,
    )
    out = mmwu_run(g, 1, cfg, seed=0)
    assert isinstance(out, Inconclusive)
    assert "iteration cap" in out.reason
    assert out.iterations_run == 50


def test_embedding_regime_boundary(monkeypatch):
    # exact iff n <= DENSE_CAP, by the sketch above it
    calls = {"dense": 0, "sketch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        solver_mod, "dense_reference", counted("dense", solver_mod.dense_reference)
    )
    monkeypatch.setattr(
        solver_mod, "project_embedding", counted("sketch", solver_mod.project_embedding)
    )
    cfg = SolverConfig(t_cap=1)
    for n, want in (
        (DENSE_CAP, {"dense": 1, "sketch": 0}),
        (DENSE_CAP + 1, {"dense": 0, "sketch": 1}),
    ):
        calls.update(dense=0, sketch=0)
        mmwu_run(path_graph(n), 2, cfg, seed=0)
        assert calls == want, n


def test_both_regimes_hold_the_same_a(monkeypatch):
    # X does not see a multiple of I, so neither regime adds y I to A:
    # over one sequence of easy and flow steps, the exact regime's dense
    # A equals the sketch regime's CSR A, bit for bit.  Both runs are the
    # staged heavy K4 at 100 times its eta, whose first 40 steps take
    # easy feedback from step 23 on (at the planned eta, from step 2 165).
    # The second run is put in the sketch regime, with its sketch swapped
    # for the exact embedding of its own A, so both oracles see the same
    # X and answer with the same feedback
    g = with_weights(complete_graph(4), [64] * 4)
    cfg = SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0, t_cap=40)
    plan = MMWUSchedule.plan

    def scaled(params, config):
        sched = plan(params, config)
        return replace(sched, eta=sched.eta * 100)

    monkeypatch.setattr(MMWUSchedule, "plan", staticmethod(scaled))
    exact, oracle = solver_mod.dense_reference, solver_mod.run_oracle
    seen = []  # (A, feedback) of each iteration

    def spy_exact(a):
        seen.append([a])
        return exact(a)

    def sketch_as_exact(op, *args, **kwargs):
        a = op.matrix.toarray() if op.matrix.nnz else np.zeros((op.n, op.n))
        seen.append([a])
        return Embedding(exact(a))

    def spy_oracle(*args):
        out = oracle(*args)
        fm = out.feedback
        seen[-1].append((fm.case, fm.easy_set, fm.path_terms))
        return out

    monkeypatch.setattr(solver_mod, "dense_reference", spy_exact)
    monkeypatch.setattr(solver_mod, "project_embedding", sketch_as_exact)
    monkeypatch.setattr(solver_mod, "run_oracle", spy_oracle)
    mmwu_run(g, 1, cfg, seed=0)
    dense_run, seen = seen, []
    monkeypatch.setattr(solver_mod, "embeds_exactly", lambda n: False)
    mmwu_run(g, 1, cfg, seed=0)
    assert len(dense_run) == len(seen) == 40
    for t, ((a_dense, fb_dense), (a_csr, fb_csr)) in enumerate(zip(dense_run, seen)):
        assert a_dense.tobytes() == a_csr.tobytes(), t
        assert fb_dense == fb_csr, t
    assert {fb[0] for _, fb in seen} == {"easy", "flow"}
    assert seen[-1][0].any()


def test_sketch_operator_holds_only_what_the_feedback_moved(monkeypatch):
    # a path of weight-8 vertices at alpha = 1 takes a flow step at every
    # iteration; after three of them the operator the sketch receives is
    # eta * sum (N - y I): the rows no path or edge touched are empty, no
    # scalar sits on the diagonal, and every row sums to zero because
    # each flow term is a Laplacian.  Its norm bound is its largest
    # absolute row sum, at most eta times the widths less alpha/n a step
    ops, lams, feedback = [], [], []
    sketch, oracle = solver_mod.project_embedding, solver_mod.run_oracle

    def spy_sketch(op, *args, **kwargs):
        ops.append(op)
        lams.append(kwargs["lambda_max"])
        return sketch(op, *args, **kwargs)

    def spy_oracle(*args):
        out = oracle(*args)
        feedback.append(out.feedback)
        return out

    monkeypatch.setattr(solver_mod, "project_embedding", spy_sketch)
    monkeypatch.setattr(solver_mod, "run_oracle", spy_oracle)
    g = with_weights(path_graph(120), [8] * 120)
    cfg = SolverConfig(t_cap=4)
    out = mmwu_run(g, 1, cfg, seed=0)
    assert isinstance(out, Inconclusive) and len(ops) == 4
    assert [fm.case for fm in feedback] == ["flow"] * 4
    a = ops[3].matrix
    touched = np.count_nonzero(np.diff(a.indptr))
    assert 0 < touched < g.n
    assert np.count_nonzero(a.diagonal()) <= touched
    assert np.abs(a @ np.ones(g.n)).max() <= 1e-12 * np.abs(a.data).max()
    eta = MMWUSchedule.plan(make_oracle_params(g, 1, cfg), cfg).eta
    want = sum(eta * fm.structured_sparse for fm in feedback[:3])
    assert np.allclose(a.toarray(), want.toarray(), rtol=0, atol=1e-15)
    assert lams[:2] == [0.0, norm_bound(ops[1].matrix)]
    assert lams[3] == norm_bound(a)
    assert spectral_norm(a.toarray()) <= lams[3]
    parts = sum(eta * (fm.width_bound - abs(float(fm.record.y))) for fm in feedback[:3])
    assert lams[3] <= parts * (1 + 1e-12)


def scaled_eta_grid_run(monkeypatch, scale, t_cap):
    """mmwu_run on a weight-40 grid 10x10 at alpha = 1, seed 0, with the
    planned eta times ``scale``; returns the outcome and, per sketch call,
    (lambda_max given, ||A||_2)."""
    plan = MMWUSchedule.plan

    def scaled(params, config):
        sched = plan(params, config)
        return replace(sched, eta=sched.eta * scale)

    monkeypatch.setattr(MMWUSchedule, "plan", staticmethod(scaled))
    seen = []
    sketch = solver_mod.project_embedding

    def spy_sketch(op, *args, **kwargs):
        a = op.matrix
        norm = spectral_norm(a.toarray()) if a.nnz else 0.0
        seen.append((kwargs["lambda_max"], norm))
        return sketch(op, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "project_embedding", spy_sketch)
    g = with_weights(grid_graph(10, 10), [40] * 100)
    return mmwu_run(g, 1, SolverConfig(t_cap=t_cap), seed=0), seen


def test_large_step_keeps_the_series_within_its_term_cap(monkeypatch):
    # eta x 10^5: A grows fast, and a loose norm bound (a sum of per-step
    # bounds) once stopped this run at t = 14.  The largest absolute row
    # sum of A itself keeps the run going to its cap, and every bound the
    # sketch receives holds ||A||, up to eigvalsh's own rounding: after
    # one flow step the bound is exact
    out, seen = scaled_eta_grid_run(monkeypatch, 1e5, 40)
    assert isinstance(out, Inconclusive), out
    assert out.reason.startswith("iteration cap 40"), out.reason
    assert len(seen) == 40
    assert all(norm <= lam * (1 + 1e-12) for lam, norm in seen)
    assert seen[-1][1] > 2  # the bound needs more than one scaling step


def test_large_step_series_sizes_itself(monkeypatch):
    # eta x 10^6: the norm bound is 33 at t = 3, where an a-priori budget
    # of 4 lambda^2 terms for one unscaled series (k = 4341 > 2000 from
    # lambda > 22.4) refused the sketch.  Each of the ceil(lambda/2)
    # scaling steps stops at unit roundoff on its own, so the run reaches
    # its iteration cap
    out, seen = scaled_eta_grid_run(monkeypatch, 1e6, 6)
    assert isinstance(out, Inconclusive), out
    assert out.reason.startswith("iteration cap 6"), out.reason
    assert len(seen) == 6 and max(lam for lam, _ in seen) > 22.4


def test_first_sketch_update_keeps_the_csr_sum_bits(monkeypatch):
    # A starts with no entries, so its first update is the CSR
    # eta * N.structured_sparse itself: the same arrays, bit for bit, as
    # the sum with an empty CSR that it replaces
    import scipy.sparse as sp

    ops, feedback = [], []
    sketch, oracle = solver_mod.project_embedding, solver_mod.run_oracle

    def spy_sketch(op, *args, **kwargs):
        ops.append(op.matrix)
        return sketch(op, *args, **kwargs)

    def spy_oracle(*args):
        out = oracle(*args)
        feedback.append(out.feedback)
        return out

    monkeypatch.setattr(solver_mod, "project_embedding", spy_sketch)
    monkeypatch.setattr(solver_mod, "run_oracle", spy_oracle)
    g = with_weights(path_graph(120), [8] * 120)
    cfg = SolverConfig(t_cap=2)
    eta = MMWUSchedule.plan(make_oracle_params(g, 1, cfg), cfg).eta
    for seed in range(4):
        ops.clear()
        feedback.clear()
        mmwu_run(g, 1, cfg, seed=seed)
        assert ops[0].nnz == 0 and feedback[0].case == "flow"
        want = sp.csr_matrix((g.n, g.n)) + eta * feedback[0].structured_sparse
        assert want.nnz > 0
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(ops[1], name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def test_mmwu_run_requires_slices_that_fit():
    # floor(2 c' n) = floor(0.3) = 0 slice vertices at c' = 1/100, n = 15:
    # a precondition, refused before any oracle call
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 100))
    with pytest.raises(ValueError, match="do not fit"):
        mmwu_run(path_graph(15), 2, cfg, seed=0)


def test_mmwu_run_retries_only_a_spent_chain_budget(monkeypatch):
    # heavy K4 takes flow feedback at every step (the staged run of
    # test_acceptance); the scripted oracle answers with the real one
    # before iteration 2 and fails from there on
    g = with_weights(complete_graph(4), [64] * 4)
    real = solver_mod.run_oracle

    def run_with(harvested, replication):
        seen = []

        def scripted(graph, emb, params, key, counters=None):
            if key[2] < 2:  # key = [seed, stream, iteration, replica]
                return real(graph, emb, params, key, counters)
            seen.append(params.sigma)
            raise OracleError("scripted failure", harvested=harvested)

        monkeypatch.setattr(solver_mod, "run_oracle", scripted)
        cfg = SolverConfig(
            c=F(49, 100), c_prime=F(6, 25), epsilon=1.0, t_cap=10,
            replication=replication,
        )
        return mmwu_run(g, 1, cfg, seed=0), seen

    # no path harvested: each retry halves sigma, 0.05 / 2^8 > 1e-4 > 0.05 / 2^9
    out, seen = run_with(harvested=0, replication=12)
    assert seen == [0.05 / 2**k for k in range(9)] + [SIGMA_FLOOR] * 3
    assert isinstance(out, Inconclusive) and out.iterations_run == 2
    assert out.reason == "oracle exhausted 12 replicas at iteration 2"
    # some paths harvested: retried at the same sigma
    out, seen = run_with(harvested=1, replication=5)
    assert seen == [0.05] * 5
    assert out.reason == "oracle exhausted 5 replicas at iteration 2"
    # any other failure is the same on every replica: one call ends the run
    out, seen = run_with(harvested=None, replication=5)
    assert seen == [0.05]
    assert isinstance(out, Inconclusive) and out.iterations_run == 2
    assert out.reason == "oracle failed at iteration 2: scripted failure"


def test_fraction_work_does_not_grow_with_steps(monkeypatch):
    # heavy K4 at alpha = 1 (the staged run of test_acceptance), cut at
    # two step caps: each step carries integers only, so the Fractions a
    # run forms are its per-run constants, the same at either cap.
    # Python 3.12 builds arithmetic results through _from_coprime_ints,
    # which bypasses __new__, so both are counted
    made = [0]
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    coprime = F.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def counting_coprime(cls, *args):
            made[0] += 1
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_coprime))
    g = with_weights(complete_graph(4), [64] * 4)
    made_at, tags = [], []
    for t_cap in (2300, 2400):
        cfg = SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0, t_cap=t_cap)
        counters = OracleCounters()
        made[0] = 0
        out = mmwu_run(g, 1, cfg, seed=0, counters=counters)
        made_at.append(made[0])
        tags.append(counters.outcome_tags)
        assert isinstance(out, Inconclusive) and out.iterations_run == t_cap
    monkeypatch.undo()
    # both runs take easy steps as well as flow steps
    assert tags[0] == {"flow": 2187, "easy": 113}
    assert tags[1]["easy"] > tags[0]["easy"]
    assert made_at[0] == made_at[1], made_at


@pytest.mark.parametrize(
    "case, width, reason",
    [
        ("flow", 1e9, r"width 1e\+09 exceeds the flow bound \S+ at iteration 0"),
    ],
)
def test_mmwu_run_ends_at_an_unplanned_width(monkeypatch, case, width, reason):
    # heavy K4 at alpha = 1 (the staged run of test_acceptance), with the
    # oracle scripted to answer one one-hop path of the given case and width
    def scripted(graph, emb, params, key, counters=None):
        return FeedbackOutcome(FeedbackMatrix(
            params.feedback_cases[case], path_terms=(((0, 1), 1),), width_bound=width,
        ))

    monkeypatch.setattr(solver_mod, "run_oracle", scripted)
    cfg = SolverConfig(c=F(49, 100), c_prime=F(6, 25), epsilon=1.0, t_cap=10)
    out = mmwu_run(with_weights(complete_graph(4), [64] * 4), 1, cfg, seed=0)
    assert isinstance(out, Inconclusive) and out.iterations_run == 0
    assert re.fullmatch(reason, out.reason), out.reason


def test_mmwu_run_ends_at_a_projection_schedule_error(monkeypatch):
    # a dimension cap of 1 refuses the first sketch of path 65, above
    # DENSE_CAP
    monkeypatch.setattr(vsep.embedding, "DEFAULT_D_CAP", 1)
    out = mmwu_run(path_graph(DENSE_CAP + 1), 2, SolverConfig(t_cap=5), seed=0)
    assert isinstance(out, Inconclusive) and out.iterations_run == 0
    assert out.reason.startswith("projection schedule: projection needs d=")


# ---------------------------------------------------------------------------
# dual certificate container
# ---------------------------------------------------------------------------

def test_dual_certificate_bookkeeping():
    cert = DualCertificate(
        n=2,
        alpha=F(2),
        delta=F(1),
        xi=F(1, 4),
        y=(F(1, 2), F(1, 2)),
        z=(),
        f=(),
        lam=(((0, 1), F(1, 4)),),
        lambda_max_estimate=0.0,
        norm_scale=1.0,
    )
    assert cert.certified_lower_bound == 1
    assert cert.objective() == 1  # sum(y), no z terms
    assert cert.nonneg_ok()
    assert cert.lambda_degrees() == {0: F(1, 4), 1: F(1, 4)}
    assert cert.degree_ok(path_graph(2))
    dense = symmetric_dense(cert.n, cert.entries())
    assert dense[0, 0] == pytest.approx(0.25)  # 1/2 - 1/4
    assert dense[0, 1] == pytest.approx(0.25)

    with_z = DualCertificate(
        n=2, alpha=F(2), delta=F(1), xi=F(1, 4),
        y=(F(0), F(0)), z=(((0, 1), F(1)),), f=(), lam=(),
        lambda_max_estimate=0.0, norm_scale=1.0,
    )
    assert with_z.objective() == F(1, 4) * 4  # xi n^2 z


def _k2_certificate(**change) -> DualCertificate:
    # z K_S - lam L = 0 on S = {0, 1}, so the matrix is diag(y) = -I/2;
    # objective -1 + xi n^2 z = -1 + 2 = 1 = alpha - delta
    parts = dict(
        n=2, alpha=F(2), delta=F(1), xi=F(1, 4),
        y=(F(-1, 2), F(-1, 2)), z=(((0, 1), F(2)),), f=(), lam=(((0, 1), F(2)),),
        lambda_max_estimate=0.0, norm_scale=0.0,
    )
    return DualCertificate(**{**parts, **change})


def test_verify_accepts_and_measures():
    g = with_weights(path_graph(2), [2, 2])
    cert = verify(_k2_certificate(), g, 1e-6)
    assert cert.lambda_max_estimate == pytest.approx(-0.5)
    assert cert.norm_scale == pytest.approx(0.5)
    assert cert.y == _k2_certificate().y and cert.lam == _k2_certificate().lam


@pytest.mark.parametrize(
    "change, weights, message",
    [
        # a negative edge coefficient
        ({"lam": (((0, 1), F(-2)),)}, [2, 2], "negative"),
        # lambda degree 2 at both vertices, above weight 1
        ({}, [1, 1], "degrees"),
        # objective -3/2 + 2 = 1/2, not alpha - delta = 1
        ({"y": (F(-1, 2), F(-1))}, [2, 2], "objective"),
        # lam = 1 leaves -I/2 + K_S: eigenvalues -1/2 and 3/2, objective still 1
        ({"lam": (((0, 1), F(1)),)}, [2, 2], "lambda_max"),
    ],
)
def test_verify_rejects_each_broken_part(change, weights, message):
    g = with_weights(path_graph(2), weights)
    with pytest.raises(CertificationError, match=message):
        verify(_k2_certificate(**change), g, 1e-6)


def test_dual_ledger_averages_exactly():
    n, alpha, xi = 3, F(1), F(1, 4)
    # every step's budget n y + xi n^2 unit m_S is exactly alpha
    easy = FeedbackCase.build("easy", n, alpha, xi, F(-1, 24), F(1, 2), 1.0)
    flow = FeedbackCase.build("flow", n, alpha, xi, F(1, 3), F(1, 5), 1.0, routed=True)
    other = FeedbackCase.build("flow", n, alpha, xi, F(1, 3), F(1, 7), 1.0, routed=True)
    steps = [
        FeedbackMatrix(easy, easy_set=((0, 1, 2), 1)),
        FeedbackMatrix(flow, path_terms=(((0, 1, 2), 2),)),
        FeedbackMatrix(other, path_terms=(((0, 1, 2), 1), ((2, 1), 3))),
        FeedbackMatrix(flow, path_terms=(((0, 2), 1),)),
    ]
    ledger = DualLedger(n, alpha, alpha / 2, xi)
    for fm in steps:
        ledger.add(fm)
    expected: dict = {}
    for fm in steps:
        for key, v in exact_entries(fm).items():
            expected[key] = expected.get(key, 0) + v / len(steps)
    for i in range(n):
        expected[(i, i)] = expected.get((i, i), 0) - alpha / 2 / n
    cert = ledger.certificate()
    nonzero = {k: v for k, v in expected.items() if v}
    assert {k: v for k, v in cert.entries().items() if v} == nonzero
    assert cert.objective() == alpha - alpha / 2
    # path (0, 1, 2) appears under two units: one averaged coefficient
    assert dict(cert.f)[(0, 1, 2)] == (F(2, 5) + F(1, 7)) / 4
    # lambda is each routed record's unit times the load its paths put on
    # each edge, averaged and sorted: (2, 1) loads edge (1, 2)
    assert cert.lam == (
        ((0, 1), (F(2, 5) + F(1, 7)) / 4),
        ((0, 2), F(1, 5) / 4),
        ((1, 2), (F(2, 5) + F(4, 7)) / 4),
    )


# ---------------------------------------------------------------------------
# binary search solve
# ---------------------------------------------------------------------------

def test_solve_brute_bypass_report():
    r = binary_search_solve(path_graph(5), SolverConfig(), seed=0)
    assert r.separator_via == "brute"
    assert r.brute_opt == 1
    assert r.ratio_vs_brute == 1
    assert r.alpha_star is None and r.certificate is None
    assert r.alphas_tried == ()
    assert r.counters["mmwu_runs"] == 0
    assert r.separator.cost == 1


def test_solve_grid_separator_sweep():
    g = grid_graph(4, 4)
    cfg = SolverConfig(brute_bypass=False)
    r = binary_search_solve(g, cfg, seed=0)
    assert r.separator_via == "oracle"
    assert r.separator.cost == 1  # a corner peels off at balance c/8
    assert r.alphas_tried == (F(1), F(2), F(4), F(8), F(16))
    assert r.counters["mmwu_runs"] == 5
    # the guess ladder plus refinement can never exceed this
    w = g.total_weight()
    assert r.counters["mmwu_runs"] <= math.ceil(math.log2(w)) + 1 + REFINE_STEPS
    assert r.kappa is not None and r.kappa > 0
    assert r.brute_opt is None  # n = 16 sits above the brute cap
    assert r.cost_vs_bound_ok is None  # no certificate on this sweep


def test_solve_two_blobs_ratio_under_eight():
    g = two_blobs_graph(8, 8, 2)
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 4))
    r = binary_search_solve(g, cfg, seed=3)
    assert r.separator_via in ("oracle", "sweep", "fallback")
    assert r.brute_opt == 2
    assert r.ratio_vs_brute is not None
    assert r.ratio_vs_brute <= 8
    # the oracle's own separator is graded too, whichever exit is taken
    assert r.oracle_cost is None or F(r.oracle_cost, r.brute_opt) <= 8


def test_solve_fallback_covers_all_vertices(monkeypatch):
    # floor(2 c' n) = floor(0.3) = 0: no oracle call could fit its slices,
    # so the solve makes no run, says why, and still returns a valid
    # (trivial) separator
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 100))
    g = path_graph(15)
    r = binary_search_solve(g, cfg, seed=0)
    assert r.separator_via == "fallback"
    assert r.separator.separator == tuple(range(15))
    assert r.separator.cost == 15
    assert r.counters["mmwu_runs"] == 0
    assert r.alphas_tried == ()
    assert r.notes == (
        "no run made: slices of floor(2 c' n) = 0 vertices do not fit "
        "at n=15, c'=1/100",
        "no run produced a separator; falling back to C = V",
    )

    # when every run ends inconclusive, the sweep cut (the vertex 10 of
    # path 15, cost 1) is the separator; the fallback needs no sweep cut
    def scripted_run(graph, alpha, config, seed, counters=None):
        return Inconclusive(reason="scripted", iterations_run=3)

    monkeypatch.setattr(solver_mod, "mmwu_run", scripted_run)
    r = binary_search_solve(g, SolverConfig(brute_bypass=False), seed=0)
    assert r.separator_via == "sweep"
    assert r.separator.separator == (10,) and r.separator.cost == 1
    assert r.separator.balance_achieved == F(1, 3)
    assert r.oracle_cost is None and r.kappa is None
    assert r.alphas_tried == (F(1), F(2), F(4), F(8))
    assert r.counters["mmwu_runs"] == 4 and r.counters["iterations"] == 12
    assert r.notes == (
        "alpha=1: inconclusive (scripted)",
        "alpha=2: inconclusive (scripted)",
        "alpha=4: inconclusive (scripted)",
        "alpha=8: inconclusive (scripted)",
    )


def test_solve_epsilon_clamp_note():
    cfg = SolverConfig(brute_bypass=False, epsilon=0.01)
    r = binary_search_solve(grid_graph(4, 4), cfg, seed=0)
    assert r.epsilon_used == pytest.approx(1.0 / (4.0 * math.log(16)))
    assert any("epsilon clamped" in note for note in r.notes)


def _scripted_certificate(n: int, alpha: F, iterations: int, **parts) -> CertificateFound:
    # parts replaces the empty dual's fields
    base = dict(
        n=n, alpha=alpha, delta=alpha / 2, xi=F(1, 4), y=(), z=(), f=(), lam=(),
        lambda_max_estimate=0.0, norm_scale=0.0,
    )
    cert = DualCertificate(**{**base, **parts})
    diag = RunDiagnostics(eta=0.1, rho=1.0, iterations_run=iterations, mean_inner=0.0)
    return CertificateFound(certificate=cert, diagnostics=diag)


def test_solve_refines_between_certificate_and_separator(monkeypatch):
    # a scripted sweep on path 20: the sweep cut costs 1, so the ladder is
    # 1..8 = 8 w(C) rather than 1..16 <= w(V) = 20; every alpha <= 5
    # certifies, every larger one returns a separator, and alpha 6's ties
    # the sweep cut at the least cost
    g = path_graph(20)
    cheap = SeparatorSolution.build(g, range(10), range(11, 20), [10], F(1, 24))
    dear = SeparatorSolution.build(g, range(9), range(11, 20), [9, 10], F(1, 24))

    def scripted_run(graph, alpha, config, seed, counters=None):
        alpha = F(alpha)
        if alpha <= 5:
            return _scripted_certificate(graph.n, alpha, 10)
        return SeparatorFound(
            separator=dear if alpha == 8 else cheap,
            alpha=alpha,
            kappa=float(alpha),
            iteration=int(alpha),
        )

    monkeypatch.setattr(solver_mod, "mmwu_run", scripted_run)
    r = binary_search_solve(g, SolverConfig(), seed=0)
    # ladder 1..8 brackets (lo, hi) = (4, 8); mid 6 separates, so hi = 6;
    # mid 5 certifies, so lo = 5; REFINE_STEPS = 2 ends the bisection
    assert REFINE_STEPS == 2
    assert r.alphas_tried == (F(1), F(2), F(4), F(8), F(6), F(5))
    assert r.alpha_star == 5
    assert r.certificate.alpha == 5
    assert r.certified_lower_bound == F(5, 2)
    assert r.cost_vs_bound_ok is True  # cost 1 >= (5/2) / 4
    # alpha 6's separator ties the sweep cut at cost 1: the oracle's wins
    assert r.separator == cheap
    assert r.separator_alpha == 6 and r.kappa == 6.0
    assert r.oracle_cost == 1
    assert r.separator_via == "oracle"
    # four certificates of 10 steps, separators at steps 8 and 6
    assert r.counters["mmwu_runs"] == 6
    assert r.counters["iterations"] == 4 * 10 + 9 + 7
    assert r.notes == ()


@pytest.mark.parametrize("oracle_cost, via", [(1, "oracle"), (2, "sweep")])
def test_solve_shares_one_budget_below_the_sweep_cap(monkeypatch, oracle_cost, via):
    # path 20: the sweep cut {13} costs 1, so the ladder stops at
    # 8 = 8 w(C) < w(V) = 20; alpha <= 3 certifies in 3 steps, a larger
    # alpha separates at its first step
    g = path_graph(20)
    sep = SeparatorSolution.build(
        g, range(10), range(10 + oracle_cost, 20), range(10, 10 + oracle_cost), F(1, 24)
    )
    calls = []

    def scripted_run(graph, alpha, config, seed, counters=None):
        alpha = F(alpha)
        calls.append((alpha, config.t_cap))
        if alpha <= 3:
            return _scripted_certificate(graph.n, alpha, 3)
        return SeparatorFound(separator=sep, alpha=alpha, kappa=float(alpha), iteration=0)

    monkeypatch.setattr(solver_mod, "mmwu_run", scripted_run)
    r = binary_search_solve(g, SolverConfig(t_cap=20), seed=0)
    # each ladder call gets the budget left less one step per later guess;
    # the bisection at mid 3 gets all that is left
    assert calls == [(1, 17), (2, 15), (4, 13), (8, 13), (3, 12)]
    assert max(a for a, _ in calls) <= 8 * 1
    assert r.counters["iterations"] == 3 + 3 + 1 + 1 + 3 <= 20
    assert r.alpha_star == 3
    # a tie with the sweep cut goes to the oracle; a cheaper cut is returned,
    # and the report still describes the oracle's separator
    assert r.separator_via == via
    assert r.separator.cost == 1
    assert r.oracle_cost == oracle_cost
    assert r.separator_alpha == 4 and r.kappa == 4.0
    assert r.notes == ()


def test_report_spells_out_the_certificate(monkeypatch):
    # path 20, ladder 1..8: alpha <= 2 certifies with a scripted dual of
    # one spread set, two paths and three edges; alpha 2's is reported.
    # Its objective is sum(y) + xi n^2 z = 20/20 + (1/4) 400 / 800 = 9/8
    parts = dict(
        y=(F(1, 20),) * 20,
        z=(((0, 1, 2), F(1, 800)),),
        f=(((0, 1, 2), F(1, 2)), ((3, 4, 5), F(1, 3))),
        lam=(((0, 1), F(1, 4)), ((1, 2), F(1, 4)), ((2, 3), F(1, 4))),
        lambda_max_estimate=-0.5,
        norm_scale=2.0,
    )

    def scripted_run(graph, alpha, config, seed, counters=None):
        if alpha <= 2:
            return _scripted_certificate(graph.n, F(alpha), 2, **parts)
        return Inconclusive(reason="scripted", iterations_run=1)

    monkeypatch.setattr(solver_mod, "mmwu_run", scripted_run)
    r = binary_search_solve(path_graph(20), SolverConfig(), seed=0)
    assert r.alphas_tried == (F(1), F(2), F(4), F(8))
    tree = report_to_dict(r)
    assert tree["certificate"] == {
        "alpha": "2",
        "delta": "1",
        "objective": "9/8",
        "lambda_max_estimate": -0.5,
        "norm_scale": 2.0,
        "terms": {"spread_sets": 1, "paths": 2, "edges": 3},
    }
    assert (tree["alpha_star"], tree["certified_lower_bound"]) == ("2", "1")
    json.dumps(tree)


def test_solve_notes_a_short_budget_and_a_missing_sweep_cut(monkeypatch):
    calls = []

    def scripted_run(graph, alpha, config, seed, counters=None):
        calls.append((F(alpha), config.t_cap))
        return Inconclusive(reason="scripted", iterations_run=config.t_cap)

    monkeypatch.setattr(solver_mod, "mmwu_run", scripted_run)
    # a budget of 2 steps covers 2 of the guesses 1, 2, 4, 8 <= 8 w(C)
    r = binary_search_solve(path_graph(20), SolverConfig(t_cap=2), seed=0)
    assert calls == [(1, 1), (2, 1)]
    assert r.counters["iterations"] == 2
    assert r.separator_via == "sweep"
    assert r.notes[0] == "t_cap=2 is below the 4 guesses up to 8: alpha > 2 not tried"
    # two paths of 10: the BFS misses one, so the ladder runs up to w(V)
    calls.clear()
    two_paths = make_graph(20, [(i, i + 1) for i in range(19) if i != 9])
    r = binary_search_solve(two_paths, SolverConfig(t_cap=5), seed=0)
    assert [a for a, _ in calls] == [F(1), F(2), F(4), F(8), F(16)]
    assert r.separator_via == "fallback"
    assert r.notes[0] == "no sweep cut at c=1/3: alpha runs up to w(V)=20"


# sha256 of report_to_dict, serialised with sorted keys, for one solve
# through each exit of binary_search_solve: brute, oracle, sweep (path 9,
# whose sweep cut costs 1 against the oracle's 2) and fallback, and one
# solve above DENSE_CAP that pins the sketch's probes
PINNED_REPORTS = [
    pytest.param(
        path_graph(5), SolverConfig(), 0,
        "72ffd04bf093859f070cb3719708c0018d2752be598aa42df89d8c8862ef7209",
        id="brute-path5",
    ),
    pytest.param(
        make_graph(6, []), SolverConfig(), 0,
        "05671aa9cbe45d8a63c3e77c09cc5f8dd7064c1b37fb01f1ee4d428706e7de7e",
        id="brute-zero-optimum",
    ),
    pytest.param(
        grid_graph(4, 4), SolverConfig(brute_bypass=False), 11,
        "e2b57d4b29e74370fe72b65f0c5c97dbe0de6418c973969cf487f609362cbf14",
        id="oracle-grid4x4",
    ),
    pytest.param(
        grid_graph(4, 4), SolverConfig(epsilon=0.01), 0,
        "77e37082f7722f387b494efaeae281ee01143a7de39240c9f30ad75b3c39c363",
        id="oracle-epsilon-clamp",
    ),
    pytest.param(
        path_graph(5), SolverConfig(brute_cap=0, t_cap=10), 0,
        "b98a954df96cb9204f7b4248134b5e0a1c2a755a790a20129eea6194a44bccd4",
        id="fallback-path5",
    ),
    pytest.param(
        path_graph(9), SolverConfig(brute_bypass=False, c_prime=F(1, 4)), 0,
        "3ef29b08d0b88b9c92018e2bcd2ecb09016f9a418301776ab96edccf632d9c8f",
        id="oracle-brute-ratio",
    ),
    pytest.param(
        grid_graph(9, 9), SolverConfig(), 0,
        "5c0431ea944119c52d3a20cf970da225ac1954c62eaedb2f792a169f6e4aa0ef",
        id="sketch-grid9x9",
    ),
]


@pytest.mark.parametrize("g, cfg, seed, digest", PINNED_REPORTS)
def test_solve_report_digest(g, cfg, seed, digest):
    tree = report_to_dict(binary_search_solve(g, cfg, seed))
    text = json.dumps(tree, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_solve_deterministic_report():
    g = two_blobs_graph(8, 8, 2)
    cfg = SolverConfig(brute_bypass=False, c_prime=F(1, 4))
    r1 = binary_search_solve(g, cfg, seed=7)
    r2 = binary_search_solve(g, cfg, seed=7)
    d1, d2 = report_to_dict(r1), report_to_dict(r2)
    assert d1 == d2
    json.dumps(d1)  # JSON-serializable throughout


# ---------------------------------------------------------------------------
# primal witness
# ---------------------------------------------------------------------------

def test_most_balanced_extension():
    a, b = _most_balanced_extension((0, 1), (2, 3, 4), (5, 6, 7))
    assert a == {0, 1, 5, 6}
    assert b == {2, 3, 4, 7}


def test_primal_witness_path():
    g = path_graph(5)
    sol = SeparatorSolution.build(g, [0, 1], [3, 4], [2], balance_achieved=F(1, 3))
    w = primal_witness(g, sol, F(1, 3))
    assert w.objective == 4  # 4 * w(C) with unit weight
    assert w.x == (0, 0, 4, 0, 0)
    assert set(w.v) == {-1, 1}
    assert sum(1 for vi in w.v if vi == -1) == 3  # separator joins A side
    joined = " ".join(w.checks)
    assert "edge-slack[4]" in joined
    assert "path-family-exhaustive" in joined
    assert "spread-family-exhaustive" in joined
    assert "objective-4wC" in joined


@pytest.mark.parametrize(
    "g, sep",
    [
        pytest.param(path_graph(20), range(9, 10), id="path20"),
        pytest.param(grid_graph(5, 5), range(10, 15), id="grid5x5"),
    ],
)
def test_primal_witness_samples_above_the_exhaustive_cap(g, sep):
    # n > WITNESS_EXHAUSTIVE_CAP: both families are sampled.  The middle
    # separator is vertex 9 of the path and row 2 of the row-major grid
    sol = SeparatorSolution.build(
        g, range(sep.start), range(sep.stop, g.n), sep, balance_achieved=F(1, 3)
    )
    w = primal_witness(g, sol, F(1, 3))
    assert g.n > WITNESS_EXHAUSTIVE_CAP
    assert w.objective == 4 * sol.cost == 4 * len(sep)
    assert "spread-family-sampled[200]" in w.checks
    assert "path-family-sampled[200]" in w.checks
    assert not any("exhaustive" in check for check in w.checks)


def test_primal_witness_weighted():
    g = with_weights(complete_graph(4), [7, 9, 1, 1])
    # removing {0, 1} leaves the edge (2, 3) on one side
    sol = SeparatorSolution.build(g, [2, 3], [], [0, 1], balance_achieved=F(1, 3))
    w = primal_witness(g, sol, F(1, 3))
    assert w.objective == 4 * 16
    assert w.x.count(4) == 2


def test_primal_witness_empty_a_side():
    g = path_graph(5)
    sol = SeparatorSolution.build(g, [], [1, 3], [0, 2, 4], balance_achieved=F(1, 3))
    w = primal_witness(g, sol, F(1, 3))
    assert w.objective == 12
    assert sum(1 for vi in w.v if vi == -1) == 3


def test_primal_witness_rejects_invalid():
    g = path_graph(4)
    crossing = SeparatorSolution.build(g, [0, 1], [2, 3], [], balance_achieved=F(1, 3))
    with pytest.raises(ValueError):
        primal_witness(g, crossing, F(1, 3))
    # at c = 1/3 the side cap is floor(8/3) = 2, so |A| = 3 is unbalanced
    lopsided = SeparatorSolution.build(g, [0, 1, 2], [], [3], balance_achieved=F(1, 3))
    with pytest.raises(ValueError):
        primal_witness(g, lopsided, F(1, 3))
