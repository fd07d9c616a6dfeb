"""Multiplicative-weights driver and the outer search over the objective
guess.

One run at guess alpha maintains X = n exp(eta * sum N) / Tr(...), asks
the oracle for feedback against the current embedding, and either stops
at a separator the oracle found or completes the scheduled horizon, where
its ``DualLedger`` forms the averaged dual that ``verify`` checks proves
the relaxation value is at least alpha - delta.  The outer driver sweeps
alpha geometrically up to 8 w(C) of a deterministic sweep cut C, within
one iteration budget for the whole solve, keeps the best separator seen
anywhere, and the largest certified alpha.

Schedule quantities are floats; everything entering a certificate stays
an exact rational so the budget and degree identities can be asserted
with == rather than tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Union

import numpy as np

from .embedding import (
    DEFAULT_GAMMA,
    NO_ENTRIES,
    AccumulatedOperator,
    Embedding,
    FeedbackCase,
    FeedbackMatrix,
    Rational,
    ScheduleError,
    dense_reference,
    embeds_exactly,
    largest_eigenvalue,
    log_guard,
    norm_bound,
    project_embedding,
    spectral_norm,
    structured_entries,
    symmetric_dense,
)
from .graphs import (
    DEFAULT_BRUTE_FORCE_CAP,
    SeparatorSolution,
    WeightedGraph,
    brute_force_opt,
    sweep_separator,
    validate_separator,
)
from .oracle import (
    OracleCounters,
    OracleError,
    OracleParams,
    SeparatorOutcome,
    run_oracle,
    slice_size,
    slices_fit,
    spread_xi,
)

# substream tags of the documented splitting scheme
# SeedSequence([seed, _EMBED_STREAM, t])       projection probes, iteration t
# SeedSequence([seed, _ORACLE_STREAM, t, r])   oracle directions, replica r
# SeedSequence([seed, _SEARCH_STREAM, i])      per-run child seed, run index i
_EMBED_STREAM = 1
_ORACLE_STREAM = 2
_SEARCH_STREAM = 3

# constants of the schedule, fixed by the analysis rather than by a caller
SIGMA_FLOOR = 1e-4  # the separation margin is never halved below this
PATH_EXPONENT = 0.25  # chain harvest target n^(1 - PATH_EXPONENT eps)
THROUGHPUT_MARGIN = Fraction(1, 4)  # c'' of the throughput rationalization
REPLICATION_CAP = 64  # default replicas per iteration at most
REFINE_STEPS = 2  # integer bisection steps after the geometric sweep


class CertificationError(RuntimeError):
    """An internal soundness check failed: a certificate flunked its own
    spectral test, an identity that holds by construction broke, or a
    returned separator failed validation.  Signals mis-tuned constants or
    a bug, never a bad input; surfaced with diagnostics in the message."""


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def check_seed(seed: int) -> None:
    """Reject a negative seed: every seed keys a numpy SeedSequence."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _child_seed(seed: int, index: int) -> int:
    return int(
        np.random.SeedSequence([int(seed), _SEARCH_STREAM, index]).generate_state(1)[0]
    )


def clamp_epsilon(epsilon: float, n: int) -> tuple[float, bool]:
    """Clamp the locality exponent into [1/(4 L(n)), 1].

    The window's endpoints are soft constants, so out-of-range values are
    pulled in rather than rejected; the caller surfaces a warning.
    """
    lo = 1.0 / (4.0 * log_guard(n))
    clamped = min(max(epsilon, lo), 1.0)
    return clamped, clamped != epsilon


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solve pipeline, and their one validator: ``vsep
    solve`` and ``vsep bench`` pass their flags here unchecked, and a
    ``ValueError`` from here is their usage error.

    ``c`` is the target balance, ``c_prime`` the achieved balance of
    returned separators (default c/8); each oracle round routes flow
    between two slices of floor(2 c' n) vertices, so a solve where
    ``slices_fit(n, c')`` fails makes no run.  ``epsilon`` is the locality
    exponent trading approximation for flow work.  ``t_cap`` is the
    iteration budget of a whole ``binary_search_solve``, shared out over
    its runs, or the cap of one run when ``mmwu_run`` is called alone; a
    run cut short of its scheduled horizon is reported as inconclusive,
    never as a certificate.  ``sigma`` is the projection separation
    margin; a replica whose chain budget runs out with no path harvested
    halves it, down to ``SIGMA_FLOOR`` (consuming replication slots, so
    call accounting is unaffected).
    ``certification_tol`` is the relative tolerance of the certificate's
    top-eigenvalue test.
    """

    c: Fraction = Fraction(1, 3)
    epsilon: float = 0.5
    c_prime: Optional[Fraction] = None
    sigma: float = 0.05
    t_cap: int = 10_000
    brute_cap: int = DEFAULT_BRUTE_FORCE_CAP
    brute_bypass: bool = True
    replication: Optional[int] = None
    certification_tol: float = 1e-6

    def __post_init__(self):
        # a float balance would reach the certificate's exact entries
        if not all(isinstance(b, Fraction) for b in (self.c, self.resolved_c_prime())):
            raise ValueError("balances c and c' must be Fractions")
        if not (0 < self.c < Fraction(1, 2)):
            raise ValueError("balance c must lie in (0, 1/2)")
        if self.c_prime is not None and not (0 < self.c_prime <= self.c):
            raise ValueError("achieved balance c' must lie in (0, c]")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        # a float count would fail only deep in a solve, at range()
        if not (
            isinstance(self.t_cap, int)
            and isinstance(self.brute_cap, int)
            and isinstance(self.replication, (int, type(None)))
        ):
            raise ValueError("t_cap, brute_cap and replication must be ints")
        # a truthy string or number would silently turn the bypass on
        if not isinstance(self.brute_bypass, bool):
            raise ValueError("brute_bypass must be a bool")
        if self.t_cap < 1:
            raise ValueError("t_cap must be >= 1")
        if self.brute_cap < 0:
            raise ValueError("brute_cap must be >= 0")
        if self.replication is not None and self.replication < 1:
            raise ValueError("replication width must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")
        # a NaN or infinite tolerance would accept every certificate
        if not (math.isfinite(self.certification_tol) and self.certification_tol >= 0):
            raise ValueError("certification_tol must be finite and non-negative")

    def resolved_c_prime(self) -> Fraction:
        return self.c_prime if self.c_prime is not None else self.c / 8

    def resolved_tau(self) -> float:
        return float(min(Fraction(2), spread_xi(self.c) / 2))

    def resolved_replication(self, n: int, epsilon: float) -> int:
        if self.replication is not None:
            return self.replication
        width = math.ceil(n**epsilon * log_guard(n))
        return max(1, min(width, REPLICATION_CAP))


def rationalize_beta(beta0: float, n: int) -> tuple[int, int]:
    """Integer throughput p/q with p = ceil((2n/c'') beta0), q = floor(2n/c''),
    c'' = THROUGHPUT_MARGIN.

    Guarantees p/q in [beta0, 2 beta0] and keeps both polynomially
    bounded.  pre: beta0 >= c''/n, else the ceiling could overshoot the
    doubling and the guarantee breaks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b0 = Fraction(beta0)
    if b0 < THROUGHPUT_MARGIN / n:
        raise ValueError(
            f"beta0={beta0} below the rationalization floor "
            f"{float(THROUGHPUT_MARGIN) / n:.3g}"
        )
    ratio = 2 * n / THROUGHPUT_MARGIN
    q = math.floor(ratio)
    p = math.ceil(b0 * ratio)
    return p, q


def make_oracle_params(
    g: WeightedGraph,
    alpha: Rational,
    config: SolverConfig,
) -> OracleParams:
    """Instantiate the oracle constants for one run at objective guess alpha.

    Delta = sqrt(eps/L(n)) is the squared-distance slack, beta0 the
    per-terminal throughput 6 alpha / (c' n Delta) before rationalization,
    K the matchings per chain attempt, and the harvest target n^(1-eps/4)
    paths by default.
    """
    n = g.n
    alpha = Fraction(alpha)
    eps, _ = clamp_epsilon(config.epsilon, n)
    lg = log_guard(n)
    delta_spread = math.sqrt(eps / lg)
    c_prime = config.resolved_c_prime()
    beta0 = float(6 * alpha / (c_prime * n)) / delta_spread
    p, q = rationalize_beta(beta0, n)
    k_rounds = max(1, math.ceil(delta_spread * lg))
    path_min = max(1, math.ceil(n ** (1.0 - PATH_EXPONENT * eps)))
    attempt_budget = k_rounds * max(1, math.ceil(n**eps * lg))
    return OracleParams(
        n=n,
        alpha=alpha,
        c=config.c,
        c_prime=c_prime,
        sigma=config.sigma,
        epsilon=eps,
        delta_spread=delta_spread,
        beta_p=p,
        beta_q=q,
        k_rounds=k_rounds,
        path_min=path_min,
        attempt_budget=attempt_budget,
    )


@dataclass(frozen=True)
class MMWUSchedule:
    """Update schedule of one run: delta = alpha/2 exactly,
    eta = delta / (2 n rho^2), T = ceil(4 n^2 rho^2 L(n) / delta^2).

    rho is the a-priori width bound, the largest ``bound`` of the run's
    three ``OracleParams.feedback_cases``; the run additionally checks
    every emitted matrix against its case's bound and aborts on
    violation.  The regret algebra needs eta rho <= 1, which holds by
    construction: eta rho = alpha / (4 n rho), and rho is at least the
    flow bound alpha/n + 2 beta > alpha/n, so eta rho < 1/4.  Nothing
    else bounds the plan: a horizon above the iteration cap runs to the
    cap and ends inconclusive.
    """

    delta: Fraction
    rho: float
    eta: float
    iterations: int
    iteration_cap: int

    @property
    def run_iterations(self) -> int:
        return min(self.iterations, self.iteration_cap)

    @property
    def completes(self) -> bool:
        return self.iterations <= self.iteration_cap

    @classmethod
    def plan(cls, params: OracleParams, config: SolverConfig) -> "MMWUSchedule":
        n = params.n
        alpha = params.alpha
        rho = max(case.bound for case in params.feedback_cases.values())
        delta = alpha / 2
        eta = float(delta) / (2 * n * rho * rho)
        iterations = math.ceil(
            4 * n * n * rho * rho * log_guard(n) / float(delta) ** 2
        )
        return cls(
            delta=delta,
            rho=rho,
            eta=eta,
            iterations=iterations,
            iteration_cap=config.t_cap,
        )


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Averaged dual solution certifying the relaxation value >= alpha - delta.

    y_i = -delta/n + mean_t y_i^(t); z, f, lam are plain averages, keyed
    by vertex set, path, and edge.  Feasibility needs z, f, lam >= 0, the
    per-vertex degree bound on lam, and the assembled matrix
    diag(y) + sum f T + sum z K - sum lam L to be negative semidefinite
    (measured top eigenvalue below tolerance); the objective then equals
    alpha - delta exactly.
    """

    n: int
    alpha: Fraction
    delta: Fraction
    xi: Fraction
    y: tuple[Fraction, ...]
    z: tuple[tuple[tuple[int, ...], Fraction], ...]
    f: tuple[tuple[tuple[int, ...], Fraction], ...]
    lam: tuple[tuple[tuple[int, int], Fraction], ...]
    lambda_max_estimate: float
    norm_scale: float

    @property
    def certified_lower_bound(self) -> Fraction:
        return self.alpha - self.delta

    def objective(self) -> Fraction:
        """sum(y) + xi n^2 sum(z); equals alpha - delta by the averaging."""
        zsum = sum((v for _, v in self.z), Fraction(0))
        return sum(self.y, Fraction(0)) + self.xi * self.n * self.n * zsum

    def entries(self) -> dict[tuple[int, int], Fraction]:
        return structured_entries(self.y, self.z, self.f, self.lam)

    def nonneg_ok(self) -> bool:
        return (
            all(v >= 0 for _, v in self.z)
            and all(v >= 0 for _, v in self.f)
            and all(v >= 0 for _, v in self.lam)
        )

    def lambda_degrees(self) -> dict[int, Fraction]:
        deg: dict[int, Fraction] = {}
        for (i, j), v in self.lam:
            deg[i] = deg.get(i, Fraction(0)) + v
            deg[j] = deg.get(j, Fraction(0)) + v
        return deg

    def degree_ok(self, g: WeightedGraph) -> bool:
        return all(v <= g.weights[i] for i, v in self.lambda_degrees().items())


@dataclass(frozen=True, eq=False)
class RunDiagnostics:
    """Measured quantities of one completed run, for regret arithmetic."""

    eta: float
    rho: float
    iterations_run: int
    mean_inner: float


@dataclass(frozen=True, eq=False)
class SeparatorFound:
    """A run stopped at iteration ``iteration`` on an oracle separator,
    validated at its achieved balance; ``kappa`` is the guarantee factor
    2 c' beta n / alpha of the run's parameters."""

    separator: SeparatorSolution
    alpha: Fraction
    kappa: float
    iteration: int


@dataclass(frozen=True, eq=False)
class CertificateFound:
    certificate: DualCertificate
    diagnostics: RunDiagnostics


@dataclass(frozen=True, eq=False)
class Inconclusive:
    reason: str
    iterations_run: int


MMWUOutcome = Union[SeparatorFound, CertificateFound, Inconclusive]


class DualLedger:
    """Exact dual sums of one run, kept as integers: ``add`` counts, per
    feedback case record (keyed by identity, so no Fraction is hashed),
    the steps and the integer multiplicities of their z and f terms.
    ``certificate`` is the one place their Fractions are formed: each
    record's y times its step count, its unit times each count, and for
    a routed record the edge terms its paths imply, unit times each
    edge's load sum_{p hops over e} count_p.
    """

    def __init__(self, n: int, alpha: Fraction, delta: Fraction, xi: Fraction):
        self.n, self.alpha, self.delta, self.xi = n, alpha, delta, xi
        self.steps = 0
        # record -> [steps, z counts, f counts: term -> multiplicity]
        self._tallies: dict[FeedbackCase, list] = {}

    def add(self, fm: FeedbackMatrix) -> None:
        self.steps += 1
        tally = self._tallies.setdefault(fm.record, [0, {}, {}])
        tally[0] += 1
        easy = () if fm.easy_set is None else (fm.easy_set,)
        for counts, terms in zip(tally[1:], (easy, fm.path_terms)):
            for term, m in terms:
                counts[term] = counts.get(term, 0) + m

    def certificate(self) -> DualCertificate:
        """The averaged dual of the steps so far, not yet measured:
        y_i = -delta/n + mean y, each term sum_record unit * count / steps."""
        y_sum = Fraction(0)
        totals: tuple[dict, dict, dict] = ({}, {}, {})
        for case, (steps, easy, paths) in self._tallies.items():
            y_sum += case.y * steps
            loads: dict[tuple[int, int], int] = {}
            if case.routed:
                for p, m in paths.items():
                    for a, b in zip(p, p[1:]):
                        e = (a, b) if a < b else (b, a)
                        loads[e] = loads.get(e, 0) + m
            for total, per_term in zip(totals, (easy, paths, loads)):
                for term, m in per_term.items():
                    total[term] = total.get(term, 0) + case.unit * m
        z, f, lam = (
            tuple((term, v / self.steps) for term, v in sorted(total.items()))
            for total in totals
        )
        return DualCertificate(
            n=self.n, alpha=self.alpha, delta=self.delta, xi=self.xi,
            y=(-self.delta / self.n + y_sum / self.steps,) * self.n,
            z=z, f=f, lam=lam, lambda_max_estimate=0.0, norm_scale=0.0,
        )


def verify(cert: DualCertificate, g: WeightedGraph, tol: float) -> DualCertificate:
    """The certificate with its top eigenvalue and spectral norm measured,
    if z, f, lambda >= 0, lambda degrees <= vertex weights, the objective is
    alpha - delta exactly and lambda_max <= tol * norm; else raises
    CertificationError."""
    if not cert.nonneg_ok():
        raise CertificationError("averaged dual has a negative z/f/lambda")
    if not cert.degree_ok(g):
        raise CertificationError("averaged lambda degrees exceed vertex weights")
    if cert.objective() != cert.certified_lower_bound:
        raise CertificationError(
            f"dual objective {cert.objective()} != alpha - delta "
            f"= {cert.certified_lower_bound}"
        )
    dense = symmetric_dense(cert.n, cert.entries())
    lam_max = largest_eigenvalue(dense)
    scale = spectral_norm(dense)
    bound = tol * max(scale, 1e-12)
    if not lam_max <= bound:  # a NaN eigenvalue rejects too
        raise CertificationError(
            f"certificate rejected: lambda_max {lam_max:.3e} > tolerance "
            f"{bound:.3e} (n={cert.n}, alpha={cert.alpha})"
        )
    return replace(cert, lambda_max_estimate=lam_max, norm_scale=scale)


def mmwu_run(
    g: WeightedGraph,
    alpha: Rational,
    config: SolverConfig,
    seed: int,
    counters: Optional[OracleCounters] = None,
) -> MMWUOutcome:
    """One run at objective guess alpha.

    Each iteration embeds the current exponential iterate (exactly where
    ``embeds_exactly(n)``, by randomized projection otherwise), then asks the
    oracle, replicating over independent substreams until one replica
    produces an outcome.  Only a spent chain budget is retried: other
    directions may harvest enough paths.  Any other oracle failure follows
    from the embedding and parameters every replica shares, so it ends the
    run.  A separator outcome returns immediately; feedback goes into a
    ``DualLedger``, whose certificate a full horizon returns once ``verify``
    accepts it.  Capped, oracle-failed and sketch-failed runs return
    Inconclusive, as does a run whose feedback exceeds its case's width
    bound.  The loop runs at every n: the brute-force bypass is decided by
    ``binary_search_solve`` alone.  Both regimes add each step's
    structured part N - y I to A (X does not see a multiple of I), from
    the same floats, so A is the same matrix in both, and both form N.X
    as y sum_i ||v_i||^2 + (N - y I).X.  They differ in A's storage and
    in the embedding call: the exact regime keeps A dense for ``eigh``;
    the sketch regime keeps it sparse, bounds ||A|| for the sketch's
    series by ``norm_bound(A)``, and starts with no entries, so
    scipy.sparse is first imported by the first such feedback's CSR: a
    run that stops at iteration 0, and every exact-regime run, needs
    numpy alone.
    pre: alpha in [1, w(V)], seed >= 0 and ``slices_fit(n, c')``;
    ``make_oracle_params`` raises ValueError on the last.
    """
    alpha = Fraction(alpha)
    n = g.n
    check_seed(seed)
    if not (1 <= alpha <= g.total_weight()):
        raise ValueError(f"alpha must lie in [1, w(V)] = [1, {g.total_weight()}]")

    params = make_oracle_params(g, alpha, config)
    sched = MMWUSchedule.plan(params, config)
    replication = config.resolved_replication(n, params.epsilon)
    tau_val = config.resolved_tau()
    counters = counters if counters is not None else OracleCounters()

    dense_mode = embeds_exactly(n)
    # A = eta * sum (N - y I) in both regimes: dense where the embedding
    # is exact (eigh needs A dense); in the sketch regime CSR, so that no
    # iteration touches an n x n array, and no CSR (nor scipy) before the
    # first feedback
    a_eta = np.zeros((n, n)) if dense_mode else NO_ENTRIES
    ledger = DualLedger(n, alpha, sched.delta, params.xi)
    inner_sum = 0.0
    t_run = sched.run_iterations

    for t in range(t_run):
        if dense_mode:
            emb = Embedding(dense_reference(a_eta))
        else:
            op = AccumulatedOperator(n=n, matrix=a_eta)
            try:
                emb = project_embedding(
                    op,
                    DEFAULT_GAMMA,
                    tau_val,
                    lambda_max=norm_bound(a_eta),
                    seed=_substream(seed, _EMBED_STREAM, t),
                )
            except ScheduleError as exc:
                return Inconclusive(reason=f"projection schedule: {exc}", iterations_run=t)

        outcome = None
        for r in range(replication):
            try:
                # a seed key: the oracle builds its Generator only if it chains
                outcome = run_oracle(
                    g, emb, params, [seed, _ORACLE_STREAM, t, r], counters
                )
                break
            except OracleError as exc:
                if exc.harvested is None:
                    return Inconclusive(
                        reason=f"oracle failed at iteration {t}: {exc}",
                        iterations_run=t,
                    )
                if exc.harvested == 0 and params.sigma > SIGMA_FLOOR:
                    params = replace(params, sigma=max(params.sigma / 2.0, SIGMA_FLOOR))
        if outcome is None:
            return Inconclusive(
                reason=f"oracle exhausted {replication} replicas at iteration {t}",
                iterations_run=t,
            )

        if isinstance(outcome, SeparatorOutcome):
            sol = outcome.separator
            ok, msg = validate_separator(g, sol, sol.balance_achieved)
            if not ok:
                raise CertificationError(f"oracle separator failed validation: {msg}")
            kappa = float(params.separator_cost_bound / alpha)
            return SeparatorFound(separator=sol, alpha=alpha, kappa=kappa, iteration=t)

        fm = outcome.feedback
        if fm.width_bound > fm.record.bound * (1 + 1e-9):
            return Inconclusive(
                reason=f"width {fm.width_bound:.6g} exceeds the {fm.case} "
                f"bound {fm.record.bound:.6g} at iteration {t}",
                iterations_run=t,
            )
        # N - y I, the same floats in either storage
        step = (
            symmetric_dense(n, fm.structured_floats())
            if dense_mode
            else fm.structured_sparse
        )
        # N.X = y Tr X + (N - y I).X
        inner = float(fm.record.y) * float(emb.norms_sq.sum()) + emb.inner(step)
        if inner > 0:
            raise CertificationError(
                f"feedback lost its sign: N.X = {inner:.6g} > 0 "
                f"(case {fm.case}, iteration {t})"
            )

        ledger.add(fm)
        a_eta = a_eta + sched.eta * step
        inner_sum += inner

    if not sched.completes:
        return Inconclusive(
            reason=(
                f"iteration cap {t_run} reached before the scheduled "
                f"horizon {sched.iterations}"
            ),
            iterations_run=t_run,
        )

    cert = verify(ledger.certificate(), g, config.certification_tol)
    diagnostics = RunDiagnostics(
        eta=sched.eta,
        rho=sched.rho,
        iterations_run=t_run,
        mean_inner=inner_sum / t_run,
    )
    return CertificateFound(certificate=cert, diagnostics=diagnostics)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything one solve produced.

    ``separator_via`` names the exit the separator came from: "brute"
    (the enumerated optimum, under ``brute_bypass`` at n <= ``brute_cap``),
    "oracle" (the cheapest separator any run found), "sweep" (the
    solve's sweep cut, when strictly cheaper than every oracle separator)
    or "fallback" (C = V).  ``oracle_cost``, ``kappa`` and
    ``separator_alpha`` describe the cheapest oracle separator whichever
    exit is taken: its cost, the guarantee factor 2 c' beta n / alpha and
    the guess of its run; None when no run found one.  ``alpha_star`` is
    the largest guess whose run certified a lower bound, ``certificate``
    that run's certificate.
    ``cost_vs_bound_ok`` records cost >= (alpha_star - delta)/4 whenever
    a certificate is present.  ``counters["maxflow_calls"]`` counts the
    oracle's max flows only: the sweep cut's one flow is left out, which
    keeps it equal to the flow.max_flow.calls that perfbench traces.
    """

    separator: SeparatorSolution
    alpha_star: Optional[Fraction]
    certificate: Optional[DualCertificate]
    certified_lower_bound: Optional[Fraction]
    oracle_cost: Optional[int]
    kappa: Optional[float]
    separator_alpha: Optional[Fraction]
    separator_via: str
    ratio_vs_brute: Optional[Fraction]
    brute_opt: Optional[int]
    cost_vs_bound_ok: Optional[bool]
    counters: dict = field(repr=False)
    alphas_tried: tuple[Fraction, ...]
    seed: int
    epsilon_used: float
    notes: tuple[str, ...] = ()


def _iterations(res: MMWUOutcome) -> int:
    """Iterations a run used, the stopping one included."""
    if isinstance(res, SeparatorFound):
        return res.iteration + 1
    if isinstance(res, CertificateFound):
        return res.diagnostics.iterations_run
    return res.iterations_run


def _sweep(
    g: WeightedGraph,
    config: SolverConfig,
    seed: int,
    counters: OracleCounters,
    cap: int,
    notes: list[str],
) -> list[tuple[Fraction, MMWUOutcome]]:
    """Every (alpha, outcome) of the geometric ladder 1, 2, 4, ... <= cap,
    then of up to ``REFINE_STEPS`` integer bisections between the largest
    certified guess and the smallest separating guess above it.

    ``config.t_cap`` is the iteration budget of all the runs together.
    Guesses run in ascending order, each with one call capped at the budget
    left less one iteration for every later guess of the ladder; a
    bisection run gets whatever is left.  A budget below the ladder's
    length drops its largest guesses, with a note.  Run i draws the child
    seed i."""
    runs: list[tuple[Fraction, MMWUOutcome]] = []
    left = config.t_cap

    def run_at(a: Fraction, allowance: int) -> MMWUOutcome:
        nonlocal left
        res = mmwu_run(
            g, a, replace(config, t_cap=allowance), _child_seed(seed, len(runs)), counters
        )
        runs.append((a, res))
        left -= _iterations(res)
        return res

    ladder = [Fraction(2**i) for i in range(cap.bit_length())]
    if len(ladder) > left:
        notes.append(
            f"t_cap={config.t_cap} is below the {len(ladder)} guesses up to {cap}: "
            f"alpha > {ladder[left - 1]} not tried"
        )
        del ladder[left:]
    for i, alpha in enumerate(ladder):
        run_at(alpha, left - (len(ladder) - 1 - i))
    lo = max((a for a, r in runs if isinstance(r, CertificateFound)), default=None)
    hi = min(
        (a for a, r in runs if isinstance(r, SeparatorFound) and (lo is None or a > lo)),
        default=None,
    )
    for _ in range(REFINE_STEPS):
        if lo is None or hi is None or hi - lo <= 1 or left < 1:
            break
        mid = Fraction(math.floor((lo + hi) / 2))
        if isinstance(run_at(mid, left), CertificateFound):
            lo = mid
        else:
            hi = mid
    return runs


def binary_search_solve(g: WeightedGraph, config: SolverConfig, seed: int) -> SolveReport:
    """Geometric sweep over alpha plus integer refinement, within one
    iteration budget ``config.t_cap``.

    Before the first run, ``sweep_separator`` cuts the graph once at the
    target balance c.  Any c-balanced C bounds the relaxation by 4 w(C)
    (the primal witness), so no guess above 8 w(C) can certify, and the
    ladder stops at min(w(V), 8 w(C)); without a sweep cut it runs to
    w(V), with a note.  Keeps the cheapest separator seen at any guess
    (the first of least cost) and the largest certified guess;
    inconclusive runs count as failed certifications (conservative toward
    larger separators, never toward false lower bounds).  The sweep cut is
    returned only when strictly cheaper than every oracle separator, and
    the all-separator fallback C = V when there is neither.  Brute force
    runs at most once, when n <= ``brute_cap``: under ``brute_bypass`` its
    optimum is the separator and no run is made; otherwise it only grades
    the result.  No run is made either when ``slices_fit(n, c')`` fails,
    since every oracle call would; a note says so and the fallback is
    returned.  Every separator leaves through the same validation and
    report.  A negative seed is rejected before any work.
    """
    check_seed(seed)
    n = g.n
    notes: list[str] = []
    eps_used, warned = clamp_epsilon(config.epsilon, n)
    if warned:
        notes.append(
            f"epsilon clamped from {config.epsilon:.6g} to {eps_used:.6g} at n={n}"
        )
    counters = OracleCounters()
    brute_opt, brute_sol = (
        brute_force_opt(g, config.c, cap=config.brute_cap)
        if n <= config.brute_cap
        else (None, None)
    )
    bypass = brute_opt is not None and config.brute_bypass
    c_prime = config.resolved_c_prime()
    fits = slices_fit(n, c_prime)
    if not (bypass or fits):
        notes.append(
            f"no run made: slices of floor(2 c' n) = {slice_size(n, c_prime)} "
            f"vertices do not fit at n={n}, c'={c_prime}"
        )
    sweep_cut: Optional[SeparatorSolution] = None
    runs: list[tuple[Fraction, MMWUOutcome]] = []
    if fits and not bypass:
        sweep_cut = sweep_separator(g, config.c)
        cap = g.total_weight()
        if sweep_cut is None:
            notes.append(f"no sweep cut at c={config.c}: alpha runs up to w(V)={cap}")
        else:
            cap = min(cap, 8 * sweep_cut.cost)
        runs = _sweep(g, config, seed, counters, cap, notes)
    notes.extend(
        f"alpha={a}: inconclusive ({r.reason})"
        for a, r in runs
        if isinstance(r, Inconclusive)
    )
    seps = [r for _, r in runs if isinstance(r, SeparatorFound)]
    best_sep = min(seps, key=lambda r: r.separator.cost, default=None)
    certs = [r.certificate for _, r in runs if isinstance(r, CertificateFound)]
    certificate = max(certs, key=lambda c: c.alpha, default=None)

    if bypass:
        sol, via = brute_sol, "brute"
    elif best_sep is not None and (
        sweep_cut is None or best_sep.separator.cost <= sweep_cut.cost
    ):
        sol, via = best_sep.separator, "oracle"
    elif sweep_cut is not None:
        sol, via = sweep_cut, "sweep"
    else:
        sol = SeparatorSolution.build(
            g, [], [], list(range(n)), balance_achieved=config.c
        )
        via = "fallback"
        notes.append("no run produced a separator; falling back to C = V")
    ok, msg = validate_separator(g, sol, sol.balance_achieved)
    if not ok:
        raise CertificationError(f"final separator failed validation: {msg}")

    bound = certificate.certified_lower_bound if certificate is not None else None
    ratio: Optional[Fraction] = None
    if brute_opt is not None:
        if brute_opt > 0:
            ratio = Fraction(sol.cost, brute_opt)
        else:
            notes.append("brute-force optimum is 0; ratio undefined")
        if bound is not None and 4 * brute_opt < bound:
            raise CertificationError(
                f"certified bound {bound} exceeds 4*OPT = {4 * brute_opt}"
            )

    return SolveReport(
        separator=sol,
        alpha_star=certificate.alpha if certificate is not None else None,
        certificate=certificate,
        certified_lower_bound=bound,
        oracle_cost=None if best_sep is None else best_sep.separator.cost,
        kappa=None if best_sep is None else best_sep.kappa,
        separator_alpha=None if best_sep is None else best_sep.alpha,
        separator_via=via,
        ratio_vs_brute=ratio,
        brute_opt=brute_opt,
        cost_vs_bound_ok=None if bound is None else Fraction(sol.cost) >= bound / 4,
        counters={
            "mmwu_runs": len(runs),
            "iterations": sum(_iterations(r) for _, r in runs),
            "maxflow_calls": counters.maxflow_calls,
            "matching_calls": counters.matching_calls,
            "chain_attempts": counters.chain_attempts,
            "oracle_outcomes": dict(sorted(counters.outcome_tags.items())),
        },
        alphas_tried=tuple(a for a, _ in runs),
        seed=seed,
        epsilon_used=eps_used,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class PrimalWitness:
    """Feasible primal assignment certifying value <= 4 w(C)."""

    x: tuple[int, ...]
    v: tuple[int, ...]
    objective: int
    checks: tuple[str, ...]


def _most_balanced_extension(a_side, b_side, separator) -> tuple[set[int], set[int]]:
    """Split V into (A-hat, B-hat) extending (A, B), as balanced as the
    free separator vertices allow; greedy to the smaller side."""
    a_hat, b_hat = set(a_side), set(b_side)
    for i in sorted(separator):
        if len(a_hat) <= len(b_hat):
            a_hat.add(i)
        else:
            b_hat.add(i)
    return a_hat, b_hat


WITNESS_EXHAUSTIVE_CAP = 16  # primal witness families enumerated up to this n
WITNESS_SAMPLES = 200  # sampled paths, and sampled spread sets above the cap


def primal_witness(g: WeightedGraph, s: SeparatorSolution, c: Rational) -> PrimalWitness:
    """x in {0,4}, v in {-1,+1} built from a valid c-balanced separator.

    Verifies, in exact integer/rational arithmetic: edge slack
    x_i + x_j >= |v_i - v_j|^2; unit norms; the path (triangle) family
    exhaustively up to 3 hops (all distinct-vertex sequences, sampled
    beyond); the pairwise-spread family over every admissible S when n is
    at most ``WITNESS_EXHAUSTIVE_CAP`` (sampled beyond); non-negativity.
    Samples come from a fixed seed.  The Gram matrix of a one-dimensional
    +-1 assignment is PSD structurally.  Objective equals 4 w(C) exactly.
    """
    c = Fraction(c)
    n = g.n
    ok, msg = validate_separator(g, s, c)
    if not ok:
        raise ValueError(f"witness needs a valid separator at balance {c}: {msg}")
    a_hat, b_hat = _most_balanced_extension(s.a_side, s.b_side, s.separator)
    sep = set(s.separator)
    v = tuple(-1 if i in a_hat else 1 for i in range(n))
    x = tuple(4 if i in sep else 0 for i in range(n))
    checks: list[str] = []

    for (i, j) in g.edges:
        if x[i] + x[j] < (v[i] - v[j]) ** 2:
            raise CertificationError(f"edge inequality broke on ({i}, {j})")
    checks.append(f"edge-slack[{g.m}]")

    if any(vi * vi != 1 for vi in v):
        raise CertificationError("unit-norm constraint broke")
    checks.append(f"unit-norm[{n}]")

    def path_gap(p: tuple[int, ...]) -> int:
        hops = sum((v[a] - v[b]) ** 2 for a, b in zip(p, p[1:]))
        return hops - (v[p[0]] - v[p[-1]]) ** 2

    tested = 0
    if n <= WITNESS_EXHAUSTIVE_CAP:
        for ln in (2, 3, 4):
            if ln > n:
                break
            for p in permutations(range(n), ln):
                if path_gap(p) < 0:
                    raise CertificationError(f"path inequality broke on {p}")
                tested += 1
        checks.append(f"path-family-exhaustive<=3hops[{tested}]")
    rng = np.random.default_rng(0)
    sampled = 0
    for _ in range(WITNESS_SAMPLES):
        ln = int(rng.integers(2, min(n, 8) + 1)) if n >= 2 else 0
        if ln < 2:
            break
        p = tuple(rng.permutation(n)[:ln])
        if path_gap(p) < 0:
            raise CertificationError(f"path inequality broke on sampled {p}")
        sampled += 1
    checks.append(f"path-family-sampled[{sampled}]")

    spread_floor = spread_xi(c) * n * n
    min_size = math.ceil((1 - c / 4) * n)
    max_deficiency = n - min_size

    def spread_of(s_set) -> int:
        a_in = sum(1 for i in s_set if i in a_hat)
        b_in = len(s_set) - a_in
        return 4 * a_in * b_in

    def check_set(s_set) -> None:
        if Fraction(spread_of(s_set)) < spread_floor:
            raise CertificationError(
                f"spread inequality broke on |S|={len(s_set)}: "
                f"{spread_of(s_set)} < {float(spread_floor):.6g}"
            )

    universe = list(range(n))
    if n <= WITNESS_EXHAUSTIVE_CAP:
        count = 0
        for k in range(max_deficiency + 1):
            for drop in combinations(universe, k):
                s_set = set(universe) - set(drop)
                check_set(s_set)
                count += 1
        checks.append(f"spread-family-exhaustive[{count}]")
    else:
        for _ in range(WITNESS_SAMPLES):
            k = int(rng.integers(0, max_deficiency + 1))
            drop = set(map(int, rng.permutation(n)[:k]))
            check_set(set(universe) - drop)
        checks.append(f"spread-family-sampled[{WITNESS_SAMPLES}]")

    if any(xv < 0 for xv in x):
        raise CertificationError("negative x")
    checks.append("nonneg")
    checks.append("psd-structural")

    objective = sum(g.weights[i] * x[i] for i in range(n))
    if objective != 4 * s.cost:
        raise CertificationError(f"objective {objective} != 4 w(C) = {4 * s.cost}")
    checks.append("objective-4wC")
    return PrimalWitness(x=x, v=v, objective=objective, checks=tuple(checks))


def _json_value(v):
    """A report value as JSON: a Fraction as its string, a tuple as a list."""
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return str(v) if isinstance(v, Fraction) else v


def report_to_dict(report: SolveReport) -> dict:
    """JSON-ready tree with one key per ``SolveReport`` field; only the
    separator and certificate subtrees are spelled out."""
    tree = {f.name: _json_value(getattr(report, f.name)) for f in fields(SolveReport)}
    sol = report.separator
    tree["separator"] = {
        "a": list(sol.a_side),
        "b": list(sol.b_side),
        "c": list(sol.separator),
        "cost": sol.cost,
        "balance": str(Fraction(sol.balance_achieved)),
    }
    cert = report.certificate
    if cert is not None:
        tree["certificate"] = {
            "alpha": str(cert.alpha),
            "delta": str(cert.delta),
            "objective": str(cert.objective()),
            "lambda_max_estimate": cert.lambda_max_estimate,
            "norm_scale": cert.norm_scale,
            "terms": {
                "spread_sets": len(cert.z),
                "paths": len(cert.f),
                "edges": len(cert.lam),
            },
        }
    return tree
