"""Oracle layer of the multiplicative-weights loop.

Given the current embedding, the oracle either (a) returns a balanced
separator it stumbled on, (b) returns a feedback matrix N with
N . X_tilde <= 0 certifying dual progress, or (c) fails its attempt
budget.  Three routes produce feedback:

* the easy case: the small-norm vertex set is insufficiently spread;
* the flow case: routed A-to-B flow crosses large embedded distances;
* the chaining case: composed matchings yield many paths whose hop
  lengths undercut their endpoint distance (triangle-inequality
  violations).

Flow amounts, capacities, and all matrix coefficients are exact
rationals.  Each case's y and coefficient unit are the same for a whole
run, so ``OracleParams.feedback_cases`` forms them once, and a step
carries integer flow amounts and multiplicities only.  Embedded
distances and thresholds on them are floats with explicit guard bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .embedding import Embedding, FeedbackCase, FeedbackMatrix
from .flow import FlowError, build_split_network, max_flow
from .graphs import SeparatorSolution, WeightedGraph

# relative slack on the flow-case fire test, against rounding of the
# embedded distances
GUARD_BAND = 1e-9


def spread_xi(c: Fraction) -> Fraction:
    """xi = 9 c^2 / 4: the spread constraint asks a pairwise spread of at
    least xi n^2 over every set of at least (1 - c/4) n vertices."""
    return Fraction(9, 4) * c * c


def slice_size(n: int, c_prime: Fraction) -> int:
    """floor(2 c' n): the vertices of each extreme slice a matching round
    routes flow between."""
    return math.floor(2 * c_prime * n)


def slices_fit(n: int, c_prime: Fraction) -> bool:
    """Two disjoint, non-empty slices of ``slice_size(n, c')`` vertices
    fit in n vertices.  Depends on (n, c') alone, so it is decided once,
    before any oracle call."""
    return 1 <= slice_size(n, c_prime) <= n // 2


class OracleError(RuntimeError):
    """The oracle could not produce an outcome.

    ``harvested`` is set only when the chain procedure spends its
    matching-call budget: it counts the violating paths pooled by then,
    and a replica with other random directions may succeed.  Every other
    failure (``harvested`` None) follows from the embedding and the
    parameters alone, so no replica can change it.
    """

    def __init__(self, message: str, harvested: Optional[int] = None):
        super().__init__(message)
        self.harvested = harvested


@dataclass(frozen=True)
class OracleParams:
    """Per-invocation constants of the oracle.

    ``delta_spread`` is the squared-distance slack (written Delta in the
    hop-length checks), ``beta_p``/``beta_q`` the rationalized per-terminal
    throughput, ``k_rounds`` the number of matchings composed per chain
    attempt, ``path_min`` the harvest size that triggers the chaining
    feedback, and ``attempt_budget`` the maximum number of matching calls
    (equivalently max-flow computations) one chain invocation may spend.
    Construction raises ValueError unless ``slices_fit(n, c_prime)``, so
    every matching round has two disjoint slices of ``ab_size`` vertices.
    """

    n: int
    alpha: Fraction
    c: Fraction
    c_prime: Fraction
    sigma: float
    epsilon: float
    delta_spread: float
    beta_p: int
    beta_q: int
    k_rounds: int
    path_min: int
    attempt_budget: int

    def __post_init__(self):
        if not (0 < self.c < Fraction(1, 2)):
            raise ValueError("balance constant must lie in (0, 1/2)")
        if not (0 < self.c_prime <= self.c):
            raise ValueError("relaxed balance must lie in (0, c]")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.beta_p <= 0 or self.beta_q <= 0:
            raise ValueError("throughput must be positive")
        if self.k_rounds < 1 or self.path_min < 1 or self.attempt_budget < 1:
            raise ValueError("k_rounds, path_min, attempt_budget must be >= 1")
        if self.delta_spread <= 0:
            raise ValueError("distance slack must be positive")
        if self.sigma < 0:
            raise ValueError("separation margin must be non-negative")
        if not slices_fit(self.n, self.c_prime):
            raise ValueError(
                f"slices of floor(2 c' n) = {self.ab_size} vertices do not fit "
                f"in n = {self.n} at c' = {self.c_prime}"
            )

    @cached_property
    def xi(self) -> Fraction:
        return spread_xi(self.c)

    @cached_property
    def beta(self) -> Fraction:
        return Fraction(self.beta_p, self.beta_q)

    @cached_property
    def ab_size(self) -> int:
        return slice_size(self.n, self.c_prime)

    @cached_property
    def cut_threshold_scaled(self) -> Fraction:
        """Scaled-integer form of the cut test c' n beta (scale 2q)."""
        return 2 * self.c_prime * self.n * self.beta_p

    @cached_property
    def separator_cost_bound(self) -> Fraction:
        return 2 * self.c_prime * self.n * self.beta

    @cached_property
    def norm_cap(self) -> float:
        """Membership threshold 4/c of the small-norm set."""
        return float(4 / self.c)

    @cached_property
    def easy_threshold(self) -> float:
        """The easy case fires below the pairwise spread xi n^2 / 4."""
        return float(self.xi * self.n * self.n) / 4.0

    @cached_property
    def feedback_cases(self) -> dict[str, FeedbackCase]:
        """The run's three feedback cases, each with its exact y and unit
        and its a-priori spectral-norm bound:

        easy:  y = -alpha/n, unit z = 2 alpha / (xi n^2); bound
               alpha (2/xi - 1) / n, the top eigenvalue at |S| = n;
        flow:  y = alpha/n, unit 1/(2q); bound alpha/n + 2 beta
               (endpoint mass is throughput-capped); its steps' paths
               are routed, so their edge loads are implied;
        chain: y = alpha/n, unit f = 2 alpha / (path_min Delta); bound
               alpha/n + 12 alpha / Delta (each of the exactly path_min
               paths touches a vertex at most twice in hops, once as an
               endpoint).
        """
        n = self.n
        alpha = self.alpha
        easy = float(alpha * (2 / self.xi - 1) / n)
        flow = float(alpha / n + 2 * self.beta)
        per_path = 2 * float(alpha) / (self.path_min * self.delta_spread)
        chain = float(alpha / n) + per_path * 2 * (2 * self.path_min + self.path_min)
        f = 2 * alpha / (self.path_min * Fraction(self.delta_spread))
        return {
            name: FeedbackCase.build(
                name, n, alpha, self.xi, y, unit, bound, routed=name == "flow"
            )
            for name, y, unit, bound in (
                ("easy", -alpha / n, 2 * alpha / (self.xi * n * n), easy),
                ("flow", alpha / n, Fraction(1, 2 * self.beta_q), flow),
                ("chain", alpha / n, f, chain),
            )
        }


@dataclass
class OracleCounters:
    """Mutable accounting shared across oracle invocations."""

    maxflow_calls: int = 0
    matching_calls: int = 0
    chain_attempts: int = 0
    outcome_tags: dict = field(default_factory=dict)

    def note(self, tag: str) -> None:
        self.outcome_tags[tag] = self.outcome_tags.get(tag, 0) + 1


@dataclass(frozen=True)
class SeparatorOutcome:
    separator: SeparatorSolution
    cut_scaled: int


@dataclass(frozen=True)
class FeedbackOutcome:
    feedback: FeedbackMatrix


@dataclass(frozen=True)
class MatchingOutcome:
    pairs: tuple[tuple[int, int], ...]


OracleOutcome = Union[SeparatorOutcome, FeedbackOutcome, MatchingOutcome]


def small_norm_set(emb: Embedding, params: OracleParams) -> list[int]:
    """Vertices with squared norm at most 4/c; holds >= (1 - c/4)n of V
    because the squared norms sum to n."""
    cap = params.norm_cap
    return np.flatnonzero(emb.norms_sq <= cap).tolist()


def easy_case(emb: Embedding, params: OracleParams) -> Optional[FeedbackMatrix]:
    """Spread shortcut: fires when the small-norm set is clustered.

    If the pairwise spread of S = {i : ||v_i||^2 <= 4/c} is below
    xi n^2 / 4, returns N = diag(-alpha/n) + (2 alpha / (xi n^2)) K_S.
    The fire condition itself bounds N . X_tilde <= -alpha/2 < 0; the
    budget identity sum(y) + xi n^2 z = alpha holds exactly.
    """
    s = small_norm_set(emb, params)
    if emb.spread_over(s) >= params.easy_threshold:
        return None
    # exact eigenvalues are y = -alpha/n and y + z |S|
    case = params.feedback_cases["easy"]
    return FeedbackMatrix(case, easy_set=(tuple(s), 1), width_bound=case.width(len(s)))


def _canonical_direction(u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Flip u so its first non-zero component is positive.

    Running the matching on the canonical sign and reversing pairs on
    flip makes Matching(-u) exactly the reverse of Matching(u).
    """
    for comp in u:
        if comp > 0:
            return u, False
        if comp < 0:
            return -u, True
    return u, False


def matching(
    g: WeightedGraph,
    emb: Embedding,
    u: np.ndarray,
    params: OracleParams,
    counters: Optional[OracleCounters] = None,
) -> OracleOutcome:
    """One projection-sort-flow round.

    Projects embedded vectors onto u, takes the extreme slices A and B,
    routes flow from A to B through the vertex-capacitated split network,
    and returns the first of: a cheap separator (small min cut), a flow
    feedback matrix (routed mass crosses large embedded distances), or a
    directed matching of short well-separated pairs.
    """
    counters = counters if counters is not None else OracleCounters()
    n = g.n
    if n != emb.n or n != params.n:
        raise OracleError("graph, embedding, and params disagree on n")
    ab = params.ab_size
    u_canon, flipped = _canonical_direction(np.asarray(u, dtype=float))
    counters.matching_calls += 1

    domain = small_norm_set(emb, params)
    if len(domain) < 2 * ab:
        raise OracleError(
            f"sort domain has {len(domain)} vertices, need {2 * ab} for the slices"
        )
    proj = emb.vectors.T @ u_canon
    ids = np.array(domain)
    order = ids[np.lexsort((ids, proj[ids]))].tolist()  # ties by vertex id
    a_side = sorted(order[:ab])
    b_side = sorted(order[-ab:])

    net = build_split_network(g, a_side, b_side, params.beta_p, params.beta_q)
    counters.maxflow_calls += 1
    result = max_flow(net.net)

    if result.value < params.cut_threshold_scaled:
        x_side, y_side, sep = net.sides(result)
        solution = SeparatorSolution.build(
            g, x_side, y_side, sep, balance_achieved=params.c_prime
        )
        if Fraction(solution.cost) * 2 * params.beta_q > 2 * params.cut_threshold_scaled:
            raise FlowError("separator cost exceeds the cut bound")
        counters.note("separator")
        return SeparatorOutcome(separator=solution, cut_scaled=result.value)

    scale = 2 * params.beta_q
    routes = net.vertex_paths(result)
    pair_mass: dict[tuple[int, int], int] = {}
    for path, amount in routes:
        ends = (path[0], path[-1])
        pair_mass[ends] = pair_mass.get(ends, 0) + amount

    # line-7 test: routed mass weighted by embedded squared distances
    routed_cost = (
        sum(m * emb.dist_sq(x, y) for (x, y), m in pair_mass.items()) / scale
    )
    fire_at = 2 * float(params.alpha)
    if routed_cost >= fire_at + GUARD_BAND * max(1.0, fire_at):
        fm = _flow_feedback(routes, params, flipped)
        counters.note("flow")
        return FeedbackOutcome(feedback=fm)

    # select in canonical orientation, then mirror the output if u was
    # flipped: Matching(-u) is the exact reverse of Matching(u).  Every
    # routed pair runs from A to B.
    m_all = [(x, y) for (x, y) in sorted(pair_mass) if proj[y] - proj[x] >= params.sigma]
    m_short = [
        (x, y) for (x, y) in m_all if emb.dist_sq(x, y) <= params.delta_spread
    ]
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []
    for x, y in m_short:
        if x not in used and y not in used:
            chosen.append((x, y))
            used.add(x)
            used.add(y)
    counters.note("matching")
    if flipped:
        chosen = [(y, x) for (x, y) in chosen]
    return MatchingOutcome(pairs=tuple(chosen))


def _flow_feedback(
    routes: Sequence[tuple[tuple[int, ...], int]],
    params: OracleParams,
    flipped: bool,
) -> FeedbackMatrix:
    """Assemble the flow-case feedback from the decomposed max flow.

    The step keeps the routed vertex paths, with their integer flow
    amounts in the unit 1/(2q) of the scaled network.  The edge
    coefficients of the same acyclic flow are its loads, each the amount
    of the paths that hop over the edge, so the flow record (``routed``)
    implies them: N telescopes exactly to diag(alpha/n) - L(D), with D
    the endpoint-mass matrix, and the ledger forms the loads only for
    the certificate.
    """
    path_terms = []
    deg_mass: dict[int, int] = {}
    for orig, amount in routes:
        if flipped:
            orig = orig[::-1]
        path_terms.append((orig, amount))
        deg_mass[orig[0]] = deg_mass.get(orig[0], 0) + amount
        deg_mass[orig[-1]] = deg_mass.get(orig[-1], 0) + amount
    # ||L(D)|| <= 2 max endpoint mass, in the unit
    case = params.feedback_cases["flow"]
    return FeedbackMatrix(
        case,
        path_terms=tuple(path_terms),
        width_bound=case.width(2 * max(deg_mass.values(), default=0)),
    )


def check_violating(path: Sequence[int], emb: Embedding, delta_spread: float) -> bool:
    """True iff the path's hop lengths undercut its endpoint distance:
    sum_j ||p_j - p_{j-1}||^2 <= ||p_end - p_0||^2 - delta."""
    if len(path) < 2:
        return False
    hops = sum(emb.dist_sq(a, b) for a, b in zip(path, path[1:]))
    return hops <= emb.dist_sq(path[0], path[-1]) - delta_spread


def _compose(matchings: Sequence[Sequence[tuple[int, int]]]) -> list[tuple[int, ...]]:
    """Full K-fold composition: survive-all chains keyed by endpoints."""
    if not matchings:
        return []
    chains = {y: (x, y) for (x, y) in matchings[0]}
    for m in matchings[1:]:
        chains = {y: chains[x] + (y,) for (x, y) in m if x in chains}
    return [chains[k] for k in sorted(chains)]


def _harvest_violating(
    chains: Sequence[tuple[int, ...]], emb: Embedding, delta_spread: float
) -> list[tuple[int, ...]]:
    """First distinct-vertex violating contiguous subpath of each chain,
    shortest first from each start, earliest start first.

    Keeping only the violating core keeps every harvested path's own
    inequality intact, which the feedback matrix relies on.
    """
    out = []
    for c in chains:
        cores = (
            sub
            for i in range(len(c) - 2)
            for j in range(i + 2, len(c))
            if len(set(sub := c[i : j + 1])) == len(sub)
            and check_violating(sub, emb, delta_spread)
        )
        core = next(cores, None)
        if core is not None:
            out.append(core)
    return out


def chain(
    g: WeightedGraph,
    emb: Embedding,
    params: OracleParams,
    rng: np.random.Generator,
    counters: Optional[OracleCounters] = None,
) -> OracleOutcome:
    """Compose matchings into chains and harvest violating paths.

    Each attempt samples K directions, runs the matching round on each,
    and composes the results; the mirrored (sign-flipped) composition
    comes for free from skew-symmetry.  Separator or feedback outcomes of
    any matching round short-circuit.  Harvested paths are pooled across
    attempts; at ``path_min`` of them the chaining feedback is emitted.
    Exhausting the matching-call budget raises OracleError carrying the
    number of paths harvested so far.
    """
    counters = counters if counters is not None else OracleCounters()
    harvested: dict[tuple[int, ...], None] = {}
    calls_spent = 0
    while True:
        counters.chain_attempts += 1
        forward: list[tuple[tuple[int, int], ...]] = []
        for _ in range(params.k_rounds):
            if calls_spent >= params.attempt_budget:
                raise OracleError(
                    f"chain attempt budget exhausted after {calls_spent} "
                    f"matching calls with {len(harvested)}/{params.path_min} paths",
                    harvested=len(harvested),
                )
            u = rng.standard_normal(emb.d)
            calls_spent += 1
            outcome = matching(g, emb, u, params, counters)
            if isinstance(outcome, (SeparatorOutcome, FeedbackOutcome)):
                return outcome
            forward.append(outcome.pairs)
        mirrored = [tuple((y, x) for (x, y) in m) for m in forward]
        for chains in (_compose(forward), _compose(mirrored)):
            for sub in _harvest_violating(chains, emb, params.delta_spread):
                harvested.setdefault(sub, None)
        if len(harvested) >= params.path_min:
            # exactly path_min paths: keeps the coefficient and the a-priori
            # width bound of this case a function of the schedule alone
            fm = _chain_feedback(list(harvested)[: params.path_min], params)
            counters.note("chain")
            return FeedbackOutcome(feedback=fm)


def _chain_feedback(
    paths: Sequence[tuple[int, ...]], params: OracleParams
) -> FeedbackMatrix:
    """N = diag(alpha/n) + f * (L(F) - L(D)) over exactly ``path_min``
    paths, with f = 2 alpha/(path_min Delta) the chain case's unit."""
    deg_f: dict[int, int] = {}
    deg_d: dict[int, int] = {}
    for p in paths:
        for a, b in zip(p, p[1:]):
            deg_f[a] = deg_f.get(a, 0) + 1
            deg_f[b] = deg_f.get(b, 0) + 1
        deg_d[p[0]] = deg_d.get(p[0], 0) + 1
        deg_d[p[-1]] = deg_d.get(p[-1], 0) + 1
    case = params.feedback_cases["chain"]
    k = 2 * (max(deg_f.values(), default=0) + max(deg_d.values(), default=0))
    return FeedbackMatrix(
        case, path_terms=tuple((p, 1) for p in paths), width_bound=case.width(k)
    )


def run_oracle(
    g: WeightedGraph,
    emb: Embedding,
    params: OracleParams,
    rng: Union[np.random.Generator, Sequence[int]],
    counters: Optional[OracleCounters] = None,
) -> OracleOutcome:
    """Full oracle: easy-case shortcut, then the chaining procedure.

    ``rng`` is a Generator or a seed key for ``np.random.default_rng``;
    a key becomes a Generator only when the chaining procedure runs, so
    an easy step never pays for one.
    """
    counters = counters if counters is not None else OracleCounters()
    fm = easy_case(emb, params)
    if fm is not None:
        counters.note("easy")
        return FeedbackOutcome(feedback=fm)
    return chain(g, emb, params, np.random.default_rng(rng), counters)
