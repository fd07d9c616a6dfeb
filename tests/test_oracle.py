"""Oracle cases: spread shortcut, projection-sort-flow rounds, flow
feedback, chaining, and the exact direction-reversal symmetry.

Geometry-driven expectations are frozen from hand-computed coordinates
stated inline; spectral claims are cross-checked with numpy.linalg.eigh.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import vsep.oracle as oracle_mod
from vsep.embedding import Embedding, FeedbackMatrix, spectral_norm
from vsep.graphs import (
    complete_graph,
    gnp_graph,
    path_graph,
    validate_separator,
    with_weights,
)
from vsep.oracle import (
    FeedbackOutcome,
    MatchingOutcome,
    OracleCounters,
    OracleError,
    OracleParams,
    SeparatorOutcome,
    chain,
    check_violating,
    easy_case,
    matching,
    run_oracle,
    slices_fit,
    small_norm_set,
    _canonical_direction,
    _chain_feedback,
    _compose,
    _harvest_violating,
)
from vsep.solver import MMWUSchedule
from test_embedding import floats_are_exact

F = Fraction


def mk_params(n, alpha=1, c=F(1, 3), c_prime=F(1, 4), sigma=0.05,
              epsilon=0.5, delta_spread=2.0, beta_p=1, beta_q=1,
              k_rounds=2, path_min=2, attempt_budget=20, **kw):
    return OracleParams(
        n=n, alpha=F(alpha), c=c, c_prime=c_prime, sigma=sigma,
        epsilon=epsilon, delta_spread=delta_spread, beta_p=beta_p,
        beta_q=beta_q, k_rounds=k_rounds, path_min=path_min,
        attempt_budget=attempt_budget, **kw,
    )


def line_embedding(coords):
    """One-dimensional embedding with the given x coordinates."""
    return Embedding(vectors=np.array([coords], dtype=float))


# ---------------------------------------------------------------------------
# parameters and small helpers
# ---------------------------------------------------------------------------

def test_params_derived_quantities():
    p = mk_params(n=8, alpha=3, c=F(1, 3), c_prime=F(1, 4), beta_p=5, beta_q=2)
    assert p.xi == F(1, 4)
    assert p.beta == F(5, 2)
    assert p.ab_size == 4
    assert p.cut_threshold_scaled == 2 * F(1, 4) * 8 * 5
    assert p.separator_cost_bound == 2 * F(1, 4) * 8 * F(5, 2)
    assert p.norm_cap == 12.0


def test_params_validation():
    with pytest.raises(ValueError):
        mk_params(n=4, c=F(1, 2))
    with pytest.raises(ValueError):
        mk_params(n=4, c_prime=F(1, 2))  # exceeds c
    with pytest.raises(ValueError):
        mk_params(n=4, alpha=F(1, 2))
    with pytest.raises(ValueError):
        mk_params(n=4, beta_p=0)
    with pytest.raises(ValueError):
        mk_params(n=4, delta_spread=0.0)
    with pytest.raises(ValueError):
        mk_params(n=4, sigma=-0.1)


def test_small_norm_set_threshold():
    # norm cap is 4/c = 12 at c = 1/3; boundary vertex included
    coords = [0.0, 2.0, math.sqrt(12.0), 3.5]
    emb = line_embedding(coords)
    assert small_norm_set(emb, mk_params(n=4)) == [0, 1, 2]


def test_canonical_direction():
    u = np.array([0.0, 2.0, -1.0])
    got, flipped = _canonical_direction(u)
    assert not flipped and np.array_equal(got, u)
    got, flipped = _canonical_direction(-u)
    assert flipped and np.array_equal(got, u)
    zero = np.zeros(3)
    got, flipped = _canonical_direction(zero)
    assert not flipped and np.array_equal(got, zero)


# ---------------------------------------------------------------------------
# easy case
# ---------------------------------------------------------------------------

def test_easy_case_collapsed_embedding():
    n, alpha = 5, F(3)
    emb = Embedding(vectors=np.ones((2, n)) / math.sqrt(2))
    params = mk_params(n=n, alpha=3)
    fm = easy_case(emb, params)
    assert fm is not None and fm.case == "easy"
    assert fm.y == -alpha / n
    s, m = fm.easy_set
    assert s == tuple(range(n)) and m == 1
    z = fm.unit
    assert z == 2 * alpha / (params.xi * n * n)
    assert fm.budget_total == alpha  # -alpha + 2 alpha, exact

    # spectrum of -a/n I + z K_V is {-a/n, -a/n + z n}; the latter is
    # (2/xi - 1) a/n = 7 a/n at c = 1/3
    eigs = np.linalg.eigvalsh(fm.assemble_dense())
    expect_low = float(-alpha / n)
    expect_high = float(-alpha / n + z * n)
    assert math.isclose(expect_high, float(7 * alpha / n), rel_tol=1e-12)
    assert math.isclose(eigs[0], expect_low, rel_tol=1e-10)
    assert math.isclose(eigs[-1], expect_high, rel_tol=1e-10)
    assert math.isclose(fm.width_bound, expect_high, rel_tol=1e-12)

    # the fire condition bounds the inner product by -alpha/2
    assert emb.inner(fm.assemble_dense()) <= -float(alpha) / 2


def test_easy_case_threshold_is_strict():
    # two points at distance 1/2: spread is exactly xi n^2 / 4 = 1/4,
    # and the shortcut must abstain on equality
    emb = line_embedding([0.0, 0.5])
    params = mk_params(n=2)
    assert emb.spread_over([0, 1]) == 0.25
    assert easy_case(emb, params) is None
    closer = line_embedding([0.0, 0.4999])
    assert easy_case(closer, params) is not None


def test_easy_case_abstains_when_spread():
    n = 6
    emb = Embedding(vectors=np.eye(n))
    assert easy_case(emb, mk_params(n=n)) is None


# ---------------------------------------------------------------------------
# matching: separator branch
# ---------------------------------------------------------------------------

def separator_setup():
    # path of 7 with a unit-weight waist at vertex 2; slices straddle it
    g = with_weights(path_graph(7), [9, 9, 1, 9, 9, 9, 9])
    emb = line_embedding([0.5 * i for i in range(7)])  # norms <= 9 < 12
    params = mk_params(n=7, alpha=2, c_prime=F(1, 7), beta_p=10, beta_q=1)
    assert params.ab_size == 2
    return g, emb, params


def test_matching_returns_cheap_separator():
    g, emb, params = separator_setup()
    u = np.array([1.0])
    counters = OracleCounters()
    out = matching(g, emb, u, params, counters)
    assert isinstance(out, SeparatorOutcome)
    # all flow crosses vertex 2 (capacity 1 * q); threshold is 2p = 20
    assert out.cut_scaled == 1
    assert out.separator.separator == (2,)
    assert out.separator.cost == 1
    assert out.separator.cost <= params.separator_cost_bound
    ok, msg = validate_separator(g, out.separator, params.c_prime)
    assert ok, msg
    assert counters.maxflow_calls == 1
    assert counters.outcome_tags == {"separator": 1}


def test_matching_separator_orientation_independent():
    g, emb, params = separator_setup()
    out_f = matching(g, emb, np.array([1.0]), params)
    out_r = matching(g, emb, np.array([-1.0]), params)
    assert isinstance(out_r, SeparatorOutcome)
    assert out_r.separator == out_f.separator
    assert out_r.cut_scaled == out_f.cut_scaled


# ---------------------------------------------------------------------------
# matching: flow-feedback branch
# ---------------------------------------------------------------------------

def flow_setup():
    # heavy K4 with two far-apart endpoints: the routed unit mass must
    # cross squared distance 3.4^2 = 11.56 >= 2 alpha = 10
    g = with_weights(complete_graph(4), [50, 50, 50, 50])
    vectors = np.array([
        [-1.7, 0.0, 0.0, 1.7],
        [0.0, 1.0, -1.0, 0.0],
    ])
    emb = Embedding(vectors=vectors)
    params = mk_params(n=4, alpha=5, c_prime=F(1, 8), beta_p=1, beta_q=1)
    assert params.ab_size == 1
    return g, emb, params


def test_matching_flow_feedback_telescopes():
    g, emb, params = flow_setup()
    counters = OracleCounters()
    out = matching(g, emb, np.array([1.0, 0.0]), params, counters)
    assert isinstance(out, FeedbackOutcome)
    fm = out.feedback
    assert fm.case == "flow"
    assert fm.y == F(5, 4)
    assert fm.unit == F(1, 2 * params.beta_q)
    assert counters.outcome_tags == {"flow": 1}

    # independent telescoping: N = diag(alpha/n) - sum d_xy L_xy over
    # the decomposed endpoint masses
    dense = fm.assemble_dense()
    want = np.diag([1.25] * 4)
    mass = {}
    for p, m in fm.path_terms:
        key = (min(p[0], p[-1]), max(p[0], p[-1]))
        mass[key] = mass.get(key, F(0)) + fm.unit * m
    for (i, j), m in mass.items():
        lap = np.zeros((4, 4))
        lap[i, i] = lap[j, j] = 1.0
        lap[i, j] = lap[j, i] = -1.0
        want -= float(m) * lap
    assert np.allclose(dense, want, atol=1e-12)

    # inner product telescopes to (alpha/n) sum||v||^2 - routed cost
    total_norms = float(np.sum(emb.norms_sq))
    routed = sum(
        float(fm.unit * m) * emb.dist_sq(p[0], p[-1]) for p, m in fm.path_terms
    )
    assert math.isclose(
        emb.inner(dense), 1.25 * total_norms - routed, rel_tol=1e-9
    )
    assert routed >= 2 * float(params.alpha)

    # edge coefficients stay within vertex weights, exactly
    assert fm.degree_ok(g.weights)
    total_mass = fm.unit * sum(m for _, m in fm.path_terms)
    assert fm.width_bound == pytest.approx(1.25 + 2 * float(total_mass))


def test_matching_flow_feedback_orientation_independent():
    g, emb, params = flow_setup()
    out_f = matching(g, emb, np.array([1.0, 0.0]), params)
    out_r = matching(g, emb, np.array([-1.0, 0.0]), params)
    assert isinstance(out_r, FeedbackOutcome)
    assert out_r.feedback.entries() == out_f.feedback.entries()
    # reversed orientation reverses each recorded path
    fwd = sorted(p for p, _ in out_f.feedback.path_terms)
    rev = sorted(tuple(reversed(p)) for p, _ in out_r.feedback.path_terms)
    assert fwd == rev


def test_matching_decomposes_only_when_paths_are_read(monkeypatch):
    import vsep.flow

    calls = []
    original = vsep.flow.decompose

    def counting(net, flows, **kwargs):
        calls.append(1)
        return original(net, flows, **kwargs)

    monkeypatch.setattr(vsep.flow, "decompose", counting)
    g, emb, params = separator_setup()
    assert isinstance(matching(g, emb, np.array([1.0]), params), SeparatorOutcome)
    assert calls == []
    g, emb, params = flow_setup()
    out = matching(g, emb, np.array([1.0, 0.0]), params)
    assert isinstance(out, FeedbackOutcome) and out.feedback.case == "flow"
    assert calls == [1]


# ---------------------------------------------------------------------------
# matching: matching branch and exact reversal symmetry
# ---------------------------------------------------------------------------

def matching_setup():
    # K6, colinear embedding: well connected (no cheap cut), distances
    # too small for the flow test to fire, all pairs sigma-separated
    g = with_weights(complete_graph(6), [1] * 6)
    emb = line_embedding([0.55 * i for i in range(6)])
    params = mk_params(n=6, alpha=6, c_prime=F(1, 6), beta_p=1, beta_q=4,
                       delta_spread=100.0)
    assert params.ab_size == 2
    return g, emb, params


def test_matching_pairs_structure():
    g, emb, params = matching_setup()
    out = matching(g, emb, np.array([1.0]), params)
    assert isinstance(out, MatchingOutcome)
    assert out.pairs
    used = set()
    for x, y in out.pairs:
        assert x in (0, 1) and y in (4, 5)  # extreme slices of the line
        assert emb.vectors[0, y] - emb.vectors[0, x] >= params.sigma
        assert emb.dist_sq(x, y) <= params.delta_spread
        assert x not in used and y not in used
        used.update((x, y))


def test_matching_exact_reversal_symmetry_sweep():
    # Matching(-u) must be the exact reverse of Matching(u), whatever
    # the outcome type, over random graphs, embeddings, and directions
    rng = np.random.default_rng(77)
    trials = 0
    kinds = set()
    while trials < 30:
        n = int(rng.integers(8, 13))
        g = gnp_graph(n, 0.5, seed=int(rng.integers(0, 10 ** 6)))
        vecs = rng.standard_normal((3, n))
        vecs *= math.sqrt(6.0 / max(np.sum(vecs * vecs, axis=0).max(), 1e-9))
        emb = Embedding(vectors=vecs)
        params = mk_params(
            n=n,
            alpha=int(rng.integers(1, n)),
            c_prime=F(1, 4),
            beta_p=int(rng.integers(1, 7)),
            beta_q=int(rng.integers(1, 7)),
            delta_spread=float(rng.uniform(0.5, 6.0)),
        )
        u = rng.standard_normal(3)
        fwd = matching(g, emb, u, params)
        rev = matching(g, emb, -u, params)
        trials += 1
        kinds.add(type(fwd).__name__)
        assert type(fwd) is type(rev)
        if isinstance(fwd, SeparatorOutcome):
            assert fwd.separator == rev.separator
            assert fwd.cut_scaled == rev.cut_scaled
        elif isinstance(fwd, FeedbackOutcome):
            assert fwd.feedback.entries() == rev.feedback.entries()
        else:
            assert rev.pairs == tuple((y, x) for (x, y) in fwd.pairs)
    assert "MatchingOutcome" in kinds  # the sweep must exercise reversal


def test_matching_sizing_errors():
    # slices that cannot fit are refused when the params are built:
    # floor(2 c' n) = floor(0.08) = 0 is empty, and floor(2 * 3/10 * 5) = 3
    # gives two slices of 6 > 5 vertices
    with pytest.raises(ValueError, match="do not fit"):
        mk_params(n=4, c_prime=F(1, 100))
    with pytest.raises(ValueError, match="do not fit"):
        mk_params(n=5, c_prime=F(3, 10))
    assert slices_fit(4, F(1, 4)) and slices_fit(5, F(1, 5))
    assert not slices_fit(4, F(1, 100)) and not slices_fit(5, F(3, 10))
    # the sort domain depends on the embedding, so matching itself checks it
    g = path_graph(4)
    far = line_embedding([10.0, 20.0, 30.0, 40.0])  # norms all above 4/c
    with pytest.raises(OracleError) as info:
        matching(g, far, np.array([1.0]), mk_params(n=4))
    assert info.value.harvested is None


# ---------------------------------------------------------------------------
# chaining building blocks
# ---------------------------------------------------------------------------

def test_check_violating():
    emb = line_embedding([0.0, 1.0, 2.5])
    # hops 1 + 2.25 = 3.25 against endpoint 6.25
    assert check_violating((0, 1, 2), emb, 3.0)
    assert not check_violating((0, 1, 2), emb, 3.1)
    assert not check_violating((0,), emb, 0.5)


def test_compose_chains():
    m1 = [(1, 2), (3, 4)]
    m2 = [(2, 3), (4, 6)]
    assert _compose([m1, m2]) == [(1, 2, 3), (3, 4, 6)]
    # chains die when the next matching does not continue them
    assert _compose([m1, [(9, 8)]]) == []
    assert _compose([m1]) == [(1, 2), (3, 4)]
    assert _compose([]) == []


def test_harvest_violating_first_core():
    # (0,1,2) is straight (no violation); appending 3 jumps far enough
    emb = line_embedding([0.0, 0.6, 1.2, 3.0])
    got = _harvest_violating([(0, 1, 2, 3)], emb, 2.0)
    assert got == [(0, 1, 2, 3)]
    # revisiting a vertex disqualifies the subpath
    got = _harvest_violating([(0, 1, 0, 3)], emb, 2.0)
    assert got == []
    # an inner violating core is found before longer ones
    emb2 = line_embedding([0.0, 0.1, 0.7, 3.0])
    got = _harvest_violating([(0, 1, 2, 3)], emb2, 2.0)
    assert got and got[0][0] in (0, 1)


def test_chain_feedback_coefficients():
    params = mk_params(n=6, alpha=3, delta_spread=2.0, path_min=2)
    fm = _chain_feedback([(0, 1, 2), (3, 4)], params)
    assert fm.case == "chain"
    f = 2 * F(3) / (2 * F(2.0))
    assert fm.unit == f
    assert fm.path_terms == (((0, 1, 2), 1), ((3, 4), 1))
    assert fm.y == F(1, 2)
    assert fm.budget_total == 3
    # deg_F max is 2 (vertex 1), deg_D max is 1
    assert fm.width_bound == pytest.approx(0.5 + float(f) * 2 * 3)

    want = np.diag([0.5] * 6)
    for p in [(0, 1, 2), (3, 4)]:
        hop = np.zeros((6, 6))
        for a, b in zip(p, p[1:]):
            hop[a, a] += 1; hop[b, b] += 1
            hop[a, b] -= 1; hop[b, a] -= 1
        end = np.zeros((6, 6))
        a, b = p[0], p[-1]
        end[a, a] = end[b, b] = 1
        end[a, b] = end[b, a] = -1
        want += float(f) * (hop - end)
    assert np.allclose(fm.assemble_dense(), want, atol=1e-12)
    # the exact norm sits inside the certified width, which sits inside
    # the chain bound the schedule plans with
    assert spectral_norm(fm.assemble_dense()) <= fm.width_bound * (1 + 1e-9)
    assert fm.width_bound <= MMWUSchedule.case_width_bounds(params)["chain"] * (1 + 1e-9)


def test_inner_from_vectors_matches_gram():
    # the solver's N.X from the embedding vectors, in both regimes' forms
    # (dense N, and y sum ||v_i||^2 plus the sparse N - y I), against the
    # Frobenius product with the n x n Gram matrix
    rng = np.random.default_rng(17)
    n, alpha = 5, F(3)
    collapsed = Embedding(vectors=np.ones((2, n)) / math.sqrt(2))
    easy = easy_case(collapsed, mk_params(n=n, alpha=3))
    g, flow_emb, params = flow_setup()
    flow = matching(g, flow_emb, np.array([1.0, 0.0]), params).feedback
    chain_fm = _chain_feedback([(0, 1, 2), (3, 4)],
                               mk_params(n=6, alpha=3, delta_spread=2.0, path_min=2))
    custom = FeedbackMatrix(
        n=6, alpha=alpha, xi=F(9, 16), y=F(1, 2), unit=F(1, 630),
        easy_set=((0, 1, 5), 63), path_terms=(((0, 2, 4), 90),),
        lam=(((1, 2), 140),),
    )
    cases = [(easy, collapsed), (flow, flow_emb)] + [
        (fm, Embedding(vectors=rng.standard_normal((3, 6))))
        for fm in (chain_fm, custom)
    ]
    assert [fm.case for fm, _ in cases] == ["easy", "flow", "chain", "custom"]
    for fm, emb in cases:
        want = float(np.sum(fm.assemble_dense() * (emb.vectors.T @ emb.vectors)))
        split = (float(fm.y) * float(emb.norms_sq.sum())
                 + emb.inner(fm.structured_sparse))
        assert math.isclose(split, want, rel_tol=1e-10)
        assert math.isclose(emb.inner(fm.assemble_dense()), want, rel_tol=1e-10)


def test_structured_part_within_its_bound():
    # the sketch regime adds N - y I to A and bounds its norm by
    # structured_bound; eigvalsh checks it on easy, flow and chain
    # feedback.  For the easy step it is exact and above width - |y|; for
    # flow and chain it is width - |y|, since their width is |y| plus it
    n = 5
    collapsed = Embedding(vectors=np.ones((2, n)) / math.sqrt(2))
    easy = easy_case(collapsed, mk_params(n=n, alpha=3))
    g, flow_emb, params = flow_setup()
    flow = matching(g, flow_emb, np.array([1.0, 0.0]), params).feedback
    chain_fm = _chain_feedback([(0, 1, 2), (3, 4)],
                               mk_params(n=6, alpha=3, delta_spread=2.0, path_min=2))
    rng = np.random.default_rng(19)
    for fm, emb in ((easy, collapsed), (flow, flow_emb), (chain_fm, None)):
        part = fm.structured_sparse.toarray()
        y = float(fm.y)
        assert np.allclose(part + y * np.eye(fm.n), fm.assemble_dense(),
                           rtol=0, atol=1e-15)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(part))))
        assert 0 < norm <= fm.structured_bound * (1 + 1e-12), fm.case
        if fm.case == "easy":
            assert math.isclose(norm, fm.structured_bound, rel_tol=1e-12)
            assert norm > fm.width_bound - abs(y)
        else:
            assert math.isclose(fm.structured_bound, fm.width_bound - abs(y),
                                rel_tol=1e-12), fm.case
        # the solver's N.X = y sum ||v_i||^2 + (N - y I).X
        if emb is None:
            emb = Embedding(vectors=rng.standard_normal((3, fm.n)))
        split = y * float(emb.norms_sq.sum()) + emb.inner(fm.structured_sparse)
        assert math.isclose(split, emb.inner(fm.assemble_dense()), rel_tol=1e-12)
    # rows no term touches are empty: vertex 5 is on no path, and the
    # two-vertex path (3, 4) is identically zero
    assert np.diff(chain_fm.structured_sparse.indptr).tolist() == [2, 3, 2, 0, 0, 0]


def test_matching_breaks_projection_ties_by_vertex_id(monkeypatch):
    # projections 1, 0, 1, 0, 1, 0: the sort order is 1, 3, 5, 0, 2, 4,
    # so the two-vertex slices are {1, 3} and {2, 4}
    g, _, params = matching_setup()
    emb = line_embedding([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    sides = []
    build = oracle_mod.build_split_network

    def spy(g, a_side, b_side, *args):
        sides.append((a_side, b_side))
        return build(g, a_side, b_side, *args)

    monkeypatch.setattr(oracle_mod, "build_split_network", spy)
    matching(g, emb, np.array([1.0]), params)
    assert sides == [([1, 3], [2, 4])]
    assert all(type(v) is int for side in sides[0] for v in side)


# ---------------------------------------------------------------------------
# chain: integration
# ---------------------------------------------------------------------------

def test_chain_short_circuits_on_separator():
    g, emb, params = separator_setup()
    counters = OracleCounters()
    out = chain(g, emb, params, np.random.default_rng(0), counters)
    assert isinstance(out, SeparatorOutcome)
    assert counters.matching_calls == 1
    assert counters.chain_attempts == 1


def test_chain_budget_exhaustion():
    # orthogonal embedding: every composed triple has hop total 4 and
    # endpoint distance 2, so nothing ever violates and the budget runs out
    n = 6
    g = with_weights(complete_graph(n), [3] * n)
    emb = Embedding(vectors=np.eye(n))
    params = mk_params(n=n, alpha=1, c_prime=F(1, 6), beta_p=1, beta_q=4,
                       delta_spread=3.0, k_rounds=2, attempt_budget=6)
    counters = OracleCounters()
    with pytest.raises(OracleError) as info:
        chain(g, emb, params, np.random.default_rng(5), counters)
    assert info.value.harvested == 0
    assert counters.matching_calls == 6  # budget spent exactly
    assert counters.chain_attempts == 4  # fourth attempt hits the wall


def test_chain_fires_on_scripted_matchings(monkeypatch):
    # scripted rounds isolate the composition logic: two matchings whose
    # composition yields two violating chains, firing at path_min = 2
    emb = line_embedding([0.0, 0.6, 0.0, 0.6, 3.0, 3.0])
    g = complete_graph(6)
    params = mk_params(n=6, alpha=1, delta_spread=2.0, k_rounds=2,
                       path_min=2, attempt_budget=10)
    script = [
        MatchingOutcome(pairs=((0, 1), (2, 3))),
        MatchingOutcome(pairs=((1, 4), (3, 5))),
    ]
    calls = []

    def fake_matching(g_, emb_, u_, params_, counters_=None):
        calls.append(u_)
        return script[len(calls) - 1]

    monkeypatch.setattr(oracle_mod, "matching", fake_matching)
    out = chain(g, emb, params, np.random.default_rng(1))
    assert isinstance(out, FeedbackOutcome)
    fm = out.feedback
    assert fm.case == "chain"
    assert sorted(p for p, _ in fm.path_terms) == [(0, 1, 4), (2, 3, 5)]
    assert fm.unit == 2 * F(1) / (2 * F(2.0))
    for p, m in fm.path_terms:
        assert m == 1
        assert check_violating(p, emb, params.delta_spread)
    assert len(calls) == 2
    # each float entry is its exact value rounded once
    assert floats_are_exact(fm)
    # the emitted matrix's exact norm sits inside its certified width,
    # which sits inside the chain bound the schedule plans with
    assert spectral_norm(fm.assemble_dense()) <= fm.width_bound * (1 + 1e-9)
    assert fm.width_bound <= MMWUSchedule.case_width_bounds(params)["chain"] * (1 + 1e-9)


def test_chain_deduplicates_harvest(monkeypatch):
    # the same violating chain appearing twice counts once; with
    # path_min = 2 the budget then runs out at harvested = 1
    emb = line_embedding([0.0, 0.6, 3.0, 9.9])
    g = complete_graph(4)
    params = mk_params(n=4, alpha=1, delta_spread=2.0, k_rounds=2,
                       path_min=2, attempt_budget=4)
    script = [
        MatchingOutcome(pairs=((0, 1),)),
        MatchingOutcome(pairs=((1, 2),)),
    ]
    state = {"i": 0}

    def scripted(g_, emb_, u_, params_, counters_=None):
        out = script[state["i"] % 2]
        state["i"] += 1
        return out

    monkeypatch.setattr(oracle_mod, "matching", scripted)
    with pytest.raises(OracleError) as info:
        chain(g, emb, params, np.random.default_rng(2))
    assert info.value.harvested == 1


# ---------------------------------------------------------------------------
# full oracle
# ---------------------------------------------------------------------------

def test_run_oracle_easy_precedence():
    g = complete_graph(5)
    emb = Embedding(vectors=np.ones((2, 5)) * 0.5)
    counters = OracleCounters()
    out = run_oracle(g, emb, mk_params(n=5), np.random.default_rng(3), counters)
    assert isinstance(out, FeedbackOutcome)
    assert out.feedback.case == "easy"
    assert counters.matching_calls == 0
    assert counters.maxflow_calls == 0
    assert counters.outcome_tags == {"easy": 1}


def test_run_oracle_falls_through_to_matching():
    g, emb, params = separator_setup()
    counters = OracleCounters()
    out = run_oracle(g, emb, params, np.random.default_rng(4), counters)
    assert isinstance(out, SeparatorOutcome)
    assert counters.outcome_tags == {"separator": 1}


def test_run_oracle_seed_key_matches_generator(monkeypatch):
    # a seed key draws the same directions as the Generator of its
    # SeedSequence, so passing keys leaves every solve's stream unchanged
    g, emb, params = separator_setup()
    real_matching = oracle_mod.matching
    drawn = []

    def recording(g_, emb_, u_, params_, counters_=None):
        drawn.append(u_.copy())
        return real_matching(g_, emb_, u_, params_, counters_)

    monkeypatch.setattr(oracle_mod, "matching", recording)
    key = [7, 2, 0, 0]
    by_key = run_oracle(g, emb, params, key, OracleCounters())
    ss = np.random.SeedSequence(key)
    by_gen = run_oracle(g, emb, params, np.random.default_rng(ss), OracleCounters())
    assert len(drawn) == 2
    assert np.array_equal(drawn[0], drawn[1])
    assert by_key.separator == by_gen.separator
