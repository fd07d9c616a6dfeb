"""Structured feedback matrices, the running update of A, matrix-exponential
embeddings, and spectral estimates.

Reference values come from two routes that never share code with the
module under test: closed-form results for diagonal matrices, and
scipy.linalg.expm for dense ones.
"""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import vsep.embedding
from vsep.embedding import (
    DENSE_CAP,
    AccumulatedOperator,
    Embedding,
    FeedbackCase,
    FeedbackMatrix,
    ScheduleError,
    approximation_violations,
    dense_reference,
    embeds_exactly,
    largest_eigenvalue,
    log_guard,
    project_embedding,
    projection_dimension,
    spectral_norm,
    structured_entries,
    symmetric_dense,
    taylor_terms,
    _expm_action,
    _sign_probes,
)

F = Fraction


# ---------------------------------------------------------------------------
# independent dense assemblers for the structured terms
# ---------------------------------------------------------------------------

def edge_laplacian(n, i, j):
    m = np.zeros((n, n))
    m[i, i] += 1
    m[j, j] += 1
    m[i, j] -= 1
    m[j, i] -= 1
    return m


def spread_matrix(n, s):
    """|S| diag(1_S) - 1_S 1_S^T, assembled directly."""
    ind = np.zeros(n)
    ind[list(s)] = 1
    return len(s) * np.diag(ind) - np.outer(ind, ind)


def path_matrix(n, p):
    """Sum of hop Laplacians minus the endpoint Laplacian."""
    m = np.zeros((n, n))
    for u, v in zip(p, p[1:]):
        m += edge_laplacian(n, u, v)
    return m - edge_laplacian(n, p[0], p[-1])


def entries_to_dense(n, entries):
    m = np.zeros((n, n))
    for (i, j), v in entries.items():
        m[i, j] += float(v)
        if i != j:
            m[j, i] += float(v)
    return m


def hop_loads(path_terms):
    """Each edge's load: the multiplicity of the paths that hop over it."""
    loads = {}
    for p, m in path_terms:
        for a, b in zip(p, p[1:]):
            e = (min(a, b), max(a, b))
            loads[e] = loads.get(e, 0) + m
    return loads


def exact_entries(fm, scalar=True):
    """fm's exact upper-triangle entries, from its coefficients unit * m
    by structured_entries, expanding every hop of every path and, for a
    routed step, subtracting its paths' edge loads; with ``scalar``
    false, those of N - y I."""
    r = fm.record
    spread = ()
    if fm.easy_set is not None:
        spread = ((fm.easy_set[0], r.unit * fm.easy_set[1]),)
    loads = hop_loads(fm.path_terms) if r.routed else {}
    return structured_entries(
        (r.y,) * r.n if scalar else (),
        spread,
        [(p, r.unit * m) for p, m in fm.path_terms],
        [(e, r.unit * m) for e, m in loads.items()],
    )


def reference_dense(fm, scalar=True):
    """fm assembled from its exact entries with one float() per entry;
    with ``scalar`` false, N - y I."""
    return entries_to_dense(fm.record.n, exact_entries(fm, scalar))


def floats_are_exact(fm):
    """The float form the solver adds to A, N - y I, equals its reference
    bitwise, mirrored dense (the exact regime) and as CSR (the sketch
    regime)."""
    want = reference_dense(fm, scalar=False)
    return (np.array_equal(symmetric_dense(fm.record.n, fm.structured_floats()), want)
            and np.array_equal(fm.structured_sparse.toarray(), want))


# ---------------------------------------------------------------------------
# structured entries and FeedbackMatrix
# ---------------------------------------------------------------------------

def test_structured_entries_match_direct_assembly():
    n = 7
    y = (F(1), F(-2), F(0), F(3, 2), F(0), F(5), F(-1, 3))
    spread = (((0, 2, 5), F(1, 4)),)
    paths = (((1, 3, 4), F(2, 3)), ((0, 6), F(1, 2)))
    lam = (((1, 3), F(1, 5)), ((2, 4), F(3)))
    got = entries_to_dense(n, structured_entries(y, spread, paths, lam))
    want = np.diag([float(v) for v in y])
    want += 0.25 * spread_matrix(n, (0, 2, 5))
    want += (2 / 3) * path_matrix(n, (1, 3, 4)) + 0.5 * path_matrix(n, (0, 6))
    want -= 0.2 * edge_laplacian(n, 1, 3) + 3 * edge_laplacian(n, 2, 4)
    assert np.allclose(got, want, atol=1e-12)


def test_two_vertex_path_term_is_identically_zero():
    # a single-hop path matrix is its own endpoint Laplacian
    entries = structured_entries(
        (F(0),) * 4, (), (((1, 3), F(7, 2)),), ()
    )
    assert entries == {}


def test_path_term_cancels_against_edge_coefficient():
    # the hop (0,1) of the path and lambda_01 = f erase each other exactly
    f = F(1, 3)
    entries = structured_entries(
        (F(0),) * 3, (), (((0, 1, 2), f),), (((0, 1), f),)
    )
    assert (0, 1) not in entries
    assert entries[(1, 2)] == -f
    assert entries[(0, 2)] == f
    assert entries[(0, 0)] == -f  # hop +f, endpoint -f, lambda -f
    assert entries[(1, 1)] == f  # two hops +2f, lambda -f
    assert (2, 2) not in entries  # hop +f, endpoint -f


def test_feedback_matrix_dense_and_inner():
    n = 5
    # coefficients 1/10 and 1/7 in the common unit 1/630
    case = FeedbackCase.build("custom", n, F(1), F(9, 16), F(1, 5), F(1, 630), 10.0)
    fm = FeedbackMatrix(
        case,
        easy_set=((0, 1, 2), 63),
        path_terms=(((0, 2, 4), 90),),
        width_bound=10.0,
    )
    want = np.diag([0.2] * n)
    want += 0.1 * spread_matrix(n, (0, 1, 2))
    want += (1 / 7) * path_matrix(n, (0, 2, 4))
    dense = fm.structured_sparse.toarray() + 0.2 * np.eye(n)
    assert np.allclose(dense, want, atol=1e-12)

    x = np.arange(n * n, dtype=float).reshape(n, n)
    x = (x + x.T) / 2
    direct = sum(
        want[i, j] * x[i, j] for i in range(n) for j in range(n)
    )
    assert math.isclose(float(np.sum(dense * x)), direct, rel_tol=1e-10)

    # n y = 1 = alpha: the budget holds with no easy set at all
    assert (case.den, case.y_num, case.unit_num, case.min_easy) == (630, 126, 1, 0)


def test_routed_step_is_its_demand_pair_laplacian():
    # a routed record's paths imply their edge loads: lambda_01 = 2,
    # lambda_12 = 2 + 3 and lambda_23 = 3 cancel every hop, leaving
    # N - y I = -unit (2 L_02 + 3 L_13) on the path ends alone
    n = 5
    case = FeedbackCase.build("flow", n, F(1), F(9, 16), F(1, 5), F(1, 6), 10.0,
                              routed=True)
    fm = FeedbackMatrix(case, path_terms=(((0, 1, 2), 2), ((3, 2, 1), 3)))
    want = -(2 * edge_laplacian(n, 0, 2) + 3 * edge_laplacian(n, 1, 3)) / 6
    assert np.array_equal(fm.structured_sparse.toarray(), want)
    loads = {(0, 1): 2, (1, 2): 5, (2, 3): 3}
    assert hop_loads(fm.path_terms) == loads
    expanded = (2 * path_matrix(n, (0, 1, 2)) + 3 * path_matrix(n, (3, 2, 1))
                - sum(m * edge_laplacian(n, *e) for e, m in loads.items())) / 6
    assert np.allclose(expanded, want, rtol=0, atol=1e-15)
    assert floats_are_exact(fm)
    # vertex 4 is on no path and vertices 0 and 3 only end one
    assert sorted(fm.structured_floats()) == [(0, 0), (0, 2), (1, 1), (1, 3),
                                              (2, 2), (3, 3)]
    # the same paths on a record that is not routed keep their hops
    plain = FeedbackMatrix(replace(case, routed=False), path_terms=fm.path_terms)
    assert np.allclose(plain.structured_sparse.toarray(),
                       (2 * path_matrix(n, (0, 1, 2)) + 3 * path_matrix(n, (3, 2, 1))) / 6,
                       rtol=0, atol=1e-15)


def test_feedback_matrix_validation():
    case = FeedbackCase.build("custom", 3, F(0), F(9, 16), F(0), F(1), 0.0)
    zero = FeedbackMatrix(case)
    assert zero.structured_floats() == {}
    assert case.min_easy == 0  # budget: sum(y) = 0 >= alpha = 0
    assert np.array_equal(zero.structured_sparse.toarray(), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        FeedbackCase.build("custom", 3, F(0), F(9, 16), F(0), F(0), 0.0)
    with pytest.raises(ValueError):
        FeedbackMatrix(case, easy_set=((0, 0), 1))
    with pytest.raises(ValueError):
        FeedbackMatrix(case, easy_set=((0, 1), -1))
    with pytest.raises(ValueError):
        FeedbackMatrix(case, path_terms=(((0, 1, 0), 1),))
    with pytest.raises(ValueError):
        FeedbackMatrix(case, path_terms=(((2,), 1),))
    with pytest.raises(ValueError):
        FeedbackMatrix(case, path_terms=(((0, 1), F(1, 2)),))
    # budget: sum(y) = 0 < alpha = 1; xi n^2 unit = 81/16 per easy-set copy
    short = FeedbackCase.build("custom", 3, F(1), F(9, 16), F(0), F(1), 0.0)
    assert short.min_easy == 1
    with pytest.raises(ValueError):
        FeedbackMatrix(short)
    with pytest.raises(ValueError):
        FeedbackMatrix(short, easy_set=((0, 1), 0))
    FeedbackMatrix(short, easy_set=((0, 1), 1))


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------

def make_random_feedback(rng, n):
    # y stays non-negative so sum(y) >= alpha = 0 always holds; path
    # coefficients k/3 in the unit 1/6, on a routed record (edge loads
    # implied) or not (hops kept)
    y = F(rng.integers(0, 6).item(), rng.integers(1, 7).item())
    paths = []
    for _ in range(rng.integers(0, 4)):
        length = int(rng.integers(2, min(n, 5) + 1))
        p = tuple(int(v) for v in rng.permutation(n)[:length])
        paths.append((p, 2 * rng.integers(0, 4).item()))
    routed = bool(rng.integers(0, 2))
    return FeedbackMatrix(
        FeedbackCase.build("custom", n, F(0), F(9, 16), y, F(1, 6), 10.0,
                           routed=routed),
        path_terms=tuple(paths),
        width_bound=float(rng.integers(1, 10)),
    )


def test_incremental_sparse_update_matches_accumulate():
    # the sketch regime's running A + eta * (N - y I) against the exact
    # sum of the history, formed as Fractions and rounded once
    rng = np.random.default_rng(13)
    n = 9
    history = [make_random_feedback(rng, n) for _ in range(20)]
    eta = F(2, 7)
    a = sp.csr_matrix((n, n))
    total: dict = {}
    for fm in history:
        a = a + float(eta) * fm.structured_sparse
        for key, v in exact_entries(fm, scalar=False).items():
            total[key] = total.get(key, 0) + v * eta
    want = entries_to_dense(n, total)
    assert np.allclose(a.toarray(), want, rtol=0, atol=1e-12)
    for fm in history:
        assert floats_are_exact(fm)


def test_accumulated_operator_matvec():
    a = np.array([[2.0, -1.0], [-1.0, 3.0]])
    op = AccumulatedOperator(2, sp.csr_matrix(a))
    u = np.array([1.0, 2.0])
    assert np.allclose(op.matrix @ u, a @ u)
    assert np.array_equal(op.matrix.toarray(), a)


# ---------------------------------------------------------------------------
# matrix-exponential embeddings
# ---------------------------------------------------------------------------

def test_dense_reference_diagonal_closed_form():
    # for A = diag(a), X = n * diag(exp(a_i)) / sum(exp(a_j)), exactly
    a = np.diag([0.3, -1.2, 0.0, 2.5])
    v = dense_reference(a)
    gram = v.T @ v
    exps = [math.exp(x) for x in (0.3, -1.2, 0.0, 2.5)]
    total = sum(exps)
    want = np.diag([4 * e / total for e in exps])
    assert np.allclose(gram, want, atol=1e-12)


def test_dense_reference_matches_scipy_expm():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(3, 13))
        sym = rng.standard_normal((n, n))
        sym = (sym + sym.T) / 2
        v = dense_reference(sym)
        ex = scipy.linalg.expm(sym)
        want = n * ex / np.trace(ex)
        assert np.allclose(v.T @ v, want, atol=1e-8)


def test_dense_reference_guards():
    with pytest.raises(ValueError):
        dense_reference(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        dense_reference(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # symmetry is exact: one off-diagonal pair 1e-9 apart is rejected
    near = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25 + 1e-9, 3.0]])
    with pytest.raises(ValueError):
        dense_reference(near)
    # the size guard is the embedding rule
    with pytest.raises(ValueError):
        dense_reference(np.zeros((DENSE_CAP + 1, DENSE_CAP + 1)))
    # large entries must not overflow thanks to the spectral shift
    v = dense_reference(np.diag([1000.0, 0.0]))
    assert np.isfinite(v).all()
    gram = v.T @ v
    assert math.isclose(gram[0, 0], 2.0, rel_tol=1e-9)


def random_sparse_symmetric(rng, n, norm):
    """Sparse symmetric matrix with spectral norm exactly ``norm``."""
    m = sp.random(n, n, density=0.15, random_state=rng)
    m = (m + m.T).tocsr()
    return m * (norm / spectral_norm(m.toarray()))


def test_expm_action_scalar_and_against_scipy(monkeypatch):
    # one-dimensional case: the series stops at unit roundoff
    got = _expm_action(sp.csr_matrix([[0.7]]), np.array([[1.0]]), 0.7)
    assert math.isclose(got[0, 0], math.exp(0.7), rel_tol=1e-14)

    rng = np.random.default_rng(29)
    n, d = 30, 6
    u = rng.standard_normal((n, d))
    for norm in (1e-6, 0.5, 4.0, 40.0):
        m = random_sparse_symmetric(rng, n, norm)
        got = _expm_action(m, u, norm)
        # relative in the Frobenius norm: entries of exp(A) u near zero
        # carry the references' own cancellation error
        want = scipy.linalg.expm(m.toarray()) @ u
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # and, tighter, against the eigendecomposition of the symmetric A
        w, vecs = np.linalg.eigh(m.toarray())
        want = (vecs * np.exp(w)) @ (vecs.T @ u)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    # at norm 40 only the 40 scaling steps keep each series short: with
    # a 30-term cap per step, one unscaled step cannot converge
    m = random_sparse_symmetric(rng, n, 40.0)
    monkeypatch.setattr(vsep.embedding, "DEFAULT_K_CAP", 30)
    _expm_action(m, u, 40.0)
    with pytest.raises(ScheduleError, match="within 30 terms of one scaling step"):
        _expm_action(m, u, 1.0)
    # the floor is keyword-only: a stale positional term budget fails loudly
    with pytest.raises(TypeError):
        _expm_action(m, u, 40.0, 30)


def test_expm_action_zero_and_non_finite():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((8, 3))
    got = _expm_action(sp.csr_matrix((8, 8)), u, 0.0)
    assert np.array_equal(got, u)
    bad = random_sparse_symmetric(rng, 8, 1.0).tolil()
    bad[2, 5] = bad[5, 2] = np.nan
    # a NaN never meets the stopping rule; the per-step cap ends the loop
    with pytest.raises(ScheduleError):
        _expm_action(bad.tocsr(), u, 1.0)


def test_dimension_and_term_formulas():
    assert projection_dimension(64, 0.25) == math.ceil(
        4.0 * math.log(64) / 0.0625
    )
    assert projection_dimension(2, 0.25) == math.ceil(4.0 / 0.0625)  # log guard
    assert embeds_exactly(2) and embeds_exactly(DENSE_CAP)
    assert not embeds_exactly(DENSE_CAP + 1) and not embeds_exactly(1000)
    assert taylor_terms(64, 0.125, 1.0) == math.ceil(
        4.0 * math.log(64 ** 2.5 / 0.125)
    )
    assert taylor_terms(4, 10.0, 9.0) == math.ceil(4.0 * 81)
    assert log_guard(2) == 1.0
    assert math.isclose(log_guard(100), math.log(100))


def test_project_embedding_deterministic_and_normalized():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 10))
    a = (a + a.T) / 4
    op = AccumulatedOperator(10, sp.csr_matrix(a))
    lam = spectral_norm(a)
    e1 = project_embedding(op, 0.25, 0.125, lam, seed=42)
    e2 = project_embedding(op, 0.25, 0.125, lam, seed=42)
    e3 = project_embedding(op, 0.25, 0.125, lam, seed=43)
    assert np.array_equal(e1.vectors, e2.vectors)
    assert not np.array_equal(e1.vectors, e3.vectors)
    assert math.isclose(float(np.sum(e1.norms_sq)), 10.0, rel_tol=1e-9)


def test_project_embedding_at_zero_matches_the_series_path():
    # A = 0 skips the exponential; the sketch must be bit-identical to the
    # one the series path gives, layout included: vertex-major, so that
    # vectors.T is the C-ordered n x d block
    n, seed = 30, 5
    zero = sp.csr_matrix((n, n))
    d = projection_dimension(n, 0.25)
    probes = _sign_probes(np.random.default_rng(seed), n, d)
    want = _expm_action(zero, probes, 0.0)
    assert want.flags.c_contiguous
    want *= np.sqrt(n / float(np.vdot(want, want)))
    got = project_embedding(AccumulatedOperator(n, zero), 0.25, 0.125, 0.0, seed)
    assert np.array_equal(got.vectors, want.T)
    assert got.vectors.T.flags.c_contiguous
    a = sp.random(n, n, density=0.2, random_state=1)
    a = ((a + a.T) * 0.5).tocsr()
    lam = spectral_norm(a.toarray())
    series = project_embedding(AccumulatedOperator(n, a), 0.25, 0.125, lam, seed)
    assert series.vectors.T.flags.c_contiguous


def test_sign_probes_are_exact_signs():
    n, d = 40, projection_dimension(40, 0.25)
    probes = _sign_probes(np.random.default_rng(0), n, d)
    assert probes.shape == (n, d) and probes.flags.c_contiguous
    s = 1.0 / math.sqrt(d)
    assert np.all((probes == s) | (probes == -s))
    assert 0 < np.count_nonzero(probes > 0) < n * d
    # at A = 0 every squared norm is d / d = 1, before and after the
    # trace normalization
    emb = project_embedding(
        AccumulatedOperator(n, sp.csr_matrix((n, n))), 0.25, 0.125, 0.0, seed=0
    )
    assert np.all(np.abs(emb.norms_sq - 1.0) <= 1e-12)


def test_series_kernel_keeps_the_bits_of_its_first_form():
    # the first partial sum is u + term, the probes 2s b - s from one
    # boolean draw: both against their written-out forms, bit for bit
    def reference_series(m, u, norm_bound, max_terms):
        eps = np.finfo(float).eps
        s = max(1, math.ceil(norm_bound))
        for _ in range(s):
            acc = u.copy()
            term = u
            for j in range(1, max_terms + 1):
                term = m @ term
                term /= s * j
                acc += term
                if max(term.max(), -term.min()) <= eps * max(acc.max(), -acc.min()):
                    break
            u = acc
        return u

    rng = np.random.default_rng(41)
    u = rng.standard_normal((30, 5))
    for norm in (1e-3, 0.7, 3.5):
        m = random_sparse_symmetric(rng, 30, norm)
        assert np.array_equal(_expm_action(m, u, norm),
                              reference_series(m, u, norm, 100))
    for d in (1, 2, 3, 384, 436, 443):
        s = 1.0 / math.sqrt(d)
        bits = np.random.default_rng(d).integers(0, 2, size=(7, d), dtype=bool)
        got = _sign_probes(np.random.default_rng(d), 7, d)
        assert np.array_equal(got, np.where(bits, s, -s))
        assert got.flags.c_contiguous


# sha256 of the block's bytes, then the generator's next double and next
# 32-bit word, recorded from the boolean draw the probes were first made by
PINNED_PROBES = {
    (1000, 421): ("137a3e1e5b1914c79d6a4d3e796c0394fc3ba9d32ac396078b4d7bda929d2a47",
                  0.3533444951692686, 177470574),
    (7, 5): ("a54d36115065c5e55abdacdd98a3867c5dba68533a4cb57e08718fcf3ccc73b7",
             0.2697867137638703, 1322117304),
    (33, 1): ("8016d9f999cce95e01ee43aebbcd9daab5ce920d5184525b77f44bbaaf72d7d9",
              0.2697867137638703, 1322117304),
}


@pytest.mark.parametrize("n, d", sorted(PINNED_PROBES))
def test_sign_probes_keep_their_pinned_bits(n, d):
    # the block and the generator's state after it, both at seed 0
    rng = np.random.default_rng(0)
    block = _sign_probes(rng, n, d)
    got = (hashlib.sha256(block.tobytes()).hexdigest(), rng.random(),
           int(rng.integers(0, 1 << 32, dtype=np.uint32)))
    assert got == PINNED_PROBES[n, d]


def touched_rows_operator(rng, n, rows, norm):
    """Symmetric CSR whose entries lie on ``rows`` x ``rows`` only, with
    spectral norm ``norm``: the other rows and columns are empty."""
    k = len(rows)
    inner = random_sparse_symmetric(rng, k, norm).tocoo()
    rows = np.asarray(rows)
    a = sp.csr_matrix((inner.data, (rows[inner.row], rows[inner.col])), shape=(n, n))
    assert a.has_sorted_indices
    return a


def normalized_series(a, n, lam, seed):
    """The sketch by the series on the whole probe block."""
    d = projection_dimension(n, 0.25)
    block = _expm_action(a * 0.5, _sign_probes(np.random.default_rng(seed), n, d),
                         lam / 2)
    block *= np.sqrt(n / float(np.vdot(block, block)))
    return block


@pytest.mark.parametrize("norm, shift", [(6.0, 3.0), (2.0, -12.0)])
def test_sketch_on_touched_rows_is_the_full_block_series(norm, shift):
    # exp(A/2) is the identity on A's empty rows: the series on the rows
    # with entries, stopped with the idle rows' largest |entry| in view,
    # gives the full-block series' block bit for bit.  A shift of -12
    # shrinks the touched rows below the idle probes, so that entry
    # decides when each series stops; every case takes several scaling
    # steps
    rng = np.random.default_rng(43)
    n, seed = 90, 7
    rows = sorted(rng.choice(n, size=25, replace=False).tolist())
    on_rows = np.isin(np.arange(n), rows)
    a = touched_rows_operator(rng, n, rows, norm)
    a = (a + sp.diags(np.where(on_rows, shift, 0.0))).tocsr()
    lam = float(spectral_norm(a.toarray()))
    assert np.count_nonzero(np.diff(a.indptr)) == 25 and lam > 4
    got = project_embedding(AccumulatedOperator(n, a), 0.25, 0.125, lam, seed)
    assert np.array_equal(got.vectors.T, normalized_series(a, n, lam, seed))
    assert got.vectors.T.flags.c_contiguous


def test_sketch_ignores_the_scalar_part():
    # X is invariant under A -> A + cI: B, whose empty rows skip the
    # series, and B + cI, which runs it on every row, sketch the same X
    rng = np.random.default_rng(47)
    n, seed, c = 80, 3, 0.75
    b = touched_rows_operator(rng, n, list(range(10, 40)), 1.5)
    shifted = (b + c * sp.identity(n, format="csr")).tocsr()
    lam = float(spectral_norm(b.toarray()))
    e1 = project_embedding(AccumulatedOperator(n, b), 0.25, 0.125, lam, seed)
    e2 = project_embedding(AccumulatedOperator(n, shifted), 0.25, 0.125, lam + c, seed)
    assert np.linalg.norm(e1.vectors - e2.vectors) <= 1e-12 * np.linalg.norm(e2.vectors)
    assert not np.array_equal(e1.vectors, e2.vectors)


def test_project_embedding_guards(monkeypatch):
    op = AccumulatedOperator(4, sp.csr_matrix((4, 4)))
    with pytest.raises(ValueError):
        project_embedding(op, 0.6, 0.125, 0.0, seed=0)
    with pytest.raises(ValueError):
        project_embedding(op, 0.25, 0.0, 0.0, seed=0)
    with monkeypatch.context() as m:
        m.setattr(vsep.embedding, "DEFAULT_D_CAP", 2)
        with pytest.raises(ScheduleError):
            project_embedding(op, 0.25, 0.125, 0.0, seed=0)
    # at A = 0 no series runs, so the term cap is checked on an A with
    # entries: one scaling step of a norm-1 A needs more than 2 terms
    a = AccumulatedOperator(4, sp.csr_matrix(np.eye(4)))
    with monkeypatch.context() as m:
        m.setattr(vsep.embedding, "DEFAULT_K_CAP", 2)
        with pytest.raises(ScheduleError, match="within 2 terms"):
            project_embedding(a, 0.25, 0.125, 2.0, seed=0)
    # at the default caps the same calls succeed
    assert project_embedding(op, 0.25, 0.125, 0.0, seed=0).n == 4
    assert project_embedding(a, 0.25, 0.125, 2.0, seed=0).n == 4


def test_projection_accuracy_against_dense():
    # aggregate sketch-accuracy rate over a few seeds and operators; the
    # per-pair failure rate scales like exp(-c_d log n / 2), so small n
    # warrants a looser gate here.  The acceptance suite runs the
    # full-size version at the sizes the guarantee targets.
    rng = np.random.default_rng(19)
    bad = total = 0
    for trial in range(5):
        n = int(rng.integers(16, 33))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / (2 * n)  # keep ||A|| modest, as the schedule does
        lam = float(spectral_norm(a))
        op = AccumulatedOperator(n, sp.csr_matrix(a))
        emb = project_embedding(op, 0.25, 0.125, lam, seed=trial)
        exact = dense_reference(a)
        b, t = approximation_violations(emb, exact, 0.25, 0.125)
        bad += b
        total += t
    assert total > 500
    assert bad <= 0.025 * total


def test_dense_embedding_is_exact():
    # V = dense_reference(A) against the symmetric square root of
    # X = n expm(A) / Tr(expm(A)), both Gram factorizations of X
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 4
    emb = Embedding(vectors=dense_reference(a))
    ex = scipy.linalg.expm(a)
    x = 8 * ex / np.trace(ex)
    bad, total = approximation_violations(
        emb, np.real(scipy.linalg.sqrtm(x)), 0.25, 0.125
    )
    assert bad == 0 and total == 8 + 28
    assert np.allclose(emb.gram(), x, atol=1e-10)
    assert math.isclose(float(np.sum(emb.norms_sq)), 8.0, rel_tol=1e-12)


def test_spread_over_matches_double_loop():
    vectors = np.random.default_rng(5).standard_normal((6, 9))
    # the same vectors d-major, and vertex-major as the module builds them
    vertex_major = np.ascontiguousarray(vectors.T).T
    assert vertex_major.T.flags.c_contiguous
    for v in (vectors, vertex_major):
        emb = Embedding(vectors=v)
        direct_norms = [sum(x * x for x in v[:, i]) for i in range(9)]
        assert np.allclose(emb.norms_sq, direct_norms, rtol=1e-12, atol=0)
        for s in ([1, 3, 4, 8], list(range(9))):
            direct = sum(
                emb.dist_sq(s[i], s[j])
                for i in range(len(s))
                for j in range(i + 1, len(s))
            )
            assert math.isclose(emb.spread_over(s), direct, rel_tol=1e-10)
        assert emb.spread_over([2]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# spectral estimates
# ---------------------------------------------------------------------------

def test_spectral_norm_dense_exact():
    m = np.diag([3.0, -5.0, 1.0])
    assert spectral_norm(m) == 5.0
    assert largest_eigenvalue(m) == 3.0


def test_forged_certificate_above_dense_cap_rejected():
    # the eigen-check is exact at every n: one small positive eigenvalue
    # next to close negative ones must be seen, and the certificate's
    # top-eigenvalue test must reject the matrix
    n = 80
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    for top in (1e-4, 1e-3):
        vals = np.concatenate(([top], -1e-4 - np.linspace(0.0, 1.0, n - 1)))
        m = (q * vals) @ q.T
        m = (m + m.T) / 2
        lam_max = largest_eigenvalue(m)
        assert lam_max >= top - 1e-12
        assert not lam_max <= 1e-6 * spectral_norm(m)

    # negative definite: lambda_max and the norm are both exact
    vals = -np.linspace(1.0, 9.0, n)
    m = (q * vals) @ q.T
    assert math.isclose(largest_eigenvalue(m), -1.0, rel_tol=1e-12)
    assert math.isclose(spectral_norm(m), 9.0, rel_tol=1e-12)
