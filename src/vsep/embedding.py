"""Feedback matrices and low-dimensional embeddings of the exponential
iterate.

The update loop maintains X = n * exp(A) / Tr(exp(A)) for an accumulated
symmetric A.  This module provides:

* :class:`FeedbackMatrix`, the structured symmetric matrices produced by
  the oracle: a scalar diagonal y plus one exact rational unit times
  non-negative integer multiplicities of spread and path terms, where y,
  the unit and the budget test live in the step's :class:`FeedbackCase`,
  built once per run and case, so a step holds integers only; a flow
  step's edge terms are implied by its routed paths, and cancel their
  hops;
* :class:`AccumulatedOperator`, A as a sparse matrix; the solver keeps
  it current by A + eta * N.structured_sparse each step, leaving out the
  scalar diagonal that X ignores (as its dense A does where the
  embedding is exact), and starts it at :data:`NO_ENTRIES`;
  :func:`norm_bound` bounds its norm by its largest absolute row sum;
* :func:`project_embedding`, a randomized sketch of the Gram columns of X:
  sign probes +-1/sqrt(d) (Achlioptas, JCSS 2003: the same JL bound as
  Gaussian ones at a fraction of the draw) multiplied by exp(A/2),
  evaluated by scaling and a Taylor series summed until its terms fall
  below unit roundoff, on the rows of A that have entries only, in
  O(nnz(A) d) time per term and without any n x n array;
* :func:`dense_reference`, the exact eigendecomposition-based Gram
  columns, used wherever :func:`embeds_exactly` holds and for validation;
* :func:`spectral_norm` / :func:`largest_eigenvalue`, by ``eigvalsh`` at
  every n.

Both embeddings are stored vertex-major: ``Embedding.vectors`` is the
d x n transposed view of a C-ordered n x d block, so each vertex's
vector is one contiguous row of ``vectors.T`` and no reader copies the
block.

This is the only module that imports scipy, and only ``scipy.sparse``,
where a sparse matrix is first built (:func:`_symmetric_csr`, reached by
the first ``FeedbackMatrix.structured_sparse``) or restricted: importing
vsep, the exact regime and a sketch at A = 0 need numpy alone.

Floating point is used for everything spectral.  A feedback matrix's
entries are exact: integer sums of multiplicities over its case's
denominator, each rounded to float once, so certificate identities can
be verified without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # imported where first used, to keep `import vsep` light
    import scipy.sparse as sp

Rational = Union[int, Fraction]

DEFAULT_GAMMA = 0.25
DEFAULT_C_D = 4.0
DEFAULT_C_K = 4.0  # taylor_terms' default c_k; nothing in vsep calls it
DEFAULT_D_CAP = 5000
# Taylor terms of one scaling step at most: a step that needs more has
# non-finite input, or its caller's norm bound lies below ||M||
DEFAULT_K_CAP = 2000
# largest n embedded exactly; above it every embedding is a sketch
DENSE_CAP = 64


class ScheduleError(RuntimeError):
    """The sketch cannot be formed within its caps: more dimensions than
    ``DEFAULT_D_CAP``, or a scaling step of the series that does not
    converge within ``DEFAULT_K_CAP`` terms."""


def log_guard(n: int) -> float:
    """max(ln n, 1): keeps schedule formulas positive at tiny n."""
    return max(np.log(max(n, 1)), 1.0)


def structured_entries(
    y: Iterable[Rational],
    spread_terms: Iterable[tuple[tuple[int, ...], Rational]],
    path_terms: Iterable[tuple[tuple[int, ...], Rational]],
    lam: Iterable[tuple[tuple[int, int], Rational]],
) -> dict[tuple[int, int], Rational]:
    """Exact upper-triangle entries of diag(y) + sum_S z_S K_S
    + sum_p f_p T_p - sum_ij lambda_ij L_ij.

    Coefficients are ints or Fractions, and so are the entries.  Exact
    accumulation makes structural cancellation (e.g. path terms against
    edge coefficients) produce true zeros, which are dropped.
    """
    e: dict[tuple[int, int], Rational] = {}

    def add(i: int, j: int, v: Rational) -> None:
        key = (i, j) if i <= j else (j, i)
        e[key] = e.get(key, 0) + v

    for i, yi in enumerate(y):
        if yi:
            add(i, i, yi)
    for s, z in spread_terms:
        if not z:
            continue
        k = len(s)
        for i in s:
            add(i, i, z * (k - 1))
        ss = sorted(s)
        for a in range(k):
            for b in range(a + 1, k):
                add(ss[a], ss[b], -z)
    for p, f in path_terms:
        if not f:
            continue
        for a, b in zip(p, p[1:]):
            add(a, a, f)
            add(b, b, f)
            add(a, b, -f)
        add(p[0], p[0], -f)
        add(p[-1], p[-1], -f)
        add(p[0], p[-1], f)
    for (i, j), lmb in lam:
        if lmb:
            add(i, i, -lmb)
            add(j, j, -lmb)
            add(i, j, lmb)
    return {k: v for k, v in e.items() if v}


def _check_multiplicity(m: int) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError("multiplicities must be non-negative integers")


@dataclass(frozen=True, eq=False)
class FeedbackCase:
    """One feedback case (easy, flow or chain) of one run: every exact
    constant its steps share, built once by :meth:`build`.

    ``y`` and ``unit`` are the case's scalar diagonal and coefficient
    unit, held also as the integer numerators ``y_num`` and ``unit_num``
    over their least common denominator ``den``.  ``bound`` is the
    case's a-priori spectral-norm bound, from which the schedule plans
    its width.  ``min_easy`` is the least easy-set multiplicity m_S >= 0
    with n y + xi n^2 unit m_S >= alpha, so a step meets the budget
    exactly when its m_S is at least ``min_easy``.  ``routed`` marks the
    flow case: a step's paths are the routes of one acyclic flow, and
    its edge terms are that flow's edge loads, lambda_e = sum_{p hops
    over e} m_p, which no step stores.  Records compare by identity: the
    solver's ledger keys its counts by the record.
    """

    name: str
    n: int
    y: Fraction
    unit: Fraction
    bound: float
    min_easy: int
    den: int
    y_num: int
    unit_num: int
    routed: bool = False

    @classmethod
    def build(
        cls, name: str, n: int, alpha: Rational, xi: Fraction,
        y: Rational, unit: Rational, bound: float, routed: bool = False,
    ) -> "FeedbackCase":
        y, unit = Fraction(y), Fraction(unit)
        if unit <= 0:
            raise ValueError("coefficient unit must be positive")
        den = math.lcm(y.denominator, unit.denominator)
        min_easy = max(0, math.ceil((alpha - n * y) / (xi * n * n * unit)))
        return cls(
            name, n, y, unit, bound, min_easy, den,
            y.numerator * (den // y.denominator),
            unit.numerator * (den // unit.denominator),
            routed,
        )

    def width(self, k: int) -> float:
        """max(|y|, y + unit k), rounded once: bounds ||N|| when N - y I
        is PSD with norm at most unit k (easy), and when y > 0 and
        ||N - y I|| <= unit k (flow, chain)."""
        return max(abs(self.y_num), self.y_num + self.unit_num * k) / self.den


@dataclass(frozen=True, eq=False)
class FeedbackMatrix:
    """One oracle feedback step
    N = y I + unit * (m_S K_S + sum_p m_p T_p - sum_ij lambda_ij L_ij),
    kept in structured form.

    T_p is the path-inequality matrix of path p (sum of hop Laplacians
    minus the endpoint Laplacian), K_S the pairwise-spread matrix of set S
    (|S| diag(1_S) - 1_S 1_S^T), and L_ij the single-edge Laplacian.
    ``record`` is the :class:`FeedbackCase` of the run and case that
    produced the step, which holds n, y and the unit; the step itself
    carries only non-negative integer multiplicities m, so every entry is
    an integer over the record's denominator, and the budget
    sum(y) + xi n^2 z >= alpha is the integer test m_S >= ``min_easy``.
    Only a routed record's steps have edge terms, and those are the
    loads of their own paths, lambda_ij = sum_{p hops over ij} m_p: the
    hop Laplacians cancel them, and N - y I = -unit L(D), the Laplacian
    of the demand pairs (p_0, p_end) with weights m_p.
    ``width_bound`` is the certified spectral-norm bound of this step.
    Its one float form is that of N - y I, :meth:`structured_floats`:
    X does not see a multiple of I, so the solver adds no y I to A in
    either regime, and mirrors these floats into a dense A where the
    embedding is exact and into a CSR (``structured_sparse``, which
    touches only the vertices of the easy set, the paths, or a routed
    step's path ends) in the sketch regime.  A is then the same matrix,
    bit for bit, in both.
    """

    record: FeedbackCase
    easy_set: Optional[tuple[tuple[int, ...], int]] = None
    path_terms: tuple[tuple[tuple[int, ...], int], ...] = ()
    width_bound: float = 0.0

    def __post_init__(self):
        n = self.record.n
        m_s = 0
        if self.easy_set is not None:
            s, m_s = self.easy_set
            _check_multiplicity(m_s)
            if len(set(s)) != len(s) or any(not 0 <= i < n for i in s):
                raise ValueError("easy set must be distinct in-range vertices")
        for p, m in self.path_terms:
            _check_multiplicity(m)
            if len(p) < 2 or len(set(p)) != len(p):
                raise ValueError("path must have at least 2 distinct vertices")
            if any(not 0 <= i < n for i in p):
                raise ValueError("path vertex out of range")
        if m_s < self.record.min_easy:
            raise ValueError(
                "feedback violates sum(y) + xi n^2 sum(z) >= alpha"
            )

    @property
    def case(self) -> str:
        return self.record.name

    def structured_floats(self) -> dict[tuple[int, int], float]:
        """Upper-triangle entries (i <= j) of N - y I: integer numerators
        over the record's denominator, each rounded to float once (int /
        int division is correctly rounded), exact zeros dropped.  A
        routed step's are those of -unit sum_p m_p L(p_0, p_end), formed
        from the path ends in O(paths): the same integers as the full
        expansion, whose hops cancel.  The solver mirrors them into its
        dense A, and ``structured_sparse`` into a CSR."""
        r = self.record
        u = r.unit_num
        if r.routed:
            num = structured_entries(
                (), (), (), [((p[0], p[-1]), u * m) for p, m in self.path_terms]
            )
        else:
            s, m_s = self.easy_set or ((), 0)
            num = structured_entries(
                (), [(s, u * m_s)], [(p, u * m) for p, m in self.path_terms], ()
            )
        return {key: v / r.den for key, v in num.items()}

    @cached_property
    def structured_sparse(self) -> sp.csr_matrix:
        """N - y I as CSR (both triangles): rows of vertices no term
        touches are empty."""
        return _symmetric_csr(self.record.n, self.structured_floats())


def symmetric_dense(
    n: int, upper: dict[tuple[int, int], Union[Rational, float]]
) -> np.ndarray:
    """Dense n x n array with the given upper-triangle entries mirrored
    below, each converted to float once."""
    m = np.zeros((n, n))
    for (i, j), v in upper.items():
        m[i, j] = m[j, i] = float(v)
    return m


def _symmetric_csr(n: int, upper: dict[tuple[int, int], float]) -> sp.csr_matrix:
    """CSR matrix with the given upper-triangle entries mirrored below."""
    import scipy.sparse as sp

    rows, cols, vals = [], [], []
    for (i, j), v in upper.items():
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class _NoEntries:
    """A = 0 before the first sketch-regime feedback: no entries, and
    A + M is M itself, so no sparse matrix (and no scipy) is needed until
    M exists."""

    nnz = 0

    def __add__(self, other):
        return other


NO_ENTRIES = _NoEntries()


@dataclass(frozen=True, eq=False)
class AccumulatedOperator:
    """Symmetric operator A, held as a sparse matrix, whose X is that of
    eta * sum_r N^(r).

    X = n exp(A)/Tr(exp(A)) does not change under A -> A - cI, so the
    solver keeps A = eta * sum_r (N^(r) - y_r I), current by
    A + eta * N.structured_sparse: no scalar fills the diagonal, and the
    rows of vertices no feedback has touched stay empty.  Products run in
    time proportional to the number of non-zeros, and :func:`norm_bound`
    reads the sketch's bound on ||A|| off the same entries.  The solver
    starts at ``NO_ENTRIES`` (``nnz`` 0, and ``+`` returns its operand),
    so a run that stops at A = 0 never imports scipy; the first update is
    the CSR eta * N.structured_sparse itself.
    """

    n: int
    matrix: Union[sp.csr_matrix, _NoEntries] = field(repr=False)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Columns of a d x n sketch whose Gram matrix approximates X.

    ``vectors[:, i]`` is the embedded vector of vertex i.  The embeddings
    this module builds are vertex-major (``vectors.T`` is C-contiguous),
    so that vector is a contiguous row of ``vectors.T``.  For the exact
    and the sketched embedding of X the squared column norms sum to n.
    """

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def norms_sq(self) -> np.ndarray:
        vt = self.vectors.T
        return np.einsum("ij,ij->i", vt, vt)

    def dist_sq(self, i: int, j: int) -> float:
        diff = self.vectors[:, i] - self.vectors[:, j]
        return float(diff @ diff)

    def gram(self) -> np.ndarray:
        return self.vectors.T @ self.vectors

    def inner(self, m: Union[np.ndarray, sp.spmatrix]) -> float:
        """Frobenius inner product m . (V^T V) for a symmetric m, dense or
        sparse, as sum((m V^T) * V^T): O(nnz(m) d), no n x n Gram."""
        vt = self.vectors.T
        return float(np.sum((m @ vt) * vt))

    def spread_over(self, s: Sequence[int]) -> float:
        """Sum of squared distances over unordered pairs of the distinct
        vertices s: |s| sum_i ||v_i||^2 - ||sum_i v_i||^2."""
        vt = self.vectors.T
        if len(s) == self.n:  # s = V: sum every row, gather nothing
            norms, center = self.norms_sq, vt.sum(axis=0)
        else:
            idx = list(s)
            norms, center = self.norms_sq[idx], vt[idx].sum(axis=0)
        return float(len(s) * norms.sum() - center @ center)


def projection_dimension(n: int, gamma: float, c_d: float = DEFAULT_C_D) -> int:
    return int(np.ceil(c_d * log_guard(n) / (gamma * gamma)))


def taylor_terms(
    n: int, tau: float, lambda_max: float, c_k: float = DEFAULT_C_K
) -> int:
    """The a-priori Taylor budget c_k max(lambda_max^2, ln(n^2.5 / tau), 1)
    of one unscaled series for exp(A).  Nothing in vsep calls it any more:
    each scaling step of :func:`_expm_action` stops at unit roundoff, and
    ``DEFAULT_K_CAP`` caps the terms of one step.  The benchmark's trace
    still reports it."""
    need = max(lambda_max * lambda_max, np.log(n ** 2.5 / tau), 1.0)
    return int(np.ceil(c_k * need))


def embeds_exactly(n: int) -> bool:
    """The embedding regime: exact (eigh, d = n) iff n <= DENSE_CAP, the
    sketch of :func:`project_embedding` otherwise."""
    return n <= DENSE_CAP


def _expm_action(
    m: sp.csr_matrix, u: np.ndarray, norm_bound: float, *, floor: float = 0.0
) -> np.ndarray:
    """exp(M) u for a sparse M with ||M||_2 <= norm_bound, on a C-ordered
    block u (one row per vertex), returned in the same layout.

    Applies exp(M / s) s times, s = max(1, ceil(norm_bound)), so each
    step's series converges at least as fast as that of exp(1).  A step
    sums Taylor terms until the largest entry of the term just added is
    at most machine epsilon times the largest entry of the partial sum,
    or ``floor`` if that is larger: the largest |entry| of block rows
    that belong to the same sketch but that M leaves unchanged, so that
    the series on M's rows alone stops where the one on the whole block
    would.  No budget is set in advance: a step that has not stopped
    within ``DEFAULT_K_CAP`` terms (non-finite input, or a norm bound
    far below ||M||) raises ScheduleError.
    """
    eps = np.finfo(float).eps
    s = max(1, math.ceil(norm_bound))
    for _ in range(s):
        term = m @ u
        term /= s
        acc = u + term
        j = 1
        # max|x| = max(max x, -min x) with no n x d temporary; a NaN in
        # either block fails the test
        while not max(term.max(), -term.min()) <= eps * max(
            acc.max(), -acc.min(), floor
        ):
            if j == DEFAULT_K_CAP:
                raise ScheduleError(
                    f"exponential series did not reach unit roundoff within "
                    f"{DEFAULT_K_CAP} terms of one scaling step "
                    f"(norm bound {norm_bound:.6g})"
                )
            j += 1
            term = m @ term
            term /= s * j
            acc += term
        u = acc
    return u


def _sign_probes(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """C-ordered n x d block of independent signs +-1/sqrt(d), one row per
    vertex: 2s b - s is exactly +-s.  The bits b are those of one boolean
    draw, which takes successive 32-bit words least significant bit
    first; drawing the words and unpacking them is faster and leaves the
    generator in the same state."""
    s = 1.0 / math.sqrt(d)
    words = rng.integers(0, 1 << 32, size=-(-n * d // 32), dtype=np.uint32)
    bits = np.unpackbits(
        words.astype("<u4", copy=False).view(np.uint8), count=n * d, bitorder="little"
    )
    block = np.multiply(bits.reshape(n, d), 2.0 * s)
    block -= s
    return block


def norm_bound(a: Union[sp.csr_matrix, _NoEntries]) -> float:
    """Largest absolute row sum of a symmetric sparse A, which bounds
    ||A||_2, in O(nnz): by symmetry it equals the largest absolute column
    sum, which one pass over the CSR's column indices gives.  0 when A
    has no entries, as at ``NO_ENTRIES``."""
    return float(np.bincount(a.indices, np.abs(a.data)).max()) if a.nnz else 0.0


def _restrict(m: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """m on the rows and columns where the boolean mask ``keep`` holds,
    which must include every row and column with an entry; the entries
    keep m's order, so each row's products sum in the same order."""
    import scipy.sparse as sp

    rows = np.flatnonzero(keep)
    indptr = np.concatenate(([0], m.indptr[rows + 1]))
    renumber = np.cumsum(keep) - 1
    return sp.csr_matrix(
        (m.data, renumber[m.indices], indptr), shape=(len(rows), len(rows))
    )


def project_embedding(
    op: AccumulatedOperator,
    gamma: float,
    tau: float,
    lambda_max: float,
    seed,
) -> Embedding:
    """Randomized embedding of the Gram columns of n exp(A)/Tr(exp(A)).

    Multiplies d sign probes +-1/sqrt(d) by exp(A/2) and trace-normalizes
    the result; independent signs carry the same Johnson-Lindenstrauss
    bound as Gaussian probes (Achlioptas, JCSS 2003) and cost one random
    bit each.  The probes are drawn vertex-major, as a C-ordered n x d block
    that the series and the normalization update in place, and the
    embedding's ``vectors`` is its d x n transposed view.  exp(A/2) is
    the identity on the rows and columns of A that hold no entry, so the
    series runs on the block's other rows and A restricted to them, and
    the untouched probe rows enter its stopping test through their
    |entry|, exactly 1/sqrt(d): for a given A the block is bit for bit
    the one the series on the whole block gives.  When every row has
    entries, A is used as it is, which saves the gather and scatter of
    the block.  The exponential uses max(1, ceil(lambda_max / 2))
    scaling steps, where lambda_max >= ||A|| is the caller's bound (the
    solver passes :func:`norm_bound` of A), each a Taylor series that
    sizes itself: it stops at unit roundoff.  ``tau`` is checked but
    shapes nothing.  Each term costs one sparse product with the rows in
    play, so a call is O(nnz(A) d) per term and allocates nothing n x n.
    Raises ScheduleError when d exceeds DEFAULT_D_CAP, or when one
    scaling step does not converge within DEFAULT_K_CAP terms.  At A = 0
    (``op.matrix.nnz`` is 0, as for ``NO_ENTRIES``) the sketch is the
    scaled probe block itself, and no scipy is used.
    Deterministic for a fixed seed (an int or a numpy Generator).
    """
    if not (0 < gamma < 0.5):
        raise ValueError("gamma must lie in (0, 1/2)")
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = op.n
    d = projection_dimension(n, gamma)
    if d > DEFAULT_D_CAP:
        raise ScheduleError(
            f"projection needs d={d} (cap {DEFAULT_D_CAP}); "
            "the schedule is mis-set for this instance"
        )
    block = _sign_probes(np.random.default_rng(seed), n, d)
    a = op.matrix
    if a.nnz:  # exp(0) = I: at A = 0 the probes are the sketch
        touched = np.diff(a.indptr) > 0
        touched[a.indices] = True
        if touched.all():  # no row to set aside: skip two n x d gathers
            block = _expm_action(a * 0.5, block, lambda_max / 2)
        else:
            # every idle entry is an untouched probe, exactly +-1/sqrt(d)
            block[touched] = _expm_action(
                _restrict(a * 0.5, touched),
                block[touched],
                lambda_max / 2,
                floor=1.0 / math.sqrt(d),
            )
    trace = float(np.vdot(block, block))
    if trace <= 0:
        raise ScheduleError("sketch collapsed to zero; increase dimensions")
    block *= np.sqrt(n / trace)
    return Embedding(block.T)


def dense_reference(a: np.ndarray) -> np.ndarray:
    """Exact Gram columns of X = n exp(A)/Tr(exp(A)) for a dense A whose
    size passes :func:`embeds_exactly`.

    Returns V with X = V^T V; eigenvalues are shifted by the max before
    exponentiation so the computation never overflows.
    """
    n = a.shape[0]
    if not embeds_exactly(n):
        raise ValueError(f"dense reference limited to n <= {DENSE_CAP}; n = {n}")
    # exact: A is a sum of mirrored fills, and eigh reads one triangle only
    if not np.array_equal(a, a.T):
        raise ValueError("accumulated matrix must be symmetric")
    vals, vecs = np.linalg.eigh(a)
    e = np.exp(vals - vals.max())
    scale = n * e / e.sum()
    return (vecs * np.sqrt(scale)).T


def approximation_violations(
    emb: Embedding, exact_cols: np.ndarray, gamma: float, tau: float
) -> tuple[int, int]:
    """Count failures of the two sketch-accuracy inequalities.

    Checks |~n_i - n_i| <= gamma (~n_i + tau) for the n squared norms and
    the analogous bound for all n(n-1)/2 squared pairwise distances,
    where n_i comes from the exact Gram columns, at the given gamma and
    tau (those the sketch was drawn for).  Returns (violations, checks).
    """
    n = emb.n
    approx_n = emb.norms_sq
    exact_n = np.sum(exact_cols * exact_cols, axis=0)
    bad = int(np.sum(np.abs(approx_n - exact_n) > gamma * (approx_n + tau)))
    i, j = np.triu_indices(n, k=1)
    da = approx_n[i] + approx_n[j] - 2 * emb.gram()[i, j]
    de = exact_n[i] + exact_n[j] - 2 * (exact_cols.T @ exact_cols)[i, j]
    bad += int(np.sum(np.abs(da - de) > gamma * (da + tau)))
    return bad, n + len(i)


def spectral_norm(m: np.ndarray) -> float:
    """||M|| for symmetric M, from all its eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def largest_eigenvalue(m: np.ndarray) -> float:
    """lambda_max(M) for symmetric M, from all its eigenvalues."""
    return float(np.max(np.linalg.eigvalsh(m)))
