"""Structured feedback matrices and randomized Gram sketches.

The solver never materializes its (dense, exponential) primal iterate;
it works with a low-dimensional random sketch whose pairwise distances
approximate the exact ones.  This demo builds one feedback
matrix from its case record (the exact y and unit one case of one run
shares) and integer multiplicities, and prints its one float form,
N - y I; then the same path on a routed (flow) record, whose edge loads
cancel its hops and leave the Laplacian of its ends; then builds A from
a few structured matrices as the solver
does in both regimes, A + eta * (N - y I) per step (X does not see a
multiple of I), here with N.structured_sparse as the sketch regime
stores it, bounds ||A|| by its largest absolute row sum, as the solver
does, and compares the sketch against the exact reference.

Run with: python3 demos/02_embeddings.py
"""

from fractions import Fraction as F

import numpy as np
import scipy.sparse as sp

from vsep.embedding import (
    AccumulatedOperator,
    Embedding,
    FeedbackCase,
    FeedbackMatrix,
    approximation_violations,
    dense_reference,
    norm_bound,
    project_embedding,
    spectral_norm,
)


def structured_pieces() -> None:
    print("== one structured feedback matrix ==")
    # n = 4, alpha = 2, xi = 1/4, y = 1/2; coefficients 1/8 and 1/2 as
    # multiples of the unit 1/24
    case = FeedbackCase.build("custom", 4, F(2), F(1, 4), F(1, 2), F(1, 24), 4.0)
    fm = FeedbackMatrix(
        case,
        easy_set=((0, 1, 2), 3),
        path_terms=(((0, 2, 3), 12),),
        width_bound=4.0,
    )
    print(f"integers  y = {case.y_num}/{case.den}, unit = {case.unit_num}/{case.den}")
    print(f"budget    sum(y) + xi n^2 unit m_S >= alpha from m_S = {case.min_easy}; "
          f"this step has m_S = {fm.easy_set[1]}")
    print(f"N - y I, the float form the solver adds to A:\n"
          f"{fm.structured_sparse.toarray()}")
    # a flow step routes the path: loads 1/2 on edges (0, 2) and (2, 3)
    # cancel its hops, so N - y I is -1/2 L_03, the demand pair alone
    flow = FeedbackCase.build("flow", 4, F(2), F(1, 4), F(1, 2), F(1, 24), 4.0,
                              routed=True)
    routed = FeedbackMatrix(flow, path_terms=fm.path_terms)
    print(f"the same path routed, N - y I:\n{routed.structured_sparse.toarray()}")
    print()


def _random_step(rng: np.random.Generator, n: int) -> FeedbackMatrix:
    y = F(int(rng.integers(0, 6)), int(rng.integers(1, 7)))
    paths = []
    for _ in range(2):
        length = int(rng.integers(2, 6))
        path = tuple(int(v) for v in rng.permutation(n)[:length])
        paths.append((path, 2 * int(rng.integers(0, 4))))
    # path coefficients k/3 in the unit 1/6, kept hop by hop or routed
    case = FeedbackCase.build("custom", n, F(0), F(1, 4), y, F(1, 6), 0.0,
                              routed=bool(rng.integers(0, 2)))
    return FeedbackMatrix(case, path_terms=tuple(paths))


def sketch_accuracy() -> None:
    print("== sketch vs exact reference ==")
    rng = np.random.default_rng(7)
    n = 48
    eta = 1 / 50
    a = sp.csr_matrix((n, n))
    for _ in range(12):
        a = a + eta * _random_step(rng, n).structured_sparse
    # ||A||_2 <= ||A||_inf for a symmetric A
    lambda_max = norm_bound(a)
    exact = dense_reference(a.toarray())
    emb = project_embedding(AccumulatedOperator(n=n, matrix=a), gamma=0.25,
                            tau=0.125, lambda_max=lambda_max, seed=1)
    bad, total = approximation_violations(emb, exact, 0.25, 0.125)
    print(f"n = {n}, sketch dimension d = {emb.d}")
    print(f"distance/norm checks violated: {bad} of {total}")
    print(f"trace of sketch Gram: {emb.norms_sq.sum():.6f} (normalized to n)")
    bad0, _ = approximation_violations(Embedding(exact), exact, 0.25, 0.125)
    print(f"exact embedding violates {bad0} (by construction)")
    print(f"spectral norm of A: {spectral_norm(a.toarray()):.4f} "
          f"(bound {lambda_max:.4f})")


if __name__ == "__main__":
    structured_pieces()
    sketch_accuracy()
