"""Structured feedback matrices and randomized Gram sketches.

The solver never materializes its (dense, exponential) primal iterate;
it works with a low-dimensional random sketch whose pairwise distances
approximate the exact ones.  This demo builds A from a few structured
matrices as the solver's sketch regime does, A + eta * (N - y I) per
step with N.structured_sparse (X does not see a multiple of I), bounds
||A|| by the sum of eta times each step's largest absolute row sum, and
compares the sketch against the exact reference.

Run with: python3 demos/02_embeddings.py
"""

from fractions import Fraction as F

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vsep.embedding import (
    AccumulatedOperator,
    Embedding,
    FeedbackMatrix,
    approximation_violations,
    dense_reference,
    project_embedding,
    spectral_norm,
)


def structured_pieces() -> None:
    print("== one structured feedback matrix ==")
    fm = FeedbackMatrix(
        n=4,
        alpha=F(2),
        xi=F(1, 4),
        y=F(1, 2),
        unit=F(1, 24),  # coefficients 1/8, 1/2 and 1/3 as multiples of 1/24
        easy_set=((0, 1, 2), 3),
        path_terms=(((0, 2, 3), 12),),
        lam=(((0, 1), 8),),
        case="custom",
        width_bound=4.0,
    )
    print(f"budget  sum(y) + xi n^2 sum(z) = {fm.budget_total} >= alpha = {fm.alpha}")
    print(f"dense form:\n{fm.assemble_dense()}")
    print()


def _random_step(rng: np.random.Generator, n: int) -> FeedbackMatrix:
    y = F(int(rng.integers(0, 6)), int(rng.integers(1, 7)))
    length = int(rng.integers(2, 6))
    path = tuple(int(v) for v in rng.permutation(n)[:length])
    i, j = sorted(int(v) for v in rng.permutation(n)[:2])
    return FeedbackMatrix(
        n=n,
        alpha=F(0),
        xi=F(1, 4),
        y=y,
        unit=F(1, 6),  # path coefficients k/3 and edge coefficients k/2
        path_terms=((path, 2 * int(rng.integers(0, 4))),),
        lam=(((i, j), 3 * int(rng.integers(0, 5))),),
    )


def sketch_accuracy() -> None:
    print("== sketch vs exact reference ==")
    rng = np.random.default_rng(7)
    n = 48
    eta = 1 / 50
    a = sp.csr_matrix((n, n))
    # ||M||_2 <= ||M||_inf for a symmetric M, so the sum bounds ||A||
    lambda_max = 0.0
    for _ in range(12):
        part = _random_step(rng, n).structured_sparse
        a = a + eta * part
        lambda_max += eta * spla.norm(part, np.inf)
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
