"""Structured feedback matrices and randomized Gram sketches.

The solver never materializes its (dense, exponential) primal iterate;
it works with a low-dimensional random sketch whose pairwise distances
approximate the exact ones.  This demo accumulates a few structured
matrices and compares the sketch against the exact reference.

Run with: python3 demos/02_embeddings.py
"""

from fractions import Fraction as F

import numpy as np

from vsep.embedding import (
    FeedbackMatrix,
    accumulate,
    approximation_violations,
    dense_embedding,
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
        width_bound=float(rng.integers(1, 10)),
    )


def sketch_accuracy() -> None:
    print("== sketch vs exact reference ==")
    rng = np.random.default_rng(7)
    n = 48
    history = [_random_step(rng, n) for _ in range(12)]
    op = accumulate(history, eta=F(1, 50))
    exact = dense_reference(op.dense())
    emb = project_embedding(op, gamma=0.25, tau=0.125,
                            lambda_max=op.lambda_max_bound, seed=1)
    bad, total = approximation_violations(emb, exact)
    print(f"n = {n}, sketch dimension d = {emb.d}")
    print(f"distance/norm checks violated: {bad} of {total}")
    print(f"trace of sketch Gram: {emb.norms_sq.sum():.6f} (normalized to n)")
    exact_emb = dense_embedding(op)
    bad0, _ = approximation_violations(exact_emb, exact)
    print(f"exact embedding violates {bad0} (by construction)")
    print(f"spectral norm of accumulated matrix: {spectral_norm(op.dense()):.4f}")


if __name__ == "__main__":
    structured_pieces()
    sketch_accuracy()
