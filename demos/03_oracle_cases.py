"""The three ways the oracle answers a query.

Given an embedding of the current iterate, the oracle either
  - returns a cheap balanced separator it found by routing flow, or
  - returns a feedback matrix that certifies the iterate violates one of
    the relaxation's constraint families (small spread, heavy routing,
    or a chained family of long paths).

Run with: python3 demos/03_oracle_cases.py
"""

from fractions import Fraction as F

import numpy as np

from vsep.embedding import Embedding
from vsep.graphs import complete_graph, path_graph, with_weights
from vsep.oracle import (
    OracleCounters,
    OracleParams,
    SeparatorOutcome,
    FeedbackOutcome,
    run_oracle,
)


def line(coords) -> Embedding:
    return Embedding(vectors=np.array([coords], dtype=float))


def easy_case() -> None:
    # all vectors huddle together: the pairwise spread of the small-norm
    # set is tiny, and one spread matrix witnesses the violation
    print("== clustered embedding -> spread feedback ==")
    g = path_graph(5)
    params = OracleParams(
        n=5, alpha=F(3), c=F(1, 3), c_prime=F(1, 5), sigma=0.05,
        epsilon=0.5, delta_spread=2.0, beta_p=1, beta_q=1,
        k_rounds=2, path_min=2, attempt_budget=20,
    )
    out = run_oracle(g, line([0.0, 0.01, 0.02, 0.03, 0.04]), params,
                     np.random.default_rng(0), OracleCounters())
    assert isinstance(out, FeedbackOutcome)
    fm = out.feedback
    s, m = fm.easy_set
    r = fm.record
    z = r.unit * m
    budget = r.n * r.y + params.xi * r.n * r.n * z
    print(f"case         {fm.case}")
    print(f"spread set   {s} with coefficient z = {z}")
    print(f"budget       {budget} >= alpha = {params.alpha}")
    print(f"width bound  {fm.width_bound}")
    print()


def flow_case() -> None:
    # spread-out vectors over a heavy clique: every A-B route costs a
    # lot, so the routed paths become the feedback; their edge loads,
    # implied by the paths, cancel every hop and leave -unit L(D)
    print("== heavy clique -> routing feedback ==")
    g = with_weights(complete_graph(4), [50, 50, 50, 50])
    params = OracleParams(
        n=4, alpha=F(5), c=F(1, 3), c_prime=F(1, 8), sigma=0.05,
        epsilon=0.5, delta_spread=2.0, beta_p=1, beta_q=1,
        k_rounds=2, path_min=2, attempt_budget=20,
    )
    emb = Embedding(
        vectors=np.array([[-1.7, 0.0, 0.0, 1.7], [0.0, 1.0, -1.0, 0.0]])
    )
    out = run_oracle(g, emb, params, np.random.default_rng(0), OracleCounters())
    assert isinstance(out, FeedbackOutcome)
    fm = out.feedback
    unit = fm.record.unit
    loads, degree = {}, [0] * g.n
    for path, m in fm.path_terms:
        for a, b in zip(path, path[1:]):
            e = (min(a, b), max(a, b))
            loads[e] = loads.get(e, 0) + unit * m
            degree[a] += unit * m
            degree[b] += unit * m
    print(f"case         {fm.case}")
    print(f"paths        {[(p, str(unit * m)) for p, m in fm.path_terms]}")
    print(f"edge loads   {[(e, str(v)) for e, v in sorted(loads.items())]}")
    print(f"degree <= w  {all(d <= w for d, w in zip(degree, g.weights))}")
    print(f"N - y I      {fm.structured_floats()}")
    print()


def separator_case() -> None:
    # a cheap vertex sits between the embedded sides: routing finds the
    # bottleneck and the oracle short-circuits with the separator itself
    print("== cheap bottleneck -> separator ==")
    w = [9, 9, 1, 9, 9, 9, 9]
    g = with_weights(path_graph(7), w)
    params = OracleParams(
        n=7, alpha=F(2), c=F(1, 3), c_prime=F(1, 7), sigma=0.05,
        epsilon=0.5, delta_spread=2.0, beta_p=10, beta_q=1,
        k_rounds=2, path_min=2, attempt_budget=20,
    )
    out = run_oracle(g, line([0.5 * i for i in range(7)]), params,
                     np.random.default_rng(0), OracleCounters())
    assert isinstance(out, SeparatorOutcome)
    sol = out.separator
    print(f"separator    {sol.separator} at cost {sol.cost}")
    print(f"sides        |A| = {len(sol.a_side)}, |B| = {len(sol.b_side)}")
    print(f"balance      {sol.balance_achieved}")


if __name__ == "__main__":
    easy_case()
    flow_case()
    separator_case()
