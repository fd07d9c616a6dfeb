"""Vertex-weighted graphs: file format, generators, validation, exact optimum.

The central objects are :class:`WeightedGraph` (immutable instance data) and
:class:`SeparatorSolution` (a partition ``A | B | C`` of the vertices where
``C`` is the separator being paid for).  ``brute_force_opt`` is the exact
reference used to judge solver output on small instances;
``sweep_separator`` is a deterministic one-flow cut that bounds the optimum
from above at any size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .flow import SplitSkeleton, build_split_network, max_flow

DEFAULT_BRUTE_FORCE_CAP = 14
DEFAULT_WEIGHT_EXPONENT = 3


class GraphFormatError(ValueError):
    """Malformed graph text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def max_weight_bound(n: int) -> int:
    """Largest admissible vertex weight for an n-vertex instance.

    Weights are kept polynomial in n so that scaled flow capacities stay
    small integers.  The floor of 4 keeps tiny instances usable (a lone
    vertex may still carry a nontrivial weight).
    """
    return max(n, 4) ** DEFAULT_WEIGHT_EXPONENT


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive integer vertex weights.

    Edges are stored as sorted ``(u, v)`` pairs with ``u < v``, no
    duplicates, no self-loops.  ``weights[i]`` is the cost of deleting
    vertex ``i``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.weights) != self.n:
            raise ValueError("weight vector length does not match n")
        bound = max_weight_bound(self.n)
        for v, w in enumerate(self.weights):
            if not (1 <= w <= bound):
                raise ValueError(
                    f"weight of vertex {v} is {w}, outside [1, {bound}]"
                )
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not sorted in range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(self.weights)

    def weight_of(self, vertices: Iterable[int]) -> int:
        return sum(self.weights[v] for v in vertices)

    @cached_property
    def split_skeleton(self) -> SplitSkeleton:
        """The graph-only arcs of this graph's split flow network, built
        on first use and shared by every ``build_split_network`` call."""
        return SplitSkeleton.of(self)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def make_graph(
    n: int,
    edges: Iterable[Sequence[int]],
    weights: Optional[Sequence[int]] = None,
) -> WeightedGraph:
    """Build a graph from loose edge pairs, canonicalising order."""
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    w = tuple(weights) if weights is not None else tuple([1] * n)
    return WeightedGraph(n=n, edges=tuple(canon), weights=w)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def parse_graph(text: str | bytes) -> WeightedGraph:
    """Parse the line-oriented graph format.

    Records: ``p <n> <m>`` header (first), optional ``w <v> <weight>``
    per-vertex weights (default 1), ``e <u> <v>`` edges (0-indexed,
    unordered, unique, no self-loops).  ``#`` starts a comment.  Errors
    report the offending line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = None
    m_declared = None
    weights: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise GraphFormatError("duplicate 'p' header", line_no)
            if len(parts) != 3:
                raise GraphFormatError("'p' record needs exactly <n> <m>", line_no)
            try:
                n, m_declared = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("'p' record fields must be integers", line_no)
            if n < 1 or m_declared < 0:
                raise GraphFormatError("need n >= 1 and m >= 0", line_no)
            continue
        if n is None:
            raise GraphFormatError(f"'{tag}' record before 'p' header", line_no)
        if tag == "w":
            if len(parts) != 3:
                raise GraphFormatError("'w' record needs <v> <weight>", line_no)
            try:
                v, w = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("'w' record fields must be integers", line_no)
            if not (0 <= v < n):
                raise GraphFormatError(f"vertex {v} out of range [0, {n})", line_no)
            if v in weights:
                raise GraphFormatError(f"duplicate weight for vertex {v}", line_no)
            bound = max_weight_bound(n)
            if not (1 <= w <= bound):
                raise GraphFormatError(
                    f"weight {w} outside [1, {bound}] for n={n}", line_no
                )
            weights[v] = w
        elif tag == "e":
            if len(parts) != 3:
                raise GraphFormatError("'e' record needs <u> <v>", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("'e' record fields must be integers", line_no)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", line_no)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range", line_no)
            key = (min(u, v), max(u, v))
            if key in edge_set:
                raise GraphFormatError(f"duplicate edge ({key[0]}, {key[1]})", line_no)
            edge_set.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unknown record tag '{tag}'", line_no)

    if n is None:
        raise GraphFormatError("missing 'p' header")
    if m_declared != len(edges):
        raise GraphFormatError(
            f"header declares {m_declared} edges, found {len(edges)}"
        )
    w_vec = tuple(weights.get(v, 1) for v in range(n))
    return WeightedGraph(n=n, edges=tuple(sorted(edges)), weights=w_vec)


def render_graph(g: WeightedGraph) -> str:
    """Render to the canonical text form: p, then w, then e, all ascending.

    Weights are written explicitly for every vertex so that
    ``parse_graph(render_graph(g)) == g`` holds exactly.
    """
    lines = [f"p {g.n} {g.m}"]
    for v in range(g.n):
        lines.append(f"w {v} {g.weights[v]}")
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# separators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatorSolution:
    """A partition V = A | B | C with C the paid separator set.

    ``balance_achieved`` is the balance constant the solution is claimed
    to satisfy: ``max(|A|, |B|) <= (1 - balance_achieved) * n``.
    """

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    separator: tuple[int, ...]
    cost: int
    balance_achieved: Fraction

    @staticmethod
    def build(
        g: WeightedGraph,
        a_side: Iterable[int],
        b_side: Iterable[int],
        separator: Iterable[int],
        balance_achieved: Fraction,
    ) -> "SeparatorSolution":
        sep = tuple(sorted(separator))
        return SeparatorSolution(
            a_side=tuple(sorted(a_side)),
            b_side=tuple(sorted(b_side)),
            separator=sep,
            cost=g.weight_of(sep),
            balance_achieved=Fraction(balance_achieved),
        )


def render_separator(s: SeparatorSolution) -> str:
    """Three-line separator exchange format: A:, B:, C: with ascending ids."""
    return (
        "A: " + " ".join(str(v) for v in s.a_side) + "\n"
        "B: " + " ".join(str(v) for v in s.b_side) + "\n"
        "C: " + " ".join(str(v) for v in s.separator) + "\n"
    )


def parse_separator(text: str, g: WeightedGraph, balance: Fraction) -> SeparatorSolution:
    """Parse the A:/B:/C: exchange format against a known graph.  A
    vertex id outside [0, n), or one repeated within a side, is a format
    error on its line."""
    sides: dict[str, list[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise GraphFormatError("separator line needs 'A:'/'B:'/'C:' prefix", line_no)
        tag, rest = line.split(":", 1)
        tag = tag.strip()
        if tag not in ("A", "B", "C"):
            raise GraphFormatError(f"unknown separator side '{tag}'", line_no)
        if tag in sides:
            raise GraphFormatError(f"duplicate side '{tag}'", line_no)
        try:
            ids = [int(tok) for tok in rest.split()]
        except ValueError:
            raise GraphFormatError("vertex ids must be integers", line_no)
        seen: set[int] = set()
        for v in ids:
            if not 0 <= v < g.n:
                raise GraphFormatError(f"vertex {v} out of range [0, {g.n})", line_no)
            if v in seen:
                raise GraphFormatError(f"vertex {v} repeated in side '{tag}'", line_no)
            seen.add(v)
        sides[tag] = ids
    for tag in ("A", "B", "C"):
        if tag not in sides:
            raise GraphFormatError(f"missing side '{tag}'")
    return SeparatorSolution.build(
        g, sides["A"], sides["B"], sides["C"], balance_achieved=balance
    )


def validate_separator(
    g: WeightedGraph, s: SeparatorSolution, balance: Fraction
) -> tuple[bool, str]:
    """Check a claimed separator. Returns (ok, diagnostic).

    The diagnostic names the first violated condition: partition,
    crossing edge (with the edge), balance, or recorded cost.
    """
    balance = Fraction(balance)
    a, b, c = set(s.a_side), set(s.b_side), set(s.separator)
    if a & b or a & c or b & c:
        return False, "sides are not disjoint"
    if a | b | c != set(range(g.n)):
        return False, "sides do not cover all vertices"
    for u, v in g.edges:
        if (u in a and v in b) or (u in b and v in a):
            return False, f"edge ({u}, {v}) crosses A and B"
    biggest = max(len(a), len(b))
    if biggest > (1 - balance) * g.n:
        return False, (
            f"balance violated: max side {biggest} > (1 - {balance}) * {g.n}"
        )
    if s.cost != g.weight_of(c):
        return False, f"recorded cost {s.cost} != w(C) = {g.weight_of(c)}"
    return True, "ok"


def connected_components(g: WeightedGraph, removed: set[int]) -> list[list[int]]:
    """Components of G - removed, each sorted, ordered by smallest vertex."""
    adj = g.adjacency()
    seen = set(removed)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for nb in adj[v]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def _split_components(
    comp_sizes: list[int], limit: int
) -> Optional[list[bool]]:
    """Assign components to two bins of size <= limit; None if impossible.

    Returns a take/leave flag per component (True = first bin).  Existence
    is decided with a subset-sum bitset, then one assignment is
    reconstructed deterministically.
    """
    total = sum(comp_sizes)
    reach = _reachable_sums(comp_sizes)
    ok_k = None
    for k in range(total + 1):
        if reach >> k & 1 and k <= limit and total - k <= limit:
            ok_k = k
            break
    if ok_k is None:
        return None
    # reconstruct deterministically: greedy over components in order
    flags = [False] * len(comp_sizes)
    need = ok_k
    for i, size in enumerate(comp_sizes):
        rest_reach = _reachable_sums(comp_sizes[i + 1 :])
        if size <= need and (rest_reach >> (need - size)) & 1:
            flags[i] = True
            need -= size
    assert need == 0
    return flags


def _reachable_sums(sizes: Sequence[int]) -> int:
    bits = 1
    for s in sizes:
        bits |= bits << s
    return bits


def brute_force_opt(
    g: WeightedGraph,
    balance: Fraction,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
) -> tuple[int, SeparatorSolution]:
    """Exact minimum-cost balanced separator by exhaustive search.

    Separator candidates C are scanned in increasing total weight with
    ties broken by lexicographically smallest vertex tuple; the remainder
    is feasible when its connected components can be packed into two bins
    of at most (1 - balance) * n vertices each.  Only for n <= cap.
    """
    balance = Fraction(balance)
    if not (0 < balance < 1):
        raise ValueError("balance must lie in (0, 1)")
    if g.n > cap:
        raise ValueError(f"instance size {g.n} exceeds brute-force cap {cap}")
    limit_frac = (1 - balance) * g.n
    limit = int(limit_frac)  # floor; side sizes are integers

    subsets: list[tuple[int, tuple[int, ...]]] = []
    for mask in range(1 << g.n):
        verts = tuple(v for v in range(g.n) if mask >> v & 1)
        subsets.append((g.weight_of(verts), verts))
    subsets.sort()

    for cost, cand in subsets:
        removed = set(cand)
        comps = connected_components(g, removed)
        sizes = [len(c) for c in comps]
        flags = _split_components(sizes, limit)
        if flags is None:
            continue
        a_side: list[int] = []
        b_side: list[int] = []
        for comp, take in zip(comps, flags):
            (a_side if take else b_side).extend(comp)
        sol = SeparatorSolution.build(g, a_side, b_side, cand, balance)
        ok, why = validate_separator(g, sol, balance)
        assert ok, f"brute-force produced invalid separator: {why}"
        return cost, sol
    raise AssertionError("unreachable: C = V is always feasible")


def _bfs_levels(adj: list[list[int]], root: int) -> list[list[int]]:
    """The vertices root reaches, by BFS distance, each level in discovery
    order."""
    seen = [False] * len(adj)
    seen[root] = True
    levels = [[root]]
    while True:
        nxt = []
        for v in levels[-1]:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    nxt.append(u)
        if not nxt:
            return levels
        levels.append(nxt)


def sweep_separator(g: WeightedGraph, c: Fraction) -> Optional[SeparatorSolution]:
    """A deterministic separator valid at balance c, from one BFS sweep and
    one max flow; None when the sweep gives none.

    Vertices are ordered by BFS from a pseudo-peripheral vertex (Gibbs,
    Poole & Stockmeyer 1976: from vertex 0, restart at a least-degree
    vertex of the last level while the level count grows).  The first and
    last ceil(c n) of them are the cores; a minimum vertex cut between them
    on the split network, whose terminal arcs outweigh w(V) so that only
    vertices are cut, gives (A, B, C).  A core vertex is never on the far
    side, so each side has at most n - ceil(c n) vertices; the cut is still
    validated at c.  None when the cores overlap, the graph is
    disconnected, or the cut fails validation.
    """
    c = Fraction(c)
    n = g.n
    k = math.ceil(c * n)
    adj = g.adjacency()
    levels = _bfs_levels(adj, 0)
    if 2 * k > n or sum(map(len, levels)) < n:
        return None
    while True:
        far = min(levels[-1], key=lambda v: (len(adj[v]), v))
        again = _bfs_levels(adj, far)
        if len(again) <= len(levels):
            break
        levels = again
    order = [v for level in levels for v in level]
    split = build_split_network(g, order[:k], order[-k:], g.total_weight(), 1)
    a, b, sep = split.sides(max_flow(split.net))
    sol = SeparatorSolution.build(g, a, b, sep, c)
    return sol if validate_separator(g, sol, c)[0] else None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> WeightedGraph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> WeightedGraph:
    """Center is vertex 0 with the given number of leaves."""
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """rows x cols grid, row-major vertex ids."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return make_graph(rows * cols, edges)


def gnp_graph(n: int, p: float, seed: int = 0) -> WeightedGraph:
    """Erdos-Renyi G(n, p) with a fixed-seed PRNG."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return make_graph(n, edges)


def two_blobs_graph(a: int, b: int, bridge: int) -> WeightedGraph:
    """Two cliques of sizes a and b sharing `bridge` common vertices.

    The shared vertices form the only small cut set, so the optimum
    balanced separator is exactly the bridge (for sensible balance).
    Total size is a + b - bridge.
    """
    if not (0 < bridge < min(a, b)):
        raise ValueError("need 0 < bridge < min(a, b)")
    n = a + b - bridge
    blob1 = range(0, a)
    blob2 = range(a - bridge, n)
    edges = []
    for blob in (blob1, blob2):
        vs = list(blob)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                edges.append((vs[i], vs[j]))
    return make_graph(n, edges)


def complete_graph(n: int) -> WeightedGraph:
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def with_weights(g: WeightedGraph, weights: Sequence[int]) -> WeightedGraph:
    return WeightedGraph(n=g.n, edges=g.edges, weights=tuple(weights))


# name -> (parameter names, builder(seed, *parameters)); parameters may
# arrive as text, so each builder converts its own
GENERATORS = {
    "path": (("n",), lambda seed, n: path_graph(int(n))),
    "star": (("leaves",), lambda seed, leaves: star_graph(int(leaves))),
    "grid": (("rows", "cols"), lambda seed, r, c: grid_graph(int(r), int(c))),
    "gnp": (("n", "p"), lambda seed, n, p: gnp_graph(int(n), float(p), seed)),
    "two_blobs": (
        ("a", "b", "bridge"),
        lambda seed, a, b, bridge: two_blobs_graph(int(a), int(b), int(bridge)),
    ),
}


def generate(kind: str, params: dict, seed: int = 0) -> WeightedGraph:
    """Build a named generator from its parameters by name; deterministic
    for a fixed seed."""
    if kind not in GENERATORS:
        raise ValueError(
            f"unknown generator kind '{kind}' (try one of {tuple(GENERATORS)})"
        )
    names, build = GENERATORS[kind]
    return build(seed, *(params[name] for name in names))
