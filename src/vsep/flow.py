"""Integer max flow (Dinic), minimum cuts with minimal sink side, and
path decomposition of flows.

Each Dinic phase runs its blocking flow on the level graph pruned to the
nodes that reach the sink, and after each augment the walk resumes at the
first saturated arc; see :class:`_Dinic` for why the augmentations are
those of the textbook walk that restarts from the source.

Capacities are integers throughout; the split-network builder scales all
rational capacities up front so that flow values, cuts, and decompositions
are exact.  "Infinite" arcs use a sentinel capacity strictly larger than
the sum of all finite capacities, so they can never cross a minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

CAP_LIMIT = 1 << 62  # reject capacities that would not fit a fixed-width int


class FlowError(ValueError):
    pass


@dataclass
class FlowNetwork:
    """Directed network with integer arc capacities.

    Arcs are identified by insertion index.  ``add_arc`` returns that
    index; per-arc flows in :class:`FlowResult` use the same indexing.
    Arc lists passed to the constructor get the checks ``add_arc`` makes.
    """

    num_nodes: int
    source: int
    sink: int
    tails: list[int] = field(default_factory=list)
    heads: list[int] = field(default_factory=list)
    caps: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not (0 <= self.source < self.num_nodes) or not (
            0 <= self.sink < self.num_nodes
        ):
            raise FlowError("source/sink out of range")
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        m = len(self.tails)
        if len(self.heads) != m or len(self.caps) != m:
            raise FlowError(
                f"arc lists differ in length: {m} tails, "
                f"{len(self.heads)} heads, {len(self.caps)} caps"
            )
        n = self.num_nodes
        if m and not (
            min(self.tails) >= 0 and max(self.tails) < n
            and min(self.heads) >= 0 and max(self.heads) < n
            and min(self.caps) >= 0 and max(self.caps) < CAP_LIMIT
        ):
            for u, v, cap in zip(self.tails, self.heads, self.caps):
                self._check_arc(u, v, cap)

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    def _check_arc(self, u: int, v: int, cap: int) -> None:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise FlowError(f"arc ({u}, {v}) out of range")
        if cap < 0:
            raise FlowError(f"negative capacity on arc ({u}, {v})")
        if cap >= CAP_LIMIT:
            raise FlowError(f"capacity on arc ({u}, {v}) overflows the integer range")

    def add_arc(self, u: int, v: int, cap: int) -> int:
        self._check_arc(u, v, cap)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(int(cap))
        return len(self.tails) - 1


@dataclass(frozen=True)
class FlowPath:
    """One source-to-sink path of the decomposition."""

    nodes: tuple[int, ...]
    amount: int


@dataclass(frozen=True)
class FlowResult:
    """Max-flow output: value, per-arc flow, minimum cut, decomposition.

    ``t_cut`` is the unique inclusion-minimal sink side (all nodes that can
    reach the sink in the residual graph); ``s_cut`` is its complement.
    ``flow`` is acyclic: any cycles produced during augmentation are
    cancelled before it is reported, so the paths re-add exactly to it.
    """

    value: int
    flow: tuple[int, ...]
    s_cut: tuple[int, ...]
    t_cut: tuple[int, ...]
    paths: tuple[FlowPath, ...]
    cut_capacity: int


class _Dinic:
    """Dinitz's blocking-flow max flow over a pruned level graph.

    Half-arc ``2i`` is input arc ``i`` and ``2i + 1`` its reverse, held in
    the flat lists ``to`` and ``res``.  Each phase labels nodes by BFS
    depth from the source, keeps only the nodes that reach the sink over
    level-graph arcs (``res > 0``, depth + 1), and runs one depth-first
    walk with per-node arc pointers that augments along every path it
    finds.

    The augmentations, their order and amounts are those of the plain
    walk that restarts from the source after each augment and labels
    every node the BFS reaches:

    * A node at depth >= depth(t), other than t, is on no shortest path.
    * Augmenting only removes level-graph arcs and adds reverse arcs,
      which point back a level, so a node that cannot reach t when a
      phase starts cannot reach it later in the phase.  The plain walk
      dead-ends at such a node, which advances the parent's arc pointer
      by one; skipping the pruned node does the same.
    * After an augment, every arc before the first saturated one keeps
      residual capacity and its pointer, so a restart from the source
      walks back exactly to that arc's tail: the walk retreats there.
    """

    def __init__(self, net: FlowNetwork):
        self.n = net.num_nodes
        self.caps = net.caps
        m = len(net.caps)
        self.to: list[int] = [0] * (2 * m)
        self.to[0::2] = net.heads
        self.to[1::2] = net.tails
        self.res: list[int] = [0] * (2 * m)  # residual capacity per half-arc
        self.res[0::2] = net.caps
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        adj = self.adj
        a = 0
        for u, v in zip(net.tails, net.heads):
            adj[u].append(a)
            adj[v].append(a + 1)
            a += 2

    def run(self, s: int, t: int) -> int:
        to, res, adj = self.to, self.res, self.adj
        total = 0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: list[int] = []  # half-arcs from s to node
            node = s
            # iterative: paths reach thousands of nodes
            while True:
                if node == t:
                    amt = min(res[a] for a in path)
                    for a in path:
                        res[a] -= amt
                        res[a ^ 1] += amt
                    total += amt
                    k = 0
                    while res[path[k]] > 0:
                        k += 1
                    node = to[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs = adj[node]
                i = it[node]
                m = len(arcs)
                nxt = level[node] + 1
                while i < m:
                    a = arcs[i]
                    if res[a] > 0 and level[to[a]] == nxt:
                        break
                    i += 1
                it[node] = i
                if i < m:
                    path.append(a)
                    node = to[a]
                    continue
                level[node] = -1  # dead end
                if not path:
                    break
                node = to[path.pop() ^ 1]
                it[node] += 1

    def _levels(self, s: int, t: int) -> list[int]:
        """BFS depths from s, pruned to the nodes that reach t (others -1)."""
        to, res, adj = self.to, self.res, self.adj
        depth = [-1] * self.n
        depth[s] = 0
        queue = [s]
        for v in queue:  # the queue grows while it is read
            d = depth[v] + 1
            for a in adj[v]:
                u = to[a]
                if depth[u] < 0 and res[a] > 0:
                    depth[u] = d
                    queue.append(u)
            if depth[t] >= 0:
                break  # nodes deeper than t are on no shortest path
        level = [-1] * self.n
        if depth[t] < 0:
            return level
        level[t] = depth[t]
        stack = [t]
        while stack:
            v = stack.pop()
            d = level[v] - 1
            if d < 0:
                continue
            for b in adj[v]:
                u = to[b]
                if res[b ^ 1] > 0 and depth[u] == d and level[u] < 0:
                    level[u] = d
                    stack.append(u)
        return level

    def arc_flows(self) -> list[int]:
        return [c - r for c, r in zip(self.caps, self.res[0::2])]

    def residual_reaches_sink(self, t: int) -> list[bool]:
        """Nodes with a residual path to t (reverse search over residual arcs)."""
        to, res, adj = self.to, self.res, self.adj
        reach = [False] * self.n
        reach[t] = True
        stack = [t]
        while stack:
            v = stack.pop()
            for b in adj[v]:
                u = to[b]
                if res[b ^ 1] > 0 and not reach[u]:
                    reach[u] = True
                    stack.append(u)
        return reach


def max_flow(net: FlowNetwork) -> FlowResult:
    """Maximum s-t flow with exact integer arithmetic.

    The input network is not mutated.  The reported minimum cut is the one
    with inclusion-minimal sink side, and the path decomposition re-adds
    arc-exactly to the reported (acyclic) flow.
    """
    dinic = _Dinic(net)
    value = dinic.run(net.source, net.sink)
    reach = dinic.residual_reaches_sink(net.sink)
    if reach[net.source]:
        raise FlowError("source still reaches sink in residual graph")
    t_cut = tuple(v for v in range(net.num_nodes) if reach[v])
    s_cut = tuple(v for v in range(net.num_nodes) if not reach[v])
    flows = dinic.arc_flows()
    paths, flows = decompose(net, flows)
    cut_cap = sum(
        c
        for u, v, c in zip(net.tails, net.heads, net.caps)
        if not reach[u] and reach[v]
    )
    if cut_cap != value:
        raise FlowError(
            f"internal check failed: cut capacity {cut_cap} != flow value {value}"
        )
    return FlowResult(
        value=value,
        flow=tuple(flows),
        s_cut=s_cut,
        t_cut=t_cut,
        paths=tuple(paths),
        cut_capacity=cut_cap,
    )


def _check_feasible(net: FlowNetwork, flows: Sequence[int]) -> None:
    if len(flows) != net.num_arcs:
        raise FlowError("flow vector length does not match arc count")
    excess = [0] * net.num_nodes
    for i, f in enumerate(flows):
        if f < 0 or f > net.caps[i]:
            raise FlowError(f"arc {i} flow {f} outside [0, cap]")
        excess[net.tails[i]] -= f
        excess[net.heads[i]] += f
    for v in range(net.num_nodes):
        if v not in (net.source, net.sink) and excess[v] != 0:
            raise FlowError(f"flow not conserved at node {v}")


def decompose(
    net: FlowNetwork, flows: Sequence[int]
) -> tuple[list[FlowPath], list[int]]:
    """Decompose a feasible flow into source-sink paths.

    Cycles (possible in principle with some augmenting solvers) are
    cancelled and discarded first; the returned per-arc flow is the
    cancelled, acyclic one and equals the sum of the returned paths.
    At most num_arcs paths are produced: every strip zeroes an arc.
    """
    _check_feasible(net, flows)
    work = [int(f) for f in flows]
    out_arcs: list[list[int]] = [[] for _ in range(net.num_nodes)]
    for i in range(net.num_arcs):
        if work[i] > 0:
            out_arcs[net.tails[i]].append(i)
    ptr = [0] * net.num_nodes

    def next_arc(v: int) -> Optional[int]:
        lst = out_arcs[v]
        while ptr[v] < len(lst):
            if work[lst[ptr[v]]] > 0:
                return lst[ptr[v]]
            ptr[v] += 1
        return None

    paths: list[FlowPath] = []
    stripped = [0] * net.num_arcs
    s, t = net.source, net.sink
    while next_arc(s) is not None:
        node_pos = {s: 0}
        nodes = [s]
        arcs: list[int] = []
        v = s
        while v != t:
            a = next_arc(v)
            if a is None:
                raise FlowError(f"flow walk stuck at node {v}")
            u = net.heads[a]
            if u in node_pos:
                # cancel the cycle we just closed and resume from u
                k = node_pos[u]
                cyc = arcs[k:] + [a]
                amt = min(work[i] for i in cyc)
                for i in cyc:
                    work[i] -= amt
                for w in nodes[k + 1 :]:
                    del node_pos[w]
                nodes = nodes[: k + 1]
                arcs = arcs[:k]
                v = u
                continue
            node_pos[u] = len(nodes)
            nodes.append(u)
            arcs.append(a)
            v = u
        amt = min(work[i] for i in arcs)
        for i in arcs:
            work[i] -= amt
            stripped[i] += amt
        paths.append(FlowPath(nodes=tuple(nodes), amount=amt))

    # anything left over is circulation; cancel it silently
    for start in range(net.num_nodes):
        while next_arc(start) is not None:
            node_pos = {start: 0}
            nodes = [start]
            arcs = []
            v = start
            while True:
                a = next_arc(v)
                if a is None:
                    raise FlowError(f"leftover flow walk stuck at node {v}")
                u = net.heads[a]
                if u in node_pos:
                    k = node_pos[u]
                    cyc = arcs[k:] + [a]
                    amt = min(work[i] for i in cyc)
                    for i in cyc:
                        work[i] -= amt
                    break
                node_pos[u] = len(nodes)
                nodes.append(u)
                arcs.append(a)
                v = u

    # stripped is acyclic by construction and equals the sum of the paths
    return paths, stripped


@dataclass(frozen=True)
class SplitNetwork:
    """Vertex-capacitated flow network over a split graph.

    Each original vertex x becomes an entry node 2x and an exit node 2x+1
    joined by an arc of capacity weight(x)*q; original edges become a pair
    of effectively infinite arcs exit->entry.  The source (node 2n) feeds
    every entry node of the A side and every exit node of the B side drains
    to the sink (node 2n+1), both at capacity 2p.  All capacities carry the
    integer scale q so that per-unit throughput p/q stays exact.

    Arc x is vertex x's internal arc; edge k = (u, v) of ``graph.edges``
    owns arcs n + 2k (u to v) and n + 2k + 1 (v to u); the source arcs
    and then the sink arcs follow, in sorted terminal order.
    """

    net: FlowNetwork
    n: int

    @property
    def source(self) -> int:
        return 2 * self.n

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def separator_from_cut(self, result: FlowResult) -> tuple[int, ...]:
        """Vertices whose internal arc crosses the minimum cut.

        Removing them disconnects a_side from b_side in the original graph,
        and their total weight times q is at most the cut capacity.
        """
        t_side = set(result.t_cut)
        return tuple(
            x for x in range(self.n) if 2 * x not in t_side and 2 * x + 1 in t_side
        )

    def routed_pairs(self, result: FlowResult) -> list[tuple[int, int, int]]:
        """(a, b, scaled_amount) per decomposed path, a in A side, b in B."""
        out = []
        for path in result.paths:
            a = path.nodes[1] // 2
            b = path.nodes[-2] // 2
            out.append((a, b, path.amount))
        return out


def build_split_network(
    graph,
    a_side: Sequence[int],
    b_side: Sequence[int],
    p: int,
    q: int,
) -> SplitNetwork:
    """Build the scaled split network for routing flow from A to B.

    ``p``/``q`` is the per-terminal throughput; both must be positive
    integers.  A and B must be disjoint.
    """
    if p <= 0 or q <= 0:
        raise FlowError("throughput numerator and denominator must be positive")
    a_set, b_set = set(a_side), set(b_side)
    if a_set & b_set:
        raise FlowError("A and B sides overlap")
    n = graph.n
    for x in a_set | b_set:
        if not (0 <= x < n):
            raise FlowError(f"terminal vertex {x} out of range")
    finite_total = sum(graph.weights) * q + 2 * p * (len(a_set) + len(b_set))
    sentinel = finite_total + 1
    if sentinel >= CAP_LIMIT:
        raise FlowError("scaled capacities overflow the integer range")

    # arc order: vertex arcs, both directions of each edge, source, sink
    tails = list(range(0, 2 * n, 2))
    heads = list(range(1, 2 * n, 2))
    caps = [int(w * q) for w in graph.weights]
    for u, v in graph.edges:
        tails += (2 * u + 1, 2 * v + 1)
        heads += (2 * v, 2 * u)
    caps += [sentinel] * (len(tails) - n)
    a_sorted, b_sorted = sorted(a_set), sorted(b_set)
    tails += [2 * n] * len(a_sorted)
    heads += [2 * a for a in a_sorted]
    tails += [2 * b + 1 for b in b_sorted]
    heads += [2 * n + 1] * len(b_sorted)
    caps += [2 * p] * (len(a_sorted) + len(b_sorted))
    net = FlowNetwork(2 * n + 2, 2 * n, 2 * n + 1, tails, heads, caps)
    return SplitNetwork(net=net, n=n)
