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

Only work whose result is read is done.  A split network's vertex and
edge arcs depend on the graph alone, so they and their half-arc lists are
built once per graph (:class:`SplitSkeleton`) and each network adds only
its capacities and terminal arcs.  A max flow is decomposed into paths
the first time its paths or its acyclic flow are read.

:class:`SplitNetwork` alone knows the split layout's node and arc
numbers: it reads a max flow's cut and paths back as vertex sides and
vertex paths of the graph.  A path's hops are edges of the graph, so the
load on each edge, the flow over its two arcs, is the amount of the
paths that hop over it; the solver takes it from the paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import gt, index, not_, sub
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
    Node ids and capacities must be integers (numpy integers included).

    ``skeleton``, when set, is the :class:`SplitSkeleton` whose arcs are
    this network's first arcs, in order; max flow then reuses its
    prebuilt half-arc lists instead of rebuilding them.
    """

    num_nodes: int
    source: int
    sink: int
    tails: list[int] = field(default_factory=list)
    heads: list[int] = field(default_factory=list)
    caps: list[int] = field(default_factory=list)
    skeleton: Optional[SplitSkeleton] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        try:
            index(self.num_nodes), index(self.source), index(self.sink)
        except TypeError:
            raise FlowError("node count, source and sink must be integers") from None
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
        skel = self.skeleton
        k = 0 if skel is None else skel.num_arcs
        if skel is not None and not (
            n == skel.num_nodes
            and self.tails[:k] == skel.tails
            and self.heads[:k] == skel.heads
        ):
            raise FlowError("network does not start with its skeleton's arcs")
        # a skeleton's arcs join vertices of a validated graph, so only the
        # node ids after them need the range check.  A sum of plain ints is
        # a plain int; anything else gets the per-arc check, which also
        # accepts numpy integers.
        tails, heads, caps = self.tails[k:], self.heads[k:], self.caps
        if m and not (
            type(sum(tails)) is int
            and type(sum(heads)) is int
            and type(sum(caps)) is int
            and min(tails, default=0) >= 0 and max(tails, default=0) < n
            and min(heads, default=0) >= 0 and max(heads, default=0) < n
            and min(caps) >= 0 and max(caps) < CAP_LIMIT
        ):
            for u, v, cap in zip(self.tails, self.heads, caps):
                self._check_arc(u, v, cap)

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    def _check_arc(self, u, v, cap) -> tuple[int, int, int]:
        try:
            u, v, cap = index(u), index(v), index(cap)
        except TypeError:
            raise FlowError(
                f"arc ({u}, {v}) with capacity {cap!r}: "
                "node ids and capacities must be integers"
            ) from None
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise FlowError(f"arc ({u}, {v}) out of range")
        if cap < 0:
            raise FlowError(f"negative capacity on arc ({u}, {v})")
        if cap >= CAP_LIMIT:
            raise FlowError(f"capacity on arc ({u}, {v}) overflows the integer range")
        return u, v, cap

    def add_arc(self, u: int, v: int, cap: int) -> int:
        u, v, cap = self._check_arc(u, v, cap)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(cap)
        return len(self.tails) - 1


@dataclass(frozen=True)
class FlowPath:
    """One source-to-sink path of the decomposition."""

    nodes: tuple[int, ...]
    amount: int


@dataclass(frozen=True)
class FlowResult:
    """Max-flow output: value, minimum cut, per-arc flow, decomposition.

    ``t_cut`` is the unique inclusion-minimal sink side (all nodes that can
    reach the sink in the residual graph); ``s_cut`` is its complement.
    ``raw_flow`` is the per-arc flow the solver found.

    ``flow`` and ``paths`` are computed from ``raw_flow`` by
    :func:`decompose` the first time either is read, so a caller that
    needs only the value and the cut never decomposes; ``net`` must not
    change before then.  ``flow`` is acyclic: any cycles produced during
    augmentation are cancelled, so the paths re-add exactly to it.
    """

    value: int
    s_cut: tuple[int, ...]
    t_cut: tuple[int, ...]
    cut_capacity: int
    raw_flow: tuple[int, ...]
    net: FlowNetwork = field(repr=False, compare=False)

    @cached_property
    def _decomposition(self) -> tuple[tuple[FlowPath, ...], tuple[int, ...]]:
        # max_flow checked raw_flow when it made this result
        paths, flows = decompose(self.net, self.raw_flow, checked=True)
        return tuple(paths), tuple(flows)

    @property
    def paths(self) -> tuple[FlowPath, ...]:
        return self._decomposition[0]

    @property
    def flow(self) -> tuple[int, ...]:
        return self._decomposition[1]


def _half_arcs(
    num_nodes: int,
    tails: Sequence[int],
    heads: Sequence[int],
    base: Optional[SplitSkeleton] = None,
) -> tuple[list[int], list[list[int]]]:
    """Half-arc targets and per-node half-arc lists of the given arcs.

    Half-arc ``2i`` is arc ``i`` and ``2i + 1`` its reverse.  With a
    ``base``, the arcs are numbered after the base's and each node lists
    the base's half-arcs first; the base's lists are shared, and only
    those that gain a half-arc are copied first.
    """
    base_to, base_adj = (base.to, base.adj) if base is not None else ([], [])
    a = len(base_to)
    to = base_to + [0] * (2 * len(tails))
    to[a::2] = heads
    to[a + 1 :: 2] = tails
    adj = base_adj + [[] for _ in range(num_nodes - len(base_adj))]
    if base_adj:
        for x in {*tails, *heads}:
            adj[x] = adj[x].copy()
    for u, v in zip(tails, heads):
        adj[u].append(a)
        adj[v].append(a + 1)
        a += 2
    return to, adj


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

    ``to`` and ``adj`` are only read, so a network's skeleton lists are
    shared rather than copied.
    """

    def __init__(self, net: FlowNetwork):
        self.n = net.num_nodes
        self.caps = net.caps
        k = net.skeleton.num_arcs if net.skeleton is not None else 0
        self.to, self.adj = _half_arcs(
            self.n, net.tails[k:], net.heads[k:], net.skeleton
        )
        self.res: list[int] = [0] * len(self.to)  # residual capacity per half-arc
        self.res[0::2] = net.caps

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
                if res[a] > 0:
                    u = to[a]
                    if depth[u] < 0:
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
        return list(map(sub, self.caps, self.res[0::2]))

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
    with inclusion-minimal sink side, and the path decomposition, made
    when it is first read, re-adds arc-exactly to the reported (acyclic)
    flow.
    """
    dinic = _Dinic(net)
    value = dinic.run(net.source, net.sink)
    reach = dinic.residual_reaches_sink(net.sink)
    if reach[net.source]:
        raise FlowError("source still reaches sink in residual graph")
    nodes = range(net.num_nodes)
    t_cut = tuple(compress(nodes, reach))
    s_cut = tuple(compress(nodes, map(not_, reach)))
    flows = dinic.arc_flows()
    _check_feasible(net, flows)
    # arcs from the source side (reach False) into the sink side (True)
    at = reach.__getitem__
    cut_cap = sum(compress(net.caps, map(gt, map(at, net.heads), map(at, net.tails))))
    if cut_cap != value:
        raise FlowError(
            f"internal check failed: cut capacity {cut_cap} != flow value {value}"
        )
    return FlowResult(
        value=value,
        s_cut=s_cut,
        t_cut=t_cut,
        cut_capacity=cut_cap,
        raw_flow=tuple(flows),
        net=net,
    )


def _check_feasible(net: FlowNetwork, flows: Sequence[int]) -> None:
    m = net.num_arcs
    if len(flows) != m:
        raise FlowError("flow vector length does not match arc count")
    caps = net.caps
    if min(flows, default=0) < 0 or any(map(gt, flows, caps)):
        for i, f in enumerate(flows):
            if f < 0 or f > caps[i]:
                raise FlowError(f"arc {i} flow {f} outside [0, cap]")
    # only arcs that carry flow move excess
    tails, heads = net.tails, net.heads
    excess = [0] * net.num_nodes
    for i in compress(range(m), flows):
        f = flows[i]
        excess[tails[i]] -= f
        excess[heads[i]] += f
    for v in compress(range(net.num_nodes), excess):
        if v != net.source and v != net.sink:
            raise FlowError(f"flow not conserved at node {v}")


def decompose(
    net: FlowNetwork, flows: Sequence[int], *, checked: bool = False
) -> tuple[list[FlowPath], list[int]]:
    """Decompose a feasible flow into source-sink paths.

    Cycles (possible in principle with some augmenting solvers) are
    discarded; the returned per-arc flow is the acyclic rest and equals
    the sum of the returned paths.  Flow that still enters the source
    once the paths are stripped raises FlowError.  At most num_arcs paths
    are produced: every strip zeroes an arc.  The flow is checked
    feasible first unless ``checked`` says it is a sequence of ints that
    already passed that check, as a :class:`FlowResult`'s ``raw_flow``
    did in :func:`max_flow`.
    """
    if checked:
        work = list(flows)
    else:
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
                if v == s:
                    break  # a cancelled cycle took the source's last flow
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
        if v == s:
            continue
        amt = min(work[i] for i in arcs)
        for i in arcs:
            work[i] -= amt
            stripped[i] += amt
        paths.append(FlowPath(nodes=tuple(nodes), amount=amt))

    # what is left is circulation, unless it still enters the source
    if any(f for f, v in zip(work, net.heads) if v == s):
        raise FlowError(f"flow into source {s} is left after the paths")

    # stripped is acyclic by construction and equals the sum of the paths
    return paths, stripped


@dataclass(frozen=True)
class SplitSkeleton:
    """The arcs of a graph's split network that do not depend on A, B,
    p or q: every vertex arc, then both directions of every edge.

    ``to`` and ``adj`` are these arcs' half-arc targets and each node's
    half-arc list, as max flow lays them out.  A graph builds its skeleton
    once (``WeightedGraph.split_skeleton``) and every split network of the
    graph shares it, so none of its lists may be mutated.
    """

    num_nodes: int
    tails: list[int]
    heads: list[int]
    to: list[int]
    adj: list[list[int]]

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @classmethod
    def of(cls, graph) -> SplitSkeleton:
        n = graph.n
        tails = list(range(0, 2 * n, 2))
        heads = list(range(1, 2 * n, 2))
        for u, v in graph.edges:
            tails += (2 * u + 1, 2 * v + 1)
            heads += (2 * v, 2 * u)
        to, adj = _half_arcs(2 * n + 2, tails, heads)
        return cls(2 * n + 2, tails, heads, to, adj)


@dataclass(frozen=True)
class SplitNetwork:
    """Vertex-capacitated flow network over a split graph, and the one
    place that maps its nodes and arcs back to the graph.

    Each original vertex x becomes an entry node 2x and an exit node 2x+1
    joined by an arc of capacity weight(x)*q; original edges become a pair
    of effectively infinite arcs exit->entry.  The source (node 2n) feeds
    every entry node of the A side and every exit node of the B side drains
    to the sink (node 2n+1), both at capacity 2p.  All capacities carry the
    integer scale q so that per-unit throughput p/q stays exact.

    Arc x is vertex x's internal arc; edge k = (u, v) of ``graph.edges``
    owns arcs n + 2k (u to v) and n + 2k + 1 (v to u); the source arcs
    and then the sink arcs follow, in sorted terminal order.  Callers read
    a max flow of ``net`` in graph terms through :meth:`sides` and
    :meth:`vertex_paths`; an edge's load is the amount of the vertex
    paths that hop over it.
    """

    net: FlowNetwork
    n: int

    @property
    def source(self) -> int:
        return 2 * self.n

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def sides(self, result: FlowResult) -> tuple[list[int], list[int], list[int]]:
        """(A, B, C) of the minimum cut: the vertices with both split
        nodes on the source side, both on the sink side, and those whose
        internal arc crosses the cut.

        Removing C disconnects A from B in the original graph, and its
        total weight times q is at most the cut capacity.  The three
        partition V: an entry node on the sink side has its exit node
        there too.
        """
        t_side = set(result.t_cut)
        a, b, c = [], [], []
        for x in range(self.n):
            if 2 * x + 1 not in t_side:
                a.append(x)
            elif 2 * x in t_side:
                b.append(x)
            else:
                c.append(x)
        return a, b, c

    def vertex_paths(self, result: FlowResult) -> list[tuple[tuple[int, ...], int]]:
        """(original vertices, scaled amount) per decomposed path; each
        path starts in the A side and ends in the B side."""
        return [(tuple(v // 2 for v in p.nodes[1:-1:2]), p.amount) for p in result.paths]


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

    # arc order: the skeleton's vertex and edge arcs, then source, then sink
    skel = graph.split_skeleton
    caps = [int(w * q) for w in graph.weights]
    caps += [sentinel] * (skel.num_arcs - n)
    a_sorted, b_sorted = sorted(a_set), sorted(b_set)
    tails = skel.tails + [2 * n] * len(a_sorted) + [2 * b + 1 for b in b_sorted]
    heads = skel.heads + [2 * a for a in a_sorted] + [2 * n + 1] * len(b_sorted)
    caps += [2 * p] * (len(a_sorted) + len(b_sorted))
    net = FlowNetwork(2 * n + 2, 2 * n, 2 * n + 1, tails, heads, caps, skel)
    return SplitNetwork(net=net, n=n)
