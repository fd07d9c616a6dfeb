"""Max flow, minimum cuts, path decomposition, split networks.

The reference value for every randomized trial comes from
``brute_min_cut`` below, which enumerates all source/sink bipartitions
directly and never touches the solver code path.  The reference for the
exact flow, paths and cut is ``ReferenceDinic``, the textbook Dinic.
"""

import random
from collections import deque

import numpy as np
import pytest

from vsep.flow import (
    CAP_LIMIT,
    FlowError,
    FlowNetwork,
    FlowResult,
    build_split_network,
    decompose,
    max_flow,
)
from vsep.graphs import (
    complete_graph,
    grid_graph,
    make_graph,
    path_graph,
    two_blobs_graph,
    with_weights,
)


def brute_min_cut(num_nodes, source, sink, arcs):
    """Exact min-cut value by enumerating every source-side subset.

    Independent of the flow solver: evaluates sum(cap(u, v)) over arcs
    leaving the source side for all 2^k placements of internal nodes,
    vectorized over subsets.
    """
    internal = [x for x in range(num_nodes) if x not in (source, sink)]
    k = len(internal)
    count = 1 << k
    side = np.zeros((count, num_nodes), dtype=bool)
    side[:, source] = True
    masks = np.arange(count, dtype=np.uint64)
    for j, x in enumerate(internal):
        side[:, x] = (masks >> np.uint64(j)) & np.uint64(1) == 1
    total = np.zeros(count, dtype=np.int64)
    for u, v, cap in arcs:
        total += np.where(side[:, u] & ~side[:, v], cap, 0)
    return int(total.min())


class ReferenceDinic:
    """Textbook Dinic: every node the BFS reaches keeps its level, and the
    blocking-flow walk restarts from the source after each augment.

    ``max_flow`` prunes its level graph and resumes at the bottleneck, but
    must make exactly these augmentations, in this order.
    """

    def __init__(self, net):
        self.adj = [[] for _ in range(net.num_nodes)]
        self.to, self.res = [], []
        for u, v, c in zip(net.tails, net.heads, net.caps):
            self.adj[u].append(len(self.to))
            self.to.append(v)
            self.res.append(c)
            self.adj[v].append(len(self.to))
            self.to.append(u)
            self.res.append(0)

    def run(self, s, t):
        total = 0
        while True:
            level = self.levels(s)
            if level[t] < 0:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self.augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed

    def levels(self, s):
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in self.adj[v]:
                if self.res[a] > 0 and level[self.to[a]] < 0:
                    level[self.to[a]] = level[v] + 1
                    queue.append(self.to[a])
        return level

    def augment(self, s, t, level, it):
        path, node = [], s
        while True:
            if node == t:
                amt = min(self.res[a] for a in path)
                for a in path:
                    self.res[a] -= amt
                    self.res[a ^ 1] += amt
                return amt
            while it[node] < len(self.adj[node]):
                a = self.adj[node][it[node]]
                if self.res[a] > 0 and level[self.to[a]] == level[node] + 1:
                    path.append(a)
                    node = self.to[a]
                    break
                it[node] += 1
            else:
                level[node] = -1  # dead end
                if not path:
                    return 0
                node = self.to[path.pop() ^ 1]
                it[node] += 1


def reference_max_flow(net):
    """``FlowResult`` of :class:`ReferenceDinic`, cut taken as ``max_flow``
    takes it.  Results compare equal when their raw per-arc flows do, so
    an equal result also decomposes into the same paths."""
    dinic = ReferenceDinic(net)
    value = dinic.run(net.source, net.sink)
    into = [[] for _ in range(net.num_nodes)]
    for a, v in enumerate(dinic.to):
        if dinic.res[a] > 0:
            into[v].append(dinic.to[a ^ 1])
    reach = {net.sink}
    queue = deque([net.sink])
    while queue:
        for u in into[queue.popleft()]:
            if u not in reach:
                reach.add(u)
                queue.append(u)
    cut = sum(
        c
        for u, v, c in zip(net.tails, net.heads, net.caps)
        if u not in reach and v in reach
    )
    return FlowResult(
        value=value,
        s_cut=tuple(v for v in range(net.num_nodes) if v not in reach),
        t_cut=tuple(v for v in range(net.num_nodes) if v in reach),
        cut_capacity=cut,
        raw_flow=tuple(c - dinic.res[2 * i] for i, c in enumerate(net.caps)),
        net=net,
    )


def random_network(rng):
    k = rng.randint(0, 12)
    num_nodes = k + 2
    source, sink = 0, num_nodes - 1
    net = FlowNetwork(num_nodes=num_nodes, source=source, sink=sink)
    arcs = []
    num_arcs = rng.randint(0, 3 * num_nodes)
    for _ in range(num_arcs):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v:
            continue
        cap = rng.choice([0, 1, 1, 2, 3, 5, 8, 13, 20])
        net.add_arc(u, v, cap)  # parallel arcs allowed
        arcs.append((u, v, cap))
    return net, arcs


def check_structural(net, result):
    """Feasibility, conservation, cut membership, decomposition re-add."""
    n, m = net.num_nodes, net.num_arcs
    assert len(result.flow) == m
    excess = [0] * n
    for i, f in enumerate(result.flow):
        assert 0 <= f <= net.caps[i]
        excess[net.tails[i]] -= f
        excess[net.heads[i]] += f
    for v in range(n):
        if v not in (net.source, net.sink):
            assert excess[v] == 0
    assert excess[net.sink] == result.value == -excess[net.source]

    assert sorted(result.s_cut + result.t_cut) == list(range(n))
    assert net.source in result.s_cut and net.sink in result.t_cut
    s_set = set(result.s_cut)
    crossing = sum(
        c
        for u, v, c in zip(net.tails, net.heads, net.caps)
        if u in s_set and v not in s_set
    )
    assert crossing == result.cut_capacity == result.value

    readd = [0] * m
    arc_of = {}
    for i in range(m):
        arc_of.setdefault((net.tails[i], net.heads[i]), []).append(i)
    for path in result.paths:
        assert path.nodes[0] == net.source and path.nodes[-1] == net.sink
        assert path.amount > 0
        assert len(set(path.nodes)) == len(path.nodes)  # simple path
        for u, v in zip(path.nodes, path.nodes[1:]):
            for i in arc_of[(u, v)]:
                room = result.flow[i] - readd[i]
                take = min(room, path.amount)
                readd[i] += take
                if take == path.amount:
                    break
    # acyclic flow: paths account for every unit on every arc
    assert readd == list(result.flow)


def check_t_cut_minimal(net, result):
    """t_cut must equal residual reachability to the sink, recomputed here."""
    res = {}
    for i in range(net.num_arcs):
        key = (net.tails[i], net.heads[i])
        res[key] = res.get(key, 0) + net.caps[i] - result.flow[i]
        back = (net.heads[i], net.tails[i])
        res[back] = res.get(back, 0) + result.flow[i]
    rev = {}
    for (u, v), c in res.items():
        if c > 0:
            rev.setdefault(v, []).append(u)
    reach = {net.sink}
    stack = [net.sink]
    while stack:
        v = stack.pop()
        for u in rev.get(v, []):
            if u not in reach:
                reach.add(u)
                stack.append(u)
    assert set(result.t_cut) == reach


def test_random_networks_match_brute_cut():
    rng = random.Random(20240701)
    for _ in range(150):
        net, arcs = random_network(rng)
        result = max_flow(net)
        assert result.value == brute_min_cut(
            net.num_nodes, net.source, net.sink, arcs
        )
        check_structural(net, result)
        check_t_cut_minimal(net, result)
        assert result == reference_max_flow(net)


def test_hand_diamond():
    # two disjoint unit paths plus a crossing arc: classic value 2
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(2, 3, 1)
    net.add_arc(1, 2, 1)
    result = max_flow(net)
    assert result.value == 2
    assert sum(p.amount for p in result.paths) == 2


def test_disconnected_network():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 5)
    result = max_flow(net)
    assert result.value == 0
    assert result.paths == ()
    assert result.t_cut == (2,)  # minimal sink side: nothing reaches back


def test_t_cut_is_minimal_not_maximal():
    # 0 -> 1 -> 2 with slack at the far end: cut sits at (0, 1), and the
    # minimal sink side contains both 1 and 2 (1 reaches 2 residually)
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 2, 7)
    result = max_flow(net)
    assert result.value == 1
    assert result.t_cut == (1, 2)


def test_zero_capacity_and_parallel_arcs():
    net = FlowNetwork(num_nodes=2, source=0, sink=1)
    net.add_arc(0, 1, 0)
    net.add_arc(0, 1, 3)
    net.add_arc(0, 1, 4)
    result = max_flow(net)
    assert result.value == 7
    assert result.flow == (0, 3, 4)


@pytest.mark.parametrize(
    "tails, heads, caps",
    [
        ([0], [2], [1 << 63]),  # capacity beyond CAP_LIMIT
        ([0], [2], [CAP_LIMIT]),
        ([0], [2], [-3]),  # negative capacity
        ([0, 1], [2], [1, 1]),  # list lengths differ
        ([0], [2], [1, 1]),
        ([3], [2], [1]),  # tail out of range
        ([0], [-1], [1]),  # head out of range
        ([0, 1], [1, 2], [1.5, 2.5]),  # fractional capacities
        ([0], [2], [2.0]),  # float capacity
        ([0.0], [2], [1]),  # float node id
        ([0], [np.float64(2)], [1]),
    ],
)
def test_constructor_rejects_bad_arc_lists(tails, heads, caps):
    with pytest.raises(FlowError):
        FlowNetwork(3, 0, 2, tails=tails, heads=heads, caps=caps)


def test_construction_errors():
    with pytest.raises(FlowError):
        FlowNetwork(num_nodes=3, source=0, sink=3)
    with pytest.raises(FlowError):
        FlowNetwork(num_nodes=3, source=1, sink=1)
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    with pytest.raises(FlowError):
        net.add_arc(0, 3, 1)
    with pytest.raises(FlowError):
        net.add_arc(0, 1, -1)
    with pytest.raises(FlowError):
        net.add_arc(0, 1, CAP_LIMIT)
    with pytest.raises(FlowError):
        net.add_arc(0, 1, 1.5)
    with pytest.raises(FlowError):
        net.add_arc(0.0, 1, 1)
    with pytest.raises(FlowError):
        FlowNetwork(num_nodes=3, source=0.0, sink=2)
    assert net.num_arcs == 0
    # numpy integers are integers
    net.add_arc(np.int64(0), np.int32(1), np.int64(4))
    net = FlowNetwork(3, 0, 2, [0, np.int64(1)], [1, 2], [np.int64(3), 5])
    assert max_flow(net).value == 3


def test_decompose_rejects_infeasible():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 2)
    net.add_arc(1, 2, 2)
    with pytest.raises(FlowError):
        decompose(net, [2])  # wrong length
    with pytest.raises(FlowError):
        decompose(net, [3, 3])  # over capacity
    with pytest.raises(FlowError):
        decompose(net, [2, 1])  # not conserved at node 1
    paths, stripped = decompose(net, [2, 2])
    assert stripped == [2, 2]
    assert [(p.nodes, p.amount) for p in paths] == [((0, 1, 2), 2)]


def test_lazy_decomposition_checks_the_flow_once(monkeypatch):
    # max_flow checks its flow; reading the paths walks that same tuple
    # without checking it again
    import vsep.flow

    calls = []
    original = vsep.flow._check_feasible

    def counting(net, flows):
        calls.append(1)
        return original(net, flows)

    monkeypatch.setattr(vsep.flow, "_check_feasible", counting)
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 2)
    net.add_arc(0, 2, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(2, 3, 2)
    result = max_flow(net)
    assert calls == [1]
    assert sum(p.amount for p in result.paths) == result.value == 2
    assert calls == [1]
    assert decompose(net, result.raw_flow)[1] == list(result.flow)
    assert calls == [1, 1]


def test_decompose_cancels_cycles():
    # feasible flow with a 1-2-3 circulation on top of a unit path
    net = FlowNetwork(num_nodes=5, source=0, sink=4)
    a = net.add_arc(0, 1, 1)
    b = net.add_arc(1, 2, 2)
    c = net.add_arc(2, 3, 1)
    d = net.add_arc(3, 1, 1)
    e = net.add_arc(2, 4, 1)
    flows = [0] * net.num_arcs
    flows[a] = 1
    flows[b] = 2
    flows[c] = 1
    flows[d] = 1
    flows[e] = 1
    paths, stripped = decompose(net, flows)
    assert sum(p.amount for p in paths) == 1
    assert stripped[c] == 0 and stripped[d] == 0 and stripped[b] == 1


def test_decompose_rejects_flow_into_source():
    # conserved at every inner node, but a unit re-enters the source
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 2, 1)
    net.add_arc(2, 0, 1)
    with pytest.raises(FlowError):
        decompose(net, [1, 1, 1])
    with pytest.raises(FlowError):
        decompose(net, [0, 0, 1])


def test_decompose_cycle_through_source_gives_no_paths():
    # a 0-1-0 cycle on top of a unit path: flow enters the source, but on
    # a cycle, which yields no path and is dropped from the acyclic flow
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 2)
    net.add_arc(1, 0, 1)
    net.add_arc(1, 3, 1)
    paths, stripped = decompose(net, [2, 1, 1])
    assert [(p.nodes, p.amount) for p in paths] == [((0, 1, 3), 1)]
    assert stripped == [1, 0, 1]


def test_decompose_circulation_through_source_only():
    # feasible flow that is nothing but a 0-1-0 circulation: no path
    # reaches the sink, so the walk ends at the source once the cycle is
    # cancelled, and the acyclic flow is empty
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_arc(0, 1, 2)
    net.add_arc(1, 0, 2)
    assert decompose(net, [2, 2]) == ([], [0, 0])


# ---------------------------------------------------------------------------
# split networks
# ---------------------------------------------------------------------------

def test_split_network_shape():
    g = path_graph(3)
    sn = build_split_network(g, [0], [2], p=3, q=2)
    assert sn.net.num_nodes == 8
    assert sn.source == 6 and sn.sink == 7
    # arc order: vertex arcs, both directions of each edge, source, sink;
    # edge k = (u, v) owns arcs n + 2k (u to v) and n + 2k + 1 (v to u)
    assert g.edges == ((0, 1), (1, 2))
    assert sn.net.tails == [0, 2, 4, 1, 3, 3, 5, 6, 5]
    assert sn.net.heads == [1, 3, 5, 2, 0, 4, 2, 0, 7]
    # vertex arcs weight 1 * q, edge arcs a sentinel exceeding every
    # finite capacity combined, terminal arcs 2p
    finite = sum(g.weights) * 2 + 2 * 3 * 2
    assert sn.net.caps == [2, 2, 2] + [finite + 1] * 4 + [6, 6]


def test_split_network_bottleneck_vertex():
    # middle vertex of a path caps the route: flow = min(2p, w1 * q)
    g = with_weights(path_graph(3), [5, 2, 5])
    sn = build_split_network(g, [0], [2], p=10, q=3)
    result = max_flow(sn.net)
    assert result.value == 6  # 2 * 3 < 2 * 10
    assert sn.sides(result) == ([0], [2], [1])
    assert sn.vertex_paths(result) == [((0, 1, 2), 6)]
    assert edge_arc_loads(g, result) == [6, 6]


def test_vertex_paths_from_split_nodes():
    # source, 3-in/out, 7-in/out, 1-in/out, sink
    g = make_graph(10, [(1, 7), (3, 7)])
    sn = build_split_network(g, [3], [1], p=1, q=1)
    result = max_flow(sn.net)
    assert [p.nodes for p in result.paths] == [(20, 6, 7, 14, 15, 2, 3, 21)]
    assert sn.vertex_paths(result) == [((3, 7, 1), 1)]
    assert edge_arc_loads(g, result) == [1, 1]


def test_split_network_terminal_capped():
    # generous interior: each terminal pushes/absorbs at most 2p
    g = complete_graph(4)
    heavy = with_weights(g, [50, 50, 50, 50])
    sn = build_split_network(heavy, [0], [3], p=7, q=1)
    result = max_flow(sn.net)
    assert result.value == 14


def test_split_network_cut_avoids_edge_arcs():
    # min cut consists of vertex and terminal arcs only, never sentinels
    g = complete_graph(4)
    sn = build_split_network(g, [0, 1], [2, 3], p=5, q=4)
    result = max_flow(sn.net)
    t_side = set(result.t_cut)
    n = g.n
    for k, (x, y) in enumerate(g.edges):
        for idx, (a, b) in ((n + 2 * k, (x, y)), (n + 2 * k + 1, (y, x))):
            u, v = sn.net.tails[idx], sn.net.heads[idx]
            assert (u, v) == (2 * a + 1, 2 * b)
            assert not (u not in t_side and v in t_side), f"cut crosses edge arc {a, b}"


def test_split_network_separator_disconnects():
    # forcing a cheap waist: the separator read off the cut must
    # disconnect A from B in the original graph
    g = with_weights(path_graph(5), [9, 9, 1, 9, 9])
    sn = build_split_network(g, [0], [4], p=100, q=1)
    result = max_flow(sn.net)
    assert sn.sides(result) == ([0, 1], [3, 4], [2])
    assert result.value == 1


def test_split_network_input_validation():
    g = path_graph(3)
    with pytest.raises(FlowError):
        build_split_network(g, [0], [0], p=1, q=1)
    with pytest.raises(FlowError):
        build_split_network(g, [0], [2], p=0, q=1)
    with pytest.raises(FlowError):
        build_split_network(g, [0], [5], p=1, q=1)


SPLIT_GRAPHS = (
    path_graph(60),
    grid_graph(8, 8),
    two_blobs_graph(12, 12, 3),
    complete_graph(10),
    with_weights(path_graph(41), [1 if i == 20 else 8 for i in range(41)]),
)


def test_split_networks_match_reference_dinic():
    # unit or random weights, random disjoint sides and random p/q
    rng = random.Random(20261018)
    for _ in range(240):
        g = rng.choice(SPLIT_GRAPHS)
        if rng.random() < 0.5:
            g = with_weights(g, [rng.randint(1, 9) for _ in range(g.n)])
        order = rng.sample(range(g.n), g.n)
        ka, kb = rng.randint(1, g.n // 3), rng.randint(1, g.n // 3)
        a_side, b_side = set(order[:ka]), set(order[ka : ka + kb])
        sn = build_split_network(
            g, a_side, b_side, rng.randint(1, 20), rng.randint(1, 20)
        )
        result = max_flow(sn.net)
        assert result == reference_max_flow(sn.net)
        check_split_decoders(g, sn, result, a_side, b_side)


def check_split_decoders(g, sn, result, a_side, b_side):
    """The cut partitions V, C is the set of cut vertex arcs, every path
    runs from A to B, and each edge's load is the flow of the paths that
    hop over it: the identity that makes flow feedback telescope."""
    a, b, c = sn.sides(result)
    assert sorted(a + b + c) == list(range(g.n))
    t_side = set(result.t_cut)
    net = sn.net
    assert c == [
        x for x in range(g.n) if net.tails[x] not in t_side and net.heads[x] in t_side
    ]
    edge_of = {e: k for k, e in enumerate(g.edges)}
    hops = [0] * g.m
    for path, amount in sn.vertex_paths(result):
        assert path[0] in a_side and path[-1] in b_side
        for u, v in zip(path, path[1:]):
            hops[edge_of[min(u, v), max(u, v)]] += amount
    assert edge_arc_loads(g, result) == hops


def edge_arc_loads(g, result):
    """Flow over both arcs of each edge k of ``g.edges``, arcs n + 2k and
    n + 2k + 1 of its split network, read off the acyclic flow."""
    flow = result.flow
    return [flow[g.n + 2 * k] + flow[g.n + 2 * k + 1] for k in range(g.m)]


def test_split_networks_share_one_skeleton():
    # back-to-back networks on one graph: each equals the reference max
    # flow on a network built afresh, and the shared lists never change
    rng = random.Random(7)
    g = with_weights(grid_graph(6, 6), [rng.randint(1, 9) for _ in range(36)])
    skel = g.split_skeleton
    before = (list(skel.tails), list(skel.heads), list(skel.to), [list(a) for a in skel.adj])
    for _ in range(30):
        order = rng.sample(range(g.n), g.n)
        ka, kb = rng.randint(1, 12), rng.randint(1, 12)
        sn = build_split_network(
            g, order[:ka], order[ka : ka + kb], rng.randint(1, 20), rng.randint(1, 20)
        )
        assert sn.net.skeleton is skel
        fresh = FlowNetwork(
            sn.net.num_nodes, sn.source, sn.sink,
            list(sn.net.tails), list(sn.net.heads), list(sn.net.caps),
        )
        got = max_flow(sn.net)
        want = reference_max_flow(fresh)
        assert got == want
        assert (got.paths, got.flow) == (want.paths, want.flow)
    assert (skel.tails, skel.heads, skel.to, skel.adj) == before
    assert g.split_skeleton is skel


def test_network_must_start_with_its_skeleton():
    g = path_graph(3)
    sn = build_split_network(g, [0], [2], p=1, q=1)
    net = sn.net
    with pytest.raises(FlowError):
        FlowNetwork(net.num_nodes, 6, 7, net.tails[1:], net.heads[1:], net.caps[1:], net.skeleton)
