"""Graph container, text formats, validation, enumeration, generators.

Expected optimum costs below are frozen from independent arguments
stated next to each value, never from the implementation under test.
"""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import vsep.graphs as graphs_mod
from vsep.flow import build_split_network, max_flow
from vsep.graphs import (
    GraphFormatError,
    SeparatorSolution,
    WeightedGraph,
    brute_force_opt,
    complete_graph,
    connected_components,
    generate,
    gnp_graph,
    grid_graph,
    make_graph,
    max_weight_bound,
    parse_graph,
    parse_separator,
    path_graph,
    render_graph,
    render_separator,
    star_graph,
    sweep_separator,
    two_blobs_graph,
    validate_separator,
    with_weights,
)

THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# container and formats
# ---------------------------------------------------------------------------

def test_make_graph_canonicalizes_edges():
    g = make_graph(4, [(2, 1), (1, 2), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2
    assert g.weights == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "n, edges, weights, message",
    [
        (0, (), (), "at least one vertex"),
        (2, (), (1,), "length"),
        (2, (), (1, 0), "outside"),
        (3, ((1, 1),), (1, 1, 1), "self-loop"),
        (3, ((2, 1),), (1, 1, 1), "not sorted"),
        (3, ((0, 1), (0, 1)), (1, 1, 1), "duplicate"),
        # split networks are built on these checks, not re-checked
        (2, (), (1.5, 1), r"vertex 0 is 1\.5, not an integer"),
        (2, (), (1, 2.0), r"vertex 1 is 2\.0, not an integer"),
        (3, ((0.0, 1),), (1, 1, 1), r"edge \(0\.0, 1\) has a non-integer"),
        (3.0, (), (1, 1, 1), "vertex count 3.0 is not an integer"),
    ],
)
def test_direct_construction_rejects(n, edges, weights, message):
    # parse_graph refuses these first; only direct construction gets here
    with pytest.raises(ValueError, match=message):
        WeightedGraph(n, edges, weights)


def test_numpy_integer_weights_build_flow_and_validate():
    plain = with_weights(grid_graph(4, 4), [1 + v % 3 for v in range(16)])
    g = WeightedGraph(plain.n, plain.edges, tuple(map(np.int64, plain.weights)))
    assert g == plain
    sides = ([0, 1], [14, 15], 2, 3)
    got = max_flow(build_split_network(g, *sides).net)
    assert got == max_flow(build_split_network(plain, *sides).net)
    sol = sweep_separator(g, THIRD)
    assert sol == sweep_separator(plain, THIRD)
    assert validate_separator(g, sol, THIRD) == (True, "ok")


def test_round_trip_parse_render():
    g = with_weights(grid_graph(3, 3), [1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert parse_graph(render_graph(g)) == g


def test_parse_rejects_bad_records():
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1\np 2 1\n")  # edge before header
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 1\ne 0 0\n")  # self loop
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 2\ne 0 1\ne 1 0\n")  # duplicate edge
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 0\ne 0 1\n")  # header miscount
    err = None
    try:
        parse_graph("p 2 1\nz 0 1\n")
    except GraphFormatError as exc:
        err = exc
    assert err is not None and err.line_no == 2


# blank and comment lines count in line numbers
@pytest.mark.parametrize(
    "text, message, line_no",
    [
        ("p 2 0\n\np 2 0\n", "duplicate 'p' header", 3),
        ("# header\np two 0\n", "'p' record fields must be integers", 2),
        ("p 0 0\n", "need n >= 1 and m >= 0", 1),
        ("p 2 0\nw 0\n", "'w' record needs <v> <weight>", 2),
        ("p 2 0\nw 0 x\n", "'w' record fields must be integers", 2),
        ("p 2 0\n# w\nw 2 1\n", "vertex 2 out of range [0, 2)", 3),
        ("p 2 0\nw 0 1\n\nw 0 2\n", "duplicate weight for vertex 0", 4),
        ("p 2 1\ne 0\n", "'e' record needs <u> <v>", 2),
        ("p 2 1\ne 0 y\n", "'e' record fields must be integers", 2),
        ("p 2 1\n  # edges\ne 0 5\n", "edge (0, 5) out of range", 3),
        ("# no header\n\n", "missing 'p' header", None),
    ],
)
def test_parse_graph_rejection_names_its_line(text, message, line_no):
    for given in (text, text.encode()):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(given)
        assert info.value.line_no == line_no
        where = "" if line_no is None else f"line {line_no}: "
        assert str(info.value) == where + message


@pytest.mark.parametrize(
    "text, message, line_no",
    [
        ("A: 0 1\n\n2\n", "separator line needs 'A:'/'B:'/'C:' prefix", 3),
        ("# sides\nD: 1\n", "unknown separator side 'D'", 2),
        ("A: 0\nA: 1\n", "duplicate side 'A'", 2),
        ("A: 0 x\n", "vertex ids must be integers", 1),
        ("A: 0 1\nB: 3 4\n", "missing side 'C'", None),
        # ids are checked against the graph: path 5 has vertices 0..4
        ("A: 0 1\nB: 3 4\nC: 2 99\n", "vertex 99 out of range [0, 5)", 3),
        ("A: 0 1\nB: 3 4\nC: 2 -1\n", "vertex -1 out of range [0, 5)", 3),
        ("A: 0 1\n# repeat\nC: 2 2\nB: 3 4\n", "vertex 2 repeated in side 'C'", 3),
    ],
)
def test_parse_separator_rejection_names_its_line(text, message, line_no):
    with pytest.raises(GraphFormatError) as info:
        parse_separator(text, path_graph(5), THIRD)
    assert info.value.line_no == line_no
    where = "" if line_no is None else f"line {line_no}: "
    assert str(info.value) == where + message


def test_weight_bound_enforced_at_parse():
    # cap is max(n, 4)^3; n=2 floors the base at 4
    assert max_weight_bound(2) == 64
    parse_graph("p 2 1\nw 0 64\ne 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 1\nw 0 65\ne 0 1\n")


def test_separator_round_trip():
    g = path_graph(5)
    sol = SeparatorSolution.build(g, [0, 1], [3, 4], [2], balance_achieved=THIRD)
    text = render_separator(sol)
    assert parse_separator(text, g, THIRD) == sol


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_good_separator():
    g = path_graph(5)
    sol = SeparatorSolution.build(g, [0, 1], [3, 4], [2], balance_achieved=THIRD)
    ok, msg = validate_separator(g, sol, THIRD)
    assert ok, msg


def test_validate_names_crossing_edge():
    g = path_graph(4)
    sol = SeparatorSolution.build(g, [0, 1], [2, 3], [], balance_achieved=THIRD)
    ok, msg = validate_separator(g, sol, THIRD)
    assert not ok
    assert msg == "edge (1, 2) crosses A and B"


def test_validate_rejects_bad_partition_and_balance():
    g = path_graph(6)
    overlapping = SeparatorSolution(
        a_side=(0, 1), b_side=(1, 2), separator=(3, 4, 5), cost=3,
        balance_achieved=THIRD,
    )
    ok, msg = validate_separator(g, overlapping, THIRD)
    assert not ok and "disjoint" in msg

    lopsided = SeparatorSolution.build(
        g, [0, 1, 2, 3, 4], [], [5], balance_achieved=THIRD
    )
    ok, msg = validate_separator(g, lopsided, THIRD)
    assert not ok and "balance" in msg

    bad_cost = SeparatorSolution(
        a_side=(0, 1), b_side=(3, 4, 5), separator=(2,), cost=7,
        balance_achieved=THIRD,
    )
    ok, msg = validate_separator(g, bad_cost, THIRD)
    assert not ok and "cost" in msg

    uncovered = SeparatorSolution.build(g, [0, 1], [3, 4], [2], balance_achieved=THIRD)
    assert validate_separator(g, uncovered, THIRD) == (
        False, "sides do not cover all vertices"
    )


def scan_validate(g, s, balance):
    """Reference: ``validate_separator`` with crossing edges found by a
    scan of every edge, in edge order."""
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
        return False, f"balance violated: max side {biggest} > (1 - {balance}) * {g.n}"
    if s.cost != g.weight_of(c):
        return False, f"recorded cost {s.cost} != w(C) = {g.weight_of(c)}"
    return True, "ok"


def test_validation_agrees_with_the_edge_scan():
    rng = random.Random(20261022)
    graphs = [
        two_blobs_graph(12, 10, 3),
        two_blobs_graph(30, 30, 3),
        complete_graph(9),
        grid_graph(5, 7),
        path_graph(17),
        gnp_graph(25, 0.2, seed=3),
        make_graph(6, []),
    ]
    cases = []
    for _ in range(400):
        g = rng.choice(graphs)
        labels = [rng.choice("AAABBC") for _ in range(g.n)]
        sides = {t: [v for v in range(g.n) if labels[v] == t] for t in "ABC"}
        sol = SeparatorSolution.build(g, sides["A"], sides["B"], sides["C"], THIRD)
        roll = rng.random()
        if roll < 0.1:  # a vertex on two sides
            v = rng.randrange(g.n)
            sol = replace(sol, separator=tuple(sorted({*sol.separator, v})))
        elif roll < 0.2:  # a vertex on none
            v = rng.randrange(g.n)
            sol = SeparatorSolution.build(
                g, [x for x in sides["A"] if x != v], [x for x in sides["B"] if x != v],
                [x for x in sides["C"] if x != v], THIRD,
            )
        elif roll < 0.3:
            sol = replace(sol, cost=sol.cost + 1)
        cases.append((g, sol, rng.choice([THIRD, Fraction(1, 10), Fraction(1, 2)])))
    # several crossing edges; the first in edge order starts on the larger
    # side, whichever of A and B that is.  two_blobs 12/10/3: 0..11 and
    # 9..18 are cliques, and every edge from {4, 6} into the rest crosses.
    # On the sparse graph, (1, 4) is the small side's first crossing edge
    sparse = make_graph(7, [(0, 6), (1, 4), (2, 3), (5, 6)])
    g = two_blobs_graph(12, 10, 3)
    for graph, small, sep, first in (
        (g, [4, 6], [9, 10], "edge (0, 4) crosses A and B"),
        (sparse, [4, 6], [5], "edge (0, 6) crosses A and B"),
    ):
        large = [v for v in range(graph.n) if v not in small + sep]
        for a_side, b_side in ((small, large), (large, small)):
            sol = SeparatorSolution.build(graph, a_side, b_side, sep, THIRD)
            assert validate_separator(graph, sol, THIRD) == (False, first)
            cases.append((graph, sol, THIRD))
    # the bridge cut: accepted, or rejected on balance or cost alone
    bridge = SeparatorSolution.build(g, range(9), range(12, g.n), [9, 10, 11], THIRD)
    cases += [(g, bridge, THIRD), (g, bridge, Fraction(3, 5)),
              (g, replace(bridge, cost=2), THIRD)]
    seen = set()
    for g, sol, balance in cases:
        want = scan_validate(g, sol, balance)
        assert validate_separator(g, sol, balance) == want
        seen.add(want[1].split()[0])
    assert seen == {"ok", "edge", "sides", "balance", "recorded"}


def test_connected_components():
    g = path_graph(6)
    comps = connected_components(g, removed={2})
    assert sorted(map(sorted, comps)) == [[0, 1], [3, 4, 5]]
    assert connected_components(g, removed=set(range(6))) == []


# ---------------------------------------------------------------------------
# brute force: frozen expected values
# ---------------------------------------------------------------------------

def test_brute_p5_cost_one():
    # any interior vertex splits the path into pieces of <= 3, within
    # the cap floor((2/3) * 5) = 3; no zero-cost separator exists on a
    # connected 5-vertex graph
    cost, sol = brute_force_opt(path_graph(5), THIRD)
    assert cost == 1
    assert len(sol.separator) == 1 and sol.separator[0] in (1, 2, 3)
    ok, msg = validate_separator(path_graph(5), sol, THIRD)
    assert ok, msg


def test_brute_k4_cost_two():
    # K4 at c=1/3: sides are capped at floor(8/3) = 2.  One removal
    # leaves a triangle, which cannot split under the cap since every
    # pair is adjacent, so one side would hold all 3 > 2.  Removing any
    # two vertices leaves a single edge: put both endpoints on one side
    # (2 <= 2).  Optimum is therefore exactly 2.
    cost, sol = brute_force_opt(complete_graph(4), THIRD)
    assert cost == 2
    ok, msg = validate_separator(complete_graph(4), sol, THIRD)
    assert ok, msg


def test_brute_two_blobs_cost_two():
    # two 8-cliques sharing 2 vertices (n = 14): removing the shared
    # pair leaves 6 + 6, within the cap of 9.  Removing any single
    # vertex leaves the blobs still sharing a vertex, hence one
    # component of >= 12 > 9.  Optimum is exactly the bridge pair.
    g = two_blobs_graph(8, 8, 2)
    assert g.n == 14
    cost, sol = brute_force_opt(g, THIRD)
    assert cost == 2
    assert sol.separator == (6, 7)


def test_brute_star_cost_one():
    # the center disconnects all leaves; 6 singletons pack into two
    # sides of 3 <= (2/3) * 7
    g = star_graph(6)
    cost, sol = brute_force_opt(g, THIRD)
    assert cost == 1
    assert sol.separator == (0,)


def test_brute_respects_weights():
    # on P5 all interior vertices are priced at 9, so any single-vertex
    # separator costs 9 (endpoints alone leave 4 > 3 connected).  The
    # two endpoints together cost 2 and leave 1-2-3, size 3 <= cap.
    g = with_weights(path_graph(5), [1, 9, 9, 9, 1])
    cost, sol = brute_force_opt(g, THIRD)
    assert cost == 2
    assert sol.separator == (0, 4)


def test_brute_single_vertex():
    cost, sol = brute_force_opt(make_graph(1, []), THIRD)
    assert cost == 1
    assert sol.separator == (0,)


def test_brute_rejects_oversize():
    with pytest.raises(ValueError):
        brute_force_opt(path_graph(15), THIRD, cap=14)


# ---------------------------------------------------------------------------
# sweep separator
# ---------------------------------------------------------------------------

def _cheap_middle_path(n: int) -> WeightedGraph:
    return with_weights(path_graph(n), [1 if i == n // 2 else 8 for i in range(n)])


@pytest.mark.parametrize(
    "g, cost",
    [
        # on a path any cut between the two end cores is one vertex
        pytest.param(path_graph(9), 1, id="path9"),
        pytest.param(path_graph(15), 1, id="path15"),
        pytest.param(path_graph(20), 1, id="path20"),
        pytest.param(path_graph(400), 1, id="path400"),
        pytest.param(path_graph(1000), 1, id="path1000"),
        # the weight-1 middle vertex lies between the cores of 134
        pytest.param(_cheap_middle_path(401), 1, id="cheap_middle_path401"),
        # BFS from a corner visits the grid by anti-diagonals, and the cut
        # is the anti-diagonal on which the first core of ceil(n/3) ends:
        # 1+2+3 = 6 (length 3), 21 < 27 <= 28 (7), 120 < 134 <= 136 (16),
        # 300 = 300 (24)
        pytest.param(grid_graph(4, 4), 3, id="grid4x4"),
        pytest.param(grid_graph(9, 9), 7, id="grid9x9"),
        pytest.param(grid_graph(20, 20), 16, id="grid20x20"),
        pytest.param(grid_graph(30, 30), 24, id="grid30x30"),
        # the cores lie in different cliques, joined only through the bridge
        pytest.param(two_blobs_graph(8, 8, 2), 2, id="two_blobs8_8_2"),
        pytest.param(two_blobs_graph(100, 100, 4), 4, id="two_blobs100_100_4"),
    ],
)
def test_sweep_separator_validates_at_c(g, cost):
    sol = sweep_separator(g, THIRD)
    assert sol is not None
    ok, msg = validate_separator(g, sol, THIRD)
    assert ok, msg
    assert sol.balance_achieved == THIRD
    assert sol.cost == cost
    assert sweep_separator(g, THIRD) == sol  # deterministic


def test_sweep_separator_restarts_at_a_peripheral_vertex(monkeypatch):
    # path 21 relabelled so that vertex 0 sits in the middle and 1 and 20
    # at the ends: the BFS from 0 has 11 levels, ending in {1, 20}; the
    # one from 1 has 21, so the sweep restarts, and the one from 20 (the
    # far end) has no more, so it stops
    line = [1, *range(2, 11), 0, *range(11, 21)]
    g = make_graph(21, list(zip(line, line[1:])))
    roots = []
    bfs = graphs_mod._bfs_levels

    def spy(adj, root):
        roots.append(root)
        return bfs(adj, root)

    monkeypatch.setattr(graphs_mod, "_bfs_levels", spy)
    sol = sweep_separator(g, THIRD)
    assert roots == [0, 1, 20]
    assert sol is not None and sol.cost == 1
    ok, msg = validate_separator(g, sol, THIRD)
    assert ok, msg


def test_sweep_separator_none_cases():
    # cores of ceil(0.49 * 9) = 5 vertices overlap on 9 vertices
    assert sweep_separator(path_graph(9), Fraction(49, 100)) is None
    # the BFS does not reach the second component
    assert sweep_separator(make_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), THIRD) is None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_shapes():
    assert path_graph(5).m == 4
    assert star_graph(6).n == 7 and star_graph(6).m == 6
    g = grid_graph(4, 4)
    assert g.n == 16 and g.m == 24  # 2 * 4 * 3 horizontal + vertical
    assert complete_graph(4).m == 6


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: grid_graph(-1, -5), id="grid-1x-5"),  # was 5 bare vertices
        pytest.param(lambda: grid_graph(0, 5), id="grid0x5"),
        pytest.param(lambda: grid_graph(3, 0), id="grid3x0"),
        pytest.param(lambda: gnp_graph(5, 2.0), id="gnp-p2"),
        pytest.param(lambda: gnp_graph(5, -1), id="gnp-p-1"),
        pytest.param(lambda: gnp_graph(4, float("nan")), id="gnp-nan"),
        pytest.param(lambda: gnp_graph(4, float("inf")), id="gnp-inf"),
    ],
)
def test_generators_reject_bad_parameters(build):
    with pytest.raises(ValueError):
        build()


def test_generators_accept_their_edge_parameters():
    assert grid_graph(1, 1).n == 1
    assert gnp_graph(5, 0).m == 0
    assert gnp_graph(5, 1) == complete_graph(5)


def test_generate_dispatch_and_determinism():
    a = generate("gnp", {"n": 12, "p": 0.4}, seed=9)
    b = generate("gnp", {"n": 12, "p": 0.4}, seed=9)
    c = generate("gnp", {"n": 12, "p": 0.4}, seed=10)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        generate("mystery", {}, seed=0)


def test_two_blobs_structure():
    g = two_blobs_graph(5, 6, 2)
    assert g.n == 9
    # shared vertices 3, 4 touch everything
    adj = g.adjacency
    assert set(adj[3]) | {3} == set(range(9))
    assert set(adj[4]) | {4} == set(range(9))
