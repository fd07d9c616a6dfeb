"""Max flow, min cut, and the vertex-capacitated split network.

Run with: python3 demos/01_flow_and_cuts.py
"""

from vsep.flow import FlowNetwork, build_split_network, max_flow
from vsep.graphs import path_graph, with_weights


def arc_network() -> None:
    print("== arc-capacitated network ==")
    net = FlowNetwork(num_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 5)
    net.add_arc(1, 3, 5)
    net.add_arc(0, 2, 3)
    net.add_arc(2, 3, 3)
    result = max_flow(net)
    print(f"value          {result.value}")
    print(f"cut capacity   {result.cut_capacity}")
    print(f"source side    {result.s_cut}")
    print(f"sink side      {result.t_cut}")
    for p in result.paths:
        print(f"path           {'->'.join(map(str, p.nodes))}  x{p.amount}")
    print()


def vertex_capacities() -> None:
    # Routing through vertices instead of arcs: every vertex splits into
    # an entry and an exit joined by an arc of capacity w(x) * q, so a
    # flow bottleneck IS a cheap vertex cut.
    print("== vertex-capacitated split network ==")
    g = with_weights(path_graph(5), [9, 9, 1, 9, 9])
    split = build_split_network(g, (0,), (4,), p=10, q=1)
    result = max_flow(split.net)
    _, _, sep = split.sides(result)
    print(f"graph          weighted path, middle vertex costs 1")
    print(f"flow value     {result.value} (scaled units)")
    print(f"vertex cut     {sep} at cost {sum(g.weights[i] for i in sep)}")
    print()


if __name__ == "__main__":
    arc_network()
    vertex_capacities()
