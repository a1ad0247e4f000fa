import math
import timeit

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from flowctl import roadnet
from flowctl.roadnet import (
    Edge,
    NetworkSpecError,
    UnreachableError,
    build_default_network,
    build_network,
    enumerate_routes,
    free_flow_weights,
    make_network,
    shortest_route,
)

from flowctl.simcore import infer_layout, spawn_schedule

from crossroads import crossroad_text
from fileformats import network_to_text


# ---------------------------------------------------------------- oracles

def route_travel_time(net, edges, weights):
    """Total weight of a route's edge ids, summed left to right; every edge
    must have a weight entry."""
    for eid in edges:
        if eid not in net.edges:
            raise ValueError(f"route references unknown edge {eid!r}")
    return sum(roadnet._edge_weight(weights, eid) for eid in edges)


def validate_route(edges, net, origin, destination):
    """Raise ValueError unless the edge ids form a connected edge-simple
    path in net from origin to destination."""
    if not edges:
        raise ValueError("route has no edges")
    if len(set(edges)) != len(edges):
        raise ValueError("route repeats an edge")
    here = origin
    for eid in edges:
        edge = net.edges.get(eid)
        if edge is None:
            raise ValueError(f"route references unknown edge {eid!r}")
        if edge.from_node != here:
            raise ValueError(f"route breaks at edge {eid!r}: expected tail {here!r}")
        here = edge.to_node
    if here != destination:
        raise ValueError(f"route ends at {here!r}, not {destination!r}")


def brute_force_min_cost(net, origin, destination, weights):
    """Exhaustive node-simple DFS; returns the minimum path cost or None.

    With positive weights the cheapest edge-simple walk is node-simple, so
    this is a valid oracle for shortest_route's cost.
    """
    best = [None]

    def walk(node, cost, visited):
        if node == destination:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for eid in net.adjacency.get(node, ()):
            nxt = net.edges[eid].to_node
            if nxt in visited:
                continue
            walk(nxt, cost + weights[eid], visited | {nxt})

    walk(origin, 0.0, {origin})
    return best[0]


def brute_force_routes(net, origin, destination, weights):
    """All node-simple routes, sorted ascending by (cost, edge-id sequence)."""
    out = []

    def walk(node, cost, path, visited):
        if node == destination:
            out.append((cost, tuple(path)))
            return
        for eid in net.adjacency.get(node, ()):
            nxt = net.edges[eid].to_node
            if nxt in visited:
                continue
            path.append(eid)
            walk(nxt, cost + weights[eid], path, visited | {nxt})
            path.pop()

    walk(origin, 0.0, [], {origin})
    return sorted(out)


def random_graph(rng, max_nodes=10):
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    edges = []
    eid = 0
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                edges.append(Edge(f"e{eid:03d}", names[i], names[j],
                                  float(rng.integers(1, 11))))
                eid += 1
    if not edges:
        edges.append(Edge("e000", names[0], names[1], 1.0))
    net = make_network(edges, extra_nodes=tuple(names))
    weights = {e: net.edges[e].length for e in net.edges}
    return net, names, weights


def triangle():
    net = make_network([
        Edge("ab", "A", "B", 5.0),
        Edge("ac", "A", "C", 2.0),
        Edge("cb", "C", "B", 2.0),
    ])
    return net, {"ab": 5.0, "ac": 2.0, "cb": 2.0}


# ---------------------------------------------------------------- network

def test_default_network_geometry():
    net = build_default_network()
    assert len(net.edges) == 24
    for d in "nesw":
        app = net.edges[f"app_{d}_in"]
        jct = net.edges[f"jct_{d}_in"]
        assert app.length + jct.length == 1100.0
        assert app.length == 1000.0 and jct.length == 100.0
        assert app.lane_count == 4 and jct.lane_count == 4
        assert jct.signalized and not app.signalized
        assert jct.to_node == "c"
        out = net.edges[f"jct_{d}_out"]
        assert out.from_node == "c" and not out.signalized
    diagonals = [e for e in net.edges.values() if e.id.startswith("diag_")]
    assert len(diagonals) == 8
    for e in diagonals:
        assert e.length == 1414.0
        assert e.lane_count == 1
        assert not e.signalized


def test_default_network_boundary_connectivity():
    net = build_default_network()
    w = free_flow_weights(net)
    for o in "nesw":
        for d in "nesw":
            if o == d:
                continue
            cost, edges = shortest_route(net, o, d, w)
            validate_route(edges, net, o, d)
            assert cost == route_travel_time(net, edges, w)


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge("x", "a", "b", -5.0)
    with pytest.raises(ValueError):
        Edge("x", "a", "b", 5.0, lane_count=9)
    with pytest.raises(ValueError):
        Edge("x", "a", "a", 5.0)
    # Length and speed limit must be positive: zero is refused, and the
    # least positive double is not.
    base = {"id": "x", "from_node": "a", "to_node": "b", "length": 5.0}
    for field in ("length", "speed_limit"):
        with pytest.raises(ValueError, match=field):
            Edge(**{**base, field: 0.0})
        Edge(**{**base, field: 5e-324})


def test_build_network_minimal():
    net = build_network("node a\nnode b\nedge ab a b 100.0 2 13.89 0\n")
    assert net.edges["ab"].lane_count == 2
    assert net.adjacency["a"] == ("ab",)


def test_build_network_comments_and_blank_lines():
    text = "# a comment\n\nnode a\nnode b  # trailing\nedge ab a b 10 1 10 1\n"
    net = build_network(text)
    assert net.edges["ab"].signalized


def test_build_network_dangling_reference_reports_line():
    text = "node a\nedge ab a b 100 1 10 0\n"
    with pytest.raises(NetworkSpecError) as err:
        build_network(text)
    assert err.value.line == 2
    assert "b" in str(err.value)


def test_build_network_bad_values_report_line():
    with pytest.raises(NetworkSpecError) as err:
        build_network("node a\nnode b\nedge ab a b -4 1 10 0\n")
    assert err.value.line == 3
    with pytest.raises(NetworkSpecError):
        build_network("node a\nnode b\nedge ab a b ten 1 10 0\n")
    with pytest.raises(NetworkSpecError):
        build_network("road a b\n")
    with pytest.raises(NetworkSpecError):
        build_network("node a\nnode a\n")


@pytest.mark.parametrize("length, speed", [("nan", "10"), ("inf", "10"),
                                           ("100", "nan"), ("100", "inf")])
def test_build_network_rejects_non_finite_length_and_speed(length, speed):
    with pytest.raises(NetworkSpecError) as err:
        build_network(f"node a\nnode b\nedge e a b {length} 1 {speed} 0\n")
    assert err.value.line == 3


def test_default_network_round_trips_through_text_format():
    net = build_default_network()
    assert build_network(network_to_text(net)) == net


# ---------------------------------------------------------------- shortest

def test_shortest_single_edge():
    net = make_network([Edge("ab", "A", "B", 7.0)])
    assert shortest_route(net, "A", "B", {"ab": 7.0}) == (7.0, ("ab",))


def test_shortest_triangle_prefers_two_hop():
    net, w = triangle()
    assert shortest_route(net, "A", "B", w) == (4.0, ("ac", "cb"))


def test_shortest_default_straight_through():
    net = build_default_network()
    w = free_flow_weights(net)
    t, edges = shortest_route(net, "w", "e", w)
    assert edges == ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")
    assert t == route_travel_time(net, edges, w)
    assert math.isclose(t, 2200.0 / 13.89)
    assert 158.2 < t < 158.5


def test_shortest_adjacent_pair_prefers_diagonal():
    net = build_default_network()
    w = free_flow_weights(net)
    assert shortest_route(net, "w", "n", w)[1] == ("diag_wn",)
    assert shortest_route(net, "n", "e", w)[1] == ("diag_ne",)


def test_shortest_tie_breaks_lexicographically():
    net = make_network([
        Edge("z_top", "A", "T", 1.0),
        Edge("z_down", "T", "B", 1.0),
        Edge("a_bot", "A", "U", 1.0),
        Edge("m_down", "U", "B", 1.0),
    ])
    w = {e: 1.0 for e in net.edges}
    assert shortest_route(net, "A", "B", w) == (2.0, ("a_bot", "m_down"))


def test_shortest_errors():
    net, w = triangle()
    with pytest.raises(ValueError):
        shortest_route(net, "A", "A", w)
    with pytest.raises(ValueError):
        shortest_route(net, "A", "Z", w)
    with pytest.raises(UnreachableError):
        shortest_route(net, "B", "A", w)  # triangle edges all point away from B
    with pytest.raises(ValueError):
        shortest_route(net, "A", "B", {"ab": 5.0})  # missing weight entries


def test_shortest_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        net, names, weights = random_graph(rng)
        o, d = rng.choice(names, size=2, replace=False)
        expected = brute_force_min_cost(net, o, d, weights)
        if expected is None:
            with pytest.raises(UnreachableError):
                shortest_route(net, o, d, weights)
            continue
        cost, edges = shortest_route(net, o, d, weights)
        validate_route(edges, net, o, d)
        assert cost == route_travel_time(net, edges, weights)
        assert math.isclose(cost, expected)
        checked += 1


# ---------------------------------------------------------------- enumerate

def test_enumerate_triangle_two_routes():
    net, w = triangle()
    assert enumerate_routes(net, "A", "B", w, k=2) == [(4.0, ("ac", "cb")), (5.0, ("ab",))]


def test_enumerate_k1_equals_shortest():
    net = build_default_network()
    w = free_flow_weights(net)
    for o, d in [("w", "e"), ("n", "s"), ("w", "n")]:
        assert enumerate_routes(net, o, d, w, k=1)[0] == shortest_route(net, o, d, w)


def test_enumerate_default_k3_includes_signal_free_route():
    net = build_default_network()
    w = free_flow_weights(net)
    for o in "nesw":
        for d in "nesw":
            if o == d:
                continue
            routes = enumerate_routes(net, o, d, w, k=3)
            assert any(
                not any(net.edges[eid].signalized for eid in edges)
                for _, edges in routes
            )


def test_enumerate_matches_brute_force_on_small_graphs():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 30:
        net, names, weights = random_graph(rng, max_nodes=5)
        o, d = rng.choice(names, size=2, replace=False)
        expected = brute_force_routes(net, o, d, weights)
        if not expected:
            continue
        k = int(rng.integers(1, 5))
        routes = enumerate_routes(net, o, d, weights, k=k)
        assert routes == expected[:k]
        checked += 1


def test_enumerate_costs_non_decreasing_and_valid():
    rng = np.random.default_rng(11)
    for _ in range(30):
        net, names, weights = random_graph(rng)
        o, d = rng.choice(names, size=2, replace=False)
        try:
            routes = enumerate_routes(net, o, d, weights, k=4)
        except UnreachableError:
            continue
        costs = [route_travel_time(net, edges, weights) for _, edges in routes]
        assert costs == sorted(costs) == [cost for cost, _ in routes]
        assert len({edges for _, edges in routes}) == len(routes)
        for _, edges in routes:
            validate_route(edges, net, o, d)
        assert routes[0] == shortest_route(net, o, d, weights)


def test_enumerate_rejects_bad_k():
    net, w = triangle()
    with pytest.raises(ValueError):
        enumerate_routes(net, "A", "B", w, k=0)


@pytest.mark.parametrize("cap", [3, 12])
def test_enumerate_raises_at_search_cap(monkeypatch, cap):
    net = build_default_network()
    w = free_flow_weights(net)
    assert len(enumerate_routes(net, "w", "e", w, k=4)) == 4
    monkeypatch.setattr(roadnet, "_MAX_SEARCH_POPS", cap)
    with pytest.raises(RuntimeError, match=f"cap of {cap} expanded paths"):
        enumerate_routes(net, "w", "e", w, k=4)


def test_enumerate_search_cap_counts_every_expansion(monkeypatch):
    """A search that needs exactly the cap's number of expansions returns;
    with one fewer allowed, it raises."""
    net = build_default_network()
    w = free_flow_weights(net)
    pops = []
    real_heappop = roadnet.heapq.heappop
    monkeypatch.setattr(roadnet.heapq, "heappop",
                        lambda heap: pops.append(1) or real_heappop(heap))
    routes = enumerate_routes(net, "w", "e", w, k=4)
    monkeypatch.undo()
    monkeypatch.setattr(roadnet, "_MAX_SEARCH_POPS", len(pops))
    assert enumerate_routes(net, "w", "e", w, k=4) == routes
    monkeypatch.setattr(roadnet, "_MAX_SEARCH_POPS", len(pops) - 1)
    with pytest.raises(RuntimeError, match="expanded paths"):
        enumerate_routes(net, "w", "e", w, k=4)


def test_a_crossroad_that_infer_layout_accepts_can_reach_the_search_cap():
    """Why `shortest_route` keeps its Dijkstra.  Hang a complete digraph of
    5 m one-lane edges over `n` and nine extra nodes off the default
    crossroad.  The layout and spawn routing accept it, and the Dijkstra
    settles each node once.  A best-first search for even one route from
    `n` first expands every simple path inside the clique, which costs
    less than any edge out of it: about 986,000 paths, past the cap."""
    clique = ["n"] + [f"x{i}" for i in range(9)]
    net = make_network(list(build_default_network().edges.values()) + [
        Edge(f"k_{a}_{b}", a, b, 5.0) for a in clique for b in clique if a != b])
    infer_layout(net)
    schedule = spawn_schedule(net, 50, seed=7, horizon=60)
    assert len(schedule) == 50
    for spec in schedule:
        origin, destination = net.edges[spec.route[0]].from_node, net.edges[spec.route[-1]].to_node
        validate_route(spec.route, net, origin, destination)
        assert not any(eid.startswith("k_") for eid in spec.route)
    w = free_flow_weights(net)
    assert shortest_route(net, "n", "s", w)[1] == (
        "app_n_in", "jct_n_in", "jct_s_out", "app_s_out")
    assert min(timeit.repeat(lambda: shortest_route(net, "n", "s", w),
                             number=1, repeat=5)) < 1e-3
    with pytest.raises(RuntimeError,
                       match=f"cap of {roadnet._MAX_SEARCH_POPS} expanded paths"):
        enumerate_routes(net, "n", "s", w, k=1)


# ------------------------------------------------------- drawn crossroads

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=crossroad_text(), data=st.data())
def test_searches_on_drawn_crossroads_match_exhaustive_search(text, data):
    """On drawn crossroads, with free-flow weights plus drawn surcharges,
    between every ordered pair of nodes: shortest_route is the exhaustive
    node-simple minimum by (cost, edge ids), enumerate_routes(k) is the
    exhaustive k cheapest, and every returned cost is the left-to-right
    sum of its edges' weights."""
    net = build_network(text)
    weights = free_flow_weights(net)
    for eid in data.draw(st.lists(st.sampled_from(sorted(net.edges)), max_size=6)):
        weights[eid] += data.draw(st.sampled_from([2.5, 10.0, 37.125]))
    k = data.draw(st.integers(1, 8))
    for origin in sorted(net.adjacency):
        for destination in sorted(net.adjacency.keys() - {origin}):
            expected = brute_force_routes(net, origin, destination, weights)
            assert shortest_route(net, origin, destination, weights) == expected[0]
            routes = enumerate_routes(net, origin, destination, weights, k=k)
            assert routes == expected[:k]
            for cost, edges in routes:
                assert cost == route_travel_time(net, edges, weights)


# ---------------------------------------------------------------- weights

def test_travel_time_requires_weight_for_every_edge():
    net, w = triangle()
    route = ("ac", "cb")
    with pytest.raises(ValueError):
        route_travel_time(net, route, {"ac": 2.0})
    doubled = {k: 2 * v for k, v in w.items()}
    assert route_travel_time(net, route, doubled) == 8.0


def test_free_flow_weights_match_edges():
    net = build_default_network()
    w = free_flow_weights(net)
    assert all(w[eid] == e.length / e.speed_limit for eid, e in net.edges.items())
    assert math.isclose(w["diag_wn"], 1414.0 / 13.89)


def test_route_validate_rejects_broken_chains():
    net = build_default_network()
    with pytest.raises(ValueError):
        validate_route(("app_w_in", "jct_e_in"), net, "w", "c")
    with pytest.raises(ValueError):
        validate_route(("app_w_in", "app_w_in"), net, "w", "wi")
    validate_route(("app_w_in", "jct_w_in"), net, "w", "c")
