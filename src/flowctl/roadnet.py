"""Road-network graphs, travel-time weights, and route search.

The default network models a four-leg signalized intersection: each arm is a
1000 m approach edge followed by a 100 m junction edge into the central node,
and adjacent boundary nodes are joined by signal-free 1414 m single-lane
diagonal bypass edges.  Arms are bidirectional (separate directed edges per
direction), so a vehicle can double back through a boundary node to reach a
bypass.

Networks and weight tables are immutable values and every operation here
is a pure function.  A route is a tuple of edge ids.  It never repeats an
*edge* but may repeat a node: a rerouted vehicle's path doubles back
through the node where it diverged.  Route *search* (shortest_route,
enumerate_routes) returns node-simple paths as (cost, edge ids), the
search's own heap key: the cost is the left-to-right sum of the edges'
weights from zero.  Callers assemble doubling-back routes by prepending the
already-committed edge to a searched suffix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

DEFAULT_SPEED_LIMIT = 13.89  # m/s (50 km/h)

APPROACH_LENGTH = 1000.0
JUNCTION_LENGTH = 100.0
DIAGONAL_LENGTH = 1414.0
ARM_LANES = 4
DIAGONAL_LANES = 1

BOUNDARY_NODES = ("n", "e", "s", "w")
CENTER_NODE = "c"

# adjacent boundary pairs joined by a bypass, one edge per direction
_DIAGONAL_PAIRS = (("n", "e"), ("e", "s"), ("s", "w"), ("w", "n"))

# Safety valve for route enumeration on adversarial graphs: a search that
# would expand more partial paths than this raises instead of returning a
# partial answer (on the intersection network it never comes close).
_MAX_SEARCH_POPS = 200_000


class NetworkSpecError(ValueError):
    """A network description failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnreachableError(ValueError):
    """No route exists between the requested origin and destination."""


@dataclass(frozen=True)
class Edge:
    """One directed road segment."""

    id: str
    from_node: str
    to_node: str
    length: float
    lane_count: int = 1
    speed_limit: float = DEFAULT_SPEED_LIMIT
    signalized: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("edge id must be non-empty")
        if self.length <= 0:
            raise ValueError(f"edge {self.id!r}: length must be positive, got {self.length}")
        if not 1 <= self.lane_count <= 4:
            raise ValueError(f"edge {self.id!r}: lane_count must be in 1..4, got {self.lane_count}")
        if self.speed_limit <= 0:
            raise ValueError(f"edge {self.id!r}: speed_limit must be positive")
        if self.from_node == self.to_node:
            raise ValueError(f"edge {self.id!r}: self-loops are not allowed")

    @property
    def free_flow_time(self) -> float:
        return self.length / self.speed_limit


@dataclass(frozen=True)
class RoadNetwork:
    """Directed graph of edges plus a per-node outgoing adjacency index."""

    nodes: frozenset[str]
    edges: dict[str, Edge]
    adjacency: dict[str, tuple[str, ...]]  # node -> outgoing edge ids, sorted


def make_network(edges: list[Edge], extra_nodes: tuple[str, ...] = ()) -> RoadNetwork:
    """Assemble a RoadNetwork from edges, validating endpoint consistency."""
    edge_map: dict[str, Edge] = {}
    nodes = set(extra_nodes)
    for e in edges:
        if e.id in edge_map:
            raise ValueError(f"duplicate edge id {e.id!r}")
        edge_map[e.id] = e
        nodes.add(e.from_node)
        nodes.add(e.to_node)
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for eid in sorted(edge_map):
        adjacency[edge_map[eid].from_node].append(eid)
    return RoadNetwork(
        nodes=frozenset(nodes),
        edges={eid: edge_map[eid] for eid in sorted(edge_map)},
        adjacency={n: tuple(adjacency[n]) for n in sorted(adjacency)},
    )


def build_default_network() -> RoadNetwork:
    """Four-leg signalized intersection with diagonal bypasses."""
    edges: list[Edge] = []
    for d in BOUNDARY_NODES:
        inner = f"{d}i"
        edges.append(Edge(f"app_{d}_in", d, inner, APPROACH_LENGTH, ARM_LANES))
        edges.append(Edge(f"jct_{d}_in", inner, CENTER_NODE, JUNCTION_LENGTH, ARM_LANES,
                          signalized=True))
        edges.append(Edge(f"jct_{d}_out", CENTER_NODE, inner, JUNCTION_LENGTH, ARM_LANES))
        edges.append(Edge(f"app_{d}_out", inner, d, APPROACH_LENGTH, ARM_LANES))
    for a, b in _DIAGONAL_PAIRS:
        edges.append(Edge(f"diag_{a}{b}", a, b, DIAGONAL_LENGTH, DIAGONAL_LANES))
        edges.append(Edge(f"diag_{b}{a}", b, a, DIAGONAL_LENGTH, DIAGONAL_LANES))
    return make_network(edges)


def build_network(text: str) -> RoadNetwork:
    """Parse a textual network description.

    Format (UTF-8, LF, ``#`` comments):

        node <id>
        edge <id> <from> <to> <length_m> <lanes> <speed_mps> <signalized 0|1>
    """
    declared_nodes: dict[str, int] = {}
    parsed_edges: list[tuple[int, Edge]] = []
    seen_edges: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) != 2:
                raise NetworkSpecError("node takes exactly one id", lineno)
            if parts[1] in declared_nodes:
                raise NetworkSpecError(f"duplicate node {parts[1]!r}", lineno)
            declared_nodes[parts[1]] = lineno
        elif kind == "edge":
            if len(parts) != 8:
                raise NetworkSpecError(
                    "edge takes: id from to length lanes speed signalized", lineno)
            eid, from_node, to_node = parts[1], parts[2], parts[3]
            if eid in seen_edges:
                raise NetworkSpecError(f"duplicate edge {eid!r}", lineno)
            try:
                length = float(parts[4])
                lanes = int(parts[5])
                speed = float(parts[6])
            except ValueError:
                raise NetworkSpecError("length/lanes/speed must be numeric", lineno) from None
            if parts[7] not in ("0", "1"):
                raise NetworkSpecError("signalized flag must be 0 or 1", lineno)
            try:
                edge = Edge(eid, from_node, to_node, length, lanes, speed,
                            signalized=parts[7] == "1")
            except ValueError as exc:
                raise NetworkSpecError(str(exc), lineno) from None
            seen_edges.add(eid)
            parsed_edges.append((lineno, edge))
        else:
            raise NetworkSpecError(f"unknown directive {kind!r}", lineno)
    for lineno, edge in parsed_edges:
        for node in (edge.from_node, edge.to_node):
            if node not in declared_nodes:
                raise NetworkSpecError(
                    f"edge {edge.id!r} references undeclared node {node!r}", lineno)
    return make_network([e for _, e in parsed_edges],
                        extra_nodes=tuple(declared_nodes))


def free_flow_weights(net: RoadNetwork) -> dict[str, float]:
    """Travel time of every edge at its speed limit."""
    return {eid: e.free_flow_time for eid, e in net.edges.items()}


def _check_endpoints(net: RoadNetwork, origin: str, destination: str) -> None:
    if origin not in net.nodes:
        raise ValueError(f"unknown origin {origin!r}")
    if destination not in net.nodes:
        raise ValueError(f"unknown destination {destination!r}")
    if origin == destination:
        raise ValueError("origin and destination must differ")


def _edge_weight(weights: dict[str, float], eid: str) -> float:
    try:
        w = weights[eid]
    except KeyError:
        raise ValueError(f"no weight for edge {eid!r}") from None
    if w <= 0:
        raise ValueError(f"weight for edge {eid!r} must be positive, got {w}")
    return w


def shortest_route(net: RoadNetwork, origin: str, destination: str,
                   weights: dict[str, float]) -> tuple[float, tuple[str, ...]]:
    """(cost, edge ids) of the minimum-weight route; cost ties break on the
    smallest edge-id sequence.

    Dijkstra over (cost, edge-id tuple) keys: tuple comparison gives the
    deterministic lexicographic tie-break, and path extension preserves key
    order because weights are strictly positive.
    """
    _check_endpoints(net, origin, destination)
    best: dict[str, tuple[float, tuple[str, ...]]] = {origin: (0.0, ())}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), origin)]
    while heap:
        cost, path, node = heapq.heappop(heap)
        if (cost, path) > best.get(node, (cost, path)):
            continue  # stale entry
        if node == destination:
            return cost, path
        for eid in net.adjacency.get(node, ()):
            cand = (cost + _edge_weight(weights, eid), path + (eid,))
            target = net.edges[eid].to_node
            known = best.get(target)
            if known is None or cand < known:
                best[target] = cand
                heapq.heappush(heap, (cand[0], cand[1], target))
    raise UnreachableError(f"no route from {origin!r} to {destination!r}")


def enumerate_routes(net: RoadNetwork, origin: str, destination: str,
                     weights: dict[str, float],
                     k: int) -> list[tuple[float, tuple[str, ...]]]:
    """(cost, edge ids) of up to k cheapest node-simple routes, ascending.

    Exact best-first search over partial node-simple paths.  Element 0 always
    equals shortest_route's pick because both order by the same key.  A
    search that reaches _MAX_SEARCH_POPS expansions before it is done raises
    RuntimeError rather than return fewer routes than exist.
    """
    _check_endpoints(net, origin, destination)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    found: list[tuple[float, tuple[str, ...]]] = []
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), origin)]
    pops = 0
    while heap and len(found) < k:
        if pops == _MAX_SEARCH_POPS:
            raise RuntimeError(
                f"route search from {origin!r} to {destination!r} reached its "
                f"cap of {_MAX_SEARCH_POPS} expanded paths with {len(found)} "
                f"of {k} routes found")
        cost, path, node = heapq.heappop(heap)
        pops += 1
        if node == destination:
            found.append((cost, path))
            continue
        visited = {origin}
        visited.update(net.edges[eid].to_node for eid in path)
        for eid in net.adjacency.get(node, ()):
            if net.edges[eid].to_node in visited:
                continue
            heapq.heappush(
                heap,
                (cost + _edge_weight(weights, eid), path + (eid,), net.edges[eid].to_node))
    if not found:
        raise UnreachableError(f"no route from {origin!r} to {destination!r}")
    return found
