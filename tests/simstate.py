"""Test helpers that read and set a `Simulation`'s vehicles in its lanes."""

from __future__ import annotations

from flowctl.simcore import VEHICLE_MAX_SPEED, Simulation, Vehicle


def iter_vehicles(sim: Simulation):
    """Every vehicle, in (edge order, lane, front-to-back) order."""
    for eid in sim._edge_order:
        for lane in sim._lanes[eid]:
            for slot in lane:
                yield sim._handles[slot]


def place_vehicle(sim: Simulation, vehicle_id: str, route, lane: int | None = None,
                  pos: float = 0.0, speed: float = 0.0, vtype: str = "car",
                  wait: int = 0) -> Vehicle:
    """Put a vehicle mid-network as if it had been scheduled: on `lane` (the
    lane with the most room, by default) of the route's first edge, at `pos`
    behind the vehicles ahead of it."""
    route = tuple(route)
    sim._check_route(route)
    edge = sim.net.edges[route[0]]
    if not 0.0 <= pos <= edge.length:
        raise ValueError(f"pos {pos} outside edge {route[0]} (0..{edge.length})")
    plan = sim._route_plan(route)
    if lane is None:
        lane = sim._pick_lane(*plan[0], sim._pos)[0]
    if not 0 <= lane < edge.lane_count:
        raise ValueError(f"lane {lane} out of range for {route[0]}")
    occupants = sim._lanes[route[0]][lane]
    at = 0
    while at < len(occupants) and sim._pos[occupants[at]] > pos:
        at += 1
    v = sim._add_vehicle(vehicle_id, vtype, VEHICLE_MAX_SPEED[vtype], route, plan,
                         lane, at, float(pos), float(speed), wait)
    sim.scheduled_total += 1
    return v
