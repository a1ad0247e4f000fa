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
    lane with the most room, ties to the lowest, by default) of the route's
    first edge, at `pos` behind the vehicles ahead of it."""
    route = tuple(route)
    sim._check_route(route)
    edge = sim.net.edges[route[0]]
    if not 0.0 <= pos <= edge.length:
        raise ValueError(f"pos {pos} outside edge {route[0]} (0..{edge.length})")
    plan = sim._route_plan(route)
    (_, first_lane, length, limit, arm, halt, span, lanes), allowed = plan[0]
    if lane is None:
        rooms = [sim._pos[lanes[i][-1]] if lanes[i] else length for i in allowed]
        lane = allowed[rooms.index(max(rooms))]
    if not 0 <= lane < edge.lane_count:
        raise ValueError(f"lane {lane} out of range for {route[0]}")
    occupants = lanes[lane]
    at = 0
    while at < len(occupants) and sim._pos[occupants[at]] > pos:
        at += 1

    if not sim._free:
        sim._relayout(2 * sim._speed.size)
    slot = sim._free.pop()
    v = sim._handles[slot] = Vehicle(sim, slot, vehicle_id, VEHICLE_MAX_SPEED[vtype],
                                     route, plan)
    v.lane = lane
    sim._pos[slot] = pos
    sim._speed[slot] = speed
    sim._wait[slot] = wait
    # Insert at index `at` (0 = front) and repoint it and the vehicle behind.
    sim._leader[slot] = (occupants[at - 1] if at
                         else sim._speed.size + first_lane + lane)
    if at < len(occupants):
        sim._leader[occupants[at]] = slot
    occupants.insert(at, slot)
    sim._cap[slot] = min(v.max_speed, limit)
    sim._end[slot] = length
    sim._lane_of[slot] = first_lane + lane
    sim._halt[slot] = halt
    sim._span[slot] = span
    if arm >= 0:
        sim._arm_count[arm] += 1
    sim.active_count += 1
    sim.scheduled_total += 1
    return v
