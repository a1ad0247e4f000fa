"""Test helpers that read and set a `Simulation`'s vehicles in its lanes,
and read its signal plan."""

from __future__ import annotations

from flowctl.simcore import VEHICLE_MAX_SPEED, Simulation, Vehicle, phase_is_green


def is_green(sim: Simulation, arm: str, lane: int) -> bool:
    """Whether the plan shows green to `lane` of `arm`'s junction edge."""
    return not sim.in_yellow and phase_is_green(sim.phase, arm, lane)


def iter_vehicles(sim: Simulation):
    """Every vehicle, lane by lane in lane id order (edges sorted by id,
    then lane), each lane front to back."""
    for lane in sim._lane_slots:
        for slot in lane:
            yield sim._handles[slot]


def place_vehicle(sim: Simulation, vehicle_id: str, route, lane: int | None = None,
                  pos: float = 0.0, speed: float = 0.0, vtype: str = "car",
                  wait: int = 0) -> Vehicle:
    """Put a vehicle mid-network as if it had been scheduled: on `lane` (by
    default the lane admission picks: the most room, with a later lane
    taking over only by more than 1e-12) of the route's first edge, at
    `pos` behind the vehicles ahead of it."""
    route = tuple(route)
    sim._check_route(route)
    edge = sim.net.edges[route[0]]
    if not 0.0 <= pos <= edge.length:
        raise ValueError(f"pos {pos} outside edge {route[0]} (0..{edge.length})")
    plan = sim._route_plan(route)
    (first_lane, length, limit, arm, halt), allowed = plan[0]
    if lane is None:
        lane_id, room = allowed[0], -1.0
        for candidate in allowed:
            occupants = sim._lane_slots[candidate]
            lane_room = sim._pos[occupants[-1]] if occupants else length
            if lane_room > room + 1e-12:
                lane_id, room = candidate, lane_room
    elif not 0 <= lane < edge.lane_count:
        raise ValueError(f"lane {lane} out of range for {route[0]}")
    else:
        lane_id = first_lane + lane
    occupants = sim._lane_slots[lane_id]
    at = 0
    while at < len(occupants) and sim._pos[occupants[at]] > pos:
        at += 1

    if not sim._free:
        sim._relayout(2 * sim._speed.size)
    slot = sim._free.pop()
    v = sim._handles[slot] = Vehicle(sim, slot, vehicle_id, VEHICLE_MAX_SPEED[vtype],
                                     route, plan)
    sim._pos[slot] = pos
    sim._speed[slot] = speed
    sim._wait[slot] = wait
    # Insert at index `at` (0 = front) and repoint it and the vehicle behind.
    sim._leader[slot] = occupants[at - 1] if at else sim._speed.size + lane_id
    if at < len(occupants):
        sim._leader[occupants[at]] = slot
    occupants.insert(at, slot)
    sim._cap[slot] = min(v.max_speed, limit)
    sim._end[slot] = length
    sim._lane_of[slot] = lane_id
    sim._halt[slot] = halt
    if arm >= 0:
        sim._arm_count[arm] += 1
    sim.scheduled_total += 1
    return v
