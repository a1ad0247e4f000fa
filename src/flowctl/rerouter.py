"""Congestion-triggered vehicle rerouting around the signalized junction.

Every detector window, arms whose inbound density exceeds a threshold are
flagged.  For each flagged arm, vehicles still on its approach edge that
have not been diverted before and are heading for the junction estimate a
door-to-destination time for the current route and for the best few
alternatives, all from one table of edge weights:

* each edge weighs its free-flow traversal time; every flagged arm's
  inbound edges add a surcharge in proportion to the measured density, and
  its junction edge adds the arm's expected stop-line wait (accrued waiting
  per queued vehicle there).

A route's estimate is the sum of its weights, so the route search ranks
tails by exactly the cost that the decision compares.  A searched tail is
node-simple and a current tail never repeats an edge, so every route pays a
flagged stop line's wait at most once.  Because that wait charges the
bottleneck rather than the vehicle, a big queue never makes "take a
different exit through the same jam" look attractive; the first estimates
to win are the bypass routes that double back at the inner node and travel
the diagonals.

A vehicle switches only when its current-route estimate is strictly worse
than the best alternative; ties stay.  Switching rewrites the route tail in
place and marks the vehicle so it is never diverted twice.  Every
comparison, switch or stay, is recorded with its current-route estimate and
the best alternative's.

The weights are fixed for a whole window, so the route search is shared
per window: one `apply_rerouting` call searches each distinct (next node,
destination) pair once, and each searched tail takes the search's own
cost, the same left-to-right sum of its weights.  Vehicles with the same
remaining route also share its price and the list of alternatives.  Only
the part of the estimate that depends on the vehicle, its unfinished
current edge, is computed per vehicle, and a stay records its old route
tuple again.

In a run, `harness.run_experiment` calls `apply_rerouting` at every
detector window with the readings it has just logged, and with the
threshold and alternative count that `harness.RunConfig` validates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .roadnet import enumerate_routes, free_flow_weights
from .simcore import ARM_ORDER, DetectorReading, Simulation, Vehicle

SURCHARGE_RATE = 2.0  # seconds of penalty per estimated vehicle on the edge


class RerouteDecision(NamedTuple):
    """One stay-or-switch comparison for one vehicle at one window."""

    time: int
    vehicle: str
    old_route: tuple[str, ...]
    new_route: tuple[str, ...]
    decision: str  # "switch" or "stay"
    u_twt: float
    best_alternative: float | None  # None when no alternative was found


def flagged_arms(readings: dict[str, DetectorReading],
                 threshold: float) -> list[str]:
    """Arms whose inbound density strictly exceeds the threshold."""
    return [arm for arm in ARM_ORDER
            if arm in readings and readings[arm].density > threshold]


def surcharged_weights(sim: Simulation, readings: dict[str, DetectorReading],
                       flagged: list[str]) -> dict[str, float]:
    """Free-flow traversal times plus the congestion cost of flagged arms.

    The surcharge per inbound edge is density x length x SURCHARGE_RATE:
    density x length estimates the vehicles occupying the edge, and each is
    charged as a fixed clearance cost.  The junction edge then adds the
    arm's expected stop-line wait: its accrued waiting per currently queued
    vehicle, or 0 when nothing is queued.
    """
    weights = dict(free_flow_weights(sim.net))
    loads = sim.arm_loads()
    for arm in flagged:
        density = readings[arm].density
        quad = sim.arms[arm]
        for eid in (quad.approach_in, quad.junction_in):
            weights[eid] += density * sim.net.edges[eid].length * SURCHARGE_RATE
        wait, queue = loads[ARM_ORDER.index(arm)]
        weights[quad.junction_in] += wait / queue if queue else 0.0
    return weights


def candidate_vehicles(sim: Simulation, arm: str) -> list[tuple[Vehicle, float]]:
    """Divertable vehicles with their positions: on the flagged arm's
    approach edge, never diverted before, and still routed through that
    arm's junction edge.  Ordered front of queue first, then by lane.

    The edge lists its vehicles lane by lane, each lane front to back, and
    vehicles in one lane stand at least MIN_GAP apart.  So a stable sort by
    descending position breaks ties by lane, and never needs the id."""
    quad = sim.arms[arm]
    junction_edge = quad.junction_in
    vehicles = sim.vehicles_on_edge(quad.approach_in)
    positions = sim.positions_on_edge(quad.approach_in)
    order = np.argsort(np.negative(positions), kind="stable").tolist()
    return [(vehicles[i], positions[i]) for i in order
            if not vehicles[i].rerouted and junction_edge in vehicles[i].remaining_route]


def apply_rerouting(sim: Simulation, readings: dict[str, DetectorReading],
                    threshold: float, max_alternatives: int) -> list[RerouteDecision]:
    """One full pass: flag arms, build the cost model, and decide every
    candidate.  A candidate switches to its best alternative, and is marked
    as rerouted, only if its current-route estimate is strictly worse.

    Candidates with the same remaining route, so the same current edge,
    next node, destination and current tail, form a group whose tails are
    priced once (see the module notes).  Per vehicle only `base` and the
    additions and sort that use it are computed, the same operations in
    the same order as pricing each vehicle alone."""
    flagged = flagged_arms(readings, threshold)
    if not flagged:
        return []
    net = sim.net
    weights = surcharged_weights(sim, readings, flagged)
    searches: dict[tuple[str, str], list] = {}
    groups: dict[tuple[str, ...], tuple] = {}
    decisions: list[RerouteDecision] = []
    for arm in flagged:
        for vehicle, pos in candidate_vehicles(sim, arm):
            old_route = vehicle.remaining_route
            group = groups.get(old_route)
            if group is None:
                edge = net.edges[old_route[0]]
                pair = (edge.to_node, net.edges[old_route[-1]].to_node)
                tail = old_route[1:]
                priced = searches.get(pair)
                if priced is None:
                    priced = searches[pair] = enumerate_routes(net, *pair, weights,
                                                               k=max_alternatives)
                group = groups[old_route] = (
                    edge.length, weights[edge.id], sum(weights[eid] for eid in tail),
                    [entry for entry in priced if entry[1] != tail])
            length, weight, tail_sum, others = group
            base = (length - pos) / length * weight
            u_twt = base + tail_sum
            options = sorted([(base + w, alt) for w, alt in others])
            if options and u_twt > options[0][0]:
                sim.replace_route_suffix(vehicle, options[0][1])
                vehicle.rerouted = True
                new_route, decision = vehicle.remaining_route, "switch"
            else:
                new_route, decision = old_route, "stay"
            decisions.append(RerouteDecision(sim.clock, vehicle.id, old_route, new_route,
                                             decision, u_twt,
                                             options[0][0] if options else None))
    return decisions
