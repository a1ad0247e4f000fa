"""Tests for the congestion-triggered rerouting engine."""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import Phase, example, given, settings, strategies as st
import numpy as np
import pytest

from flowctl import rerouter
from flowctl.pgagent import drive_episode
from flowctl.roadnet import (
    build_default_network,
    build_network,
    enumerate_routes,
    free_flow_weights,
)
from flowctl.rerouter import (
    RerouteDecision,
    apply_rerouting,
    candidate_vehicles,
    flagged_arms,
    surcharged_weights,
)
from flowctl.simcore import (
    ARM_ORDER,
    DETECTOR_PERIOD,
    DetectorReading,
    Simulation,
    spawn_schedule,
)

from crossroads import crossroad_text
from simstate import iter_vehicles, place_vehicle

NET = build_default_network()

STRAIGHT_W = ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")
BLOCK_ROUTE = ("jct_w_in", "jct_e_out", "app_e_out")

APP_FF = 1000.0 / 13.89
JCT_FF = 100.0 / 13.89
DIAG_FF = 1414.0 / 13.89

# The scripted jam below parks 83 vehicles on the west inbound edges, so the
# detector reports density 83/1000 and the surcharges follow from it.
JAM_DENSITY = 83 / 1000
SUR_APP = JAM_DENSITY * 1000.0 * 2.0
SUR_JCT = JAM_DENSITY * 100.0 * 2.0


def u_front(t_wt: float) -> float:
    """Stay estimate for a vehicle exactly at the west stop node."""
    return (JCT_FF + SUR_JCT) + JCT_FF + APP_FF + t_wt


def alt_via_north(t_wt: float) -> float:
    """North-exit-then-diagonal alternative (still crosses the west jam)."""
    return (JCT_FF + SUR_JCT) + JCT_FF + APP_FF + DIAG_FF + t_wt


ALT_DIAGONALS = APP_FF + 2 * DIAG_FF  # double back, two bypass diagonals


def make_sim(schedule=(), net=NET) -> Simulation:
    return Simulation(net, schedule)


def reading(arm: str, density: float) -> DetectorReading:
    return DetectorReading(arm=arm, window_start=0, vehicle_count=0,
                           mean_speed=0.0, density=density)


def build_west_jam() -> Simulation:
    """Phase 0 keeps west red: 80 parked blockers fill the junction edge's
    through lanes, three through-bound candidates pile up on the approach."""
    sim = make_sim()
    for lane in (1, 2):
        for i in range(40):
            place_vehicle(sim, f"b{lane}_{i}", BLOCK_ROUTE, lane=lane,
                          pos=97.5 - 2.5 * i)
    for i, pos in enumerate((1000.0, 997.5, 995.0)):
        place_vehicle(sim, f"cand{i}", STRAIGHT_W, lane=1, pos=pos)
    return sim


# Phase 0 keeps east and west red.  Per lane of each of those arms, the exit
# that lane's turning movement leads to: left, through, through, right.
JAM_EXITS = {"w": ("n", "e", "e", "s"), "e": ("s", "w", "w", "n")}


def build_two_arm_jam() -> Simulation:
    """Parked blockers fill all four lanes of the east and west junction
    edges; behind them, two candidates per lane queue on each approach, so
    one window has six distinct (next node, destination) pairs, each shared
    by two or four vehicles."""
    sim = make_sim()
    for arm, exits in JAM_EXITS.items():
        for lane, to in enumerate(exits):
            route = (f"app_{arm}_in", f"jct_{arm}_in", f"jct_{to}_out", f"app_{to}_out")
            for i in range(40):
                place_vehicle(sim, f"b{arm}{lane}_{i}", route[1:], lane=lane,
                              pos=97.5 - 2.5 * i)
            for i, pos in enumerate((1000.0, 997.5)):
                place_vehicle(sim, f"c{arm}{lane}_{i}", route, lane=lane, pos=pos)
    return sim


def reference_rerouting(sim: Simulation, readings, threshold: float,
                        max_alternatives: int = 4) -> list[RerouteDecision]:
    """apply_rerouting as a per-vehicle loop: one route search per
    candidate, and every tail priced by the original estimate."""
    def tail_time(tail, base, weights):
        return base + sum(weights[eid] for eid in tail)

    flagged = flagged_arms(readings, threshold)
    weights = surcharged_weights(sim, readings, flagged)
    decisions = []
    for arm in flagged:
        for vehicle, _ in candidate_vehicles(sim, arm):
            edge = sim.net.edges[vehicle.edge_id]
            old_remaining = vehicle.remaining_route
            current_tail = vehicle.route[vehicle.route_idx + 1:]
            base = (edge.length - vehicle.pos) / edge.length * weights[vehicle.edge_id]
            u_twt = tail_time(current_tail, base, weights)
            destination = sim.net.edges[vehicle.route[-1]].to_node
            options = sorted(
                (tail_time(tail, base, weights), tail)
                for _, tail in enumerate_routes(sim.net, edge.to_node, destination,
                                                weights, k=max_alternatives)
                if tail != current_tail)
            switch = bool(options) and u_twt > options[0][0]
            if switch:
                sim.replace_route_suffix(vehicle, options[0][1])
                vehicle.rerouted = True
            decisions.append(RerouteDecision(
                time=sim.clock, vehicle=vehicle.id, old_route=old_remaining,
                new_route=vehicle.remaining_route,
                decision="switch" if switch else "stay", u_twt=u_twt,
                best_alternative=options[0][0] if options else None))
    return decisions


def rerouting(threshold: float):
    """A window hook that reroutes on the window's readings with k = 4."""
    return lambda sim, readings: apply_rerouting(sim, readings, threshold, 4)


def run_to_next_window(sim: Simulation, hook):
    """Step to the next window boundary and call hook(sim, readings)."""
    while True:
        readings = sim.step()
        if readings is not None:
            return hook(sim, readings)


# ---------------------------------------------------------------- flagging

def test_flagging_is_strictly_above_threshold():
    readings = {
        "n": reading("n", 0.05),      # equal: not flagged
        "e": reading("e", 0.050001),  # above: flagged
        "s": reading("s", 0.0),
        "w": reading("w", 0.3),
    }
    assert flagged_arms(readings, 0.05) == ["e", "w"]
    assert flagged_arms(readings, 0.5) == []


def test_expected_arm_wait_is_wait_per_queued_vehicle():
    """After the density surcharge, each flagged arm's junction edge adds
    the arm's accrued waiting per queued vehicle, and nothing when no
    vehicle is queued there.  An unflagged arm adds nothing, queue or not."""
    sim = make_sim()
    place_vehicle(sim, "q1", ("jct_n_in", "jct_s_out", "app_s_out"),
                  lane=1, pos=97.5, wait=10)
    place_vehicle(sim, "q2", ("jct_n_in", "jct_s_out", "app_s_out"),
                  lane=2, pos=97.5, wait=20)
    # A moving vehicle adds its accrued wait but does not join the queue.
    place_vehicle(sim, "m", ("app_n_in", "jct_n_in", "jct_s_out", "app_s_out"),
                  lane=1, pos=100.0, speed=13.89, wait=7)
    place_vehicle(sim, "qw", ("jct_w_in", "jct_e_out", "app_e_out"),
                  lane=1, pos=97.5, wait=40)
    readings = {a: reading(a, 0.0) for a in "nesw"}
    readings["n"] = reading("n", JAM_DENSITY)
    free = free_flow_weights(NET)
    weights = surcharged_weights(sim, readings, ["n", "e"])
    assert weights["jct_n_in"] == JCT_FF + JAM_DENSITY * 100.0 * 2.0 + 37 / 2
    assert weights["app_n_in"] == APP_FF + JAM_DENSITY * 1000.0 * 2.0
    assert weights["jct_e_in"] == JCT_FF  # flagged, nothing queued
    changed = {eid for eid in free if weights[eid] != free[eid]}
    assert changed == {"jct_n_in", "app_n_in"}  # not jct_w_in: w is unflagged


def test_surcharge_applies_only_to_flagged_inbound_edges():
    sim = make_sim()
    readings = {a: reading(a, 0.0) for a in "nesw"}
    readings["w"] = reading("w", JAM_DENSITY)
    weights = surcharged_weights(sim, readings, ["w"])
    assert weights["app_w_in"] == pytest.approx(APP_FF + SUR_APP)
    assert weights["jct_w_in"] == pytest.approx(JCT_FF + SUR_JCT)
    assert weights["app_n_in"] == pytest.approx(APP_FF)
    assert weights["jct_e_in"] == pytest.approx(JCT_FF)
    assert weights["app_w_out"] == pytest.approx(APP_FF)
    assert weights["diag_wn"] == pytest.approx(DIAG_FF)


# -------------------------------------------------------------- candidates

def test_candidate_filter_and_ordering():
    sim = make_sim()
    place_vehicle(sim, "a", STRAIGHT_W, lane=2, pos=500.0)
    place_vehicle(sim, "d", STRAIGHT_W, lane=3, pos=500.0)
    place_vehicle(sim, "b", STRAIGHT_W, lane=1, pos=200.0)
    # Excluded: already past the approach edge.
    place_vehicle(sim, "j", BLOCK_ROUTE, lane=1, pos=50.0)
    # Excluded: already diverted once.
    prior = place_vehicle(sim, "r", STRAIGHT_W, lane=1, pos=600.0)
    prior.rerouted = True
    # Excluded: remaining route skips the junction edge entirely.
    place_vehicle(sim, "n", ("app_w_in", "app_w_out", "diag_wn", "diag_ne"),
                  lane=0, pos=700.0)
    assert [(v.id, pos) for v, pos in candidate_vehicles(sim, "w")] == \
        [("a", 500.0), ("d", 500.0), ("b", 200.0)]
    assert candidate_vehicles(sim, "e") == []


# ----------------------------------------------------- evaluate: stay case

def test_stay_decision_matches_hand_computed_estimates():
    sim = build_west_jam()
    new = run_to_next_window(sim, rerouting(0.05))  # window at clock 30

    assert [d.vehicle for d in new] == ["cand0", "cand1", "cand2"]
    front = new[0]
    assert front.decision == "stay"
    assert front.time == 30
    # Everyone on the arm has waited the full 30 s, so the per-vehicle
    # stop-line wait is exactly 30.
    assert front.u_twt == pytest.approx(u_front(30.0), rel=1e-12)
    assert front.best_alternative == pytest.approx(alt_via_north(30.0), rel=1e-12)
    assert front.u_twt < front.best_alternative
    assert front.old_route == STRAIGHT_W
    assert front.new_route == STRAIGHT_W
    vehicles = {v.id: v for v in iter_vehicles(sim)}
    assert vehicles["cand0"].rerouted is False
    assert vehicles["cand0"].route == STRAIGHT_W


def test_detector_density_feeding_the_monitor():
    sim = build_west_jam()
    for _ in range(30):
        readings = sim.step()
    assert readings["w"].density == pytest.approx(JAM_DENSITY)
    assert readings["n"].density == 0.0


# --------------------------------------------------- evaluate: switch case

def test_switch_fires_once_waiting_dominates_the_bypass():
    sim = build_west_jam()
    reroute = rerouting(0.05)
    decisions = []
    # Stay windows: the bypass still looks worse than queueing.
    for _ in range(5):  # clocks 30..150
        new = run_to_next_window(sim, reroute)
        decisions += new
        assert all(d.decision == "stay" for d in new)
    # At 180 s of accrued stop-line wait the bypass wins for everyone.
    new = run_to_next_window(sim, reroute)
    decisions += new
    assert sim.clock == 180
    assert [d.decision for d in new] == ["switch", "switch", "switch"]
    front = new[0]
    assert front.u_twt == pytest.approx(u_front(180.0), rel=1e-12)
    assert front.best_alternative == pytest.approx(ALT_DIAGONALS, rel=1e-12)
    assert front.u_twt > front.best_alternative
    for d in new:
        assert d.new_route[-3:] == ("app_w_out", "diag_wn", "diag_ne")
        assert "jct_w_in" not in d.new_route
        assert "jct_w_in" in d.old_route
    vehicles = {v.id: v for v in iter_vehicles(sim)}
    for i in range(3):
        v = vehicles[f"cand{i}"]
        assert v.rerouted is True
        assert v.route == ("app_w_in", "app_w_out", "diag_wn", "diag_ne")
    sim.validate()

    # Next window: the switched vehicles are no longer candidates.
    before = len(decisions)
    decisions += run_to_next_window(sim, reroute)
    assert len(decisions) == before

    # And they actually drive the double-back bypass to the destination.
    while sim.clock < 520:
        sim.step()
    sim.validate()
    assert sim.arrived_count == 3
    assert len(sim.vehicles_on_edge("jct_w_in")) == 80  # jam still parked


def test_high_threshold_suppresses_all_decisions():
    sim = build_west_jam()
    decisions = []
    new = run_to_next_window(sim, rerouting(0.2))
    decisions += new
    assert new == []
    assert decisions == []


def test_apply_rerouting_without_flagged_arms_is_empty():
    sim = make_sim()
    readings = {a: reading(a, 0.0) for a in "nesw"}
    assert apply_rerouting(sim, readings, threshold=0.05, max_alternatives=4) == []


def test_best_alternative_empty_when_no_options():
    """With k = 1 the one route searched is the current tail, so no
    alternative is left: the vehicle stays and logs none."""
    sim = build_west_jam()
    new = run_to_next_window(
        sim, lambda s, readings: apply_rerouting(s, readings, 0.05, max_alternatives=1))
    assert [(d.decision, d.best_alternative) for d in new] == [("stay", None)] * 3
    assert new[0].u_twt == pytest.approx(u_front(30.0), rel=1e-12)


# ------------------------------------------------- searches shared per window

def test_tail_pays_each_flagged_stop_line_it_crosses_once():
    """A tail's price is the plain sum of its weights, so it pays a flagged
    arm's stop-line wait once when it crosses that junction edge, and not
    at all when it bypasses it."""
    sim = make_sim()
    place_vehicle(sim, "qw", BLOCK_ROUTE, lane=1, pos=97.5, wait=30)
    for lane, wait in ((1, 10), (2, 15)):
        place_vehicle(sim, f"qe{lane}", ("jct_e_in", "jct_w_out", "app_w_out"),
                      lane=lane, pos=97.5, wait=wait)
    readings = {a: reading(a, 0.0) for a in "nesw"}
    weights = surcharged_weights(sim, readings, ["w", "e"])
    assert weights["jct_e_in"] == JCT_FF + 12.5
    assert sum(weights[eid] for eid in BLOCK_ROUTE) == \
        pytest.approx(2 * JCT_FF + APP_FF + 30.0, rel=1e-12)
    assert sum(weights[eid] for eid in ("app_w_out", "diag_wn", "diag_ne")) == \
        pytest.approx(APP_FF + 2 * DIAG_FF, rel=1e-12)


def test_one_search_per_distinct_query_changes_no_decision(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return enumerate_routes(*args, **kwargs)

    monkeypatch.setattr(rerouter, "enumerate_routes", counting)
    threshold = 0.05
    pair_counts = []

    def shared(sim, readings):
        pairs = {(NET.edges[v.edge_id].to_node, NET.edges[v.route[-1]].to_node)
                 for arm in flagged_arms(readings, threshold)
                 for v, _ in candidate_vehicles(sim, arm)}
        before = len(calls)
        decisions = apply_rerouting(sim, readings, threshold, 4)
        assert sorted(calls[before:]) == sorted(pairs)
        pair_counts.append(len(pairs))
        return decisions

    def reference(sim, readings):
        return reference_rerouting(sim, readings, threshold)

    sim, ref = build_two_arm_jam(), build_two_arm_jam()
    decisions = []
    for _ in range(7):  # windows 30..210
        got = run_to_next_window(sim, shared)
        assert got == run_to_next_window(ref, reference)
        decisions += got
    sim.validate()
    # The comparison is not vacuous: several vehicles share each pair, and
    # both outcomes occur.
    assert max(pair_counts) == 6
    assert len(decisions) > sum(pair_counts)
    assert {d.decision for d in decisions} == {"stay", "switch"}


# ------------------------------------------------------------- determinism

def test_decision_stream_is_deterministic():
    def collect():
        sim = build_west_jam()
        reroute = rerouting(0.05)
        decisions = []
        for _ in range(7):  # through the switch window and one beyond
            decisions += run_to_next_window(sim, reroute)
        return decisions

    assert collect() == collect()


# ------------------------------------------------------------- integration

def test_monitor_as_drive_episode_boundary_hook():
    sim = build_west_jam()
    reroute = rerouting(0.05)
    decisions = []
    drive_episode(sim, lambda state: 0, green_duration=4, max_decisions=50,
                  boundary_hook=lambda sim, readings: decisions.extend(reroute(sim, readings)))
    assert sim.clock == 200
    times = [d.time for d in decisions]
    assert times and all(t % DETECTOR_PERIOD == 0 for t in times)
    stays = [d for d in decisions if d.decision == "stay"]
    switches = [d for d in decisions if d.decision == "switch"]
    assert len(stays) == 15          # 3 candidates x windows 30..150
    assert len(switches) == 3        # everyone bails at the 180 s window
    assert {d.time for d in switches} == {180}


# ---------------------------------------------------- random inputs

def park_queue(sim: Simulation, arm: str) -> None:
    """Park 40 vehicles on each lane of the arm's junction edge, bound for
    the lane's exit (left, through, through, right), so that traffic on the
    approach queues behind them while the arm is red."""
    i = ARM_ORDER.index(arm)
    for lane, turn in enumerate((1, 2, 2, 3)):
        to = ARM_ORDER[(i + turn) % 4]
        for j in range(40):
            place_vehicle(sim, f"b{arm}{lane}_{j}", (f"jct_{arm}_in", f"jct_{to}_out",
                                                   f"app_{to}_out"),
                          lane=lane, pos=97.5 - 2.5 * j)


def window_cost(net, route, pos, weights):
    """The window's estimate for a vehicle at `pos` on route[0] that drives
    the rest of `route`, written out as `reference_rerouting` prices it."""
    edge = net.edges[route[0]]
    total = (edge.length - pos) / edge.length * weights[route[0]]
    return total + sum(weights[eid] for eid in route[1:])


def simple_tails(net, origin: str, destination: str) -> tuple[tuple[str, ...], ...]:
    """Every node-simple edge path from origin to destination in net, by
    exhaustive search; memoized per set of edges, so per network."""
    return _simple_tails(tuple(net.edges.values()), origin, destination)


@functools.cache
def _simple_tails(edges, origin, destination):
    adjacency = {}
    for edge in edges:
        adjacency.setdefault(edge.from_node, []).append(edge)
    tails = []

    def extend(node, visited, path):
        if node == destination:
            tails.append(path)
            return
        for edge in adjacency.get(node, ()):
            if edge.to_node not in visited:
                extend(edge.to_node, visited | {edge.to_node}, path + (edge.id,))

    extend(origin, {origin}, ())
    return tuple(tails)


def brute_force_best_alternative(net, route, pos, weights, max_alternatives):
    """The best alternative for a vehicle at `pos` on route[0], by
    exhaustive search: the unfinished part of the current edge plus the
    cheapest node-simple tail to the destination other than the current
    one, each tail summed left to right as `brute_force_min_cost` does in
    test_acceptance.py.  With k = 1 only the cheapest tail is offered (ties
    broken by edge ids), so there is none when that tail is the current one."""
    ranked = []
    for tail in simple_tails(net, net.edges[route[0]].to_node, net.edges[route[-1]].to_node):
        cost = 0.0
        for eid in tail:
            cost += weights[eid]
        ranked.append((cost, tail))
    ranked.sort()
    others = [cost for cost, tail in ranked[:1 if max_alternatives == 1 else None]
              if tail != route[1:]]
    return window_cost(net, route[:1], pos, weights) + others[0] if others else None


def check_grouped_rerouting(net, count, seed, horizon, parked, windows, hold, phases,
                            threshold, max_alternatives, density_seed):
    """Run apply_rerouting and the per-vehicle reference side by side on
    net for one drawn plan, and check every decision; see
    `test_grouped_rerouting_matches_the_per_vehicle_reference`."""
    rng = np.random.default_rng(density_seed)
    free_flow = free_flow_weights(net)

    def detour(spec):
        if rng.random() >= 1 / 3:
            return spec
        origin = net.edges[spec.route[0]].from_node
        destination = net.edges[spec.route[-1]].to_node
        routes = enumerate_routes(net, origin, destination, free_flow, k=4)
        return spec._replace(route=routes[rng.integers(len(routes))][1])

    schedule = [detour(spec) for spec in spawn_schedule(net, count, seed, horizon)]
    sim, ref = make_sim(schedule, net), make_sim(schedule, net)
    for arm in sorted(parked):
        park_queue(sim, arm)
        park_queue(ref, arm)
    switched = set()
    for window in range(windows):
        for s in (sim, ref):
            s.set_phase(phases[window // hold % len(phases)])
        for _ in range(DETECTOR_PERIOD):
            measured, ref_measured = sim.step(), ref.step()
        readings = {arm: r if rng.random() < 0.4 else
                    dataclasses.replace(r, density=rng.uniform(0.0, 0.3))
                    for arm, r in measured.items()}
        assert readings.keys() == ref_measured.keys()
        flagged = flagged_arms(readings, threshold)
        weights = surcharged_weights(sim, readings, flagged)
        positions = {v.id: pos for arm in flagged for v, pos in candidate_vehicles(sim, arm)}

        got = apply_rerouting(sim, readings, threshold, max_alternatives)
        assert got == reference_rerouting(ref, readings, threshold, max_alternatives)
        assert [d.vehicle for d in got] == list(positions)
        vehicles = {v.id: v for v in iter_vehicles(sim)}
        for d in got:
            assert type(d) is RerouteDecision and d.time == sim.clock
            pos = positions[d.vehicle]
            assert window_cost(net, d.old_route, pos, weights) == d.u_twt
            assert d.best_alternative == brute_force_best_alternative(
                net, d.old_route, pos, weights, max_alternatives)
            if d.decision == "stay":
                assert d.new_route is d.old_route
                continue
            assert d.vehicle not in switched
            switched.add(d.vehicle)
            old, new = d.old_route, d.new_route
            assert new[0] == old[0] and new != old
            assert net.edges[new[-1]].to_node == net.edges[old[-1]].to_node
            assert all(net.edges[a].to_node == net.edges[b].from_node
                       for a, b in zip(new, new[1:]))
            assert window_cost(net, new, pos, weights) == d.best_alternative < d.u_twt
            vehicle = vehicles[d.vehicle]
            assert vehicle.rerouted and vehicle.remaining_route == new
        assert [(v.id, v.route, v.lane, v.pos) for v in iter_vehicles(sim)] == \
            [(v.id, v.route, v.lane, v.pos) for v in iter_vehicles(ref)]
    sim.validate()


# Drawn demand and phase plans for check_grouped_rerouting.
PLANS = dict(count=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
             horizon=st.integers(1, 240), parked=st.sets(st.sampled_from(ARM_ORDER)),
             windows=st.integers(1, 12), hold=st.integers(1, 12),
             phases=st.lists(st.integers(0, 3), min_size=1, max_size=4),
             threshold=st.floats(0.0, 0.12), max_alternatives=st.integers(1, 5),
             density_seed=st.integers(0, 2**32 - 1))
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
# Two runs that are known to switch: all arms parked, and one phase held
# for eight or more windows, so the red arms' bypasses win.  The third holds
# phase 0 against all four parked arms with k = 3: through traffic behind
# the red jams is offered the diagonal bypass only because the search ranks
# tails by the stop-line wait too.
@example(count=280, seed=3, horizon=160, parked=set(ARM_ORDER), windows=8, hold=8,
         phases=[0], threshold=0.0, max_alternatives=5, density_seed=1)
@example(count=200, seed=4, horizon=90, parked={"n", "e", "s"}, windows=10, hold=10,
         phases=[2, 0], threshold=0.05, max_alternatives=4, density_seed=2)
@example(count=223, seed=1, horizon=76, parked=set(ARM_ORDER), windows=10, hold=10,
         phases=[0], threshold=0.0, max_alternatives=3, density_seed=0)
@given(**PLANS)
def test_grouped_rerouting_matches_the_per_vehicle_reference(
        count, seed, horizon, parked, windows, hold, phases, threshold,
        max_alternatives, density_seed):
    """Drawn demand, parked queues, phase plans (each phase held for `hold`
    windows, so that long reds build the stop-line waits that make bypasses
    win), thresholds and alternative counts.  About a third of the vehicles
    get one of their four cheapest free-flow routes, drawn at random, so
    vehicles bound for one destination differ in their current tails.  At
    each window every arm keeps its measured density or gets a drawn one.
    Both simulations must log equal decisions and stay equal, and every
    switch must be a strictly cheaper, connected route to the same
    destination.  Every estimate must be the window's cost of the route,
    and every best alternative the cheapest other tail that an exhaustive
    search over the crossroad finds."""
    check_grouped_rerouting(NET, count, seed, horizon, parked, windows, hold, phases,
                            threshold, max_alternatives, density_seed)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=NO_SHRINK)
@given(text=crossroad_text(), **PLANS)
def test_grouped_rerouting_matches_the_reference_on_drawn_crossroads(
        text, count, seed, horizon, parked, windows, hold, phases, threshold,
        max_alternatives, density_seed):
    """The checks of the test above on crossroads drawn in `build_network`'s
    text format, with drawn lengths and limits and each diagonal present
    or not.  Where the diagonal to an adjacent arm is missing or slow, the
    trip turns left or right at the junction and keeps to that turn's lane,
    which the default crossroad's demand never does."""
    check_grouped_rerouting(build_network(text), count, seed, horizon, parked, windows,
                            hold, phases, threshold, max_alternatives, density_seed)
