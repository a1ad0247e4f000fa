"""Tests for the traffic microsimulation core."""

from __future__ import annotations

from collections import Counter
import copy
from dataclasses import replace
import itertools
import pickle

import numpy as np
import pytest

from flowctl.harness import desk_profile
from flowctl.pgagent import drive_episode
from flowctl.roadnet import build_default_network, build_network, make_network
from flowctl.simcore import (
    ARM_ORDER,
    DETECTOR_PERIOD,
    HALT_SPEED,
    INITIAL_SLOTS,
    MIN_GAP,
    SIM_TIME_CAP,
    VEHICLE_MAX_SPEED,
    VEHICLE_MIX,
    DetectorReading,
    InvariantViolation,
    NetworkLayoutError,
    SignalInterlockError,
    Simulation,
    SpawnSpec,
    infer_layout,
    phase_is_green,
    spawn_schedule,
)

from fileformats import network_to_text
from simstate import is_green, iter_vehicles, place_vehicle

NET = build_default_network()


def make_sim(schedule=(), **kw) -> Simulation:
    return Simulation(NET, schedule, **kw)


def run_steps(sim: Simulation, n: int):
    """Step n times and return what the last step returned."""
    out = None
    for _ in range(n):
        out = sim.step()
    return out


STRAIGHT_W = ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")
STRAIGHT_N = ("app_n_in", "jct_n_in", "jct_s_out", "app_s_out")


# ------------------------------------------------------------------ layout

def test_infer_layout_default_network():
    center, arms = infer_layout(NET)
    assert center == "c"
    assert set(arms) == {"n", "e", "s", "w"}
    assert arms["w"].approach_in == "app_w_in"
    assert arms["w"].junction_in == "jct_w_in"
    assert arms["w"].junction_out == "jct_w_out"
    assert arms["w"].approach_out == "app_w_out"


def test_infer_layout_rejects_wrong_signal_count():
    from flowctl.roadnet import Edge
    edges = [
        Edge("in1", "a", "m", 100.0, 4, 10.0, True),
        Edge("out1", "m", "a", 100.0, 4, 10.0, False),
    ]
    with pytest.raises(NetworkLayoutError):
        infer_layout(make_network(edges))


def test_infer_layout_rejects_an_arm_missing_an_outbound_edge():
    for dropped in ("jct_n_out", "app_n_out"):
        net = make_network([e for e in NET.edges.values() if e.id != dropped])
        with pytest.raises(NetworkLayoutError, match="missing its outbound edges"):
            infer_layout(net)


# ----------------------------------------------------------------- signals

def test_signal_phase_lane_map():
    for phase, greens in [
        (0, {("n", 1), ("n", 2), ("n", 3), ("s", 1), ("s", 2), ("s", 3)}),
        (1, {("n", 0), ("s", 0)}),
        (2, {("e", 1), ("e", 2), ("e", 3), ("w", 1), ("w", 2), ("w", 3)}),
        (3, {("e", 0), ("w", 0)}),
    ]:
        observed = {(a, l) for a in ARM_ORDER for l in range(4)
                    if phase_is_green(phase, a, l)}
        assert observed == greens
    sim = make_sim()  # starts green in phase 0
    assert (sim.phase, sim.in_yellow) == (0, False)
    assert all(is_green(sim, a, l) == phase_is_green(0, a, l)
               for a in ARM_ORDER for l in range(4))
    sim.validate()  # the sentinels hold phase 0's walls


def test_phase_change_runs_exactly_two_amber_steps():
    sim = make_sim()
    sim.set_phase(0)  # same as initial: no amber
    assert not sim.in_yellow
    sim.set_phase(2)
    greens = []
    for _ in range(4):
        sim.step()
        greens.append(is_green(sim, "e", 1))
    # two all-red steps, then green holds
    assert greens == [False, False, True, True]


def test_amber_blocks_everything():
    sim = make_sim()
    sim.set_phase(1)
    sim.step()
    assert sim.in_yellow
    assert not any(is_green(sim, a, l) for a in ARM_ORDER for l in range(4))


def test_set_phase_during_amber_raises():
    sim = make_sim()
    sim.set_phase(3)
    sim.step()
    with pytest.raises(SignalInterlockError):
        sim.set_phase(0)


def test_reselecting_phase_extends_green():
    sim = make_sim()
    sim.set_phase(0)
    run_steps(sim, 3)
    sim.set_phase(0)
    assert not sim.in_yellow
    sim.step()
    assert is_green(sim, "n", 1)


def test_signal_rejects_bad_phase():
    """Out of range, a float (even a whole one) and a bool are refused at
    the call and leave the plan as it was."""
    sim = make_sim()
    for bad in (-1, 4, 1.5, 2.0, True):
        with pytest.raises(ValueError):
            sim.set_phase(bad)
        assert (sim.phase, sim.in_yellow) == (0, False)
    sim.step()
    sim.validate()


def test_set_phase_takes_a_numpy_integer_as_a_python_int():
    sim = make_sim()
    sim.set_phase(np.int64(2))
    assert type(sim.phase) is int and sim.phase == 2 and sim.in_yellow
    run_steps(sim, 3)
    sim.validate()
    assert is_green(sim, "e", 1)


def test_yellow_duration_must_be_a_positive_integer():
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError):
            make_sim(yellow_duration=bad)
    sim = make_sim(yellow_duration=np.int64(1))
    assert type(sim.yellow_duration) is int and sim.yellow_duration == 1


@pytest.mark.parametrize("yellow", [1, 2, 3])
def test_amber_lasts_yellow_duration_steps_and_the_walls_follow_the_plan(yellow):
    """Traffic that grows and drains the slot arrays, under phase changes
    and re-selections until it clears: after every command and every step
    the sentinels hold the plan's walls, and each amber refuses commands
    and runs for exactly `yellow` steps.  Some resizes fall in an amber."""
    sim = make_sim(spawn_schedule(NET, count=250, seed=5, horizon=90),
                   yellow_duration=yellow)
    resized_in_amber = 0
    for phase in itertools.cycle((2, 2, 1, 3, 0, 0)):
        if sim.done:
            break
        changes = phase != sim.phase
        sim.set_phase(phase)
        sim.validate()
        ran = []  # per step: whether it ends in amber, so ran in amber
        while sim.in_yellow and len(ran) <= yellow:
            with pytest.raises(SignalInterlockError):
                sim.set_phase(phase)
            size = sim._speed.size
            sim.step()
            sim.validate()
            ran.append(sim.in_yellow)
            resized_in_amber += sim.in_yellow and sim._speed.size != size
        # The step that ends the amber runs green.
        assert ran == ([True] * yellow + [False] if changes else [])
        assert sim.phase == phase
        for _ in range(4):
            sim.step()
            sim.validate()
            assert not sim.in_yellow
    assert sim.arrived_count == sim.scheduled_total
    assert resized_in_amber > 0


# ---------------------------------------------------------------- schedule

def test_spawn_schedule_counts_and_mix():
    sched = spawn_schedule(NET, count=400, seed=11, horizon=300)
    assert len(sched) == 400
    mix = Counter(s.vtype for s in sched)
    assert mix == {"car": 360, "bus": 20, "trailer": 16, "ambulance": 4}
    crossing = [s for s in sched if len(s.route) == 4]
    bypass = [s for s in sched if len(s.route) == 1]
    assert len(crossing) == 240  # 60% head through the junction
    assert len(crossing) + len(bypass) == 400
    for s in crossing:
        assert s.route[1].startswith("jct_") and s.route[1].endswith("_in")
    for s in bypass:
        assert s.route[0].startswith("diag_")


def test_spawn_schedule_departures_cover_horizon():
    sched = spawn_schedule(NET, count=500, seed=2, horizon=250)
    departs = [s.depart for s in sched]
    assert departs == sorted(departs)
    assert min(departs) == 0
    assert max(departs) == 249


def test_spawn_schedule_deterministic():
    a = spawn_schedule(NET, count=120, seed=9, horizon=100)
    b = spawn_schedule(NET, count=120, seed=9, horizon=100)
    assert a == b
    c = spawn_schedule(NET, count=120, seed=10, horizon=100)
    assert a != c


def test_spawn_schedule_exact_split_odd_count():
    sched = spawn_schedule(NET, count=333, seed=1, horizon=200)
    crossing = sum(1 for s in sched if len(s.route) == 4)
    assert crossing == round(0.6 * 333)
    mix = Counter(s.vtype for s in sched)
    assert sum(mix.values()) == 333
    assert mix["car"] == 300  # floor(299.7) + largest remainder


def test_spawn_schedules_share_their_vehicle_id_strings():
    """Every schedule names vehicle i by one shared string object, so a
    run's logs hold each id once however many episodes it has."""
    short = spawn_schedule(NET, count=50, seed=3, horizon=100)
    long = spawn_schedule(NET, count=120, seed=4, horizon=100)
    again = spawn_schedule(NET, count=120, seed=5, horizon=100)
    ids = {s.vehicle_id: s.vehicle_id for s in long}
    assert sorted(ids, key=lambda i: int(i[1:])) == [f"v{i}" for i in range(120)]
    for sched in (short, again):
        assert all(s.vehicle_id is ids[s.vehicle_id] for s in sched)


def test_spawn_schedule_types_are_the_vehicle_mix_names():
    """Each spec's type is one of VEHICLE_MIX's own name strings, not a
    string made per vehicle, and its top speed is that type's."""
    names = [name for name, _, _ in VEHICLE_MIX]
    sched = spawn_schedule(NET, count=400, seed=11, horizon=300)
    for s in sched:
        assert any(s.vtype is name for name in names)
        assert s.max_speed == VEHICLE_MAX_SPEED[s.vtype]


def test_simulation_rejects_a_repeated_vehicle_id():
    a = SpawnSpec(depart=0, vehicle_id="v1", vtype="car", max_speed=13.9,
                  route=STRAIGHT_W)
    with pytest.raises(ValueError, match="duplicate vehicle ids"):
        Simulation(NET, [a, a._replace(depart=5, route=STRAIGHT_N)])


def test_specs_due_in_one_second_queue_in_id_string_order():
    """The queue holds specs in (depart, id) order, with ids compared as
    strings: "v10" goes before "v9".  Both turn left, so both want lane 0
    of the approach, and only the first in the queue enters at once."""
    left_w = ("app_w_in", "jct_w_in", "jct_n_out", "app_n_out")
    sched = [SpawnSpec(depart=0, vehicle_id=f"v{i}", vtype="car", max_speed=13.9,
                       route=left_w) for i in (9, 10)]
    sim = Simulation(NET, sched)
    sim.step()
    assert [v.id for v in iter_vehicles(sim)] == ["v10"]
    assert sim.pending_count == 1
    run_steps(sim, 5)
    assert [v.id for v in iter_vehicles(sim)] == ["v10", "v9"]


def test_spawn_schedule_validates_args():
    with pytest.raises(ValueError):
        spawn_schedule(NET, count=-1, seed=1, horizon=10)
    with pytest.raises(ValueError):
        spawn_schedule(NET, count=5, seed=1, horizon=0)
    assert spawn_schedule(NET, count=0, seed=1, horizon=10) == ()


# ------------------------------------------------------------------ motion

def test_free_acceleration_to_speed_limit():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=0.0)
    sim.set_phase(2)  # west main green
    speeds = []
    for _ in range(8):
        sim.step()
        speeds.append(v.speed)
    assert speeds[:5] == pytest.approx([2.6, 5.2, 7.8, 10.4, 13.0])
    assert speeds[5:] == pytest.approx([13.89, 13.89, 13.89])


def test_slow_vehicle_keeps_its_own_top_speed():
    sim = make_sim()
    v = place_vehicle(sim, "t", STRAIGHT_W, lane=1, pos=0.0, vtype="trailer")
    sim.set_phase(2)
    run_steps(sim, 10)
    assert v.speed == pytest.approx(10.0)


def test_red_light_halts_one_meter_out():
    sim = make_sim()  # phase 0: west arm is red
    v = place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                      lane=1, pos=99.0, speed=0.0)
    run_steps(sim, 5)
    assert v.pos == 99.0
    assert v.speed == 0.0
    assert v.wait == 5


def test_red_light_stops_at_margin():
    sim = make_sim()
    v = place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                      lane=2, pos=0.0)
    run_steps(sim, 30)
    assert v.pos == pytest.approx(100.0 - MIN_GAP)
    assert v.speed == 0.0


def test_green_releases_the_stopped_vehicle():
    sim = make_sim()
    v = place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                      lane=1, pos=97.5)
    run_steps(sim, 3)
    assert v.pos == 97.5
    sim.set_phase(2)
    run_steps(sim, 3)  # 2 amber + 1 green
    assert v.edge_id == "jct_e_out"


def test_follower_respects_gap_behind_stopped_leader():
    sim = make_sim()
    lead = place_vehicle(sim, "lead", ("jct_w_in", "jct_e_out", "app_e_out"),
                         lane=1, pos=97.5)
    # Occupy lane 2 as well so the follower cannot pick the empty lane.
    place_vehicle(sim, "lead2", ("jct_w_in", "jct_e_out", "app_e_out"),
                  lane=2, pos=97.5)
    back = place_vehicle(sim, "back", STRAIGHT_W, lane=1, pos=900.0, speed=13.89)
    for _ in range(40):
        sim.step()
        sim.validate()
        if back.edge_id == "jct_w_in":
            assert back.lane == 1
            assert back.pos <= lead.pos - MIN_GAP + 1e-9
    assert back.speed == 0.0
    assert back.pos == pytest.approx(lead.pos - MIN_GAP)


def test_queue_discharge_rate_is_plausible():
    """A standing queue should discharge roughly one vehicle per 1.2 s."""
    sim = make_sim()
    route = ("jct_n_in", "jct_s_out", "app_s_out")
    for i in range(30):
        place_vehicle(sim, f"q{i}", route, lane=1, pos=97.5 - 2.5 * i)
    sim.set_phase(0)
    run_steps(sim, 30)
    left = 30 - len([v for v in sim.vehicles_on_edge("jct_n_in")])
    assert 12 <= left <= 30


def test_one_crossing_per_lane_per_step():
    sim = make_sim()
    a = place_vehicle(sim, "a", STRAIGHT_N, lane=1, pos=997.0, speed=13.0)
    b = place_vehicle(sim, "b", STRAIGHT_N, lane=1, pos=993.0, speed=13.0)
    sim.step()
    assert a.edge_id == "jct_n_in"
    assert b.edge_id == "app_n_in"  # held behind the node until next step
    sim.validate()


def test_transition_carries_overflow_and_entry_speed():
    sim = make_sim()
    sim.set_phase(2)
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=995.0, speed=13.89)
    sim.step()
    assert v.edge_id == "jct_w_in"
    assert v.pos == pytest.approx(8.89)
    assert v.speed == pytest.approx(13.89)


def test_blocked_entry_holds_at_node():
    sim = make_sim()
    # Stuff both through lanes of the junction edge so the approach vehicle
    # cannot enter.  The blockers are red-locked queues, so they cannot move.
    route = ("jct_w_in", "jct_e_out", "app_e_out")
    for lane in (1, 2):
        for i in range(40):
            place_vehicle(sim, f"b{lane}_{i}", route, lane=lane, pos=97.5 - 2.5 * i)
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=995.0, speed=13.89)
    sim.step()
    assert v.edge_id == "app_w_in"
    assert v.pos == 1000.0
    assert v.speed == pytest.approx(5.0)
    sim.step()
    assert v.pos == 1000.0
    assert v.speed == 0.0
    sim.validate()


def test_arrival_removes_vehicle_and_keeps_books():
    sim = make_sim()
    v = place_vehicle(sim, "x", ("app_e_out",), lane=0, pos=995.0, speed=13.89)
    sim.step()
    assert sim.arrived_count == 1
    assert sim.active_count == 0
    assert sim.scheduled_total == 1
    sim.validate()


# ------------------------------------------------------------------- lanes

def test_through_traffic_spawns_on_middle_lanes():
    sched = [s for s in spawn_schedule(NET, 200, seed=4, horizon=120)
             if len(s.route) == 4][:40]
    sim = make_sim(sched)
    run_steps(sim, 60)
    for v in iter_vehicles(sim):
        if v.edge_id.startswith("app_") and v.edge_id.endswith("_in"):
            assert v.lane in (1, 2)


def test_left_turn_route_uses_lane_zero():
    sim = make_sim()
    # north in, exiting east = a left turn
    v = place_vehicle(sim, "x", ("app_n_in", "jct_n_in", "jct_e_out", "app_e_out"))
    assert v.lane == 0


def test_right_turn_route_uses_outer_lane():
    sim = make_sim()
    # north in, exiting west = a right turn
    v = place_vehicle(sim, "x", ("app_n_in", "jct_n_in", "jct_w_out", "app_w_out"))
    assert v.lane == 3


def test_a_route_ending_inside_the_crossroad_plans_the_movement_it_makes():
    """A route that stops on a junction-in edge makes no movement there, so
    its vehicle spreads by headroom; one that stops on a junction-out edge
    has crossed straight over, so it keeps to the through lanes."""
    stops = place_vehicle(make_sim(), "x", ("app_w_in", "jct_w_in"))
    assert stops.lane == 0
    crosses = place_vehicle(make_sim(), "x", ("app_w_in", "jct_w_in", "jct_e_out"))
    assert crosses.lane == 1


def test_no_junction_ahead_spreads_by_headroom():
    sim = make_sim()
    a = place_vehicle(sim, "a", ("app_n_out",), pos=0.0)
    assert a.lane == 0
    b = place_vehicle(sim, "b", ("app_n_out",), pos=0.0)
    assert b.lane == 1


def test_diagonal_is_single_lane():
    sim = make_sim()
    v = place_vehicle(sim, "x", ("diag_ne",))
    assert v.lane == 0


def test_through_traffic_on_a_two_lane_edge_uses_lane_one():
    lines = []
    for line in network_to_text(NET).splitlines():
        fields = line.split()
        if fields[0] == "edge" and fields[1].startswith("diag_"):
            fields[5] = "2"
        lines.append(" ".join(fields))
    sim = Simulation(build_network("\n".join(lines) + "\n"))
    route = ("diag_ne", "app_e_in", "jct_e_in", "jct_w_out", "app_w_out")
    v = place_vehicle(sim, "x", route)
    assert v.lane == 1
    sim.set_phase(2)
    run_steps(sim, 400)
    assert sim.arrived_count == 1
    sim.validate()


def test_a_spawn_behind_the_only_through_lane_of_a_two_lane_edge_waits():
    """Lane 1 is the only through lane of a two-lane edge, so a spawn due
    behind a vehicle that has just entered it waits, though lane 0 is empty."""
    net = make_network([replace(e, lane_count=2) if e.id.startswith("diag_") else e
                        for e in NET.edges.values()])
    route = ("diag_ne", "app_e_in", "jct_e_in", "jct_w_out", "app_w_out")
    sim = Simulation(net, [SpawnSpec(0, f"v{i}", "car", 13.9, route) for i in range(2)])
    sim.step()
    sim.validate()
    assert [v.lane for v in iter_vehicles(sim)] == [1]
    assert sim.pending_count == 1


def test_spawn_blocks_until_entry_clears():
    # A red-locked queue filling the whole edge keeps the entry occupied.
    route = ("jct_w_in", "jct_e_out", "app_e_out")
    spec = SpawnSpec(depart=0, vehicle_id="n1", vtype="car", max_speed=13.9,
                     route=route)
    sim = Simulation(NET, [spec])
    for lane in (1, 2):
        for i in range(40):
            place_vehicle(sim, f"b{lane}_{i}", route, lane=lane, pos=97.5 - 2.5 * i)
    run_steps(sim, 3)
    assert sim.pending_count == 1   # rear vehicles sit at pos 0: no room
    sim.set_phase(2)                # green drains the queue from the front;
    run_steps(sim, 50)              # the start wave takes ~1 s per vehicle
    assert sim.pending_count == 0
    sim.validate()


def red_locked_near_tie(schedule=()) -> Simulation:
    """The west junction edge, red, with lane 2's rear vehicle 1e-12 m
    further on than lane 1's: a tie, which goes to the lowest lane."""
    sim = Simulation(NET, schedule)
    place_vehicle(sim, "a", STRAIGHT_W[1:], lane=1, pos=97.5)
    place_vehicle(sim, "b", STRAIGHT_W[1:], lane=2, pos=97.5 + 1e-12)
    return sim


def test_lane_choice_takes_the_lowest_lane_on_a_near_tie():
    spec = SpawnSpec(depart=0, vehicle_id="n1", vtype="car", max_speed=13.9,
                     route=STRAIGHT_W[1:])
    sim = red_locked_near_tie([spec])
    sim.step()
    assert {v.id: v.lane for v in iter_vehicles(sim)}["n1"] == 1
    sim = red_locked_near_tie()
    x = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=999.0, speed=10.0)
    sim.step()
    assert (x.edge_id, x.lane) == ("jct_w_in", 1)
    assert place_vehicle(red_locked_near_tie(), "y", STRAIGHT_W[1:]).lane == 1


# ----------------------------------------------------------------- sensors

def test_sensors_empty_network_all_zero():
    sim = make_sim()
    assert sim.read_sensors().sum() == 0.0


def test_sensor_cell_for_west_straight_ten_meters_out():
    sim = make_sim()
    place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                  lane=1, pos=90.0)
    sensors = sim.read_sensors()
    assert sensors[71] == 1.0
    assert sensors.sum() == 1.0


def test_sensor_left_lane_goes_to_left_group():
    sim = make_sim()
    place_vehicle(sim, "x", ("jct_w_in", "jct_s_out", "app_s_out"),
                  lane=0, pos=90.0)
    sensors = sim.read_sensors()
    assert sensors[61] == 1.0  # 3*20 + 0 + 1
    assert sensors.sum() == 1.0


def test_sensor_range_spans_approach_edge():
    sim = make_sim()
    # 1050 m from the stop line: beyond sensing range
    place_vehicle(sim, "far", STRAIGHT_W, lane=1, pos=50.0)
    assert sim.read_sensors().sum() == 0.0
    # 500 m out: cell [400, 1000) of the west main group
    place_vehicle(sim, "mid", STRAIGHT_W, lane=2, pos=600.0)
    sensors = sim.read_sensors()
    assert sensors[3 * 20 + 10 + 9] == 1.0


def test_sensor_arm_blocks_are_ordered_n_e_s_w():
    sim = make_sim()
    place_vehicle(sim, "a", ("jct_n_in", "jct_s_out", "app_s_out"), lane=1, pos=99.0)
    place_vehicle(sim, "b", ("jct_e_in", "jct_w_out", "app_w_out"), lane=1, pos=99.0)
    sensors = sim.read_sensors()
    assert sensors[10] == 1.0  # north main, closest cell
    assert sensors[30] == 1.0  # east main, closest cell
    assert sensors.sum() == 2.0


# --------------------------------------------------------------- detectors

@pytest.mark.parametrize("sample_detectors", [True, False])
def test_step_returns_readings_only_at_window_boundaries(sample_detectors):
    sim = make_sim(spawn_schedule(NET, count=60, seed=4, horizon=60),
                   sample_detectors=sample_detectors)
    windows = 0
    while sim.clock < 4 * DETECTOR_PERIOD:
        readings = sim.step()
        if sim.clock % DETECTOR_PERIOD:
            assert readings is None
            continue
        windows += 1
        assert list(readings) == list(ARM_ORDER)
        for arm, r in readings.items():
            assert isinstance(r, DetectorReading)
            assert (r.arm, r.window_start) == (arm, sim.clock - DETECTOR_PERIOD)
            assert (r.vehicle_count is None) == (not sample_detectors)
    assert windows == 4


def test_detector_density_of_standing_queue():
    """40 parked vehicles on one arm's inbound edges -> density 0.04."""
    sim = make_sim()  # phase 0 keeps west red
    route = ("jct_w_in", "jct_e_out", "app_e_out")
    for i in range(40):
        lane = 1 if i < 20 else 2
        place_vehicle(sim, f"q{i}", route, lane=lane, pos=97.5 - 2.5 * (i % 20))
    readings = run_steps(sim, 30)
    assert readings["w"].density == pytest.approx(0.04)
    assert readings["n"].density == 0.0
    assert readings["w"].vehicle_count == 0  # none inside the approach span
    assert readings["w"].mean_speed == 0.0


def test_detector_counts_distinct_vehicles_in_span():
    spec = [SpawnSpec(depart=d, vehicle_id=f"v{d}", vtype="car", max_speed=13.9,
                      route=STRAIGHT_W) for d in (0, 4, 8)]
    sim = Simulation(NET, spec)
    sim.set_phase(2)
    readings = run_steps(sim, 30)
    assert readings["w"].vehicle_count == 3
    assert readings["w"].mean_speed > 0.0


def test_unsampled_detectors_change_nothing_but_count_and_mean_speed():
    """Sampling on and off, the same desk demand and random phases move
    every vehicle bit for bit alike and publish the same densities; only
    the sampling simulation reports count and mean speed."""
    sched = spawn_schedule(NET, count=1000, seed=17, horizon=300)
    on, off = make_sim(sched), make_sim(sched, sample_detectors=False)
    rng = np.random.default_rng(3)
    windows = counted = 0
    while not on.done:
        phase = int(rng.integers(0, 4))
        steps = 4 + 2 * (phase != on.phase)
        on.set_phase(phase)
        off.set_phase(phase)
        for _ in range(steps):
            sampled, unsampled = on.step(), off.step()
            for name in ("_pos", "_speed", "_wait"):
                assert getattr(on, name).tobytes() == getattr(off, name).tobytes()
            assert on.clock == off.clock
            assert (sampled is None) == (unsampled is None)
            if sampled is not None:
                windows += 1
                for arm in ARM_ORDER:
                    assert unsampled[arm].window_start == sampled[arm].window_start
                    assert unsampled[arm].density == sampled[arm].density
                    assert unsampled[arm].vehicle_count is None
                    assert unsampled[arm].mean_speed is None
                    assert isinstance(sampled[arm].vehicle_count, int)
                    counted += sampled[arm].vehicle_count
            if on.done:
                break
    assert off.done and off.avg_queue_len == on.avg_queue_len
    assert windows > 10 and counted > 0


# ----------------------------------------------------------- waits/rewards

def test_wait_accrues_only_while_halted_on_inbound_edges():
    sim = make_sim()
    stuck = place_vehicle(sim, "stuck", ("jct_w_in", "jct_e_out", "app_e_out"),
                          lane=1, pos=97.5)
    cruising = place_vehicle(sim, "free", ("diag_ne",), pos=0.0, speed=13.89)
    run_steps(sim, 10)
    assert stuck.wait == 10
    assert cruising.wait == 0
    assert sim.cumulative_wait() == 10
    loads = sim.arm_loads()
    assert loads[ARM_ORDER.index("w")] == (10, 1)
    assert sum(queue for _, queue in loads) == 1


def test_arm_loads_has_one_pair_per_arm_when_the_last_arms_are_empty():
    assert make_sim().arm_loads() == [(0, 0)] * len(ARM_ORDER)
    sim = make_sim()
    place_vehicle(sim, "left", ("jct_n_in", "jct_e_out", "app_e_out"), lane=0, pos=97.5)
    run_steps(sim, 3)  # phase 0 holds the north left lane at red
    assert sim.arm_loads() == [(3, 1), (0, 0), (0, 0), (0, 0)]


def test_wait_leaves_cumulative_on_departure_but_stays_in_delay():
    sim = make_sim()
    v = place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                      lane=1, pos=97.5)
    run_steps(sim, 6)
    assert sim.cumulative_wait() == 6
    sim.set_phase(2)
    run_steps(sim, 4)
    assert v.edge_id == "jct_e_out"
    assert sim.cumulative_wait() == 0   # left the inbound edges
    assert sim.cum_delay() == 8         # 6 + two amber steps, carried by the trip
    run_steps(sim, 100)
    assert sim.arrived_count == 1
    assert sim.cum_delay() == 8         # preserved after arrival


def test_avg_queue_len_counts_halted_per_step():
    sim = make_sim()
    place_vehicle(sim, "x", ("jct_w_in", "jct_e_out", "app_e_out"),
                  lane=1, pos=97.5)
    run_steps(sim, 10)
    assert sim.avg_queue_len == pytest.approx(1.0)


# ------------------------------------------------------------ conservation

def test_conservation_and_invariants_over_random_episode():
    sched = spawn_schedule(NET, count=150, seed=21, horizon=90)
    sim = make_sim(sched)
    rng = np.random.default_rng(5)
    prev = 0
    sim.set_phase(0)
    while not sim.done:
        act = int(rng.integers(0, 4))
        sim.set_phase(act)
        steps = 4 + (2 if act != prev else 0)
        prev = act
        for _ in range(steps):
            sim.step()
            if sim.done:
                break
        sim.validate()
    assert sim.pending_count == sim.active_count == 0
    assert sim.arrived_count == 150


def test_a_simulation_that_never_clears_is_done_at_the_time_cap():
    sim = make_sim()  # phase 0 holds the west arm red for good
    place_vehicle(sim, "x", STRAIGHT_W[1:], lane=1, pos=97.5)
    while not sim.done:
        sim.step()
    assert (sim.clock, sim.active_count) == (SIM_TIME_CAP, 1)


def test_determinism_same_seed_same_trajectory():
    def snapshot(sim):
        return [(v.id, v.edge_id, v.lane, round(v.pos, 9), round(v.speed, 9), v.wait)
                for v in iter_vehicles(sim)]

    def run(seed):
        sched = spawn_schedule(NET, count=80, seed=seed, horizon=60)
        sim = make_sim(sched)
        sim.set_phase(0)
        frames = []
        for t in range(120):
            if t % 12 == 0:
                sim.set_phase((t // 12) % 4)
            sim.step()
            frames.append(snapshot(sim))
        return frames

    assert run(33) == run(33)
    assert run(33) != run(34)


def test_validate_catches_corruption():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    sim._pos[v.slot] = 5000.0
    with pytest.raises(InvariantViolation):
        sim.validate()


def test_place_vehicle_repoints_the_leaders_around_it():
    sim = make_sim()
    front = place_vehicle(sim, "front", STRAIGHT_W, lane=1, pos=50.0)
    back = place_vehicle(sim, "back", STRAIGHT_W, lane=1, pos=10.0)
    middle = place_vehicle(sim, "middle", STRAIGHT_W, lane=1, pos=30.0)
    sim.validate()
    assert sim._leader[back.slot] == middle.slot
    assert sim._leader[middle.slot] == front.slot
    beside = place_vehicle(sim, "beside", STRAIGHT_W, lane=2, pos=40.0)
    sim.validate()
    # Lane by lane, each lane front to back.
    pairs = sim.vehicles_on_edge("app_w_in")
    assert pairs == [(front, 50.0), (middle, 30.0), (back, 10.0), (beside, 40.0)]
    assert all(pos == vehicle.pos for vehicle, pos in pairs)


def test_vehicles_on_edge_lists_every_edge_as_its_lanes_hold_it():
    """At every resize of a desk episode, as the slot arrays grow past
    INITIAL_SLOTS and as they halve, each edge lists exactly the vehicles
    on it, with their positions, lane by lane and front to back."""
    cfg = desk_profile()
    sim = make_sim(spawn_schedule(NET, cfg.vehicles, seed=83, horizon=cfg.spawn_horizon))
    sizes = []
    while not sim.done:
        if sim.clock % 20 == 0 and not sim.in_yellow:
            sim.set_phase((sim.clock // 20) % 4)
        size = sim._speed.size
        sim.step()
        if sim._speed.size == size:
            continue
        sizes.append(sim._speed.size)
        on_edge = {eid: [] for eid in NET.edges}
        for v in iter_vehicles(sim):
            on_edge[v.edge_id].append((v, v.pos))
        assert sum(map(bool, on_edge.values())) >= 4
        for eid, pairs in on_edge.items():
            assert sim.vehicles_on_edge(eid) == pairs, eid
    assert sizes[0] > INITIAL_SLOTS and sizes[-1] < max(sizes)


def test_validate_catches_slot_corruption():
    sim = make_sim()
    front = place_vehicle(sim, "front", STRAIGHT_W, lane=1, pos=50.0)
    back = place_vehicle(sim, "back", STRAIGHT_W, lane=1, pos=10.0)
    sim.validate()
    sim._leader[back.slot] = back.slot
    with pytest.raises(InvariantViolation, match="follows"):
        sim.validate()
    sim._leader[back.slot] = front.slot
    sim._arm_count[ARM_ORDER.index("w")] += 1
    with pytest.raises(InvariantViolation, match="inbound counts"):
        sim.validate()
    sim._arm_count[ARM_ORDER.index("w")] -= 1
    sim.validate()
    sim._speed[sim._free[-1]] = 1.0
    with pytest.raises(InvariantViolation, match="free slot"):
        sim.validate()
    sim._speed[sim._free[-1]] = 0.0
    sim.validate()
    sim._pos[sim._free[-1]] = 1.0  # admission relies on a free slot at position 0
    with pytest.raises(InvariantViolation, match="free slot has a position"):
        sim.validate()


def test_validate_catches_a_view_of_a_replaced_array():
    sim = make_sim()
    place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    sim.validate()
    sim._cap = sim._cap.copy()
    with pytest.raises(InvariantViolation, match="_cap_v is not a view of _cap"):
        sim.validate()
    sim._cap_v = memoryview(sim._cap)
    sim.validate()
    sim._pos_v, sim._spare_v = sim._spare_v, sim._pos_v
    with pytest.raises(InvariantViolation, match="_pos_v is not a view of _pos"):
        sim.validate()


def test_validate_catches_a_lane_entry_without_its_handle():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    sim._handles[v.slot] = None
    with pytest.raises(InvariantViolation, match="no vehicle handle"):
        sim.validate()
    sim._handles[v.slot] = v
    v.slot = sim._free[-1]
    with pytest.raises(InvariantViolation, match="no vehicle handle"):
        sim.validate()


def test_validate_catches_a_vehicle_on_another_lane_of_its_edge():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    sim._lane_of[v.slot] += 1
    with pytest.raises(InvariantViolation, match="bookkeeping mismatch"):
        sim.validate()


def test_validate_allows_1e9_of_rounding_on_gaps_and_positions_and_no_more():
    length = NET.edges[STRAIGHT_W[0]].length
    sim = make_sim()
    back = place_vehicle(sim, "back", STRAIGHT_W, lane=1, pos=0.0)
    front = place_vehicle(sim, "front", STRAIGHT_W, lane=1, pos=MIN_GAP)
    sim.validate()
    for behind, ahead, fine, what in (
            (0.0, MIN_GAP - 1e-9, True, "gap"), (10.0, 10.0 + MIN_GAP - 0.5, False, "gap"),
            (0.0, length + 1e-9, True, "outside"), (0.0, length + 0.5, False, "outside")):
        sim._pos[back.slot], sim._pos[front.slot] = behind, ahead
        if fine:
            sim.validate()
        else:
            with pytest.raises(InvariantViolation, match=what):
                sim.validate()


def test_a_vehicle_at_the_red_stop_line_of_lane_id_0_validates():
    """Lane id 0 may be signalized (edge ids sort it first); its sentinel is
    then a wall, which a front vehicle may stand right at."""
    sim = Simulation(build_network(network_to_text(NET).replace("jct_e_in", "a_jct_e_in")))
    length = sim.net.edges["a_jct_e_in"].length
    v = place_vehicle(sim, "x", ("a_jct_e_in", "jct_w_out", "app_w_out"), lane=0, pos=length)
    assert sim._lane_of[v.slot] == 0 and not is_green(sim, "e", 0)
    sim.validate()


def test_validate_catches_slot_arrays_kept_at_four_times_the_active_count():
    sim = make_sim()
    for i in range(INITIAL_SLOTS // 2 + 1):
        if i == INITIAL_SLOTS // 2:  # 32 vehicles in 128 slots
            sim._relayout(2 * INITIAL_SLOTS)
            with pytest.raises(InvariantViolation, match="slots kept"):
                sim.validate()
        place_vehicle(sim, f"v{i}", STRAIGHT_W, lane=1 + i % 2, pos=300.0 - 3.0 * (i // 2))
    sim.validate()


def test_validate_catches_a_free_list_that_disagrees_with_the_handles():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    sim._handles[sim._free[-1]] = v
    with pytest.raises(InvariantViolation, match="free"):
        sim.validate()
    sim._handles[sim._free[-1]] = None
    lost = sim._free.pop()
    with pytest.raises(InvariantViolation, match="free"):
        sim.validate()
    sim._free.append(lost)
    sim.validate()


def test_validate_catches_a_sentinel_that_disagrees_with_the_plan():
    """Each position buffer's sentinels are checked, against the amber row
    during an amber and against the phase's row otherwise."""
    sim = make_sim()
    sentinel = sim._speed.size + sim._edge_info["jct_n_in"][0] + 1  # green in phase 0
    for buffer in (sim._pos, sim._spare):
        buffer[sentinel] = 0.0
        with pytest.raises(InvariantViolation, match="sentinel"):
            sim.validate()
        buffer[sentinel] = np.inf
        sim.validate()
    sim.in_yellow = True
    with pytest.raises(InvariantViolation, match="sentinel"):
        sim.validate()


def test_views_follow_the_slot_arrays_as_admission_grows_them_and_they_shrink():
    """A burst of three times INITIAL_SLOTS spawns fills the slot arrays.
    The spawn that finds no free slot doubles them in the middle of the
    admission pass and is admitted into the new arrays, through views that
    admission must rebind.  As the burst drains the arrays halve back.
    validate() holds after every step, and with it every view aliases its
    current array."""
    sim = make_sim(spawn_schedule(NET, count=3 * INITIAL_SLOTS, seed=5, horizon=30))
    sizes = [sim._speed.size]
    while not sim.done:
        if sim.clock % 20 == 0 and not sim.in_yellow:
            sim.set_phase((sim.clock // 20) % 4)
        sim.step()
        sim.validate()
        sizes.append(sim._speed.size)
    assert max(sizes) >= 2 * INITIAL_SLOTS
    assert sizes[-1] == INITIAL_SLOTS
    assert sim.arrived_count == 3 * INITIAL_SLOTS


def drive_fixed_time(sim: Simulation, max_decisions: int) -> None:
    drive_episode(sim, None, green_duration=desk_profile().fixed_green,
                  max_decisions=max_decisions)


def sim_state(sim: Simulation):
    return (sim.clock, sim.arrived_count, sim.cum_delay(),
            [(v.id, v.edge_id, v.lane, v.route_idx, v.pos, v.speed, v.wait)
             for v in iter_vehicles(sim)])


def test_a_deep_copy_mid_episode_drives_to_the_same_end():
    """Copy a desk simulation mid-episode, then drive the original and,
    after it, the copy under fixed-time control: both agree part way and
    at the end, so the copy shares no state with the original."""
    cfg = desk_profile()
    sim = make_sim(spawn_schedule(NET, cfg.vehicles, seed=83, horizon=cfg.spawn_horizon),
                   yellow_duration=cfg.train.yellow_duration)
    drive_fixed_time(sim, 5)
    assert sim.active_count > 2 * INITIAL_SLOTS and sim.pending_count
    twin = copy.deepcopy(sim)
    twin.validate()
    assert sim_state(twin) == sim_state(sim)
    for decisions in (3, 1000):
        for s in (sim, twin):
            drive_fixed_time(s, decisions)
            s.validate()
        assert sim_state(twin) == sim_state(sim)
    assert sim.done and sim.arrived_count == cfg.vehicles


def test_a_pickled_simulation_validates_and_steps_as_the_original():
    sim = make_sim(spawn_schedule(NET, count=300, seed=7, horizon=60))
    run_steps(sim, 70)
    clone = pickle.loads(pickle.dumps(sim))
    clone.validate()
    assert sim_state(clone) == sim_state(sim)
    assert all(v._sim is clone for v in iter_vehicles(clone))
    run_steps(sim, 40)
    run_steps(clone, 40)
    clone.validate()
    assert sim_state(clone) == sim_state(sim)


# -------------------------------------------------------------- route swap

def test_replace_route_suffix_checks_connectivity_and_destination():
    sim = make_sim()
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=10.0)
    # Divert: double back at the inner node, then bypass via two diagonals.
    sim.replace_route_suffix(v, ("app_w_out", "diag_wn", "diag_ne"))
    assert v.route == ("app_w_in", "app_w_out", "diag_wn", "diag_ne")
    with pytest.raises(ValueError):
        sim.replace_route_suffix(v, ("jct_w_in",))  # breaks the chain
    fresh = place_vehicle(sim, "y", STRAIGHT_W, lane=2, pos=10.0)
    with pytest.raises(ValueError):
        sim.replace_route_suffix(fresh, ("app_w_out", "diag_wn"))  # wrong dest


def test_a_route_plan_depends_only_on_the_network_and_the_route():
    """Two simulations of one desk schedule build equal plans for every
    route, even once one of them has vehicles on every approach, and a plan
    holds nothing but numbers in tuples: no state of either simulation."""
    cfg = desk_profile()
    schedule = spawn_schedule(NET, cfg.vehicles, seed=83, horizon=cfg.spawn_horizon)
    fresh, driven = make_sim(schedule), make_sim(schedule)
    while not all(driven.vehicles_on_edge(q.approach_in) for q in driven.arms.values()):
        assert driven.clock < cfg.spawn_horizon
        driven.step()

    def leaves(value):
        if isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    for route in {spec.route for spec in schedule}:
        plan = driven._route_plan(route)
        assert plan == fresh._route_plan(route)
        assert all(type(leaf) in (int, float) for leaf in leaves(plan)), route


def test_rerouted_vehicle_double_back_drives_to_destination():
    sim = make_sim()  # west arm stays red the whole time (phase 0)
    v = place_vehicle(sim, "x", STRAIGHT_W, lane=1, pos=500.0, speed=10.0)
    sim.replace_route_suffix(v, ("app_w_out", "diag_wn", "diag_ne"))
    assert v.route == ("app_w_in", "app_w_out", "diag_wn", "diag_ne")
    for _ in range(700):
        sim.step()
        if sim.arrived_count:
            break
    assert sim.arrived_count == 1
    sim.validate()
