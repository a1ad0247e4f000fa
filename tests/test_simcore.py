"""Tests for the traffic microsimulation core."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from flowctl.roadnet import build_default_network, build_network
from flowctl.simcore import (
    ARM_ORDER,
    DETECTOR_PERIOD,
    HALT_SPEED,
    MIN_GAP,
    DetectorReading,
    InvariantViolation,
    NetworkLayoutError,
    SignalController,
    SignalInterlockError,
    Simulation,
    SpawnSpec,
    infer_layout,
    phase_is_green,
    spawn_schedule,
)

from fileformats import network_to_text
from simstate import iter_vehicles, place_vehicle

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
    from flowctl.roadnet import Edge, make_network
    edges = [
        Edge("in1", "a", "m", 100.0, 4, 10.0, True),
        Edge("out1", "m", "a", 100.0, 4, 10.0, False),
    ]
    with pytest.raises(NetworkLayoutError):
        infer_layout(make_network(edges))


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
    sig = SignalController()  # starts green in phase 0
    assert all(sig.is_green(a, l) == phase_is_green(0, a, l)
               for a in ARM_ORDER for l in range(4))


def test_phase_change_runs_exactly_two_amber_steps():
    sim = make_sim()
    sim.set_phase(0)  # same as initial: no amber
    assert not sim.signals.in_yellow
    sim.set_phase(2)
    greens = []
    for _ in range(4):
        sim.step()
        greens.append(sim.signals.is_green("e", 1))
    # two all-red steps, then green holds
    assert greens == [False, False, True, True]


def test_amber_blocks_everything():
    sim = make_sim()
    sim.set_phase(1)
    sim.step()
    assert sim.signals.in_yellow
    assert not any(sim.signals.is_green(a, l) for a in ARM_ORDER for l in range(4))


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
    assert not sim.signals.in_yellow
    sim.step()
    assert sim.signals.is_green("n", 1)


def test_signal_rejects_bad_phase():
    sig = SignalController()
    with pytest.raises(ValueError):
        sig.set_phase(4)
    with pytest.raises(ValueError):
        sig.set_phase(-1)


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
        steps = 4 + 2 * (phase != on.signals.phase)
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
