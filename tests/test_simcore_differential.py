"""Differential property test of `Simulation.step` against a reference step.

`ReferenceSimulation` keeps the earlier two-pass step verbatim: it copies
every lane's positions into a list, moves every vehicle through the
crossing branch, and rebuilds each lane from a survivor list.  Its
per-step accounting is a frozen copy too, so a change to the order of the
detector sums shows up as a difference.  Hypothesis draws crossroad
variants written in `build_network`'s text format, demand, phase commands
and route swaps, and both simulations must agree exactly after every step.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from flowctl.roadnet import (
    build_network,
    enumerate_routes,
    free_flow_weights,
)
from flowctl.simcore import (
    ARM_ORDER,
    DENSITY_NORM_LENGTH,
    DETECTOR_PERIOD,
    DETECTOR_SPAN,
    HALT_SPEED,
    MAX_ACCEL,
    MIN_GAP,
    DetectorReading,
    Simulation,
    spawn_schedule,
)

MAX_STEPS = 240


class ReferenceSimulation(Simulation):
    """The two-pass step, kept as the reference for the one-pass step."""

    def step(self) -> None:
        self.signals.tick_begin()
        clock = self.clock

        for edge_id in self._edge_order:
            edge = self.net.edges[edge_id]
            signal_arm = self._jin_arm.get(edge_id)
            lanes = self._lanes[edge_id]
            for lane_idx in range(edge.lane_count):
                occupants = lanes[lane_idx]
                if not occupants:
                    continue
                old_pos = [v.pos for v in occupants]
                green = (signal_arm is None
                         or self.signals.is_green(signal_arm, lane_idx))
                survivors = []
                for i, v in enumerate(occupants):
                    if v.stamp == clock:  # entered this step; already moved
                        survivors.append(v)
                        continue
                    v.stamp = clock
                    target = v.speed + MAX_ACCEL
                    if v.max_speed < target:
                        target = v.max_speed
                    if edge.speed_limit < target:
                        target = edge.speed_limit
                    if i > 0:
                        gap_speed = old_pos[i - 1] - old_pos[i] - MIN_GAP
                        if gap_speed < target:
                            target = gap_speed
                    if not green:
                        wall = edge.length - old_pos[i] - MIN_GAP
                        if wall < target:
                            target = wall
                    speed = target if target > 0.0 else 0.0
                    new_pos = old_pos[i] + speed
                    if new_pos <= edge.length:
                        v.pos = new_pos
                        v.speed = speed
                        survivors.append(v)
                        continue
                    # Crossing the downstream node.
                    if v.route_idx + 1 >= len(v.route):
                        self.active_count -= 1
                        self.arrived_count += 1
                        self.arrived_wait_sum += v.wait
                        continue
                    next_id = v.route[v.route_idx + 1]
                    allowed = self._allowed_lanes(v.route, v.route_idx + 1)
                    new_lane, room = self._pick_lane(next_id, allowed)
                    entry = new_pos - edge.length
                    limit = room - MIN_GAP
                    if limit < entry:
                        entry = limit
                    if entry < 0.0:
                        v.pos = edge.length  # hold at the node and retry
                        v.speed = edge.length - old_pos[i]
                        survivors.append(v)
                        continue
                    v.route_idx += 1
                    v.lane = new_lane
                    v.pos = entry
                    v.speed = (edge.length - old_pos[i]) + entry
                    self._lanes[next_id][new_lane].append(v)
                lanes[lane_idx] = survivors

        self._attempt_spawns(clock)
        self.signals.tick_end()
        self.clock = clock + 1
        self._post_step_accounting()

    def _post_step_accounting(self) -> None:
        halted = 0
        for arm in ARM_ORDER:
            app_id, jct_id = self._inbound[arm]
            count = 0
            for eid in (app_id, jct_id):
                for lane in self._lanes[eid]:
                    count += len(lane)
                    for v in lane:
                        if v.speed < HALT_SPEED:
                            v.wait += 1
                            halted += 1
            self._det_count_sum[arm] += count
            for lane in self._lanes[app_id]:
                for v in lane:
                    if v.pos <= DETECTOR_SPAN:
                        self._det_seen[arm].add(v.id)
                        self._det_speed_sum[arm] += v.speed
                        self._det_speed_n[arm] += 1
        self._halted_sum += halted

        if self.clock % DETECTOR_PERIOD == 0:
            start = self.clock - DETECTOR_PERIOD
            readings = {}
            for arm in ARM_ORDER:
                n = self._det_speed_n[arm]
                readings[arm] = DetectorReading(
                    arm=arm,
                    window_start=start,
                    vehicle_count=len(self._det_seen[arm]),
                    mean_speed=self._det_speed_sum[arm] / n if n else 0.0,
                    density=(self._det_count_sum[arm] / DETECTOR_PERIOD)
                            / DENSITY_NORM_LENGTH,
                )
                self._det_seen[arm].clear()
                self._det_speed_sum[arm] = 0.0
                self._det_speed_n[arm] = 0
                self._det_count_sum[arm] = 0
            self._det_last = readings


# ------------------------------------------------------------- strategies

LENGTH = st.integers(100, 4000).map(lambda x: x / 10)     # 10.0 .. 400.0 m
SPEED = st.integers(40, 200).map(lambda x: x / 10)        # 4.0 .. 20.0 m/s


@st.composite
def crossroad_text(draw) -> str:
    """A four-arm crossroad with drawn lengths, limits and diagonal lanes."""
    lines = [f"node {n}" for n in ("c",) + ARM_ORDER + tuple(f"{a}i" for a in ARM_ORDER)]
    for a in ARM_ORDER:
        for eid, src, dst, signal in ((f"app_{a}_in", a, f"{a}i", 0),
                                      (f"jct_{a}_in", f"{a}i", "c", 1),
                                      (f"jct_{a}_out", "c", f"{a}i", 0),
                                      (f"app_{a}_out", f"{a}i", a, 0)):
            lines.append(f"edge {eid} {src} {dst} {draw(LENGTH)} 4 "
                         f"{draw(SPEED)} {signal}")
    for a, b in zip(ARM_ORDER, ARM_ORDER[1:] + ARM_ORDER[:1]):
        for src, dst in ((a, b), (b, a)):
            lines.append(f"edge diag_{src}{dst} {src} {dst} {draw(LENGTH)} "
                         f"{draw(st.integers(1, 4))} {draw(SPEED)} 0")
    return "\n".join(lines) + "\n"


# (seconds to run, phase to command, optional route swap (vehicle, option))
COMMAND = st.tuples(st.integers(1, 25), st.integers(0, 3),
                    st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 3)))


# ---------------------------------------------------------------- helpers

def lane_state(sim: Simulation):
    return [[(v.id, v.edge_id, v.lane, v.pos, v.speed, v.wait, v.route_idx)
             for v in lane]
            for eid in sim._edge_order for lane in sim._lanes[eid]]


def counters(sim: Simulation):
    return (sim.clock, sim.active_count, sim.arrived_count, sim.arrived_wait_sum,
            sim.pending_count, sim.scheduled_total, sim.avg_queue_len,
            sim.cum_delay(), sim.signals.phase, sim.signals.in_yellow)


def swap_route(sim: Simulation, weights, vehicle_pick: int, option_pick: int):
    """A (vehicle id, new suffix) route swap picked from the live vehicles,
    or None when the picked vehicle has no other way to its destination."""
    vehicles = list(sim.iter_vehicles())
    if not vehicles:
        return None
    v = vehicles[vehicle_pick % len(vehicles)]
    node = sim.net.edges[v.edge_id].to_node
    dest = sim.net.edges[v.route[-1]].to_node
    if node == dest:
        return None
    done = set(v.route[:v.route_idx + 1])
    options = [r.edges for r in enumerate_routes(sim.net, node, dest, weights, 4)
               if not done.intersection(r.edges)]
    if not options:
        return None
    return v.id, options[option_pick % len(options)]


def step_and_check_departures(sim: Simulation) -> None:
    """Step once and require that at most the front vehicle left each lane."""
    before = [(lane[:1], {v.id for v in lane})
              for lanes in sim._lanes.values() for lane in lanes]
    sim.step()
    after = [{v.id for v in lane} for lanes in sim._lanes.values() for lane in lanes]
    for (front, ids), now in zip(before, after):
        left = ids - now
        assert len(left) <= 1
        if left:
            assert left == {front[0].id}


# ------------------------------------------------------------------- test

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(text=crossroad_text(), count=st.integers(1, 150), seed=st.integers(0, 2**32 - 1),
       horizon=st.integers(1, 90), commands=st.lists(COMMAND, min_size=1, max_size=20))
def test_one_pass_step_matches_reference_step(text, count, seed, horizon, commands):
    net = build_network(text)
    schedule = spawn_schedule(net, count, seed, horizon)
    sim = Simulation(net, schedule)
    ref = ReferenceSimulation(net, schedule)
    weights = free_flow_weights(net)
    commands = itertools.cycle(commands)
    while not sim.done and sim.clock < MAX_STEPS:
        seconds, phase, swap = next(commands)
        if not sim.signals.in_yellow:
            sim.set_phase(phase)
            ref.set_phase(phase)
        if swap is not None:
            picked = swap_route(sim, weights, *swap)
            if picked is not None:
                vid, suffix = picked
                for s in (sim, ref):
                    s.replace_route_suffix(
                        next(v for v in s.iter_vehicles() if v.id == vid), suffix)
        for _ in range(seconds):
            if sim.done or sim.clock == MAX_STEPS:
                break
            step_and_check_departures(sim)
            ref.step()
            sim.validate()
            ref.validate()
            assert lane_state(sim) == lane_state(ref)
            assert counters(sim) == counters(ref)
            if sim.clock % DETECTOR_PERIOD == 0:
                assert sim.read_detectors() == ref.read_detectors()
