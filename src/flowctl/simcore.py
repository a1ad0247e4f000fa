"""Discrete-time traffic microsimulation on a signalized crossroad network.

Mechanics, all on 1-second steps:

* Car following is a simplified safe-gap rule evaluated as a parallel update:
  every vehicle's new speed is bounded by acceleration, its own top speed,
  the edge limit, and the pre-step position of its lane leader minus a fixed
  minimum gap.  Using pre-step leader positions makes the update order
  irrelevant for safety and caps discharge at one vehicle per lane per step,
  which yields realistic saturation flows: a follower ends at least MIN_GAP
  short of its leader's pre-step position, so only a lane's front vehicle
  can reach the edge end, and `step` makes one pass over each lane.  A
  vehicle that moves to a new lane is stamped with the clock; it sits at
  the back of that lane, so the lane's pass stops at the first stamp.
* Red (and amber) lights act as a stop wall at the downstream end of the
  four signalized edges.  Braking is not otherwise limited: a light change
  can stop a vehicle in one step.
* Edge transitions carry overflow distance onto the next edge, clamped so
  the entering vehicle stays a full minimum gap behind the rearmost occupant
  of its target lane.  If that is impossible the vehicle holds at the edge
  end and retries.
* Lane choice happens only on edge entry (no mid-edge lane changes) and is
  dictated by the turning movement at the next signalized junction: left
  turns use lane 0, right turns the outermost lane, through traffic the two
  middle lanes, anything without a junction ahead spreads by headroom.
* Demand is a spawn schedule; blocked spawns stay pending and retry in
  order.  Waiting time accrues per vehicle-step spent below a halt speed on
  an inbound arm edge, and windowed detectors report per-arm count, mean
  speed, and time-averaged density.

The signal plan has four phases: 0 = north/south main lanes, 1 = north/south
left lane, 2 = east/west main lanes, 3 = east/west left lane.  A phase
change inserts a fixed all-red amber interval; re-selecting the active phase
extends the green seamlessly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
import math

import numpy as np

from .roadnet import RoadNetwork, Route, free_flow_weights, shortest_route

# Motion constants (meters, seconds).
MAX_ACCEL = 2.6
MIN_GAP = 2.5
HALT_SPEED = 0.1
SIM_TIME_CAP = 9000

# Signals.
PHASE_COUNT = 4
YELLOW_DURATION = 2

# Occupancy sensor grid: 4 arms x 2 lane groups x 10 range cells.
SENSOR_CELLS = 80
SENSOR_BREAKS = (0.0, 7.0, 14.0, 21.0, 28.0, 40.0, 60.0, 100.0, 160.0, 400.0, 1000.0)

# Flow detectors.
DETECTOR_PERIOD = 30
DETECTOR_SPAN = 50.0
DENSITY_NORM_LENGTH = 1000.0

ARM_ORDER = ("n", "e", "s", "w")
OPPOSITE_ARM = {"n": "s", "s": "n", "e": "w", "w": "e"}
LEFT_EXIT = {"n": "e", "e": "s", "s": "w", "w": "n"}
RIGHT_EXIT = {"n": "w", "w": "s", "s": "e", "e": "n"}

# name, demand share, top speed (m/s)
VEHICLE_MIX = (
    ("car", 0.90, 13.9),
    ("bus", 0.05, 11.1),
    ("trailer", 0.04, 10.0),
    ("ambulance", 0.01, 13.9),
)
VEHICLE_MAX_SPEED = {name: top for name, _, top in VEHICLE_MIX}


class NetworkLayoutError(ValueError):
    """The network does not look like a single four-arm signalized crossroad."""


class SignalInterlockError(RuntimeError):
    """A phase command arrived while the amber interval was still running."""


class InvariantViolation(RuntimeError):
    """Internal consistency check failed (see validate())."""


class SignalController:
    """Four-phase controller with a mandatory all-red amber on phase change."""

    def __init__(self, yellow_duration: int = YELLOW_DURATION, initial_phase: int = 0):
        if yellow_duration < 1:
            raise ValueError("yellow_duration must be >= 1")
        if not 0 <= initial_phase < PHASE_COUNT:
            raise ValueError(f"phase must be in 0..{PHASE_COUNT - 1}")
        self.yellow_duration = yellow_duration
        self.phase = initial_phase
        self.in_yellow = False
        self.time_in_state = 0

    def set_phase(self, phase: int) -> None:
        if not 0 <= phase < PHASE_COUNT:
            raise ValueError(f"phase must be in 0..{PHASE_COUNT - 1}, got {phase}")
        if self.in_yellow:
            raise SignalInterlockError("cannot command a phase during amber")
        if phase != self.phase:
            self.phase = phase
            self.in_yellow = True
            self.time_in_state = 0

    def tick_begin(self) -> None:
        """Promote amber to green once it has lasted the full interval."""
        if self.in_yellow and self.time_in_state >= self.yellow_duration:
            self.in_yellow = False
            self.time_in_state = 0

    def tick_end(self) -> None:
        self.time_in_state += 1

    def is_green(self, arm: str, lane: int) -> bool:
        if self.in_yellow:
            return False
        if self.phase == 0:
            return arm in ("n", "s") and lane != 0
        if self.phase == 1:
            return arm in ("n", "s") and lane == 0
        if self.phase == 2:
            return arm in ("e", "w") and lane != 0
        return arm in ("e", "w") and lane == 0


class Vehicle:
    """Mutable per-vehicle state; the current edge is route[route_idx]."""

    __slots__ = ("id", "vtype", "max_speed", "route", "route_idx", "lane", "pos",
                 "speed", "wait", "depart", "stamp", "rerouted")

    def __init__(self, vehicle_id: str, vtype: str, max_speed: float,
                 route: tuple[str, ...], depart: int):
        self.id = vehicle_id
        self.vtype = vtype
        self.max_speed = max_speed
        self.route = route
        self.route_idx = 0
        self.lane = 0
        self.pos = 0.0
        self.speed = 0.0
        self.wait = 0
        self.depart = depart
        self.stamp = -1
        self.rerouted = False

    @property
    def edge_id(self) -> str:
        return self.route[self.route_idx]

    @property
    def remaining_route(self) -> tuple[str, ...]:
        return self.route[self.route_idx:]

    def __repr__(self) -> str:  # debugging aid
        return (f"Vehicle({self.id} {self.vtype} edge={self.edge_id} "
                f"lane={self.lane} pos={self.pos:.1f} v={self.speed:.1f})")


@dataclass(frozen=True)
class ArmEdges:
    """The four edges that make up one arm of the crossroad."""

    approach_in: str
    junction_in: str
    junction_out: str
    approach_out: str


@dataclass(frozen=True)
class DetectorReading:
    """Aggregates for one arm over one detector window."""

    arm: str
    window_start: int
    vehicle_count: int
    mean_speed: float
    density: float


@dataclass(frozen=True)
class SpawnSpec:
    """One scheduled vehicle: depart second, identity, and full route."""

    depart: int
    vehicle_id: str
    vtype: str
    max_speed: float
    route: tuple[str, ...]


def infer_layout(net: RoadNetwork) -> tuple[str, dict[str, ArmEdges]]:
    """Locate the center node and the four arms (named by boundary node).

    Requires exactly four signalized edges feeding one node, each fed by a
    single non-signalized approach from a boundary node named n/e/s/w, with
    matching outbound edges and four lanes throughout.
    """
    signalized = [e for e in net.edges.values() if e.signalized]
    if len(signalized) != 4:
        raise NetworkLayoutError(
            f"expected exactly 4 signalized edges, found {len(signalized)}")
    centers = {e.to_node for e in signalized}
    if len(centers) != 1:
        raise NetworkLayoutError(
            f"signalized edges must share one downstream node, found {sorted(centers)}")
    center = centers.pop()
    arms: dict[str, ArmEdges] = {}
    for jct in sorted(signalized, key=lambda e: e.id):
        inner = jct.from_node
        approaches = [e for e in net.edges.values()
                      if e.to_node == inner and e.from_node != center]
        if len(approaches) != 1:
            raise NetworkLayoutError(
                f"node {inner} needs exactly one approach edge, found {len(approaches)}")
        approach = approaches[0]
        arm = approach.from_node
        if arm not in ARM_ORDER:
            raise NetworkLayoutError(
                f"boundary node {arm!r} must be one of {ARM_ORDER}")
        if arm in arms:
            raise NetworkLayoutError(f"arm {arm!r} appears twice")
        outs = [e for e in net.edges.values()
                if e.from_node == center and e.to_node == inner]
        backs = [e for e in net.edges.values()
                 if e.from_node == inner and e.to_node == arm]
        if len(outs) != 1 or len(backs) != 1:
            raise NetworkLayoutError(f"arm {arm!r} is missing its outbound edges")
        quad = ArmEdges(approach_in=approach.id, junction_in=jct.id,
                        junction_out=outs[0].id, approach_out=backs[0].id)
        for eid in (quad.approach_in, quad.junction_in, quad.junction_out,
                    quad.approach_out):
            if net.edges[eid].lane_count != 4:
                raise NetworkLayoutError(f"arm edge {eid} must have 4 lanes")
        arms[arm] = quad
    if set(arms) != set(ARM_ORDER):
        raise NetworkLayoutError(f"expected arms {ARM_ORDER}, found {sorted(arms)}")
    return center, arms


def _largest_remainder_split(count: int, fractions: list[float]) -> list[int]:
    quotas = [count * f for f in fractions]
    base = [int(math.floor(q)) for q in quotas]
    short = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:short]:
        base[i] += 1
    return base


def spawn_schedule(net: RoadNetwork, count: int, seed: int,
                   horizon: int) -> tuple[SpawnSpec, ...]:
    """Deterministic demand: `count` vehicles departing within `horizon` seconds.

    Depart times are a Weibull(2) draw min-max rescaled onto [0, horizon-1]
    and floored, so the profile ramps up, peaks, and tails off.  The fleet
    mix follows VEHICLE_MIX via largest-remainder rounding.  60% of vehicles
    (rounded) travel to the opposite boundary (crossing the junction); the
    rest go to an adjacent boundary, which the shortest route serves via a
    bypass diagonal.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if count == 0:
        return ()
    rng = np.random.default_rng(seed)

    raw = rng.weibull(2.0, size=count)
    span = float(raw.max() - raw.min())
    if span > 0:
        times = np.floor((raw - raw.min()) / span * (horizon - 1)).astype(int)
    else:
        times = np.zeros(count, dtype=int)
    times = np.sort(times)

    counts = _largest_remainder_split(count, [f for _, f, _ in VEHICLE_MIX])
    labels: list[str] = []
    for (name, _, _), n in zip(VEHICLE_MIX, counts):
        labels.extend([name] * n)
    labels_arr = np.array(labels)
    rng.shuffle(labels_arr)

    n_opposite = round(0.6 * count)
    crossing = np.zeros(count, dtype=bool)
    crossing[:n_opposite] = True
    rng.shuffle(crossing)

    weights = free_flow_weights(net)
    route_cache: dict[tuple[str, str], tuple[str, ...]] = {}
    specs = []
    for i in range(count):
        origin = ARM_ORDER[int(rng.integers(0, 4))]
        if crossing[i]:
            dest = OPPOSITE_ARM[origin]
        else:
            side = int(rng.integers(0, 2))
            dest = LEFT_EXIT[origin] if side == 0 else RIGHT_EXIT[origin]
        key = (origin, dest)
        if key not in route_cache:
            route_cache[key] = shortest_route(net, origin, dest, weights).edges
        vtype = str(labels_arr[i])
        specs.append(SpawnSpec(depart=int(times[i]), vehicle_id=f"v{i}",
                               vtype=vtype, max_speed=VEHICLE_MAX_SPEED[vtype],
                               route=route_cache[key]))
    return tuple(specs)


class Simulation:
    """One crossroad, one signal controller, and a population of vehicles."""

    def __init__(self, net: RoadNetwork, schedule=(), *,
                 yellow_duration: int = YELLOW_DURATION, initial_phase: int = 0):
        self.net = net
        self.center, self.arms = infer_layout(net)
        self.signals = SignalController(yellow_duration, initial_phase)
        self.clock = 0

        self._jin_arm = {q.junction_in: a for a, q in self.arms.items()}
        self._jout_arm = {q.junction_out: a for a, q in self.arms.items()}
        self._inbound = {a: (q.approach_in, q.junction_in)
                         for a, q in self.arms.items()}
        self._edge_order = tuple(sorted(net.edges))
        self._lanes: dict[str, list[list[Vehicle]]] = {
            eid: [[] for _ in range(e.lane_count)] for eid, e in net.edges.items()}
        self._plan = tuple((net.edges[eid], self._jin_arm.get(eid), self._lanes[eid])
                           for eid in self._edge_order)

        specs = sorted(schedule, key=lambda s: (s.depart, s.vehicle_id))
        ids = [s.vehicle_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vehicle ids in schedule")
        for s in specs:
            self._check_route(s.route)
        self._future: deque[SpawnSpec] = deque(specs)
        self._waiting: list[SpawnSpec] = []
        self.scheduled_total = len(specs)
        self.active_count = 0
        self.arrived_count = 0
        self.arrived_wait_sum = 0

        self._halted_sum = 0

        self._det_seen = {a: set() for a in ARM_ORDER}
        self._det_speed_sum = {a: 0.0 for a in ARM_ORDER}
        self._det_speed_n = {a: 0 for a in ARM_ORDER}
        self._det_count_sum = {a: 0 for a in ARM_ORDER}
        self._det_last: dict[str, DetectorReading] = {}

    # ------------------------------------------------------------- helpers

    def _check_route(self, route: tuple[str, ...]) -> None:
        if not route:
            raise ValueError("route must not be empty")
        for eid in route:
            if eid not in self.net.edges:
                raise ValueError(f"route references unknown edge {eid!r}")
        for a, b in zip(route, route[1:]):
            if self.net.edges[a].to_node != self.net.edges[b].from_node:
                raise ValueError(f"route breaks between {a!r} and {b!r}")
        if len(set(route)) != len(route):
            raise ValueError("route repeats an edge")

    def _allowed_lanes(self, route: tuple[str, ...], idx: int) -> tuple[int, ...]:
        """Lanes permitted on route[idx], set by the next junction movement."""
        edge = self.net.edges[route[idx]]
        if edge.lane_count == 1:
            return (0,)
        for j in range(idx, len(route)):
            arm = self._jin_arm.get(route[j])
            if arm is None:
                continue
            if j + 1 >= len(route):
                break
            exit_arm = self._jout_arm.get(route[j + 1])
            if exit_arm is None:
                break
            if exit_arm == LEFT_EXIT[arm]:
                return (0,)
            if exit_arm == RIGHT_EXIT[arm]:
                return (edge.lane_count - 1,)
            return (1, 2)
        return tuple(range(edge.lane_count))

    def _pick_lane(self, edge_id: str, allowed: tuple[int, ...]) -> tuple[int, float]:
        """Allowed lane with the most headroom (rear gap); ties take the lowest."""
        length = self.net.edges[edge_id].length
        lanes = self._lanes[edge_id]
        best_lane = allowed[0]
        best_room = -1.0
        for lane in allowed:
            occupants = lanes[lane]
            room = occupants[-1].pos if occupants else length
            if room > best_room + 1e-12:
                best_room = room
                best_lane = lane
        return best_lane, best_room

    # ---------------------------------------------------------------- step

    def set_phase(self, phase: int) -> None:
        self.signals.set_phase(phase)

    def step(self) -> None:
        """Advance the world by one second, in one pass over each lane.

        Only the front vehicle can cross the node (see the module notes);
        when it arrives or moves on, it leaves with `del occupants[0]`.  A
        vehicle that moves on is stamped, and a lane's pass stops at the
        first stamped vehicle: it and all behind it entered this step.
        """
        self.signals.tick_begin()
        clock = self.clock
        is_green = self.signals.is_green

        for edge, signal_arm, lanes in self._plan:
            length = edge.length
            speed_limit = edge.speed_limit
            for lane_idx, occupants in enumerate(lanes):
                if not occupants:
                    continue
                green = signal_arm is None or is_green(signal_arm, lane_idx)
                leader_pos = math.inf
                front_left = False
                for v in occupants:
                    if v.stamp == clock:  # entered this step, as did all behind
                        break
                    old = v.pos
                    target = v.speed + MAX_ACCEL
                    if v.max_speed < target:
                        target = v.max_speed
                    if speed_limit < target:
                        target = speed_limit
                    gap_speed = leader_pos - old - MIN_GAP
                    if gap_speed < target:
                        target = gap_speed
                    if not green:
                        wall = length - old - MIN_GAP
                        if wall < target:
                            target = wall
                    leader_pos = old
                    speed = target if target > 0.0 else 0.0
                    new_pos = old + speed
                    if new_pos <= length:
                        v.pos = new_pos
                        v.speed = speed
                        continue
                    # Crossing the downstream node.
                    if v.route_idx + 1 >= len(v.route):
                        self.active_count -= 1
                        self.arrived_count += 1
                        self.arrived_wait_sum += v.wait
                        front_left = True
                        continue
                    next_id = v.route[v.route_idx + 1]
                    allowed = self._allowed_lanes(v.route, v.route_idx + 1)
                    new_lane, room = self._pick_lane(next_id, allowed)
                    entry = new_pos - length
                    limit = room - MIN_GAP
                    if limit < entry:
                        entry = limit
                    if entry < 0.0:
                        v.pos = length  # hold at the node and retry
                        v.speed = length - old
                        continue
                    v.route_idx += 1
                    v.lane = new_lane
                    v.pos = entry
                    v.speed = (length - old) + entry
                    v.stamp = clock
                    self._lanes[next_id][new_lane].append(v)
                    front_left = True
                if front_left:
                    del occupants[0]

        self._attempt_spawns(clock)
        self.signals.tick_end()
        self.clock = clock + 1
        self._post_step_accounting()

    def _attempt_spawns(self, clock: int) -> None:
        while self._future and self._future[0].depart <= clock:
            self._waiting.append(self._future.popleft())
        if not self._waiting:
            return
        still: list[SpawnSpec] = []
        for spec in self._waiting:
            first = spec.route[0]
            allowed = self._allowed_lanes(spec.route, 0)
            lane, room = self._pick_lane(first, allowed)
            if room >= MIN_GAP:
                v = Vehicle(spec.vehicle_id, spec.vtype, spec.max_speed,
                            spec.route, spec.depart)
                v.lane = lane
                self._lanes[first][lane].append(v)
                self.active_count += 1
            else:
                still.append(spec)
        self._waiting = still

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

    # ------------------------------------------------------------- sensors

    def read_sensors(self) -> np.ndarray:
        """80 occupancy booleans: per arm (n,e,s,w), left lane group then
        main group, ten range cells spreading upstream from the stop line."""
        out = np.zeros(SENSOR_CELLS, dtype=np.float64)
        for ai, arm in enumerate(ARM_ORDER):
            quad = self.arms[arm]
            jct_len = self.net.edges[quad.junction_in].length
            for eid, offset in ((quad.junction_in, 0.0),
                                (quad.approach_in, jct_len)):
                length = self.net.edges[eid].length
                for lane_idx, lane in enumerate(self._lanes[eid]):
                    group = 0 if lane_idx == 0 else 10
                    for v in lane:
                        dist = (length - v.pos) + offset
                        cell = bisect_right(SENSOR_BREAKS, dist) - 1
                        if 0 <= cell < 10:
                            out[ai * 20 + group + cell] = 1.0
        return out

    def read_detectors(self) -> dict[str, DetectorReading]:
        """Window aggregates, available exactly at each window boundary."""
        if self.clock == 0 or self.clock % DETECTOR_PERIOD != 0:
            raise RuntimeError(
                f"detector readings are published every {DETECTOR_PERIOD} s; "
                f"clock is {self.clock}")
        return dict(self._det_last)

    # ------------------------------------------------------------- metrics

    def iter_vehicles(self):
        for eid in self._edge_order:
            for lane in self._lanes[eid]:
                yield from lane

    def vehicles_on_edge(self, edge_id: str) -> list[Vehicle]:
        result: list[Vehicle] = []
        for lane in self._lanes[edge_id]:
            result.extend(lane)
        return result

    def arm_wait(self, arm: str) -> int:
        total = 0
        for eid in self._inbound[arm]:
            for lane in self._lanes[eid]:
                for v in lane:
                    total += v.wait
        return total

    def arm_queue(self, arm: str) -> int:
        total = 0
        for eid in self._inbound[arm]:
            for lane in self._lanes[eid]:
                for v in lane:
                    if v.speed < HALT_SPEED:
                        total += 1
        return total

    def cumulative_wait(self) -> int:
        """Accrued waiting of everyone currently on an inbound arm edge."""
        return sum(self.arm_wait(a) for a in ARM_ORDER)

    def cum_delay(self) -> int:
        """All waiting ever accrued: finished trips plus vehicles en route."""
        return self.arrived_wait_sum + sum(v.wait for v in self.iter_vehicles())

    @property
    def avg_queue_len(self) -> float:
        return self._halted_sum / self.clock if self.clock else 0.0

    @property
    def pending_count(self) -> int:
        return len(self._future) + len(self._waiting)

    @property
    def finished(self) -> bool:
        return self.pending_count == 0 and self.active_count == 0

    @property
    def out_of_time(self) -> bool:
        return self.clock >= SIM_TIME_CAP

    @property
    def done(self) -> bool:
        return self.finished or self.out_of_time

    # ------------------------------------------------------------- testing

    def place_vehicle(self, vehicle_id: str, route, lane: int | None = None,
                      pos: float = 0.0, speed: float = 0.0, vtype: str = "car",
                      wait: int = 0) -> Vehicle:
        """Inject a vehicle mid-network (test setup helper)."""
        route = tuple(route)
        self._check_route(route)
        edge = self.net.edges[route[0]]
        if not 0.0 <= pos <= edge.length:
            raise ValueError(f"pos {pos} outside edge {route[0]} (0..{edge.length})")
        if lane is None:
            lane = self._pick_lane(route[0], self._allowed_lanes(route, 0))[0]
        if not 0 <= lane < edge.lane_count:
            raise ValueError(f"lane {lane} out of range for {route[0]}")
        v = Vehicle(vehicle_id, vtype, VEHICLE_MAX_SPEED[vtype], route, self.clock)
        v.lane = lane
        v.pos = float(pos)
        v.speed = float(speed)
        v.wait = wait
        occupants = self._lanes[route[0]][lane]
        at = 0
        while at < len(occupants) and occupants[at].pos > pos:
            at += 1
        occupants.insert(at, v)
        self.scheduled_total += 1
        self.active_count += 1
        return v

    def replace_route_suffix(self, vehicle: Vehicle, suffix) -> None:
        """Swap everything after the vehicle's current edge for a new tail."""
        suffix = tuple(suffix)
        old_dest = self.net.edges[vehicle.route[-1]].to_node
        new_route = vehicle.route[:vehicle.route_idx + 1] + suffix
        self._check_route(new_route)
        if self.net.edges[new_route[-1]].to_node != old_dest:
            raise ValueError("replacement route must keep the destination")
        vehicle.route = new_route

    def validate(self) -> None:
        """Raise InvariantViolation if any physical or accounting rule broke."""
        seen_ids = set()
        active = 0
        for eid in self._edge_order:
            edge = self.net.edges[eid]
            for lane_idx, lane in enumerate(self._lanes[eid]):
                prev_pos = None
                for v in lane:
                    active += 1
                    if v.id in seen_ids:
                        raise InvariantViolation(f"vehicle {v.id} appears twice")
                    seen_ids.add(v.id)
                    if v.edge_id != eid or v.lane != lane_idx:
                        raise InvariantViolation(
                            f"{v.id} bookkeeping mismatch: on {eid}/{lane_idx}, "
                            f"thinks {v.edge_id}/{v.lane}")
                    if not 0.0 <= v.pos <= edge.length + 1e-9:
                        raise InvariantViolation(
                            f"{v.id} at pos {v.pos} outside {eid}")
                    if v.speed < 0.0:
                        raise InvariantViolation(f"{v.id} has negative speed")
                    if prev_pos is not None and prev_pos - v.pos < MIN_GAP - 1e-9:
                        raise InvariantViolation(
                            f"gap {prev_pos - v.pos:.3f} < {MIN_GAP} on "
                            f"{eid} lane {lane_idx} ahead of {v.id}")
                    prev_pos = v.pos
        if active != self.active_count:
            raise InvariantViolation(
                f"active_count {self.active_count} but counted {active}")
        total = self.pending_count + self.active_count + self.arrived_count
        if total != self.scheduled_total:
            raise InvariantViolation(
                f"conservation broke: {self.pending_count} pending + "
                f"{self.active_count} active + {self.arrived_count} arrived "
                f"!= {self.scheduled_total} scheduled")
