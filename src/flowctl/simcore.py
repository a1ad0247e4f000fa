"""Discrete-time traffic microsimulation on a signalized crossroad network.

Mechanics, all on 1-second steps:

* Car following is a simplified safe-gap rule evaluated as a parallel update:
  every vehicle's new speed is bounded by acceleration, its own top speed,
  the edge limit, and the pre-step position of its lane leader minus a fixed
  minimum gap.  Using pre-step leader positions makes the update order
  irrelevant for safety and caps discharge at one vehicle per lane per step,
  which yields realistic saturation flows: a follower ends at least MIN_GAP
  short of its leader's pre-step position, so only a lane's front vehicle
  can reach the edge end.
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
  middle lanes (lane 1 alone on a two-lane edge), anything without a
  junction ahead spreads by headroom.
* Demand is a spawn schedule; blocked spawns stay pending and retry in
  order.  Waiting time accrues per vehicle-step spent below a halt speed on
  an inbound arm edge.  When a detector window closes, `step` returns its
  per-arm count, mean speed and time-averaged density.  Density is kept in
  every simulation.  The count and mean speed need a per-vehicle pass over
  the detector span each step, so a simulation made with
  `sample_detectors=False` skips that pass and reports them as None.

The signal plan has four phases: 0 = north/south main lanes, 1 = north/south
left lane, 2 = east/west main lanes, 3 = east/west left lane.  A phase
change inserts a fixed all-red amber interval; re-selecting the active phase
extends the green seamlessly.

State layout.  Each active vehicle owns a slot: an index into numpy arrays
of position, speed, waiting time, speed cap (its top speed and the edge
limit folded into one `min`, which is exact), edge length and two
thresholds.  `_halt` is HALT_SPEED on an inbound arm edge and 0 elsewhere,
so `speed < _halt` is the halted set (speed is never negative); `_span` is
DETECTOR_SPAN on an approach edge and -inf elsewhere, so `pos <= _span` is
the detector set.  A free slot is inert: position 0, no speed or wait, no
cap, an edge end at infinity, thresholds that nothing meets, and itself
as leader.  Lanes keep their slots front to back.  Freed slots go on a
free list and are reused.  The arrays double when every slot is taken; at
the end of a step in which at most a quarter of the slots are active (and
more than INITIAL_SLOTS exist), they are halved until that no longer
holds, never inside the crossing loop.  So the array size follows the
active count.  Both resizes renumber the active slots into the front in
lane order and update each vehicle's `slot`.

Each slot has a `leader` index into a position buffer that holds the slots
followed by one sentinel per lane.  A lane's front vehicle points at the
lane's sentinel, which holds the edge length while the lane is red or
amber and infinity while it is green (or unsignalized).  So one
expression, `leader_pos - pos - MIN_GAP`, gives a follower its gap and a
front vehicle its stop wall, and `step` moves every vehicle with a handful
of whole-array operations.  Followers need no separate wall: their leader
is at most the edge length, and rounding is monotonic, so their gap never
exceeds the wall.

Two position buffers alternate, so the pre-step positions survive the
update.  The few vehicles that passed their edge end then cross in
(_edge_order, lane) order, the order of a lane-by-lane pass.  Each vehicle
holds its route's plan: per route index, the edge's fixed facts (rank in
_edge_order, first lane id, length, limit, arm, thresholds, lane lists)
and the lanes the next junction movement allows.  Plans are memoized per
route tuple, and a route swap fetches a new one.  Lane choice on entry
compares the room behind each target lane's rear vehicle: for target
edges later in _edge_order than the crossing vehicle's edge it reads
pre-step positions, and for earlier edges, and for spawns, post-step
positions.  An entering vehicle's entry position is written to both
buffers.

The crossing loop handles each vehicle in place, with the slot arrays,
lane lists and arm counters bound once per step: it picks the target lane,
takes the vehicle off the front of its lane and appends it to the back of
the next lane, or, on the route's last edge, lets it arrive and makes its
slot inert.  Admission works the same way on the back of a first lane.  A
free slot's position, speed and wait are already 0, so admission writes
only the edge facts; `step` tries it only when a spawn is due or a vehicle
is waiting.  `validate()` checks the slot arrays against the lanes and
that every free slot is inert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .roadnet import RoadNetwork, free_flow_weights, shortest_route

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
_SENSOR_EDGES = np.array(SENSOR_BREAKS)

# Flow detectors.
DETECTOR_PERIOD = 30
DETECTOR_SPAN = 50.0
DENSITY_NORM_LENGTH = 1000.0

# Vehicle slots before the first doubling.
INITIAL_SLOTS = 64

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


def phase_is_green(phase: int, arm: str, lane: int) -> bool:
    """Whether `phase`, once its amber is over, shows green to the lane."""
    if phase == 0:
        return arm in ("n", "s") and lane != 0
    if phase == 1:
        return arm in ("n", "s") and lane == 0
    if phase == 2:
        return arm in ("e", "w") and lane != 0
    return arm in ("e", "w") and lane == 0


class SignalController:
    """Four-phase controller with a mandatory all-red amber on phase change."""

    def __init__(self, yellow_duration: int = YELLOW_DURATION):
        if yellow_duration < 1:
            raise ValueError("yellow_duration must be >= 1")
        self.yellow_duration = yellow_duration
        self.phase = 0
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
        return not self.in_yellow and phase_is_green(self.phase, arm, lane)


class Vehicle:
    """A handle on one vehicle; the current edge is route[route_idx].

    Identity, route and lane are plain attributes; `plan` is the route's
    plan (see the module notes).  Position, speed and waiting time live in
    the simulation's slot arrays at index `slot` and read back as Python
    numbers.  An arrived vehicle gives its slot up (`slot` becomes None)
    and has no position any more.
    """

    __slots__ = ("id", "max_speed", "route", "plan", "route_idx", "lane",
                 "rerouted", "slot", "_sim")

    def __init__(self, sim: Simulation, slot: int, vehicle_id: str,
                 max_speed: float, route: tuple[str, ...], plan: tuple):
        self.id = vehicle_id
        self.max_speed = max_speed
        self.route = route
        self.plan = plan
        self.route_idx = 0
        self.lane = 0
        self.rerouted = False
        self.slot = slot
        self._sim = sim

    @property
    def pos(self) -> float:
        return float(self._sim._pos[self.slot])

    @property
    def speed(self) -> float:
        return float(self._sim._speed[self.slot])

    @property
    def wait(self) -> int:
        return int(self._sim._wait[self.slot])

    @property
    def edge_id(self) -> str:
        return self.route[self.route_idx]

    @property
    def remaining_route(self) -> tuple[str, ...]:
        return self.route[self.route_idx:]


@dataclass(frozen=True)
class ArmEdges:
    """The four edges that make up one arm of the crossroad."""

    approach_in: str
    junction_in: str
    junction_out: str
    approach_out: str


@dataclass(frozen=True)
class DetectorReading:
    """Aggregates for one arm over one detector window.  The count and mean
    speed are None from a simulation that does not sample its detectors."""

    arm: str
    window_start: int
    vehicle_count: int | None
    mean_speed: float | None
    density: float


class SpawnSpec(NamedTuple):
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

    # One origin draw per vehicle, each followed by a side draw if the
    # vehicle does not cross.  A draw in a power-of-two range takes exactly
    # one 32-bit word and never rejects, and a range-2 draw is the high bit
    # of a range-4 draw of the same word, so one range-4 array holds the
    # whole stream and side 0 (left) is `draw < 2`.
    words = iter(rng.integers(0, 4, size=count + (count - n_opposite)).tolist())
    weights = free_flow_weights(net)
    routes: dict[tuple[str, str], tuple[str, ...]] = {}
    vehicle_routes = []
    for cross in crossing.tolist():
        origin = ARM_ORDER[next(words)]
        if cross:
            dest = OPPOSITE_ARM[origin]
        else:
            dest = (LEFT_EXIT if next(words) < 2 else RIGHT_EXIT)[origin]
        route = routes.get((origin, dest))
        if route is None:
            route = routes[origin, dest] = shortest_route(net, origin, dest, weights)[1]
        vehicle_routes.append(route)
    vtypes = labels_arr.tolist()
    # tuple.__new__ builds each SpawnSpec without a Python-level call.
    return tuple(map(tuple.__new__, repeat(SpawnSpec), zip(
        times.tolist(), [f"v{i}" for i in range(count)], vtypes,
        map(VEHICLE_MAX_SPEED.__getitem__, vtypes), vehicle_routes)))


class Simulation:
    """One crossroad, one signal controller, and a population of vehicles;
    with `sample_detectors` off, detector windows report density only."""

    def __init__(self, net: RoadNetwork, schedule=(), *,
                 yellow_duration: int = YELLOW_DURATION,
                 sample_detectors: bool = True):
        self.net = net
        self.sample_detectors = sample_detectors
        _, self.arms = infer_layout(net)
        self.signals = SignalController(yellow_duration)
        self.clock = 0

        self._jin_arm = {q.junction_in: a for a, q in self.arms.items()}
        self._jout_arm = {q.junction_out: a for a, q in self.arms.items()}
        inbound = {a: (q.approach_in, q.junction_in) for a, q in self.arms.items()}
        self._edge_order = tuple(sorted(net.edges))

        # Lane ids run in (_edge_order, lane) order.  Per edge: its rank in
        # _edge_order, first lane id, length, speed limit, inbound arm index
        # (or -1), halt and detector thresholds, and lane lists.
        self._lanes: dict[str, list[list[int]]] = {}
        self._edge_info: dict[str, tuple] = {}
        lane_rows = []  # per lane id: arm, sensor cell base, distance offset, walls
        for rank, eid in enumerate(self._edge_order):
            edge = net.edges[eid]
            arm = next((i for i, a in enumerate(ARM_ORDER) if eid in inbound[a]), -1)
            approach = arm >= 0 and eid == inbound[ARM_ORDER[arm]][0]
            self._lanes[eid] = [[] for _ in range(edge.lane_count)]
            self._edge_info[eid] = (rank, len(lane_rows), edge.length,
                                    edge.speed_limit, arm,
                                    HALT_SPEED if arm >= 0 else 0.0,
                                    DETECTOR_SPAN if approach else -math.inf,
                                    self._lanes[eid])
            signal_arm = self._jin_arm.get(eid)
            for lane in range(edge.lane_count):
                cell, offset = -1, 0.0
                if arm >= 0:
                    cell = arm * 20 + (0 if lane == 0 else 10)
                    if approach:
                        offset = net.edges[self.arms[ARM_ORDER[arm]].junction_in].length
                walls = [math.inf if signal_arm is None
                         or phase_is_green(p, signal_arm, lane)
                         else edge.length for p in range(PHASE_COUNT)]
                walls.append(math.inf if signal_arm is None else edge.length)  # amber
                lane_rows.append((arm, cell, offset, walls))
        # A free slot has lane id -1, which picks the inert last row here.
        self._lane_arm = np.array([r[0] for r in lane_rows] + [-1])
        self._lane_cell = np.array([r[1] for r in lane_rows] + [-1])
        self._lane_offset = np.array([r[2] for r in lane_rows] + [0.0])
        self._walls = np.array([r[3] for r in lane_rows]).T.copy()
        self._wall_key = -1  # the row of _walls the sentinels hold; none yet
        self._arm_count = [0] * len(ARM_ORDER)
        self._handles: list[Vehicle | None] = []
        self._plans: dict[tuple[str, ...], tuple] = {}
        self._relayout(INITIAL_SLOTS)

        specs = sorted(schedule, key=itemgetter(0, 1))  # depart, then vehicle id
        ids = [s.vehicle_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vehicle ids in schedule")
        for route in dict.fromkeys(s.route for s in specs):
            self._check_route(route)
            self._route_plan(route)
        self._future: deque[SpawnSpec] = deque(specs)
        self._waiting: list[SpawnSpec] = []
        self.scheduled_total = len(specs)
        self.active_count = 0
        self.arrived_count = 0
        self.arrived_wait_sum = 0

        self._det_seen = [set() for _ in ARM_ORDER]
        self._det_speed_sum = [0.0] * len(ARM_ORDER)
        self._det_speed_n = [0] * len(ARM_ORDER)
        self._det_count_sum = [0] * len(ARM_ORDER)

    # ------------------------------------------------------------- slots

    # Per-slot arrays with the value that makes a free slot inert: no speed,
    # no speed cap, an edge end at infinity, no lane and thresholds that
    # nothing meets.  `_leader` and the two position buffers are handled apart.
    _SLOT_FIELDS = (("_speed", 0.0, np.float64), ("_wait", 0, np.int64),
                    ("_cap", 0.0, np.float64), ("_end", math.inf, np.float64),
                    ("_lane_of", -1, np.intp), ("_halt", 0.0, np.float64),
                    ("_span", -math.inf, np.float64))

    def _relayout(self, size: int) -> None:
        """Rebuild the slot arrays with room for `size` vehicles: the active
        slots are renumbered into the front in lane order, the rest are free.

        Lane sentinels sit past the last slot in both position buffers, so
        leader pointers to them move with the size.
        """
        keep = np.array([slot for lanes in self._lanes.values()
                         for lane in lanes for slot in lane], dtype=np.intp)
        active = keep.size
        for name, fill, dtype in self._SLOT_FIELDS:
            new = np.full(size, fill, dtype)
            if active:
                new[:active] = getattr(self, name)[keep]
            setattr(self, name, new)
        leader = np.arange(size)
        walls = self._walls[self._wall_key]
        if active:
            n = len(self._handles)
            renumber = np.arange(size - n, size + walls.size)  # sentinel n + j -> size + j
            renumber[keep] = np.arange(active)
            leader[:active] = renumber[self._leader[keep]]
        self._leader = leader
        for name in ("_pos", "_spare"):
            new = np.zeros(size + walls.size)
            new[size:] = walls
            if active:
                new[:active] = getattr(self, name)[keep]
            setattr(self, name, new)
        handles = [self._handles[slot] for slot in keep.tolist()]
        for slot, v in enumerate(handles):
            v.slot = slot
        self._handles = handles + [None] * (size - active)
        self._free = list(range(size - 1, active - 1, -1))
        first = 0
        for lanes in self._lanes.values():
            for lane in lanes:
                lane[:] = range(first, first + len(lane))
                first += len(lane)

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

    def _route_plan(self, route: tuple[str, ...]) -> tuple:
        """Per route index: the edge's info and the lanes permitted on it,
        which the movement at the next signalized junction sets.

        Memoized per route; a route swap makes a new route tuple.
        """
        plan = self._plans.get(route)
        if plan is not None:
            return plan
        steps = []
        turn = None  # movement at the next junction ahead; None allows any lane
        for idx in range(len(route) - 1, -1, -1):
            eid = route[idx]
            arm = self._jin_arm.get(eid)
            if arm is not None:
                exit_arm = self._jout_arm.get(route[idx + 1]) if idx + 1 < len(route) else None
                turn = (None if exit_arm is None else "left" if exit_arm == LEFT_EXIT[arm]
                        else "right" if exit_arm == RIGHT_EXIT[arm] else "through")
            lane_count = self.net.edges[eid].lane_count
            allowed = tuple(range(lane_count))
            if lane_count > 1:
                if turn == "left":
                    allowed = (0,)
                elif turn == "right":
                    allowed = (lane_count - 1,)
                elif turn == "through":
                    allowed = tuple(lane for lane in (1, 2) if lane < lane_count)
            steps.append((self._edge_info[eid], allowed))
        plan = self._plans[route] = tuple(reversed(steps))
        return plan

    # ---------------------------------------------------------------- step

    def set_phase(self, phase: int) -> None:
        self.signals.set_phase(phase)

    def step(self) -> dict[str, DetectorReading] | None:
        """Advance the world by one second, and return the reading per arm
        of a detector window that closes with it (None at other steps).

        One array pass moves every vehicle; then the few that passed their
        edge end cross the node, arrive or hold, one lane at a time in
        (_edge_order, lane) order (see the module notes).  Last, the slot
        arrays shrink if at most a quarter of them are in use.
        """
        signals = self.signals
        signals.tick_begin()
        clock = self.clock
        key = PHASE_COUNT if signals.in_yellow else signals.phase
        n = self._speed.size
        if key != self._wall_key:
            self._pos[n:] = self._spare[n:] = self._walls[key]
            self._wall_key = key

        prev, pos = self._pos, self._spare
        old = prev[:n]
        speed = self._speed
        leader = self._leader
        gap = prev.take(leader)
        gap -= old
        gap -= MIN_GAP
        speed += MAX_ACCEL
        np.minimum(speed, self._cap, out=speed)
        np.minimum(speed, gap, out=speed)
        np.maximum(speed, 0.0, out=speed)
        np.add(old, speed, out=pos[:n])
        self._pos, self._spare = pos, prev
        crossing = (pos[:n] > self._end).nonzero()[0]

        if crossing.size:
            handles, free, arm_count = self._handles, self._free, self._arm_count
            wait, cap, end = self._wait, self._cap, self._end
            lane_of, halt_of, span_of = self._lane_of, self._halt, self._span
            arrived = wait_sum = 0
            for slot in sorted(crossing.tolist(), key=lane_of.item):
                v = handles[slot]
                idx = v.route_idx
                plan = v.plan
                # Edge info, laid out as in __init__.
                rank, first_lane, length, _, arm, _, _, lanes = plan[idx][0]
                before = prev.item(slot)
                last = idx + 1 == len(plan)
                if not last:
                    ((to_rank, to_first, to_length, to_limit, to_arm, to_halt,
                      to_span, to_lanes), allowed) = plan[idx + 1]
                    # The allowed lane with the most room behind its rear
                    # vehicle; ties take the lowest.
                    rooms = prev if to_rank > rank else pos
                    new_lane, room = allowed[0], -1.0
                    for lane in allowed:
                        occupants = to_lanes[lane]
                        lane_room = rooms.item(occupants[-1]) if occupants else to_length
                        if lane_room > room + 1e-12:
                            new_lane, room = lane, lane_room
                    entry = pos.item(slot) - length
                    limit = room - MIN_GAP
                    if limit < entry:
                        entry = limit
                    if entry < 0.0:
                        pos[slot] = length  # hold at the node and retry
                        speed[slot] = length - before
                        continue
                # Leave the front of the lane; the next vehicle leads it now.
                lane = v.lane
                occupants = lanes[lane]
                del occupants[0]
                if occupants:
                    leader[occupants[0]] = n + first_lane + lane
                if arm >= 0:
                    arm_count[arm] -= 1
                if last:  # arrive and free the slot, leaving it inert
                    arrived += 1
                    wait_sum += wait.item(slot)
                    v.slot = handles[slot] = None
                    speed[slot] = pos[slot] = cap[slot] = halt_of[slot] = 0.0
                    wait[slot] = 0
                    end[slot] = math.inf
                    lane_of[slot] = -1
                    span_of[slot] = -math.inf
                    leader[slot] = slot
                    free.append(slot)
                    continue
                # Join the back of the chosen lane of the next edge.
                occupants = to_lanes[new_lane]
                leader[slot] = occupants[-1] if occupants else n + to_first + new_lane
                occupants.append(slot)
                v.route_idx = idx + 1
                v.lane = new_lane
                pos[slot] = prev[slot] = entry
                speed[slot] = (length - before) + entry
                top = v.max_speed
                cap[slot] = to_limit if to_limit < top else top
                end[slot] = to_length
                lane_of[slot] = to_first + new_lane
                halt_of[slot] = to_halt
                span_of[slot] = to_span
                if to_arm >= 0:
                    arm_count[to_arm] += 1
            self.active_count -= arrived
            self.arrived_count += arrived
            self.arrived_wait_sum += wait_sum

        if self._waiting or (self._future and self._future[0].depart <= clock):
            self._attempt_spawns(clock)
        signals.tick_end()
        self.clock = clock + 1
        readings = self._post_step_accounting()
        size = self._speed.size
        while size > INITIAL_SLOTS and 4 * self.active_count <= size:
            size //= 2
        if size < self._speed.size:
            self._relayout(size)
        return readings

    def _attempt_spawns(self, clock: int) -> None:
        """Queue the specs that are due, then admit, in order, each waiting
        vehicle whose best first lane has MIN_GAP of room behind its rear
        vehicle, at position 0 on the back of that lane.  A free slot
        already holds position, speed and wait 0 (validate() checks), so
        admission writes only the edge facts."""
        future, waiting = self._future, self._waiting
        while future and future[0].depart <= clock:
            waiting.append(future.popleft())
        plans = self._plans
        free, handles, arm_count = self._free, self._handles, self._arm_count
        pos, leader, size = self._pos, self._leader, self._speed.size
        still: list[SpawnSpec] = []
        admitted = 0
        for spec in waiting:
            plan = plans[spec.route]
            (_, first_lane, length, limit, arm, halt, span, lanes), allowed = plan[0]
            # The allowed lane with the most room behind its rear vehicle;
            # ties take the lowest.
            lane, room = allowed[0], -1.0
            for candidate in allowed:
                occupants = lanes[candidate]
                lane_room = pos.item(occupants[-1]) if occupants else length
                if lane_room > room + 1e-12:
                    lane, room = candidate, lane_room
            if room < MIN_GAP:
                still.append(spec)
                continue
            if not free:
                self._relayout(2 * size)
                free, handles = self._free, self._handles
                pos, leader, size = self._pos, self._leader, self._speed.size
            slot = free.pop()
            v = handles[slot] = Vehicle(self, slot, spec.vehicle_id, spec.max_speed,
                                        spec.route, plan)
            v.lane = lane
            occupants = lanes[lane]
            leader[slot] = occupants[-1] if occupants else size + first_lane + lane
            occupants.append(slot)
            top = spec.max_speed
            self._cap[slot] = limit if limit < top else top
            self._end[slot] = length
            self._lane_of[slot] = first_lane + lane
            self._halt[slot] = halt
            self._span[slot] = span
            if arm >= 0:
                arm_count[arm] += 1
            admitted += 1
        self._waiting = still
        self.active_count += admitted

    def _post_step_accounting(self) -> dict[str, DetectorReading] | None:
        pos = self._pos
        speed = self._speed
        self._wait += speed < self._halt
        for a, count in enumerate(self._arm_count):
            self._det_count_sum[a] += count
        if self.sample_detectors:
            # Add the speeds in (arm, lane, front-to-back) order.
            near = (pos[:speed.size] <= self._span).nonzero()[0].tolist()
            lane_of = self._lane_of
            handles = self._handles
            for lane, _, slot in sorted([(lane_of.item(slot), -pos.item(slot), slot)
                                         for slot in near]):
                a = self._lane_arm.item(lane)
                self._det_seen[a].add(handles[slot].id)
                self._det_speed_sum[a] += speed.item(slot)
                self._det_speed_n[a] += 1

        if self.clock % DETECTOR_PERIOD == 0:
            start = self.clock - DETECTOR_PERIOD
            readings = {}
            for a, arm in enumerate(ARM_ORDER):
                count = mean = None
                if self.sample_detectors:
                    n = self._det_speed_n[a]
                    count = len(self._det_seen[a])
                    mean = self._det_speed_sum[a] / n if n else 0.0
                readings[arm] = DetectorReading(
                    arm=arm,
                    window_start=start,
                    vehicle_count=count,
                    mean_speed=mean,
                    density=(self._det_count_sum[a] / DETECTOR_PERIOD)
                            / DENSITY_NORM_LENGTH,
                )
                self._det_seen[a].clear()
                self._det_speed_sum[a] = 0.0
                self._det_speed_n[a] = 0
                self._det_count_sum[a] = 0
            return readings
        return None

    # ------------------------------------------------------------- sensors

    def read_sensors(self) -> np.ndarray:
        """80 occupancy booleans: per arm (n,e,s,w), left lane group then
        main group, ten range cells spreading upstream from the stop line."""
        out = np.zeros(SENSOR_CELLS, dtype=np.float64)
        base = self._lane_cell[self._lane_of]
        seen = (base >= 0).nonzero()[0]
        dist = ((self._end[seen] - self._pos[seen])
                + self._lane_offset[self._lane_of[seen]])
        cell = np.searchsorted(_SENSOR_EDGES, dist, side="right") - 1  # dist >= 0
        near = cell < 10
        out[base[seen[near]] + cell[near]] = 1.0
        return out

    # ------------------------------------------------------------- metrics

    def vehicles_on_edge(self, edge_id: str) -> list[tuple[Vehicle, float]]:
        """(vehicle, position) pairs, lane by lane, each lane front to back."""
        slots = [slot for lane in self._lanes[edge_id] for slot in lane]
        return list(zip(map(self._handles.__getitem__, slots), self._pos[slots].tolist()))

    def arm_loads(self) -> list[tuple[int, int]]:
        """Per arm in ARM_ORDER: the accrued waiting of, and the number of
        halted vehicles among, the vehicles on its inbound edges."""
        bins = self._lane_arm[self._lane_of] + 1  # 0: off the arms, or free
        waits = np.bincount(bins, weights=self._wait, minlength=len(ARM_ORDER) + 1)
        queues = np.bincount(bins[self._speed < self._halt], minlength=len(ARM_ORDER) + 1)
        return [(int(w), q) for w, q in zip(waits[1:].tolist(), queues[1:].tolist())]

    def cumulative_wait(self) -> int:
        """Accrued waiting of everyone currently on an inbound arm edge."""
        return int(self._wait[self._halt > 0.0].sum())

    def cum_delay(self) -> int:
        """All waiting ever accrued: finished trips plus vehicles en route."""
        return self.arrived_wait_sum + int(self._wait.sum())

    @property
    def avg_queue_len(self) -> float:
        """Halted vehicle-steps per second so far.  Each halted vehicle-step
        adds one to a vehicle's wait, so this is `cum_delay()` over the
        clock; a vehicle placed with a nonzero wait counts that wait too."""
        return self.cum_delay() / self.clock if self.clock else 0.0

    @property
    def pending_count(self) -> int:
        return len(self._future) + len(self._waiting)

    @property
    def done(self) -> bool:
        """Finished, or at SIM_TIME_CAP; read from the counters directly,
        since the episode loop asks after every step."""
        return (not (self._future or self._waiting or self.active_count)
                or self.clock >= SIM_TIME_CAP)

    def replace_route_suffix(self, vehicle: Vehicle, suffix) -> None:
        """Swap everything after the vehicle's current edge for a new tail."""
        suffix = tuple(suffix)
        old_dest = self.net.edges[vehicle.route[-1]].to_node
        new_route = vehicle.route[:vehicle.route_idx + 1] + suffix
        self._check_route(new_route)
        if self.net.edges[new_route[-1]].to_node != old_dest:
            raise ValueError("replacement route must keep the destination")
        vehicle.route = new_route
        vehicle.plan = self._route_plan(new_route)

    def validate(self) -> None:
        """Raise InvariantViolation if any physical or accounting rule broke,
        or if the slot arrays disagree with the lanes they mirror."""
        n = self._speed.size
        pos = self._pos
        seen_ids = set()
        active = 0
        arm_count = [0] * len(ARM_ORDER)
        for eid in self._edge_order:
            _, first_lane, length, limit, arm, halt, span, lanes = self._edge_info[eid]
            for lane_idx, lane in enumerate(lanes):
                ahead = n + first_lane + lane_idx  # the lane's sentinel
                for slot in lane:
                    v = self._handles[slot]
                    if v is None or v.slot != slot:
                        raise InvariantViolation(
                            f"slot {slot} on {eid}/{lane_idx} has no vehicle handle")
                    active += 1
                    if v.id in seen_ids:
                        raise InvariantViolation(f"vehicle {v.id} appears twice")
                    seen_ids.add(v.id)
                    if v.edge_id != eid or v.lane != lane_idx:
                        raise InvariantViolation(
                            f"{v.id} bookkeeping mismatch: on {eid}/{lane_idx}, "
                            f"thinks {v.edge_id}/{v.lane}")
                    if v.plan is not self._route_plan(v.route):
                        raise InvariantViolation(f"{v.id} holds another route's plan")
                    if not 0.0 <= pos[slot] <= length + 1e-9:
                        raise InvariantViolation(
                            f"{v.id} at pos {pos[slot]} outside {eid}")
                    if self._speed[slot] < 0.0:
                        raise InvariantViolation(f"{v.id} has negative speed")
                    if ahead < n and pos[ahead] - pos[slot] < MIN_GAP - 1e-9:
                        raise InvariantViolation(
                            f"gap {pos[ahead] - pos[slot]:.3f} < {MIN_GAP} on "
                            f"{eid} lane {lane_idx} ahead of {v.id}")
                    if self._leader[slot] != ahead:
                        raise InvariantViolation(
                            f"{v.id} follows slot {self._leader[slot]}, not {ahead}")
                    if ((self._lane_of[slot], self._end[slot], self._cap[slot],
                         self._halt[slot], self._span[slot])
                            != (first_lane + lane_idx, length, min(v.max_speed, limit),
                                halt, span)):
                        raise InvariantViolation(f"{v.id} slot state is stale")
                    ahead = slot
                if arm >= 0:
                    arm_count[arm] += len(lane)
        if active != self.active_count:
            raise InvariantViolation(
                f"active_count {self.active_count} but counted {active}")
        if arm_count != self._arm_count:
            raise InvariantViolation(
                f"inbound counts {self._arm_count} but counted {arm_count}")
        if n > INITIAL_SLOTS and 4 * active <= n:
            raise InvariantViolation(f"{n} slots kept for {active} active vehicles")
        free = np.array(self._free, dtype=np.intp)
        if len(set(self._free)) + active != n or any(self._handles[s] for s in self._free):
            raise InvariantViolation(
                f"{len(self._free)} free + {active} active slots != {n}")
        for name, fill, _ in self._SLOT_FIELDS:
            if np.any(getattr(self, name)[free] != fill):
                raise InvariantViolation(f"a free slot has {name} != {fill}")
        if np.any(self._leader[free] != free):
            raise InvariantViolation("a free slot has a leader")
        if np.any(pos[free] != 0.0):
            raise InvariantViolation("a free slot has a position")
        total = self.pending_count + self.active_count + self.arrived_count
        if total != self.scheduled_total:
            raise InvariantViolation(
                f"conservation broke: {self.pending_count} pending + "
                f"{self.active_count} active + {self.arrived_count} arrived "
                f"!= {self.scheduled_total} scheduled")
