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
* Demand is one queue of spawn specs in (depart, id) order; a blocked
  spawn keeps its place and retries.  Waiting time accrues per vehicle-step
  spent below a halt speed on an inbound arm edge.  When a detector window
  closes, `step` returns its per-arm count, mean speed and time-averaged
  density.  Density is kept in every simulation.  The count and mean speed
  need a per-vehicle pass over the detector span each step, so a
  simulation made with `sample_detectors=False` skips that pass and
  reports them as None.

The signal plan, `phase` and `in_yellow`, is the simulation's own state.
Phases: 0 = north/south main lanes, 1 = north/south left lane, 2 = east/west
main lanes, 3 = east/west left lane.  A phase change runs an all-red amber
for `yellow_duration` steps, and the next step ends it at its start, so
until then `in_yellow` reads True and a command raises SignalInterlockError.
Re-selecting the active phase extends the green seamlessly.

State layout.  Each active vehicle owns a slot: an index into numpy arrays
of what every step reads: position, speed, waiting time, speed cap (its top
speed and the edge limit folded into one `min`, which is exact), edge
length, lane id and halt threshold.  `_halt` is HALT_SPEED on an inbound arm
edge and 0 elsewhere, so `speed < _halt` is the halted set (speed is never
negative).  What only occasional readers need sits in per-lane tables
indexed by lane id: `_lane_span` is DETECTOR_SPAN on an approach lane and
-inf elsewhere, so `pos <= _lane_span[_lane_of]` is the detector set.  A
free slot is inert: position 0, no speed or wait, no cap, an edge end at
infinity, lane id -1 (each table's inert last row), a halt threshold that
nothing meets, and itself as leader.  `_lane_slots` lists each lane's
slots, front to back, by lane id; lane ids run in (edge id, lane) order,
with the edges sorted by id.  Freed slots go on a free list and are
reused, and the active count is the slots off it.  The arrays double when
every slot is taken; at the end of a step in which at most a quarter of
the slots are active (and more than INITIAL_SLOTS exist), they are halved
until that no longer holds, never inside the crossing loop.  So the array
size follows the active count.  Both resizes renumber the active slots
into the front in lane id order and update each vehicle's `slot`.

Each slot has a `leader` index into a position buffer that holds the slots
followed by one sentinel per lane.  A lane's front vehicle points at the
lane's sentinel, which holds the edge length while the lane is red or
amber and infinity while it is green (or unsignalized): the row of
`_walls` for the plan's state, PHASE_COUNT in amber.  Only `set_phase`
starting an amber, `step` ending one and `_relayout` write them, into both
position buffers.  So one expression, `leader_pos - pos - MIN_GAP`, gives
a follower its gap and a front vehicle its stop wall, and `step` moves
every vehicle with a handful of whole-array operations.  Followers need no
separate wall: their leader is at most the edge length, and rounding is
monotonic, so their gap never exceeds the wall.

Two position buffers alternate, so the pre-step positions survive the
update.  The few vehicles that passed their edge end then cross in lane id
order, the order of a lane-by-lane pass.  Each vehicle holds its route's
plan: per route index, the edge's fixed facts (first lane id, length,
limit, arm, halt threshold) and the ids of the lanes the next junction
movement allows.  A plan holds only numbers that the network and the route
fix, so every simulation of one network builds equal plans.  Plans are
memoized per route tuple, and a route swap fetches a new one.  Lane choice
on entry compares the room behind each target lane's rear vehicle: for
target lanes with a higher id than the crossing vehicle's lane, which the
pass has yet to reach, it reads pre-step positions, and for lower ids, and
for spawns, post-step positions.  A route never repeats an edge, so the
target lanes are all higher or all lower.  An entering vehicle's entry
position is written to both buffers.

Whole-array work uses the numpy arrays; per-vehicle work reads and writes
a memoryview of each slot array and position buffer (`_speed_v`, `_pos_v`
and so on, see `_VIEWED`).  A view indexes a float64 array as 'd' and an
int64 one as 'l', so it returns and stores exactly the Python float or int
that numpy scalar indexing would, at about half the cost.  `_relayout`, the
only place that replaces the arrays, rebinds every view, and the position
buffer views swap together with the buffers.  A loop that holds views in
locals rebinds them after a resize: admission can grow the arrays in the
middle of its pass.  Views cannot be pickled, so a pickle or deep copy of a
`Simulation` leaves them out and rebuilds them from the copied arrays.

The crossing loop handles each vehicle in place, with the slot views,
`_lane_slots` and arm counters bound once per step: it picks the target lane,
takes the vehicle off the front of its lane and appends it to the back of
the next lane, or, on the route's last edge, lets it arrive and makes its
slot inert.  Admission works the same way on the back of a first lane.  A
free slot's position, speed and wait are already 0, so admission writes
only the edge facts; `step` tries it only when the queue's first spec is
due.  `validate()` checks the slot arrays against the lanes and the
sentinels against the plan, that every free slot is inert and that every
view aliases its array.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import checked_int
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


class Vehicle:
    """A handle on one vehicle; the current edge is route[route_idx].

    Identity and route are plain attributes; `plan` is the route's plan
    (see the module notes).  Position, speed, waiting time and lane live in
    the simulation's slot arrays at index `slot` and read back as Python
    numbers; the lane is the slot's lane id less its edge's first.  An
    arrived vehicle gives its slot up (`slot` becomes None) and has no
    position or lane any more.
    """

    __slots__ = ("id", "max_speed", "route", "plan", "route_idx",
                 "rerouted", "slot", "_sim")

    def __init__(self, sim: Simulation, slot: int, vehicle_id: str,
                 max_speed: float, route: tuple[str, ...], plan: tuple):
        self.id = vehicle_id
        self.max_speed = max_speed
        self.route = route
        self.plan = plan
        self.route_idx = 0
        self.rerouted = False
        self.slot = slot
        self._sim = sim

    @property
    def pos(self) -> float:
        return self._sim._pos_v[self.slot]

    @property
    def speed(self) -> float:
        return self._sim._speed_v[self.slot]

    @property
    def wait(self) -> int:
        return self._sim._wait_v[self.slot]

    @property
    def lane(self) -> int:
        return self._sim._lane_of_v[self.slot] - self.plan[self.route_idx][0][0]

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


# Vehicle ids "v0", "v1", ...: one string per index, shared by every
# schedule, so a run's logs hold each id once however many episodes it has.
_VEHICLE_IDS: list[str] = []
# Every trip a vehicle can draw, at index len(_EXITS) * origin + movement,
# where the origin indexes ARM_ORDER and the movement indexes _EXITS.
_EXITS = (OPPOSITE_ARM, LEFT_EXIT, RIGHT_EXIT)
_TRIPS = tuple((origin, exits[origin]) for origin in ARM_ORDER for exits in _EXITS)
_VEHICLE_NAMES = np.array([name for name, _, _ in VEHICLE_MIX], dtype=object)
_VEHICLE_TOPS = np.array([top for _, _, top in VEHICLE_MIX], dtype=object)


def spawn_schedule(net: RoadNetwork, count: int, seed: int,
                   horizon: int) -> tuple[SpawnSpec, ...]:
    """Deterministic demand: `count` vehicles departing within `horizon` seconds.

    Depart times are a Weibull(2) draw min-max rescaled onto [0, horizon-1]
    and floored, so the profile ramps up, peaks, and tails off.  The fleet
    mix follows VEHICLE_MIX via largest-remainder rounding, shuffled.  60%
    of vehicles (rounded) travel to the opposite boundary (crossing the
    junction); the rest go to an adjacent boundary, left or right at even
    odds, which the shortest route serves via a bypass diagonal.  Every
    vehicle's draws are array operations: no Python code runs per vehicle
    until the specs are built.  Each trip drawn is routed once, and every
    spec of a trip holds that route; types are VEHICLE_MIX's name strings.
    """
    count = checked_int(count, "count", 0)
    horizon = checked_int(horizon, "horizon", 1)
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

    # Shuffling indexes into VEHICLE_MIX makes the swaps that shuffling the
    # names would: Generator.shuffle draws the same whatever a 1-D array holds.
    counts = _largest_remainder_split(count, [f for _, f, _ in VEHICLE_MIX])
    kinds = np.repeat(np.arange(len(VEHICLE_MIX)), counts)
    rng.shuffle(kinds)

    n_opposite = round(0.6 * count)
    crossing = np.zeros(count, dtype=bool)
    crossing[:n_opposite] = True
    rng.shuffle(crossing)

    # One origin draw per vehicle, each followed by a side draw if the
    # vehicle does not cross.  A draw in a power-of-two range takes exactly
    # one 32-bit word and never rejects, and a range-2 draw is the high bit
    # of a range-4 draw of the same word, so one range-4 array holds the
    # whole stream and side 0 (left) is `draw < 2`.  Vehicle i's origin is
    # draw i plus one per turning vehicle before it, and its side the next.
    words = rng.integers(0, 4, size=count + (count - n_opposite))
    turning = ~crossing
    at = np.arange(count)
    at[1:] += np.cumsum(turning[:-1])
    trips = len(_EXITS) * words[at]
    trips[turning] += 1 + (words[at[turning] + 1] >= 2)  # LEFT_EXIT or RIGHT_EXIT
    weights = free_flow_weights(net)
    routes = np.empty(len(_TRIPS), dtype=object)
    for trip in np.flatnonzero(np.bincount(trips)).tolist():
        routes[trip] = shortest_route(net, *_TRIPS[trip], weights)[1]
    ids = _VEHICLE_IDS
    ids.extend(f"v{i}" for i in range(len(ids), count))
    # tuple.__new__ builds each SpawnSpec without a Python-level call; zip
    # stops after `count` ids.  Indexing an object array returns the very
    # objects it holds.
    return tuple(map(tuple.__new__, repeat(SpawnSpec), zip(
        times.tolist(), ids, _VEHICLE_NAMES[kinds].tolist(),
        _VEHICLE_TOPS[kinds].tolist(), routes[trips].tolist())))


class Simulation:
    """One crossroad, its signal plan (green in phase 0 at first), and a
    population of vehicles; with `sample_detectors` off, detector windows
    report density only."""

    def __init__(self, net: RoadNetwork, schedule=(), *,
                 yellow_duration: int = YELLOW_DURATION,
                 sample_detectors: bool = True):
        self.net = net
        self.sample_detectors = sample_detectors
        _, self.arms = infer_layout(net)
        self.yellow_duration = checked_int(yellow_duration, "yellow_duration", 1)
        self.phase = 0
        self.in_yellow = False
        self._amber_steps = 0  # steps the current amber has run
        self.clock = 0

        self._jin_arm = {q.junction_in: a for a, q in self.arms.items()}
        self._jout_arm = {q.junction_out: a for a, q in self.arms.items()}
        inbound = {a: (q.approach_in, q.junction_in) for a, q in self.arms.items()}

        # Lane ids run in (edge id, lane) order, edges sorted by id.  Per
        # edge: its first lane id, length, speed limit, inbound arm index
        # (or -1) and halt threshold.
        self._edge_info: dict[str, tuple] = {}
        lane_rows = []  # per lane id: arm, sensor cell base, distance offset, span, walls
        for eid in sorted(net.edges):
            edge = net.edges[eid]
            arm = next((i for i, a in enumerate(ARM_ORDER) if eid in inbound[a]), -1)
            approach = arm >= 0 and eid == inbound[ARM_ORDER[arm]][0]
            self._edge_info[eid] = (len(lane_rows), edge.length, edge.speed_limit,
                                    arm, HALT_SPEED if arm >= 0 else 0.0)
            span = DETECTOR_SPAN if approach else -math.inf
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
                lane_rows.append((arm, cell, offset, span, walls))
        # A free slot has lane id -1, which picks the inert last row here.
        self._lane_arm = np.array([r[0] for r in lane_rows] + [-1])
        self._lane_cell = np.array([r[1] for r in lane_rows] + [-1])
        self._lane_offset = np.array([r[2] for r in lane_rows] + [0.0])
        self._lane_span = np.array([r[3] for r in lane_rows] + [-math.inf])
        self._walls = np.array([r[4] for r in lane_rows]).T.copy()
        # Per lane id: its slots, front to back.
        self._lane_slots: list[list[int]] = [[] for _ in lane_rows]
        self._arm_count = [0] * len(ARM_ORDER)
        self._handles: list[Vehicle | None] = []
        self._plans: dict[tuple[str, ...], tuple] = {}
        self._relayout(INITIAL_SLOTS)

        # A SpawnSpec orders by depart, then vehicle id, once the ids are
        # unique: nothing after the id is compared then.
        specs = sorted(schedule)
        if len(set(map(itemgetter(1), specs))) != len(specs):
            raise ValueError("duplicate vehicle ids in schedule")
        for route in dict.fromkeys(map(itemgetter(4), specs)):
            self._check_route(route)
            self._route_plan(route)
        self._pending: deque[SpawnSpec] = deque(specs)
        self.scheduled_total = len(specs)
        self.arrived_count = 0
        self.arrived_wait_sum = 0

        self._det_seen = [set() for _ in ARM_ORDER]
        self._det_speed_sum = [0.0] * len(ARM_ORDER)
        self._det_speed_n = [0] * len(ARM_ORDER)
        self._det_count_sum = [0] * len(ARM_ORDER)

    # ------------------------------------------------------------- slots

    # Per-slot arrays with the value that makes a free slot inert: no speed,
    # no speed cap, an edge end at infinity, no lane and no halt threshold.
    # `_leader` and the two position buffers are handled apart.
    _SLOT_FIELDS = (("_speed", 0.0, np.float64), ("_wait", 0, np.int64),
                    ("_cap", 0.0, np.float64), ("_end", math.inf, np.float64),
                    ("_lane_of", -1, np.intp), ("_halt", 0.0, np.float64))
    # The arrays that the per-vehicle loops read and write through a
    # memoryview each, held as `<name>_v`.
    _VIEWED = tuple(name for name, _, _ in _SLOT_FIELDS) + ("_leader", "_pos", "_spare")

    def _relayout(self, size: int) -> None:
        """Rebuild the slot arrays with room for `size` vehicles: the active
        slots are renumbered into the front in lane id order, the rest are free.

        Lane sentinels sit past the last slot in both position buffers, so
        leader pointers to them move with the size.
        """
        keep = np.array([slot for lane in self._lane_slots for slot in lane], dtype=np.intp)
        active = keep.size
        for name, fill, dtype in self._SLOT_FIELDS:
            new = np.full(size, fill, dtype)
            if active:
                new[:active] = getattr(self, name)[keep]
            setattr(self, name, new)
        leader = np.arange(size)
        walls = self._walls[PHASE_COUNT if self.in_yellow else self.phase]
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
        for lane in self._lane_slots:
            lane[:] = range(first, first + len(lane))
            first += len(lane)
        self._bind_views()

    def _bind_views(self) -> None:
        """View each array of _VIEWED as `<name>_v` (see the module notes)."""
        for name in self._VIEWED:
            setattr(self, name + "_v", memoryview(getattr(self, name)))

    def __getstate__(self) -> dict:
        """Everything but the views, which cannot be pickled; copying and
        unpickling rebuild them from the arrays."""
        state = self.__dict__.copy()
        for name in self._VIEWED:
            del state[name + "_v"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

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
        """Per route index: the edge's info and the ids of the lanes
        permitted on it, which the movement at the next signalized junction
        sets.  A plan holds only numbers fixed by the network and the route.

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
            info = self._edge_info[eid]
            lane_count = self.net.edges[eid].lane_count
            allowed = range(lane_count)
            if lane_count > 1:
                if turn == "left":
                    allowed = (0,)
                elif turn == "right":
                    allowed = (lane_count - 1,)
                elif turn == "through":
                    allowed = [lane for lane in (1, 2) if lane < lane_count]
            steps.append((info, tuple(info[0] + lane for lane in allowed)))
        plan = self._plans[route] = tuple(reversed(steps))
        return plan

    # ---------------------------------------------------------------- step

    def set_phase(self, phase: int) -> None:
        """Command `phase`; a new one starts with an amber (see the module
        notes).  Raises SignalInterlockError while an amber runs."""
        phase = checked_int(phase, "phase", 0, PHASE_COUNT)
        if self.in_yellow:
            raise SignalInterlockError("cannot command a phase during amber")
        if phase != self.phase:
            self.phase = phase
            self.in_yellow = True
            self._amber_steps = 0
            n = self._speed.size
            self._pos[n:] = self._spare[n:] = self._walls[PHASE_COUNT]

    def step(self) -> dict[str, DetectorReading] | None:
        """Advance the world by one second, and return the reading per arm
        of a detector window that closes with it (None at other steps).

        An amber that has run its full length ends first.  One array pass
        moves every vehicle; then the few that passed their edge end cross
        the node, arrive or hold, one lane at a time in lane id order (see
        the module notes).  Last, the slot arrays shrink if at most a
        quarter of them are in use.
        """
        clock = self.clock
        n = self._speed.size
        if self.in_yellow:
            if self._amber_steps >= self.yellow_duration:
                self.in_yellow = False
                self._pos[n:] = self._spare[n:] = self._walls[self.phase]
            else:
                self._amber_steps += 1

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
        self._pos_v, self._spare_v = self._spare_v, self._pos_v
        crossing = (pos[:n] > self._end).nonzero()[0]

        if crossing.size:
            # From here on every slot array is read and written through its view.
            prev, pos = self._spare_v, self._pos_v
            handles, free, arm_count = self._handles, self._free, self._arm_count
            speed, wait, cap, end = self._speed_v, self._wait_v, self._cap_v, self._end_v
            lane_of, halt_of, leader = self._lane_of_v, self._halt_v, self._leader_v
            lane_slots = self._lane_slots
            arrived = wait_sum = 0
            for slot in sorted(crossing.tolist(), key=lane_of.__getitem__):
                v = handles[slot]
                idx = v.route_idx
                plan = v.plan
                # Edge info, laid out as in __init__.
                _, length, _, arm, _ = plan[idx][0]
                before = prev[slot]
                lane = lane_of[slot]
                last = idx + 1 == len(plan)
                if not last:
                    (_, to_length, to_limit, to_arm, to_halt), allowed = plan[idx + 1]
                    # The allowed lane with the most room behind its rear
                    # vehicle; ties take the lowest.  The pass has not yet
                    # reached a lane with a higher id than this one.
                    rooms = prev if allowed[0] > lane else pos
                    new_lane, room = allowed[0], -1.0
                    for candidate in allowed:
                        occupants = lane_slots[candidate]
                        lane_room = rooms[occupants[-1]] if occupants else to_length
                        if lane_room > room + 1e-12:
                            new_lane, room = candidate, lane_room
                    entry = pos[slot] - length
                    limit = room - MIN_GAP
                    if limit < entry:
                        entry = limit
                    if entry < 0.0:
                        pos[slot] = length  # hold at the node and retry
                        speed[slot] = length - before
                        continue
                # Leave the front of the lane; the next vehicle leads it now.
                occupants = lane_slots[lane]
                del occupants[0]
                if occupants:
                    leader[occupants[0]] = n + lane
                if arm >= 0:
                    arm_count[arm] -= 1
                if last:  # arrive and free the slot, leaving it inert
                    arrived += 1
                    wait_sum += wait[slot]
                    v.slot = handles[slot] = None
                    speed[slot] = pos[slot] = cap[slot] = halt_of[slot] = 0.0
                    wait[slot] = 0
                    end[slot] = math.inf
                    lane_of[slot] = -1
                    leader[slot] = slot
                    free.append(slot)
                    continue
                # Join the back of the chosen lane of the next edge.
                occupants = lane_slots[new_lane]
                leader[slot] = occupants[-1] if occupants else n + new_lane
                occupants.append(slot)
                v.route_idx = idx + 1
                pos[slot] = prev[slot] = entry
                speed[slot] = (length - before) + entry
                top = v.max_speed
                cap[slot] = to_limit if to_limit < top else top
                end[slot] = to_length
                lane_of[slot] = new_lane
                halt_of[slot] = to_halt
                if to_arm >= 0:
                    arm_count[to_arm] += 1
            self.arrived_count += arrived
            self.arrived_wait_sum += wait_sum

        if self._pending and self._pending[0].depart <= clock:
            self._attempt_spawns(clock)
        self.clock = clock + 1
        readings = self._post_step_accounting()
        size = self._speed.size
        active = size - len(self._free)
        while size > INITIAL_SLOTS and 4 * active <= size:
            size //= 2
        if size < self._speed.size:
            self._relayout(size)
        return readings

    def _attempt_spawns(self, clock: int) -> None:
        """Admit, in order, each due spec whose best first lane has MIN_GAP
        of room behind its rear vehicle, at position 0 on the back of that
        lane.  The blocked ones go back onto the front of `_pending` in
        order, ahead of the specs due later.  A free slot already holds
        position, speed and wait 0 (validate() checks), so admission writes
        only the edge facts."""
        pending, plans, lane_slots = self._pending, self._plans, self._lane_slots
        free, handles, arm_count = self._free, self._handles, self._arm_count
        size = self._speed.size
        pos, leader, cap, end = self._pos_v, self._leader_v, self._cap_v, self._end_v
        lane_of, halt_of = self._lane_of_v, self._halt_v
        still: list[SpawnSpec] = []
        while pending and pending[0].depart <= clock:
            spec = pending.popleft()
            plan = plans[spec.route]
            (_, length, limit, arm, halt), allowed = plan[0]
            # The allowed lane with the most room behind its rear vehicle;
            # ties take the lowest.
            lane, room = allowed[0], -1.0
            for candidate in allowed:
                occupants = lane_slots[candidate]
                lane_room = pos[occupants[-1]] if occupants else length
                if lane_room > room + 1e-12:
                    lane, room = candidate, lane_room
            if room < MIN_GAP:
                still.append(spec)
                continue
            if not free:
                self._relayout(2 * size)
                free, handles = self._free, self._handles
                size = self._speed.size
                pos, leader, cap, end = self._pos_v, self._leader_v, self._cap_v, self._end_v
                lane_of, halt_of = self._lane_of_v, self._halt_v
            slot = free.pop()
            v = handles[slot] = Vehicle(self, slot, spec.vehicle_id, spec.max_speed,
                                        spec.route, plan)
            occupants = lane_slots[lane]
            leader[slot] = occupants[-1] if occupants else size + lane
            occupants.append(slot)
            top = spec.max_speed
            cap[slot] = limit if limit < top else top
            end[slot] = length
            lane_of[slot] = lane
            halt_of[slot] = halt
            if arm >= 0:
                arm_count[arm] += 1
        pending.extendleft(reversed(still))

    def _post_step_accounting(self) -> dict[str, DetectorReading] | None:
        pos = self._pos
        speed = self._speed
        self._wait += speed < self._halt
        for a, count in enumerate(self._arm_count):
            self._det_count_sum[a] += count
        if self.sample_detectors:
            # Add the speeds in (arm, lane, front-to-back) order.
            near = (pos[:speed.size] <= self._lane_span[self._lane_of]).nonzero()[0].tolist()
            lane_of, pos, speed = self._lane_of_v, self._pos_v, self._speed_v
            lane_arm, handles = memoryview(self._lane_arm), self._handles
            seen, speed_sum, speed_n = self._det_seen, self._det_speed_sum, self._det_speed_n
            for lane, _, slot in sorted([(lane_of[slot], -pos[slot], slot)
                                         for slot in near]):
                a = lane_arm[lane]
                seen[a].add(handles[slot].id)
                speed_sum[a] += speed[slot]
                speed_n[a] += 1

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
        first = self._edge_info[edge_id][0]
        lanes = self._lane_slots[first:first + self.net.edges[edge_id].lane_count]
        slots = [slot for lane in lanes for slot in lane]
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
        return len(self._pending)

    @property
    def active_count(self) -> int:
        """Vehicles on the network: every slot that is not on the free list."""
        return self._speed.size - len(self._free)

    @property
    def done(self) -> bool:
        """Finished, or at SIM_TIME_CAP; read from the queue and the free
        list directly, since the episode loop asks after every step."""
        return (not (self._pending or len(self._free) < self._speed.size)
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
        or if the slot arrays or sentinels disagree with the lanes or plan."""
        n = self._speed.size
        pos = self._pos
        seen_ids = set()
        active = 0
        arm_count = [0] * len(ARM_ORDER)
        for eid, (first_lane, length, limit, arm, halt) in self._edge_info.items():
            lanes = self._lane_slots[first_lane:first_lane + self.net.edges[eid].lane_count]
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
                    if ((self._lane_of[slot], self._end[slot], self._cap[slot], self._halt[slot])
                            != (first_lane + lane_idx, length, min(v.max_speed, limit), halt)):
                        raise InvariantViolation(f"{v.id} slot state is stale")
                    ahead = slot
                if arm >= 0:
                    arm_count[arm] += len(lane)
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
        for name in self._VIEWED:
            array, view = getattr(self, name), getattr(self, name + "_v")
            if view.obj is not array or len(view) != array.size:
                raise InvariantViolation(f"{name}_v is not a view of {name}")
        walls = self._walls[PHASE_COUNT if self.in_yellow else self.phase]
        if np.any(pos[n:] != walls) or np.any(self._spare[n:] != walls):
            raise InvariantViolation("a lane sentinel does not hold the signal plan's wall")
        total = self.pending_count + self.active_count + self.arrived_count
        if total != self.scheduled_total:
            raise InvariantViolation(
                f"conservation broke: {self.pending_count} pending + "
                f"{self.active_count} active + {self.arrived_count} arrived "
                f"!= {self.scheduled_total} scheduled")
