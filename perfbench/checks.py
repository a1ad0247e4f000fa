"""Output checks built from properties computed apart from the program.

Each check takes plain data (CSV text, file bytes, arrays, edge geometry)
and returns a list of failure messages; an empty list means it passed.
Nothing here imports flowctl, and nothing compares against stored copies
of earlier output: the expected values come from the configuration, the
network geometry, the documented file formats, or an independent forward
pass.
"""

from __future__ import annotations

import heapq
import math
import struct

import numpy as np

# Documented in the project README ("Artifacts").
METRICS_HEADER = "episode,cum_delay_s,avg_queue_len,cum_negative_reward,sim_time_s"
REROUTE_HEADER = "time,vehicle,old_route,new_route,u_twt,best_alt_time,decision"
# Documented in the neuralnet module docstring ("Persistence format").
POLICY_MAGIC = b"FLOWNN01"
POLICY_VERSION = 1

MAX_MESSAGES = 5  # per check; the count of further failures is appended


def capped(failures: list[str]) -> list[str]:
    if len(failures) <= MAX_MESSAGES:
        return failures
    return failures[:MAX_MESSAGES] + [f"... and {len(failures) - MAX_MESSAGES} more"]


def _rows(text: str, header: str, what: str) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"{what}: header is {lines[0] if lines else None!r}, "
                    f"documented {header!r}"]
    width = header.count(",") + 1
    rows, failures = [], []
    for n, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != width:
            failures.append(f"{what} line {n}: {len(parts)} fields, expected {width}")
        else:
            rows.append(parts)
    return rows, failures


# ------------------------------------------------------------ geometry

def min_trip_time(edges, boundary_nodes) -> float:
    """Free-flow time of the quickest trip between two distinct boundary
    nodes.  edges: iterable of (from_node, to_node, length_m, speed_mps)."""
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for a, b, length, speed in edges:
        adjacency.setdefault(a, []).append((b, length / speed))
    best = math.inf
    for origin in boundary_nodes:
        dist = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if node != origin and node in boundary_nodes:
                best = min(best, d)
                break  # Dijkstra pops the nearest boundary node first
            for nxt, w in adjacency.get(node, ()):
                if d + w < dist.get(nxt, math.inf):
                    dist[nxt] = d + w
                    heapq.heappush(heap, (d + w, nxt))
    return best


# ---------------------------------------------------------- every round

def check_metrics_csv(text: str, episodes: int) -> tuple[list[str], list[dict]]:
    """Header as documented, one row per configured episode in order,
    cum_negative_reward <= 0.  Returns (failures, parsed rows)."""
    rows, failures = _rows(text, METRICS_HEADER, "metrics.csv")
    names = METRICS_HEADER.split(",")
    parsed = [dict(zip(names, r)) for r in rows]
    if len(rows) != episodes:
        failures.append(f"metrics.csv has {len(rows)} rows, configured {episodes}")
    for i, row in enumerate(parsed):
        if row["episode"] != str(i):
            failures.append(f"metrics.csv row {i} has episode {row['episode']}")
        if not float(row["cum_negative_reward"]) <= 0.0:
            failures.append(f"episode {i}: cum_negative_reward "
                            f"{row['cum_negative_reward']} > 0")
    return capped(failures), parsed


def check_episodes(sim_times, arrived, scheduled, last_departs, vehicles: int,
                   min_trip_s: float, time_cap: int) -> tuple[list[str], list[int]]:
    """Every scheduled vehicle arrived (count from the config), and each
    episode lasted at least its last departure plus the quickest trip.

    An episode that ran into the simulator's time cap was cut short by the
    program with vehicles still out; it is returned in the second list
    instead of failing the arrival check.  Learning stalls traffic that
    long on a few seeds only (see CHANGES.md)."""
    failures, at_cap = [], []
    if not len(sim_times) == len(arrived) == len(scheduled) == len(last_departs):
        return [f"episode series differ in length: {len(sim_times)} sim times, "
                f"{len(arrived)} arrivals, {len(scheduled)} schedules"], at_cap
    for i, (t, a, s, last) in enumerate(zip(sim_times, arrived, scheduled,
                                            last_departs)):
        if s != vehicles:
            failures.append(f"episode {i}: {s} vehicles scheduled, configured {vehicles}")
        if t >= time_cap:
            at_cap.append(i)
        elif a != vehicles:
            failures.append(f"episode {i}: {a} of {vehicles} vehicles arrived")
        if t < last + min_trip_s:
            failures.append(f"episode {i}: sim_time_s {t} < last departure "
                            f"{last} + quickest trip {min_trip_s:.1f} s")
    return capped(failures), at_cap


def check_repeat(digests: list[str]) -> list[str]:
    """Rounds with one seed produce identical artifacts."""
    if len(set(digests)) > 1:
        return [f"artifacts differ between rounds with one seed: {digests}"]
    return []


# ------------------------------------------------------------ learning

def check_learning(sim_times) -> list[str]:
    """The final-quarter mean sim time is below the first-quarter mean."""
    q = max(1, len(sim_times) // 4)
    first = sum(sim_times[:q]) / q
    final = sum(sim_times[-q:]) / q
    if not final < first:
        return [f"no learning: final-quarter mean sim time {final:.1f} s "
                f">= first-quarter mean {first:.1f} s"]
    return []


def check_most_seeds_learn(outcomes) -> list[str]:
    """Learning improved on most seeds.  outcomes holds each seed's
    check_learning result.  A few seeds start from a policy that stalls
    traffic and never recover (see CHANGES.md), so one seed in three may
    miss."""
    missed = [o for o in outcomes if o]
    if 2 * len(missed) > len(outcomes):
        return [f"no learning on {len(missed)} of {len(outcomes)} seeds: "
                + "; ".join(o[0] for o in missed)]
    return []


def check_policy_file(blob: bytes, layer_sizes, weights, biases) -> list[str]:
    """policy.bin has the size the layer sizes imply, and its payload is
    bit-for-bit the final network."""
    sizes = tuple(layer_sizes)
    header = len(POLICY_MAGIC) + 8 + 4 * len(sizes)
    expected = header + sum(8 * (a * b + b) for a, b in zip(sizes[:-1], sizes[1:]))
    if len(blob) != expected:
        return [f"policy.bin is {len(blob)} bytes, layer sizes {sizes} imply {expected}"]
    if blob[:len(POLICY_MAGIC)] != POLICY_MAGIC:
        return ["policy.bin: bad magic"]
    version, count = struct.unpack_from("<II", blob, len(POLICY_MAGIC))
    stored = struct.unpack_from(f"<{count}I", blob, len(POLICY_MAGIC) + 8)
    if version != POLICY_VERSION or stored != sizes:
        return [f"policy.bin header: version {version}, sizes {stored}; "
                f"expected {POLICY_VERSION}, {sizes}"]
    failures = []
    off = header
    for i, (w, b) in enumerate(zip(weights, biases)):
        for name, arr in (("W", w), ("b", b)):
            got = np.frombuffer(blob, dtype="<f8", count=arr.size, offset=off)
            off += 8 * arr.size
            if not np.array_equal(got, np.ravel(arr)):
                failures.append(f"policy.bin {name}{i} differs from the final network")
    return failures


def log_policy(weights, biases, states, actions, coeffs):
    """sum_i coeffs[i] * log softmax(MLP(states[i]))[actions[i]], with the
    ReLU on/off pattern of every hidden unit.  Written apart from flowctl."""
    h = np.asarray(states, dtype=np.float64)
    pattern = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T + b
        if i < len(weights) - 1:
            on = h > 0
            pattern.append(on)
            h = np.where(on, h, 0.0)
    z = h - h.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    value = float(np.dot(coeffs, logp[np.arange(len(actions)), actions]))
    return value, pattern


def check_gradients(weights, biases, states, actions, coeffs, grad_fn,
                    per_array: int = 12, eps: float = 1e-5,
                    tolerance: float = 1e-4, seed: int = 0) -> list[str]:
    """Central finite differences on sampled parameters against
    grad_fn(states, actions, coeffs) -> (weight grads, bias grads).

    Coordinates whose perturbation flips a ReLU are skipped: the function
    has a kink there and the difference quotient is not a derivative."""
    weights = [np.array(w, dtype=np.float64) for w in weights]
    biases = [np.array(b, dtype=np.float64) for b in biases]
    actions = np.asarray(actions)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    grads_w, grads_b = grad_fn(states, actions, coeffs)
    _, base = log_policy(weights, biases, states, actions, coeffs)
    rng = np.random.default_rng(seed)
    worst, checked, failures = 0.0, 0, []
    for kind, params, grads in (("W", weights, grads_w), ("b", biases, grads_b)):
        for layer, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                failures.append(f"gradient {kind}{layer} has shape {g.shape}, "
                                f"parameter {p.shape}")
                continue
            flat, gflat = p.reshape(-1), g.reshape(-1)
            picks = set(rng.choice(flat.size, size=min(per_array, flat.size),
                                   replace=False).tolist())
            picks.add(int(np.argmax(np.abs(gflat))))
            for j in sorted(picks):
                orig = flat[j]
                flat[j] = orig + eps
                up, pat_up = log_policy(weights, biases, states, actions, coeffs)
                flat[j] = orig - eps
                down, pat_down = log_policy(weights, biases, states, actions, coeffs)
                flat[j] = orig
                if any((a != c).any() or (d != c).any()
                       for a, d, c in zip(pat_up, pat_down, base)):
                    continue
                fd = (up - down) / (2 * eps)
                rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1e-6)
                worst = max(worst, rel)
                checked += 1
    if checked < per_array:
        failures.append(f"only {checked} gradient coordinates were clear of ReLU kinks")
    if worst >= tolerance:
        failures.append(f"gradient relative error {worst:.2e} >= {tolerance:g}")
    return failures


# ----------------------------------------------------------- rerouting

def check_reroutes(text: str, edges) -> list[str]:
    """reroutes.csv against the network: justified switches, unchanged
    stays, connected destination-keeping new routes, one switch per vehicle
    per episode.  edges: mapping edge id -> (from_node, to_node)."""
    rows, failures = _rows(text, REROUTE_HEADER, "reroutes.csv")
    switched: set[str] = set()
    prev_time = -1
    for n, (time, vehicle, old, new, u_twt, best, decision) in enumerate(rows, 2):
        where = f"reroutes.csv line {n} ({vehicle} at {time} s)"
        if int(time) < prev_time:  # time restarts with each episode
            switched.clear()
        prev_time = int(time)
        old_route, new_route = old.split("|"), new.split("|")
        if decision == "stay":
            if new_route != old_route:
                failures.append(f"{where}: stay changed the route")
            continue
        if decision != "switch":
            failures.append(f"{where}: unknown decision {decision!r}")
            continue
        if best == "" or not float(u_twt) > float(best):
            failures.append(f"{where}: switch with u_twt {u_twt} "
                            f"not above best alternative {best!r}")
        if vehicle in switched:
            failures.append(f"{where}: second switch in one episode")
        switched.add(vehicle)
        if any(e not in edges for e in old_route + new_route):
            failures.append(f"{where}: route names an unknown edge")
            continue
        if new_route[0] != old_route[0]:
            failures.append(f"{where}: new route leaves the current edge")
        if any(edges[a][1] != edges[b][0] for a, b in zip(new_route, new_route[1:])):
            failures.append(f"{where}: new route is not connected")
        if edges[new_route[-1]][1] != edges[old_route[-1]][1]:
            failures.append(f"{where}: new route ends at {edges[new_route[-1]][1]}, "
                            f"old at {edges[old_route[-1]][1]}")
    return capped(failures)


# --------------------------------------------------------- traced only

def check_phase_cycle(phases_per_episode) -> list[str]:
    """Fixed-time control commands 0, 1, 2, 3, 0, ... in every episode."""
    failures = []
    for i, phases in enumerate(phases_per_episode):
        bad = next((k for k, p in enumerate(phases) if p != k % 4), None)
        if bad is not None:
            failures.append(f"episode {i}: decision {bad} commanded phase "
                            f"{phases[bad]}, cycle expects {bad % 4}")
    return capped(failures)
