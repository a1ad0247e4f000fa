"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n> PASS`` line when it holds (run with ``-s`` to see them);
a pytest failure on any assert is the FAIL signal for that criterion.

 1. Analytic log-policy gradients match central finite differences.
 2. Dijkstra routing equals brute-force simple-path minima exactly.
 3. Episode rewards telescope to the drop in cumulative waiting.
 4. Physical invariants hold after every step; every phase change
    inserts exactly two all-red seconds.
 5. Repeated CLI runs with one seed are byte-identical.
 6. Training improves the reward signal on most seeds.
 7. Learned control beats fixed-time; adding rerouting beats it by more.
 8. Scripted congestion produces justified, jam-avoiding switches, and
    none when the trigger threshold sits above the observed density.
 9. Discount and depth sweeps emit complete ranked comparison tables.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from flowctl.harness import (
    MODES,
    desk_profile,
    final_quarter,
    read_csv,
    run_many,
    run_sweep,
    summarize,
)
from flowctl.neuralnet import accumulate_logp_gradients, forward
from flowctl.pgagent import drive_episode
from flowctl.roadnet import (
    ARM_LANES,
    Edge,
    UnreachableError,
    build_default_network,
    make_network,
    shortest_route,
)
from flowctl.rerouter import apply_rerouting
from flowctl.simcore import MIN_GAP, Simulation, spawn_schedule

from nets import he_network
from simstate import is_green, iter_vehicles, place_vehicle

NET = build_default_network()


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def desk_runs():
    """All three modes at desk scale for seeds 7/8/9, plus the wall time."""
    cfg = desk_profile()
    jobs = [(cfg, mode, seed) for seed in (7, 8, 9) for mode in MODES]
    t0 = perf_counter()
    results = run_many(jobs)
    elapsed = perf_counter() - t0
    by_key = {(mode, seed): res
              for (_, mode, seed), res in zip(jobs, results)}
    return by_key, elapsed


def first_quarter(items):
    return list(items)[:max(1, len(items) // 4)]


# ------------------------------------------------- 1: gradient correctness

def logp_gradient(net, state, action):
    return accumulate_logp_gradients(net, np.asarray(state)[None, :], [action], [1.0])


def log_prob(net, state, action):
    return math.log(float(forward(net, state)[action]))


def clear_of_relu_kinks(net, state, guard: float = 1e-3) -> bool:
    """True if no hidden pre-activation sits within `guard` of zero.

    Central differences are only valid away from the ReLU kink: a +/-eps
    parameter nudge moves pre-activations by about eps * |input|, so any
    unit closer to zero than that would flip sign mid-probe and make the
    quotient measure the kink, not the derivative.
    """
    h = np.asarray(state, dtype=float)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ h + b
        if i == len(net.weights) - 1:
            break
        if np.min(np.abs(z)) < guard:
            return False
        h = np.maximum(z, 0.0)
    return True


def test_acceptance_1_gradients_match_finite_differences():
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    eps = 1e-5
    cases = 0
    worst = 0.0
    for _ in range(10):
        width, count = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        seed = int(rng.integers(1 << 31))
        sizes = (int(rng.integers(3, 7)),) + (width,) * count + (int(rng.integers(2, 5)),)
        net = he_network(sizes, seed)
        done = 0
        while done < 10:
            state = rng.normal(size=net.layer_sizes[0])
            if not clear_of_relu_kinks(net, state):
                continue
            done += 1
            action = int(rng.integers(net.layer_sizes[-1]))
            grads = logp_gradient(net, state, action)
            for params, grad in zip(net.weights + net.biases,
                                    grads.weights + grads.biases):
                flat, gflat = params.ravel(), grad.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = log_prob(net, state, action)
                    flat[i] = orig - eps
                    down = log_prob(net, state, action)
                    flat[i] = orig
                    fd = (up - down) / (2.0 * eps)
                    an = gflat[i]
                    rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                    worst = max(worst, rel)
            cases += 1
    elapsed = perf_counter() - t0
    assert cases >= 100
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS — {cases} cases, max rel err {worst:.2e}, "
          f"{elapsed:.1f} s")


# ------------------------------------------------ 2: routing vs brute force

def brute_force_min_cost(net, weights, origin, destination):
    """Minimum left-to-right cost over all node-simple paths, or None."""
    best = None

    def extend(node, visited, cost):
        nonlocal best
        if node == destination:
            if best is None or cost < best:
                best = cost
            return
        for eid in net.adjacency.get(node, ()):
            nxt = net.edges[eid].to_node
            if nxt not in visited:
                extend(nxt, visited | {nxt}, cost + weights[eid])

    extend(origin, {origin}, 0.0)
    return best


def test_acceptance_2_shortest_route_matches_exhaustive_search():
    t0 = perf_counter()
    graphs = 0
    unreachable = 0
    attempt = 0
    while graphs < 200:
        rng = np.random.default_rng(np.random.SeedSequence([202, attempt]))
        attempt += 1
        names = "abcdefghij"[:int(rng.integers(4, 11))]
        edges, weights = [], {}
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.35:
                    eid = u + v
                    edges.append(Edge(eid, u, v, 100.0, 1))
                    weights[eid] = float(rng.uniform(0.1, 10.0))
        if len(edges) < 2:
            continue
        net = make_network(edges)
        nodes = sorted(net.adjacency)
        if len(nodes) < 2:
            continue
        pick = rng.choice(len(nodes), size=2, replace=False)
        origin, destination = nodes[pick[0]], nodes[pick[1]]
        expected = brute_force_min_cost(net, weights, origin, destination)
        if expected is None:
            with pytest.raises(UnreachableError):
                shortest_route(net, origin, destination, weights)
            unreachable += 1
        else:
            found, edges = shortest_route(net, origin, destination, weights)
            cost = 0.0
            for eid in edges:
                cost += weights[eid]
            assert found == cost == expected  # identical accumulation, exact match
        graphs += 1
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS — 200 graphs ({unreachable} unreachable), "
          f"exact cost match, {elapsed:.1f} s")


# ------------------------------------------------- 3: reward bookkeeping

def test_acceptance_3_rewards_telescope_to_waiting_drop():
    for trial in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([303, trial]))
        schedule = spawn_schedule(NET, int(rng.integers(20, 120)),
                                  int(rng.integers(1 << 31)),
                                  int(rng.integers(10, 80)))
        sim = Simulation(NET, schedule)
        policy_rng = np.random.default_rng(np.random.SeedSequence([909, trial]))

        def choose(_state):
            return int(policy_rng.integers(4))

        initial = sim.cumulative_wait()
        transitions, _ = drive_episode(
            sim, choose,
            green_duration=int(rng.integers(2, 8)),
            max_decisions=int(rng.integers(3, 40)))  # often ends mid-traffic
        final = sim.cumulative_wait()
        total = math.fsum(r for _, _, r in transitions)
        assert abs(total - (initial - final)) < 1e-9
    print("\nACCEPTANCE 3 PASS — 20 episodes, reward sums match "
          "waiting-time drops within 1e-9")


# ----------------------------------------- 4: physics and signal protocol

def assert_lane_gaps(sim):
    by_lane: dict[tuple[str, int], list[float]] = {}
    for v in iter_vehicles(sim):
        by_lane.setdefault((v.edge_id, v.lane), []).append(v.pos)
    for positions in by_lane.values():
        positions.sort(reverse=True)
        for ahead, behind in zip(positions, positions[1:]):
            assert ahead - behind >= MIN_GAP - 1e-9


def full_check(sim):
    sim.validate()
    assert_lane_gaps(sim)
    assert (sim.pending_count + sim.active_count + sim.arrived_count
            == sim.scheduled_total)


def assert_all_red(sim):
    for arm in "nesw":
        for lane in range(ARM_LANES):
            assert not is_green(sim, arm, lane)


def test_acceptance_4_invariants_and_two_second_amber():
    phase_changes = 0
    for trial in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([404, trial]))
        schedule = spawn_schedule(NET, int(rng.integers(10, 80)),
                                  int(rng.integers(1 << 31)),
                                  int(rng.integers(5, 60)))
        sim = Simulation(NET, schedule)
        limit = int(rng.integers(40, 140))
        while sim.clock < limit and not sim.done:
            if not sim.in_yellow and rng.random() < 0.35:
                target = int(rng.integers(4))
                if target == sim.phase:
                    sim.set_phase(target)
                    assert not sim.in_yellow  # same phase: seamless
                else:
                    sim.set_phase(target)
                    phase_changes += 1
                    assert_all_red(sim)     # amber second 1 about to run
                    sim.step()
                    full_check(sim)
                    assert sim.in_yellow
                    assert_all_red(sim)     # amber second 2 about to run
                    sim.step()
                    full_check(sim)
                    assert sim.in_yellow  # promotion happens next step
                    sim.step()
                    full_check(sim)
                    assert not sim.in_yellow  # third second ran green
                    assert sim.phase == target
                    continue
            sim.step()
            full_check(sim)
    assert phase_changes > 100  # the protocol was actually exercised
    print(f"\nACCEPTANCE 4 PASS — 50 episodes, {phase_changes} phase changes, "
          "conservation + gaps + 2-step amber held every step")


# --------------------------------------------------- 5: run determinism

@pytest.mark.slow
def test_acceptance_5_repeat_cli_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "flowctl.cli", "run", "--mode", "rl",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    metrics_a = (a / "metrics.csv").read_bytes()
    assert metrics_a == (b / "metrics.csv").read_bytes()
    assert (a / "policy.bin").read_bytes() == (b / "policy.bin").read_bytes()
    assert len(read_csv(metrics_a.decode())[1]) == 50
    print("\nACCEPTANCE 5 PASS — two `run --mode rl --seed 7` invocations "
          "produced byte-identical metrics.csv (and policy.bin)")


# ----------------------------------------------------- 6: learning curve

@pytest.mark.slow
def test_acceptance_6_training_improves_reward(desk_runs):
    runs, elapsed = desk_runs
    improved = 0
    details = []
    for seed in (7, 8, 9):
        metrics = runs[("rl", seed)].metrics
        early = np.mean([m.cum_negative_reward for m in first_quarter(metrics)])
        late = np.mean([m.cum_negative_reward
                        for m in final_quarter(metrics)])
        if late > early:  # rewards are negative: closer to zero is better
            improved += 1
        details.append(f"seed {seed}: {early:.0f} -> {late:.0f}")
    assert improved >= 2, details
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 6 PASS — reward improved on {improved}/3 seeds "
          f"({'; '.join(details)}), training wall time {elapsed:.0f} s")


# ------------------------------------------ 7: control-strategy ordering

@pytest.mark.slow
def test_acceptance_7_learned_control_beats_fixed_time(desk_runs):
    runs, _ = desk_runs

    def mean_final_sim_time(mode):
        return np.mean([
            np.mean([m.sim_time_s
                     for m in final_quarter(runs[(mode, seed)].metrics)])
            for seed in (7, 8, 9)])

    fixed = mean_final_sim_time("fixed")
    rl = mean_final_sim_time("rl")
    rr = mean_final_sim_time("rl_reroute")
    rl_margin = (fixed - rl) / fixed
    rr_margin = (fixed - rr) / fixed
    assert rl_margin >= 0.08
    assert rr_margin >= 0.15

    report = summarize(runs[("fixed", 7)].metrics,
                       runs[("rl", 7)].metrics,
                       runs[("rl_reroute", 7)].metrics)
    assert "informational, not asserted" in report
    print(f"\nACCEPTANCE 7 PASS — sim time {fixed:.0f} s fixed vs {rl:.0f} s "
          f"rl ({rl_margin:.1%} faster, needs >=8%) vs {rr:.0f} s rl_reroute "
          f"({rr_margin:.1%} faster, needs >=15%); full-scale reference "
          "targets recorded informationally in the summary report")


# --------------------------------------------------- 8: justified switches

JAM_ROUTE = ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")


def build_west_jam() -> Simulation:
    """Standing queue on the west arm while the signal never serves it."""
    sim = Simulation(NET)  # phase 0: north/south through green
    i = 0
    for lane in (1, 2):
        for k in range(40):
            place_vehicle(sim, f"blk{i}", JAM_ROUTE[1:], lane=lane,
                          pos=97.5 - 2.5 * k)
            i += 1
    for k, pos in enumerate((1000.0, 997.5, 995.0)):
        place_vehicle(sim, f"c{k}", JAM_ROUTE, lane=1, pos=pos)
    return sim


def run_jam(threshold: float, until: int = 300):
    sim = build_west_jam()
    decisions = []
    while sim.clock < until:
        readings = sim.step()
        if readings is not None:
            decisions += apply_rerouting(sim, readings, threshold, 4)
    return decisions


def test_acceptance_8_congestion_switches_are_justified():
    decisions = run_jam(threshold=0.02)
    switches = [d for d in decisions if d.decision == "switch"]
    assert len(switches) == 3  # all three waiting candidates bail out
    for d in switches:
        assert d.u_twt > d.best_alternative  # strictly worthwhile
        assert "jct_w_in" not in d.new_route  # leaves the jammed junction edge
    stays = [d for d in decisions if d.decision == "stay"]
    assert stays  # earlier windows evaluated and correctly declined

    assert run_jam(threshold=0.2) == []  # threshold above observed density
    print(f"\nACCEPTANCE 8 PASS — {len(switches)} switches, every one with "
          f"U_twt above the chosen alternative and clear of the jammed "
          f"junction edge ({len(stays)} earlier stays); zero decisions when "
          "the threshold exceeds the observed density")


# ----------------------------------------------------- 9: ranked sweeps

@pytest.mark.slow
def test_acceptance_9_sweeps_emit_ranked_tables(tmp_path):
    cfg = desk_profile()
    observed = {}
    for axis, values, claimed in (("gamma", (0.3, 0.5, 0.7, 0.9), 0.5),
                                  ("depth", (3, 5, 8), 5)):
        out = tmp_path / axis
        comparison, summary = run_sweep(cfg, axis, (7,), out)
        assert [row[0] for row in comparison] == list(values)
        header, rows = read_csv((out / "summary.csv").read_text())
        assert [int(r["rank"]) for r in rows] == list(range(1, len(values) + 1))
        flagged = [r for r in rows if r["reference_claim"] == "claimed_best"]
        assert len(flagged) == 1
        assert float(flagged[0]["sweep_value"]) == claimed
        observed[axis] = (claimed, int(flagged[0]["rank"]), len(values))
    lines = [f"{axis} = {value} observed rank {rank}/{total} "
             "(reported, not asserted)"
             for axis, (value, rank, total) in observed.items()]
    print("\nACCEPTANCE 9 PASS — complete ranked tables for both sweeps; "
          + "; ".join(lines))
