"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED KIND OUT_DIR SPAWNED_AT

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
BLAS pinned to one thread, and passes the monotonic time at which it
started the process.  KIND "run" calls `harness.run_phase` once, times
it, checks the outputs, and writes OUT_DIR/result.json; "trace" does the
same with every layer wrapped by the tracer; "setup" stops at the start
of the first episode and reports only the set-up time.

Episode boundaries come from a probe at each call of `spawn_schedule` by
the harness (the start of an episode's demand generation) and one at
`harness.write_run_artifacts` (the end of the last episode); see
EpisodeProbe.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from flowctl import harness, neuralnet, pgagent, rerouter, roadnet, simcore

import checks
from spans import REFERENCE, VALIDATE, Tracer
from workloads import WORKLOADS

BOUNDARY_NODES = ("n", "e", "s", "w")
GRADIENT_STATES = 6
# The host reference: REFERENCE_LOOPS iterations take REFERENCE_NOMINAL_S
# on a quiet core of the 2-CPU machine the README's figures come from.
# Wall times are scaled by REFERENCE_NOMINAL_S over the median reference
# time of the boundaries within REFERENCE_WINDOW of the episode: one 3 ms
# sample is too noisy, and a whole round's median misses drift inside it.
REFERENCE_LOOPS = 30_000
REFERENCE_NOMINAL_S = 0.002
REFERENCE_WINDOW = 10


class SetupDone(Exception):
    """Raised at the start of the first episode by a "setup" round."""


def build_config(workload):
    profile = {"desk": harness.desk_profile,
               "paper": harness.paper_scale_profile}[workload.profile]()
    return harness.parse_config_text(
        f"episodes = {workload.episodes}\n{workload.overrides}", profile)


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class EpisodeProbe:
    """Episode boundaries and the host's speed at each.

    A boundary is the start of an episode's demand generation, or the
    artifact write after the last episode.  At each one the probe times
    `reference()` and records when the previous episode ended, when the next
    one starts, and the reference time.  It also records the size and last
    departure of every schedule handed to the simulator."""

    def __init__(self, setup_only: bool, reference=host_reference):
        self.boundaries: list[tuple[float, float, float]] = []
        self.first_monotonic = None
        self.schedules: list[tuple[int, int]] = []
        spawn_schedule = harness.spawn_schedule
        write_artifacts = harness.write_run_artifacts

        def boundary():
            ended = time.perf_counter()
            ref = reference()
            self.boundaries.append((ended, time.perf_counter(), ref))

        def probed_schedule(*args):
            if self.first_monotonic is None:
                self.first_monotonic = time.monotonic()
                if setup_only:  # as many reference samples as a round's first window
                    for _ in range(REFERENCE_WINDOW + 1):
                        boundary()
                    raise SetupDone
            boundary()
            specs = spawn_schedule(*args)
            self.schedules.append(
                (len(specs), max((s.depart for s in specs), default=0)))
            return specs

        def probed_write(*args):
            boundary()
            return write_artifacts(*args)

        harness.spawn_schedule = probed_schedule
        harness.write_run_artifacts = probed_write

    def _speed(self, i: int) -> float:
        """REFERENCE_NOMINAL_S over the median reference time of the
        boundaries from i - REFERENCE_WINDOW to i + REFERENCE_WINDOW + 1."""
        refs = [r for _, _, r in self.boundaries[max(0, i - REFERENCE_WINDOW):
                                                 i + REFERENCE_WINDOW + 2]]
        return REFERENCE_NOMINAL_S / statistics.median(refs)

    def timings(self, t0: float, t1: float) -> dict:
        """Episode and run_phase times for a run_phase call from t0 to t1,
        raw and scaled to the reference speed.  Episode i runs from boundary
        i to boundary i + 1; the probe's own time is left out of both."""
        b = self.boundaries
        raw = [nxt[0] - cur[1] for cur, nxt in zip(b, b[1:])]
        scaled = [e * self._speed(i) for i, e in enumerate(raw)]
        before = (b[0][0] - t0) * self._speed(0)
        after = (t1 - b[-1][1]) * self._speed(len(raw) - 1)
        return {
            "episode_s": scaled,
            "run_phase_s": before + sum(scaled) + after,
            "raw_episode_s": raw,
            "raw_run_phase_s": t1 - t0 - sum(start - end for end, start, _ in b),
            "speed": statistics.median(self._speed(i) for i in range(len(raw))),
        }

    def setup_times(self, spawned_at: float) -> dict:
        raw = self.first_monotonic - spawned_at
        return {"setup_s": raw * self._speed(0), "raw_setup_s": raw}


def recorded_states(cfg, seed: int, net):
    """States the final policy meets early in episode 0, with its greedy
    actions: the inputs for the finite-difference gradient check."""
    graph = roadnet.build_default_network()
    schedule = simcore.spawn_schedule(graph, cfg.vehicles, harness.schedule_seed(seed, 0),
                                      cfg.spawn_horizon)
    sim = simcore.Simulation(graph, schedule, yellow_duration=cfg.train.yellow_duration)
    greedy = lambda s: int(np.argmax(neuralnet.forward(net, s)))  # noqa: E731
    transitions, _ = pgagent.drive_episode(
        sim, greedy, green_duration=cfg.train.green_duration,
        max_decisions=10 + 5 * GRADIENT_STATES)
    picked = transitions[10::5][:GRADIENT_STATES]
    return (np.stack([s for s, _, _ in picked]),
            np.array([a for _, a, _ in picked]))


def check_round(workload, cfg, seed, out: Path, result, schedules,
                report: dict) -> list[str]:
    failures, rows = checks.check_metrics_csv(
        (out / "metrics.csv").read_text(), cfg.train.episodes)
    sim_times = [int(r["sim_time_s"]) for r in rows]
    graph = roadnet.build_default_network()
    geometry = [(e.from_node, e.to_node, e.length, e.speed_limit)
                for e in graph.edges.values()]
    episode_failures, report["episodes_at_time_cap"] = checks.check_episodes(
        sim_times, [m.arrived for m in result.metrics],
        [n for n, _ in schedules], [last for _, last in schedules],
        cfg.vehicles, checks.min_trip_time(geometry, BOUNDARY_NODES),
        simcore.SIM_TIME_CAP)
    failures += episode_failures
    if workload.mode == "rl_reroute":
        failures += checks.check_reroutes(
            (out / "reroutes.csv").read_text(),
            {eid: (e.from_node, e.to_node) for eid, e in graph.edges.items()})
    if workload.mode != "fixed":
        net = result.network
        t = cfg.train
        sizes = (neuralnet.INPUT_SIZE,) + (t.hidden_width,) * t.hidden_count \
            + (neuralnet.OUTPUT_SIZE,)
        if workload.check_learning:  # judged over the run's seeds by run.py
            report["learning"] = checks.check_learning(sim_times)
        failures += checks.check_policy_file(
            (out / "policy.bin").read_bytes(), sizes, net.weights, net.biases)
        states, actions = recorded_states(cfg, seed, net)
        coeffs = np.random.default_rng(seed).normal(size=len(actions))

        def grad_fn(s, a, c):
            g = neuralnet.accumulate_logp_gradients(net, s, a, c)
            return g.weights, g.biases

        failures += checks.check_gradients(net.weights, net.biases, states,
                                           actions, coeffs, grad_fn, seed=seed)
    return failures


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("metrics.csv", "reroutes.csv", "policy.bin"):
        path = out / name
        if path.exists():
            h.update(name.encode() + path.read_bytes())
    return h.hexdigest()


def main(argv) -> int:
    name, seed, kind, out, spawned_at = (argv[0], int(argv[1]), argv[2],
                                         Path(argv[3]), float(argv[4]))
    workload = WORKLOADS[name]
    cfg = build_config(workload)
    tracer = Tracer() if kind == "trace" else None
    run_phase = harness.run_phase
    reference = host_reference
    if tracer:
        tracer.install(harness, pgagent, rerouter, simcore)
        run_phase = tracer.timed("harness.run_phase", run_phase)
        reference = tracer.timed(REFERENCE, host_reference)
    # Installed after the tracer, so the probe's own work stays outside
    # the simcore.spawn_schedule span.
    probe = EpisodeProbe(setup_only=kind == "setup", reference=reference)

    t0 = time.perf_counter()
    try:
        result = run_phase(cfg, workload.mode, seed, out)
    except SetupDone:
        (out / "result.json").write_text(json.dumps(probe.setup_times(spawned_at)))
        return 0
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        **probe.setup_times(spawned_at),
        **probe.timings(t0, t1),
        "sim_seconds": sum(m.sim_time_s for m in result.metrics),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        sizes = result.network.layer_sizes if result.network else (1, 1)
        report["layers"] = tracer.layer_metrics(sizes)
        report["validate_s"] = tracer.totals().get(VALIDATE, {}).get("s", 0.0)
        np.savez_compressed(out.parent / f"spans-{out.name}.npz", **tracer.arrays())

    failures = check_round(workload, cfg, seed, out, result, probe.schedules, report)
    if tracer:
        failures += checks.capped(tracer.invariant_failures)
        if workload.mode == "fixed":
            failures += checks.check_phase_cycle(tracer.phases)
    sim_times = [m.sim_time_s for m in result.metrics]
    quarter = max(1, len(sim_times) // 4)
    report.update(
        episodes=len(result.metrics),
        final_sim_time_s=sum(sim_times[-quarter:]) / quarter,
        failures=failures,
        digest=artifact_digest(out),
    )
    (out / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
