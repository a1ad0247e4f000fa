"""Span tracing from outside the program.

The tracer replaces public functions where their callers look them up
(module globals such as `pgagent.forward`, and `Simulation` methods) with
wrappers that record one span each: name, start, end and the enclosing
span.  Spans stay in memory until the run ends.  Counters that the
per-layer metrics need (vehicle-steps, distinct route queries, skipped
updates, reroute outcomes) are taken at the same boundaries.  Nothing is
changed inside the program, and `uninstall` puts every original back.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# The benchmark's own work inside a traced round; not layers of the program.
VALIDATE = "bench.validate"
REFERENCE = "bench.reference"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.phases: list[list[int]] = []   # commanded phases per Simulation
        self.invariant_failures: list[str] = []
        self._route_queries: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def timed(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(*args, **kwargs) and
        after(result, *args, **kwargs) run outside it."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, before, after))

    def install(self, harness, pgagent, rerouter, simcore) -> None:
        sim_cls = simcore.Simulation
        validate = self.timed(VALIDATE, sim_cls.validate)
        period = simcore.DETECTOR_PERIOD

        def count_vehicles(sim):
            self.counts["vehicle_steps"] += sim.active_count

        def check_window(_out, sim):
            if sim.clock % period == 0:
                try:
                    validate(sim)
                except simcore.InvariantViolation as exc:
                    self.invariant_failures.append(f"t={sim.clock}: {exc}")

        def route_query(_net, origin, destination, _weights, k):
            self._route_queries.add((self.counts["windows"], origin, destination, k))

        def new_window(*_args, **_kw):
            self.counts["windows"] += 1

        def reroute_outcome(decisions, *_args, **_kw):
            self.counts["evaluations"] += len(decisions)
            self.counts["switches"] += sum(d.decision == "switch" for d in decisions)

        def skipped(agent_out, agent_in, *_args, **_kw):
            self.counts["skipped"] += agent_out.net is agent_in.net

        def batch_rows(_grads, _net, states, *_args, **_kw):
            self.counts["batch_rows"] += len(states)

        def artifact_bytes(written, *_args, **_kw):
            self.counts["artifact_bytes"] += sum(os.path.getsize(p) for p in written.values())

        def record_phase(sim, phase):
            self.phases[-1].append(phase)
            set_phase(sim, phase)

        set_phase = sim_cls.set_phase
        self._restore.append((sim_cls, "set_phase", set_phase))
        sim_cls.set_phase = record_phase
        self._patch(sim_cls, "__init__", "simcore.init",
                    before=lambda *_a, **_kw: self.phases.append([]))
        self._patch(sim_cls, "step", "simcore.step",
                    before=count_vehicles, after=check_window)
        self._patch(sim_cls, "read_sensors", "simcore.read_sensors")
        self._patch(harness, "spawn_schedule", "simcore.spawn_schedule")
        self._patch(simcore, "shortest_route", "roadnet.shortest_route")
        self._patch(harness, "shortest_route", "roadnet.shortest_route")
        self._patch(harness, "drive_episode", "pgagent.drive_episode")
        self._patch(pgagent, "drive_episode", "pgagent.drive_episode")
        self._patch(pgagent, "select_action", "pgagent.select_action")
        self._patch(pgagent, "forward", "neuralnet.forward")
        self._patch(pgagent, "policy_update", "pgagent.policy_update", after=skipped)
        self._patch(pgagent, "accumulate_logp_gradients",
                    "neuralnet.accumulate_logp_gradients", after=batch_rows)
        self._patch(pgagent, "apply_update", "neuralnet.apply_update")
        self._patch(rerouter, "apply_rerouting", "rerouter.apply_rerouting",
                    before=new_window, after=reroute_outcome)
        self._patch(rerouter, "enumerate_routes", "roadnet.enumerate_routes",
                    before=route_query)
        self._patch(harness, "write_run_artifacts", "harness.write_run_artifacts",
                    after=artifact_bytes)
        self._patch(harness, "save_network", "neuralnet.save_network")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, and calls."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        out = {}
        for nid, name in enumerate(self.names):
            mine = a["name_id"] == nid
            out[name] = {"s": float(dur[mine].sum()),
                         "self_s": float((dur - child)[mine].sum()),
                         "calls": int(mine.sum())}
        return out

    def layer_metrics(self, layer_sizes) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, except
        trace.overhead_s, which needs the untraced round."""
        t = Counter()
        for name, v in self.totals().items():
            for key, value in v.items():
                t[f"{name}.{key}"] = value
        c = self.counts
        matmul = sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
        first = layer_sizes[0] * layer_sizes[1]
        # A single-row forward is 2*in*out per layer.  A batch of n rows
        # costs a forward, a weight gradient per layer, and a delta pass
        # through every layer but the first: 2n(3*sum - first).
        gflop = (2 * matmul * t["neuralnet.forward.calls"]
                 + 2 * c["batch_rows"] * (3 * matmul - first)) / 1e9
        route_calls = t["roadnet.enumerate_routes.calls"]
        return {
            "simcore.step.s": t["simcore.step.s"],
            "simcore.step.calls": t["simcore.step.calls"],
            "simcore.vehicle_steps": c["vehicle_steps"],
            "simcore.vehicle_steps_per_s":
                c["vehicle_steps"] / t["simcore.step.s"] if t["simcore.step.s"] else 0.0,
            "simcore.spawn_schedule.s": t["simcore.spawn_schedule.s"],
            "simcore.spawn_schedule.calls": t["simcore.spawn_schedule.calls"],
            "simcore.read_sensors.s": t["simcore.read_sensors.s"],
            "simcore.read_sensors.calls": t["simcore.read_sensors.calls"],
            "simcore.init.s": t["simcore.init.s"],
            "neuralnet.forward.s": t["neuralnet.forward.s"],
            "neuralnet.forward.calls": t["neuralnet.forward.calls"],
            "neuralnet.accumulate_logp_gradients.s": t["neuralnet.accumulate_logp_gradients.s"],
            "neuralnet.accumulate_logp_gradients.calls":
                t["neuralnet.accumulate_logp_gradients.calls"],
            "neuralnet.apply_update.s": t["neuralnet.apply_update.s"],
            "neuralnet.apply_update.calls": t["neuralnet.apply_update.calls"],
            "neuralnet.gflop": gflop,
            "neuralnet.save_network.s": t["neuralnet.save_network.s"],
            "pgagent.drive_episode.self_s": t["pgagent.drive_episode.self_s"],
            "pgagent.select_action.self_s": t["pgagent.select_action.self_s"],
            "pgagent.decisions": sum(len(p) for p in self.phases),
            "pgagent.policy_update.self_s": t["pgagent.policy_update.self_s"],
            "pgagent.policy_update.calls": t["pgagent.policy_update.calls"],
            "pgagent.policy_update.skipped": c["skipped"],
            "rerouter.apply_rerouting.self_s": t["rerouter.apply_rerouting.self_s"],
            "rerouter.apply_rerouting.calls": t["rerouter.apply_rerouting.calls"],
            "rerouter.evaluations": c["evaluations"],
            "rerouter.switches": c["switches"],
            "rerouter.switch_ratio":
                c["switches"] / c["evaluations"] if c["evaluations"] else 0.0,
            "roadnet.enumerate_routes.s": t["roadnet.enumerate_routes.s"],
            "roadnet.enumerate_routes.calls": route_calls,
            "roadnet.enumerate_routes.distinct": len(self._route_queries),
            "roadnet.enumerate_routes.reuse_ratio":
                len(self._route_queries) / route_calls if route_calls else 0.0,
            "roadnet.shortest_route.s": t["roadnet.shortest_route.s"],
            "roadnet.shortest_route.calls": t["roadnet.shortest_route.calls"],
            "harness.write_run_artifacts.s": t["harness.write_run_artifacts.s"],
            "harness.artifact_bytes": c["artifact_bytes"],
            "harness.run_phase.self_s": t["harness.run_phase.self_s"],
        }
