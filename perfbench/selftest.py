"""Self-test of the benchmark's checks, tracer and metric report.

    python3 perfbench/selftest.py

Runs in a few seconds and starts no workload.  Every check must pass on
well-formed data and fail on data broken in the way it guards against.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from flowctl import neuralnet  # noqa: E402

PASSED = []


def expect(condition, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    PASSED.append(what)


def passes(failures, what):
    expect(failures == [], f"{what} passes (got {failures})")


def fails(failures, what):
    expect(failures != [], f"{what} fails")


# ----------------------------------------------------------- round checks

def test_metrics_and_episodes():
    good = checks.METRICS_HEADER + "\n0,10,0.5,-3.0,700\n1,9,0.4,0.0,650\n"
    f, rows = checks.check_metrics_csv(good, 2)
    passes(f, "metrics.csv check")
    expect([r["sim_time_s"] for r in rows] == ["700", "650"], "metrics.csv rows parse")
    fails(checks.check_metrics_csv(good, 3)[0], "metrics.csv row count")
    fails(checks.check_metrics_csv(good.replace("sim_time_s", "sim_time"), 2)[0],
          "metrics.csv header")
    fails(checks.check_metrics_csv(good.replace("-3.0", "2.5"), 2)[0],
          "cum_negative_reward sign")

    geometry = [("a", "x", 100.0, 10.0), ("x", "b", 100.0, 10.0),
                ("a", "b", 500.0, 10.0), ("b", "a", 500.0, 10.0)]
    expect(checks.min_trip_time(geometry, ("a", "b")) == 20.0, "quickest trip")
    def episodes(*args):
        failures, at_cap = checks.check_episodes(*args, 5, 20.0, 9000)
        expect(at_cap == [], "no episode at the time cap")
        return failures

    passes(episodes([700, 650], [5, 5], [5, 5], [299, 299]), "episode check")
    fails(episodes([700, 650], [5, 4], [5, 5], [299, 299]), "arrivals")
    fails(episodes([700, 650], [5, 5], [5, 6], [299, 299]), "scheduled count")
    fails(episodes([700, 310], [5, 5], [5, 5], [299, 299]), "sim time lower bound")
    f, at_cap = checks.check_episodes([700, 9000], [5, 3], [5, 5], [299, 299], 5, 20.0, 9000)
    expect(f == [] and at_cap == [1], "an episode cut at the time cap is reported, not failed")
    passes(checks.check_repeat(["a", "a"]), "repeat check")
    fails(checks.check_repeat(["a", "b"]), "repeat check")


def test_learning_and_policy():
    passes(checks.check_learning([900, 800, 700, 600, 500, 400, 450, 420]),
           "learning check")
    fails(checks.check_learning([500, 520, 600, 700, 650, 700, 800, 900]),
          "learning check")
    net = neuralnet.init_network(5, 2, seed=3)
    path = HERE / "out" / "selftest-policy.bin"
    path.parent.mkdir(exist_ok=True)
    neuralnet.save_network(net, path)
    blob = path.read_bytes()
    path.unlink()
    sizes = (80, 5, 5, 4)
    passes(checks.check_policy_file(blob, sizes, net.weights, net.biases), "policy.bin check")
    fails(checks.check_policy_file(blob + b"\0" * 8, sizes, net.weights, net.biases),
          "policy.bin size")
    fails(checks.check_policy_file(blob, (80, 6, 5, 4), net.weights, net.biases),
          "policy.bin layer sizes")
    missed = ["no learning: ..."]
    passes(checks.check_most_seeds_learn([[], missed, []]), "one seed in three may miss")
    fails(checks.check_most_seeds_learn([missed, [], missed]), "most seeds must learn")
    fails(checks.check_most_seeds_learn([missed]), "a single seed must learn")
    other = neuralnet.init_network(5, 2, seed=4)
    fails(checks.check_policy_file(blob, sizes, other.weights, other.biases),
          "policy.bin payload")


def test_gradients():
    net = neuralnet.init_network(16, 3, seed=5)
    rng = np.random.default_rng(0)
    states = (rng.random((6, 80)) < 0.2).astype(float)
    actions = rng.integers(0, 4, size=6)
    coeffs = rng.normal(size=6)

    def grad_fn(s, a, c):
        g = neuralnet.accumulate_logp_gradients(net, s, a, c)
        return g.weights, g.biases

    def off_by_one_percent(s, a, c):
        w, b = grad_fn(s, a, c)
        return [x * 1.01 for x in w], b

    passes(checks.check_gradients(net.weights, net.biases, states, actions,
                                  coeffs, grad_fn), "gradient check")
    fails(checks.check_gradients(net.weights, net.biases, states, actions,
                                 coeffs, off_by_one_percent), "gradient check")


def test_reroutes():
    edges = {"a1": ("a", "m"), "m1": ("m", "z"), "b1": ("m", "q"), "b2": ("q", "z"),
             "c1": ("q", "r")}
    head = checks.REROUTE_HEADER + "\n"
    stay = "60,v1,a1|m1,a1|m1,30.0,25.0,stay\n"
    switch = "60,v2,a1|m1,a1|b1|b2,40.0,30.0,switch\n"
    passes(checks.check_reroutes(head + stay + switch, edges), "reroute check")
    # the same vehicle may switch again once time restarts (a new episode)
    passes(checks.check_reroutes(head + switch + switch.replace("60,", "30,", 1), edges),
           "reroute episode restart")
    fails(checks.check_reroutes(head + switch + switch.replace("60,", "90,", 1), edges),
          "second switch in one episode")
    fails(checks.check_reroutes(head + switch.replace("40.0,30.0", "30.0,30.0"), edges),
          "switch not strictly justified")
    fails(checks.check_reroutes(head + stay.replace("a1|m1,a1|m1", "a1|m1,a1|b1|b2"), edges),
          "stay that changes the route")
    fails(checks.check_reroutes(head + switch.replace("a1|b1|b2", "a1|b2"), edges),
          "disconnected new route")
    fails(checks.check_reroutes(head + switch.replace("a1|b1|b2", "a1|b1|c1"), edges),
          "new route with another destination")
    fails(checks.check_reroutes(head.replace("decision", "choice") + stay, edges),
          "reroutes.csv header")


def test_phase_cycle():
    passes(checks.check_phase_cycle([[0, 1, 2, 3, 0], [0, 1]]), "phase cycle check")
    fails(checks.check_phase_cycle([[0, 1, 3, 2]]), "phase cycle check")


# ------------------------------------------------------- tracer and report

def test_tracer():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.timed("inner", busy)
    outer = tracer.timed("outer", lambda: (busy(0.002), inner(0.003), inner(0.003)))
    outer()
    totals = tracer.totals()
    expect(totals["inner"]["calls"] == 2 and totals["outer"]["calls"] == 1, "span calls")
    expect(abs(totals["outer"]["s"] - totals["outer"]["self_s"] - totals["inner"]["s"]) < 1e-12,
           "self time is total minus children")
    expect(totals["inner"]["s"] >= 0.006 and totals["outer"]["self_s"] >= 0.002,
           "span durations")
    metrics = tracer.layer_metrics((80, 600, 600, 600, 4))
    layer_names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json")
                                                 .read_text())["per_layer"]]
    expect(set(metrics) | {"trace.overhead_s"} == set(layer_names),
           "tracer yields every per-layer metric of BENCHMARK.json")


def test_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload")
    workload = WORKLOADS["desk_rl_wide"]
    rounds = [{"episodes": 40, "run_phase_s": 10.0 + i, "sim_seconds": 24000,
               "episode_s": list(np.linspace(0.2, 0.4, 40)), "setup_s": 0.2,
               "peak_rss_mb": 90.0, "final_sim_time_s": 490.0} for i in range(3)]
    values = run.end_to_end(rounds, [0.2, 0.3], workload)
    record = {"failures": [], "attempted": 120, "failed": 0, "metrics": values}
    line = run.result_line(record, spec["end_to_end"])
    expect(list(line) == ["correct", "attempted", "failed", "metrics"], "result keys")
    expect(set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]},
           "result names every end-to-end metric")
    expect(all(v["value"] > 0 for v in line["metrics"].values()), "metrics are never 0")
    expect(line["metrics"]["episodes_per_s"]["value"] == 40 / 11.0, "median over rounds")
    for w in WORKLOADS.values():
        n = w.episodes
        beyond = n - run.nearest_rank(list(range(1, n + 1)), w.tail_pct)
        expect(beyond >= 10, f"tail p{w.tail_pct} of {n} leaves {beyond} >= 10 beyond")
        beyond = n - run.nearest_rank(list(range(1, n + 1)), w.tail_pct + 1)
        expect(beyond < 10, f"p{w.tail_pct + 1} of {n} would leave {beyond} < 10 beyond")
    json.dumps(line)


if __name__ == "__main__":
    for test in (test_metrics_and_episodes, test_learning_and_policy, test_gradients,
                 test_reroutes, test_phase_cycle, test_tracer, test_report):
        test()
    print(f"selftest: {len(PASSED)} checks passed")
