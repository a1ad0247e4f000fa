"""Episode-throughput benchmark for flowctl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload runs in a fresh
Python process (perfbench/worker.py) with BLAS and OpenMP pinned to one
thread, calls `harness.run_phase` once, and checks its outputs.

--trace 0 first starts SETUP_PROBES processes that stop at the first
episode, for the set-up time, then runs rounds until S seconds have passed
and at least the workload's minimum, and prints the end-to-end metrics of
BENCHMARK.json.  Round i runs the program with seed N + 1000 * (i mod the
minimum), so a run averages over that many demand and agent seeds; rounds
past the minimum repeat a seed and must repeat its artifacts byte for byte.
--trace 1 runs one untraced and one traced round with seed N and prints
the per-layer metrics, with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give the
environment fingerprint and a machine-speed reference timed at the start
and the end of the run.  The full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads BLAS in this process

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 150  # start no round after this
DEADLINE_S = 170   # stop any round still running; the driver allows 180
STARTED = time.monotonic()


# --------------------------------------------------------------- context

def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas_build = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "threads": {k: os.environ.get(k) for k in PINNED},
        "platform": platform.platform(),
    }


def machine_reference() -> dict:
    """A fixed pure-Python loop and a fixed numpy loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    t1 = time.perf_counter()
    a = np.random.default_rng(0).random((200, 200))
    for _ in range(200):
        a = np.tanh(a @ a.T / 200.0)
    t2 = time.perf_counter()
    return {"python_s": t1 - t0, "numpy_s": t2 - t1}


# ---------------------------------------------------------------- rounds

def run_round(name: str, seed: int, kind: str, tag: str) -> dict:
    """One worker process of the given kind (setup, run or trace); returns
    its report, or one with `error`."""
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), kind, str(out)]
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - STARTED))
        report = json.loads((out / "result.json").read_text()) \
            if proc.returncode == 0 else {"error": proc.stderr[-2000:]}
    except subprocess.TimeoutExpired:
        report = {"error": f"round still running {DEADLINE_S} s into the run"}
    shutil.rmtree(out, ignore_errors=True)
    return dict(report, seed=seed)


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(rounds: list[dict], setups: list[float], workload) -> dict:
    """Each metric per round, then the median over rounds: a round is one
    seed, and learning makes some seeds far slower than the rest."""
    def median(per_round):
        return statistics.median(per_round(r) for r in rounds)

    return {
        "episodes_per_s": median(lambda r: r["episodes"] / r["run_phase_s"]),
        "sim_s_per_s": median(lambda r: r["sim_seconds"] / r["run_phase_s"]),
        "episode_s.p50": median(lambda r: statistics.median(r["episode_s"])),
        "episode_s.tail": median(lambda r: nearest_rank(r["episode_s"], workload.tail_pct)),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "final_sim_time_s": statistics.median(
            r["final_sim_time_s"] for r in rounds[:workload.min_rounds]),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (traced["run_phase_s"]
                                  - traced["validate_s"] * traced["speed"]
                                  - untraced["run_phase_s"])
    return layers


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    setups = []
    if trace:
        rounds = [run_round(name, seed, "run", f"{name}-s{seed}-untraced"),
                  run_round(name, seed, "trace", f"{name}-s{seed}-traced")]
    else:
        probes = [run_round(name, seed, "setup", f"{name}-s{seed}-setup{i}")
                  for i in range(SETUP_PROBES)]
        setups = [p["setup_s"] for p in probes if "error" not in p]
        rounds = []
        while (len(rounds) < workload.min_rounds
               or time.monotonic() - STARTED < seconds) \
                and time.monotonic() - STARTED < RUN_LIMIT_S:
            round_seed = seed + 1000 * (len(rounds) % workload.min_rounds)
            rounds.append(run_round(name, round_seed, "run",
                                    f"{name}-s{seed}-r{len(rounds)}"))
    done = [r for r in rounds if "error" not in r]
    failures = [f for r in done for f in r["failures"]]
    by_seed: dict[int, list[str]] = {}
    for r in done:
        by_seed.setdefault(r["seed"], []).append(r["digest"])
    for digests in by_seed.values():
        failures += checks.check_repeat(digests)
    if workload.check_learning and not trace:
        failures += checks.check_most_seeds_learn(
            [r["learning"] for r in done[:workload.min_rounds]])
    record = {
        "attempted": workload.episodes * len(rounds),
        "failed": workload.episodes * (len(rounds) - len(done)),
        "rounds": len(rounds),
        "episodes_per_round": workload.episodes,
        "tail_percentile": workload.tail_pct,
        "failures": failures,
        "errors": [r["error"] for r in rounds if "error" in r],
        "episodes_at_time_cap": {r["seed"]: r["episodes_at_time_cap"]
                                 for r in done if r["episodes_at_time_cap"]},
        "setup_probes_s": setups,
        "per_round": done,
    }
    if trace and len(done) == 2:
        record["metrics"] = per_layer(*done)
    elif done and not trace:
        record["metrics"] = end_to_end(done, setups, workload)
    return record


# ---------------------------------------------------------------- report

def result_line(record: dict, spec_metrics: list[dict]) -> dict:
    """The final JSON object: every metric of the chosen BENCHMARK.json
    list, by name, with its unit."""
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowctl" / "harness.py").is_file():
        print(f"no flowctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    compileall.compile_dir(ROOT / "src", quiet=1)  # the build: bytecode once

    env = fingerprint()
    machine_start = machine_reference()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    machine_end = machine_reference()
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, machine_reference={"start": machine_start,
                                                      "end": machine_end})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"environment {json.dumps(env)}")
    print(f"machine reference start {json.dumps(machine_start)} "
          f"end {json.dumps(machine_end)}")
    for failure in record["failures"] + record["errors"]:
        print(f"FAIL {failure}")
    for round_seed, episodes in record["episodes_at_time_cap"].items():
        print(f"seed {round_seed}: episodes {episodes} stopped at the simulator's "
              f"time cap with vehicles still out")
    if "metrics" not in record:
        print("no round completed; no metrics", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {record['rounds']} rounds x "
          f"{record['episodes_per_round']} episodes; tail = "
          f"p{record['tail_percentile']} of a round's episodes")
    for m in spec_metrics:
        print(f"  {m['name']:<44} {record['metrics'][m['name']]:>14.6g} {m['unit']}")
    print(json.dumps(result_line(record, spec_metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
