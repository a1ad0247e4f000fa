"""Show that each output check catches the fault it guards against.

    python3 perfbench/mutants.py WORKDIR

For every mutant below, copies src/ into WORKDIR/<mutant>/, breaks one
line of the program, runs one round of the named workload against the
broken copy with perfbench/worker.py, and requires the round's failures
to contain the expected message.  Takes a few minutes; run it outside the
repository's tree, since it writes broken copies of the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
from run import PINNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name: (file, original text, broken text, workload, traced, expected failure)
MUTANTS = {
    "schedule_drops_a_vehicle": (
        "harness.py", "    return spawn_schedule(net, cfg.vehicles,",
        "    return spawn_schedule(net, cfg.vehicles - 1,",
        "paper_fixed", False, "vehicles scheduled, configured"),
    "arrivals_undercounted": (
        "harness.py", "            arrived=sim.arrived_count,\n        ))\n        last_log",
        "            arrived=sim.arrived_count - 1,\n        ))\n        last_log",
        "paper_fixed", False, "vehicles arrived"),
    "sim_time_halved": (
        "harness.py", "            sim_time_s=sim.clock,\n            arrived=sim.arrived_count,\n"
                      "        ))\n        last_log",
        "            sim_time_s=sim.clock // 2,\n            arrived=sim.arrived_count,\n"
        "        ))\n        last_log",
        "paper_fixed", False, "< last departure"),
    "metrics_row_dropped": (
        "harness.py", "    for m in metrics:\n", "    for m in metrics[:-1]:\n",
        "paper_fixed", False, "rows, configured"),
    "negative_reward_sign": (
        "pgagent.py", "            cum_negative += reward", "            cum_negative -= reward",
        "paper_fixed", False, "cum_negative_reward"),
    "entry_gap_unclamped": (
        "simcore.py", "                    limit = room - MIN_GAP",
        "                    limit = room",
        "paper_fixed", True, "gap"),
    "fixed_cycle_reversed": (
        "pgagent.py", 'counter["next"] = (phase + 1) % 4', 'counter["next"] = (phase + 3) % 4',
        "paper_fixed", True, "cycle expects"),
    "unjustified_switch": (
        "rerouter.py", "if options and u_twt > options[0][0]:",
        "if options and u_twt + 60.0 > options[0][0]:",
        "desk_rl_reroute", False, "not above best alternative"),
    "stay_logs_other_route": (
        "rerouter.py", "        new_route=vehicle.remaining_route,",
        '        new_route=vehicle.remaining_route if decision == "switch"'
        " else vehicle.remaining_route[:1],",
        "desk_rl_reroute", False, "stay changed the route"),
    "switch_logs_short_route": (
        "harness.py", '"|".join(d.new_route)',
        '"|".join(d.new_route if d.decision == "stay" else d.new_route[:-1])',
        "desk_rl_reroute", False, "new route ends at"),
    "switch_logged_twice": (
        "harness.py", "    for d in decisions:\n",
        '    for d in [d for d in decisions for _ in range(1 + (d.decision == "switch"))]:\n',
        "desk_rl_reroute", False, "second switch in one episode"),
    "update_descends": (
        "neuralnet.py", "        return param + step, m2, v2", "        return param - step, m2, v2",
        "desk_rl_reroute", False, "no learning"),
    "policy_saved_as_float32": (
        "neuralnet.py", 'blob += np.ascontiguousarray(w, dtype="<f8").tobytes()',
        'blob += np.ascontiguousarray(w, dtype="<f4").tobytes()',
        "desk_rl_wide", False, "layer sizes"),
    "policy_payload_perturbed": (
        "neuralnet.py", 'blob += np.ascontiguousarray(b, dtype="<f8").tobytes()',
        'blob += np.ascontiguousarray(b + 1e-9, dtype="<f8").tobytes()',
        "desk_rl_wide", False, "differs from the final network"),
    "backprop_ignores_relu": (
        "neuralnet.py", "            delta = (delta @ net.weights[i]) * (acts[i] > 0)\n"
                        "    return GradientSet(weights=tuple(reversed(grads_w)), "
                        "biases=tuple(reversed(grads_b)))\n\n\ndef apply_update",
        "            delta = (delta @ net.weights[i])\n"
        "    return GradientSet(weights=tuple(reversed(grads_w)), "
        "biases=tuple(reversed(grads_b)))\n\n\ndef apply_update",
        "desk_rl_wide", False, "gradient relative error"),
    "schedule_not_reproducible": (
        "harness.py", "seq = np.random.SeedSequence([base_seed, SCHEDULE_STREAM, episode])",
        "seq = np.random.SeedSequence([base_seed, SCHEDULE_STREAM, episode, os.getpid()])",
        "paper_fixed", False, "artifacts differ between rounds with one seed"),
}


def worker_round(src: Path, out: Path, workload: str, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "5", "trace" if traced else "run",
         str(out), repr(time.monotonic())],
        env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return {"failures": [f"worker exited {proc.returncode}: {proc.stderr[-300:]}"]}
    return json.loads((out / "result.json").read_text())


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    missed = 0
    for name, (file, old, new, workload, traced, expected) in MUTANTS.items():
        src = work / name / "src"
        shutil.rmtree(src.parent, ignore_errors=True)
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "flowctl" / file
        text = target.read_text()
        if text.count(old) != 1:
            print(f"{name}: pattern occurs {text.count(old)} times in {file}")
            missed += 1
            continue
        target.write_text(text.replace(old, new))
        rounds = 2 if expected.startswith("artifacts differ") else 1
        reports = [worker_round(src, work / name / f"r{i}", workload, traced)
                   for i in range(rounds)]
        failures = [f for r in reports for f in r["failures"]]
        failures += checks.check_repeat([r.get("digest") for r in reports])
        failures += checks.check_most_seeds_learn([r.get("learning", []) for r in reports])
        hit = next((f for f in failures if expected in f), None)
        missed += hit is None
        print(f"{name:<28} {workload:<16} {'caught' if hit else 'MISSED'}: "
              f"{hit or failures[:2]}", flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
