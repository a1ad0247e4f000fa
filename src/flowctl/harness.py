"""Experiment orchestration: run profiles, config files, CSV artifacts.

Three run modes share one episode loop, `run_experiment`:

* ``fixed``      — pre-timed signal plan cycling the four phases, which
                   `drive_episode` runs with no chooser and no sensor read;
* ``rl``         — policy-gradient training of the signal controller, with
                   `pgagent.Learner` choosing phases and updating after
                   every episode;
* ``rl_reroute`` — training plus congestion-triggered rerouting at every
                   detector window.

Each detector window is handled by one function inside `run_experiment`:
`drive_episode` hands it the readings that `Simulation.step` returned at
the window's end, it appends one row per arm to the detector log, and in
rl_reroute it passes the same readings to `rerouter.apply_rerouting` and
extends the run's one `RerouteLog` with the window's evaluations.
The detector log keeps the last episode only, so only that episode's
simulation samples per-vehicle count and mean speed.  The others publish
density alone, which is all the rerouter reads; in fixed and rl their
windows call nothing.

Every run consumes per-episode demand schedules derived deterministically
from one base seed.  Its artifacts are byte-identical for a fixed seed and
a fixed BLAS thread count: at hidden widths of 400 and more the batched
products round differently under more than one thread.  `flowctl` and
`run_many` compute with one BLAS thread unless the caller sets a count;
`run_experiment` and `run_phase`, called directly, use the calling
process's numpy as it was loaded.  Sweeps fan the rl mode out over
declared value sets for the discount factor, network width, or network
depth, in parallel processes, and rank the values by the final-quarter
reward.

Each file job has one path: `_read` for the config, network and schedule
files (a failed read is a ConfigError), `_key_value_lines` and
`_key_value_text` for the `key = value` format, whose values `_fmt`
renders (`str()`, but booleans as true/false), `csv_lines` for every
other table, each cell by `str()`, and `_atomic_write` (temp file, then
rename) for every artifact, `policy.bin` included.  The reroute log, one
row per rerouting evaluation and by far the largest table, is held as
columns until the write and rendered by `reroutes_csv`: the lines
`csv_lines` would give, from one f-string per row (an empty format spec is
`str()`), with each distinct old route joined once.  `write_lines` streams
each table's lines into the temp file as they are rendered, so no table,
the reroute log of a long run included, is held as one string.

`run_many` runs every job, a lone one included, in a spawned worker.  It
imports the process pool only when it has a job to run, so a single
`run_phase` never loads it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, checked_int, rerouter
from .neuralnet import PolicyNetwork, save_network
from .pgagent import Learner, TrainConfig, drive_episode
from .rerouter import RerouteDecision, RerouteLog
from .roadnet import (
    RoadNetwork,
    build_default_network,
    build_network,
    free_flow_weights,
    shortest_route,
)
from .simcore import (
    ARM_ORDER,
    SIM_TIME_CAP,
    VEHICLE_MAX_SPEED,
    DetectorReading,
    Simulation,
    SpawnSpec,
    infer_layout,
    spawn_schedule,
)

SCHEDULE_STREAM = 2  # seed-sequence lane for per-episode demand schedules

MODES = ("fixed", "rl", "rl_reroute")

SWEEP_AXES: dict[str, tuple] = {
    "gamma": (0.3, 0.5, 0.7, 0.9),
    "width": (200, 400, 600),
    "depth": (3, 5, 8),
}
# The TrainConfig field that each sweep axis sets.
_SWEEP_FIELDS = {"gamma": "gamma", "width": "hidden_width", "depth": "hidden_count"}
# Externally claimed best value per axis; reported in sweep summaries as a
# flag on the row, never asserted.
REFERENCE_CLAIMS = {"gamma": 0.5, "depth": 5}

METRICS_HEADER = "episode,cum_delay_s,avg_queue_len,cum_negative_reward,sim_time_s"
REROUTE_HEADER = "time,vehicle,old_route,new_route,u_twt,best_alt_time,decision"
DETECTOR_HEADER = "window_start,arm,count,mean_speed,density"
COMPARISON_HEADER = ("sweep_value,seed,final_avg_cum_delay,final_avg_queue,"
                     "final_avg_neg_reward")
SWEEP_SUMMARY_HEADER = "sweep_value,mean_final_neg_reward,rank,reference_claim"
SCHEDULE_HEADER = "depart,vtype,origin,destination"


class ConfigError(ValueError):
    """A configuration file or run plan is invalid."""


# ----------------------------------------------------------------- profiles

@dataclass(frozen=True)
class RunConfig:
    """Full experiment profile: training knobs plus demand and rerouting."""

    train: TrainConfig
    vehicles: int = 1000
    spawn_horizon: int = 300
    fixed_green: int = 30
    density_threshold: float = 0.05
    max_alternatives: int = 4
    network: str | None = None   # network description file
    schedule: str | None = None  # demand schedule file

    def __post_init__(self):
        for name, low in (("vehicles", 0), ("spawn_horizon", 1), ("fixed_green", 1),
                          ("max_alternatives", 1)):
            try:
                object.__setattr__(self, name, checked_int(getattr(self, name), name, low))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if not 0 <= self.density_threshold < math.inf:
            raise ConfigError("density_threshold must be finite and >= 0")


def desk_profile() -> RunConfig:
    """Minutes-scale default: converges and separates the three modes while
    a full comparison still runs on a laptop."""
    return RunConfig(train=TrainConfig(episodes=50, buffer_capacity=400,
                                       max_agent_steps=300, learning_rate=5e-4))


def paper_scale_profile() -> RunConfig:
    """Full-size experiment tables: about 0.08 s per fixed-time episode and
    0.15 s per learning episode (medians of 5 runs of 4 episodes per mode
    at seed 7, one BLAS thread, a 2-CPU Xeon host; single runs read up to
    1.5x slower as the host's speed drifts), so 30-45 s for a 200-episode
    learning run."""
    return RunConfig(train=TrainConfig(), vehicles=4000, spawn_horizon=3600)


# -------------------------------------------------------------- file access

def _read(path: str | Path, what: str) -> str:
    """The text of an input file; a failed read is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None


def _atomic_write(path: Path, write) -> Path:
    """Write-then-rename: `write(tmp)` fills a fresh temp file beside path,
    which then replaces path, so a failed write leaves neither a partial
    file nor the temp file behind.  The temp file is created owner-only, so
    it is given the mode a plain `open` would: 0666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        # Reading the umask means setting it; 0o077 meanwhile can only
        # give a file another thread creates fewer permissions, never more.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def write_lines(path: Path, lines) -> Path:
    """Write text lines, one at a time, through `_atomic_write`, creating
    the directory."""
    def write(tmp):
        with open(tmp, "w") as handle:
            handle.writelines(lines)
    return _atomic_write(path, write)


def _fmt(value) -> str:
    """A `key = value` file's value: booleans as true/false, which the
    config parser reads back, and everything else by `str()`."""
    return str(value).lower() if value is True or value is False else str(value)


def csv_lines(header: str, rows):
    """A header line, then one line per row of cells, rendered as the lines
    are consumed.  Every cell is a str, int or float, and `str()` writes
    it: a float's `str` is its repr, so it reads back to the same value."""
    yield header + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _key_value_lines(text: str):
    """(line number, key, value) for every `key = value` line of text;
    `#` starts a comment and blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _key_value_text(items) -> str:
    """Render (key, value) pairs as `key = value` lines."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in items)


def read_key_values(text: str) -> dict[str, str]:
    """Read a summary/config `key = value` file into a dict of strings."""
    return {key: value for _, key, value in _key_value_lines(text)}


# -------------------------------------------------------------- config file

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _coerce(key: str, value: str, type_name: str):
    try:
        if type_name == "int":
            return int(value)
        if type_name == "float":
            return float(value)
        if type_name == "bool":
            word = value.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(value)
            return _BOOL_WORDS[word]
        return value  # string-like (paths)
    except ValueError:
        raise ConfigError(
            f"config key {key!r} expects {type_name}, got {value!r}") from None


def parse_config_text(text: str, base: RunConfig) -> RunConfig:
    """Apply `key = value` lines (with # comments) on top of a profile; the
    keys are the field names of RunConfig and TrainConfig."""
    train_types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    run_types = {f.name: f.type for f in dataclasses.fields(RunConfig)
                 if f.name != "train"}
    train_updates: dict = {}
    run_updates: dict = {}
    for lineno, key, value in _key_value_lines(text):
        if key in train_types:
            train_updates[key] = _coerce(key, value, train_types[key])
        elif key in run_types:
            run_updates[key] = _coerce(key, value, run_types[key])
        else:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
    try:
        train = dataclasses.replace(base.train, **train_updates)
        return dataclasses.replace(base, train=train, **run_updates)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config_file(path: str | Path, base: RunConfig) -> RunConfig:
    return parse_config_text(_read(path, "config"), base)


def config_text(cfg: RunConfig) -> str:
    """Render a RunConfig as a config file that parses back to itself."""
    fields = dataclasses.asdict(cfg)
    fields.update(fields.pop("train"))
    return _key_value_text((key, value) for key, value in fields.items()
                           if value is not None)


# ----------------------------------------------------- demand and networks

def schedule_seed(base_seed: int, episode: int) -> int:
    """Independent demand stream per (base seed, episode)."""
    seq = np.random.SeedSequence([base_seed, SCHEDULE_STREAM, episode])
    return int(seq.generate_state(1)[0])


def load_schedule_file(net: RoadNetwork, text: str) -> tuple[SpawnSpec, ...]:
    """Parse a demand override: CSV `depart,vtype,origin,destination`.

    Routes are the free-flow shortest paths, searched once per (origin,
    destination) pair; vehicle ids are v0, v1, ... in row order; the result
    is sorted by departure time.  Errors name the line of the file,
    counting blank lines.
    """
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines or lines[0][1].strip() != SCHEDULE_HEADER:
        raise ConfigError(
            f"schedule file must start with header {SCHEDULE_HEADER!r}")
    weights = free_flow_weights(net)
    routes: dict[tuple[str, str], tuple[str, ...]] = {}
    specs = []
    for row, (lineno, line) in enumerate(lines[1:]):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"schedule line {lineno}: expected 4 fields")
        depart_s, vtype, origin, destination = parts
        try:
            depart = int(depart_s)
        except ValueError:
            raise ConfigError(
                f"schedule line {lineno}: bad depart {depart_s!r}") from None
        if depart < 0:
            raise ConfigError(f"schedule line {lineno}: depart must be >= 0")
        if vtype not in VEHICLE_MAX_SPEED:
            raise ConfigError(f"schedule line {lineno}: unknown vtype {vtype!r}")
        route = routes.get((origin, destination))
        if route is None:
            try:
                _, route = shortest_route(net, origin, destination, weights)
            except ValueError as exc:
                raise ConfigError(f"schedule line {lineno}: {exc}") from None
            routes[origin, destination] = route
        specs.append(SpawnSpec(depart=depart, vehicle_id=f"v{row}",
                               vtype=vtype, max_speed=VEHICLE_MAX_SPEED[vtype],
                               route=route))
    specs.sort(key=lambda s: (s.depart, s.vehicle_id))
    return tuple(specs)


def _network_for(cfg: RunConfig) -> RoadNetwork:
    if cfg.network is None:
        return build_default_network()
    text = _read(cfg.network, "network")
    try:
        net = build_network(text)
        infer_layout(net)
        return net
    except ValueError as exc:
        raise ConfigError(f"bad network file {cfg.network}: {exc}") from None


def _schedule_for(net: RoadNetwork, cfg: RunConfig, base_seed: int,
                  episode: int, file_specs: tuple[SpawnSpec, ...] | None,
                  ) -> tuple[SpawnSpec, ...]:
    if file_specs is not None:
        return file_specs
    return spawn_schedule(net, cfg.vehicles, schedule_seed(base_seed, episode),
                          cfg.spawn_horizon)


# ------------------------------------------------------------------- runs

@dataclass(frozen=True)
class EpisodeMetrics:
    """Per-episode summary row (see the metrics CSV)."""

    episode: int
    cum_delay_s: int
    avg_queue_len: float
    cum_negative_reward: float
    sim_time_s: int
    arrived: int


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produces, independent of how it is persisted.

    `reroutes` holds every rerouting evaluation of the run as columns; it
    is empty outside rl_reroute, and iterating it gives the rows."""

    mode: str
    seed: int
    metrics: tuple[EpisodeMetrics, ...]
    reroutes: RerouteLog
    detector_rows: tuple[tuple[int, str, int, float, float], ...]
    network: PolicyNetwork | None


def run_experiment(cfg: RunConfig, mode: str, seed: int) -> ExperimentResult:
    """Run cfg.train.episodes episodes of one mode, all modes on the same
    per-episode demand streams.

    Fixed-time control passes no chooser to `drive_episode`, so it cycles
    phases 0-3 with a fixed green, reads no sensors and learns nothing.
    The learning modes sample phases from the current policy and
    update it after every episode.  At every detector window rl_reroute
    reroutes on the readings.  The detector log keeps the last episode
    only, so only that episode samples its detectors and logs the readings.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (expected one of {MODES})")
    net = _network_for(cfg)
    file_specs = (None if cfg.schedule is None
                  else load_schedule_file(net, _read(cfg.schedule, "schedule")))
    if mode == "fixed":
        learner = None
        green, max_decisions = cfg.fixed_green, SIM_TIME_CAP
    else:
        learner = Learner(cfg.train, seed)
        green, max_decisions = cfg.train.green_duration, cfg.train.max_agent_steps
    history: list[EpisodeMetrics] = []
    reroutes = RerouteLog()
    detector_rows: list[tuple[int, str, int, float, float]] = []

    def on_window(sim: Simulation, readings: dict[str, DetectorReading]) -> None:
        if sim.sample_detectors:
            for arm in ARM_ORDER:
                r = readings[arm]
                detector_rows.append((r.window_start, arm, r.vehicle_count,
                                      float(r.mean_speed), float(r.density)))
        if mode == "rl_reroute":
            reroutes.extend(rerouter.apply_rerouting(
                sim, readings, cfg.density_threshold, cfg.max_alternatives))

    for episode in range(cfg.train.episodes):
        logged = episode == cfg.train.episodes - 1
        sim = Simulation(net, _schedule_for(net, cfg, seed, episode, file_specs),
                         yellow_duration=cfg.train.yellow_duration,
                         sample_detectors=logged)
        transitions, cum_negative = drive_episode(
            sim, learner.chooser() if learner else None, green_duration=green,
            max_decisions=max_decisions,
            boundary_hook=on_window if logged or mode == "rl_reroute" else None)
        if learner:
            learner.end_episode(episode, transitions)
        history.append(EpisodeMetrics(
            episode=episode,
            cum_delay_s=sim.cum_delay(),
            avg_queue_len=sim.avg_queue_len,
            cum_negative_reward=cum_negative,
            sim_time_s=sim.clock,
            arrived=sim.arrived_count,
        ))
    return ExperimentResult(mode, seed, tuple(history), reroutes,
                            tuple(detector_rows),
                            learner.agent.net if learner else None)


def run_many(jobs: list[tuple[RunConfig, str, int]]) -> list[ExperimentResult]:
    """Run independent experiments in parallel processes, one process per
    job up to the CPU count.  Results come back in job order.

    Every job, a lone one too, runs in a worker that is a fresh interpreter
    (the `spawn` start method), so its numpy reads the BLAS thread settings
    of the environment it starts in.  While the pool runs, each of
    BLAS_THREAD_VARS that the caller has not set is set to 1 and removed
    again afterwards: a worker's BLAS runs one thread, not one per CPU.  So
    a job writes the same bytes whether it runs alone or beside others, for
    a fixed seed and a fixed BLAS thread count; `run_experiment` called
    directly computes with the calling process's numpy instead.  As with
    any spawned worker, a script that calls this must guard its entry
    point with `if __name__ == "__main__"`.
    """
    if not jobs:
        return []
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    workers = min(len(jobs), os.cpu_count() or 1)
    unset = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(run_experiment, *zip(*jobs)))
    finally:
        for name in unset:
            os.environ.pop(name, None)


# ------------------------------------------------------------ CSV pipeline

def metrics_csv(metrics: tuple[EpisodeMetrics, ...]):
    return csv_lines(METRICS_HEADER, (
        (m.episode, m.cum_delay_s, m.avg_queue_len, m.cum_negative_reward,
         m.sim_time_s) for m in metrics))


def reroutes_csv(decisions: Iterable[RerouteDecision]):
    """The reroute log's lines, the same as `csv_lines` renders them, from
    one f-string per row: an empty format spec is `str()` for str, int and
    float, so every cell is still written by `str()`.  Each distinct old
    route is joined once, and a stay, whose new route is its old route
    tuple, reuses that cell."""
    yield REROUTE_HEADER + "\n"
    joined: dict[tuple[str, ...], str] = {}
    for d in decisions:
        old = joined.get(d.old_route)
        if old is None:
            old = joined[d.old_route] = "|".join(d.old_route)
        new = old if d.new_route is d.old_route else "|".join(d.new_route)
        yield (f"{d.time},{d.vehicle},{old},{new},{d.u_twt},"
               f"{'' if d.best_alternative is None else d.best_alternative},{d.decision}\n")


def read_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Parse any harness CSV back into header + row dicts of strings."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"row has {len(parts)} fields, header has "
                             f"{len(header)}: {line!r}")
        rows.append(dict(zip(header, parts)))
    return header, rows


def read_metrics_csv(text: str) -> tuple[EpisodeMetrics, ...]:
    """Load a metrics series back; arrived counts are not serialized."""
    header, rows = read_csv(text)
    if header != METRICS_HEADER.split(","):
        raise ValueError(f"unexpected metrics header: {header}")
    return tuple(EpisodeMetrics(
        episode=int(r["episode"]),
        cum_delay_s=int(r["cum_delay_s"]),
        avg_queue_len=float(r["avg_queue_len"]),
        cum_negative_reward=float(r["cum_negative_reward"]),
        sim_time_s=int(r["sim_time_s"]),
        arrived=0,
    ) for r in rows)


# ------------------------------------------------------- summaries/reports

def final_quarter(seq):
    """The last 25% of a series (at least one element)."""
    take = max(1, len(seq) // 4)
    return seq[-take:]


def _final_means(metrics) -> dict[str, float]:
    fq = final_quarter(list(metrics))
    return {
        "sim_time_s": statistics.fmean(m.sim_time_s for m in fq),
        "cum_delay_s": statistics.fmean(m.cum_delay_s for m in fq),
        "avg_queue_len": statistics.fmean(m.avg_queue_len for m in fq),
        "cum_negative_reward": statistics.fmean(
            m.cum_negative_reward for m in fq),
    }


def _reduction(baseline: float, variant: float) -> float:
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - variant) / baseline


def summarize(fixed_metrics, rl_metrics=None, reroute_metrics=None) -> str:
    """Percentage reductions vs the fixed-time baseline over the final 25%
    of episodes, for mean simulation time and mean cumulative delay."""
    if not fixed_metrics:
        raise ValueError("fixed-time series is empty")
    base = _final_means(fixed_metrics)
    lines = [
        "final-quarter means vs fixed-time baseline",
        (f"fixed       sim_time {base['sim_time_s']:.1f} s   "
         f"cum_delay {base['cum_delay_s']:.1f} s"),
    ]
    for label, series in (("rl", rl_metrics), ("rl_reroute", reroute_metrics)):
        if series is None:
            continue
        if not series:
            raise ValueError(f"{label} series is empty")
        means = _final_means(series)
        lines.append(
            f"{label:<11} sim_time {means['sim_time_s']:.1f} s   "
            f"cum_delay {means['cum_delay_s']:.1f} s")
        lines.append(
            f"{label} vs fixed: sim_time reduced "
            f"{_reduction(base['sim_time_s'], means['sim_time_s']):.1f}%, "
            f"cum_delay reduced "
            f"{_reduction(base['cum_delay_s'], means['cum_delay_s']):.1f}%")
    lines.append("full-scale reference targets (informational, not asserted): "
                 "rl ~20% sim_time reduction, rl_reroute ~34%, "
                 "fixed-time total ~7392 s")
    return "\n".join(lines) + "\n"


def _summary_text(result: ExperimentResult) -> str:
    items = [
        ("mode", result.mode),
        ("seed", result.seed),
        ("episodes", len(result.metrics)),
        ("arrived_last", result.metrics[-1].arrived if result.metrics else 0),
    ]
    items += [(f"final_quarter_mean_{name}", mean)
              for name, mean in _final_means(result.metrics).items()]
    if result.mode == "rl_reroute":
        items += [("reroute_decisions", len(result.reroutes)),
                  ("reroute_switches", result.reroutes.switches)]
    return _key_value_text(items)


# ------------------------------------------------------------- run + write

def write_run_artifacts(out_dir: str | Path, cfg: RunConfig,
                        result: ExperimentResult) -> dict[str, Path]:
    """Persist one run: metrics, config echo, summary, detector log, and —
    where applicable — the trained policy and the reroute log."""
    out = Path(out_dir)
    tables = {
        "metrics.csv": metrics_csv(result.metrics),
        "config.txt": (config_text(cfg),),
        "summary.txt": (_summary_text(result),),
        "detectors.csv": csv_lines(DETECTOR_HEADER, result.detector_rows),
    }
    if result.mode == "rl_reroute":
        tables["reroutes.csv"] = reroutes_csv(result.reroutes)
    written = {name: write_lines(out / name, lines)
               for name, lines in tables.items()}
    if result.network is not None:
        written["policy.bin"] = _atomic_write(
            out / "policy.bin", lambda tmp: save_network(result.network, tmp))
    return written


def run_phase(cfg: RunConfig, mode: str, seed: int,
              out_dir: str | Path) -> ExperimentResult:
    """Run one mode end-to-end and persist its artifacts."""
    result = run_experiment(cfg, mode, seed)
    write_run_artifacts(out_dir, cfg, result)
    return result


# ------------------------------------------------------------------ sweeps

def sweep_config(cfg: RunConfig, axis: str, value) -> RunConfig:
    """cfg with the sweep axis's TrainConfig field set to value."""
    train = dataclasses.replace(cfg.train, **{_SWEEP_FIELDS[axis]: value})
    return dataclasses.replace(cfg, train=train)


def run_sweep(cfg: RunConfig, axis: str, seeds: tuple[int, ...],
              out_dir: str | Path):
    """One rl run per (declared sweep value, seed); emits the comparison CSV
    and a ranking summary.  Returns (comparison_rows, summary_rows)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r} "
                          f"(expected one of {tuple(SWEEP_AXES)})")
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    values = SWEEP_AXES[axis]
    grid = [(value, seed) for value in values for seed in seeds]
    results = run_many([(sweep_config(cfg, axis, value), "rl", seed)
                        for value, seed in grid])

    comparison_rows = []
    by_value: dict = {value: [] for value in values}
    for (value, seed), result in zip(grid, results):
        means = _final_means(result.metrics)
        comparison_rows.append((value, seed, means["cum_delay_s"],
                                means["avg_queue_len"],
                                means["cum_negative_reward"]))
        by_value[value].append(means["cum_negative_reward"])

    # Rank by mean final cumulative negative reward: rewards are negative,
    # so the value closest to zero (largest) ranks first.
    order = sorted(values, key=lambda v: (-statistics.fmean(by_value[v]),
                                          values.index(v)))
    summary_rows = []
    claimed = REFERENCE_CLAIMS.get(axis)
    for rank, value in enumerate(order, 1):
        flag = "claimed_best" if value == claimed else ""
        summary_rows.append((value, statistics.fmean(by_value[value]),
                             rank, flag))

    out = Path(out_dir)
    write_lines(out / "comparison.csv", csv_lines(COMPARISON_HEADER, comparison_rows))
    write_lines(out / "summary.csv", csv_lines(SWEEP_SUMMARY_HEADER, summary_rows))
    return comparison_rows, summary_rows
