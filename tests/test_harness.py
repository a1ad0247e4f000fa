"""Tests for the experiment harness: config, runs, CSV artifacts, sweeps."""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from flowctl import harness, rerouter
from flowctl.harness import (
    COMPARISON_HEADER,
    DETECTOR_HEADER,
    METRICS_HEADER,
    REROUTE_HEADER,
    SWEEP_AXES,
    SWEEP_SUMMARY_HEADER,
    ConfigError,
    EpisodeMetrics,
    RunConfig,
    config_text,
    csv_lines,
    desk_profile,
    final_quarter,
    load_schedule_file,
    metrics_csv,
    paper_scale_profile,
    parse_config_text,
    read_csv,
    read_key_values,
    read_metrics_csv,
    reroutes_csv,
    run_experiment,
    run_many,
    run_phase,
    run_sweep,
    schedule_seed,
    summarize,
    write_lines,
    write_run_artifacts,
)
from flowctl.roadnet import build_default_network
from flowctl.simcore import ARM_ORDER, Simulation
from flowctl.rerouter import NO_ALTERNATIVE, RerouteDecision, RerouteLog

from fileformats import load_network, network_to_text

NET = build_default_network()
STAY_ROUTE = ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")


def tiny_profile(**overrides) -> RunConfig:
    """A seconds-scale profile for exercising the full pipeline."""
    base = desk_profile()
    train = dataclasses.replace(base.train, episodes=3, max_agent_steps=120,
                                buffer_capacity=200, batch_size=50)
    fields = {"train": train, "vehicles": 40, "spawn_horizon": 30, **overrides}
    return dataclasses.replace(base, **fields)


def fake_metrics(values) -> tuple[EpisodeMetrics, ...]:
    return tuple(
        EpisodeMetrics(episode=i, cum_delay_s=int(10 * v), avg_queue_len=1.0,
                       cum_negative_reward=-float(v), sim_time_s=int(v),
                       arrived=5)
        for i, v in enumerate(values))


# ---------------------------------------------------------------- profiles

def test_desk_profile_defaults():
    cfg = desk_profile()
    assert cfg.vehicles == 1000
    assert cfg.spawn_horizon == 300
    assert cfg.train.episodes == 50
    assert cfg.train.max_agent_steps == 300
    assert cfg.train.buffer_capacity == 400
    assert cfg.train.learning_rate == pytest.approx(5e-4)
    assert cfg.fixed_green == 30


def test_full_scale_profile_defaults():
    cfg = paper_scale_profile()
    assert cfg.vehicles == 4000
    assert cfg.spawn_horizon == 3600
    assert cfg.train.episodes == 200
    assert cfg.train.buffer_capacity == 4500
    assert cfg.train.max_agent_steps == 2500
    assert cfg.train.learning_rate == pytest.approx(1e-3)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(desk_profile(), vehicles=-1)
    with pytest.raises(ConfigError):
        dataclasses.replace(desk_profile(), fixed_green=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(desk_profile(), density_threshold=-0.5)
    with pytest.raises(ConfigError, match="max_alternatives"):
        dataclasses.replace(desk_profile(), max_alternatives=0)
    # Every bound at its edge: the least legal value constructs and the
    # nearest illegal one raises.
    for field, legal, illegal in (
            ("vehicles", 0, -1), ("spawn_horizon", 1, 0), ("fixed_green", 1, 0),
            ("density_threshold", 0.0, math.nextafter(0.0, -1.0)),
            ("max_alternatives", 1, 0)):
        dataclasses.replace(desk_profile(), **{field: legal})
        with pytest.raises(ConfigError):
            dataclasses.replace(desk_profile(), **{field: illegal})
    # NaN passes `< 0`, and a NaN or infinite threshold would silently
    # never reroute.
    for threshold in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="density_threshold"):
            dataclasses.replace(desk_profile(), density_threshold=threshold)
    # Every integer field refuses a float, even a whole one, and a bool, by
    # name; a numpy integer constructs and is kept as a Python int.
    int_fields = ("vehicles", "spawn_horizon", "fixed_green", "max_alternatives")
    assert set(int_fields) == {f.name for f in dataclasses.fields(RunConfig)
                               if f.type == "int"}
    for field in int_fields:
        for illegal in (2.5, 3.0, True):
            with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
                dataclasses.replace(desk_profile(), **{field: illegal})
    cfg = dataclasses.replace(desk_profile(), **{field: np.int64(2) for field in int_fields})
    assert all(type(getattr(cfg, field)) is int and getattr(cfg, field) == 2
               for field in int_fields)


# ------------------------------------------------------------- config file

def test_config_overrides_with_comments_and_blanks():
    text = """
    # demand
    vehicles = 123

    gamma = 0.7          # trailing comment
    use_value_baseline = true
    fixed_green = 12
    """
    cfg = parse_config_text(text, desk_profile())
    assert cfg.vehicles == 123
    assert cfg.train.gamma == pytest.approx(0.7)
    assert cfg.train.use_value_baseline is True
    assert cfg.fixed_green == 12
    # untouched keys keep profile values
    assert cfg.train.episodes == 50


def test_config_unknown_key_is_named_in_error():
    with pytest.raises(ConfigError, match="warp_factor"):
        parse_config_text("warp_factor = 9", desk_profile())


def test_config_type_errors():
    with pytest.raises(ConfigError, match="episodes"):
        parse_config_text("episodes = lots", desk_profile())
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text("gamma = high", desk_profile())
    with pytest.raises(ConfigError, match="use_value_baseline"):
        parse_config_text("use_value_baseline = maybe", desk_profile())
    with pytest.raises(ConfigError):
        parse_config_text("just some words", desk_profile())


def test_config_invalid_value_rejected_via_validation():
    with pytest.raises(ConfigError):
        parse_config_text("gamma = 1.5", desk_profile())
    with pytest.raises(ConfigError):
        parse_config_text("episodes = 0", desk_profile())
    with pytest.raises(ConfigError, match="value_hidden_width"):
        parse_config_text("use_value_baseline = true\nvalue_hidden_width = 0",
                          desk_profile())


def test_config_text_round_trips():
    for cfg in (tiny_profile(density_threshold=0.03),
                tiny_profile(network="nets/cross.txt", schedule="demand.csv")):
        assert parse_config_text(config_text(cfg), desk_profile()) == cfg


def test_config_network_file_loads_custom_network(tmp_path):
    net_file = tmp_path / "net.txt"
    net_file.write_text(network_to_text(NET))
    cfg = parse_config_text(f"network = {net_file}", tiny_profile())
    assert cfg.network == str(net_file)
    result = run_experiment(cfg, "fixed", 3)
    assert len(result.metrics) == 3


def test_config_missing_network_file_is_config_error():
    cfg = parse_config_text("network = /no/such/file.txt", tiny_profile())
    with pytest.raises(ConfigError, match="network"):
        run_experiment(cfg, "fixed", 3)


# ---------------------------------------------------------------- schedule

def test_schedule_seed_is_deterministic_and_distinct():
    assert schedule_seed(7, 0) == schedule_seed(7, 0)
    seeds = {schedule_seed(7, ep) for ep in range(20)}
    assert len(seeds) == 20
    assert schedule_seed(7, 0) != schedule_seed(8, 0)


def test_load_schedule_file_builds_shortest_routes():
    text = ("depart,vtype,origin,destination\n"
            "5,car,w,e\n"
            "0,bus,n,e\n")
    specs = load_schedule_file(NET, text)
    assert [s.vehicle_id for s in specs] == ["v1", "v0"]  # sorted by depart
    assert specs[0].depart == 0
    assert specs[0].vtype == "bus"
    # n -> e adjacent pair rides the single bypass diagonal
    assert specs[0].route == ("diag_ne",)
    # w -> e crosses the junction
    assert specs[1].route == ("app_w_in", "jct_w_in", "jct_e_out", "app_e_out")


def test_load_schedule_file_rejects_bad_rows():
    head = "depart,vtype,origin,destination\n"
    with pytest.raises(ConfigError, match="header"):
        load_schedule_file(NET, "time,kind,a,b\n1,car,w,e\n")
    with pytest.raises(ConfigError, match="vtype"):
        load_schedule_file(NET, head + "1,rocket,w,e\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_schedule_file(NET, head + "-3,car,w,e\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_schedule_file(NET, head + "1,car,w,nowhere\n")
    with pytest.raises(ConfigError, match="4 fields"):
        load_schedule_file(NET, head + "1,car,w\n")
    # errors name the file's own line, counting blank lines
    with pytest.raises(ConfigError, match="schedule line 6: bad depart"):
        load_schedule_file(NET, "\n" + head + "0,car,w,e\n\n\nsoon,car,w,e\n")


def test_load_schedule_file_searches_each_pair_once(monkeypatch):
    """400 rows over three (origin, destination) pairs make three route
    searches, and every row gets its pair's shortest route; a pair that
    has no route is reported at its first line, after good rows."""
    pairs = [("w", "e"), ("n", "e"), ("s", "w")]
    head = "depart,vtype,origin,destination\n"
    text = head + "".join(f"{t},car,{o},{d}\n"
                          for t in range(400) for o, d in [pairs[t * 7 % 3]])
    searches = []
    search = harness.shortest_route

    def counting(net, origin, destination, weights):
        searches.append((origin, destination))
        return search(net, origin, destination, weights)

    monkeypatch.setattr(harness, "shortest_route", counting)
    specs = load_schedule_file(NET, text)
    assert sorted(searches) == sorted(pairs)
    weights = harness.free_flow_weights(NET)
    for spec in specs:
        origin, destination = pairs[int(spec.depart) * 7 % 3]
        assert spec.route == search(NET, origin, destination, weights)[1]
    searches.clear()
    with pytest.raises(ConfigError, match="schedule line 4: "):
        load_schedule_file(NET, head + "0,car,w,e\n1,car,w,e\n2,car,w,nowhere\n"
                           "3,car,w,nowhere\n")
    assert searches == [("w", "e"), ("w", "nowhere")]


def test_schedule_file_override_drives_a_run(tmp_path):
    sched = tmp_path / "demand.csv"
    sched.write_text("depart,vtype,origin,destination\n"
                     + "\n".join(f"{t},car,w,e" for t in range(0, 20, 2))
                     + "\n")
    cfg = tiny_profile(schedule=str(sched))
    result = run_experiment(cfg, "fixed", 1)
    assert result.metrics[0].arrived == 10


def test_schedule_file_is_read_and_parsed_once_per_run(tmp_path, monkeypatch):
    sched = tmp_path / "demand.csv"
    sched.write_text("depart,vtype,origin,destination\n0,car,w,e\n")
    reads, parses = [], []
    read_text, parse = Path.read_text, harness.load_schedule_file

    def counted_read(path, *args, **kwargs):
        reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted_read)
    monkeypatch.setattr(harness, "load_schedule_file",
                        lambda *args: parses.append(1) or parse(*args))
    result = run_experiment(tiny_profile(schedule=str(sched)), "fixed", 1)
    assert len(result.metrics) == 3
    assert reads == [sched]
    assert len(parses) == 1


# -------------------------------------------------------------------- runs

def test_zero_vehicle_run_yields_zero_metrics():
    cfg = tiny_profile(vehicles=0)
    result = run_experiment(cfg, "fixed", 5)
    assert len(result.metrics) == 3
    for m in result.metrics:
        assert m.sim_time_s == 0
        assert m.cum_delay_s == 0
        assert m.avg_queue_len == 0.0
        assert m.cum_negative_reward == 0.0
        assert m.arrived == 0


def test_fixed_run_shape_and_conservation():
    result = run_experiment(tiny_profile(), "fixed", 7)
    assert result.mode == "fixed"
    assert [m.episode for m in result.metrics] == [0, 1, 2]
    for m in result.metrics:
        assert 0 < m.sim_time_s <= 9000
        assert m.arrived == 40
        assert m.avg_queue_len >= 0.0
    assert result.network is None
    assert list(result.reroutes) == []
    assert result.detector_rows  # at least one 30 s window happened


def test_fixed_run_reads_no_sensors(monkeypatch):
    reads = []
    read_sensors = Simulation.read_sensors
    monkeypatch.setattr(Simulation, "read_sensors",
                        lambda sim: reads.append(sim.clock) or read_sensors(sim))
    base = tiny_profile()
    cfg = dataclasses.replace(base, train=dataclasses.replace(base.train, episodes=2))
    result = run_experiment(cfg, "fixed", 7)
    assert [m.arrived for m in result.metrics] == [40, 40]
    assert reads == []


def test_rl_run_trains_and_logs_detectors():
    result = run_experiment(tiny_profile(), "rl", 7)
    assert result.mode == "rl"
    assert len(result.metrics) == 3
    assert result.network is not None
    assert list(result.reroutes) == []
    window_starts = {row[0] for row in result.detector_rows}
    assert all(ws % 30 == 0 for ws in window_starts)
    arms = [row[1] for row in result.detector_rows[:4]]
    assert arms == ["n", "e", "s", "w"]


def test_rl_reroute_run_records_decisions_under_low_threshold():
    cfg = tiny_profile(density_threshold=0.0005)
    result = run_experiment(cfg, "rl_reroute", 7)
    assert result.mode == "rl_reroute"
    assert result.reroutes  # some vehicles got evaluated
    assert {d.decision for d in result.reroutes} <= {"stay", "switch"}


def test_window_hook_reroutes_in_rl_reroute_only_and_logs_the_last_episode(
        monkeypatch):
    original = rerouter.apply_rerouting
    calls, returned = [], []

    def recording(sim, readings, threshold, max_alternatives):
        calls.append((sim.clock, threshold, max_alternatives))
        decisions = original(sim, readings, threshold, max_alternatives)
        returned.extend(decisions)
        return decisions

    monkeypatch.setattr(rerouter, "apply_rerouting", recording)
    cfg = tiny_profile(density_threshold=0.0005, max_alternatives=2)
    for mode in ("fixed", "rl", "rl_reroute"):
        calls.clear()
        returned.clear()
        result = run_experiment(cfg, mode, 7)
        # One row per arm per window of the last episode only.
        last_time = result.metrics[-1].sim_time_s
        assert len(result.detector_rows) == 4 * (last_time // 30)
        if mode != "rl_reroute":
            assert calls == []
            continue
        windows = [(clock, 0.0005, 2) for m in result.metrics
                   for clock in range(30, m.sim_time_s + 1, 30)]
        assert calls == windows
        assert list(result.reroutes) == returned and returned


def test_rl_reroute_samples_and_logs_only_the_last_episode(monkeypatch):
    """The detector log covers exactly the last episode's windows, and
    that episode's simulation is the only one that samples its detectors.
    Sampling in every episode changes no decision, metric or weight."""
    sampled = []
    make = harness.Simulation
    force = False

    def recording(*args, sample_detectors, **kwargs):
        sampled.append(sample_detectors)
        return make(*args, sample_detectors=sample_detectors or force, **kwargs)

    monkeypatch.setattr(harness, "Simulation", recording)
    cfg = tiny_profile(density_threshold=0.0005)
    result = run_experiment(cfg, "rl_reroute", 7)
    assert sampled == [False, False, True]
    last_time = result.metrics[-1].sim_time_s
    assert [row[:2] for row in result.detector_rows] == [
        (start, arm) for start in range(0, 30 * (last_time // 30), 30)
        for arm in ARM_ORDER]
    assert all(isinstance(row[2], int) for row in result.detector_rows)
    assert any(row[2] for row in result.detector_rows)
    assert result.reroutes
    force = True
    full = run_experiment(cfg, "rl_reroute", 7)
    assert (full.metrics, list(full.reroutes)) == (result.metrics, list(result.reroutes))
    # Every sampling episode logs, and the last one's rows come last.
    assert len(full.detector_rows) > len(result.detector_rows)
    assert full.detector_rows[-len(result.detector_rows):] == result.detector_rows
    for a, b in zip(full.network.weights + full.network.biases,
                    result.network.weights + result.network.biases):
        assert a.tobytes() == b.tobytes()


def test_unknown_mode_is_config_error():
    with pytest.raises(ConfigError, match="mode"):
        run_experiment(tiny_profile(), "chaos", 7)


def test_run_many_results_do_not_depend_on_job_order():
    cfg = tiny_profile()
    forward = run_many([(cfg, "fixed", 1), (cfg, "fixed", 2)])
    backward = run_many([(cfg, "fixed", 2), (cfg, "fixed", 1)])
    assert forward[0].metrics == backward[1].metrics
    assert forward[1].metrics == backward[0].metrics
    assert forward[0].metrics != forward[1].metrics  # seeds differ


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_thread_settings(cfg, mode, seed):
    """Stands in for run_experiment in a run_many worker: the worker's BLAS
    thread settings."""
    return [os.environ.get(name) for name in BLAS_VARS]


def test_run_many_workers_pin_blas_threads_unless_already_set(monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", blas_thread_settings)
    for preset, expected in (({}, ["1", "1", "1"]),
                             ({"OMP_NUM_THREADS": "2"}, ["1", "2", "1"])):
        for name in BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in preset.items():
            monkeypatch.setenv(name, value)
        assert run_many([(None, "rl", 1), (None, "rl", 2)]) == [expected] * 2
        # A lone job runs in a pinned worker too.
        assert run_many([(None, "rl", 1)]) == [expected]
        # The caller's own environment is left as it was.
        assert [os.environ.get(name) for name in BLAS_VARS] == \
            [preset.get(name) for name in BLAS_VARS]


def test_a_job_writes_the_same_policy_bytes_alone_and_pooled(monkeypatch):
    """At width 600 the batched products round differently under more than
    one BLAS thread (ROADMAP K6), so a lone job must be pinned as a pooled
    one is."""
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    cfg = desk_profile()
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(
        cfg.train, episodes=2, hidden_width=600))
    job = (cfg, "rl", 7)
    [alone] = run_many([job])
    pooled, _ = run_many([job, (cfg, "fixed", 7)])
    assert alone.metrics == pooled.metrics
    for a, b in zip(alone.network.weights + alone.network.biases,
                    pooled.network.weights + pooled.network.biases, strict=True):
        assert a.tobytes() == b.tobytes()


def test_the_process_pool_is_imported_only_to_run_jobs_in_parallel():
    code = ("import sys, flowctl.harness, flowctl.cli; "
            "print(*(name in sys.modules for name in ('concurrent.futures', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.slow
def test_full_scale_fixed_episode_fits_time_cap():
    cfg = dataclasses.replace(
        paper_scale_profile(),
        train=dataclasses.replace(paper_scale_profile().train, episodes=1))
    result = run_experiment(cfg, "fixed", 7)
    m = result.metrics[0]
    assert m.sim_time_s <= 9000
    assert m.arrived == 4000


# ----------------------------------------------------------- CSV pipeline

def test_metrics_csv_header_and_round_trip():
    metrics = fake_metrics([100.0, 90.0, 80.0, 70.0])
    text = "".join(metrics_csv(metrics))
    assert text.splitlines()[0] == METRICS_HEADER
    back = read_metrics_csv(text)
    assert [m.sim_time_s for m in back] == [100, 90, 80, 70]
    assert [m.cum_negative_reward for m in back] == [-100.0, -90.0, -80.0, -70.0]


def test_reroutes_csv_shape():
    d = RerouteDecision(time=60, vehicle="v3",
                        old_route=("a", "b"), new_route=("a", "c", "d"),
                        decision="switch", u_twt=123.5,
                        best_alternative=100.25)
    text = "".join(reroutes_csv((d,)))
    lines = text.splitlines()
    assert lines[0] == REROUTE_HEADER
    assert lines[1] == "60,v3,a|b,a|c|d,123.5,100.25,switch"


# Floats whose `str` is unusual: the smallest subnormal, an exponent form,
# negative zero, and numpy floats, whose `repr` differs from their `str`.
CELL_FLOATS = st.one_of(st.floats(), st.sampled_from((5e-324, 1e16, -0.0)),
                        st.floats().map(np.float64))
# The same without NaN, which no estimate is: a `RerouteLog` keeps NaN in its
# best-alternative column for a missing alternative.
ESTIMATES = st.one_of(st.floats(allow_nan=False), st.sampled_from((5e-324, 1e16, -0.0)),
                      st.floats(allow_nan=False).map(np.float64))


@st.composite
def reroute_logs(draw, floats=CELL_FLOATS):
    """Decisions over a few route tuples: a new route is its decision's old
    tuple itself, an equal but distinct tuple, or another drawn route."""
    pool = draw(st.lists(st.lists(st.sampled_from(STAY_ROUTE + ("diag_wn",)),
                                  min_size=1, max_size=4).map(tuple),
                         min_size=1, max_size=4))
    decisions = []
    for _ in range(draw(st.integers(0, 12))):
        old = draw(st.sampled_from(pool))
        new = draw(st.sampled_from((old, tuple(list(old))) + tuple(pool)))
        decisions.append(RerouteDecision(
            time=draw(st.integers(0, 10**6)), vehicle=draw(st.text(max_size=4)),
            old_route=old, new_route=new,
            decision=draw(st.sampled_from(("stay", "switch"))),
            u_twt=draw(floats),
            best_alternative=draw(st.one_of(st.none(), floats))))
    return tuple(decisions)


def csv_rows(decisions):
    """The reroute log's rows as the cells `csv_lines` renders."""
    return ((d.time, d.vehicle, "|".join(d.old_route), "|".join(d.new_route), d.u_twt,
             "" if d.best_alternative is None else d.best_alternative, d.decision)
            for d in decisions)


def reroute_log(decisions) -> RerouteLog:
    """One window's log of decisions, appended as `apply_rerouting` appends
    its evaluations."""
    log = RerouteLog()
    for d in decisions:
        log.append(d.time, d.vehicle, d.old_route, d.new_route, d.decision == "switch",
                   d.u_twt,
                   NO_ALTERNATIVE if d.best_alternative is None else d.best_alternative)
    return log


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(decisions=reroute_logs())
def test_reroutes_csv_renders_the_rows_as_csv_lines_does(decisions):
    assert "".join(reroutes_csv(decisions)) == \
        "".join(csv_lines(REROUTE_HEADER, csv_rows(decisions)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(decisions=reroute_logs(ESTIMATES), cuts=st.lists(st.integers(0, 12), max_size=4))
def test_a_reroute_log_gives_back_its_rows_and_their_csv(decisions, cuts):
    """Decisions extended into a run's log window by window, as
    `run_experiment` extends it, read back as equal rows that hold the same
    route tuples, so a stay's new route is still its old route tuple, and
    render the same bytes.  So does the log after a pickle round trip, as
    a pool worker returns it."""
    log = RerouteLog()
    bounds = sorted({0, len(decisions), *(c for c in cuts if c < len(decisions))})
    for lo, hi in zip(bounds, bounds[1:]):
        log.extend(reroute_log(decisions[lo:hi]))
    assert len(log) == len(decisions)
    assert log.switches == sum(d.decision == "switch" for d in decisions)
    rows = list(log)
    assert rows == list(decisions)
    assert all(type(row) is RerouteDecision and row.old_route is d.old_route
               and row.new_route is d.new_route for row, d in zip(rows, decisions))
    text = "".join(csv_lines(REROUTE_HEADER, csv_rows(decisions)))
    assert "".join(reroutes_csv(log)) == text
    unpickled = pickle.loads(pickle.dumps(log))
    assert list(unpickled) == rows
    assert [row.new_route is row.old_route for row in unpickled] == \
        [d.new_route is d.old_route for d in decisions]
    assert "".join(reroutes_csv(unpickled)) == text


def test_detectors_csv_shape():
    text = "".join(csv_lines(DETECTOR_HEADER, ((30, "n", 2, 3.5, 0.004),)))
    lines = text.splitlines()
    assert lines[0] == DETECTOR_HEADER
    assert lines[1] == "30,n,2,3.5,0.004"


def test_read_csv_rejects_ragged_rows():
    with pytest.raises(ValueError, match="fields"):
        read_csv("a,b\n1,2,3\n")


def test_read_key_values_parses_summary_style_text():
    kv = read_key_values("mode = rl\n# note\nseed = 7\n")
    assert kv == {"mode": "rl", "seed": "7"}
    with pytest.raises(ConfigError, match="line 2"):
        read_key_values("mode = rl\nseed 7\n")


# ---------------------------------------------------------------- artifacts

def test_write_run_artifacts_and_config_echo(tmp_path):
    cfg = tiny_profile()
    result = run_experiment(cfg, "fixed", 7)
    written = write_run_artifacts(tmp_path / "fx", cfg, result)
    assert set(written) == {"metrics.csv", "config.txt", "summary.txt",
                            "detectors.csv"}
    assert parse_config_text(written["config.txt"].read_text(),
                             desk_profile()) == cfg
    summary = read_key_values(written["summary.txt"].read_text())
    assert summary["mode"] == "fixed"
    assert summary["seed"] == "7"
    assert summary["episodes"] == "3"
    assert summary["arrived_last"] == "40"
    # no leftover temp files from atomic writes
    assert not [p for p in (tmp_path / "fx").iterdir()
                if p.name.startswith(".")]


def test_failed_policy_write_leaves_no_file(tmp_path, monkeypatch):
    cfg = tiny_profile()
    result = run_experiment(cfg, "rl", 7)

    def save_half_then_fail(net, path):
        with open(path, "wb") as handle:
            handle.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(harness, "save_network", save_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_run_artifacts(tmp_path, cfg, result)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["config.txt", "detectors.csv", "metrics.csv", "summary.txt"]


class Unprintable:
    """A cell whose rendering fails, and which records the reroute log's
    temp file as it stood at that moment."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.temp_files = None

    def __str__(self):
        self.temp_files = [p.name for p in self.directory.iterdir()
                           if p.name.startswith(".reroutes.csv.")]
        raise OSError("disk full")


def test_failed_reroute_row_leaves_no_file(tmp_path):
    cfg = tiny_profile(density_threshold=0.0005)
    result = run_experiment(cfg, "rl_reroute", 7)
    assert len(result.reroutes) > 3
    bad = Unprintable(tmp_path)
    reroutes = list(result.reroutes)
    reroutes[2] = reroutes[2]._replace(vehicle=bad)
    with pytest.raises(OSError, match="disk full"):
        write_run_artifacts(tmp_path, cfg,
                            dataclasses.replace(result, reroutes=reroute_log(reroutes)))
    # The failure came partway through the stream into the temp file.
    assert len(bad.temp_files) == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["config.txt", "detectors.csv", "metrics.csv", "summary.txt"]


def test_reroute_log_is_written_without_holding_its_text(tmp_path):
    """The write streams rows: its peak allocation is a small fraction of
    the file it writes, which a whole-text write could not be."""
    decisions = tuple(RerouteDecision(
        time=30 * (i // 100), vehicle=f"v{i % 1000}",
        old_route=STAY_ROUTE, new_route=STAY_ROUTE, decision="stay",
        u_twt=100.0 + i / 7, best_alternative=200.0 + i / 3)
        for i in range(50_000))
    lines = reroutes_csv(decisions)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_lines(tmp_path / "reroutes.csv", lines)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = (tmp_path / "reroutes.csv").stat().st_size
    assert size > 5_000_000
    assert peak < size / 50
    text = (tmp_path / "reroutes.csv").read_text()
    assert text == "".join(reroutes_csv(decisions))


def test_a_reroute_log_holds_under_64_bytes_per_evaluation():
    """50,000 stays appended to a log as `apply_rerouting` appends them
    hold under 64 B each, where the same evaluations kept as a tuple of
    rows hold about 150 B each."""
    count = 50_000
    vehicles = [f"v{i}" for i in range(1000)]

    def held(build) -> float:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            assert len(kept) == count
            return (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()

    def log():
        log = RerouteLog()
        for i in range(count):
            log.append(30 * (i // 100), vehicles[i % 1000], STAY_ROUTE, STAY_ROUTE, False,
                       100.0 + i / 7, 200.0 + i / 3)
        return log

    def rows():
        return tuple(RerouteDecision(30 * (i // 100), vehicles[i % 1000], STAY_ROUTE,
                                     STAY_ROUTE, "stay", 100.0 + i / 7, 200.0 + i / 3)
                     for i in range(count))

    assert held(log) < 64 < held(rows)


def test_run_phase_rl_writes_policy_and_is_deterministic(tmp_path):
    cfg = tiny_profile()
    run_phase(cfg, "rl", 7, tmp_path / "a")
    run_phase(cfg, "rl", 7, tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    pa = (tmp_path / "a" / "policy.bin").read_bytes()
    pb = (tmp_path / "b" / "policy.bin").read_bytes()
    assert pa == pb
    net = load_network(tmp_path / "a" / "policy.bin")
    assert net.layer_sizes[0] == 80
    assert net.layer_sizes[-1] == 4


def test_artifacts_are_written_with_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        run_phase(tiny_profile(), "rl", 7, tmp_path / "run")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode)
             for p in (tmp_path / "run").iterdir()}
    assert sorted(modes) == ["config.txt", "detectors.csv", "metrics.csv",
                             "policy.bin", "summary.txt"]
    assert modes == dict.fromkeys(modes, 0o644)


def test_run_phase_rl_reroute_writes_reroute_log(tmp_path):
    cfg = tiny_profile(density_threshold=0.0005)
    result = run_phase(cfg, "rl_reroute", 7, tmp_path / "rr")
    text = (tmp_path / "rr" / "reroutes.csv").read_text()
    header, rows = read_csv(text)
    assert ",".join(header) == REROUTE_HEADER
    assert len(rows) == len(result.reroutes)


# ---------------------------------------------------------------- summaries

def test_final_quarter_lengths():
    assert final_quarter([1, 2, 3]) == [3]
    assert final_quarter(list(range(8))) == [6, 7]
    assert final_quarter(list(range(50))) == list(range(38, 50))


def test_summarize_reductions_match_hand_arithmetic():
    fixed = fake_metrics([100.0] * 4)
    rl = fake_metrics([80.0] * 4)
    rr = fake_metrics([66.0] * 4)
    report = summarize(fixed, rl, rr)
    assert "rl vs fixed: sim_time reduced 20.0%" in report
    assert "rl_reroute vs fixed: sim_time reduced 34.0%" in report
    assert "informational" in report


def test_summarize_identical_series_is_zero_percent():
    fixed = fake_metrics([120.0, 110.0, 100.0, 90.0])
    report = summarize(fixed, fixed)
    assert "rl vs fixed: sim_time reduced 0.0%, cum_delay reduced 0.0%" in report


def test_summarize_requires_nonempty_series():
    with pytest.raises(ValueError):
        summarize(())
    with pytest.raises(ValueError):
        summarize(fake_metrics([1.0]), ())


# ------------------------------------------------------------------- sweeps

def test_sweep_axes_declared_sets():
    assert SWEEP_AXES["gamma"] == (0.3, 0.5, 0.7, 0.9)
    assert SWEEP_AXES["width"] == (200, 400, 600)
    assert SWEEP_AXES["depth"] == (3, 5, 8)


def test_sweep_rejects_unknown_axis_and_empty_seeds(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(tiny_profile(), "flux", (7,), tmp_path)
    with pytest.raises(ConfigError, match="seed"):
        run_sweep(tiny_profile(), "gamma", (), tmp_path)


def test_gamma_sweep_writes_ranked_tables(tmp_path):
    cfg = tiny_profile(vehicles=25)
    comparison, summary = run_sweep(cfg, "gamma", (3, 4), tmp_path)
    assert len(comparison) == 8  # 4 values x 2 seeds
    assert [(v, s) for v, s, *_ in comparison] == [
        (v, s) for v in (0.3, 0.5, 0.7, 0.9) for s in (3, 4)]

    header, rows = read_csv((tmp_path / "comparison.csv").read_text())
    assert ",".join(header) == COMPARISON_HEADER
    assert len(rows) == 8

    header, rows = read_csv((tmp_path / "summary.csv").read_text())
    assert ",".join(header) == SWEEP_SUMMARY_HEADER
    assert [int(r["rank"]) for r in rows] == [1, 2, 3, 4]
    means = [float(r["mean_final_neg_reward"]) for r in rows]
    assert means == sorted(means, reverse=True)  # best (closest to 0) first
    flags = {r["sweep_value"]: r["reference_claim"] for r in rows}
    assert flags["0.5"] == "claimed_best"
    assert all(flag == "" for value, flag in flags.items() if value != "0.5")


def test_depth_sweep_config_expansion():
    from flowctl.harness import sweep_config
    cfg = tiny_profile()
    assert sweep_config(cfg, "depth", 8).train.hidden_count == 8
    assert sweep_config(cfg, "width", 600).train.hidden_width == 600
    assert sweep_config(cfg, "gamma", 0.9).train.gamma == pytest.approx(0.9)
    assert math.isclose(sweep_config(cfg, "gamma", 0.9).vehicles, cfg.vehicles)
