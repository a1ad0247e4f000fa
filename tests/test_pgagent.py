"""Tests for the policy-gradient controller and the episode driver."""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import Phase, given, settings, strategies as st
import numpy as np
import pytest

from flowctl import pgagent
from flowctl.harness import RunConfig, desk_profile, run_experiment
from flowctl.neuralnet import forward, init_network
from flowctl.pgagent import (
    AGENT_STREAM,
    PROB_SUM_TOL,
    AgentState,
    EpisodeMetrics,
    Learner,
    Memory,
    TrainConfig,
    action_cdf,
    discounted_returns,
    drive_episode,
    fixed_cycle_policy,
    init_agent,
    policy_update,
    positional_baseline,
    select_action,
)
from flowctl.roadnet import build_default_network
from flowctl.simcore import Simulation, spawn_schedule

NET = build_default_network()


def small_cfg(**kw) -> TrainConfig:
    defaults = dict(episodes=3, batch_size=50, buffer_capacity=200, gamma=0.5,
                    green_duration=4, yellow_duration=2, max_agent_steps=40,
                    hidden_width=16, hidden_count=1, learning_rate=1e-3)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ----------------------------------------------------------------- returns

def test_discounted_returns_hand_checked():
    out = discounted_returns([1.0, 2.0, 3.0], 0.5)
    assert out == pytest.approx([2.75, 3.5, 3.0])


def test_discounted_returns_gamma_edges():
    rewards = [2.0, -1.0, 4.0]
    assert discounted_returns(rewards, 0.0) == pytest.approx(rewards)
    assert discounted_returns(rewards, 1.0) == pytest.approx([5.0, 3.0, 4.0])


def test_positional_baseline_uneven_traces():
    v = positional_baseline([np.array([1.0, 2.0, 3.0]), np.array([3.0, 4.0])])
    assert v == pytest.approx([2.0, 3.0, 3.0])


def test_positional_baseline_empty():
    assert positional_baseline([]).shape == (0,)


# ------------------------------------------------------------------ update

def one_state_memory(pairs) -> Memory:
    """pairs: (episode, action, reward) on a shared fixed state, in episode
    order as the learner stores them."""
    state = np.zeros(80)
    state[5] = 1.0
    episodes, actions, rewards = zip(*pairs)
    return Memory(np.tile(state, (len(pairs), 1)), np.array(actions, np.int64),
                  np.array(rewards), np.array(episodes, np.int64))


def test_policy_update_single_trace_is_noop():
    cfg = small_cfg()
    agent = init_agent(cfg, seed=0)
    memory = one_state_memory([(0, 1, 5.0), (0, 2, -3.0), (0, 1, 1.0)])
    before = [w.copy() for w in agent.net.weights]
    updated = policy_update(agent, memory, np.random.default_rng(0), cfg)
    for a, b in zip(before, updated.net.weights, strict=True):
        assert np.array_equal(a, b)
    assert updated.opt.step == agent.opt.step


def test_policy_update_moves_toward_rewarded_action():
    cfg = small_cfg(batch_size=100, learning_rate=0.05)
    agent = init_agent(cfg, seed=1)
    state = np.zeros(80)
    state[5] = 1.0
    pairs = []
    for ep in range(10):
        pairs.append((ep, 0, 10.0) if ep % 2 == 0 else (ep, 1, -10.0))
    memory = one_state_memory(pairs)
    before = forward(agent.net, state)
    rng = np.random.default_rng(3)
    for _ in range(20):
        agent = policy_update(agent, memory, rng, cfg)
    after = forward(agent.net, state)
    assert after[0] > before[0]
    assert after[1] < before[1]


def test_policy_update_empty_buffer_returns_agent():
    cfg = small_cfg()
    agent = init_agent(cfg, seed=0)
    empty = Memory(np.zeros((0, 80)), np.zeros(0, np.int64), np.zeros(0),
                   np.zeros(0, np.int64))
    assert policy_update(agent, empty, np.random.default_rng(0), cfg) is agent


def test_value_baseline_path_runs_and_fits():
    cfg = small_cfg(use_value_baseline=True, batch_size=40)
    agent = init_agent(cfg, seed=2)
    assert agent.value_net is not None
    memory = one_state_memory([(ep, ep % 4, float(ep % 3) - 1.0)
                               for ep in range(20)])
    before = [w.copy() for w in agent.value_net.weights]
    updated = policy_update(agent, memory, np.random.default_rng(1), cfg)
    changed = any(not np.array_equal(a, b) for a, b in
                  zip(before, updated.value_net.weights, strict=True))
    assert changed


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError):
        TrainConfig(green_duration=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="value_hidden_width"):
        TrainConfig(value_hidden_width=0)
    with pytest.raises(ValueError, match="value_hidden_width"):
        TrainConfig(use_value_baseline=True, value_hidden_width=-3)


# ------------------------------------------------------------------ driver

def test_drive_episode_rewards_telescope():
    sched = spawn_schedule(NET, count=120, seed=13, horizon=60)
    sim = Simulation(NET, sched)
    rng = np.random.default_rng(4)
    waits = []

    def choose(_state):
        return int(rng.integers(0, 4))

    transitions, cum_neg = drive_episode(sim, choose, green_duration=4,
                                         max_decisions=500)
    total = math.fsum(r for _, _, r in transitions)
    assert total == pytest.approx(-sim.cumulative_wait())
    assert cum_neg == pytest.approx(math.fsum(min(r, 0.0)
                                              for _, _, r in transitions))
    assert sim.done


def test_drive_episode_respects_decision_cap():
    sched = spawn_schedule(NET, count=200, seed=5, horizon=120)
    sim = Simulation(NET, sched)
    transitions, _ = drive_episode(sim, lambda s: 1, green_duration=4,
                                   max_decisions=7)
    assert len(transitions) == 7


def test_drive_episode_cadence_green_plus_amber():
    sim = Simulation(NET, spawn_schedule(NET, count=30, seed=6, horizon=20))
    actions = iter([0, 0, 2, 2, 1])
    drive_episode(sim, lambda s: next(actions), green_duration=4,
                  max_decisions=5)
    # 4 (same phase) + 4 + 6 (change) + 4 + 6 (change) = 24 steps
    assert sim.clock == 24


def test_drive_episode_boundary_hook_fires_on_window():
    sim = Simulation(NET, spawn_schedule(NET, count=30, seed=6, horizon=20))
    seen = []
    drive_episode(sim, lambda s: 0, green_duration=4, max_decisions=20,
                  boundary_hook=lambda s, readings: seen.append(
                      (s.clock, {r.window_start for r in readings.values()})))
    assert seen == [(30, {0}), (60, {30})]


def test_fixed_cycle_policy_walks_phases():
    choose = fixed_cycle_policy()
    assert [choose(None) for _ in range(6)] == [0, 1, 2, 3, 0, 1]


def test_observation_shape():
    sim = Simulation(NET, ())
    state = sim.read_sensors()
    assert state.shape == (80,)
    assert state.dtype == np.float64


def test_select_action_follows_distribution():
    net = init_network(8, 1, seed=0)
    rng = np.random.default_rng(0)
    state = np.zeros(80)
    counts = np.bincount([select_action(net, state, rng, {}) for _ in range(400)],
                         minlength=4)
    assert (counts > 0).all()


# Probability vectors as a softmax may give them: exact zeros, values down
# to the subnormals, and one dominant entry, normalised to sum to 1.
probability_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-12, 1.0),
              st.floats(1.0, 1e6)),
    min_size=1, max_size=8).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(weights=probability_vectors, seed=st.integers(0, 2**64 - 1))
def test_select_action_draws_as_generator_choice(weights, seed):
    probs = np.array(weights) / math.fsum(weights)
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    memo = {}
    with mock.patch.object(pgagent, "forward", lambda net, state: probs):
        for i in range(20):
            state = np.full(3, i % 4, dtype=np.float64)  # four states, repeated
            action = select_action(None, state, ours, memo if i % 2 else {})
            assert action == int(ref.choice(len(probs), p=probs))
    assert probs[action] > 0
    assert ours.bit_generator.state == ref.bit_generator.state


def test_action_cdf_keeps_the_checks_of_generator_choice():
    rng = np.random.default_rng(0)
    off = 2 * PROB_SUM_TOL
    for bad in ([0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [1.2, -0.2],
                [0.5, 0.5 + off], [0.5, 0.5 - off]):
        probs = np.array(bad)
        with pytest.raises(ValueError):
            rng.choice(len(probs), p=probs)
        with pytest.raises(ValueError):
            action_cdf(probs)
    near = np.array([0.5, 0.5 + PROB_SUM_TOL / 2])  # inside the tolerance
    rng.choice(2, p=near)
    cdf = action_cdf(near)
    assert cdf[-1] == 1.0 and cdf[0] == 0.5 / near.sum()


def desk_episode(choose):
    """One desk-profile episode's decisions under `choose`."""
    cfg = desk_profile()
    sim = Simulation(NET, spawn_schedule(NET, count=cfg.vehicles, seed=83,
                                         horizon=cfg.spawn_horizon),
                     yellow_duration=cfg.train.yellow_duration)
    transitions, _ = drive_episode(sim, choose, green_duration=cfg.train.green_duration,
                                   max_decisions=cfg.train.max_agent_steps)
    return transitions


def test_chooser_memo_samples_as_plain_select_action_calls():
    learner = Learner(desk_profile().train, seed=11)
    net = learner.agent.net
    rng = np.random.default_rng(np.random.SeedSequence([11, AGENT_STREAM]))
    with_memo = desk_episode(learner.chooser())
    plain = desk_episode(lambda state: select_action(net, state, rng, {}))
    assert [a for _, a, _ in with_memo] == [a for _, a, _ in plain]
    assert learner._rng.bit_generator.state == rng.bit_generator.state
    # The episode repeats states, so the memo was hit.
    assert len({s.tobytes() for s, _, _ in with_memo}) < len(with_memo)


def test_chooser_runs_one_forward_per_distinct_state(monkeypatch):
    calls = []

    def counting_forward(net, state):
        calls.append(state.tobytes())
        return forward(net, state)

    monkeypatch.setattr(pgagent, "forward", counting_forward)
    transitions = desk_episode(Learner(desk_profile().train, seed=11).chooser())
    distinct = {s.tobytes() for s, _, _ in transitions}
    assert len(calls) == len(set(calls)) == len(distinct) < len(transitions)


def test_chooser_rejects_a_wrong_shaped_state_on_every_call():
    choose = Learner(small_cfg(), seed=2).chooser()
    choose(np.zeros(80))
    for _ in range(2):
        with pytest.raises(ValueError):
            choose(np.zeros(40))
        with pytest.raises(ValueError):
            choose(np.zeros((80, 1)))  # the bytes of a state already seen


# ---------------------------------------------------------------- training

def test_learning_run_deterministic_and_complete():
    cfg = RunConfig(train=small_cfg(episodes=3, max_agent_steps=30),
                    vehicles=60, spawn_horizon=40)

    def once():
        return run_experiment(cfg, "rl", 42)

    run_a = once()
    run_b = once()
    hist_a, hist_b = run_a.metrics, run_b.metrics
    assert len(hist_a) == 3
    assert all(isinstance(m, EpisodeMetrics) for m in hist_a)
    assert hist_a == hist_b
    for wa, wb in zip(run_a.network.weights, run_b.network.weights):
        assert np.array_equal(wa, wb)
    assert [m.episode for m in hist_a] == [0, 1, 2]
    assert all(m.sim_time_s > 0 for m in hist_a)


def test_learner_skips_single_trace_update_then_steps():
    learner = Learner(small_cfg(max_agent_steps=20), seed=1)
    steps = []
    for episode in range(2):
        sim = Simulation(NET, spawn_schedule(NET, count=30, seed=episode, horizon=20))
        transitions, _ = drive_episode(sim, learner.chooser(), green_duration=4,
                                       max_decisions=20)
        learner.end_episode(episode, transitions)
        steps.append(learner.agent.opt.step)
    # Episode 0's batch is one trace, which centers itself to zero.
    assert steps == [0, 1]
