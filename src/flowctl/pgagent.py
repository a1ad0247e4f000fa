"""Policy-gradient signal control: score-function updates with a baseline.

The agent observes the 80-cell occupancy grid, picks one of the four signal
phases, holds it for a fixed green interval (plus the amber interval when
the phase changes), and receives the drop in accrued queue waiting time as
its reward.  Decisions land in a bounded replay memory, four arrays in
decision order (`Memory`); after every episode a batch is drawn, kept in
that order, split into per-episode traces where the episode changes, turned
into discounted returns, centered by a baseline, and pushed through one
ascent step on log-likelihood weighted by advantage.

The default baseline is the across-trace mean return at each trace position
(positions carried by longer traces only average over the traces that reach
them).  Optionally a small learned state-value network replaces it; that
head is fitted on the same batch with one mean-squared-error step per
update.

Because sampled batches are drawn from the memory uniformly, a trace drawn
here is generally a *subsequence* of the original episode; returns are
computed over the subsequence as-is.  This keeps the memory semantics
simple and bounded at the cost of a biased return estimate: a uniform
draw of `batch_size` rows keeps about `batch_size / buffer_capacity` of
each stored episode, half of it in the desk profile (200 of 400) and
about 4% at paper scale (200 of 4500).

`drive_episode` runs one episode's decisions for any phase chooser, and
`Learner` carries the agent, its random stream and the replay memory from
one episode to the next.  The episode loop itself, shared by fixed-time
and learned control, is `harness.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from .neuralnet import (
    INPUT_SIZE,
    OptimizerState,
    PolicyNetwork,
    accumulate_logp_gradients,
    apply_update,
    forward,
    init_network,
    init_optimizer,
    init_value_network,
    value_fit_step,
    value_forward,
)
from .simcore import Simulation

AGENT_STREAM = 1  # seed-sequence lane for the agent's own randomness
PROB_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)  # as Generator.choice allows


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for training and for the decision cadence."""

    episodes: int = 200
    batch_size: int = 200
    buffer_capacity: int = 4500
    gamma: float = 0.5
    green_duration: int = 4
    yellow_duration: int = 2
    max_agent_steps: int = 2500
    hidden_width: int = 200
    hidden_count: int = 3
    learning_rate: float = 1e-3
    use_value_baseline: bool = False
    value_hidden_width: int = 64

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.green_duration < 1:
            raise ValueError("green_duration must be >= 1")
        if self.yellow_duration < 1:
            raise ValueError("yellow_duration must be >= 1")
        if self.max_agent_steps < 1:
            raise ValueError("max_agent_steps must be >= 1")
        if self.hidden_width < 1 or self.hidden_count < 1:
            raise ValueError("hidden layers must be at least 1x1")
        if self.value_hidden_width < 1:
            raise ValueError("value_hidden_width must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


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
class AgentState:
    """Everything the learner mutates between episodes."""

    net: PolicyNetwork
    opt: OptimizerState
    value_net: PolicyNetwork | None = None
    value_opt: OptimizerState | None = None


class Memory(NamedTuple):
    """The replay memory, one row per decision, oldest first: so episodes
    run in order and each episode's decisions in step order."""

    states: np.ndarray    # (n, INPUT_SIZE) float64
    actions: np.ndarray   # (n,) int64
    rewards: np.ndarray   # (n,) float64
    episodes: np.ndarray  # (n,) int64


def init_agent(cfg: TrainConfig, seed: int) -> AgentState:
    net = init_network(cfg.hidden_width, cfg.hidden_count, seed=seed)
    opt = init_optimizer(net, cfg.learning_rate)
    if cfg.use_value_baseline:
        vnet = init_value_network(cfg.value_hidden_width, seed=seed + 1)
        vopt = init_optimizer(vnet, cfg.learning_rate)
        return AgentState(net, opt, vnet, vopt)
    return AgentState(net, opt)


def action_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative distribution `rng.choice(len(probs), p=probs)` draws
    from, after its checks: finite, non-negative, summing to 1."""
    if not (np.isfinite(probs).all() and (probs >= 0).all()
            and abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL):
        raise ValueError(f"not a probability vector: {probs}")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def select_action(net: PolicyNetwork, state: np.ndarray,
                  rng: np.random.Generator, memo: dict) -> int:
    """Sample a phase from the policy's probabilities at `state`: one
    `rng.random()` searched in `action_cdf`, the same draw and action as
    `rng.choice` without its checks on every call.

    `memo` holds the distributions of the states already seen under this
    same `net`, keyed by shape and float64 bytes, so a repeated state costs
    no forward pass and no check.
    """
    x = np.asarray(state, dtype=np.float64)
    key = (x.shape, x.tobytes())
    cdf = memo.get(key)
    if cdf is None:
        cdf = memo[key] = action_cdf(forward(net, x))
    return int(cdf.searchsorted(rng.random(), side="right"))


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Backward recurrence R_t = r_t + gamma * R_{t+1}."""
    out = np.zeros(len(rewards), dtype=np.float64)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def positional_baseline(returns_by_trace: list[np.ndarray]) -> np.ndarray:
    """Mean return at each position across the traces that reach it."""
    if not returns_by_trace:
        return np.zeros(0)
    longest = max(len(r) for r in returns_by_trace)
    sums = np.zeros(longest)
    counts = np.zeros(longest)
    for r in returns_by_trace:
        sums[:len(r)] += r
        counts[:len(r)] += 1
    return sums / counts


def policy_update(agent: AgentState, memory: Memory,
                  rng: np.random.Generator, cfg: TrainConfig) -> AgentState:
    """One ascent step from a uniformly drawn batch.  The drawn rows are
    sorted, so in memory order, and each episode's rows form one trace."""
    n = len(memory.actions)
    if n == 0:
        return agent
    idx = np.sort(rng.choice(n, size=min(cfg.batch_size, n), replace=False))
    states, actions = memory.states[idx], memory.actions[idx]
    cuts = np.flatnonzero(np.diff(memory.episodes[idx])) + 1
    returns = [discounted_returns(trace, cfg.gamma)
               for trace in np.split(memory.rewards[idx], cuts)]
    flat_returns = np.concatenate(returns)

    value_net, value_opt = agent.value_net, agent.value_opt
    if cfg.use_value_baseline:
        predicted = value_forward(value_net, states)
        advantages = flat_returns - predicted
        value_net, value_opt = value_fit_step(value_net, value_opt,
                                              states, flat_returns)
    else:
        baseline = positional_baseline(returns)
        advantages = np.concatenate(
            [r - baseline[:len(r)] for r in returns])

    coeffs = advantages / len(returns)
    if not np.any(coeffs):
        # Degenerate batch (e.g. a single trace centers itself to zero):
        # leave parameters and optimizer moments untouched.
        return AgentState(agent.net, agent.opt, value_net, value_opt)
    grads = accumulate_logp_gradients(agent.net, states, actions, coeffs)
    net, opt = apply_update(agent.net, grads, 1.0, agent.opt)
    return AgentState(net, opt, value_net, value_opt)


def drive_episode(sim: Simulation, choose_action, *, green_duration: int,
                  max_decisions: int, boundary_hook=None):
    """Run the decision loop until the traffic clears or limits hit.

    choose_action(state) -> phase.  Rewards are measured once per decision
    as the drop in cumulative waiting, so they telescope exactly over the
    episode.  boundary_hook(sim, readings), if given, is handed the
    readings that `sim.step()` returns at every detector window boundary.

    Returns (transitions, cum_negative_reward).
    """
    transitions: list[tuple[np.ndarray, int, float]] = []
    cum_negative = 0.0
    prev_phase = sim.signals.phase
    prev_wait = sim.cumulative_wait()
    decisions = 0
    while not sim.done and decisions < max_decisions:
        state = sim.read_sensors()
        action = int(choose_action(state))
        sim.set_phase(action)
        steps = green_duration
        if action != prev_phase:
            steps += sim.signals.yellow_duration
        prev_phase = action
        for _ in range(steps):
            readings = sim.step()
            if readings is not None and boundary_hook is not None:
                boundary_hook(sim, readings)
            if sim.done:
                break
        current_wait = sim.cumulative_wait()
        reward = float(prev_wait - current_wait)  # positive when waiting fell
        prev_wait = current_wait
        if reward < 0:
            cum_negative += reward
        transitions.append((state, action, reward))
        decisions += 1
    return transitions, cum_negative


def fixed_cycle_policy():
    """A stateful phase chooser that walks 0,1,2,3 forever, ignoring input."""
    counter = {"next": 0}

    def choose(_state) -> int:
        phase = counter["next"]
        counter["next"] = (phase + 1) % 4
        return phase

    return choose


class Learner:
    """The trainer across episodes: the agent, its random stream and the
    replay memory.  The stream serves the episode's sampled actions first,
    then the batch drawn for the update that follows it."""

    def __init__(self, cfg: TrainConfig, seed: int):
        self._cfg = cfg
        self.agent = init_agent(cfg, seed)
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, AGENT_STREAM]))
        self._memory = Memory(np.zeros((0, INPUT_SIZE)), np.zeros(0, np.int64),
                              np.zeros(0), np.zeros(0, np.int64))

    def chooser(self):
        """A phase chooser sampling from the current policy, valid for one
        episode: `end_episode` updates the net in place, and the chooser's
        memo holds probabilities computed before.  Within the episode the
        net stays fixed, so each distinct state costs one forward pass."""
        net, rng, memo = self.agent.net, self._rng, {}
        return lambda state: select_action(net, state, rng, memo)

    def end_episode(self, episode: int, transitions) -> None:
        """Append the episode's (state, action, reward) decisions to the
        memory, drop the oldest beyond its capacity, then take one policy
        update."""
        if transitions:
            states, actions, rewards = zip(*transitions)
            rows = (np.stack(states), np.array(actions, np.int64), np.array(rewards),
                    np.full(len(actions), episode, np.int64))
            cap = self._cfg.buffer_capacity
            self._memory = Memory(*(np.concatenate((kept, new))[-cap:]
                                    for kept, new in zip(self._memory, rows)))
        self.agent = policy_update(self.agent, self._memory, self._rng, self._cfg)
