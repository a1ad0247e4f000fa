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

`drive_episode` runs one episode's decisions, for a phase chooser or,
given None, for fixed-time control, which cycles the phases from 0 and
reads no sensors.  `Learner` carries the agent, its random stream, the
replay memory and the buffers of its updates from one episode to the next.  The episode loop itself,
shared by fixed-time and learned control, is `harness.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from . import checked_int
from .neuralnet import (
    INPUT_SIZE,
    BatchBuffers,
    OptimizerState,
    PolicyNetwork,
    accumulate_logp_gradients,
    apply_update,
    forward,
    init_buffers,
    init_network,
    init_optimizer,
    init_value_network,
    value_fit_step,
    value_forward,
)
from .simcore import PHASE_COUNT, YELLOW_DURATION, Simulation

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
    yellow_duration: int = YELLOW_DURATION
    max_agent_steps: int = 2500
    hidden_width: int = 200
    hidden_count: int = 3
    learning_rate: float = 1e-3
    use_value_baseline: bool = False
    value_hidden_width: int = 64

    def __post_init__(self):
        for name in ("episodes", "batch_size", "buffer_capacity", "green_duration",
                     "yellow_duration", "max_agent_steps", "hidden_width",
                     "hidden_count", "value_hidden_width"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, 1))
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")


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
                  rng: np.random.Generator, cfg: TrainConfig,
                  buffers: BatchBuffers | None = None) -> AgentState:
    """One ascent step from a uniformly drawn batch.  The drawn rows are
    sorted, so in memory order, and each episode's rows form one trace.
    The policy net's batch arrays go into `buffers`, if given, which must
    hold cfg.batch_size rows."""
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
    grads = accumulate_logp_gradients(agent.net, states, actions, coeffs, buffers)
    net, opt = apply_update(agent.net, grads, agent.opt, buffers)
    return AgentState(net, opt, value_net, value_opt)


def drive_episode(sim: Simulation, choose_action, *, green_duration: int,
                  max_decisions: int, boundary_hook=None):
    """Run the decision loop until the traffic clears or limits hit.

    choose_action(state) -> phase, where the state is `sim.read_sensors()`.
    With choose_action None the control is fixed-time: decision i sets
    phase i % PHASE_COUNT, no sensor is read, and each transition's state
    is None.  Rewards are measured once per decision as the drop in
    cumulative waiting, so they telescope exactly over the episode.
    boundary_hook(sim, readings), if given, is handed the readings that
    `sim.step()` returns at every detector window boundary.

    Returns (transitions, cum_negative_reward).
    """
    green_duration = checked_int(green_duration, "green_duration", 1)
    max_decisions = checked_int(max_decisions, "max_decisions", 1)
    transitions: list[tuple[np.ndarray | None, int, float]] = []
    cum_negative = 0.0
    prev_wait = sim.cumulative_wait()
    decisions = 0
    while not sim.done and decisions < max_decisions:
        if choose_action is None:
            state, action = None, decisions % PHASE_COUNT
        else:
            state = sim.read_sensors()
            action = int(choose_action(state))
        steps = green_duration
        if action != sim.phase:
            steps += sim.yellow_duration
        sim.set_phase(action)
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


class Learner:
    """The trainer across episodes: the agent, its random stream, the
    replay memory and the batch buffers of the policy's updates, which are
    freed with the learner.  The stream serves the episode's sampled
    actions first, then the batch drawn for the update that follows it."""

    def __init__(self, cfg: TrainConfig, seed: int):
        self._cfg = cfg
        self.agent = init_agent(cfg, seed)
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, AGENT_STREAM]))
        self._memory = Memory(np.zeros((0, INPUT_SIZE)), np.zeros(0, np.int64),
                              np.zeros(0), np.zeros(0, np.int64))
        self._buffers = init_buffers(self.agent.net, cfg.batch_size)

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
            # Drop the oldest rows before joining, so the arrays the memory
            # keeps are `cap` rows long, not `cap` plus the episode's.
            cap = self._cfg.buffer_capacity
            drop = max(0, len(self._memory.actions) + len(actions) - cap)
            self._memory = Memory(*(np.concatenate((kept[drop:], new))[-cap:]
                                    for kept, new in zip(self._memory, rows)))
        self.agent = policy_update(self.agent, self._memory, self._rng, self._cfg,
                                   self._buffers)
