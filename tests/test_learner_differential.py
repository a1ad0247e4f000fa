"""`Learner` against a frozen copy of the replay memory it replaced.

`ReplayBuffer` below is the earlier memory: a bounded deque of frozen
`Transition` records, each with its episode and step.  `reference_update`
is the earlier `policy_update`: it draws the batch from a list copy of the
deque, regroups it by episode, sorts each group by step and stacks the
states.  The learner keeps the memory as four arrays in decision order
and splits the drawn rows into traces where the episode changes.

Hypothesis draws episode lengths from 0 to past the capacity, so the
memory wraps inside an episode and whole episodes drop out, together with
capacities, batch sizes, discounts, and the value baseline on and off.
After every episode both must hold the same decisions in the same order,
and agree bit for bit on the policy and value nets, their Adam moments
and step, and the state of the random stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from flowctl.neuralnet import (
    INPUT_SIZE,
    accumulate_logp_gradients,
    apply_update,
    value_fit_step,
    value_forward,
)
from flowctl.pgagent import (
    AGENT_STREAM,
    AgentState,
    Learner,
    TrainConfig,
    discounted_returns,
    init_agent,
    positional_baseline,
)


@dataclass(frozen=True)
class Transition:
    """One decision: observed state, chosen phase, resulting reward."""

    state: np.ndarray
    action: int
    reward: float
    episode: int
    step: int


class ReplayBuffer:
    """Bounded FIFO of transitions; sampling is uniform without replacement."""

    def __init__(self, capacity: int):
        self._items: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def append(self, item: Transition) -> None:
        self._items.append(item)

    def sample(self, rng: np.random.Generator, k: int) -> list[Transition]:
        idx = rng.choice(len(self._items), size=k, replace=False)
        items = list(self._items)
        return [items[i] for i in np.sort(idx)]


def reference_update(agent: AgentState, buffer: ReplayBuffer,
                     rng: np.random.Generator, cfg: TrainConfig) -> AgentState:
    """One ascent step from a uniformly drawn batch, grouped into traces."""
    if len(buffer) == 0:
        return agent
    k = min(cfg.batch_size, len(buffer))
    batch = buffer.sample(rng, k)

    groups: dict[int, list[Transition]] = {}
    for tr in batch:
        groups.setdefault(tr.episode, []).append(tr)
    traces = [sorted(groups[ep], key=lambda t: t.step) for ep in sorted(groups)]
    returns = [discounted_returns([t.reward for t in trace], cfg.gamma)
               for trace in traces]

    states = np.stack([t.state for trace in traces for t in trace])
    actions = np.array([t.action for trace in traces for t in trace], dtype=np.int64)
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

    coeffs = advantages / len(traces)
    if not np.any(coeffs):
        return AgentState(agent.net, agent.opt, value_net, value_opt)
    grads = accumulate_logp_gradients(agent.net, states, actions, coeffs)
    net, opt = apply_update(agent.net, grads, agent.opt)
    return AgentState(net, opt, value_net, value_opt)


def same_bits(a, b) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b, strict=True))


def assert_same_agent(got: AgentState, want: AgentState) -> None:
    for name in ("net", "value_net"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None)
        if g is not None:
            assert same_bits(g.weights, w.weights) and same_bits(g.biases, w.biases)
    for name in ("opt", "value_opt"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None)
        if g is not None:
            assert same_bits(g.m, w.m) and same_bits(g.v, w.v)
            assert (g.step, g.learning_rate) == (w.step, w.learning_rate)


# No shrink phase, as in the simulator's differential test: a failure is
# reported as drawn.  The first two examples are the cases of the deleted
# buffer tests: one 8-decision episode in a memory of 5 keeps its last 5
# decisions, and five 10-decision episodes in a memory of 50 draw a batch
# of 10.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@example(lengths=[8], capacity=5, batch_size=5, gamma=0.5, value_baseline=False,
         hidden_count=1, seed=0)
@example(lengths=[10] * 5, capacity=50, batch_size=10, gamma=0.5, value_baseline=False,
         hidden_count=1, seed=7)
@given(lengths=st.lists(st.integers(0, 70), min_size=1, max_size=8),
       capacity=st.integers(1, 60), batch_size=st.integers(1, 80),
       gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       value_baseline=st.booleans(), hidden_count=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_array_memory_learns_as_the_regrouping_buffer(
        lengths, capacity, batch_size, gamma, value_baseline, hidden_count, seed):
    cfg = TrainConfig(batch_size=batch_size, buffer_capacity=capacity, gamma=gamma,
                      hidden_width=8, hidden_count=hidden_count, learning_rate=1e-2,
                      use_value_baseline=value_baseline, value_hidden_width=6)
    learner = Learner(cfg, seed)
    agent = init_agent(cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, AGENT_STREAM]))
    buffer = ReplayBuffer(capacity)
    draws = np.random.default_rng(seed)
    for episode, n in enumerate(lengths):
        # Sensor-like states with repeats, and rewards of either sign.
        states = draws.integers(0, 3, (n, INPUT_SIZE)) / 2.0
        transitions = [(state, int(action), float(reward)) for state, action, reward
                       in zip(states, draws.integers(0, 4, n), draws.normal(0.0, 40.0, n))]
        learner.end_episode(episode, transitions)
        for step, (state, action, reward) in enumerate(transitions):
            buffer.append(Transition(state, action, reward, episode, step))
        agent = reference_update(agent, buffer, rng, cfg)

        items = list(buffer._items)
        memory = learner._memory
        assert memory.states.shape == (len(items), INPUT_SIZE)
        assert same_bits(memory, (
            np.stack([t.state for t in items]) if items else np.zeros((0, INPUT_SIZE)),
            np.array([t.action for t in items], np.int64),
            np.array([t.reward for t in items], np.float64),
            np.array([t.episode for t in items], np.int64)))
        assert_same_agent(learner.agent, agent)
        assert learner._rng.bit_generator.state == rng.bit_generator.state
