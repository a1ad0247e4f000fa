"""The value head's fit against a frozen copy of the fit it replaced.

`reference_fit_step` is the earlier `value_fit_step`: it backpropagated
the head's d(MSE)/d(pred) = 2 (pred - target) / n and asked
`reference_update`, the earlier `apply_update`, to ascend that gradient
scaled by -1.0.  The fit now backpropagates 2 (target - pred) / n and
ascends the result as given.  Negation is exact and commutes with every
rounding in the matrix products, the batch sums and the ReLU mask, so
both must write the same bits.

Hypothesis draws value-head widths, batch sizes, fit lengths and batches
whose targets include rows equal to the current prediction, so the head's
derivative holds exact zeros.  After every fit step both sides must agree
bit for bit on the weights, biases, Adam moments and step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from flowctl.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    INPUT_SIZE,
    OptimizerState,
    PolicyNetwork,
    activations,
    backprop,
    init_optimizer,
    init_value_network,
    value_fit_step,
    value_forward,
)


def reference_update(net: PolicyNetwork, grads: PolicyNetwork, scale: float,
                     opt: OptimizerState) -> tuple[PolicyNetwork, OptimizerState]:
    """The earlier Adam step on scale * grads, block by block, in place."""
    scratch_g, scratch_step = np.empty((2, ADAM_BLOCK))
    t = opt.step + 1
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    for param, g, m, v in zip(net.weights + net.biases, grads.weights + grads.biases,
                              opt.m, opt.v, strict=True):
        param, g, m, v = (a.reshape(-1) for a in (param, g, m, v))
        for lo in range(0, param.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, param.size)
            gb, step = scratch_g[:hi - lo], scratch_step[:hi - lo]
            mb, vb = m[lo:hi], v[lo:hi]
            np.multiply(g[lo:hi], scale, out=gb)
            np.multiply(gb, 1.0 - ADAM_BETA1, out=step)
            mb *= ADAM_BETA1
            mb += step
            gb *= gb
            gb *= 1.0 - ADAM_BETA2
            vb *= ADAM_BETA2
            vb += gb
            np.divide(mb, corr1, out=step)
            step *= opt.learning_rate
            np.divide(vb, corr2, out=gb)
            np.sqrt(gb, out=gb)
            gb += ADAM_EPS
            step /= gb
            param[lo:hi] += step
    return (PolicyNetwork(weights=net.weights, biases=net.biases),
            OptimizerState(opt.m, opt.v, t, opt.learning_rate))


def reference_fit_step(net: PolicyNetwork, opt: OptimizerState, states: np.ndarray,
                       targets: np.ndarray) -> tuple[PolicyNetwork, OptimizerState]:
    """The earlier fit: descend the MSE by ascending its gradient times -1."""
    acts = activations(net, states)
    delta = 2.0 * (acts[-1][:, 0] - targets)[:, None] / len(states)
    return reference_update(net, backprop(net, acts, delta), -1.0, opt)


def copied(net: PolicyNetwork) -> PolicyNetwork:
    return PolicyNetwork(tuple(w.copy() for w in net.weights),
                         tuple(b.copy() for b in net.biases))


def same_bits(a, b) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b, strict=True))


# No shrink phase: a failure is reported as drawn.  The example is the
# learner's default value head (width 64) at its default batch of 200.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@example(width=64, batch=200, steps=5, learning_rate=1e-3, seed=0)
@given(width=st.integers(1, 80), batch=st.integers(1, 250), steps=st.integers(1, 5),
       learning_rate=st.sampled_from([1e-3, 1e-2, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_value_fit_writes_the_bits_of_the_negated_descent(
        width, batch, steps, learning_rate, seed):
    net = init_value_network(width, seed=seed)
    opt = init_optimizer(net, learning_rate)
    ref_net = copied(net)
    ref_opt = init_optimizer(ref_net, learning_rate)
    draws = np.random.default_rng(seed)
    for t in range(1, steps + 1):
        # Sensor-like states with repeats, returns of either sign, and some
        # targets equal to the current prediction.
        states = draws.integers(0, 3, (batch, INPUT_SIZE)) / 2.0
        targets = draws.normal(0.0, 40.0, batch)
        tied = draws.random(batch) < 0.25
        targets[tied] = value_forward(net, states)[tied]
        net, opt = value_fit_step(net, opt, states, targets)
        ref_net, ref_opt = reference_fit_step(ref_net, ref_opt, states, targets)
        assert opt.step == ref_opt.step == t
        assert same_bits(net.weights + net.biases + opt.m + opt.v,
                         ref_net.weights + ref_net.biases + ref_opt.m + ref_opt.v)
