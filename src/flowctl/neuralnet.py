"""Hand-written feedforward policy network: ReLU hidden layers, softmax head.

Everything is float64 numpy with explicit backpropagation — no autograd.
Parameter containers are frozen dataclasses, but the arrays they hold are
not snapshots: apply_update writes the new parameters and Adam moments into
the arrays it was given.  Copy an array to keep its value across an update.

Persistence format (little-endian):

    bytes 0..7    magic b"FLOWNN01"
    uint32        format version (1)
    uint32        number of layer sizes L
    uint32 * L    layer sizes, input first
    float64 ...   parameter payload: W0, b0, W1, b1, ... row-major

The payload length matches the header exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

import numpy as np

INPUT_SIZE = 80
OUTPUT_SIZE = 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DEFAULT_LEARNING_RATE = 1e-3
# Elements per block of an Adam update: the block's slices of a parameter,
# its gradient, both moments and two scratch arrays take 384 KiB, so the
# operations of one block run in cache.
ADAM_BLOCK = 8192

_MAGIC = b"FLOWNN01"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PolicyNetwork:
    """Weight/bias stacks for a fully connected net; W[i] has shape (out, in).

    apply_update changes the arrays in place, so a net passed to it is
    updated, not kept."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


@dataclass(frozen=True)
class OptimizerState:
    """First and second moment estimates, ordered as the network's weights
    then its biases, plus the step counter.  apply_update changes `m` and
    `v` in place."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step: int
    learning_rate: float


def _he_layer(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))


def init_network(hidden_width: int, hidden_count: int, seed: int = 0,
                 input_size: int = INPUT_SIZE,
                 output_size: int = OUTPUT_SIZE) -> PolicyNetwork:
    """He-initialized network: input -> hidden_width x hidden_count -> output."""
    if hidden_width < 1 or hidden_count < 1:
        raise ValueError("hidden_width and hidden_count must be >= 1")
    sizes = [input_size] + [hidden_width] * hidden_count + [output_size]
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(_he_layer(rng, n_out, n_in))
        biases.append(np.zeros(n_out))
    return PolicyNetwork(weights=tuple(weights), biases=tuple(biases))


def init_optimizer(net: PolicyNetwork,
                   learning_rate: float = DEFAULT_LEARNING_RATE) -> OptimizerState:
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    # Each moment gets its own array, since apply_update writes into them.
    # np.zeros leaves the pages untouched until the first update.
    params = net.weights + net.biases
    return OptimizerState(m=tuple(np.zeros(p.shape) for p in params),
                          v=tuple(np.zeros(p.shape) for p in params),
                          step=0, learning_rate=learning_rate)


def activations(net: PolicyNetwork, states: np.ndarray) -> list[np.ndarray]:
    """Every layer's outputs for a (batch, input) array: [input, hidden...,
    head].  Hidden layers are ReLU; the head is linear."""
    acts = [states]
    h = states
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts


def backprop(net: PolicyNetwork, acts: list[np.ndarray],
             delta: np.ndarray) -> PolicyNetwork:
    """Parameter gradients, summed over the batch, given the activations
    and the (batch, output) derivative of the objective at the head."""
    grads_w: list[np.ndarray] = []
    grads_b: list[np.ndarray] = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[i])
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ net.weights[i]) * (acts[i] > 0)
    return PolicyNetwork(weights=tuple(reversed(grads_w)), biases=tuple(reversed(grads_b)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(net: PolicyNetwork, state) -> np.ndarray:
    """Action probabilities for one state (softmax over the final layer)."""
    x = np.asarray(state, dtype=np.float64)
    expected = net.weights[0].shape[1]
    if x.shape != (expected,):
        raise ValueError(f"state must have shape ({expected},), got {x.shape}")
    return _softmax(activations(net, x[None, :])[-1])[0]


def accumulate_logp_gradients(net: PolicyNetwork, states: np.ndarray,
                              actions: np.ndarray, coefficients: np.ndarray) -> PolicyNetwork:
    """Sum_i coefficients[i] * grad log pi(actions[i] | states[i]), batched.

    The logit-level gradient of log-softmax is onehot(action) - probs.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    n = states.shape[0]
    if states.ndim != 2 or states.shape[1] != net.weights[0].shape[1]:
        raise ValueError("states must be a (batch, input) array")
    if actions.shape != (n,) or coefficients.shape != (n,):
        raise ValueError("actions/coefficients must match the batch length")
    n_actions = net.weights[-1].shape[0]
    bad = (actions < 0) | (actions >= n_actions)
    if bad.any():
        raise ValueError(f"action must be in 0..{n_actions - 1}, got {actions[bad][0]}")

    acts = activations(net, states)
    delta = -_softmax(acts[-1])
    delta[np.arange(n), actions] += 1.0
    delta *= coefficients[:, None]
    return backprop(net, acts, delta)


def apply_update(net: PolicyNetwork, grads: PolicyNetwork, scale: float,
                 opt: OptimizerState) -> tuple[PolicyNetwork, OptimizerState]:
    """Ascend scale*grads via adaptive moment estimation, in place.

    The new parameters and moments are written into the arrays of `net` and
    `opt`, ADAM_BLOCK elements at a time; the returned net and state hold
    those same arrays, with the step counter advanced.  Every input is
    checked before the first write, so a rejected update changes nothing.
    """
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    groups = list(zip(net.weights + net.biases, grads.weights + grads.biases,
                      opt.m, opt.v, strict=True))
    for param, g, m, v in groups:
        if not g.shape == m.shape == v.shape == param.shape:
            raise ValueError(f"gradient {g.shape} and moments {m.shape}, {v.shape} "
                             f"do not match parameter {param.shape}")
        # A reshape of a non-contiguous array is a copy, and the update
        # written into it would be lost.
        if not all(a.flags.c_contiguous and a.flags.writeable for a in (param, m, v)):
            raise ValueError("parameters and moments must be C-contiguous and writeable")
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient contains non-finite values")
    t = opt.step + 1
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t
    scratch_g, scratch_step = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)

    # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) (g g), with g
    # scaled first; param += lr (m / corr1) / (sqrt(v / corr2) + eps).  Each
    # operation is the one the plain expressions would do, in the same order,
    # elementwise, so the result is the same to the bit whatever the blocks.
    for param, g, m, v in groups:
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

    # New containers around the same arrays: `policy_update` returns its
    # input net itself only when it skips the update.
    return (PolicyNetwork(weights=net.weights, biases=net.biases),
            OptimizerState(opt.m, opt.v, t, opt.learning_rate))


# ------------------------------------------------------------- persistence

def save_network(net: PolicyNetwork, path) -> None:
    sizes = net.layer_sizes
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _FORMAT_VERSION, len(sizes))
    blob += struct.pack(f"<{len(sizes)}I", *sizes)
    for w, b in zip(net.weights, net.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


# ------------------------------------------------- optional value baseline

def init_value_network(hidden_width: int = 64, seed: int = 0,
                       input_size: int = INPUT_SIZE) -> PolicyNetwork:
    """Small scalar-output net used as a learned baseline when enabled."""
    return init_network(hidden_width, 1, seed=seed,
                        input_size=input_size, output_size=1)


def value_forward(net: PolicyNetwork, states: np.ndarray) -> np.ndarray:
    """Raw linear head outputs for a (batch, input) array, shape (batch,)."""
    return activations(net, np.asarray(states, dtype=np.float64))[-1][:, 0]


def value_fit_step(net: PolicyNetwork, opt: OptimizerState, states: np.ndarray,
                   targets: np.ndarray) -> tuple[PolicyNetwork, OptimizerState]:
    """One mean-squared-error descent step toward the targets."""
    states = np.asarray(states, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    acts = activations(net, states)
    # d(MSE)/d(pred) = 2 (pred - target) / n
    delta = 2.0 * (acts[-1][:, 0] - targets)[:, None] / len(states)
    grads = backprop(net, acts, delta)
    return apply_update(net, grads, -1.0, opt)  # ascend the negative = descend MSE
