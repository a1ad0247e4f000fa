"""Hand-written feedforward policy network: ReLU hidden layers, softmax head.

Everything is float64 numpy with explicit backpropagation — no autograd.
Parameter containers are frozen dataclasses, but the arrays they hold are
not snapshots: apply_update writes the new parameters and Adam moments into
the arrays it was given.  Copy an array to keep its value across an update.
apply_update ascends the gradients it is given: the policy passes those of
its objective, and the value head the descent direction of its MSE.

The batched calls (activations, backprop, accumulate_logp_gradients and
apply_update) take optional `BatchBuffers`: every layer's batch
activations, which backprop overwrites with the deltas, the gradient
arrays and Adam's block scratch.  Only buffers passed in are reused.  A call
given them writes into them and returns views of them, valid until the
next call given the same buffers; a call without them returns fresh arrays
and keeps nothing, and the module holds no buffers of its own.  Either way
the results are the same bits.  `pgagent.Learner` owns one set for its
policy net, so the set lives as long as the run; an update allocates
afresh only batch arrays as wide as the head and each hidden layer's
boolean ReLU mask.

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
import math
import struct

import numpy as np

from . import checked_int

INPUT_SIZE = 80
OUTPUT_SIZE = 4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of an Adam update: the block's slices of a parameter,
# its gradient, both moments and two scratch arrays take 1.5 MiB, so the
# operations of one block run in a 2 MiB L2 cache.  A width-600 update,
# with its scratch from BatchBuffers and BLAS on one thread, took 7.38,
# 6.91, 6.60, 6.72 and 7.12 ms at blocks of 8192, 16384, 32768, 65536 and
# 131072 elements (the median of three runs, each the median of 60
# interleaved repeats, on a 2-CPU Xeon host), with the same bits at every
# block.
ADAM_BLOCK = 32768

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
                 output_size: int = OUTPUT_SIZE) -> PolicyNetwork:
    """He-initialized network: INPUT_SIZE -> hidden_width x hidden_count ->
    output_size."""
    hidden_width = checked_int(hidden_width, "hidden_width", 1)
    hidden = [hidden_width] * checked_int(hidden_count, "hidden_count", 1)
    sizes = [INPUT_SIZE] + hidden + [checked_int(output_size, "output_size", 1)]
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(_he_layer(rng, n_out, n_in))
        biases.append(np.zeros(n_out))
    return PolicyNetwork(weights=tuple(weights), biases=tuple(biases))


def init_optimizer(net: PolicyNetwork, learning_rate: float) -> OptimizerState:
    if not 0 < learning_rate < math.inf:
        raise ValueError("learning_rate must be finite and positive")
    # Each moment gets its own array, since apply_update writes into them.
    # np.zeros leaves the pages untouched until the first update.
    params = net.weights + net.biases
    return OptimizerState(m=tuple(np.zeros(p.shape) for p in params),
                          v=tuple(np.zeros(p.shape) for p in params),
                          step=0, learning_rate=learning_rate)


@dataclass(frozen=True)
class BatchBuffers:
    """Work arrays for batches of up to `acts[0].shape[0]` rows through nets
    of one shape; see the module notes for who may reuse them."""

    acts: tuple[np.ndarray, ...]        # (batch, out) per layer, head last
    grads: PolicyNetwork
    adam: tuple[np.ndarray, np.ndarray]  # ADAM_BLOCK each, in the memory of `acts`


def _empty_like(net: PolicyNetwork) -> PolicyNetwork:
    return PolicyNetwork(weights=tuple(np.empty(w.shape) for w in net.weights),
                         biases=tuple(np.empty(b.shape) for b in net.biases))


def init_buffers(net: PolicyNetwork, batch_size: int) -> BatchBuffers:
    """Buffers for batches of up to batch_size rows through nets shaped as
    `net`.  The Adam scratch, ADAM_BLOCK elements in each of its two
    arrays, shares one array with the activations, which an update has
    spent by the time it runs."""
    sizes = net.layer_sizes
    lengths = [batch_size * n for n in sizes[1:]]
    work = np.empty(max(sum(lengths), 2 * ADAM_BLOCK))
    return BatchBuffers(
        acts=tuple(part.reshape(batch_size, n)
                   for part, n in zip(np.split(work, np.cumsum(lengths)), sizes[1:])),
        grads=_empty_like(net), adam=tuple(work[:2 * ADAM_BLOCK].reshape(2, ADAM_BLOCK)))


def activations(net: PolicyNetwork, states: np.ndarray,
                buffers: BatchBuffers | None = None) -> list[np.ndarray]:
    """Every layer's outputs for a (batch, input) array: [input, hidden...,
    head].  Hidden layers are ReLU; the head is linear.  Each output is the
    first rows of its `buffers.acts` array, or a fresh array."""
    acts = [states]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(acts[i], w.T,
                      out=None if buffers is None else buffers.acts[i][:len(states)])
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def backprop(net: PolicyNetwork, acts: list[np.ndarray], delta: np.ndarray,
             buffers: BatchBuffers | None = None) -> PolicyNetwork:
    """Parameter gradients, summed over the batch, given the activations
    and the (batch, output) derivative of the objective at the head.

    The gradients go into `buffers.grads`, or into fresh arrays.  Each
    hidden layer's activations are overwritten by its delta once read; its
    ReLU mask is a fresh boolean array either way."""
    grads = _empty_like(net) if buffers is None else buffers.grads
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            active = acts[i] > 0.0
            delta = np.matmul(delta, net.weights[i], out=acts[i])
            delta *= active
    return grads


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
                              actions: np.ndarray, coefficients: np.ndarray,
                              buffers: BatchBuffers | None = None) -> PolicyNetwork:
    """Sum_i coefficients[i] * grad log pi(actions[i] | states[i]), batched.

    The logit-level gradient of log-softmax is onehot(action) - probs.
    Given buffers, the gradients returned are `buffers.grads`.
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

    acts = activations(net, states, buffers)
    delta = -_softmax(acts[-1])
    delta[np.arange(n), actions] += 1.0
    delta *= coefficients[:, None]
    return backprop(net, acts, delta, buffers)


def apply_update(net: PolicyNetwork, grads: PolicyNetwork, opt: OptimizerState,
                 buffers: BatchBuffers | None = None,
                 ) -> tuple[PolicyNetwork, OptimizerState]:
    """Ascend grads, as given, via adaptive moment estimation, in place.

    The new parameters and moments are written into the arrays of `net` and
    `opt`, ADAM_BLOCK elements at a time, through `buffers.adam`'s scratch
    or fresh scratch of that size.  The returned net and
    state hold those same arrays, with the step counter advanced.  Every
    input is checked before the first write to a parameter or moment, so a
    rejected update changes none of them; the check's flags go in the
    scratch.
    """
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
    scratch_g, scratch_step = np.empty((2, ADAM_BLOCK)) if buffers is None else buffers.adam
    # The finiteness check writes its flags into the scratch, seen as bools,
    # one chunk of a gradient at a time, so it allocates nothing per update.
    finite = scratch_g.view(bool)
    for g in grads.weights + grads.biases:
        g = g.reshape(-1)
        for lo in range(0, g.size, finite.size):
            chunk = g[lo:lo + finite.size]
            if not np.isfinite(chunk, out=finite[:chunk.size]).all():
                raise ValueError("gradient contains non-finite values")
    t = opt.step + 1
    corr1 = 1.0 - ADAM_BETA1 ** t
    corr2 = 1.0 - ADAM_BETA2 ** t

    # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) (g g);
    # param += lr (m / corr1) / (sqrt(v / corr2) + eps).  Each
    # operation is the one the plain expressions would do, in the same order,
    # elementwise, so the result is the same to the bit whatever the blocks.
    for param, g, m, v in groups:
        param, g, m, v = (a.reshape(-1) for a in (param, g, m, v))
        for lo in range(0, param.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, param.size)
            gb, step = scratch_g[:hi - lo], scratch_step[:hi - lo]
            mb, vb = m[lo:hi], v[lo:hi]
            np.multiply(g[lo:hi], 1.0 - ADAM_BETA1, out=step)
            mb *= ADAM_BETA1
            mb += step
            np.multiply(g[lo:hi], g[lo:hi], out=gb)
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
        fh.write(blob)


# ------------------------------------------------- optional value baseline

def init_value_network(hidden_width: int, seed: int = 0) -> PolicyNetwork:
    """Small scalar-output net used as a learned baseline when enabled."""
    return init_network(hidden_width, 1, seed=seed, output_size=1)


def value_forward(net: PolicyNetwork, states: np.ndarray) -> np.ndarray:
    """Raw linear head outputs for a (batch, input) array, shape (batch,)."""
    return activations(net, np.asarray(states, dtype=np.float64))[-1][:, 0]


def value_fit_step(net: PolicyNetwork, opt: OptimizerState, states: np.ndarray,
                   targets: np.ndarray) -> tuple[PolicyNetwork, OptimizerState]:
    """One mean-squared-error descent step toward the targets: the update
    ascends -MSE, whose gradient backprop returns from the head's
    -d(MSE)/d(pred) = 2 (target - pred) / n."""
    states = np.asarray(states, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    acts = activations(net, states)
    delta = 2.0 * (targets - acts[-1][:, 0])[:, None] / len(states)
    return apply_update(net, backprop(net, acts, delta), opt)
