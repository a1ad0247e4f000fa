"""Tests for the hand-written policy network and its optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from flowctl.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    OptimizerState,
    PolicyNetwork,
    accumulate_logp_gradients,
    apply_update,
    forward,
    init_buffers,
    init_network,
    init_optimizer,
    init_value_network,
    save_network,
    value_fit_step,
    value_forward,
)

from fileformats import NetworkFormatError, load_network
from nets import he_network


def small_net(seed: int, sizes=(6, 5, 4, 3)) -> PolicyNetwork:
    """A little network with random (non-zero) biases to exercise every term."""
    rng = np.random.default_rng(seed)
    weights = tuple(rng.normal(0, 0.7, size=(o, i))
                    for i, o in zip(sizes[:-1], sizes[1:]))
    biases = tuple(rng.normal(0, 0.3, size=o) for o in sizes[1:])
    return PolicyNetwork(weights=weights, biases=biases)


def logp_gradient(net: PolicyNetwork, state, action: int) -> PolicyNetwork:
    return accumulate_logp_gradients(net, np.asarray(state)[None, :], [action], [1.0])


def scaled(grads: PolicyNetwork, scale: float) -> PolicyNetwork:
    """Fresh arrays holding scale * grads; an infinite scale turns zeros
    into NaN."""
    with np.errstate(invalid="ignore"):
        return PolicyNetwork(weights=tuple(scale * w for w in grads.weights),
                             biases=tuple(scale * b for b in grads.biases))


def numeric_logp_gradient(net: PolicyNetwork, x: np.ndarray, action: int,
                          eps: float = 1e-5) -> PolicyNetwork:
    """Central finite differences of log pi(action|x) over every parameter."""

    def logp(candidate: PolicyNetwork) -> float:
        return float(np.log(forward(candidate, x)[action]))

    def perturbed(layer: int, index, delta: float, kind: str) -> PolicyNetwork:
        ws = [w.copy() for w in net.weights]
        bs = [b.copy() for b in net.biases]
        if kind == "w":
            ws[layer][index] += delta
        else:
            bs[layer][index] += delta
        return PolicyNetwork(weights=tuple(ws), biases=tuple(bs))

    gw = []
    gb = []
    for li, w in enumerate(net.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            hi = logp(perturbed(li, idx, eps, "w"))
            lo = logp(perturbed(li, idx, -eps, "w"))
            g[idx] = (hi - lo) / (2 * eps)
        gw.append(g)
    for li, b in enumerate(net.biases):
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            hi = logp(perturbed(li, idx, eps, "b"))
            lo = logp(perturbed(li, idx, -eps, "b"))
            g[idx] = (hi - lo) / (2 * eps)
        gb.append(g)
    return PolicyNetwork(weights=tuple(gw), biases=tuple(gb))


def max_rel_error(analytic: PolicyNetwork, numeric: PolicyNetwork) -> float:
    worst = 0.0
    for a, f in zip((*analytic.weights, *analytic.biases),
                    (*numeric.weights, *numeric.biases)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


# ------------------------------------------------------------ construction

def test_init_shapes_and_determinism():
    net = init_network(200, 3, seed=42)
    assert net.layer_sizes == (80, 200, 200, 200, 4)
    again = init_network(200, 3, seed=42)
    for a, b in zip(net.weights, again.weights):
        assert np.array_equal(a, b)
    other = init_network(200, 3, seed=43)
    assert not np.array_equal(net.weights[0], other.weights[0])


def test_init_bias_zero_and_parameter_count():
    net = init_network(10, 5, seed=1)
    assert all(np.all(b == 0) for b in net.biases)
    # 80*10+10 + 4*(10*10+10) + 10*4+4
    parameter_count = sum(w.size for w in net.weights) + sum(b.size for b in net.biases)
    assert parameter_count == (80 * 10 + 10) + 4 * (10 * 10 + 10) + (10 * 4 + 4)


def test_init_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        init_network(0, 3)
    with pytest.raises(ValueError):
        init_network(16, 0)
    assert init_network(1, 1).layer_sizes == (80, 1, 4)


@pytest.mark.parametrize("built, sizes, seed", [
    (lambda: init_network(16, 2, seed=5), (80, 16, 16, 4), 5),
    (lambda: init_network(3, 1, seed=9, output_size=2), (80, 3, 2), 9),
    (lambda: init_value_network(64, seed=3), (80, 64, 1), 3),
], ids=["policy", "output_size", "value"])
def test_he_network_builds_what_init_network_builds(built, sizes, seed):
    """The tests' `he_network` stands in for the input sizes init_network
    no longer takes, so on 80 inputs it must give init_network's bits."""
    ours, theirs = he_network(sizes, seed), built()
    for a, b in zip(ours.weights + ours.biases, theirs.weights + theirs.biases, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_he_scale_is_plausible():
    net = init_network(400, 1, seed=0)
    observed = net.weights[0].std()
    assert abs(observed - np.sqrt(2.0 / 80)) < 0.01


# ----------------------------------------------------------------- forward

def test_forward_is_a_distribution():
    net = init_network(32, 2, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = forward(net, rng.random(80))
        assert p.shape == (4,)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_forward_rejects_wrong_input_shape():
    net = init_network(8, 1, seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(79))


def test_zero_final_layer_gives_uniform_probs():
    net = init_network(16, 2, seed=5)
    ws = list(net.weights)
    ws[-1] = np.zeros_like(ws[-1])
    net = PolicyNetwork(weights=tuple(ws), biases=net.biases)
    p = forward(net, np.random.default_rng(1).random(80))
    assert np.allclose(p, 0.25)


def test_softmax_shift_invariance():
    net = small_net(7)
    x = np.random.default_rng(2).random(6)
    p1 = forward(net, x)
    shifted = PolicyNetwork(
        weights=net.weights,
        biases=net.biases[:-1] + (net.biases[-1] + 500.0,),
    )
    p2 = forward(shifted, x)
    assert np.allclose(p1, p2, atol=1e-12)


# --------------------------------------------------------------- gradients

def test_logit_gradient_structure():
    # For the last-layer bias the gradient must be exactly onehot - probs.
    net = small_net(11)
    x = np.random.default_rng(3).random(6)
    p = forward(net, x)
    for action in range(3):
        g = logp_gradient(net, x, action)
        expected = -p.copy()
        expected[action] += 1.0
        assert np.allclose(g.biases[-1], expected, atol=1e-12)


def test_logp_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    cases = 0
    for trial in range(25):
        sizes = (rng.integers(3, 7), rng.integers(3, 7), rng.integers(3, 6),
                 rng.integers(2, 5))
        net = small_net(int(rng.integers(0, 10_000)), sizes=tuple(int(s) for s in sizes))
        for _ in range(4):
            x = rng.normal(0, 1, size=net.layer_sizes[0])
            action = int(rng.integers(0, net.layer_sizes[-1]))
            analytic = logp_gradient(net, x, action)
            numeric = numeric_logp_gradient(net, x, action)
            worst = max(worst, max_rel_error(analytic, numeric))
            cases += 1
    assert cases == 100
    assert worst < 1e-4, f"max relative error {worst:.3e}"


def test_logp_gradient_rejects_bad_action():
    net = small_net(1)
    states = np.zeros((2, 6))
    with pytest.raises(ValueError):
        accumulate_logp_gradients(net, states, [0, 3], np.ones(2))
    with pytest.raises(ValueError):
        accumulate_logp_gradients(net, states, [0, -1], np.ones(2))


def test_accumulate_matches_loop_of_single_gradients():
    net = small_net(21)
    rng = np.random.default_rng(4)
    states = rng.normal(0, 1, size=(17, 6))
    actions = rng.integers(0, 3, size=17)
    coeffs = rng.normal(0, 2, size=17)
    batched = accumulate_logp_gradients(net, states, actions, coeffs)
    manual_w = [np.zeros_like(w) for w in net.weights]
    manual_b = [np.zeros_like(b) for b in net.biases]
    for s, a, c in zip(states, actions, coeffs):
        g = logp_gradient(net, s, int(a))
        for i in range(len(manual_w)):
            manual_w[i] += c * g.weights[i]
            manual_b[i] += c * g.biases[i]
    for got, want in zip(batched.weights, manual_w):
        assert np.allclose(got, want, atol=1e-10)
    for got, want in zip(batched.biases, manual_b):
        assert np.allclose(got, want, atol=1e-10)


def test_buffer_less_gradients_are_independent_of_later_calls():
    net = small_net(22)
    rng = np.random.default_rng(5)
    first = accumulate_logp_gradients(net, rng.normal(size=(9, 6)),
                                      rng.integers(0, 3, 9), rng.normal(size=9))
    kept = copies(first.weights + first.biases)
    second = accumulate_logp_gradients(net, rng.normal(size=(4, 6)),
                                       rng.integers(0, 3, 4), rng.normal(size=4))
    assert same_bits(first.weights + first.biases, kept)
    assert not same_bits(second.weights + second.biases, kept)
    for a in first.weights + first.biases:
        assert not any(np.shares_memory(a, b) for b in second.weights + second.biases)


@pytest.mark.parametrize("sizes", [(6, 5, 4, 3), (6, 7, 3), (6, 3)])
def test_buffered_gradients_are_the_fresh_bits_in_the_same_arrays(sizes):
    """Batches of several sizes up to the buffers' rows, in turn, through
    one set of buffers: each call gives the bits of a buffer-less call, in
    the same gradient arrays, and leaves its states alone."""
    net = small_net(23, sizes)
    buffers = init_buffers(net, 12)
    rng = np.random.default_rng(6)
    for n in (12, 1, 7, 12, 0, 5):
        states = rng.normal(size=(n, 6))
        actions, coeffs = rng.integers(0, sizes[-1], n), rng.normal(size=n)
        before = states.copy()
        fresh = accumulate_logp_gradients(net, states, actions, coeffs)
        got = accumulate_logp_gradients(net, states, actions, coeffs, buffers)
        assert got is buffers.grads
        assert same_bits(got.weights + got.biases, fresh.weights + fresh.biases)
        assert same_bits([states], [before])
    with pytest.raises(ValueError):
        accumulate_logp_gradients(net, np.zeros((13, 6)), np.zeros(13, int),
                                  np.ones(13), buffers)


def test_accumulate_validates_batch_shapes():
    net = small_net(2)
    for states in (np.zeros((3, 5)), np.zeros(6), np.zeros((3, 6, 1))):
        with pytest.raises(ValueError, match="states must be"):
            accumulate_logp_gradients(net, states, np.zeros(3, dtype=int), np.zeros(3))
    with pytest.raises(ValueError):
        accumulate_logp_gradients(net, np.zeros((3, 6)), np.zeros(2, dtype=int),
                                  np.zeros(3))


# --------------------------------------------------------------- optimizer

def test_apply_update_moves_along_gradient_sign():
    net = small_net(31)
    opt = init_optimizer(net, learning_rate=0.05)
    x = np.random.default_rng(5).random(6)
    g = logp_gradient(net, x, 1)
    before = forward(net, x)[1]
    net2, opt2 = apply_update(net, g, opt)
    assert opt2.step == 1
    # Ascent on log pi(1|x) must increase that probability.
    assert forward(net2, x)[1] > before
    # The update is written into the arrays it was given; the step counter
    # of the state passed in is left alone.
    assert forward(net, x)[1] == forward(net2, x)[1]
    assert opt.step == 0


def test_apply_update_zero_gradient_is_noop_from_fresh_optimizer():
    net = small_net(32)
    opt = init_optimizer(net, learning_rate=1e-3)
    g = scaled(logp_gradient(net, np.ones(6), 0), 0.0)
    before = [a.copy() for a in net.weights + net.biases]
    net2, opt2 = apply_update(net, g, opt)
    for a, b in zip(before, net2.weights + net2.biases, strict=True):
        assert np.array_equal(a, b)
    assert opt2.step == 1


def test_apply_update_rejects_nonfinite():
    net = small_net(33)
    opt = init_optimizer(net, learning_rate=1e-3)
    g = logp_gradient(net, np.ones(6), 0)
    bad_w = list(g.weights)
    bad_w[0] = bad_w[0].copy()
    bad_w[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        apply_update(net, PolicyNetwork(weights=tuple(bad_w), biases=g.biases), opt)
    arrays = net.weights + net.biases + opt.m + opt.v
    before = copies(arrays)
    with pytest.raises(ValueError):
        apply_update(net, scaled(g, float("inf")), opt)
    assert opt.step == 0
    assert same_bits(arrays, before)


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")])
def test_init_optimizer_rejects_a_non_finite_learning_rate(learning_rate):
    with pytest.raises(ValueError, match="learning_rate"):
        init_optimizer(small_net(35), learning_rate)


def test_init_optimizer_takes_any_positive_learning_rate_and_not_zero():
    init_optimizer(small_net(35), 5e-324)
    with pytest.raises(ValueError, match="learning_rate"):
        init_optimizer(small_net(35), 0.0)


def test_apply_update_rejects_shape_mismatch():
    net = small_net(34)
    other = small_net(34, sizes=(6, 5, 5, 3))
    opt = init_optimizer(net, learning_rate=1e-3)
    g = logp_gradient(other, np.ones(6), 0)
    with pytest.raises(ValueError):
        apply_update(net, g, opt)


def textbook_adam(params, grads, m, v, t, lr):
    """Kingma & Ba's update, ascending grads, written out plainly."""
    out = []
    for p, g, m_t, v_t in zip(params, grads, m, v):
        m_t = ADAM_BETA1 * m_t + (1 - ADAM_BETA1) * g
        v_t = ADAM_BETA2 * v_t + (1 - ADAM_BETA2) * g ** 2
        m_hat = m_t / (1 - ADAM_BETA1 ** t)
        v_hat = v_t / (1 - ADAM_BETA2 ** t)
        out.append((p + lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m_t, v_t))
    return [list(column) for column in zip(*out)]


def copies(arrays) -> list[np.ndarray]:
    return [a.copy() for a in arrays]


def same_bits(got, want) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


# The small net fits in one block of ADAM_BLOCK.  In the wide one each
# 400x400 weight spans four whole blocks and ends in a partial one, and every
# bias fits in one block.  A second net takes the same steps with its Adam
# scratch from buffers.  Each drawn gradient is scaled before either update
# sees it, so the scale sets the sign and size of the ascent.
@pytest.mark.parametrize("scale, sizes", [
    pytest.param(scale, sizes, id=f"{scale}{suffix}")
    for sizes, suffix in (((6, 5, 4, 3), ""), ((80, 400, 400, 4), "-wide"))
    for scale in (1.0, -1.0, 0.37)])
def test_apply_update_is_textbook_adam_to_the_bit(scale, sizes):
    assert 400 * 400 == 4 * ADAM_BLOCK + 28_928
    net = small_net(35, sizes)
    opt = init_optimizer(net, learning_rate=0.01)
    buffered = PolicyNetwork(tuple(copies(net.weights)), tuple(copies(net.biases)))
    buffered_opt, buffers = init_optimizer(buffered, 0.01), init_buffers(net, 1)
    params = copies(net.weights + net.biases)
    m, v = copies(opt.m), copies(opt.v)
    rng = np.random.default_rng(36)
    for t in range(1, 6):
        g = scaled(PolicyNetwork(
            weights=tuple(rng.normal(size=w.shape) for w in net.weights),
            biases=tuple(rng.normal(size=b.shape) for b in net.biases)), scale)
        params, m, v = textbook_adam(params, g.weights + g.biases, m, v, t, 0.01)
        net, opt = apply_update(net, g, opt)
        buffered, buffered_opt = apply_update(buffered, g, buffered_opt, buffers)
        assert opt.step == buffered_opt.step == t
        assert same_bits(net.weights + net.biases + opt.m + opt.v, params + m + v)
        assert same_bits(buffered.weights + buffered.biases + buffered_opt.m + buffered_opt.v,
                         params + m + v)


def test_apply_update_writes_into_its_arrays_and_leaves_the_gradients_alone():
    net = small_net(37)
    opt = init_optimizer(net, learning_rate=1e-3)
    net, opt = apply_update(net, logp_gradient(net, np.ones(6), 0), opt)
    grads = scaled(logp_gradient(net, np.full(6, 0.5), 2), 0.37)
    params, m, v = copies(net.weights + net.biases), copies(opt.m), copies(opt.v)
    grads_before = copies(grads.weights + grads.biases)
    net2, opt2 = apply_update(net, grads, opt)
    for new, old in zip(net2.weights + net2.biases + opt2.m + opt2.v,
                        net.weights + net.biases + opt.m + opt.v, strict=True):
        assert new is old
    assert opt2.step == 2
    assert same_bits(grads.weights + grads.biases, grads_before)
    params, m, v = textbook_adam(params, grads_before, m, v, 2, opt.learning_rate)
    assert same_bits(net2.weights + net2.biases + opt2.m + opt2.v, params + m + v)


@pytest.mark.parametrize("fault", ["nan_in_last_gradient", "last_gradient_misshaped",
                                   "infinite_scale", "inf_in_last_chunk_of_a_long_gradient"])
def test_rejected_update_changes_nothing(fault):
    # The finiteness check runs in chunks the size of the scratch seen as
    # bools, 8 * ADAM_BLOCK flags; a 600 x 600 weight takes two of them.
    long = fault == "inf_in_last_chunk_of_a_long_gradient"
    net = small_net(38, (6, 600, 600, 3) if long else (6, 5, 4, 3))
    opt = init_optimizer(net, learning_rate=1e-3)
    net, opt = apply_update(net, logp_gradient(net, np.ones(6), 0), opt)
    g = logp_gradient(net, np.full(6, 0.5), 2)
    weights, biases = list(g.weights), list(g.biases)
    if fault == "nan_in_last_gradient":
        biases[-1] = biases[-1].copy()
        biases[-1][-1] = np.nan
    elif fault == "last_gradient_misshaped":
        biases[-1] = biases[-1][:-1]
    elif long:
        assert weights[1].size > 8 * ADAM_BLOCK
        weights[1] = weights[1].copy()
        weights[1][-1, -1] = np.inf
    else:
        g = scaled(g, float("inf"))
        weights, biases = list(g.weights), list(g.biases)
    arrays = net.weights + net.biases + opt.m + opt.v
    before = copies(arrays)
    with pytest.raises(ValueError):
        apply_update(net, PolicyNetwork(weights=tuple(weights), biases=tuple(biases)), opt)
    assert opt.step == 1
    assert same_bits(arrays, before)


@pytest.mark.parametrize("where", ["strided_parameter", "read_only_moment"])
def test_apply_update_rejects_an_array_it_cannot_write_through(where):
    net = small_net(39)
    opt = init_optimizer(net, learning_rate=1e-3)
    g = logp_gradient(net, np.ones(6), 0)
    weights, v = list(net.weights), list(opt.v)
    if where == "strided_parameter":
        # Every other column of a wider array: a reshape of it is a copy.
        wide = np.zeros((weights[1].shape[0], 2 * weights[1].shape[1]))
        wide[:, ::2] = weights[1]
        weights[1] = wide[:, ::2]
    else:
        v[-1] = v[-1].copy()
        v[-1].flags.writeable = False
    net = PolicyNetwork(weights=tuple(weights), biases=net.biases)
    opt = OptimizerState(opt.m, tuple(v), opt.step, opt.learning_rate)
    arrays = net.weights + net.biases + opt.m + opt.v
    before = copies(arrays)
    with pytest.raises(ValueError, match="C-contiguous and writeable"):
        apply_update(net, g, opt)
    assert same_bits(arrays, before)


def test_init_optimizer_gives_every_moment_its_own_memory():
    net = init_network(8, 2, seed=0)
    opt = init_optimizer(net, learning_rate=1e-3)
    arrays = net.weights + net.biases + opt.m + opt.v
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for p, m, v in zip(net.weights + net.biases, opt.m, opt.v, strict=True):
        assert m.shape == v.shape == p.shape and not m.any() and not v.any()


def test_bandit_convergence():
    """Reinforcing action 0 on a fixed input must drive its probability up."""
    net = he_network((5, 16, 2), seed=8)
    opt = init_optimizer(net, learning_rate=0.01)
    x = np.array([1.0, 0.5, -0.3, 0.2, 0.9])
    rng = np.random.default_rng(123)
    for step in range(2000):
        p = forward(net, x)
        action = int(rng.choice(2, p=p))
        reward = 1.0 if action == 0 else 0.0
        net, opt = apply_update(net, scaled(logp_gradient(net, x, action), reward), opt)
        if forward(net, x)[0] > 0.9:
            break
    assert forward(net, x)[0] > 0.9, f"pi(0)={forward(net, x)[0]:.3f} after 2000 steps"


# ------------------------------------------------------------- persistence

def test_save_load_round_trip_is_bit_identical(tmp_path):
    net = init_network(24, 3, seed=17)
    # Make the payload non-trivial: one optimizer step so biases are non-zero.
    opt = init_optimizer(net, learning_rate=0.01)
    g = logp_gradient(net, np.random.default_rng(0).random(80), 2)
    net, _ = apply_update(net, g, opt)
    path = tmp_path / "policy.nn"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.layer_sizes == net.layer_sizes
    for a, b in zip(net.weights, loaded.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(net.biases, loaded.biases):
        assert a.tobytes() == b.tobytes()
    # Saving the loaded network reproduces the exact file.
    path2 = tmp_path / "policy2.nn"
    save_network(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.nn"
    path.write_bytes(b"NOTANET1" + b"\x00" * 64)
    with pytest.raises(NetworkFormatError):
        load_network(path)


def test_load_rejects_truncated_payload(tmp_path):
    net = init_network(8, 1, seed=0)
    path = tmp_path / "trunc.nn"
    save_network(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(NetworkFormatError):
        load_network(path)


def test_load_rejects_trailing_garbage(tmp_path):
    net = init_network(8, 1, seed=0)
    path = tmp_path / "extra.nn"
    save_network(net, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(NetworkFormatError):
        load_network(path)


def test_load_rejects_bad_version(tmp_path):
    net = init_network(8, 1, seed=0)
    path = tmp_path / "ver.nn"
    save_network(net, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(NetworkFormatError):
        load_network(path)


# ------------------------------------------------------------- value head

def test_value_network_scalar_output():
    vnet = init_value_network(12, seed=4)
    assert vnet.layer_sizes == (80, 12, 1)
    batch = np.random.default_rng(6).random((9, 80))
    out = value_forward(vnet, batch)
    assert out.shape == (9,)


def test_value_fit_step_descends_the_mse_gradient():
    """From a fresh optimizer, one step leaves m = (1 - beta1) * g, where g
    is the ascent direction the fit passed, so -m / (1 - beta1) must be the
    gradient of the mean squared error, by central finite differences."""
    vnet = he_network((3, 4, 1), seed=11)
    rng = np.random.default_rng(12)
    states, targets = rng.normal(size=(5, 3)), rng.normal(size=5)

    def mse(candidate):
        err = value_forward(candidate, states) - targets
        return float(np.mean(err * err))

    params = copies(vnet.weights + vnet.biases)
    _, opt = value_fit_step(vnet, init_optimizer(vnet, 1e-3), states, targets)
    for k, (p, m) in enumerate(zip(params, opt.m, strict=True)):
        for idx in np.ndindex(p.shape):
            probes = []
            for eps in (1e-6, -1e-6):
                moved = copies(params)
                moved[k][idx] += eps
                probes.append(mse(PolicyNetwork(tuple(moved[:2]), tuple(moved[2:]))))
            numeric = (probes[0] - probes[1]) / 2e-6
            assert -m[idx] / (1 - ADAM_BETA1) == pytest.approx(numeric, rel=1e-5, abs=1e-8)


def test_value_fit_reduces_mse():
    vnet = init_value_network(16, seed=9)
    opt = init_optimizer(vnet, learning_rate=0.01)
    rng = np.random.default_rng(10)
    states = rng.random((64, 80))
    targets = states[:, :4].sum(axis=1) * 3.0 - 1.0
    def mse(net):
        err = value_forward(net, states) - targets
        return float(np.mean(err * err))
    before = mse(vnet)
    for _ in range(300):
        vnet, opt = value_fit_step(vnet, opt, states, targets)
    after = mse(vnet)
    assert after < before * 0.2, f"MSE {before:.4f} -> {after:.4f}"
