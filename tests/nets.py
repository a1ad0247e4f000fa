"""Networks of any layer sizes, for tests whose input is not the 80 sensor
cells that `neuralnet.init_network` always takes."""

from __future__ import annotations

import numpy as np

from flowctl.neuralnet import PolicyNetwork


def he_network(sizes, seed: int = 0) -> PolicyNetwork:
    """Layers of `sizes`, built as `init_network` builds its own: one
    He-scaled normal draw per layer, in order, from `default_rng(seed)`,
    and zero biases."""
    rng = np.random.default_rng(seed)
    return PolicyNetwork(
        weights=tuple(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
                      for n_in, n_out in zip(sizes[:-1], sizes[1:])),
        biases=tuple(np.zeros(n_out) for n_out in sizes[1:]))
