"""`spawn_schedule` against a frozen copy of its scalar draw loop.

`reference_schedule` draws each vehicle's origin, and then its side if it
does not cross, with one `rng.integers` call each, as `spawn_schedule` did
before it drew the whole stream as one range-4 array.  The two agree only
while a range-2 draw is the high bit of a range-4 draw of the same 32-bit
word, so this test fails if numpy's bounded draws ever stop working so.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from flowctl.roadnet import build_default_network, free_flow_weights, shortest_route
from flowctl.simcore import (
    ARM_ORDER,
    LEFT_EXIT,
    OPPOSITE_ARM,
    RIGHT_EXIT,
    VEHICLE_MAX_SPEED,
    VEHICLE_MIX,
    spawn_schedule,
)

NET = build_default_network()


def reference_schedule(net, count, seed, horizon):
    """The scalar-loop `spawn_schedule`, returning plain tuples."""
    if count == 0:
        return ()
    rng = np.random.default_rng(seed)

    raw = rng.weibull(2.0, size=count)
    span = float(raw.max() - raw.min())
    if span > 0:
        times = np.floor((raw - raw.min()) / span * (horizon - 1)).astype(int)
    else:
        times = np.zeros(count, dtype=int)
    times = np.sort(times)

    quotas = [count * f for _, f, _ in VEHICLE_MIX]
    counts = [int(math.floor(q)) for q in quotas]
    short = count - sum(counts)
    for i in sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))[:short]:
        counts[i] += 1
    labels = []
    for (name, _, _), n in zip(VEHICLE_MIX, counts):
        labels.extend([name] * n)
    labels_arr = np.array(labels)
    rng.shuffle(labels_arr)

    n_opposite = round(0.6 * count)
    crossing = np.zeros(count, dtype=bool)
    crossing[:n_opposite] = True
    rng.shuffle(crossing)

    weights = free_flow_weights(net)
    route_cache = {}
    specs = []
    for i in range(count):
        origin = ARM_ORDER[int(rng.integers(0, 4))]
        if crossing[i]:
            dest = OPPOSITE_ARM[origin]
        else:
            side = int(rng.integers(0, 2))
            dest = LEFT_EXIT[origin] if side == 0 else RIGHT_EXIT[origin]
        key = (origin, dest)
        if key not in route_cache:
            route_cache[key] = shortest_route(net, origin, dest, weights)[1]
        vtype = str(labels_arr[i])
        specs.append((int(times[i]), f"v{i}", vtype, VEHICLE_MAX_SPEED[vtype],
                      route_cache[key]))
    return tuple(specs)


COUNT = st.sampled_from([0, 1, 2, 3]) | st.integers(0, 4000)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(count=COUNT, seed=st.integers(0, 2**64 - 1), horizon=st.integers(1, 4000))
@example(count=0, seed=1, horizon=10)
@example(count=1, seed=2, horizon=1)  # round(0.6) = 1: every vehicle crosses
@example(count=4000, seed=3, horizon=3600)
def test_array_draws_match_the_scalar_loop(count, seed, horizon):
    # repr also tells Python numbers from numpy scalars of the same value.
    got = [repr(tuple(spec)) for spec in spawn_schedule(NET, count, seed, horizon)]
    assert got == [repr(spec) for spec in reference_schedule(NET, count, seed, horizon)]
