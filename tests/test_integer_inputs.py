"""The integer rule at every call that takes a count, size or duration.

Each row names an integer parameter, a call that passes it a value, its
least legal value and, if it has one, the first value past its top.  A
float (even a whole one), a bool and a value out of range must raise a
ValueError that names the parameter; the least legal value, the top one
and a numpy integer must pass, the last with the result of the int.
`TrainConfig` and `RunConfig` have their own tables in test_pgagent.py
and test_harness.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowctl.neuralnet import init_network
from flowctl.pgagent import drive_episode
from flowctl.roadnet import Edge, build_default_network, enumerate_routes, free_flow_weights
from flowctl.simcore import Simulation, spawn_schedule

NET = build_default_network()
WEIGHTS = free_flow_weights(NET)


def fixed_time(green_duration: int, max_decisions: int):
    sim = Simulation(NET, spawn_schedule(NET, 20, seed=1, horizon=30))
    return drive_episode(sim, None, green_duration=green_duration,
                         max_decisions=max_decisions)


CALLS = {
    "lane_count": (lambda v: Edge("a", "x", "y", 10.0, v), 1, 5),
    "count": (lambda v: spawn_schedule(NET, v, seed=1, horizon=30), 0, None),
    "horizon": (lambda v: spawn_schedule(NET, 20, seed=1, horizon=v), 1, None),
    "k": (lambda v: enumerate_routes(NET, "n", "s", WEIGHTS, v), 1, None),
    "green_duration": (lambda v: fixed_time(v, 3), 1, None),
    "max_decisions": (lambda v: fixed_time(4, v), 1, None),
    "hidden_width": (lambda v: init_network(v, 1).layer_sizes, 1, None),
    "hidden_count": (lambda v: init_network(2, v).layer_sizes, 1, None),
    "output_size": (lambda v: init_network(2, 1, output_size=v).layer_sizes, 1, None),
}


@pytest.mark.parametrize("name", CALLS)
def test_integer_input_takes_only_an_integer_in_range(name):
    call, low, past_top = CALLS[name]
    illegal = [2.5, 3.0, True, low - 1] + ([past_top] if past_top else [])
    for value in illegal:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(value)
    call(low)
    if past_top:
        call(past_top - 1)
    assert call(np.int64(2)) == call(2)


def test_edge_keeps_a_numpy_lane_count_as_an_int():
    edge = Edge("a", "x", "y", 10.0, np.int64(3))
    assert type(edge.lane_count) is int and edge == Edge("a", "x", "y", 10.0, 3)
