"""Test helpers that read a `Simulation`'s vehicles from its lanes."""

from __future__ import annotations

from flowctl.simcore import Simulation


def iter_vehicles(sim: Simulation):
    """Every vehicle, in (edge order, lane, front-to-back) order."""
    for eid in sim._edge_order:
        for lane in sim._lanes[eid]:
            for slot in lane:
                yield sim._handles[slot]
