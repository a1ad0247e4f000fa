"""Crossroads drawn by `hypothesis` in `roadnet.build_network`'s text format.

The four-arm layout is the default crossroad's, with the same edge ids, so
the simulator, the rerouter and helpers that name edges by arm work on
every drawn network.  Lengths, limits and the diagonal bypasses are drawn.
"""

from __future__ import annotations

from hypothesis import strategies as st

ARMS = ("n", "e", "s", "w")
# Few distinct lengths and limits, so equal-cost routes are common and the
# edge-id tie-break is exercised.  The shortest length, 100 m, still holds
# the 40 vehicles a lane of a parked junction edge queues.
LENGTHS = st.sampled_from(["100.0", "200.0", "300.0", "1414.0"])
SPEEDS = st.sampled_from(["10.0", "20.0", "13.89"])


@st.composite
def crossroad_text(draw) -> str:
    """A four-arm crossroad in `build_network`'s text format, with drawn
    lengths and limits; each diagonal bypass edge may be left out."""
    lines = [f"node {n}" for n in ("c",) + ARMS + tuple(f"{a}i" for a in ARMS)]
    for a in ARMS:
        for eid, src, dst, signal in ((f"app_{a}_in", a, f"{a}i", 0),
                                      (f"jct_{a}_in", f"{a}i", "c", 1),
                                      (f"jct_{a}_out", "c", f"{a}i", 0),
                                      (f"app_{a}_out", f"{a}i", a, 0)):
            lines.append(f"edge {eid} {src} {dst} {draw(LENGTHS)} 4 {draw(SPEEDS)} {signal}")
    for a, b in zip(ARMS, ARMS[1:] + ARMS[:1]):
        for src, dst in ((a, b), (b, a)):
            if draw(st.booleans()):
                lines.append(f"edge diag_{src}{dst} {src} {dst} {draw(LENGTHS)} 1 "
                             f"{draw(SPEEDS)} 0")
    return "\n".join(lines) + "\n"
