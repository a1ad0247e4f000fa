"""The benchmark's workloads: which run mode, which profile, which overrides.

Overrides are `key = value` lines in the format `flowctl run --config`
reads, so each workload is a configuration a user could run by hand.
Every round of a workload runs `episodes` episodes through one call of
`harness.run_phase`; the seed is the benchmark's `--seed`.

The learning workloads raise `max_agent_steps` from the desk profile's 300
so that an episode runs until its traffic clears: at 300 decisions some
seeds cut early episodes short (see CHANGES.md), and a cut episode is a
failed operation whose share would depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    mode: str
    profile: str          # "desk" or "paper"
    overrides: str        # config-file lines applied on top of the profile
    episodes: int         # per round, at least 40; applied as the `episodes` key
    min_rounds: int       # per untraced run, each with its own seed
    why: str
    # Whether the final-quarter mean sim time must beat the first quarter's
    # on most of an untraced run's seeds.
    check_learning: bool = False

    @property
    def tail_pct(self) -> int:
        """The highest percentile that leaves at least ten of a round's
        episodes beyond it."""
        return math.floor(100 * (1 - 10 / self.episodes))


WORKLOADS = {
    "paper_fixed": Workload(
        mode="fixed", profile="paper", overrides="",
        episodes=40, min_rounds=1,
        why="fixed-time control at paper scale: the simulator core does "
            "about 90% of the work, with no learning and no rerouting"),
    "desk_rl_reroute": Workload(
        mode="rl_reroute", profile="desk", overrides="max_agent_steps = 2500\n",
        episodes=40, min_rounds=3, check_learning=True,
        why="learning plus rerouting at desk scale: route search and "
            "reroute logging weigh most here"),
    # No learning check here: at width 600 the policy collapses on some
    # seeds (see CHANGES.md), and a check that fails on some seeds would
    # make the benchmark's verdict depend on the seed drawn.
    "desk_rl_wide": Workload(
        mode="rl", profile="desk",
        overrides="max_agent_steps = 2500\nhidden_width = 600\nhidden_count = 3\n",
        episodes=40, min_rounds=3,
        why="learning with the widest declared policy net: per-decision "
            "forward and per-episode backprop weigh most here"),
}
