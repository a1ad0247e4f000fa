"""Every mutant in `perfbench/mutants.py` still quotes the program.

The mutant suite breaks one line of a copy of `src/` per mutant and
requires a benchmark check to catch it.  A pattern that no longer occurs
exactly once is reported as missed, so an edit to the quoted code silently
turns its check off.  This test reads `MUTANTS` from the file's syntax tree
(the module itself imports the benchmark's checks) and counts each pattern
in its source file.  Patterns known to quote deleted text (ROADMAP Q3) must
occur zero times, so that list stays accurate as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_FILE = ROOT / "perfbench" / "mutants.py"
SOURCE = ROOT / "src" / "flowctl"

# ROADMAP Q3: the mutants whose patterns quote code that has been deleted.
# `unjustified_switch` quotes a comparison against a per-vehicle sorted
# list, which the rerouter no longer builds.
STALE = frozenset({
    "unjustified_switch",
    "arrivals_undercounted",
    "sim_time_halved",
    "metrics_row_dropped",
    "stay_logs_other_route",
    "update_descends",
    "backprop_ignores_relu",
})


def read_mutants() -> dict:
    tree = ast.parse(MUTANTS_FILE.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MUTANTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no MUTANTS assignment in {MUTANTS_FILE}")


MUTANTS = read_mutants()


def test_stale_list_names_only_declared_mutants():
    assert STALE <= MUTANTS.keys()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_pattern_occurs_once_unless_known_stale(name):
    file, original = MUTANTS[name][:2]
    count = (SOURCE / file).read_text().count(original)
    assert count == (0 if name in STALE else 1), (
        f"{name}: {original!r} occurs {count} times in {file}")
