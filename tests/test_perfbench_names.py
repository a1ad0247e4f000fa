"""Every name of the program that the benchmark uses still exists.

`perfbench/worker.py` calls the program through its modules (for example
`harness.run_phase`), and `perfbench/spans.py` wraps module globals and
`Simulation` methods by name (`_patch(harness, "shortest_route", ...)`).
A simplification that drops or renames one of them breaks only the
benchmark's rounds, which Tier-1 does not run.  This test reads the
benchmark's files with `ast`, without importing them, and requires each
such name to be defined where the benchmark looks for it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from flowctl import harness, neuralnet, pgagent, rerouter, roadnet, simcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The names under which the benchmark's files hold the program: the modules
# (`worker.py` imports them, `Tracer.install` takes them as parameters) and
# `sim_cls`, which `Tracer.install` binds to `simcore.Simulation`.
OWNERS = {"harness": harness, "simcore": simcore, "pgagent": pgagent,
          "rerouter": rerouter, "neuralnet": neuralnet, "roadnet": roadnet,
          "sim_cls": simcore.Simulation}


def benchmark_names() -> set[tuple[str, str]]:
    """(owner, name) for every attribute read off an owner, and for every
    `_patch(owner, "name", ...)` call, in the benchmark's files."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in OWNERS):
                names.add((node.value.id, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_patch"):
                owner, attr = node.args[:2]
                names.add((owner.id, ast.literal_eval(attr)))
    return names


NAMES = benchmark_names()


def test_every_owner_is_used_and_known():
    """Each owner still has names to check, so a renamed variable in the
    benchmark cannot empty the list below unnoticed; and every `_patch`
    owner is one that this test knows."""
    assert {owner for owner, _ in NAMES} == OWNERS.keys()


@pytest.mark.parametrize("owner,name", sorted(NAMES),
                         ids=[f"{owner}.{name}" for owner, name in sorted(NAMES)])
def test_name_exists_where_the_benchmark_looks(owner, name):
    # `_patch` reads a class's own __dict__, and a module's globals are its
    # __dict__, so an inherited or re-exported-by-accident name does not count.
    assert name in vars(OWNERS[owner]), f"perfbench uses {owner}.{name}, which is gone"
