"""Golden-output gate: the exact bytes of every artifact `run_phase` writes.

Run-versus-run determinism cannot see a change that alters the outputs the
same way on every run; this test can.  It runs each mode for five desk
episodes at seed 7, and a gamma sweep of two desk episodes per value at
seed 7, and compares the sha256 of every written file with
`golden/artifacts.json`.  Bytes depend on the numpy build and the BLAS it
links, so the fixture records both and a mismatch reports them.

A change that is meant to alter the outputs rewrites the fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from flowctl.harness import MODES, desk_profile, run_phase, run_sweep

FIXTURE = Path(__file__).parent / "golden" / "artifacts.json"
SEED = 7
EPISODES = 5
SWEEP_EPISODES = 2


def environment() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 cannot report it
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def desk_episodes(episodes: int):
    base = desk_profile()
    return dataclasses.replace(
        base, train=dataclasses.replace(base.train, episodes=episodes))


def digests_of(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def artifact_digests(mode: str, out: Path) -> dict[str, str]:
    run_phase(desk_episodes(EPISODES), mode, SEED, out)
    return digests_of(out)


def sweep_digests(out: Path) -> dict[str, str]:
    run_sweep(desk_episodes(SWEEP_EPISODES), "gamma", (SEED,), out)
    return digests_of(out)


@pytest.mark.parametrize("mode", MODES)
def test_artifacts_match_golden_digests(mode, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    digests = artifact_digests(mode, tmp_path / mode)
    here = environment()
    assert digests == golden["digests"][mode], (
        f"{mode} artifacts differ from {FIXTURE.name}; fixture recorded "
        f"numpy {golden['numpy']} with {golden['blas']}, this run used "
        f"numpy {here['numpy']} with {here['blas']}")


def test_sweep_tables_match_golden_digests(tmp_path):
    golden = json.loads(FIXTURE.read_text())
    here = environment()
    assert sweep_digests(tmp_path) == golden["sweep"], (
        f"gamma sweep tables differ from {FIXTURE.name}; fixture recorded "
        f"numpy {golden['numpy']} with {golden['blas']}, this run used "
        f"numpy {here['numpy']} with {here['blas']}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {**environment(),
                  "digests": {m: artifact_digests(m, Path(tmp) / m) for m in MODES},
                  "sweep": sweep_digests(Path(tmp) / "sweep")}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
