"""Golden-output gate: the exact bytes of every artifact `run_phase` writes.

Run-versus-run determinism cannot see a change that alters the outputs the
same way on every run; this test can.  It runs each mode for five desk
episodes at seed 7 and compares the sha256 of every written file with
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

from flowctl.harness import MODES, desk_profile, run_phase

FIXTURE = Path(__file__).parent / "golden" / "artifacts.json"
SEED = 7
EPISODES = 5


def environment() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 cannot report it
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def artifact_digests(mode: str, out: Path) -> dict[str, str]:
    base = desk_profile()
    cfg = dataclasses.replace(
        base, train=dataclasses.replace(base.train, episodes=EPISODES))
    run_phase(cfg, mode, SEED, out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("mode", MODES)
def test_artifacts_match_golden_digests(mode, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    digests = artifact_digests(mode, tmp_path / mode)
    here = environment()
    assert digests == golden["digests"][mode], (
        f"{mode} artifacts differ from {FIXTURE.name}; fixture recorded "
        f"numpy {golden['numpy']} with {golden['blas']}, this run used "
        f"numpy {here['numpy']} with {here['blas']}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {**environment(),
                  "digests": {m: artifact_digests(m, Path(tmp) / m) for m in MODES}}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
