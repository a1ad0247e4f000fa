"""Test-session setup.

`pythonpath` in pyproject.toml puts `src` on the path of the test process.
The tests that run the CLI in a child process (`python -m flowctl.cli`)
need it on the child's path too, so it is added to PYTHONPATH here.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
