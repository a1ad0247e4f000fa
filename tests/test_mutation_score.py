"""tools/mutation_score.py, stopped by a signal, leaves nothing behind."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def processes_inside(directory: Path) -> list[int]:
    """The ids of the live processes whose working directory lies inside
    `directory`, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cwd = Path(os.readlink(entry / "cwd"))
            except OSError:  # gone, or not ours to read
                continue
            if cwd.is_relative_to(directory):
                found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_a_stopped_scorer_removes_its_copy_and_its_pytest(tmp_path):
    """SIGTERM to the scorer while its pytest child runs ends the child's
    process group and removes the scorer's copy of the repository."""
    private_tmp = tmp_path / "tmp"
    private_tmp.mkdir()
    # The unmutated run of this test sleeps, so the child is still running
    # when the signal comes.
    sleeper = tmp_path / "test_sleeps.py"
    sleeper.write_text("import time\n\n\ndef test_sleeps():\n    time.sleep(120)\n")
    scorer = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "mutation_score.py"), "--sample", "1",
         str(ROOT / "src" / "flowctl" / "roadnet.py"), str(sleeper)],
        cwd=ROOT, env=dict(os.environ, TMPDIR=str(private_tmp)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    noted: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while not noted and time.monotonic() < deadline and scorer.poll() is None:
            copies = list(private_tmp.glob("mutation_score.*"))
            noted = [pid for copy in copies for pid in processes_inside(copy)]
            time.sleep(0.05)
        assert noted, "no process ran inside the scorer's copy"
        scorer.send_signal(signal.SIGTERM)
        scorer.wait(timeout=30)
        assert list(private_tmp.glob("mutation_score.*")) == []
        assert [pid for pid in noted if alive(pid)] == []
    finally:
        scorer.kill()
        scorer.wait()
        for pid in noted:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        shutil.rmtree(private_tmp, ignore_errors=True)
