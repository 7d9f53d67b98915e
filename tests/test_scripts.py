import csv
import os
import subprocess
import sys
from pathlib import Path

import singlering

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(singlering.__file__).resolve().parents[1])


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True,
    )


def test_ring_profile_writes_table(tmp_path):
    out = tmp_path / "profile.csv"
    proc = run_script(
        "ring_profile.py", "--kind", "two_point", "--n-radii", "5", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "L", "dL", "d2L", "rho"]
    assert len(rows) == 6
    assert "exact mass in the tau-shrunk annulus" in proc.stdout
