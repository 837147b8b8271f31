"""The single-process engines compute what they computed when the golden was cut.

``tools/engine_dump.py`` prints one SHA-256 per fixed-seed case (spikes,
final membranes, every counter, the SimMPI tallies, hops, crossings and
per-link traffic) over Compass, TrueNorth, the fast engine and a
three-lane batch (every lane's spikes and counters, one lane reset
mid-run in one of the two batch cases);
``tools/engine_dump.txt`` holds that output.  A change that means to move
a digest regenerates the file and says why.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def test_engine_dump_matches_the_golden():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "engine_dump.py")],
        capture_output=True, text=True, check=True,
    )
    got = done.stdout.splitlines()
    want = (TOOLS / "engine_dump.txt").read_text().splitlines()
    assert len(got) == len(want)
    changed = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert not changed, "\n".join(changed)
