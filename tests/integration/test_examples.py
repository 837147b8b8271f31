"""Every example script must run cleanly end to end.

Examples are the public face of the library; running them in-suite
keeps them from rotting.  Each runs in a subprocess with a generous
timeout and must exit 0 with non-trivial stdout.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    p.name for p in (pathlib.Path(__file__).parents[2] / "examples").glob("*.py")
)

EXPECTED_MARKERS = {
    "quickstart.py": "equivalence",
    "vision_pipeline.py": "saccade sequence",
    "recurrent_characterization.py": "GSOPS/W",
    "multichip_tiling.py": "rat-scale",
    "neovision_detection.py": "precision",
    "streaming_runtime.py": "real-time factor",
}


class TestExamples:
    def test_all_examples_are_covered(self):
        assert set(EXAMPLES) == set(EXPECTED_MARKERS)

    @pytest.mark.slow
    @pytest.mark.parametrize("script", EXAMPLES)
    def test_example_runs(self, script):
        root = pathlib.Path(__file__).parents[2]
        result = subprocess.run(
            [sys.executable, str(root / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert EXPECTED_MARKERS[script] in result.stdout
        assert len(result.stdout) > 200
