"""Determinism source-lint tests: one synthetic module per SL code,
pragma suppression, path scoping, and the repo-wide clean sweep."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.source import (
    SOURCE_CODES,
    lint_file,
    lint_paths,
    lint_source_text,
    module_rel_path,
)

KERNEL = "src/repro/core/kernel.py"
APP = "src/repro/apps/video.py"
TOOL = "tools/helper.py"


def findings(text: str, path: str = APP):
    return list(lint_source_text(textwrap.dedent(text), path))


def codes(text: str, path: str = APP) -> list[str]:
    return [d.code for d in findings(text, path)]


class TestPathScoping:
    def test_module_rel_path_inside_package(self):
        assert module_rel_path(KERNEL) == "core/kernel.py"
        assert module_rel_path("/x/y/src/repro/compass/fast.py") == "compass/fast.py"

    def test_module_rel_path_outside_package(self):
        assert module_rel_path(TOOL) == "helper.py"


class TestSl100:
    def test_syntax_error(self):
        diags = findings("def broken(:\n    pass\n")
        assert [d.code for d in diags] == ["SL100"]
        assert diags[0].location.line >= 1


class TestSl101:
    def test_import_random(self):
        assert codes("import random\n") == ["SL101"]

    def test_from_random_import(self):
        assert codes("from random import choice\n") == ["SL101"]

    def test_numpy_random_module_is_not_the_stdlib(self):
        assert codes("import numpy.random\n") == []


class TestSl102Sl103:
    def test_unseeded_default_rng(self):
        assert codes("import numpy as np\nrng = np.random.default_rng()\n") == ["SL102"]

    def test_none_seed_counts_as_unseeded(self):
        assert "SL102" in codes("import numpy as np\nr = np.random.default_rng(None)\n")

    def test_seeded_but_inline(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(42)\n") == ["SL103"]

    def test_seeded_rng_helper_home_is_allowed(self):
        text = "import numpy as np\ndef seeded_rng(s):\n    return np.random.default_rng(s)\n"
        assert codes(text, "src/repro/utils/rng.py") == []
        # ... but an unseeded call is banned even there.
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(bad, "src/repro/utils/rng.py") == ["SL102"]


class TestSl104:
    TIMED = """
        import time
        def step(state):
            t0 = time.perf_counter()
            return state, t0
    """

    def test_wall_clock_in_tick_path(self):
        assert codes(self.TIMED, KERNEL) == ["SL104"]
        assert codes(self.TIMED, "src/repro/compass/simulator.py") == ["SL104"]
        # The silicon expression's tick is a tick path too.
        assert codes(self.TIMED, "src/repro/hardware/simulator.py") == ["SL104"]

    def test_wall_clock_outside_tick_path_is_fine(self):
        assert codes(self.TIMED, APP) == []

    def test_bare_import_form_is_caught(self):
        text = """
            from time import perf_counter
            def step():
                return perf_counter()
        """
        assert codes(text, KERNEL) == ["SL104"]

    def test_pragma_suppresses(self):
        text = """
            import time
            def step(profile):
                t0 = time.perf_counter() if profile else 0.0  # repro-lint: allow=SL104
                return t0
        """
        assert codes(text, KERNEL) == []


class TestSl105:
    LEAKY = """
        from multiprocessing import shared_memory
        class Leaky:
            def open(self):
                self.shm = shared_memory.SharedMemory(create=True, size=16)
            def close(self):
                self.shm.close()
    """

    def test_create_without_unlink(self):
        diags = findings(self.LEAKY)
        assert [d.code for d in diags] == ["SL105"]
        assert "unlink()" in diags[0].message

    def test_create_with_full_cleanup_is_fine(self):
        text = self.LEAKY + "        self.shm.unlink()\n"
        assert codes(text) == []

    def test_attach_only_needs_no_cleanup_pair(self):
        text = """
            from multiprocessing import shared_memory
            class Reader:
                def open(self, name):
                    self.shm = shared_memory.SharedMemory(name=name)
        """
        assert codes(text) == []


class TestSl105BufferViews:
    """The view half of SL105: held ``buffer=`` views need a release."""

    def test_held_view_without_release_fires(self):
        text = """
            import numpy as np
            class Holder:
                def __init__(self, buf):
                    self._arr = np.ndarray(8, dtype=np.int64, buffer=buf)
        """
        diags = findings(text)
        assert [d.code for d in diags] == ["SL105"]
        assert "self._arr" in diags[0].message

    def test_release_reassignment_is_clean(self):
        text = """
            import numpy as np
            class Strip:
                def __init__(self, buf):
                    self._arr = np.ndarray(8, dtype=np.int64, buffer=buf)
                def release(self):
                    self._arr = np.zeros(0, dtype=np.int64)
        """
        assert codes(text) == []

    def test_view_propagates_through_wrapper_calls(self):
        text = """
            import numpy as np
            class Pool:
                def _spawn(self):
                    ring = np.ndarray(8, dtype=bool, buffer=self._shm.buf)
                    ring = wrap(ring, "tag")
                    self._rings.append(ring)
        """
        diags = findings(text)
        assert [d.code for d in diags] == ["SL105"]
        assert "self._rings" in diags[0].message

    def test_tuple_rebind_counts_as_release(self):
        text = """
            import numpy as np
            class Pool:
                def _spawn(self):
                    ring = np.ndarray(8, dtype=bool, buffer=self._shm.buf)
                    self._rings.append(ring)
                def close(self):
                    self._rings, self._stats = [], []
        """
        assert codes(text) == []

    def test_plain_arrays_never_fire(self):
        text = """
            import numpy as np
            class Engine:
                def __init__(self):
                    self.v = np.zeros((2, 8), dtype=np.int64)
        """
        assert codes(text) == []

    def test_span_strip_and_serving_sources_are_clean(self):
        """The named shm-view holders sweep clean under the rule (the
        span strip's successor is the flight ring over a caller's buffer)."""
        import repro.obs.flight as flight_mod
        import repro.runtime.serving as serving_mod

        for mod in (flight_mod, serving_mod):
            diags = lint_file(mod.__file__)
            assert diags == [], [d.render() for d in diags]


class TestSl106:
    def test_float_literal_in_kernel_arithmetic(self):
        assert codes("def f(v):\n    return v * 0.5\n", KERNEL) == ["SL106"]

    def test_aug_assign_and_compare(self):
        text = "def f(v):\n    v += 1.5\n    return v > 2.5\n"
        assert codes(text, "src/repro/compass/fast.py") == ["SL106", "SL106"]

    def test_integer_arithmetic_is_fine(self):
        assert codes("def f(v):\n    return (v * 3) >> 1\n", KERNEL) == []

    def test_floats_allowed_outside_kernel_modules(self):
        assert codes("def f(v):\n    return v * 0.5\n", APP) == []


class TestReportingPlumbing:
    def test_findings_carry_path_line_hint(self):
        diag = findings("import random\n", APP)[0]
        assert diag.location.path == APP
        assert diag.location.line == 1
        assert diag.hint

    def test_lint_paths_over_a_real_file(self, tmp_path):
        bad = tmp_path / "repro" / "apps" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        report = lint_paths([tmp_path])
        assert report.codes() == ["SL101"]
        assert lint_file(bad)[0].code == "SL101"

    def test_every_sl_code_has_a_fixture(self):
        import pathlib

        text = pathlib.Path(__file__).read_text()
        for code in SOURCE_CODES:
            assert code in text, f"no fixture references {code}"


def test_repo_sources_lint_clean():
    """The shipped package passes its own determinism lint."""
    import repro

    report = lint_paths([repro.__path__[0]])
    assert len(report) == 0, report.render_text()
