"""Tests for ``repro-lint`` (``repro.analysis.lint``).

Each rule is exercised on minimal snippets (positive and negative), the
waiver pragma is pinned down, and — the point of the whole exercise —
``src/repro`` itself must lint clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis import lint_paths, lint_source

REPO_SRC = Path(__file__).parents[1] / "src" / "repro"


def codes(source: str, **kwargs) -> list[str]:
    return [d.code for d in lint_source(source, **kwargs)]


# ----------------------------------------------------------------------
# L001: wall clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time(self):
        assert codes("import time\nt = time.time()\n") == ["L001"]

    def test_perf_counter(self):
        assert codes("import time\nt = time.perf_counter()\n") == ["L001"]

    def test_from_import_alias(self):
        src = "from time import monotonic as now\nt = now()\n"
        assert codes(src) == ["L001"]

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(src) == ["L001"]

    def test_time_sleep_is_fine(self):
        assert codes("import time\ntime.sleep(0)\n") == []

    def test_unrelated_now_is_fine(self):
        assert codes("def now():\n    return 0\n\nt = now()\n") == []


# ----------------------------------------------------------------------
# L002: unseeded randomness
# ----------------------------------------------------------------------
class TestRandomness:
    def test_global_random_draw(self):
        assert codes("import random\nx = random.random()\n") == ["L002"]

    def test_unseeded_random_instance(self):
        assert codes("import random\nr = random.Random()\n") == ["L002"]

    def test_seeded_random_instance_ok(self):
        assert codes("import random\nr = random.Random(42)\n") == []

    def test_unseeded_numpy_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["L002"]

    def test_seeded_numpy_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert codes(src) == []

    def test_global_numpy_draw(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src) == ["L002"]

    def test_seeding_helpers_ok(self):
        assert codes("import random\nrandom.seed(0)\n") == []


# ----------------------------------------------------------------------
# L003: set iteration
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_for_over_set_literal(self):
        assert codes("for x in {1, 2}:\n    print(x)\n") == ["L003"]

    def test_for_over_set_call(self):
        assert codes("for x in set([1, 2]):\n    pass\n") == ["L003"]

    def test_for_over_tracked_set_name(self):
        src = "s = {1, 2}\nfor x in s:\n    pass\n"
        assert codes(src) == ["L003"]

    def test_comprehension_over_set(self):
        src = "s = set()\nout = [x for x in s]\n"
        assert codes(src) == ["L003"]

    def test_set_union_still_a_set(self):
        src = "a = {1}\nb = {2}\nfor x in a | b:\n    pass\n"
        assert codes(src) == ["L003"]

    def test_sorted_set_is_fine(self):
        src = "s = {1, 2}\nfor x in sorted(s):\n    pass\n"
        assert codes(src) == []

    def test_reassigned_to_list_is_fine(self):
        src = "s = {1, 2}\ns = sorted(s)\nfor x in s:\n    pass\n"
        assert codes(src) == []

    def test_list_iteration_is_fine(self):
        assert codes("for x in [1, 2]:\n    pass\n") == []

    def test_set_comprehension_rebuilds_a_set(self):
        # Order cannot leak out of a set comprehension: not flagged.
        src = "s = {1, 2}\nt = {x + 1 for x in s}\n"
        assert codes(src) == []

    def test_function_scope_is_tracked_separately(self):
        src = (
            "s = {1}\n"
            "def f():\n"
            "    s = [1]\n"
            "    for x in s:\n"
            "        pass\n"
        )
        assert codes(src) == []


# ----------------------------------------------------------------------
# Waivers and filtering
# ----------------------------------------------------------------------
class TestWaiversAndFilters:
    def test_same_line_waiver(self):
        src = (
            "import time\n"
            "t = time.perf_counter()  # repro-lint: allow[L001] telemetry\n"
        )
        assert codes(src) == []

    def test_preceding_line_waiver(self):
        src = (
            "import time\n"
            "# repro-lint: allow[L001] telemetry\n"
            "t = time.perf_counter()\n"
        )
        assert codes(src) == []

    def test_waiver_is_code_specific(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: allow[L002] wrong code\n"
        )
        assert codes(src) == ["L001"]

    def test_multi_code_waiver(self):
        src = (
            "import time, random\n"
            "t = time.time() + random.random()  "
            "# repro-lint: allow[L001, L002] fixture\n"
        )
        assert codes(src) == []

    def test_codes_filter(self):
        src = "import time, random\nt = time.time()\nx = random.random()\n"
        assert codes(src, codes=["L001"]) == ["L001"]

    @pytest.mark.parametrize("code", ["l002", "ZZZ"])
    def test_unknown_code_is_refused_not_clean(self, code, tmp_path, capsys):
        # an unknown code selects no rule: it must not pass as clean
        src = "import random\nx = random.random()\n"
        with pytest.raises(ValueError, match=f"'{code}'.*L001, L002, L003, L004"):
            lint_source(src, codes=[code])
        path = tmp_path / "mod.py"
        path.write_text(src)
        assert main(["lint", str(path), "--codes", code]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"repro lint: error: codes: unknown lint code '{code}'")
        assert err.count("\n") == 1

    def test_findings_carry_location(self):
        (diag,) = lint_source("import time\nt = time.time()\n", path="mod.py")
        assert diag.file == "mod.py"
        assert diag.line == 2

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n")


# ----------------------------------------------------------------------
# The repository's own source must be clean
# ----------------------------------------------------------------------
class TestRepoClean:
    def test_src_repro_lints_clean(self):
        report = lint_paths([REPO_SRC])
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)
