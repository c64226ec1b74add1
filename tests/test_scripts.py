"""Tests for the reporting scripts under ``scripts/``."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: The parameter count of a package whose functions default nothing.
NO_PARAMETERS = ["0", "unpassed", "of", "0", "defaulted", "parameters"]


def _uncalled(root):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(root)],
        capture_output=True, text=True,
    )


def test_uncalled_lists_only_the_names_nothing_uses(tmp_path):
    """One called and one uncalled name: only the uncalled one is a row,
    an export or an import is no caller, and a test's use is reported
    but is no caller either: the script exits 1."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from .api import Engine, called, uncalled\n\n'
        '__all__ = ["Engine", "called", "uncalled"]\n'
    )
    (package / "api.py").write_text(
        textwrap.dedent(
            '''
            def called():
                """Not a use: uncalled."""


            def uncalled():
                return called()


            class Engine:
                def ingest(self):
                    return "patched at Engine.flush"

                def flush(self):
                    pass

                def _private(self):
                    pass
            '''
        )
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro import Engine\n\nEngine().ingest()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_api.py").write_text(
        "from repro import uncalled\n\nuncalled()\n"
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["src/repro/api.py:6", "uncalled", "tests:", "yes"],
        ["1", "uncalled"],
        NO_PARAMETERS,
    ]


def test_uncalled_lets_the_serial_folds_stand(tmp_path):
    """The serial folds are the fleet's reference answers: they are
    listed without a caller and the script still exits 0."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "merge.py").write_text(
        "def aggregate_over_series():\n    pass\n\n\n"
        "def scan_over_series():\n    pass\n"
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["src/repro/merge.py:1", "aggregate_over_series", "tests:", "no"],
        ["src/repro/merge.py:5", "scan_over_series", "tests:", "no"],
        ["2", "uncalled"],
        NO_PARAMETERS,
    ]


def test_uncalled_fails_on_a_name_nothing_calls(tmp_path):
    """A public name no test uses either is a ``tests: no`` row, and the
    script exits 1."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "api.py").write_text("def orphan():\n    pass\n")
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["src/repro/api.py:1", "orphan", "tests:", "no"],
        ["1", "uncalled"],
        NO_PARAMETERS,
    ]


def test_uncalled_needs_a_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 2 and "no package at" in done.stderr


def test_uncalled_does_not_count_a_name_in_its_own_strings(tmp_path):
    """A class named only in its own ``__repr__`` (and a function only
    in its own error message) is listed: a string inside the definition
    of a name is no use of it.  The same word elsewhere still is."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "laws.py").write_text(
        textwrap.dedent(
            '''
            class Atoms:
                def __repr__(self):
                    return f"Atoms(values={self!r})"


            def check():
                raise ValueError("check failed")


            class Named:
                pass
            '''
        )
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text('print("built by Named")\n')
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uncalled.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["src/repro/laws.py:2", "Atoms", "tests:", "no"],
        ["src/repro/laws.py:7", "check", "tests:", "no"],
        ["2", "uncalled"],
        NO_PARAMETERS,
    ]


def test_uncalled_lists_only_the_parameters_no_call_passes(tmp_path):
    """Passing by keyword, by position, to ``cls(...)``, through a
    nameless callee or a ``**`` spread of a dict literal's keys: each
    reaches the parameter of that name.  The one default nothing
    overrides is a row — ``tests: yes`` when only a test passes it —
    and the script exits 1."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "plot.py").write_text(
        textwrap.dedent(
            '''
            def scale(values, factor=1.0, offset=0.0, *, clip=None):
                return values


            class Plot:
                def __init__(self, width=72, height=16, title="", legend=True):
                    pass

                @classmethod
                def square(cls):
                    return cls(title="square")

                def draw(self, marker="*"):
                    return scale([], 2.0)


            SHAPES = {"legend": False}
            BUILDERS = [Plot]
            '''
        )
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.plot import BUILDERS, SHAPES, Plot\n\n"
        "Plot(height=10).draw(marker='+')\n"
        "Plot(**SHAPES)\n"
        "Plot.square()\n"
        "BUILDERS[0](clip=1.0)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_plot.py").write_text(
        "from repro.plot import scale\n\nscale([], offset=1.0)\n"
    )
    done = _uncalled(tmp_path)
    assert done.returncode == 1
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["0", "uncalled"],
        ["src/repro/plot.py:2", "scale(offset)", "tests:", "yes"],
        ["src/repro/plot.py:7", "Plot(width)", "tests:", "no"],
        ["2", "unpassed", "of", "8", "defaulted", "parameters"],
    ]


def test_uncalled_lets_a_kept_parameter_stand(tmp_path):
    """A ``KEEP`` row is listed with the others, and alone it does not
    fail the script."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "allocation.py").write_text(
        "class MemoryArbiter:\n"
        "    def __init__(self, total_budget, decision_interval=8192):\n"
        "        pass\n\n\n"
        "ARBITER = MemoryArbiter(64)\n"
    )
    done = _uncalled(tmp_path)
    assert done.returncode == 0
    assert [row.split() for row in done.stdout.splitlines()] == [
        ["0", "uncalled"],
        ["src/repro/allocation.py:2", "MemoryArbiter(decision_interval)", "tests:", "no"],
        ["1", "unpassed", "of", "1", "defaulted", "parameters"],
    ]
