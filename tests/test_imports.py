"""What each CLI route imports from the package, and that every submodule
imports on its own.

Each case runs in a fresh interpreter, because this process has loaded the
whole package already.  ``import wienerbounds.cli`` alone is pinned in
``test_records.py``.
"""

from __future__ import annotations

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wienerbounds

# runs the package as ``python -m wienerbounds`` does, then names on stderr
# the package modules the run added
ROUTE_PROBE = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("wienerbounds", run_name="__main__", alter_sys=True)
finally:
    added = set(sys.modules) - before
    print(*sorted(m for m in added if m.partition(".")[0] == "wienerbounds"), file=sys.stderr)
"""
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(wienerbounds.__path__) if m.name != "__main__"
)


def package_modules(*names: str) -> set[str]:
    return {"wienerbounds", *(f"wienerbounds.{name}" for name in names)}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--help"], package_modules("cli")),
        (
            ["enumerate", "--unlabeled", "--n", "4", "--count-only"],
            package_modules("cli", "enumeration", "graphs", "records"),
        ),
        (
            ["enumerate", "--n", "4", "--count-only"],
            package_modules("cli", "enumeration", "graphs", "records"),
        ),
        (
            ["construct", "--family", "grn", "--n", "5", "--r", "3"],
            package_modules("cli", "families", "graphs", "records"),
        ),
        (
            ["compute", "--graph", None, "--weight", "power:1"],
            package_modules("cli", "graphs", "indices", "records", "weights"),
        ),
        (
            ["closed-form", "--formula", "path", "--n", "5", "--weight", "power:1"],
            package_modules("cli", "closed_forms", "graphs", "indices", "records", "weights"),
        ),
        (["verify", "--n", "4", "--weight", "power:1"], package_modules(*SUBMODULES)),
        # --nmax 3 is an empty sweep, which exits 0; every larger one meets the r = n = 4 tie
        (["lemmas", "--nmax", "3", "--weight", "power:1"], package_modules(*SUBMODULES)),
        (["search", "--graph", None, "--weight", "power:1"], package_modules(*SUBMODULES)),
    ],
    ids=["help", "enumerate-unlabeled", "enumerate-labeled", "construct", "compute",
         "closed-form", "verify", "lemmas", "search"],
)
def test_route_imports_only_what_it_runs(tmp_path, argv, loaded):
    graph = tmp_path / "c3.txt"  # the edge list that ``None`` stands for
    graph.write_text("0 1\n1 2\n0 2\n")
    argv = [str(graph) if a is None else a for a in argv]
    run = subprocess.run(
        [sys.executable, "-c", ROUTE_PROBE, *argv], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert set(run.stderr.split()) == loaded


def test_the_package_has_nine_submodules_besides_main():
    assert len(SUBMODULES) == 9 and "cli" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first_and_alone(name):
    # the root imports nothing, so no fixed order of its own can hide a cycle
    run = subprocess.run(
        [sys.executable, "-c", f"import wienerbounds.{name}"], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert wienerbounds.__version__ == tomllib.load(fh)["project"]["version"]
