"""The checkout tracks no build or run leftovers."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LEFTOVER_DIRECTORIES = {"__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", "build"}


def is_leftover(path: str) -> bool:
    *directories, name = path.split("/")
    return (
        name.endswith(".pyc")
        or any(part in LEFTOVER_DIRECTORIES or part.endswith(".egg-info") for part in directories)
    )


def tracked_files() -> list[str]:
    """The paths `git ls-files` lists for this checkout; skips the test
    where there is no git, or the tree is not its own checkout (a `git
    archive` copy has no `.git`)."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    done = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z"], capture_output=True, text=True, timeout=30
    )
    if done.returncode != 0:
        pytest.skip(f"git ls-files failed: {done.stderr.strip()}")
    return done.stdout.split("\0")[:-1]


def test_no_build_or_run_leftover_is_tracked():
    files = tracked_files()
    assert "src/aurcase/cli.py" in files
    assert [path for path in files if is_leftover(path)] == []


@pytest.mark.parametrize(
    "path",
    [
        "src/aurcase/__pycache__/cli.cpython-311.pyc",
        "tests/__pycache__/conftest.cpython-311.pyc",
        "stray.pyc",
        ".pytest_cache/v/cache/nodeids",
        "tests/.hypothesis/examples/x",
        ".perfbench_work/gate/case.aur",
        "src/aurcase.egg-info/PKG-INFO",
        "build/lib/aurcase/cli.py",
    ],
)
def test_each_kind_of_leftover_is_recognised(path):
    assert is_leftover(path)


@pytest.mark.parametrize(
    "path", ["src/aurcase/build.py", "tests/fixtures/golden_out/report.json", "pyc.md"]
)
def test_project_files_are_not_leftovers(path):
    assert not is_leftover(path)
