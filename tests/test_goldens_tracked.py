"""Every golden file the tests compare against is tracked by git.

An ignore rule once kept the VCD goldens out of the repository, so a
fresh checkout failed the tests that read them.
"""

import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracked_files() -> set[str]:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    result = subprocess.run(
        ["git", "ls-files", "-z", "tests"], cwd=ROOT,
        capture_output=True, timeout=60,
    )
    if result.returncode != 0:
        pytest.skip("not a git checkout")
    return set(result.stdout.decode().split("\0"))


def test_every_golden_is_tracked():
    tracked = _tracked_files()
    goldens = sorted(
        path.relative_to(ROOT).as_posix()
        for path in ROOT.glob("tests/**/golden/*") if path.is_file()
    )
    assert goldens, "expected golden files under tests/**/golden/"
    assert [g for g in goldens if g not in tracked] == []
