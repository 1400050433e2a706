"""Fixtures shared by the design-library tests."""

import shutil

import pytest

from repro.store import fingerprint, stage_version


@pytest.fixture
def source_copy(tmp_path, monkeypatch):
    """A private copy of the package sources that stage versions are
    computed from."""
    root = tmp_path / "repro"
    shutil.copytree(fingerprint._SRC_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(fingerprint, "_SRC_ROOT", root)
    stage_version.cache_clear()
    yield root
    stage_version.cache_clear()
