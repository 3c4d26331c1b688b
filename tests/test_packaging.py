"""Packaging invariants: version single-sourcing, typing marker, removals."""

from __future__ import annotations

import importlib
import pathlib
import re
from functools import partial

import pytest

import repro
from repro.sketch import _native

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestVersionSingleSourcing:
    def test_version_matches_pyproject(self):
        """``repro.__version__`` is read from package metadata / pyproject."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_no_setup_py_duplicate(self):
        """The drift-prone setup.py shim is gone; pyproject is authoritative."""
        assert not (REPO_ROOT / "setup.py").exists()


class TestTypingMarker:
    def test_py_typed_marker_ships_with_the_package(self):
        package_dir = pathlib.Path(repro.__file__).parent
        assert (package_dir / "py.typed").is_file()


def _attribute(module: str, name: str):
    return getattr(importlib.import_module(module), name)


#: Retired modules, names and knob values, each with the error that pins its
#: removal.
REMOVED = [
    pytest.param(partial(importlib.import_module, name), ModuleNotFoundError, id=name)
    for name in (
        "repro.multiparty",
        "repro.multiparty.estimator",
        "repro.multiparty.network",
        "repro.multiparty.protocols",
        "repro.multiparty.site",
        "repro.comm.channel",
        "repro.comm.party",
        "repro.core.exchange",
        "repro.sketch._native_numba",
    )
] + [
    pytest.param(partial(_attribute, module, name), AttributeError, id=f"{module}.{name}")
    for module, name in (
        ("repro.engine", "TreeTopology"),
        ("repro.engine", "Aggregator"),
        ("repro.service", "RemoteTreeNetwork"),
    )
] + [pytest.param(partial(_native.set_backend, "numba"), ValueError, id="set_backend-numba")]


@pytest.mark.parametrize("action, error", REMOVED)
def test_removed_surface_stays_removed(action, error):
    """Deleted modules fail to import, deleted names fail to resolve, and
    the numba backend is rejected."""
    with pytest.raises(error):
        action()
