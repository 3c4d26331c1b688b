"""Packaging invariants: version single-sourcing, typing marker, removals."""

from __future__ import annotations

import importlib
import pathlib
import re
from functools import partial

import pytest

import repro
from repro.comm.conditions import LinkModel, NetworkConditions
from repro.engine.runtime import Runtime
from repro.sketch.countsketch import CountSketch
from repro.sketch.mergeable import LinearStateMixin

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
        "repro.sketch.shm",
    )
] + [
    pytest.param(partial(_attribute, module, name), AttributeError, id=f"{module}.{name}")
    for module, name in (
        ("repro.engine", "TreeTopology"),
        ("repro.engine", "Aggregator"),
        ("repro.service", "RemoteTreeNetwork"),
        ("repro.engine.runtime", "ResidentPool"),
        ("repro.engine.runtime", "WorkerCrashedError"),
        # The threads executor, its width default and its selection.
        ("repro.engine.runtime", "_default_workers"),
        ("repro.engine.runtime", "EXECUTORS"),
        ("repro.comm.conditions", "simulate_makespan"),
        # The compiled kernel backend and its selection API.
        ("repro.sketch._native", "active"),
        ("repro.sketch._native", "available_backends"),
        ("repro.sketch._native", "probe_errors"),
        ("repro.sketch._native", "set_backend"),
        ("repro.sketch._native", "use_backend"),
        ("repro.sketch._native", "BACKENDS"),
    )
] + [
    # Resident mode's runtime methods and the sketches' shared-memory hooks.
    pytest.param(partial(getattr, owner, name), AttributeError, id=f"{owner.__name__}.{name}")
    for owner, name in (
        (Runtime, "warm"),
        (Runtime, "resident_pool"),
        (Runtime, "discard_resident_pool"),
        (Runtime, "resident_pool_count"),
        (Runtime, "adopt_arena"),
        (Runtime, "release_arena"),
        # Its close and context manager: a runtime holds nothing to release.
        (Runtime, "close"),
        (Runtime, "__enter__"),
        (Runtime, "__exit__"),
        (LinearStateMixin, "pin_state_buffer"),
        (LinearStateMixin, "unpin_state_buffer"),
        (CountSketch, "pin_table_buffer"),
        (CountSketch, "unpin_table_buffer"),
        # The parallel-links makespan model and its per-link helpers.
        (NetworkConditions, "link"),
        (NetworkConditions, "link_seconds"),
        (LinkModel, "transfer_seconds"),
    )
] + [
    pytest.param(partial(Runtime, "processes"), TypeError, id="Runtime-processes"),
    pytest.param(partial(Runtime, persistent=True), TypeError, id="Runtime-persistent"),
    pytest.param(partial(Runtime, "threads"), TypeError, id="Runtime-threads"),
    pytest.param(partial(Runtime, max_workers=2), TypeError, id="Runtime-max_workers"),
]


@pytest.mark.parametrize("action, error", REMOVED)
def test_removed_surface_stays_removed(action, error):
    """Deleted modules fail to import, deleted names and methods fail to
    resolve, and the retired executor arguments and keywords are
    rejected."""
    with pytest.raises(error):
        action()
