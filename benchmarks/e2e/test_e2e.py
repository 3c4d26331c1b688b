"""Self-tests of the end-to-end benchmark (run explicitly):

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

RUN = Path(run.__file__).resolve()


def run_benchmark(*args: str, script: Path = RUN, cwd: Path | None = None):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "samples, expected",
    [(5, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99)],
)
def test_percentile_rule_picks_highest_with_ten_samples_beyond(samples, expected):
    assert run.highest_percentile(samples) == expected


def test_timed_phase_runs_for_its_seconds_and_ends_on_a_whole_block():
    timed = workloads.Run(seconds=0.1, period=5, min_cycles=10)
    for _ in range(10):
        assert timed.more()  # the minimum count outlasts the seconds
        timed.cycles.append(0.2)
    assert not timed.more()
    timed.seconds = 3.0
    while timed.more():
        timed.cycles.append(0.3)
    assert len(timed.cycles) == 15  # 3 s passed at 14 cycles; the block ends at 15


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_inputs_are_byte_identical_per_seed():
    sizes = workloads.WORKLOADS["oneshot_mix"].tiny

    def image(seed):
        blobs = [m.tobytes() for pair in workloads.oneshot_inputs(seed, sizes).values()
                 for m in pair]
        static, updates = workloads.input_streams(seed)
        rows = workloads.ZipfRows(static, 100, 50)
        blobs.append(rows.draw(updates, 64).tobytes())
        blobs.append(updates.integers(-2, 3, size=(8, 4)).tobytes())
        return blobs

    assert image(3) == image(3)
    assert image(3) != image(4)


def test_zipf_profile_does_not_depend_on_the_seed():
    binary = [workloads.binary_sets(np.random.default_rng(s), 64, 16) for s in (1, 2)]
    assert binary[0].sum() == binary[1].sum()
    integer = [workloads.integer_matrix(np.random.default_rng(s), 64, 30) for s in (1, 2)]
    assert np.count_nonzero(integer[0]) == np.count_nonzero(integer[1]) == 64 * 3


def test_wrappers_restore_every_patched_attribute():
    run.load_library()
    from repro.comm import framing
    from repro.engine import streaming
    from repro.sketch import serialization

    original = serialization.serialize_deltas
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert not tracer.missing
        assert streaming.serialize_deltas.__wrapped__ is original
        # A module that imported a wrapped function while tracing was live.
        late = types.ModuleType("repro._late_importer")
        late.encode_frame = framing.encode_frame
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
    try:
        for owner, name, saved, _ in patched:
            assert vars(owner)[name] is saved, f"{owner}.{name} not restored"
        assert streaming.serialize_deltas is original
        assert late.encode_frame is framing.encode_frame
        assert not hasattr(framing.encode_frame, "__wrapped__")
    finally:
        del sys.modules[late.__name__]


def test_self_time_sweep_attributes_every_instant_once():
    tracer = tracing.Tracer()
    tracer.windows = [("op", 0.0, 10.0)]
    tracer.spans = [
        ("engine.query", 1.0, 9.0, 1, "run"),
        ("sketch.update", 2.0, 4.0, 1, "update_many"),
        ("service.codec", 3.0, 5.0, 2, "decode"),  # another thread, later start
    ]
    seconds, unattributed = tracer.layer_seconds()
    assert seconds == {"engine.query": 5.0, "sketch.update": 1.0, "service.codec": 2.0}
    assert unattributed == 2.0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_pass_has_no_failed_operation(workload):
    done = run_benchmark("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert [name for name, _, _ in run.END_TO_END] == list(last["metrics"])
    assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_traced_pass_reports_every_layer_and_a_chrome_trace(tmp_path):
    trace_file, out = tmp_path / "trace.json", tmp_path / "result.json"
    done = run_benchmark("--workload", "tree_fleet", "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--tiny", "--trace-out", str(trace_file),
                         "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    layers = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".s") and k != "bench.wall.s")
    assert layers == pytest.approx(metrics["bench.wall.s"]["value"], rel=0.05)
    assert metrics["comm.tree_merge.calls"]["value"] > 0
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert "missing_targets" not in json.loads(out.read_text())


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "oneshot_mix", "--seed", "1", "--seconds", "1",
                         "--trace", "0", script=tmp_path / "benchmarks" / "e2e" / "run.py",
                         cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
