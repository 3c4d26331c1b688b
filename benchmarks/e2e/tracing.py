"""Per-layer tracing from outside the library: patched wrappers + span sweep.

The traced run times calls into each layer's public callables without any
edit under ``src/``.  :class:`Tracer` wraps every target in :data:`TARGETS`
on the object that callers actually look it up on:

* a method is wrapped on the class that defines it (``AmsSketch.update_many``
  is really ``LinearStateMixin.update_many``), properties through their
  getter;
* a module function is wrapped on its defining module **and** on every
  loaded module that bound a copy with ``from ... import`` (for example
  ``repro.engine.streaming.serialize_deltas``).

:meth:`Tracer.uninstall` puts every original back, including copies a module
imported lazily while the wrappers were live.

Spans are recorded only inside an operation window (:meth:`Tracer.op`), so
set-up, input generation and the benchmark's own checks never show up.  The
benchmark's client thread and the in-process service coordinator's threads
record into one list; :meth:`Tracer.layer_seconds` then attributes every
instant of every operation window to exactly one layer — the most recently
started span still open at that instant, on any thread — which is the
span's self time when one thread runs and the working thread's span when a
client thread is blocked waiting for a server thread.  Time no span covers
is ``bench.unattributed.s``, so the layer seconds and it sum to the traced
wall-clock exactly.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _input_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``"module:Qual.name"`` counted under ``layer``."""

    layer: str
    path: str
    count: Callable[[tuple, dict, Any], dict] | None = None
    #: Network sends: remember the network's aggregate log, so the bits it
    #: records (also from later tree drains) count as ``comm.send.bits``.
    network: bool = False


TARGETS: tuple[Target, ...] = (
    # sketch: update kernels, merges, wire (de)serialization, estimators
    Target("sketch.update", "repro.sketch.countsketch:CountSketch.update_many", _rows),
    Target("sketch.update", "repro.sketch.ams:AmsSketch.update_many", _rows),
    Target("sketch.update", "repro.sketch.l0_sketch:L0Sketch.update_many", _rows),
    Target("sketch.update", "repro.sketch.l0_sampler:L0Sampler.update_many", _rows),
    Target("sketch.merge", "repro.sketch.countsketch:CountSketch.merge"),
    Target("sketch.merge", "repro.sketch.ams:AmsSketch.merge"),
    Target("sketch.encode", "repro.sketch.serialization:serialize_deltas", _result_bytes),
    Target("sketch.encode", "repro.sketch.serialization:serialize_state", _result_bytes),
    Target("sketch.decode", "repro.sketch.serialization:deserialize_deltas"),
    Target("sketch.decode", "repro.sketch.serialization:deserialize_state"),
    Target("sketch.query", "repro.sketch.countsketch:CountSketch.query_rows"),
    Target("sketch.query", "repro.sketch.countsketch:CountSketch.heavy_hitters"),
    Target("sketch.query", "repro.sketch.l0_sketch:L0Sketch.estimate_rows_pp"),
    Target("sketch.query", "repro.sketch.l0_sketch:L0Sketch.estimate_l0"),
    Target("sketch.query", "repro.sketch.l0_sketch:L0Sketch.estimate_state_l0"),
    Target("sketch.query", "repro.sketch.ams:AmsSketch.estimate_f2"),
    Target("sketch.query", "repro.sketch.ams:AmsSketch.estimate_f2_columns"),
    Target("sketch.query", "repro.sketch.ams:AmsSketch.estimate_state_f2"),
    Target("sketch.query", "repro.sketch.l0_sampler:L0Sampler.sample"),
    # comm: metered sends, accounting, tree merges, wire codec, framing
    Target("comm.send", "repro.comm.network:Network.send", network=True),
    Target("comm.send", "repro.comm.network:Network.broadcast", network=True),
    Target("comm.send", "repro.comm.network:TreeNetwork.send", network=True),
    Target("comm.send", "repro.comm.network:TreeNetwork.broadcast", network=True),
    Target("comm.send", "repro.comm.network:TreeNetwork.upstream_hop", network=True),
    Target("comm.send", "repro.service.transport:RemoteNetwork.send", network=True),
    Target("comm.send", "repro.service.transport:RemoteNetwork.broadcast", network=True),
    Target("comm.account", "repro.comm.accounting:MessageLog.record"),
    Target("comm.account", "repro.comm.accounting:MessageLog.total_bits"),
    Target("comm.tree_merge", "repro.comm.network:merge_payload_group"),
    Target("comm.tree_merge", "repro.engine.streaming:StreamingSession._ship_aggregated"),
    Target("comm.wire", "repro.comm.wire:encode_array", _result_bytes),
    Target("comm.wire", "repro.comm.wire:encode_bundle", _result_bytes),
    Target("comm.wire", "repro.comm.wire:decode_array", _input_bytes),
    Target("comm.wire", "repro.comm.wire:decode_bundle", _input_bytes),
    Target("comm.frame", "repro.comm.framing:encode_frame"),
    Target("comm.frame", "repro.comm.framing:encode_frames"),
    Target("comm.frame", "repro.comm.framing:FrameDecoder.feed"),
    # engine: protocol runs, coordinator finish, exchange, site fan-out
    Target("engine.query", "repro.engine.base:StarProtocol.run"),
    Target("engine.coord_product", "repro.engine.lp_norm:weighted_block_pp"),
    Target("engine.exchange", "repro.engine.exchange:star_exchange_item_supports"),
    Target("engine.site_phase", "repro.engine.runtime:Runtime.map"),
    Target("engine.site_phase", "repro.engine.runtime:Runtime.map_async"),
    Target("engine.site_phase", "repro.service.transport:RemoteRuntime.map"),
    Target("engine.ingest", "repro.engine.streaming:StreamingSession.ingest"),
    Target("engine.epoch", "repro.engine.streaming:StreamingSession.end_epoch"),
    Target("engine.live", "repro.engine.streaming:StreamingSession.live_lp_norm"),
    Target("engine.live", "repro.engine.streaming:StreamingSession.live_l0"),
    Target("engine.live", "repro.engine.streaming:StreamingSession.live_l0_sample"),
    Target("engine.live", "repro.engine.streaming:StreamingSession.live_heavy_hitters"),
    # service: client round trips, message codec, coordinator waiting on sites
    Target("service.roundtrip", "repro.service.client:ServiceClient.query"),
    Target("service.codec", "repro.service.messages:encode_message", _result_bytes),
    Target("service.codec", "repro.service.messages:encode_payload", _result_bytes),
    Target("service.codec", "repro.service.messages:decode_message", _input_bytes),
    Target("service.codec", "repro.service.messages:decode_payload", _input_bytes),
    Target("service.site_wait", "repro.service.transport:request_with_retry"),
    Target("service.site_wait", "repro.service.transport:SocketTransport.run_tasks"),
)

#: Every per-layer metric the traced run reports, with its unit.  The
#: ``.s`` metrics are self times (see :meth:`Tracer.layer_seconds`); the
#: counts are taken on the outermost span of a layer only, so a nested call
#: into the same layer (``broadcast`` -> ``send``) is not counted twice.
#: Flows are per timed cycle, so a faster layer leaves the others' numbers
#: alone even though more cycles fit into the run's seconds.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("sketch.update.calls", "count/cycle"),
    ("sketch.update.s", "s/cycle"),
    ("sketch.update.rows", "rows/cycle"),
    ("sketch.merge.calls", "count/cycle"),
    ("sketch.merge.s", "s/cycle"),
    ("sketch.encode.calls", "count/cycle"),
    ("sketch.encode.s", "s/cycle"),
    ("sketch.encode.bytes", "B/cycle"),
    ("sketch.decode.calls", "count/cycle"),
    ("sketch.decode.s", "s/cycle"),
    ("sketch.query.calls", "count/cycle"),
    ("sketch.query.s", "s/cycle"),
    ("comm.send.calls", "count/cycle"),
    ("comm.send.s", "s/cycle"),
    ("comm.send.bits", "bits/cycle"),
    ("comm.account.s", "s/cycle"),
    ("comm.retained_messages", "count"),
    ("comm.tree_merge.calls", "count/cycle"),
    ("comm.tree_merge.s", "s/cycle"),
    ("comm.wire.calls", "count/cycle"),
    ("comm.wire.s", "s/cycle"),
    ("comm.wire.bytes", "B/cycle"),
    ("comm.frame.calls", "count/cycle"),
    ("comm.frame.s", "s/cycle"),
    ("engine.query.calls", "count/cycle"),
    ("engine.query.s", "s/cycle"),
    ("engine.coord_product.s", "s/cycle"),
    ("engine.exchange.s", "s/cycle"),
    ("engine.site_phase.calls", "count/cycle"),
    ("engine.site_phase.s", "s/cycle"),
    ("engine.ingest.s", "s/cycle"),
    ("engine.epoch.s", "s/cycle"),
    ("engine.live.s", "s/cycle"),
    ("service.roundtrip.calls", "count/cycle"),
    ("service.roundtrip.s", "s/cycle"),
    ("service.roundtrip.failed", "count/cycle"),
    ("service.codec.calls", "count/cycle"),
    ("service.codec.s", "s/cycle"),
    ("service.codec.bytes", "B/cycle"),
    ("service.site_wait.calls", "count/cycle"),
    ("service.site_wait.s", "s/cycle"),
    ("service.retries", "count"),
    ("bench.unattributed.s", "s/cycle"),
    ("bench.wall.s", "s/cycle"),
    ("bench.ops_per_s", "ops/s"),
)


def _resolve(path: str):
    """``"module:Qual.name"`` -> (owner object, attribute name, original).

    Methods resolve to the class in the MRO that defines them, so two
    targets inherited from one base wrap it once.
    """
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        owner = next(cls for cls in owner.__mro__ if name in vars(cls))
        return owner, name, vars(owner)[name]
    return owner, name, getattr(owner, name)


class Tracer:
    """Wraps the layer boundaries, records spans, and derives the metrics."""

    def __init__(self) -> None:
        #: (layer, start, end, thread id, qualified name) per closed span.
        self.spans: list[tuple[str, float, float, int, str]] = []
        #: (operation kind, start, end) per operation window.
        self.windows: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggregate_logs: weakref.WeakSet = weakref.WeakSet()
        self._logs: weakref.WeakSet = weakref.WeakSet()
        #: (owner, attribute name, original, wrapper) per patched attribute.
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------- wrapping
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target, qualname: str) -> Callable:
        tracer, layer = self, target.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if target.network:
                tracer._aggregate_logs.add(args[0].log)
            stack = tracer._stack()
            outermost = layer not in stack
            stack.append(layer)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (layer, start, end, threading.get_ident(), qualname)
                )
                if outermost:
                    extra = {}
                    if failed:
                        extra["failed"] = 1
                    elif target.count is not None:
                        extra = target.count(args, kwargs, result)
                    tracer._count(layer, args, kwargs, extra)

        return wrapper

    def _count(self, layer: str, args: tuple, kwargs: dict, extra: dict) -> None:
        with self._lock:
            self.counts[f"{layer}.calls"] += 1
            for key, value in extra.items():
                self.counts[f"{layer}.{key}"] += value
            if layer == "comm.account" and "bits" in kwargs:
                log = args[0]
                self._logs.add(log)
                if log in self._aggregate_logs:
                    self.counts["comm.send.bits"] += kwargs["bits"]

    def install(self) -> "Tracer":
        """Patch every target; a target the library no longer has is listed
        in :attr:`missing` and skipped, so the traced run still completes."""
        # Import every target module first, so the scan for ``from ...
        # import`` copies below sees all of their importers.
        for target in TARGETS:
            try:
                importlib.import_module(target.path.split(":")[0])
            except ImportError:
                pass
        done: set[tuple[int, str]] = set()
        for target in TARGETS:
            try:
                owner, name, original = _resolve(target.path)
            except (ImportError, AttributeError, StopIteration):
                self.missing.append(target.path)
                continue
            # Targets inherited from one base resolve to the same attribute.
            if (id(owner), name) in done:
                continue
            done.add((id(owner), name))
            qualname = f"{getattr(owner, '__name__', owner)}.{name}"
            if isinstance(original, property):
                wrapper = property(
                    self._wrap(original.fget, target, qualname),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            else:
                wrapper = self._wrap(original, target, qualname)
            self._patch(owner, name, original, wrapper)
            if not isinstance(owner, type):
                # ``from module import fn`` bound a copy in each importer.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original
                    ):
                        self._patch(module, name, original, wrapper)
        return self

    def _patch(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, name, original, wrapper))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, including late ``from`` imports."""
        originals = {id(wrapper): original for _, _, original, wrapper in self._patches}
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)])
        self._patches.clear()

    # ----------------------------------------------------------- recording
    @contextmanager
    def op(self, kind: str):
        """One operation window: spans are recorded only inside these."""
        self.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.recording = False
            self.windows.append((kind, start, end))

    def retained_messages(self) -> int:
        """Messages still held by every live message log the run recorded
        into (each keeps its payloads; see ``comm/accounting.py``)."""
        return sum(len(log.messages) for log in list(self._logs))

    # ------------------------------------------------------------- metrics
    def layer_seconds(self) -> tuple[dict[str, float], float]:
        """Attribute the operation windows to layers by a sweep over spans.

        Returns ``({layer: seconds}, unattributed seconds)``.  At every
        instant inside a window the most recently started open span owns the
        time; with one thread that is the innermost span (self time).
        """
        events: list[tuple[float, int, int]] = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            events.append((start, 1, index))
            events.append((end, 0, index))
        for _, start, end in self.windows:
            events.append((start, 3, -1))
            events.append((end, 2, -1))
        events.sort()
        seconds: dict[str, float] = defaultdict(float)
        unattributed = 0.0
        open_spans: list[tuple[float, int]] = []
        closed: set[int] = set()
        in_window = False
        previous = events[0][0] if events else 0.0
        for now, kind, index in events:
            if in_window and now > previous:
                while open_spans and open_spans[0][1] in closed:
                    heapq.heappop(open_spans)
                if open_spans:
                    seconds[self.spans[open_spans[0][1]][0]] += now - previous
                else:
                    unattributed += now - previous
            previous = now
            if kind == 1:
                heapq.heappush(open_spans, (-self.spans[index][1], index))
            elif kind == 0:
                closed.add(index)
            else:
                in_window = kind == 3
        return dict(seconds), unattributed

    def metrics(
        self, *, cycles: int, ops_per_s: float, retained: int, retries: float
    ) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric (zero where a layer did not run).

        Flows are divided by ``cycles``, the timed cycles run.
        ``ops_per_s`` is the traced run's throughput, computed like the
        untraced one's; ``retained`` is :meth:`retained_messages` sampled
        while the run's sessions were alive; ``retries`` the coordinator's
        retry count.
        """
        seconds, unattributed = self.layer_seconds()
        seconds["bench.unattributed"] = unattributed
        seconds["bench.wall"] = sum(end - start for _, start, end in self.windows)
        values: dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith(".s"):
                total = seconds.get(name[: -len(".s")], 0.0)
            else:
                total = float(self.counts.get(name, 0.0))
            values[name] = total / cycles if unit.endswith("/cycle") else total
        values["comm.retained_messages"] = float(retained)
        values["service.retries"] = float(retries)
        values["bench.ops_per_s"] = ops_per_s
        return values

    def write_chrome_trace(self, path: str) -> None:
        """Write spans and operation windows as Chrome trace-event JSON
        (opens in Perfetto or ``chrome://tracing``)."""
        origin = min(
            [start for _, start, _ in self.windows]
            + [start for _, start, _, _, _ in self.spans],
            default=0.0,
        )
        events = [
            {"name": kind, "cat": "bench.op", "ph": "X", "pid": 1, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}
            for kind, start, end in self.windows
        ]
        events += [
            {"name": layer, "cat": layer.split(".")[0], "ph": "X", "pid": 1,
             "tid": tid, "ts": (start - origin) * 1e6,
             "dur": (end - start) * 1e6, "args": {"fn": qualname}}
            for layer, start, end, tid, qualname in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
