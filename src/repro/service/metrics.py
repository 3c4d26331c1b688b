"""Prometheus-text-format metrics registry for the monitoring service.

The service layer already *measures* everything that matters — the
bit-accounting contract meters every byte a protocol or streaming session
ships — but those meters live on Python objects.  This module gives them an
operational surface: a tiny, dependency-free metrics registry in the shape
of ``prometheus_client`` (the same registry/labels/render split MAAS's
``provisioningserver/prometheus`` utils wrap), rendered in the Prometheus
text exposition format (version 0.0.4), so a stock Prometheus server can
scrape a running coordinator.

Only the two metric kinds the service needs are implemented:

:class:`Counter`
    Monotone totals — rows ingested, bytes shipped, epochs closed,
    quota rejections.  ``inc`` rejects negative increments.
:class:`Gauge`
    Point-in-time values — open tenants, epoch lag, pending updates,
    simulated makespan.

Every metric lives in a :class:`MetricsRegistry` and may declare *label*
dimensions (``tenant``, ``site``, ...); one metric object holds one time
series per label combination.  :meth:`MetricsRegistry.render` produces the
scrape body; :func:`parse_metrics_text` is the inverse used by the test
suite and the load-generator gate to prove the exposition round-trips.

Everything is guarded by one lock per registry: the asyncio server's query
worker, the session manager and an HTTP scrape may touch the registry from
different threads.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "MetricsError",
    "MetricsRegistry",
    "parse_metrics_text",
]

#: Prometheus metric and label name grammar (the subset we accept).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Text-exposition sample line, for :func:`parse_metrics_text`.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


class MetricsError(ValueError):
    """A malformed metric registration, sample, or exposition text."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients conventionally do."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """One named metric: fixed label names, one sample per label tuple."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"invalid label name {label!r} on {name!r}")
        if len(set(labels)) != len(labels):
            raise MetricsError(f"duplicate label names on {name!r}: {labels}")
        self.name = name
        self.help_text = " ".join(str(help_text).split())
        self.label_names = tuple(labels)
        self._lock = lock
        #: label-value tuple (aligned with label_names) -> sample value.
        self._samples: dict[tuple[str, ...], float] = {}
        if not self.label_names:
            self._samples[()] = 0.0

    # ----------------------------------------------------------------- label
    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricsError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def value(self, **labels: object) -> float:
        """The current sample for one label combination (0.0 if unseen)."""
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0.0)

    def remove(self, **labels: object) -> None:
        """Drop one label combination's series (e.g. a closed tenant)."""
        key = self._key(labels)
        with self._lock:
            self._samples.pop(key, None)

    def samples(self) -> dict[tuple[str, ...], float]:
        """A snapshot of every (label-values -> value) sample."""
        with self._lock:
            return dict(self._samples)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)


class MetricsRegistry:
    """A named collection of metrics with one text-exposition surface.

    Registration is idempotent in the useful way: asking for an existing
    name returns the existing metric, provided the kind, help text and
    label names match — a mismatched re-registration is a programming
    error and raises :class:`MetricsError` instead of silently forking the
    time series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------- register
    def _register(self, cls: type, name: str, help_text: str, labels: Sequence[str]):
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if (
                type(existing) is not cls
                or existing.label_names != tuple(labels)
            ):
                raise MetricsError(
                    f"metric {name!r} already registered as a "
                    f"{existing.kind} with labels {list(existing.label_names)}"
                )
            return existing
        metric = cls(name, help_text, labels, self._lock)
        with self._lock:
            # Two threads may have built the metric concurrently; first in
            # wins so every caller shares one sample store.
            return self._metrics.setdefault(name, metric)

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help_text, labels)

    def get(self, name: str) -> _Metric | None:
        """The registered metric of that name, if any."""
        with self._lock:
            return self._metrics.get(name)

    # --------------------------------------------------------------- render
    def collect(self) -> Iterator[tuple[str, dict[str, str], float]]:
        """Every sample as ``(metric name, labels dict, value)``."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            for key, value in sorted(metric.samples().items()):
                yield metric.name, dict(zip(metric.label_names, key)), value

    def render(self) -> str:
        """The scrape body in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, value in sorted(metric.samples().items()):
                if metric.label_names:
                    labels = ",".join(
                        f'{name}="{_escape_label_value(item)}"'
                        for name, item in zip(metric.label_names, key)
                    )
                    lines.append(f"{metric.name}{{{labels}}} {_format_value(value)}")
                else:
                    lines.append(f"{metric.name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def parse_metrics_text(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse a text-format exposition back into samples.

    Returns ``{(name, sorted label items): value}``.  This is the scrape
    side of the contract: the tests and the load-generator gate feed
    :meth:`MetricsRegistry.render` output through here to prove a real
    Prometheus scraper would accept it.  Malformed lines raise
    :class:`MetricsError` — a gate that skipped unparseable lines would
    prove nothing.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    typed: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if parts[2] in typed:
                    raise MetricsError(
                        f"line {line_number}: duplicate TYPE for {parts[2]!r}"
                    )
                typed[parts[2]] = parts[3] if len(parts) > 3 else ""
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                raise MetricsError(
                    f"line {line_number}: unknown comment form {line!r}"
                )
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise MetricsError(f"line {line_number}: unparseable sample {line!r}")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels[pair.group("key")] = _unescape_label_value(pair.group("value"))
                consumed = pair.end()
            if consumed != len(raw_labels):
                raise MetricsError(
                    f"line {line_number}: unparseable labels {raw_labels!r}"
                )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise MetricsError(
                f"line {line_number}: unparseable value {match.group('value')!r}"
            ) from None
        key = (match.group("name"), tuple(sorted(labels.items())))
        if key in samples:
            raise MetricsError(
                f"line {line_number}: duplicate sample for {key[0]!r} {labels}"
            )
        samples[key] = value
    return samples
