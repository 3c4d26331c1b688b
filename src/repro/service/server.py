"""The coordinator as an asyncio TCP server.

:class:`CoordinatorServer` owns the coordinator's matrix ``B`` and listens
for two kinds of connections, distinguished by their ``hello``:

* **sites** (``role: "site"``) upload their row-shard of ``A`` (wire codec,
  byte-exact) and then serve the protocol traffic: downstream pushes,
  upstream echoes, and fanned-out per-site tasks.  Once ``num_sites`` have
  registered the cluster is *ready* and a
  :class:`~repro.engine.api.ClusterEstimator` is built over the
  live links (:class:`~repro.service.transport.SocketTransport` +
  :class:`~repro.service.transport.RemoteRuntime`).
* **clients** (``role: "client"``) issue ``query`` messages — the estimator
  facade's methods plus the ``stream_*`` session surface — and get back
  ``answer`` messages carrying the pickled
  :class:`~repro.comm.protocol.ProtocolResult` (or epoch report / live
  value) together with the service metering report of
  :meth:`~repro.service.transport.RemoteNetwork.service_report`.

Concurrency model: one thread runs the asyncio loop and owns every socket;
queries execute on a single worker thread (serialized — the estimator's
seed stream is stateful by design), blocking on socket round-trips via
``run_coroutine_threadsafe`` bridges while the loop keeps pumping frames.
The per-connection discipline is strict FIFO request/reply, so a reply is
always matched to the oldest in-flight request of its connection.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import traceback
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.comm.conditions import NetworkConditions
from repro.comm.framing import FrameDecoder, FramingError, encode_frame, encode_frames
from repro.comm import wire
from repro.comm.tree import TreeSpec
from repro.engine.topology import check_finite, normalize_tree
from repro.engine.runtime import QuorumPolicy
from repro.service.messages import (
    PAYLOAD_TAG_BYTES,
    CorruptFrameError,
    Message,
    ServiceError,
    SiteTimeoutError,
    SiteUnavailableError,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
)
from repro.service.metrics import MetricsRegistry
from repro.service.tenancy import SessionManager, TenantQuota
from repro.service.transport import SiteLink, SocketTransport

__all__ = ["CoordinatorServer", "QUERY_METHODS", "STREAM_QUERY_METHODS", "TENANT_METHODS"]

#: Estimator facade methods a client may invoke remotely.
QUERY_METHODS = (
    "lp_norm",
    "join_size",
    "natural_join_size",
    "l0_sample",
    "l1_sample",
    "linf",
    "linf_kappa",
    "heavy_hitters",
)

#: One-shot query methods available on an open streaming session.
STREAM_QUERY_METHODS = QUERY_METHODS

#: Live (between-syncs) estimates available on an open streaming session.
STREAM_LIVE_METHODS = ("live_lp_norm", "live_l0", "live_l0_sample", "live_heavy_hitters")

#: Methods whose traffic meters on the streaming session's own network
#: (delta uploads), not on a per-query network built through the transport.
_SESSION_STATE_METHODS = frozenset(
    {"stream_open", "stream_ingest", "stream_end_epoch", "stream_sync",
     "stream_total_upload_bytes", "stream_drop_site", "stream_restore_site",
     "stream_collect_late", "stream_late_pending"}
    | {f"stream_{name}" for name in STREAM_LIVE_METHODS}
)

#: Multi-tenant service surface (the :class:`SessionManager` routes).
#: These run against server-local tenant sessions — they need no site
#: registrations, so they bypass the cluster-ready gate and report no
#: per-query transport metering (each tenant meters on its own network).
TENANT_METHODS = (
    "tenant_open",
    "tenant_ingest",
    "tenant_end_epoch",
    "tenant_run_epoch",
    "tenant_query",
    "tenant_report",
    "tenant_close",
    "tenants",
    "aggregate_report",
    "metrics",
)
_TENANT_METHODS = frozenset(TENANT_METHODS)


class _AsyncSiteLink(SiteLink):
    """Server side of one site connection (implements the transport seam)."""

    def __init__(
        self,
        site_name: str,
        index: int,
        loop: asyncio.AbstractEventLoop,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.site_name = site_name
        self.index = index
        self._loop = loop
        self._writer = writer
        #: Futures of in-flight requests, oldest first (strict FIFO replies).
        self.pending: deque[concurrent.futures.Future] = deque()
        self._observed_upstream: deque[tuple[int, int]] = deque()
        #: Frames staged by ``submit(..., flush=False)`` awaiting the next
        #: flushing submit (only ever touched by the single query worker).
        self._staged: list[tuple[Message, concurrent.futures.Future]] = []
        #: Replies still owed to requests a *failed* query abandoned; they
        #: are dropped on arrival (see :meth:`abandon_pending`).
        self._discard = 0
        self._dead: Exception | None = None

    # ------------------------------------------------------- transport seam
    def submit(
        self, message: Message, *, flush: bool = True
    ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        if self._dead is not None:
            # Fail fast off-loop: a write to a dead site's closed writer
            # could otherwise block in drain() forever, and the single
            # serialized query worker would wedge for every client.
            exc = SiteUnavailableError(
                f"site {self.site_name!r} is disconnected: {self._dead}",
                site=self.site_name,
            )
            for _, staged_future in self._staged:
                if not staged_future.done():
                    staged_future.set_exception(exc)
            self._staged.clear()
            future.set_exception(exc)
            return future
        if not flush:
            self._staged.append((message, future))
            return future
        batch = self._staged + [(message, future)]
        self._staged = []
        asyncio.run_coroutine_threadsafe(
            self._write_batch(batch), self._loop
        ).add_done_callback(_propagate_batch_failure(batch))
        return future

    def request(self, message: Message, timeout: float | None = None) -> Message:
        return self.submit(message).result(timeout)

    def take_observed_upstream(self) -> list[tuple[int, int]]:
        drained = []
        while True:
            try:
                drained.append(self._observed_upstream.popleft())
            except IndexError:
                return drained

    # ----------------------------------------------------------- loop side
    async def _write_batch(
        self, batch: list[tuple[Message, concurrent.futures.Future]]
    ) -> None:
        """Write a staged batch as one coalesced ``sendall`` (loop side).

        All frames enter :attr:`pending` before the write, in submit order,
        so the FIFO reply pairing is independent of how the bytes chunk on
        the wire.
        """
        if self._dead is not None or self._writer.is_closing():
            raise ServiceError(f"site {self.site_name!r} is disconnected")
        for _, future in batch:
            self.pending.append(future)
        self._writer.write(
            encode_frames([encode_message(message) for message, _ in batch])
        )
        await self._writer.drain()

    def on_reply(self, message: Message) -> None:
        """Route one incoming frame to the oldest in-flight request."""
        if self._discard:
            # A reply owed to a request some failed query abandoned: drop
            # it whole.  Recording its observed bytes would bleed into the
            # *next* query's meters and break observed == wire.
            self._discard -= 1
            return
        if message.type == "msg":
            # An upstream echo: count its codec-body bytes off the socket,
            # attributed to the round carried in the (relayed) meta —
            # *before* resolving the future, so the caller sees the record.
            self._observed_upstream.append(
                (int(message.meta.get("round", 0)), len(message.payload) - PAYLOAD_TAG_BYTES)
            )
        if not self.pending:
            raise ServiceError(
                f"site {self.site_name!r} sent an unsolicited {message.type!r}"
            )
        self.pending.popleft().set_result(message)

    def fail_pending(self, exc: Exception) -> None:
        while self.pending:
            future = self.pending.popleft()
            if not future.done():
                future.set_exception(exc)

    def mark_dead(self, exc: Exception) -> None:
        """Declare the connection gone: later submits fail fast, forever."""
        self._dead = exc
        self.fail_pending(exc)

    def abandon_pending(self, exc: Exception) -> None:
        """Write off every in-flight request after its query failed.

        The site will still answer them (FIFO discipline), so the owed
        replies are counted and dropped on arrival instead of being
        mis-routed to the next query's requests; any observed-byte records
        the dead query left undrained are discarded with it.  Runs on the
        loop thread — the same thread as :meth:`on_reply` — so the counts
        cannot race.
        """
        self._discard += len(self.pending)
        self.fail_pending(exc)
        self._observed_upstream.clear()


def _propagate_batch_failure(batch):
    """If the loop-side write coroutine itself dies, fail the reply futures."""

    def _done(write_result: concurrent.futures.Future) -> None:
        exc = write_result.exception()
        if exc is not None:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)

    return _done


class _RoutedSiteLink(SiteLink):
    """A leaf fronted by an aggregator: requests route via the agg's link.

    The coordinator has no socket to such a leaf — every frame for it gains
    a ``"to"`` meta entry and travels the aggregator's connection; the
    aggregator forwards it down its own socket and answers on the leaf's
    behalf (aggregated acks carrying the leaf's observed bytes/digest).
    Upstream payloads from the leaf are counted off the *aggregator's*
    socket and reported in the ack, so :meth:`take_observed_upstream` is
    always empty here.
    """

    def __init__(self, site_name: str, via: _AsyncSiteLink) -> None:
        self.site_name = site_name
        self.via = via
        self._dead: Exception | None = None

    def submit(
        self, message: Message, *, flush: bool = True
    ) -> concurrent.futures.Future:
        if self._dead is not None:
            future: concurrent.futures.Future = concurrent.futures.Future()
            future.set_exception(
                SiteUnavailableError(
                    f"site {self.site_name!r} is unreachable: {self._dead}",
                    site=self.site_name,
                )
            )
            return future
        routed = Message(
            message.type, dict(message.meta, to=self.site_name), message.payload
        )
        return self.via.submit(routed, flush=flush)

    def request(self, message: Message, timeout: float | None = None) -> Message:
        return self.submit(message).result(timeout)

    def take_observed_upstream(self) -> list[tuple[int, int]]:
        return []

    def mark_dead(self, exc: Exception) -> None:
        self._dead = exc

    def fail_pending(self, exc: Exception) -> None:  # via-link owns pending
        pass

    def abandon_pending(self, exc: Exception) -> None:
        pass


class _MessageStream:
    """Async message reader over one connection's frame stream.

    One socket read can complete several frames (replies coalesce when
    requests were pipelined), so completed bodies queue here and drain one
    message per :meth:`next` call.
    """

    def __init__(self, reader: asyncio.StreamReader, initial: bytes = b"") -> None:
        self._reader = reader
        self._decoder = FrameDecoder()
        self._bodies: deque[bytes] = deque()
        if initial:
            # Bytes the connection dispatcher already read while sniffing
            # for an HTTP scrape; they are the head of the frame stream.
            self._bodies.extend(self._decoder.feed(initial))

    async def next(self) -> Message | None:
        while not self._bodies:
            chunk = await self._reader.read(65536)
            self._bodies.extend(self._decoder.feed(chunk))
            if not chunk:
                if self._bodies:
                    break
                self._decoder.close()  # truncated tail raises FramingError
                return None
        return decode_message(self._bodies.popleft())


class CoordinatorServer:
    """Serve a k-site cluster estimate over real TCP sockets.

    Parameters
    ----------
    b:
        The coordinator's matrix.
    num_sites:
        Number of site agents expected to register before the cluster is
        ready to answer queries.
    expected_row_counts:
        Optional per-site row counts; a registering shard with a different
        row count is rejected (the service equivalent of a mis-sharded
        cluster).
    seed, conditions:
        Forwarded to the served estimator, exactly as for an in-process
        :class:`~repro.engine.api.ClusterEstimator` — equal seeds
        give bit-identical estimates and simulated meters.
    host, port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    deadline:
        The coordinator's one patience knob, in real seconds (default 10):
        per-site reply deadline on every protocol request *and* the bound
        on the orderly :meth:`stop` handshake.  A site that misses it mid-
        query raises :class:`~repro.service.messages.SiteTimeoutError`,
        which the server turns into a *degraded* answer over the surviving
        sub-cluster instead of an error.
    retries, backoff:
        Transient-refusal budget: a site replying ``retry`` is re-asked up
        to ``retries`` times with exponential backoff starting at
        ``backoff`` seconds (metered as ``repro_link_retries_total``).
    quorum:
        Optional :class:`~repro.engine.runtime.QuorumPolicy` (or ``(n, f)``
        tuple / bare ``f``) threaded into the served runtime: one-shot
        queries under latency conditions answer from the fastest ``n - f``
        responders, with stragglers excluded and renormalized.
    """

    def __init__(
        self,
        b: np.ndarray,
        *,
        num_sites: int,
        expected_row_counts: Sequence[int] | None = None,
        seed: int | None = None,
        conditions: NetworkConditions | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        runtime=None,
        prices=None,
        default_quota=None,
        deadline: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        quorum=None,
        tree=None,
    ) -> None:
        if num_sites < 0:
            raise ValueError(f"num_sites must be >= 0, got {num_sites}")
        self.b = np.asarray(b)
        check_finite(self.b, "B")
        self.num_sites = int(num_sites)
        self.expected_row_counts = (
            None if expected_row_counts is None else [int(n) for n in expected_row_counts]
        )
        if (
            self.expected_row_counts is not None
            and len(self.expected_row_counts) != self.num_sites
        ):
            raise ValueError(
                f"{len(self.expected_row_counts)} row counts for {num_sites} sites"
            )
        self.seed = seed
        self.conditions = conditions
        self.host = host
        self.port = int(port)
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.deadline = float(deadline)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.quorum = QuorumPolicy.coerce(quorum)
        #: Optional aggregation-tree overlay (TreeSpec or int fan-out) over
        #: the canonical site names.  Depth <= 2 (aggregators as root
        #: children): each aggregator is one *aggregator agent* process
        #: fronting its leaves over its own sockets; leaves behind it
        #: register through it, not directly.
        site_names = [f"site-{i}" for i in range(self.num_sites)]
        self.tree: TreeSpec | None = normalize_tree(tree, site_names)
        if self.tree is not None:
            # Checked here, not only when the first query builds a network:
            # sites register by the tree's names.
            self.tree.check_matches(site_names, "coordinator")
        if self.tree is not None and (
            self.tree.depth > 2
            or any(self.tree.node_depth(a) > 1 for a in self.tree.aggregators)
        ):
            raise ValueError(
                "the socket service supports aggregation trees of depth <= 2 "
                f"(aggregators as root children); got depth {self.tree.depth}"
            )

        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._started = threading.Event()
        self._ready = threading.Event()
        self._ready_async: asyncio.Event | None = None
        self._stopping = False
        self._startup_error: BaseException | None = None

        self._links: dict[str, _AsyncSiteLink] = {}
        self._shards: dict[int, np.ndarray] = {}
        self._estimator = None
        self._session = None
        self._transport: SocketTransport | None = None
        #: Sites whose frames failed a digest check: their links are dead
        #: and every later query excludes them (degraded answers).
        self.quarantined: set[str] = set()
        #: Degraded estimators per failed-site set, so repeat degraded
        #: queries keep one stateful seed stream instead of restarting it.
        self._degraded_cache: dict[frozenset, tuple] = {}
        #: Scrape registry shared with the tenant manager (GET /metrics).
        self.metrics = MetricsRegistry()
        self._metric_shortfalls = self.metrics.counter(
            "repro_quorum_shortfall_total",
            "Queries answered degraded (site timeout/loss) or epochs closed below quorum",
        )
        self._metric_late_merges = self.metrics.counter(
            "repro_late_merges_total",
            "Straggler deltas folded into live coordinator state after their deadline",
        )
        self._metric_quarantined = self.metrics.gauge(
            "repro_quarantined_sites",
            "Sites currently quarantined after a corrupt-frame digest mismatch",
        )
        self._metric_retries = self.metrics.counter(
            "repro_link_retries_total",
            "Protocol requests re-sent after a site's transient retry refusal",
            labels=("site",),
        )
        self._tenancy_runtime = runtime
        self._prices = prices
        self._default_quota = default_quota
        self._manager: SessionManager | None = None
        # A tenant-only service (num_sites=0) never waits for registrations.
        if self.num_sites == 0:
            self._ready.set()
        # One worker: queries are serialized on purpose (the estimator's
        # per-query seed stream is stateful, like the in-process facade).
        self._queries = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-query"
        )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "CoordinatorServer":
        """Bind the listening socket and start the loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolved once :meth:`start` returns)."""
        return (self.host, self.port)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until all ``num_sites`` site agents have registered."""
        return self._ready.wait(timeout)

    def stop(self) -> None:
        """Say ``bye`` to every site, close all sockets, join the thread."""
        if self._thread is None:
            return
        if not self._stopping and self._loop is not None and self._loop.is_running():
            self._stopping = True
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(timeout=self.deadline)
            except (concurrent.futures.TimeoutError, RuntimeError):
                self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        self._queries.shutdown(wait=False)
        if self._manager is not None:
            # The query worker is drained (loop gone, executor shut), so
            # closing the tenant sessions here cannot race a route.
            self._manager.close()
            self._manager = None

    def __enter__(self) -> "CoordinatorServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._ready_async = asyncio.Event()
        if self.num_sites == 0:
            self._ready_async.set()
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_connection, self.host, self.port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:  # bind failures surface in start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links.values()):
            if not isinstance(link, _AsyncSiteLink):
                continue  # routed leaves share their aggregator's socket
            try:
                link._writer.write(encode_frame(encode_message(Message("bye"))))
                await link._writer.drain()
                link._writer.close()
            except (ConnectionError, RuntimeError):
                pass
            link.fail_pending(ServiceError("coordinator shut down"))
        # Wind the connection handlers down before stopping the loop, so no
        # task is destroyed while pending.
        current = asyncio.current_task()
        handlers = [task for task in asyncio.all_tasks() if task is not current]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        loop = asyncio.get_running_loop()
        loop.call_soon(loop.stop)

    # ---------------------------------------------------------- connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Sniff before framing: a Prometheus scraper speaks HTTP, not the
        # frame protocol.  The frame magic is b"RP", so the first bytes
        # decide unambiguously; whatever was read while sniffing primes the
        # message stream.
        head = b""
        while len(head) < 4 and b"GET ".startswith(head):
            chunk = await reader.read(65536)
            if not chunk:
                break
            head += chunk
        if head[:4] == b"GET ":
            await self._serve_http(head, reader, writer)
            writer.close()
            return
        stream = _MessageStream(reader, initial=head)
        try:
            hello = await stream.next()
            if hello is None:
                return
            if hello.type != "hello":
                raise ServiceError(f"expected hello, got {hello.type!r}")
            role = hello.meta.get("role")
            if role == "site":
                await self._serve_site(hello, stream, writer)
            elif role == "aggregator":
                await self._serve_aggregator(hello, stream, writer)
            elif role == "client":
                await self._serve_client(stream, writer)
            else:
                raise ServiceError(f"unknown hello role {role!r}")
        except (ServiceError, FramingError, wire.WireFormatError, ValueError) as exc:
            await self._send_error(writer, exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown winds handlers down; returning (rather than
            # re-raising) keeps the streams machinery from logging the
            # cancellation as a connection error.
            pass
        finally:
            writer.close()

    async def _serve_http(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one plain-HTTP request: the Prometheus scrape endpoint.

        Only ``GET /metrics`` (and ``GET /``) are served — the body is the
        shared registry in text exposition format 0.0.4, so a stock
        Prometheus server can scrape the coordinator's listen port
        directly.  Anything else is a 404.  One request per connection
        (HTTP/1.0 semantics, ``Connection: close``).
        """
        while b"\r\n" not in head and b"\n" not in head:
            chunk = await reader.read(65536)
            if not chunk:
                break
            head += chunk
        request_line = head.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
        parts = request_line.decode("latin-1", "replace").split()
        path = parts[1] if len(parts) >= 2 else "/"
        if path.split("?", 1)[0] in ("/metrics", "/"):
            status, body = "200 OK", self.metrics.render().encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            status, body = "404 Not Found", b"not found\n"
            content_type = "text/plain; charset=utf-8"
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass

    async def _send_error(self, writer: asyncio.StreamWriter, exc: Exception) -> None:
        try:
            writer.write(
                encode_frame(
                    encode_message(
                        Message(
                            "error",
                            {
                                "error": type(exc).__name__,
                                "message": str(exc),
                                "traceback": traceback.format_exc(),
                            },
                        )
                    )
                )
            )
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    # ----------------------------------------------------------------- sites
    def _check_shard(self, name: str, index: int, shard) -> np.ndarray:
        shard = np.asarray(shard)
        if shard.ndim != 2 or shard.shape[1] != self.b.shape[0]:
            raise ServiceError(
                f"shard of shape {shard.shape} does not match B {self.b.shape}"
            )
        if (
            self.expected_row_counts is not None
            and shard.shape[0] != self.expected_row_counts[index]
        ):
            raise ServiceError(
                f"site {name!r} uploaded {shard.shape[0]} rows, expected "
                f"{self.expected_row_counts[index]}"
            )
        check_finite(shard, f"the shard of site {name!r}")
        return shard

    def _expected_links(self) -> int:
        """Connections + routes needed before the cluster is ready."""
        if self.tree is None:
            return self.num_sites
        return self.num_sites + len(self.tree.aggregators)

    def _maybe_ready(self) -> None:
        if (
            len(self._links) == self._expected_links()
            and len(self._shards) == self.num_sites
        ):
            self._build_estimator()
            self._ready.set()
            self._ready_async.set()

    async def _serve_site(self, hello, stream, writer) -> None:
        index = int(hello.meta.get("index", -1))
        if not 0 <= index < self.num_sites:
            raise ServiceError(
                f"site index {index} out of range for a {self.num_sites}-site cluster"
            )
        name = f"site-{index}"
        if name in self._links:
            raise ServiceError(f"site {name!r} is already registered")
        if self.tree is not None and self.tree.parent[name] != self.tree.root:
            raise ServiceError(
                f"site {name!r} is behind aggregator "
                f"{self.tree.parent[name]!r} in this cluster's tree; it must "
                f"register through its aggregator agent, not directly"
            )
        shard = self._check_shard(name, index, decode_payload(hello.payload))
        link = _AsyncSiteLink(name, index, asyncio.get_running_loop(), writer)
        self._links[name] = link
        self._shards[index] = shard
        writer.write(
            encode_frame(
                encode_message(
                    Message(
                        "assign",
                        {
                            "name": name,
                            "index": index,
                            "k": self.num_sites,
                            "registered": len(self._links),
                        },
                    )
                )
            )
        )
        await writer.drain()
        self._maybe_ready()
        try:
            while True:
                message = await stream.next()
                if message is None or message.type == "bye":
                    break
                link.on_reply(message)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            link.fail_pending(
                SiteUnavailableError(f"site {name!r} connection lost: {exc}", site=name)
            )
        finally:
            # Mark, don't just fail: the live transport holds its own
            # reference to this link, so a query already in flight (or the
            # next one) must see its submits fail fast instead of writing
            # into a closed socket and wedging the query worker.
            link.mark_dead(
                SiteUnavailableError(f"site {name!r} disconnected", site=name)
            )
            self._links.pop(name, None)

    async def _serve_aggregator(self, hello, stream, writer) -> None:
        """Register one aggregator agent and the leaf sites it fronts.

        The agent's hello carries its tree name and the *global* indices of
        its children (order matters: it must match the tree's child order),
        with the children's shards — collected over the agent's own sockets
        — as the payload.  One connection then serves the whole subtree:
        the aggregator's own edge plus a routed link per leaf.
        """
        if self.tree is None:
            raise ServiceError(
                "this coordinator serves a flat star; aggregator agents "
                "need a tree= cluster"
            )
        name = str(hello.meta.get("name", ""))
        if name not in self.tree.children or name == self.tree.root:
            raise ServiceError(f"unknown aggregator {name!r} for this cluster's tree")
        if self.tree.parent[name] != self.tree.root:
            raise ServiceError(
                f"aggregator {name!r} is not a root child (depth-2 trees only)"
            )
        if name in self._links:
            raise ServiceError(f"aggregator {name!r} is already registered")
        indices = [int(i) for i in hello.meta.get("indices", [])]
        expected = list(self.tree.children[name])
        if [f"site-{i}" for i in indices] != expected:
            raise ServiceError(
                f"aggregator {name!r} fronts sites {expected}, but registered "
                f"indices {indices}"
            )
        shards = decode_payload(hello.payload)
        if not isinstance(shards, (list, tuple)) or len(shards) != len(indices):
            raise ServiceError(
                f"aggregator {name!r} must upload one shard per child "
                f"({len(indices)} expected)"
            )
        checked = {
            index: self._check_shard(f"site-{index}", index, shard)
            for index, shard in zip(indices, shards)
        }
        link = _AsyncSiteLink(name, -1, asyncio.get_running_loop(), writer)
        routed = {child: _RoutedSiteLink(child, link) for child in expected}
        self._links[name] = link
        self._links.update(routed)
        self._shards.update(checked)
        writer.write(
            encode_frame(
                encode_message(
                    Message(
                        "assign",
                        {
                            "name": name,
                            "children": expected,
                            "k": self.num_sites,
                            "registered": len(self._shards),
                        },
                    )
                )
            )
        )
        await writer.drain()
        self._maybe_ready()
        try:
            while True:
                message = await stream.next()
                if message is None or message.type == "bye":
                    break
                link.on_reply(message)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            link.fail_pending(
                SiteUnavailableError(
                    f"aggregator {name!r} connection lost: {exc}", site=name
                )
            )
        finally:
            lost = SiteUnavailableError(
                f"aggregator {name!r} disconnected", site=name
            )
            link.mark_dead(lost)
            for child_link in routed.values():
                child_link.mark_dead(lost)
            self._links.pop(name, None)
            for child in expected:
                self._links.pop(child, None)

    def _build_estimator(self) -> None:
        from repro.engine.api import ClusterEstimator

        self._transport = self._make_transport(self._links)
        shards = [self._shards[i] for i in range(self.num_sites)]
        self._estimator = ClusterEstimator(
            shards,
            self.b,
            seed=self.seed,
            runtime=self._transport.runtime(quorum=self.quorum),
            conditions=self.conditions,
            transport=self._transport,
            tree=self.tree,
        )

    def _make_transport(self, links) -> SocketTransport:
        """A transport over ``links`` with this server's hardening knobs."""
        return SocketTransport(
            links,
            deadline=self.deadline,
            retries=self.retries,
            backoff=self.backoff,
            on_retry=lambda site: self._metric_retries.inc(site=site),
        )

    # ----------------------------------------------------------- degradation
    def _abandon_links(self, exc: Exception) -> None:
        """Write off every in-flight request, synchronously, loop-side.

        The degradation path re-runs a query over the same sockets; any
        replies the failed attempt is still owed must be counted off and
        dropped *before* new requests go out, or they would be mis-routed
        (FIFO) into the rerun.
        """
        done = threading.Event()

        def _run() -> None:
            for link in self._links.values():
                link.abandon_pending(exc)
            done.set()

        self._loop.call_soon_threadsafe(_run)
        done.wait(timeout=self.deadline)

    def _quarantine(self, site: str) -> None:
        """Declare a site Byzantine: kill its link, exclude it from now on."""
        if site in self.quarantined:
            return
        self.quarantined.add(site)
        self._metric_quarantined.set(len(self.quarantined))
        link = self._links.get(site)
        if link is not None:
            self._loop.call_soon_threadsafe(
                link.mark_dead,
                CorruptFrameError(f"site {site!r} is quarantined", site=site),
            )

    def _degrade(self, method: str, kwargs: dict, failed: set, reason: str):
        """Answer ``method`` without the failed sites.

        One-shot estimator queries re-run over the surviving sub-cluster
        (all shards live server-side, so the degraded estimator excludes
        and renormalizes exactly like an in-process ``dropout="exclude"``
        run).  Streaming-session methods cannot be blindly re-run (the
        failed boundary may have partially shipped), so the failed sites
        are dropped from the session and the error re-raised carrying the
        structured degradation report — the next boundary proceeds without
        them, and a later restore + sync late-merges their backlog.

        Returns ``(value, degradation report, network for metering)``.
        """
        failed = set(failed) | self.quarantined
        if self.tree is not None:
            # A failure named after an aggregator (or a leaf whose fronting
            # aggregator link is gone) takes its whole subtree down: expand
            # so the degraded sub-cluster is actually reachable.
            for name in sorted(failed):
                if name in self.tree.children:
                    failed.discard(name)
                    failed.update(self.tree.subtree_sites(name))
                elif name in self.tree.parent:
                    for agg in self.tree.ancestors(name):
                        if agg not in self._links:
                            failed.update(self.tree.subtree_sites(agg))
        report = {
            "reason": reason,
            "failed_sites": sorted(failed),
            "policy": "exclude",
            "surviving_sites": self.num_sites - len(failed),
        }
        self._metric_shortfalls.inc()
        self._abandon_links(ServiceError(f"query degraded: {reason}"))
        if method.startswith("stream_") and self._session is not None:
            for name in sorted(failed):
                index = int(name.rsplit("-", 1)[-1])
                if 0 <= index < self._session.num_sites:
                    self._session.drop_site(index)
            exc = ServiceError(
                f"site failure during {method!r} ({reason}): dropped "
                f"{sorted(failed)} from the streaming session; restore and "
                f"sync to late-merge their backlog"
            )
            exc.degradation = report
            raise exc
        if method not in QUERY_METHODS or self._estimator is None:
            exc = ServiceError(
                f"cannot degrade method {method!r} after {reason} of "
                f"{sorted(failed)}"
            )
            exc.degradation = report
            raise exc
        if len(failed) >= self.num_sites:
            exc = ServiceError(f"no surviving sites after {reason} of {sorted(failed)}")
            exc.degradation = report
            raise exc
        estimator, transport = self._degraded_estimator(frozenset(failed))
        value = getattr(estimator, method)(**kwargs)
        return value, report, transport.last_network

    def _degraded_estimator(self, failed: frozenset):
        """The (cached) estimator over the sub-cluster excluding ``failed``.

        Caching per failed-site set keeps the degraded seed stream stateful
        across queries, mirroring the primary estimator's discipline.  Note
        the degraded stream starts fresh — degraded answers are *explicitly
        marked* (the ``degraded`` meta), not bit-continuations of the
        primary stream.
        """
        cached = self._degraded_cache.get(failed)
        if cached is not None:
            return cached
        from repro.engine.api import ClusterEstimator

        surviving = {
            name: link for name, link in self._links.items() if name not in failed
        }
        transport = self._make_transport(surviving)
        base = self.conditions if self.conditions is not None else NetworkConditions()
        quorum = self.quorum
        if quorum is not None:
            # The sub-cluster is smaller than the policy's n, so a pinned n
            # would fail validation; re-anchor the quorum to the surviving
            # count (n defaults to the actual site count at run time) and
            # keep f within it.
            k = self.num_sites - len(failed)
            quorum = QuorumPolicy(
                f=min(quorum.f, max(k - 1, 0)), deadline=quorum.deadline
            )
        estimator = ClusterEstimator(
            [self._shards[i] for i in range(self.num_sites)],
            self.b,
            seed=self.seed,
            runtime=transport.runtime(dropout="exclude", quorum=quorum),
            conditions=base.excluding(failed),
            transport=transport,
            tree=self.tree,
        )
        self._degraded_cache[failed] = (estimator, transport)
        return estimator, transport

    # --------------------------------------------------------------- clients
    async def _serve_client(self, stream, writer) -> None:
        writer.write(
            encode_frame(
                encode_message(
                    Message(
                        "assign",
                        {
                            "role": "client",
                            "k": self.num_sites,
                            "ready": self._ready.is_set(),
                            "b_shape": list(self.b.shape),
                        },
                    )
                )
            )
        )
        await writer.drain()
        loop = asyncio.get_running_loop()
        while True:
            message = await stream.next()
            if message is None or message.type == "bye":
                if message is not None and message.meta.get("shutdown"):
                    # An orderly remote shutdown: acknowledge, then stop.
                    writer.write(encode_frame(encode_message(Message("ack"))))
                    await writer.drain()
                    self._stopping = True
                    await self._shutdown()
                return
            if message.type != "query":
                raise ServiceError(f"expected query, got {message.type!r}")
            if message.meta.get("method") not in _TENANT_METHODS:
                await self._ready_async.wait()  # block until k sites joined
            try:
                reply = await loop.run_in_executor(
                    self._queries, self._answer, message
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                # The failed query may have left requests in flight on the
                # site links; the sites will still answer them (FIFO), so
                # write them off *now, on the loop thread* — their replies
                # are dropped on arrival, their futures failed, and their
                # stale observed-byte records discarded.  Without this the
                # next query inherits mis-routed replies and bled meters,
                # and a future nobody resolves can wedge the query worker.
                abandon = ServiceError(f"query failed: {exc}")
                for link in self._links.values():
                    link.abandon_pending(abandon)
                error_meta = {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }
                degradation = getattr(exc, "degradation", None)
                if degradation is not None:
                    # A structured degradation report (which sites failed,
                    # what policy applies) rides along so clients can react
                    # programmatically instead of parsing the message.
                    error_meta["degradation"] = degradation
                reply = Message("error", error_meta)
            writer.write(encode_frame(encode_message(reply)))
            await writer.drain()

    # ------------------------------------------------------- query execution
    def _answer(self, message: Message) -> Message:
        """Run one client query on the worker thread; build its answer."""
        method = message.meta.get("method")
        kwargs = decode_payload(message.payload) if message.payload else {}
        if not isinstance(kwargs, dict):
            raise ServiceError(f"query kwargs must be a dict, got {type(kwargs)}")
        degraded = None
        degraded_network = None
        if method in QUERY_METHODS and self.quarantined and self._estimator is not None:
            # Known-bad sites never get another query; go straight to the
            # degraded sub-cluster instead of re-tripping the digest check.
            value, degraded, degraded_network = self._degrade(
                method, kwargs, set(), reason="quarantine"
            )
        else:
            try:
                value = self._dispatch(method, kwargs)
            except CorruptFrameError as exc:
                if exc.site is not None:
                    self._quarantine(exc.site)
                value, degraded, degraded_network = self._degrade(
                    method, kwargs, {exc.site} if exc.site else set(),
                    reason="corrupt-frame",
                )
            except SiteUnavailableError as exc:
                reason = (
                    "timeout" if isinstance(exc, SiteTimeoutError) else "disconnect"
                )
                value, degraded, degraded_network = self._degrade(
                    method, kwargs, {exc.site} if exc.site else set(), reason=reason
                )
        self._observe_epoch_value(value)
        # Session-state methods (ingest, epoch boundaries, live estimates)
        # meter on the session's long-lived network; tenant methods meter
        # on each tenant's own network (surfaced via reports/metrics, not
        # per-answer); everything else built a fresh per-query network
        # through the transport.
        if degraded_network is not None:
            network = degraded_network
        elif method in _TENANT_METHODS:
            network = None
        elif method in _SESSION_STATE_METHODS and self._session is not None:
            network = self._session.network
        else:
            network = (
                self._transport.last_network if self._transport is not None else None
            )
        report = network.service_report() if network is not None else None
        meta = {"method": method}
        if degraded is not None:
            meta["degraded"] = degraded
        return Message(
            "answer",
            meta,
            encode_payload({"result": value, "service": report}),
        )

    def _observe_epoch_value(self, value) -> None:
        """Feed robustness metrics off a boundary's epoch report."""
        late_merged = getattr(value, "late_merged", None)
        if late_merged:
            self._metric_late_merges.inc(len(late_merged))
        if getattr(value, "quorum_met", True) is False:
            self._metric_shortfalls.inc()

    def _ensure_manager(self) -> SessionManager:
        """The tenant manager, built on first use (query-worker thread only).

        All tenant routes execute on the single serialized query worker, so
        lazy construction and every later mutation are naturally
        single-threaded; the metrics registry itself is thread-safe for the
        HTTP scrape running concurrently on the loop thread.
        """
        if self._manager is None:
            self._manager = SessionManager(
                self.b,
                runtime=self._tenancy_runtime,
                seed=self.seed if self.seed is not None else 0,
                metrics=self.metrics,
                prices=self._prices,
                default_quota=self._default_quota,
            )
        return self._manager

    def _dispatch_tenant(self, method: str, kwargs: dict) -> Any:
        manager = self._ensure_manager()
        if method == "tenant_open":
            quota = kwargs.pop("quota", None)
            if isinstance(quota, dict):
                quota = TenantQuota(**quota)
            name = kwargs.pop("name")
            row_counts = kwargs.pop("row_counts")
            session = manager.open_tenant(name, row_counts, quota=quota, **kwargs)
            return {"tenant": name, "sites": session.num_sites, "epoch": session.epoch}
        if method == "tenant_ingest":
            manager.ingest(
                kwargs["name"], int(kwargs["site"]), kwargs["rows"], kwargs["deltas"]
            )
            return {"tenant": kwargs["name"]}
        if method == "tenant_end_epoch":
            return manager.end_epoch(
                kwargs["name"], force=bool(kwargs.get("force", False))
            )
        if method == "tenant_run_epoch":
            return manager.run_epoch(force=bool(kwargs.get("force", False)))
        if method == "tenant_query":
            # ``query`` is the estimator method name; it travels as ``query``
            # (not ``method``) because ``ServiceClient.query(method, ...)``
            # already claims that keyword.
            return manager.query(
                kwargs.pop("name"), kwargs.pop("query"), **kwargs
            )
        if method == "tenant_report":
            return manager.report(kwargs["name"]).to_dict()
        if method == "tenant_close":
            return manager.close_tenant(kwargs["name"]).to_dict()
        if method == "tenants":
            return manager.tenants
        if method == "aggregate_report":
            return manager.aggregate_report()
        if method == "metrics":
            return self.metrics.render()
        raise ServiceError(f"unknown tenant method {method!r}")

    def _dispatch(self, method: str, kwargs: dict) -> Any:
        if method in _TENANT_METHODS:
            return self._dispatch_tenant(method, kwargs)
        if self._estimator is None:
            raise ServiceError(
                f"method {method!r} needs a registered site cluster "
                f"(this coordinator serves {self.num_sites} sites)"
            )
        if method in QUERY_METHODS:
            return getattr(self._estimator, method)(**kwargs)
        if method == "info":
            return {
                "k": self.num_sites,
                "b_shape": list(self.b.shape),
                "seed": self.seed,
                "is_binary": self._estimator.is_binary,
                "row_counts": [
                    int(self._shards[i].shape[0]) for i in range(self.num_sites)
                ],
            }
        if method == "stream_open":
            self._session = self._estimator.stream(**kwargs)
            return {"epoch": self._session.epoch, "sites": self._session.num_sites}
        session = self._session
        if session is None and method.startswith("stream_"):
            raise ServiceError("no streaming session is open (send stream_open first)")
        if method == "stream_ingest":
            site = int(kwargs["site"])
            session.ingest(site, kwargs["rows"], kwargs["deltas"])
            return {"epoch": session.epoch}
        if method == "stream_end_epoch":
            return session.end_epoch(**kwargs)
        if method == "stream_sync":
            return session.sync()
        if method == "stream_total_upload_bytes":
            return session.total_upload_bytes
        if method == "stream_drop_site":
            session.drop_site(int(kwargs["site"]))
            return {"dropped": session.dropped_sites}
        if method == "stream_restore_site":
            session.restore_site(int(kwargs["site"]))
            return {"dropped": session.dropped_sites}
        if method == "stream_collect_late":
            folded = session.collect_late()
            if folded:
                self._metric_late_merges.inc(len(folded))
            return folded
        if method == "stream_late_pending":
            return session.late_pending
        if method in {f"stream_{name}" for name in STREAM_LIVE_METHODS}:
            return getattr(session, method[len("stream_") :])(**kwargs)
        if method in {f"stream_{name}" for name in STREAM_QUERY_METHODS}:
            return getattr(session, method[len("stream_") :])(**kwargs)
        raise ServiceError(f"unknown query method {method!r}")
