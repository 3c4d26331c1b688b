"""Transport adapters that put the engine on real sockets.

Three pieces turn an in-process protocol execution into a distributed one
without touching a line of protocol code:

:class:`RemoteNetwork`
    The one socket network: a :class:`~repro.comm.network.Network` whose
    every metered message *also* travels over the TCP connections of its
    edges — the flat star when no ``tree=`` is given, a depth-<=2
    aggregation tree otherwise.  Downstream messages are pushed to the
    site (which acks with the byte count it observed on its socket);
    upstream messages are pushed back by the *site* — the server hands the
    site a control copy (``relay``) and the site emits the actual ``msg``
    frame, so the payload bytes physically travel site -> server and are
    counted off the server's socket.  Every payload crossing is
    digest-checked, so a transport that corrupted or dropped a single byte
    fails loudly.  The makespan model follows the in-process network's
    rule: links in parallel without a ``tree=``, serialized fan-in with
    one.

    The network keeps **three** independent meters:

    * the inherited simulated meter — the paper-convention formula bits,
      bit-identical to an in-process run of the same protocol;
    * a *wire meter* (same round structure) charging 8 bits per actually
      encoded payload byte — the service's billing convention, and the
      convention the streaming runtime already uses in-process;
    * *observed* byte counters per edge per round, measured at the socket
      (server-side reads for upstream, site-side reads for downstream).

    The service invariant, asserted in ``tests/service/``:
    ``observed_bytes * 8 == wire-meter bits`` on every edge and in every
    round — and for streaming payloads (already encoded bytes, charged
    8 bits/byte in-process too) all three meters coincide exactly.

:class:`RemoteRuntime`
    A :class:`~repro.engine.runtime.Runtime` whose :meth:`map` fans the
    engine's picklable per-site tasks out to the site processes (round
    robin, pipelined) instead of a local pool.  Results return in task
    order and generators round-trip exactly as under the ``processes``
    executor, so outputs stay bit-identical.

:class:`SocketTransport`
    The :class:`~repro.comm.transport.Transport` gluing both to a set of
    live site links; plugged into the estimator facades via their
    ``transport=`` parameter.

The :class:`SiteLink` interface is the thin seam to the event loop: the
asyncio server implements it with ``run_coroutine_threadsafe`` bridges
(queries execute on a worker thread while the loop owns the sockets).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from typing import Any, Callable, Mapping, Sequence

from repro.comm.accounting import MessageLog
from repro.comm.conditions import NetworkConditions
from repro.comm.network import DOWNSTREAM, UPSTREAM, Network
from repro.comm.transport import Transport
from repro.comm.tree import TreeSpec
from repro.engine.runtime import QuorumPolicy, Runtime
from repro.service.messages import (
    PAYLOAD_TAG_BYTES,
    CorruptFrameError,
    Message,
    ServiceError,
    SiteTimeoutError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "RemoteNetwork",
    "RemoteRuntime",
    "SiteLink",
    "SocketTransport",
]


def payload_digest(blob: bytes) -> str:
    """Digest used to verify payload bytes across a socket crossing."""
    return hashlib.sha256(blob).hexdigest()


class SiteLink:
    """One live coordinator<->site connection, as the adapters see it.

    Implementations (the asyncio server) provide a thread-safe, FIFO
    request/reply primitive plus the socket-observed byte counters for
    *upstream* ``msg`` frames (the server counts those off its own reads;
    downstream observations come back in the site's acks and are recorded
    here by the :class:`RemoteNetwork`).
    """

    site_name: str

    def request(self, message: Message, timeout: float | None = None) -> Message:
        """Send one message and block for its reply (FIFO per link).

        ``timeout`` bounds the wait in real seconds; expiry raises
        :class:`TimeoutError` (the caller classifies it — see
        :meth:`RemoteNetwork._request`)."""
        raise NotImplementedError

    def submit(self, message: Message, *, flush: bool = True):
        """Send one message, return a future for its reply (pipelined).

        ``flush=False`` *stages* the frame: implementations may hold it
        until the next flushing submit and write the whole batch with one
        ``sendall`` (coalescing a round open with its first burst into a
        single syscall and, on the receiving side, one socket read).
        Implementations without staging may ignore the flag — replies are
        FIFO either way.
        """
        raise NotImplementedError

    def take_observed_upstream(self) -> list[tuple[int, int]]:
        """Drain ``(round, payload_bytes)`` records of upstream ``msg``
        frames counted off the server's socket since the last call."""
        raise NotImplementedError


def request_with_retry(
    site: str,
    link: SiteLink,
    message: Message,
    *,
    deadline: float | None,
    retries: int,
    backoff: float,
    on_retry: Callable[[str], None] | None = None,
) -> Message:
    """One deadline-bounded request with retry/backoff on transients.

    A ``retry`` reply is the site saying "healthy but busy": the FIFO
    pairing is intact (the refusal answered the refused request), so the
    coordinator backs off exponentially and resends, up to the budget.  A
    missed deadline is different — the reply may still be in flight, so
    resending would desync the FIFO; it escalates as
    :class:`~repro.service.messages.SiteTimeoutError` for the server's
    degradation path to handle.
    """
    attempt = 0
    while True:
        try:
            reply = link.request(message, timeout=deadline)
        except TimeoutError:
            raise SiteTimeoutError(
                f"site {site!r} missed the {deadline}s response "
                f"deadline answering a {message.type!r}",
                site=site,
            ) from None
        if reply.type != "retry":
            return reply
        attempt += 1
        if attempt > retries:
            raise ServiceError(
                f"site {site!r} still refusing after {retries} "
                f"retries: {reply.meta}"
            )
        if on_retry is not None:
            on_retry(site)
        time.sleep(backoff * (2 ** (attempt - 1)))


class RemoteNetwork(Network):
    """A metered network whose every edge is a real socket hop.

    The shape is the network's :attr:`~repro.comm.network.Network.tree`:
    the flat star when no ``tree=`` is given, else a depth-<=2
    :class:`~repro.comm.tree.TreeSpec`.  The root's children are live
    connections (site agents, or aggregator agents fronting their leaf
    children over their own sockets).  Message routing is exactly
    :class:`~repro.comm.network.Network`'s — same staged merges, same
    simulated meters, so estimates stay bit-identical to an in-process
    run — but every edge additionally carries the payload's encoded bytes:

    * **downstream**, one frame per root-child subtree: a site acks with
      the bytes it observed on its socket; an aggregator observes the
      frame, forwards the *same* payload bytes once per targeted child
      (encode-once at every level), and its ack aggregates the children's
      observed counts and digests;
    * **upstream direct edge** (a root child): a ``relay`` — the server
      hands the endpoint a control copy and the endpoint echoes the actual
      ``msg`` frame, so the payload bytes physically travel to the server
      and are counted off its own socket;
    * **upstream leaf edge** behind an aggregator: a routed ``relay`` — the
      leaf echoes its payload to the aggregator, which counts the bytes
      off its socket and reports them upstream *without* forwarding the
      payload (the whole point of the tree); the aggregator's own edge
      then carries the merged payload computed at drain time.

    Accounting: the inherited simulated meters, plus per-*edge* wire
    meters (8 bits per encoded payload byte) and observed socket bytes,
    with the service invariant ``observed * 8 == wire bits`` holding per
    edge per round.  Aggregator merges for the metered transcript are
    computed coordinator-side (the edges relay the resulting bytes);
    dispatching merge closures through the task fan-out would double-meter,
    so :attr:`merge_runtime` is pinned to ``None``.
    """

    def __init__(
        self,
        site_names: Sequence[str],
        coordinator_name: str = "coordinator",
        *,
        conditions: NetworkConditions | None = None,
        tree: TreeSpec | None = None,
        links: Mapping[str, SiteLink],
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_retry: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(
            site_names, coordinator_name, conditions=conditions, tree=tree
        )
        tree = self.tree
        if tree.depth > 2 or any(tree.node_depth(agg) > 1 for agg in tree.aggregators):
            raise ServiceError(
                "the socket transport supports aggregation trees of depth "
                f"<= 2 (aggregators as root children); got depth {tree.depth}"
            )
        edges = list(self.links)  # sites, then aggregators
        missing = [name for name in edges if name not in links]
        if missing:
            raise ServiceError(
                f"no live connection or route for {missing}; registered "
                f"links: {sorted(links)}"
            )
        self._site_links = {name: links[name] for name in edges}
        #: Per-request reply deadline (real seconds; None = wait forever).
        self.deadline = deadline
        #: Retry budget for transient refusals (a site's ``retry`` reply).
        self.retries = int(retries)
        #: Base backoff between retries, doubled per attempt.
        self.backoff = float(backoff)
        self._on_retry = on_retry
        self.wire_log = MessageLog()
        self.wire_links: dict[str, MessageLog] = {name: MessageLog() for name in edges}
        #: Socket-observed payload bytes, per edge and per (edge, round).
        self.observed_link_bytes: Counter[str] = Counter()
        self.observed_round_bytes: dict[str, Counter[int]] = {
            name: Counter() for name in edges
        }
        #: Round opens happen once per direct connection (root children).
        self._notified_round: dict[str, int] = {
            child: 0 for child in tree.children[tree.root]
        }

    # Merges stay coordinator-side: StarTopology.build assigns the protocol
    # runtime here, but a RemoteRuntime would ship merge closures to the
    # sites as unmetered tasks — swallow the assignment.
    @property
    def merge_runtime(self):
        return None

    @merge_runtime.setter
    def merge_runtime(self, value) -> None:
        pass

    # --------------------------------------------------------------- request
    def _request(self, site: str, link: SiteLink, message: Message) -> Message:
        """See :func:`request_with_retry` (this network's knobs applied)."""
        return request_with_retry(
            site,
            link,
            message,
            deadline=self.deadline,
            retries=self.retries,
            backoff=self.backoff,
            on_retry=self._on_retry,
        )

    def _root_child_of(self, child: str) -> str:
        """The direct-connection endpoint fronting ``child``'s subtree."""
        node = child
        while self.tree.parent[node] != self.coordinator_name:
            node = self.tree.parent[node]
        return node

    def _open_round(self, top: str, round_index: int):
        """Stage a round open on a direct link before its first burst.

        Returns the staged ack future (or None); the caller's next request
        flushes both frames in one write, and FIFO guarantees the ack
        arrives first — verify it with :meth:`_confirm_round` afterwards.
        """
        if self._notified_round[top] == round_index:
            return None
        self._notified_round[top] = round_index
        return self._site_links[top].submit(
            Message("round", {"round": round_index}), flush=False
        )

    def _confirm_round(self, top: str, round_future) -> None:
        if round_future is None:
            return
        opened = round_future.result(self.deadline)
        if opened.type != "ack":
            raise ServiceError(
                f"site {top!r} answered a round open with {opened.type!r}"
            )

    def _observe(self, edge: str, round_index: int, nbytes: int) -> None:
        self.observed_link_bytes[edge] += nbytes
        self.observed_round_bytes[edge][round_index] += nbytes

    def _wire(
        self, edge: str, direction: str, label: str, body_bytes: int
    ) -> None:
        parent = self.tree.parent[edge]
        sender, receiver = (
            (edge, parent) if direction == UPSTREAM else (parent, edge)
        )
        self.wire_log.record(
            sender,
            receiver,
            None,
            label=label,
            bits=8 * body_bytes,
            direction_key=direction,
        )
        self.wire_links[edge].record(
            sender, receiver, None, label=label, bits=8 * body_bytes
        )

    # ------------------------------------------------------------- crossings
    def _record_hop(
        self, child: str, direction: str, payload: Any, label: str, bits: int
    ) -> None:
        super()._record_hop(child, direction, payload, label, bits)
        if direction == UPSTREAM:
            round_index = self.log.messages[-1].round_index
            self._cross_upstream(child, payload, label, round_index)

    def _cross_upstream(
        self, child: str, payload: Any, label: str, round_index: int
    ) -> None:
        """Make one upstream edge's payload physically travel its socket."""
        blob = encode_payload(payload)
        body_bytes = len(blob) - PAYLOAD_TAG_BYTES
        digest = payload_digest(blob)
        top = self._root_child_of(child)
        round_future = self._open_round(top, round_index)
        meta = {
            "label": label,
            "bits": 8 * body_bytes,
            "round": round_index,
            "digest": digest,
        }
        link = self._site_links[child]
        reply = self._request(child, link, Message("relay", meta, blob))
        self._confirm_round(top, round_future)
        if child == top:
            # Direct edge: the endpoint echoed the payload; its bytes were
            # counted off the coordinator's own socket read.
            if reply.type != "msg":
                raise ServiceError(
                    f"site {child!r} answered a relay with {reply.type!r}: "
                    f"{reply.meta}"
                )
            if payload_digest(reply.payload) != digest:
                raise CorruptFrameError(
                    f"upstream payload from {child!r} corrupted in transit "
                    f"(digest mismatch over {len(reply.payload)} echoed bytes)",
                    site=child,
                )
            decode_payload(reply.payload)
            for rnd, nbytes in link.take_observed_upstream():
                self._observe(child, rnd, nbytes)
        else:
            # Routed leaf edge: the leaf echoed to its aggregator, which
            # counted the bytes off ITS socket and reported them — the
            # payload never traveled past the aggregator.
            if reply.type != "ack":
                raise ServiceError(
                    f"aggregated relay for {child!r} answered with "
                    f"{reply.type!r}: {reply.meta}"
                )
            observed = int(reply.meta.get("observed", -1))
            if observed != body_bytes or reply.meta.get("digest") != digest:
                raise CorruptFrameError(
                    f"upstream payload from {child!r} corrupted on its leaf "
                    f"edge: sent {body_bytes} bytes ({digest[:12]}...), "
                    f"aggregator observed {observed} "
                    f"({str(reply.meta.get('digest'))[:12]}...)",
                    site=child,
                )
            self._observe(child, round_index, observed)
        self._wire(child, UPSTREAM, label, body_bytes)

    def _deliver_downstream(
        self, edge_children: Sequence[str], payload: Any, label: str, bits: int
    ) -> None:
        """One physical frame per root-child subtree, payload encoded once."""
        super()._deliver_downstream(edge_children, payload, label, bits)
        round_index = self.log.messages[-1].round_index
        blob = encode_payload(payload)
        body_bytes = len(blob) - PAYLOAD_TAG_BYTES
        digest = payload_digest(blob)
        groups: dict[str, list[str]] = {}
        order: list[str] = []
        for child in edge_children:
            top = self._root_child_of(child)
            if top not in groups:
                groups[top] = []
                order.append(top)
            if child != top:
                groups[top].append(child)
        for top in order:
            link = self._site_links[top]
            round_future = self._open_round(top, round_index)
            meta = {
                "label": label,
                "bits": 8 * body_bytes,
                "round": round_index,
                "digest": digest,
            }
            if groups[top]:
                meta["forward"] = groups[top]
            reply = self._request(top, link, Message("msg", meta, blob))
            self._confirm_round(top, round_future)
            if reply.type != "ack":
                raise ServiceError(
                    f"site {top!r} answered a downstream msg with "
                    f"{reply.type!r}: {reply.meta}"
                )
            observed = int(reply.meta.get("observed", -1))
            if observed != body_bytes or reply.meta.get("digest") != digest:
                raise CorruptFrameError(
                    f"downstream payload to {top!r} corrupted in transit: "
                    f"sent {body_bytes} bytes ({digest[:12]}...), observed "
                    f"{observed} ({str(reply.meta.get('digest'))[:12]}...)",
                    site=top,
                )
            self._observe(top, round_index, observed)
            self._wire(top, DOWNSTREAM, label, body_bytes)
            children_meta = reply.meta.get("children", {})
            for child in groups[top]:
                entry = children_meta.get(child)
                if (
                    entry is None
                    or int(entry.get("observed", -1)) != body_bytes
                    or entry.get("digest") != digest
                ):
                    raise CorruptFrameError(
                        f"downstream payload forwarded to {child!r} corrupted "
                        f"on its leaf edge (aggregator {top!r} reported "
                        f"{entry})",
                        site=child,
                    )
                self._observe(child, round_index, int(entry["observed"]))
                self._wire(child, DOWNSTREAM, label, body_bytes)

    # ------------------------------------------------------------ accounting
    def wire_link_bits(self) -> dict[str, int]:
        """Per-edge wire-metered bits (8 per encoded payload byte)."""
        self._drain()
        return {name: log.total_bits for name, log in self.wire_links.items()}

    @property
    def observed_total_bytes(self) -> int:
        self._drain()
        return sum(self.observed_link_bytes.values())

    def service_report(self) -> dict[str, Any]:
        """The observed-vs-metered summary shipped with every answer."""
        link_bits = self.link_bits()
        return {
            "rounds": self.rounds,
            "simulated_bits": self.total_bits,
            "simulated_link_bits": link_bits,
            "wire_bits": self.wire_log.total_bits,
            "wire_link_bits": self.wire_link_bits(),
            "wire_round_bits": self.wire_log.bits_per_round(),
            "observed_bytes": self.observed_total_bytes,
            "observed_link_bytes": dict(self.observed_link_bytes),
            "observed_round_bytes": {
                name: dict(rounds)
                for name, rounds in self.observed_round_bytes.items()
            },
            "tree": self.tree.describe(),
            "root_link_bits": {
                child: link_bits[child] for child in self.tree.children[self.tree.root]
            },
        }

    def reset(self) -> None:
        super().reset()
        self.wire_log.reset()
        for log in self.wire_links.values():
            log.reset()
        self.observed_link_bytes.clear()
        for rounds in self.observed_round_bytes.values():
            rounds.clear()
        self._notified_round = {
            child: 0 for child in self.tree.children[self.tree.root]
        }


class RemoteRuntime(Runtime):
    """Fans the engine's per-site tasks out to the site processes.

    The sends/merges of every protocol stay serial on the coordinator (the
    runtime contract), so the only difference from the ``processes``
    executor is *where* the fan-out tasks run: task arguments pickle out to
    a site agent over TCP and results pickle back, in task order, with the
    generator round-tripping of :meth:`~repro.engine.runtime.Runtime
    .map_sites` working unchanged.  Outputs are therefore bit-identical to
    every other executor (the pinned PR 5 contract).
    """

    def __init__(
        self,
        transport: "SocketTransport",
        *,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> None:
        super().__init__("serial", dropout=dropout, quorum=quorum)
        self._transport = transport

    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        if not tasks:
            return []
        return self._transport.run_tasks(fn, tasks)


class SocketTransport(Transport):
    """Builds :class:`RemoteNetwork` instances over a set of live links.

    ``links`` maps canonical site names (``site-0`` ... ``site-{k-1}``) to
    their connections.  One transport serves many protocol runs; each run
    builds a fresh network (fresh meters) over the same connections, and a
    dropout-excluded run simply passes the surviving subset of names.
    """

    def __init__(
        self,
        links: Mapping[str, SiteLink],
        *,
        deadline: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        on_retry: Callable[[str], None] | None = None,
    ) -> None:
        self._links = dict(links)
        #: Hardening knobs forwarded to every network this transport builds
        #: (per-request reply deadline, transient-retry budget + backoff).
        self.deadline = deadline
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.on_retry = on_retry
        #: The most recently built network — the server reads its
        #: :meth:`RemoteNetwork.service_report` after each query (queries
        #: are serialized on one worker, so "last" is unambiguous).
        self.last_network: RemoteNetwork | None = None

    @property
    def links(self) -> dict[str, SiteLink]:
        return dict(self._links)

    def runtime(
        self,
        *,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> RemoteRuntime:
        """A runtime fanning per-site tasks out over these links."""
        return RemoteRuntime(self, dropout=dropout, quorum=quorum)

    def build_network(
        self,
        site_names: Sequence[str],
        coordinator_name: str,
        conditions: NetworkConditions | None = None,
        *,
        tree: TreeSpec | None = None,
    ) -> RemoteNetwork:
        network = RemoteNetwork(
            site_names,
            coordinator_name,
            conditions=conditions,
            tree=tree,
            links=self._links,
            deadline=self.deadline,
            retries=self.retries,
            backoff=self.backoff,
            on_retry=self.on_retry,
        )
        self.last_network = network
        return network

    # ------------------------------------------------------------- fan-out
    def run_tasks(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task on the site agents, in order.

        Tasks are dealt round-robin across the live links and pipelined
        (all submitted before any reply is awaited); replies are collected
        in task order.
        """
        if not getattr(fn, "__module__", "").startswith("repro."):
            raise ServiceError(
                f"refusing to dispatch non-repro task function {fn!r} to a "
                f"site agent"
            )
        spec = f"{fn.__module__}:{fn.__qualname__}"
        ordered_links = [self._links[name] for name in sorted(self._links)]
        futures = [
            ordered_links[index % len(ordered_links)].submit(
                Message("task", {"fn": spec}, encode_payload(tuple(task)))
            )
            for index, task in enumerate(tasks)
        ]
        results = []
        for future in futures:
            reply = future.result()
            if reply.type == "error":
                raise ServiceError(
                    f"site task {spec} failed remotely: "
                    f"{reply.meta.get('error')}: {reply.meta.get('message')}"
                )
            if reply.type != "task_result":
                raise ServiceError(
                    f"site answered a task with {reply.type!r}: {reply.meta}"
                )
            results.append(decode_payload(reply.payload))
        return results
