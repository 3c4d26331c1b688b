"""Transport abstraction: who builds the network a protocol runs on.

Every engine execution wires a :class:`~repro.comm.network.Network` around
its sites (:meth:`repro.engine.topology.StarTopology.build`, the
:class:`~repro.engine.streaming.StreamingSession` constructor).  A
:class:`Transport` decides who carries it, with one network class each:

* :class:`InProcessTransport` (the default everywhere) builds the
  in-process :class:`~repro.comm.network.Network`: messages are delivered
  by returning them, meters charge the declared formula bits.  Every
  historical transcript is produced by exactly this transport.
* :class:`repro.service.transport.SocketTransport` builds a
  :class:`~repro.service.transport.RemoteNetwork` bound to live TCP
  connections: every metered message additionally travels over a real
  socket to/from the site-agent processes, and observed wire bytes are
  counted per link per round.

Either network routes over the optional ``tree`` spec, or over the flat
star when none is given; the choice also picks the makespan model (see
:mod:`repro.comm.network`).  Estimator facades accept ``transport=`` and
forward it to every query's protocol run, so all protocol families and the
streaming session run unmodified over whichever transport is plugged in.
"""

from __future__ import annotations

from typing import Sequence

from repro.comm.conditions import NetworkConditions
from repro.comm.network import Network
from repro.comm.tree import TreeSpec

__all__ = ["IN_PROCESS", "InProcessTransport", "Transport"]


class Transport:
    """Factory for the network one protocol execution runs over.

    Subclasses implement :meth:`build_network`; a single transport instance
    may build many networks (one per protocol run), so implementations hold
    connection state, not per-run meters.

    ``tree`` is an optional :class:`~repro.comm.tree.TreeSpec` whose leaves
    are exactly ``site_names`` and whose root is ``coordinator_name``.
    ``None`` (the default everywhere) routes over the flat star — every
    historical transcript is unchanged.
    """

    def build_network(
        self,
        site_names: Sequence[str],
        coordinator_name: str,
        conditions: NetworkConditions | None = None,
        *,
        tree: TreeSpec | None = None,
    ) -> Network:
        raise NotImplementedError


class InProcessTransport(Transport):
    """The default transport: the in-process metered network."""

    def build_network(
        self,
        site_names: Sequence[str],
        coordinator_name: str,
        conditions: NetworkConditions | None = None,
        *,
        tree: TreeSpec | None = None,
    ) -> Network:
        return Network(site_names, coordinator_name, conditions=conditions, tree=tree)


#: Shared stateless default; used wherever no explicit transport is given.
IN_PROCESS = InProcessTransport()
