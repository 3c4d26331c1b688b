"""Metered communication substrate.

The paper analyses protocols in the classic two-party communication model:
Alice holds matrix ``A``, Bob holds matrix ``B``, and they exchange messages
over a channel.  The quantities the theorems bound are (i) the total number
of bits exchanged and (ii) the number of rounds of interaction.  The repo
runs that model as the one-leaf star — ``Network(["alice"],
coordinator_name="bob")``, Alice the single site and Bob the hub — whose
direction-flip round counter is exactly the two-party definition.

This package provides an in-process simulation of that model and its
k-site generalization:

* :mod:`repro.comm.bitcost` — the single place where "how many bits does this
  payload cost" is defined, so the accounting assumptions are auditable.
* :mod:`repro.comm.accounting` — the message log and direction-flip round
  counter shared by every metered transport.
* :class:`repro.comm.network.Network` — the one in-process network (k
  sites around a coordinator, routed over the flat star or an aggregation
  :class:`~repro.comm.tree.TreeSpec`) with per-edge and aggregate meters.
  Built without a ``tree=`` it prices makespans with links in parallel,
  with one (the flat spec included) with serialized fan-in.
  ``TreeNetwork`` is another name for the same class.
* :mod:`repro.comm.protocol` — the :class:`~repro.comm.protocol.CostReport`
  / :class:`~repro.comm.protocol.ProtocolResult` containers the two-party
  driver (:meth:`repro.engine.base.StarProtocol.run_two_party`) returns.
* :mod:`repro.comm.conditions` — per-link latency/bandwidth/jitter models
  (:class:`repro.comm.conditions.LinkModel` /
  :class:`repro.comm.conditions.NetworkConditions`) that price a recorded
  transcript into a simulated makespan.
"""

from repro.comm.accounting import Message, MessageLog
from repro.comm.bitcost import (
    bits_for_float,
    bits_for_index,
    bits_for_index_list,
    bits_for_int,
    bits_for_matrix,
    bits_for_payload,
    bits_for_vector,
)
from repro.comm.conditions import IDEAL_LINK, LinkModel, NetworkConditions
from repro.comm.network import Network, TreeNetwork
from repro.comm.protocol import CostReport, ProtocolResult
from repro.comm.tree import TreeSpec

__all__ = [
    "bits_for_float",
    "bits_for_index",
    "bits_for_index_list",
    "bits_for_int",
    "bits_for_matrix",
    "bits_for_payload",
    "bits_for_vector",
    "IDEAL_LINK",
    "LinkModel",
    "Message",
    "MessageLog",
    "Network",
    "TreeNetwork",
    "TreeSpec",
    "NetworkConditions",
    "CostReport",
    "ProtocolResult",
]
