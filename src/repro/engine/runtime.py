"""The engine's message-passing runtime: per-site fan-out and fault policies.

Every engine protocol is written as an alternation of two phases:

1. a **fan-out phase** — per-site local computation (sketch ``update_many``
   over a shard, group sampling, exchange-list construction, ...) with *no*
   network access, expressed as a picklable module-level task function and
   executed through :meth:`Runtime.map`;
2. a **serial phase** — the coordinator's side: sends in fixed site order,
   entrywise merges, thresholding, the final estimate.

:class:`Runtime` runs every fan-out task inline, in site order, on the
caller's thread: byte for byte the pre-runtime control flow, which is why
the pinned-transcript suites (``tests/test_engine_equivalence.py``,
``tests/engine/test_determinism.py``, the golden-state and the streaming
equivalence tests) pass unmodified.
:class:`repro.service.transport.RemoteRuntime` runs the same tasks in the
site processes and still reproduces every protocol output and every
bit/round/per-link meter (pinned by ``tests/engine/test_runtime.py`` for
every protocol family, at every k), because the engine's randomness
discipline makes per-site work independent:

* each site draws only from its **private** generator, and results are
  collected **in site order**;
* task functions that consume randomness take the generator as an argument
  and return it alongside their result; :meth:`Runtime.map_sites` restores
  the returned generator onto the site, so a later phase continues from the
  advanced state even when the task drew from a pickled copy (in process
  the returned object is the site's own generator and the restore is a
  no-op);
* floating-point accumulation across sites happens in the serial phase, in
  site order, so sums associate identically wherever the tasks ran.

Fault policies
--------------
The runtime also owns the **dropout policy** applied when the network
conditions declare sites dropped (:class:`repro.comm.conditions
.NetworkConditions.dropped`):

``"fail"``
    (default) Raise :class:`SiteDroppedError` — a one-shot protocol cannot
    answer without all shards.
``"exclude"``
    Run the protocol over the surviving sites only and report which sites
    contributed (``details["dropout"]``).  Protocol families whose output
    is an additive mass over row-shards (the mergeable-summary families:
    ``lp_norm`` / ``join_size``, ``natural_join_size``) are additionally
    **renormalized** by the inverse surviving row fraction, so the estimate
    still targets the full ``||A B||`` under a uniform-mass assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DROPOUT_POLICIES",
    "QuorumPolicy",
    "Runtime",
    "SERIAL_RUNTIME",
    "SiteDroppedError",
]

#: Supported dropout policies.
DROPOUT_POLICIES = ("fail", "exclude")


class SiteDroppedError(RuntimeError):
    """Raised when dropped sites make a protocol unanswerable under policy.

    Carries the failure as structured state — ``dropped`` (sorted names),
    ``policy`` (the active dropout policy, if known), ``surviving`` (how
    many sites remain) and ``reason`` (``"dropped"`` or ``"quorum"``) — so
    callers can degrade programmatically via :meth:`degradation_report`
    instead of parsing the message.
    """

    def __init__(
        self,
        dropped: Sequence[str],
        message: str | None = None,
        *,
        policy: str | None = None,
        surviving: int | None = None,
        reason: str = "dropped",
    ) -> None:
        self.dropped = sorted(dropped)
        self.policy = policy
        self.surviving = surviving
        self.reason = reason
        if message is None:
            if reason == "quorum":
                parts = [
                    f"quorum not met: sites {self.dropped} missed the "
                    f"response deadline"
                ]
            else:
                parts = [f"sites {self.dropped} are dropped"]
            if policy is not None:
                parts.append(f"active dropout policy: {policy!r}")
            if surviving is not None:
                parts.append(f"surviving sites: {surviving}")
            if reason == "dropped" and policy == "fail" and surviving:
                parts.append(
                    "rerun with Runtime(dropout='exclude') to estimate "
                    "from the survivors"
                )
            message = "; ".join(parts)
        super().__init__(message)

    def degradation_report(self) -> dict:
        """The failure as a structured report (service answers embed this)."""
        return {
            "reason": self.reason,
            "dropped_sites": self.dropped,
            "policy": self.policy,
            "surviving_sites": self.surviving,
            "message": str(self),
        }


@dataclass(frozen=True)
class QuorumPolicy:
    """Answer queries from the first ``n - f`` site responses.

    Ported from the approximate-consensus exemplars (proceed once ``n - f``
    responses arrive): a quorum-mode runtime waits for the fastest
    ``n - f`` sites instead of the full fan-in, treats the rest as
    *stragglers* — excluded from the answer (with survivor
    renormalization) but not discarded, their results late-merge on
    arrival — and fails the query only when fewer than ``n - f`` sites
    respond within the per-site ``deadline``.

    Parameters
    ----------
    f:
        Number of slow/failed sites to tolerate; the quorum is ``n - f``.
    n:
        Expected cluster size (defaults to the actual site count at run
        time).
    deadline:
        Per-site response deadline in simulated seconds; ``None`` defers
        to ``NetworkConditions.deadline`` (and with neither set, every
        site responds and the quorum is simply the fastest ``n - f``).
    """

    f: int = 0
    n: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.n is not None and self.n - self.f < 1:
            raise ValueError(
                f"quorum n - f must be >= 1, got n={self.n}, f={self.f}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {self.deadline}")

    @classmethod
    def coerce(
        cls, value: "QuorumPolicy | tuple | int | None"
    ) -> "QuorumPolicy | None":
        """Accept a policy, an ``(n, f)`` pair, a bare ``f``, or ``None``."""
        if value is None or isinstance(value, QuorumPolicy):
            return value
        if isinstance(value, tuple):
            n, f = value
            return cls(n=int(n), f=int(f))
        return cls(f=int(value))

    def required(self, k: int) -> int:
        """The quorum size ``n - f`` for an actual cluster of k sites."""
        n = self.n if self.n is not None else k
        if n > k:
            raise ValueError(
                f"quorum expects n={n} sites but the cluster has only {k}"
            )
        if n - self.f < 1:
            raise ValueError(f"quorum n - f must be >= 1, got n={n}, f={self.f}")
        return n - self.f


class Runtime:
    """Executes the engine's per-site fan-out phases.

    Parameters
    ----------
    dropout:
        Policy applied to sites declared dropped by the network conditions:
        ``"fail"`` (default) or ``"exclude"`` (see the module docstring).
    quorum:
        Optional :class:`QuorumPolicy` (or an ``(n, f)`` pair, or a bare
        ``f``): one-shot queries answer from the fastest ``n - f`` sites.

    A runtime holds no resources: one instance serves any number of
    protocol runs, queries and sessions.
    """

    def __init__(
        self,
        *,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> None:
        if dropout not in DROPOUT_POLICIES:
            raise ValueError(f"dropout must be one of {DROPOUT_POLICIES}, got {dropout!r}")
        self.dropout = dropout
        self.quorum = QuorumPolicy.coerce(quorum)

    # ------------------------------------------------------------------- map
    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task; results come back in task order."""
        return self.map_async(fn, tasks)()

    def map_async(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> Callable[[], list[Any]]:
        """Run every task now, on the caller's thread; return the join.

        The join is a zero-argument callable producing the list :meth:`map`
        returns; a task's error is raised here, at dispatch.
        :class:`repro.service.transport.RemoteRuntime` overrides only
        :meth:`map`, so work dispatched through this method stays on the
        coordinator: the streaming session encodes its sites' deltas here.
        """
        results = [fn(*task) for task in tasks]
        return lambda: results

    def map_sites(
        self,
        fn: Callable[..., tuple[Any, Any]],
        sites: Sequence[Any],
        tasks: Sequence[tuple],
    ) -> list[Any]:
        """Fan ``fn(site.rng, *task)`` out over sites; restore advanced rngs.

        ``fn`` must return ``(result, rng)``.  Each site's private generator
        is passed as the first argument and *replaced* by the returned one,
        so draws made on a pickled copy — a subclass whose :meth:`map` runs
        the tasks elsewhere, like :class:`repro.service.transport
        .RemoteRuntime` — are visible to later phases.  In process the
        returned object is the site's own (mutated) generator and the
        replacement is a no-op.  Results are in site order.
        """
        outcomes = self.map(
            fn, [(site.rng,) + tuple(task) for site, task in zip(sites, tasks)]
        )
        results = []
        for site, (result, rng) in zip(sites, outcomes):
            site.rng = rng
            results.append(result)
        return results

    # ---------------------------------------------------------------- faults
    def partition_dropped(
        self, site_names: Sequence[str], dropped: Iterable[str]
    ) -> tuple[list[int], list[str]]:
        """Split site indices into (surviving, dropped-names) under policy.

        Returns the indices of surviving sites (in order) and the sorted
        names actually dropped.  Raises :class:`SiteDroppedError` when the
        policy is ``"fail"`` and any site is dropped, or when no site
        survives — and ``ValueError`` when a declared name matches no site
        (a typo'd fault declaration must not silently test nothing).
        """
        dropped = set(dropped)
        unknown = dropped - set(site_names)
        if unknown:
            raise ValueError(
                f"dropped sites {sorted(unknown)} match no site in this "
                f"topology (sites: {list(site_names)})"
            )
        if not dropped:
            return list(range(len(site_names))), []
        surviving = [i for i, name in enumerate(site_names) if name not in dropped]
        if self.dropout == "fail":
            raise SiteDroppedError(
                sorted(dropped), policy=self.dropout, surviving=len(surviving)
            )
        if not surviving:
            raise SiteDroppedError(
                sorted(dropped),
                "every site is dropped; nothing can be estimated",
                policy=self.dropout,
                surviving=0,
            )
        return surviving, sorted(dropped)

    def partition_quorum(
        self,
        site_names: Sequence[str],
        conditions=None,
        tree=None,
    ) -> tuple[list[int], list[str], dict | None]:
        """Split site indices into (quorum contributors, stragglers) under
        the runtime's :class:`QuorumPolicy`.

        The simulated response time of a site is its link latency under
        ``conditions`` (ideal links respond instantly).  Sites beyond the
        per-site deadline never count as responders; of the responders, the
        fastest ``n - f`` (site order breaking ties) form the quorum and
        the rest are stragglers — excluded from this answer, merged late.
        Raises :class:`SiteDroppedError` (``reason="quorum"``) when fewer
        than ``n - f`` sites respond in time.

        The scan is a single NumPy pass: one latency vector, one boolean
        deadline mask, one *stable* argsort (ties break by site order,
        exactly like the historical per-site sort — contributor sets are
        pinned bit-identical).

        With a :class:`~repro.comm.tree.TreeSpec` the latencies resolve
        per *edge* (exact override > enclosing region > default) and the
        details additionally report how each aggregator's subtree fared
        (``per_subtree``: sites present vs contributing), so quorum
        accounting follows the hierarchy.

        Returns ``(contributor indices, straggler names, quorum details)``
        — details is ``None`` when no quorum policy is active.
        """
        policy = self.quorum
        if policy is None:
            return list(range(len(site_names))), [], None
        k = len(site_names)
        required = policy.required(k)
        deadline = policy.deadline
        if deadline is None and conditions is not None:
            deadline = conditions.deadline
        if conditions is None:
            latencies = np.zeros(k, dtype=np.float64)
        elif tree is not None and conditions.regions:
            latencies = np.array(
                [
                    conditions.edge_link(name, tree.ancestors(name)).latency
                    for name in site_names
                ],
                dtype=np.float64,
            )
        else:
            latencies = np.full(k, conditions.default.latency, dtype=np.float64)
            if conditions.overrides:
                index = {name: i for i, name in enumerate(site_names)}
                for name, model in conditions.overrides.items():
                    if name in index:
                        latencies[index[name]] = model.latency
        if deadline is None:
            responders = np.arange(k)
        else:
            responders = np.flatnonzero(latencies <= deadline)
        if responders.size < required:
            missed = [
                site_names[i] for i in np.flatnonzero(latencies > (deadline or 0.0))
            ]
            raise SiteDroppedError(
                missed,
                policy=self.dropout,
                surviving=int(responders.size),
                reason="quorum",
            )
        ordered = responders[np.argsort(latencies[responders], kind="stable")]
        contributors = [int(i) for i in np.sort(ordered[:required])]
        in_quorum = set(contributors)
        stragglers = [
            name for i, name in enumerate(site_names) if i not in in_quorum
        ]
        details = {
            "n": policy.n if policy.n is not None else k,
            "f": policy.f,
            "required": required,
            "deadline": deadline,
            "quorum_met": True,
            "contributing_sites": [site_names[i] for i in contributors],
            "stragglers": stragglers,
            "arrival_s": {
                name: float(latencies[i]) for i, name in enumerate(site_names)
            },
        }
        if tree is not None and tree.aggregators:
            present = set(site_names)
            contributing = set(details["contributing_sites"])
            details["per_subtree"] = {
                agg: {
                    "sites": sum(
                        1 for leaf in tree.subtree_sites(agg) if leaf in present
                    ),
                    "contributing": sum(
                        1 for leaf in tree.subtree_sites(agg) if leaf in contributing
                    ),
                }
                for agg in tree.aggregators
            }
        return contributors, stragglers, details

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"dropout={self.dropout!r}"]
        if self.quorum is not None:
            parts.append(f"quorum={self.quorum}")
        return f"Runtime({', '.join(parts)})"


#: The shared default: fail-on-dropout, no quorum.  A runtime is stateless,
#: so one instance backs every protocol run and helper invoked without an
#: explicit runtime.
SERIAL_RUNTIME = Runtime()
