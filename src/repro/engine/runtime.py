"""The engine's message-passing runtime: pluggable per-site executors.

Every engine protocol is written as an alternation of two phases:

1. a **fan-out phase** — per-site local computation (sketch ``update_many``
   over a shard, group sampling, exchange-list construction, ...) with *no*
   network access, expressed as a picklable module-level task function and
   executed through :meth:`Runtime.map`;
2. a **serial phase** — the coordinator's side: sends in fixed site order,
   entrywise merges, thresholding, the final estimate.

The runtime only parallelizes phase 1, so the transcript — the order of
messages on the network, the bits charged per message, the round counter —
is produced by exactly the same serial code regardless of the executor.

Serial-equivalence guarantee
----------------------------
``Runtime("serial")`` (the default) runs every task inline, in site order,
on the caller's thread: byte for byte the pre-runtime control flow, which
is why the pinned-transcript suites (``tests/test_engine_equivalence.py``,
``tests/engine/test_determinism.py``, the golden-state and the streaming
equivalence tests) pass unmodified.  The threads executor preserves
bit-identical *results* too, because the engine's randomness discipline
makes per-site work independent:

* each site draws only from its **private** generator, so concurrent sites
  never contend for a stream, and results are collected **in site order**
  regardless of completion order;
* task functions that consume randomness take the generator as an argument
  and return it alongside their result; :meth:`Runtime.map_sites` restores
  the returned generator onto the site, so a later phase continues from the
  advanced state even when the task drew from a pickled copy — as it does
  under :class:`repro.service.transport.RemoteRuntime`, which runs the
  tasks in the site processes (in process the returned object is the
  site's own generator and the restore is a no-op);
* floating-point accumulation across sites happens in the serial phase, in
  site order, so sums associate identically under every executor.

Together these give the contract pinned by ``tests/engine/test_runtime.py``:
both executors produce identical protocol outputs and identical
bit/round/per-link meters, for every protocol family, at every k.

Executors
---------
``serial``
    Inline execution (default).  Zero overhead, zero dependencies.
``threads``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy
    releases the GIL inside the BLAS/ufunc kernels that dominate per-site
    work, so k-site runs overlap their heavy lifting on multicore hosts.

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

import atexit
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DROPOUT_POLICIES",
    "EXECUTORS",
    "QuorumPolicy",
    "Runtime",
    "SERIAL_RUNTIME",
    "SiteDroppedError",
]

#: Supported executors, in cost order.
EXECUTORS = ("serial", "threads")

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


def _default_workers() -> int:
    """Pool width default: env override, then CPU *affinity*, then count.

    ``os.cpu_count()`` reports the machine, not the container: under a
    cgroup cpuset (CI runners, schedulers) it over-provisions the pool and
    the surplus workers just contend.  ``os.sched_getaffinity(0)`` reports
    the CPUs this process may actually run on.  ``REPRO_WORKERS`` wins over
    both, so benchmarks and CI can pin the width explicitly.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except OSError:  # pragma: no cover - affinity unsupported at runtime
            pass
    return max(os.cpu_count() or 1, 1)


class Runtime:
    """Executes the engine's per-site fan-out phases.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) or ``"threads"``.
    max_workers:
        Thread-pool width.  Default: the ``REPRO_WORKERS`` env var, else
        the CPU *affinity* count (:func:`os.sched_getaffinity` — honest in
        containers), else ``os.cpu_count()``.
    dropout:
        Policy applied to sites declared dropped by the network conditions:
        ``"fail"`` (default) or ``"exclude"`` (see the module docstring).
    quorum:
        Optional :class:`QuorumPolicy` (or an ``(n, f)`` pair, or a bare
        ``f``): one-shot queries answer from the fastest ``n - f`` sites.

    A runtime is reusable across protocol runs and queries; its thread pool
    is created lazily on the first concurrent :meth:`map` and shared until
    :meth:`close` (also invoked by the context-manager exit and at
    interpreter shutdown).
    """

    def __init__(
        self,
        executor: str = "serial",
        *,
        max_workers: int | None = None,
        dropout: str = "fail",
        quorum: "QuorumPolicy | tuple | int | None" = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if dropout not in DROPOUT_POLICIES:
            raise ValueError(f"dropout must be one of {DROPOUT_POLICIES}, got {dropout!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.executor = executor
        self.max_workers = max_workers
        self.dropout = dropout
        self.quorum = QuorumPolicy.coerce(quorum)
        self._pool: ThreadPoolExecutor | None = None
        self._atexit_registered = False

    # ------------------------------------------------------------------ pool
    def _register_atexit(self) -> None:
        """Install the interpreter-shutdown close hook (at most one live).

        Registration and unregistration must stay exactly paired across
        pool-create→close cycles: ``atexit.register`` appends
        unconditionally, so a re-register without the matching unregister
        would stack duplicate hooks (each pinning this runtime) for the
        life of the process.  The ``_atexit_registered`` flag is the single
        source of truth — it is only set here and only cleared by
        :meth:`close` right after the ``atexit.unregister`` call.
        """
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers or _default_workers(),
                thread_name_prefix="repro-site",
            )
            self._register_atexit()
        return self._pool

    def close(self) -> None:
        """Shut the thread pool down (idempotent; a later map re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._atexit_registered:
            # Drop the interpreter-shutdown hook so closed runtimes are
            # garbage-collectable instead of accumulating in the atexit list.
            atexit.unregister(self.close)
            self._atexit_registered = False

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------- map
    def map(self, fn: Callable[..., Any], tasks: Sequence[tuple]) -> list[Any]:
        """Run ``fn(*task)`` for every task; results come back in task order.

        The serial executor (and any call with fewer than two tasks, where
        concurrency cannot help) runs inline on the caller's thread — but a
        threads runtime still creates its pool on the way through, so a
        tiny first phase does not push the pool start-up onto the first
        real parallel phase.
        """
        return self.map_async(fn, tasks)()

    def map_async(
        self, fn: Callable[..., Any], tasks: Sequence[tuple]
    ) -> Callable[[], list[Any]]:
        """Dispatch every task now; join (and get ordered results) later.

        Returns a zero-argument callable producing the same list
        :meth:`map` would have — the caller runs other work between
        dispatch and join (e.g. the streaming coordinator merges deltas
        while the workers encode them).  Serial execution — the serial
        executor or a sub-concurrent task count — runs eagerly at dispatch
        so the join can never surprise.  Until the join returns, task
        arguments must not be mutated: the threads executor reads them in
        place.
        """
        if self.executor == "serial" or len(tasks) < 2:
            if self.executor != "serial":
                self._ensure_pool()
            results = [fn(*task) for task in tasks]
            return lambda: results
        pool = self._ensure_pool()
        futures = [pool.submit(fn, *task) for task in tasks]
        return lambda: [future.result() for future in futures]

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
        parts = [repr(self.executor), f"dropout={self.dropout!r}"]
        if self.quorum is not None:
            parts.append(f"quorum={self.quorum}")
        return f"Runtime({', '.join(parts)})"


#: The shared default: serial execution, fail-on-dropout.  The serial
#: executor never allocates a pool, so one stateless instance backs every
#: protocol run and helper invoked without an explicit runtime.
SERIAL_RUNTIME = Runtime()
