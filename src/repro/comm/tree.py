"""Aggregation-tree shapes: the routing topology of every network.

A :class:`TreeSpec` is a pure *shape*: leaves are the protocol sites, the
root is the coordinator, and interior **aggregator** nodes group subtrees
of sites.  It carries no state and meters nothing — every network routes
over one: the in-process :class:`repro.comm.network.Network` and the
socket :class:`repro.service.transport.RemoteNetwork`, one-shot runs and
streaming sessions alike.  Keeping the shape separate means the same spec
object describes all of them.

The flat star is the depth-1 special case (:meth:`TreeSpec.flat`): no
aggregators, every site a direct child of the root; a network built
without a spec routes over it.  :meth:`TreeSpec.regular` builds the
balanced fan-out-``F`` tree used by the scaling experiments;
:meth:`TreeSpec.from_grouping` accepts an arbitrary nested grouping of
site indices, which is how the hypothesis property suite explores random
shapes.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = ["TreeSpec"]


class TreeSpec:
    """Shape of an aggregation tree over named sites.

    Parameters
    ----------
    children_of:
        Mapping from the root and every aggregator to its ordered children
        (aggregator or site names).  Every node except the root must appear
        exactly once as somebody's child; names never listed as keys are
        the leaves (sites).
    root:
        Name of the root (the coordinator endpoint).
    site_names:
        Optional explicit leaf ordering; defaults to depth-first discovery
        order.  When given it must be a permutation-free match of the
        leaves found in ``children_of`` (same names, caller's order).
    """

    def __init__(
        self,
        children_of: Mapping[str, Sequence[str]],
        *,
        root: str = "coordinator",
        site_names: Sequence[str] | None = None,
    ) -> None:
        children = {name: tuple(kids) for name, kids in children_of.items()}
        if root not in children:
            raise ValueError(f"tree root {root!r} has no children entry")
        seen: dict[str, str] = {}
        for parent, kids in children.items():
            if not kids:
                raise ValueError(f"tree node {parent!r} has no children")
            for kid in kids:
                if kid in seen:
                    raise ValueError(f"tree node {kid!r} has two parents")
                if kid == root:
                    raise ValueError("the root cannot be a child")
                seen[kid] = parent
        orphans = (set(children) - {root}) - set(seen)
        if orphans:
            raise ValueError(f"aggregators {sorted(orphans)} are unreachable from the root")
        self.root = root
        self.parent: dict[str, str] = seen
        self.children: dict[str, tuple[str, ...]] = children
        # Depth-first discovery fixes a deterministic order for leaves and
        # aggregators alike (aggregators top-down, which _drain relies on).
        leaves: list[str] = []
        aggregators: list[str] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node in children:
                if node != root:
                    aggregators.append(node)
                stack.extend(reversed(children[node]))
            else:
                leaves.append(node)
        if site_names is not None:
            site_names = list(site_names)
            if sorted(site_names) != sorted(leaves):
                raise ValueError(
                    "site_names must name exactly the leaves of the tree "
                    f"(leaves: {sorted(leaves)})"
                )
            leaves = site_names
        self.site_names: list[str] = leaves
        #: Aggregators in depth-first (top-down within a branch) order.
        self.aggregators: list[str] = aggregators
        self._depth = {root: 0}
        for node in aggregators + leaves:
            self._depth[node] = self._depth[self.parent[node]] + 1

    # ---------------------------------------------------------------- shape
    @property
    def is_flat(self) -> bool:
        """True for the depth-1 star (no aggregators)."""
        return not self.aggregators

    @property
    def depth(self) -> int:
        """Maximum leaf depth (1 for the flat star)."""
        return max(self._depth[name] for name in self.site_names)

    @property
    def fan_out(self) -> int:
        """Maximum number of children of any interior node (root included)."""
        return max(len(kids) for kids in self.children.values())

    def node_depth(self, name: str) -> int:
        """Depth of one node (root = 0)."""
        return self._depth[name]

    def ancestors(self, name: str) -> list[str]:
        """Aggregators above ``name``, nearest first (root excluded)."""
        chain = []
        node = self.parent[name]
        while node != self.root:
            chain.append(node)
            node = self.parent[node]
        return chain

    def path_edges(self, site: str) -> list[str]:
        """Edges (keyed by child endpoint) from the root down to ``site``."""
        return list(reversed(self.ancestors(site))) + [site]

    def subtree_sites(self, name: str) -> list[str]:
        """Leaves under ``name`` (in :attr:`site_names` order)."""
        if name not in self.children:
            return [name] if name in self.parent or name == self.root else []
        keep = set()
        stack = [name]
        while stack:
            node = stack.pop()
            if node in self.children:
                stack.extend(self.children[node])
            else:
                keep.add(node)
        return [leaf for leaf in self.site_names if leaf in keep]

    def check_matches(self, site_names: Sequence[str], root: str) -> None:
        """Raise ``ValueError`` unless this tree's root is ``root`` and its
        leaves are exactly ``site_names``, in site order."""
        if self.root != root:
            raise ValueError(
                f"tree root {self.root!r} does not match the coordinator {root!r}"
            )
        if self.site_names != list(site_names):
            raise ValueError(
                "tree leaves must be exactly the site names, in site order "
                f"(tree: {self.site_names}, sites: {list(site_names)})"
            )

    def expand_regions(self, names: Iterable[str]) -> frozenset[str]:
        """``names`` with every aggregator replaced by its subtree's leaves.

        A dropped aggregator stands for its whole region (a rack or region
        failure).  The root and names this tree does not know pass through
        unchanged, so the caller's "match no site" check still names them.
        """
        expanded: set[str] = set()
        for name in names:
            if name in self.children and name != self.root:
                expanded.update(self.subtree_sites(name))
            else:
                expanded.add(name)
        return frozenset(expanded)

    def describe(self) -> dict[str, Any]:
        """Structured summary for protocol details and experiment rows."""
        return {
            "depth": self.depth,
            "fan_out": self.fan_out,
            "aggregators": len(self.aggregators),
            "sites": len(self.site_names),
            "flat": self.is_flat,
        }

    def rename_sites(self, mapping: Mapping[str, str]) -> "TreeSpec":
        """The same shape with leaves renamed through ``mapping``.

        Names absent from ``mapping`` (aggregators, the root) pass through
        unchanged.  Used when a caller's tree over custom site names must
        run against positionally named endpoints (``site-0..k-1``).
        """
        return TreeSpec(
            {
                parent: [mapping.get(kid, kid) for kid in kids]
                for parent, kids in self.children.items()
            },
            root=self.root,
            site_names=[mapping.get(name, name) for name in self.site_names],
        )

    # ------------------------------------------------------------ restriction
    def restrict(self, keep_sites: Iterable[str]) -> "TreeSpec":
        """The subtree spanned by ``keep_sites`` (dropout/quorum exclusions).

        Aggregators left with no surviving leaves disappear; an aggregator
        with a single surviving child keeps its hop (the topology is what
        it is — exclusion does not rewire links).
        """
        keep = set(keep_sites)
        missing = keep - set(self.site_names)
        if missing:
            raise ValueError(f"cannot restrict to unknown sites {sorted(missing)}")
        if not keep:
            raise ValueError("cannot restrict a tree to zero sites")

        def prune(node: str) -> str | None:
            if node not in self.children:
                return node if node in keep else None
            kids = [kid for kid in (prune(child) for child in self.children[node]) if kid]
            if not kids:
                return None
            children_of[node] = kids
            return node

        children_of: dict[str, list[str]] = {}
        if prune(self.root) is None:
            raise ValueError("cannot restrict a tree to zero sites")
        return TreeSpec(
            children_of,
            root=self.root,
            site_names=[name for name in self.site_names if name in keep],
        )

    # ----------------------------------------------------------- constructors
    @classmethod
    def flat(cls, site_names: Sequence[str], *, root: str = "coordinator") -> "TreeSpec":
        """The depth-1 star: every site a direct child of the root."""
        return cls({root: list(site_names)}, root=root, site_names=site_names)

    @classmethod
    def regular(
        cls,
        site_names: Sequence[str],
        fan_out: int,
        *,
        root: str = "coordinator",
    ) -> "TreeSpec":
        """Balanced fan-out-``F`` tree over contiguous site runs.

        Sites are grouped bottom-up in contiguous runs of ``fan_out``; each
        level of groups gets one aggregator per run until at most
        ``fan_out`` nodes remain as the root's children.  ``fan_out >= k``
        degenerates to the flat star.
        """
        if fan_out < 2:
            raise ValueError(f"fan_out must be >= 2, got {fan_out}")
        names = list(site_names)
        children_of: dict[str, Sequence[str]] = {}
        nodes, level = names, 0
        while len(nodes) > fan_out:
            groups = [nodes[i : i + fan_out] for i in range(0, len(nodes), fan_out)]
            aggs = [f"agg-{level}-{index}" for index in range(len(groups))]
            for agg, group in zip(aggs, groups):
                children_of[agg] = group
            nodes, level = aggs, level + 1
        children_of[root] = nodes
        return cls(children_of, root=root, site_names=names)

    @classmethod
    def from_grouping(
        cls,
        site_names: Sequence[str],
        grouping: Sequence[Any],
        *,
        root: str = "coordinator",
    ) -> "TreeSpec":
        """An arbitrary shape from a nested grouping of site *indices*.

        ``grouping`` is a nested list: integers are leaf sites (indices
        into ``site_names``), sub-lists become aggregators (named by their
        path, e.g. ``agg-0.2``).  Every site index must appear exactly
        once.  Example: ``[[0, 1], [2, [3, 4]], 5]`` puts site 5 directly
        under the root next to two aggregators, one of which nests another.
        """
        names = list(site_names)
        used: set[int] = set()
        children_of: dict[str, list[str]] = {}

        def walk(node: Any, path: tuple[int, ...]) -> str:
            if isinstance(node, (list, tuple)):
                name = root if not path else "agg-" + ".".join(map(str, path))
                children_of[name] = [
                    walk(child, path + (i,)) for i, child in enumerate(node)
                ]
                return name
            index = int(node)
            if index in used or not 0 <= index < len(names):
                raise ValueError(
                    f"grouping must use each site index in [0, {len(names)}) exactly "
                    f"once (offending index: {index})"
                )
            used.add(index)
            return names[index]

        walk(list(grouping), ())
        if len(used) != len(names):
            missing = sorted(set(range(len(names))) - used)
            raise ValueError(f"grouping is missing site indices {missing}")
        return cls(children_of, root=root, site_names=names)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        info = self.describe()
        return (
            f"TreeSpec(sites={info['sites']}, aggregators={info['aggregators']}, "
            f"depth={info['depth']}, fan_out={info['fan_out']})"
        )
