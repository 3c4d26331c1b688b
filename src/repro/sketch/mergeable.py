"""The mergeable-summary contract used by the k-party coordinator runtime.

In the coordinator (star) model each of the k sites builds a summary of its
local shard and ships it upstream; the coordinator combines the k summaries
into a summary of the *union* of the shards.  All sketches in this repo are
linear maps, so "combine" is always an entrywise sum of sketch states — the
defining property that makes the two-party protocols generalize to k sites
without extra rounds.

A conforming sketch exposes:

``empty_copy()``
    A new sketch sharing this sketch's randomness (hash functions / sketch
    matrix) with a zeroed state.  Sites at the ends of a star all construct
    the sketch from the same broadcast seed, which is modelled by cloning a
    shared template.

``update_many(indices, values)``
    Batched, vectorized state update: add ``values[t]`` at coordinate
    ``indices[t]`` for all ``t`` at once (no per-entry Python loops).
    For the matrix-backed linear sketches (:class:`LinearStateMixin` hosts:
    AMS, ``l_0`` sketch, ``l_0``-sampler) matrix-shaped ``values``
    accumulate one sketch column per input column, which is how a site
    sketches the rows of its matrix shard in one call; CountSketch's fixed
    table takes scalar deltas by default and switches to vector-valued
    counters when fed matrix-shaped values (one row-vector per index).

``merge(other)``
    Entrywise combination of two states built with identical randomness
    (enforced: merging sketches drawn from different generators raises).
    Returns ``self`` so coordinators can ``functools.reduce`` over site
    summaries.  Merging is associative and commutative (it is a sum), which
    the property tests assert.

``state_array()`` / ``load_state_array(state)``
    The accumulated state as one numpy array (``None`` before the first
    update), and its inverse.  This is the serialization hook used by the
    streaming runtime: a site's *delta* — everything accumulated since its
    last upload — is exactly the state array of a pending ``empty_copy``,
    so :mod:`repro.sketch.serialization` can put any conforming sketch on
    the wire without knowing its family.
"""

from __future__ import annotations

import copy
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class MergeableSketch(Protocol):
    """Structural type for sketches the coordinator can combine."""

    def empty_copy(self) -> "MergeableSketch":
        """A fresh sketch with the same randomness and a zeroed state."""
        ...

    def update_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` at coordinates ``indices`` (batched, vectorized)."""
        ...

    def merge(self, other: "MergeableSketch") -> "MergeableSketch":
        """Entrywise-combine ``other``'s state into this sketch; returns self."""
        ...

    def state_array(self) -> np.ndarray | None:
        """The accumulated state as one array (``None`` if never updated)."""
        ...

    def load_state_array(self, state: np.ndarray | None) -> None:
        """Replace the accumulated state with ``state`` (``None`` clears it)."""
        ...


def check_coordinate_range(indices: np.ndarray, n: int) -> None:
    """Coordinates must lie in ``[0, n)``.

    The dense-table era got this for free (an out-of-range gather raised);
    lazy hashes happily hash any integer, so the kernel-based update paths
    enforce the universe bound explicitly — in every mode, which also
    closes the historical gap where negative indices silently wrapped.
    """
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
        bad = indices[(indices < 0) | (indices >= n)][0]
        raise IndexError(f"coordinate {int(bad)} out of range for universe [0, {n})")


def check_mergeable(this, other) -> None:
    """Shared sanity check: merging requires identical type and dimensions."""
    if type(this) is not type(other):
        raise TypeError(
            f"cannot merge {type(other).__name__} into {type(this).__name__}"
        )
    if getattr(this, "n", None) != getattr(other, "n", None):
        raise ValueError(
            f"cannot merge sketches over different universes "
            f"({getattr(other, 'n', None)} vs {getattr(this, 'n', None)})"
        )


def check_same_randomness(mine: np.ndarray, theirs: np.ndarray, what: str) -> None:
    """Merging only makes sense for states built with identical randomness.

    Clones from ``empty_copy`` share the arrays, so the identity fast path
    covers the intended workflow; endpoints that constructed the sketch
    independently from a broadcast seed hold equal-valued arrays instead.
    """
    if mine is theirs:
        return
    if mine.shape != theirs.shape or not np.array_equal(mine, theirs):
        raise ValueError(
            f"cannot merge sketches with different {what}; both sides must be "
            f"built from the same shared randomness (use empty_copy() or a "
            f"common seed)"
        )


class LinearStateMixin:
    """Mergeable-state plumbing for the linear-map sketches.

    Host classes expose ``num_rows`` (the sketch dimension).  The
    accumulated ``state`` is the partial linear image ``S[:, idx] @ values``
    summed over all updates: ``S x`` when values are scalars per coordinate,
    or ``S X`` (one column per input column) when a site sketches a matrix
    shard in one batched call.  ``state`` is ``None`` until the first update
    so its trailing shape can adapt to the input.

    How the image is computed is a host hook: matrix-backed hosts keep the
    historical dense gather+matmul (:meth:`_contribution`'s default), while
    the kernel-based hosts (AMS in hash mode, the ``l_0`` machinery)
    scatter each batch through :mod:`repro.sketch.kernels` without ever
    materializing ``S``.  Likewise the randomness-identity check behind
    ``merge`` compares whatever arrays actually determine the host's
    randomness (:meth:`_randomness_fingerprints`), dense matrix or hash
    coefficients alike.
    """

    state: np.ndarray | None = None

    # ------------------------------------------------------------ host hooks
    def _contribution(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The partial image ``S[:, indices] @ values`` of one batch."""
        return self.matrix[:, indices] @ values

    def _randomness_fingerprints(self):
        """(name, array) pairs that must match for two sketches to merge."""
        return [("sketch matrices", self.matrix)]

    # -------------------------------------------------------------- contract
    def update_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Add ``values[t]`` at coordinate ``indices[t]``, batched."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        values = np.asarray(values)
        if values.shape[0] != indices.shape[0]:
            raise ValueError(
                f"values lead dimension {values.shape[0]} does not match "
                f"{indices.shape[0]} indices"
            )
        check_coordinate_range(indices, self.n)
        contribution = self._contribution(indices, values)
        if self.state is None:
            self.state = contribution
        elif self.state.shape != contribution.shape:
            raise ValueError(
                f"update of shape {contribution.shape} does not match "
                f"accumulated state of shape {self.state.shape}"
            )
        else:
            self.state = self.state + contribution

    def merge(self, other):
        """Entrywise-combine ``other``'s state into this sketch; returns self."""
        check_mergeable(self, other)
        if self.num_rows != other.num_rows:
            raise ValueError(
                f"cannot merge sketches with {other.num_rows} rows "
                f"into one with {self.num_rows} rows"
            )
        for (name, mine), (_, theirs) in zip(
            self._randomness_fingerprints(), other._randomness_fingerprints()
        ):
            check_same_randomness(mine, theirs, name)
        if other.state is None:
            return self
        if self.state is None:
            self.state = other.state.copy()
        elif self.state.shape != other.state.shape:
            raise ValueError(
                f"cannot merge state of shape {other.state.shape} into "
                f"state of shape {self.state.shape}"
            )
        else:
            self.state = self.state + other.state
        return self

    def empty_copy(self):
        """A fresh sketch sharing this one's randomness, with no state yet."""
        clone = copy.copy(self)
        clone.state = None
        return clone

    def state_array(self) -> np.ndarray | None:
        """The accumulated partial image ``S x`` (``None`` before any update)."""
        return self.state

    def load_state_array(self, state: np.ndarray | None) -> None:
        """Install a (deserialized) state; ``None`` resets to the empty state."""
        if state is None:
            self.state = None
            return
        state = np.asarray(state)
        if state.shape[0] != self.num_rows:
            raise ValueError(
                f"state has {state.shape[0]} rows, expected {self.num_rows}"
            )
        self.state = state
