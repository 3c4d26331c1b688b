"""Partial-merge associativity over randomly shaped trees (hypothesis).

The tree's correctness argument leans on ONE algebraic fact: for every
mergeable sketch family, merging per-site partials in any nested grouping
yields bit-identical state to merging them flat.  The states are exact
integers carried in float64 (well within 2^53), so grouped addition is not
approximately equal — it is equal.  Hypothesis explores random tree shapes
(via :meth:`TreeSpec.from_grouping`), random site permutations, and random
update streams for all four mergeable families, both directly on the
sketches and end-to-end through :class:`TreeNetwork`'s staging drain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.network import TreeNetwork
from repro.comm.tree import TreeSpec
from repro.sketch import AmsSketch, CountSketch, L0Sampler, L0Sketch

N = 48  # universe size shared by every family below

FAMILIES = {
    "ams": lambda rng: AmsSketch.for_accuracy(N, 0.5, rng),
    "l0": lambda rng: L0Sketch.for_accuracy(N, 0.5, rng),
    "sampler": lambda rng: L0Sampler(N, rng, repetitions=3),
    "countsketch": lambda rng: CountSketch(N, 16, 3, rng),
}


def _draw_grouping(draw, indices, depth=0):
    """A random nested grouping (the input language of ``from_grouping``)."""
    if len(indices) == 1:
        return indices[0]
    if depth >= 3 or draw(st.booleans()):
        return list(indices)
    n_cuts = draw(st.integers(1, min(3, len(indices) - 1)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, len(indices) - 1),
                min_size=n_cuts,
                max_size=n_cuts,
                unique=True,
            )
        )
    )
    parts = [indices[a:b] for a, b in zip([0, *cuts], [*cuts, len(indices)])]
    return [_draw_grouping(draw, part, depth + 1) for part in parts]


@st.composite
def tree_and_updates(draw):
    k = draw(st.integers(2, 8))
    order = list(draw(st.permutations(range(k))))
    grouping = _draw_grouping(draw, order)
    if not isinstance(grouping, list):  # pragma: no cover - k >= 2 keeps lists
        grouping = [grouping]
    updates = [
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, N - 1), st.integers(-5, 5).filter(bool)
                ),
                max_size=12,
            )
        )
        for _ in range(k)
    ]
    return k, grouping, updates


def _site_sketches(template, updates):
    sketches = []
    for stream in updates:
        sketch = template.empty_copy()
        if stream:
            indices = np.array([i for i, _ in stream], dtype=np.int64)
            values = np.array([v for _, v in stream], dtype=np.int64)
            sketch.update_many(indices, values)
        sketches.append(sketch)
    return sketches


def _flat_merge(template, sketches):
    merged = template.empty_copy()
    for sketch in sketches:
        merged.merge(sketch)
    return merged


def _tree_merge(template, node, sketches):
    """Merge along the grouping's shape: sub-lists merge before forwarding."""
    if isinstance(node, list):
        merged = template.empty_copy()
        for child in node:
            merged.merge(_tree_merge(template, child, sketches))
        return merged
    return sketches[node]


def _same_state(left, right):
    a, b = left.state_array(), right.state_array()
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(case=tree_and_updates())
def test_partial_merge_along_any_tree_shape_is_exact(family, case):
    k, grouping, updates = case
    template = FAMILIES[family](np.random.default_rng(7))
    sketches = _site_sketches(template, updates)
    flat = _flat_merge(template, sketches)
    tree = _tree_merge(template, grouping, sketches)
    assert _same_state(flat, tree)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=25, deadline=None)
@given(case=tree_and_updates())
def test_tree_network_drain_reproduces_the_flat_merge(family, case):
    """End to end through the metered overlay: sites upload their partials,
    the staged groups drain bottom-up, and folding the root's ingress
    payloads together equals the flat merge — for ANY tree shape."""
    k, grouping, updates = case
    site_names = [f"site-{i}" for i in range(k)]
    tree = TreeSpec.from_grouping(site_names, grouping)
    net = TreeNetwork(site_names, tree=tree)
    template = FAMILIES[family](np.random.default_rng(7))
    sketches = _site_sketches(template, updates)
    for name, sketch in zip(site_names, sketches):
        net.send(name, tree.root, sketch, label="partial", bits=128)
    assert net.total_bits > 0  # property read forces the drain
    root_ingress = [
        message.payload
        for message in net.log.messages
        if message.receiver == tree.root
    ]
    assert len(root_ingress) == len(tree.children[tree.root])
    folded = template.empty_copy()
    for payload in root_ingress:
        folded.merge(payload)
    assert _same_state(folded, _flat_merge(template, sketches))
    # The sites' own sketches were never mutated by the aggregators.
    assert _same_state(_flat_merge(template, sketches), folded)
