"""What the autograd graph keeps alive, and what the memory tracker counts.

The graph links nodes through their producing ``Function``s, never through
non-leaf tensors, so an intermediate outlives the forward only as far as a
node saved its array; and every saved array counts with the active
``MemoryTracker`` — once per buffer, however many holders it has.
"""

import weakref

import numpy as np
import pytest

from repro import nn
from repro.tensor import MemoryTracker, Tensor, track_memory
from repro.tensor import functional as F
from repro.tensor.tensor import Function

#: ops that keep no reference to their non-leaf input tensor: a bias ``Add``
#: saves nothing of it, the layer epilogue (BatchNorm → activation → dropout)
#: saves only its array, as BatchNorm did
UNSAVING = {"sage": {"Add", "Epilogue"}, "gat": {"Add", "Epilogue"}}


def _model(kind, dataset, dropout):
    if kind == "sage":
        return nn.GraphSageNet(dataset.feature_dim, 16, dataset.num_classes, dropout=dropout)
    return nn.GATNet(dataset.feature_dim, 8, dataset.num_classes, num_heads=2, dropout=dropout)


def _base(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _graph_holdings(loss):
    """Every saved array of the graph below ``loss`` and every leaf it
    reaches, as buffer bases keyed by ``id``."""
    bases, seen, stack = {}, set(), [loss._ctx]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Tensor):
            items = (node,)
        else:
            items = node.saved
            stack.extend(parent for parent in node.parents if parent is not None)
        for item in items:
            item = item.data if isinstance(item, Tensor) else item
            if isinstance(item, np.ndarray):
                base = _base(item)
                bases[id(base)] = base
    return bases


@pytest.fixture
def unsaving_inputs(monkeypatch):
    """``(tensor ref, buffer ref, op)`` of each non-leaf input an op in
    ``UNSAVING`` receives while the fixture is active."""
    records = []
    run = Function.run

    def recording_run(node, *args, **kwargs):
        name = type(node).__name__
        if any(name in ops for ops in UNSAVING.values()):
            records.extend((weakref.ref(a), weakref.ref(_base(a.data)), name)
                           for a in args if isinstance(a, Tensor) and a._ctx is not None)
        return run(node, *args, **kwargs)

    monkeypatch.setattr(Function, "run", recording_run)
    return records


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_unsaved_intermediates_are_collected(unsaving_inputs, small_dataset, kind, dropout):
    model = _model(kind, small_dataset, dropout)
    loss = F.cross_entropy(model(small_dataset.graph, Tensor(small_dataset.features)),
                           small_dataset.labels)
    assert {op for *_, op in unsaving_inputs} >= UNSAVING[kind]
    saved = list(_graph_holdings(loss).values())
    for tensor_ref, buffer_ref, op in unsaving_inputs:
        assert tensor_ref() is None, f"the graph keeps {op}'s input tensor alive"
        buffer = buffer_ref()
        # The epilogue saves its input's array to normalize it again in the
        # backward.
        assert buffer is None or any(np.shares_memory(buffer, s) for s in saved), (
            f"{op}'s input buffer outlived the forward, saved by no node"
        )


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["sage", "gat"])
def test_tracker_counts_what_the_graph_holds(small_dataset, kind, dropout):
    tracker = MemoryTracker()
    with track_memory(tracker):
        model = _model(kind, small_dataset, dropout)
        loss = F.cross_entropy(model(small_dataset.graph, Tensor(small_dataset.features)),
                               small_dataset.labels)
        held = _graph_holdings(loss)
        assert tracker.current_bytes >= sum(base.nbytes for base in held.values())


def test_buffer_held_by_a_tensor_and_two_nodes_counts_once():
    tracker = MemoryTracker()
    with track_memory(tracker):
        x = Tensor(np.ones((64, 8), np.float32), requires_grad=True)
        scale, shift = Tensor(np.float32(2.0)), Tensor(np.float32(3.0))
        h = x * scale
        before, h_bytes = tracker.current_bytes, h.nbytes
        p, q = h * scale, h * shift  # both Muls save h's array
        assert tracker.current_bytes == before + p.nbytes + q.nbytes
        del h
        assert tracker.current_bytes == before + p.nbytes + q.nbytes
        del p
        assert tracker.current_bytes == before + q.nbytes
        del q
        assert tracker.current_bytes == before - h_bytes


def test_backward_lets_saved_buffers_go():
    tracker = MemoryTracker()
    with track_memory(tracker):
        x = Tensor(np.ones((64, 8), np.float32), requires_grad=True)
        before = tracker.current_bytes
        loss = (((x * 2.0) ** 2) ** 2).sum()
        assert tracker.current_bytes > before + x.nbytes
        loss.backward()
        del loss
        assert tracker.current_bytes == before
