"""Training keeps one graph alive, and keeps its freed heap between steps."""

from __future__ import annotations

import platform

import pytest

from repro.benchmarks import train_memory
from repro.benchmarks.train_memory import (TAPE_RATIO_LIMIT, measure_fresh,
                                           tape_ratio)
from repro.nn.tensor import Tensor, _Node


def test_two_training_steps_peak_near_one_step():
    """Backward frees step 1's graph before step 2's forward builds its
    own, so two steps peak near one step."""
    result = tape_ratio()
    assert result["ratio"] <= TAPE_RATIO_LIMIT, result


def _backward_closures(tensor):
    """The backward closure of every node in ``tensor``'s graph: what
    each node keeps for its backward."""
    closures, seen, stack = [], set(), [tensor._node]
    while stack:
        node = stack.pop()
        if isinstance(node, _Node) and id(node) not in seen:
            seen.add(id(node))
            closures.append(node.backward)
            stack.extend(node.parents)
    return closures


def test_a_graph_kept_into_the_next_step_exceeds_the_limit(monkeypatch):
    """Negative control: each step's graph held alive into the next step,
    until that step's backward has run (or the training run ends), reads
    above the limit (1.49 measured, against ~1.0 without it)."""
    kept = []
    backward, train_model = Tensor.backward, train_memory.train_model

    def leaky_backward(self, grad=None):
        graph = _backward_closures(self)
        backward(self, grad)
        kept[:] = graph

    def train_then_drop(*args, **kwargs):
        try:
            return train_model(*args, **kwargs)
        finally:
            kept.clear()

    monkeypatch.setattr(Tensor, "backward", leaky_backward)
    monkeypatch.setattr(train_memory, "train_model", train_then_drop)
    result = tape_ratio()
    assert result["ratio"] > TAPE_RATIO_LIMIT, result


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the policy pins glibc malloc thresholds")
def test_steady_training_epochs_do_not_fault_the_heap_back_in():
    """After a warm-up epoch, the freed tape's heap is reused, not handed
    back to the kernel and faulted in again by the next forward.  With
    glibc's dynamic trim threshold these epochs take 30-40k minor faults
    each; with the pinned thresholds, under 100."""
    result = measure_fresh(epochs=3)
    steady = result["epoch_minor_faults"][1:]
    assert max(steady) < 1000, result
