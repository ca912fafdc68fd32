"""Training keeps one graph alive, and keeps its freed heap between steps."""

from __future__ import annotations

import platform

import pytest

from repro.benchmarks.train_memory import (TAPE_RATIO_LIMIT, measure_fresh,
                                           tape_ratio)


def test_two_training_steps_peak_near_one_forward_tape():
    """Backward frees step 1's graph before step 2's forward builds its
    own, so two steps peak near one tape (two graphs alive read ~2x)."""
    result = tape_ratio()
    assert result["ratio"] <= TAPE_RATIO_LIMIT, result


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
