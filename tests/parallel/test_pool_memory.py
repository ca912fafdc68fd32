"""The pool-memory cell: one worker per 2-process pooled call."""

import pytest

from repro.benchmarks import pool_memory

pytestmark = pytest.mark.parallel


def test_each_pooled_call_starts_one_worker():
    """workers=2 counts the caller, so the fit and the unlearn each
    start one worker; both processes report a peak."""
    result = pool_memory.measure_fresh(epochs=1)
    assert result["workers_started"] == 2
    assert result["caller_vm_hwm_mb"] > 0
    assert result["children_max_rss_mb"] > 0
    assert len(result["digests"]) == pool_memory.SHARDS
