"""StateChannel: whole state dicts through shared memory, verified."""

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.parallel import ChannelPeer, StateChannel, state_fingerprint
from repro.parallel.shm import leaked_segments, shm_segment_names

pytestmark = pytest.mark.parallel


def make_state(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.standard_normal((8, 3, 3, 3)).astype(np.float32),
        "conv.bias": rng.standard_normal(8).astype(np.float32),
        "bn.running_mean": rng.standard_normal(8).astype(np.float64),
        "bn.num_batches": np.array(int(rng.integers(1, 99)), dtype=np.int64),
        "head.weight": rng.standard_normal((4, 8)).astype(np.float32),
    }


class TestRoundTrip:
    def test_owner_write_owner_read_bit_identical(self):
        state = make_state()
        channel = StateChannel()
        try:
            slot = channel.write_state(state)
            out = channel.read_state(slot)
            assert list(out) == list(state)      # key order preserved
            for key in state:
                assert out[key].dtype == state[key].dtype
                assert out[key].shape == state[key].shape
                assert np.array_equal(out[key], state[key])
        finally:
            channel.unlink()

    def test_peer_read_bit_identical(self):
        state = make_state(1)
        channel = StateChannel()
        peer = ChannelPeer()
        try:
            slot = channel.write_state(state)
            out = peer.read_state(slot)
            assert all(np.array_equal(out[key], state[key]) for key in state)
        finally:
            peer.close()
            channel.unlink()

    def test_scalar_and_noncontiguous_arrays_survive(self):
        state = {
            "scalar": np.array(3.5, dtype=np.float64),
            "transposed": np.arange(24, dtype=np.float32).reshape(4, 6).T,
        }
        channel = StateChannel()
        try:
            out = channel.read_state(channel.write_state(state))
            assert out["scalar"].shape == ()
            assert out["transposed"].shape == (6, 4)
            for key in state:
                assert np.array_equal(out[key], state[key])
        finally:
            channel.unlink()

    def test_slot_is_small_and_picklable(self):
        state = make_state(2)
        channel = StateChannel()
        try:
            slot = channel.write_state(state)
            payload = pickle.dumps(slot)
            arrays_bytes = sum(v.nbytes for v in state.values())
            # The arrays never hit the pipe: only the slot descriptor
            # travels, and it's smaller than the payload it names.
            assert len(payload) < 1024 < arrays_bytes
        finally:
            channel.unlink()

    def test_multiple_states_back_to_back(self):
        channel = StateChannel()
        try:
            for seed in range(3):
                state = make_state(seed)
                out = channel.read_state(channel.write_state(state))
                assert all(np.array_equal(out[key], state[key])
                           for key in state)
        finally:
            channel.unlink()


class TestIntegrity:
    def test_fingerprint_matches_content(self):
        state = make_state(3)
        assert state_fingerprint(state) == state_fingerprint(dict(state))
        mutated = dict(state)
        mutated["conv.bias"] = state["conv.bias"] + 1e-7
        assert state_fingerprint(state) != state_fingerprint(mutated)

    def test_corrupted_payload_rejected_on_read(self):
        state = make_state(4)
        channel = StateChannel()
        try:
            slot = channel.write_state(state)
            # Flip one byte of the packed payload behind the slot's back.
            segment = shared_memory.SharedMemory(name=slot.name)
            try:
                segment.buf[slot.entries[0].offset] ^= 0xFF
            finally:
                segment.close()
            with pytest.raises(RuntimeError, match="hashes to"):
                channel.read_state(slot)
        finally:
            channel.unlink()

    def test_stale_slot_after_growth_rejected(self):
        channel = StateChannel()
        try:
            slot = channel.write_state(make_state(5))
            # Force growth: the segment is renamed, the old slot dies.
            channel.write_state({
                "big": np.zeros((1024, 1024), dtype=np.float32)})
            with pytest.raises(ValueError, match="resized mid-flight"):
                channel.read_state(slot)
        finally:
            channel.unlink()


class TestLifecycle:
    def test_unlink_is_idempotent(self):
        channel = StateChannel(256)
        name = channel.name
        channel.unlink()
        channel.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_no_segment_leaks(self):
        before = shm_segment_names()
        if before is None:
            pytest.skip("platform does not expose /dev/shm")
        channel = StateChannel()
        channel.write_state(make_state(9))
        channel.write_state(make_state(10))
        channel.write_state({"grow": np.zeros(1 << 20, dtype=np.float32)})
        channel.unlink()
        assert leaked_segments(before) == []
