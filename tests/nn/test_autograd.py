"""Backward-pass machinery: tape, accumulation, no_grad, retain_grad,
and the tape's release as backward consumes it."""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor, is_grad_enabled, no_grad
from repro.nn import functional as F


class TestBackward:
    def test_scalar_backward_default_grad(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        assert np.isclose(a.grad[0], 4.0)

    def test_nonscalar_backward_requires_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2.0
        with pytest.raises(RuntimeError):
            out.backward()
        out.backward(np.array([1.0, 1.0]))
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_backward_on_nograd_tensor_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_over_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        assert np.isclose(a.grad[0], 5.0)

    def test_diamond_graph_accumulation(self):
        # a feeds two paths that rejoin: grad must sum across paths.
        a = Tensor([3.0], requires_grad=True)
        b = a * 2.0
        c = a * 5.0
        (b + c).sum().backward()
        assert np.isclose(a.grad[0], 7.0)

    def test_reused_tensor_in_same_expression(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a * a).sum().backward()   # d(a^3)/da = 3a^2
        assert np.isclose(a.grad[0], 12.0)

    def test_deep_chain_does_not_recurse(self):
        # 3000-node chain: iterative toposort must not hit stack limits.
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert np.isclose(a.grad[0], 1.0)

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestNoGrad:
    def test_no_tape_inside_context(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = a * 2.0
        assert is_grad_enabled()
        assert not out.requires_grad
        assert out._node is None

    def test_nested_restores(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestRetainGrad:
    def test_intermediate_grad_kept(self):
        a = Tensor([2.0], requires_grad=True)
        mid = a * 3.0
        mid.retain_grad()
        (mid * 4.0).sum().backward()
        assert np.isclose(mid.grad[0], 4.0)
        assert np.isclose(a.grad[0], 12.0)

    def test_intermediate_grad_dropped_by_default(self):
        a = Tensor([2.0], requires_grad=True)
        mid = a * 3.0
        (mid * 4.0).sum().backward()
        assert mid.grad is None


class TestRelease:
    """Backward runs once per graph and frees the tape as it goes."""

    @staticmethod
    def _conv_saves(monkeypatch):
        """Weak references to what each conv forward saves for backward."""
        saved = []
        forward = F.CONV2D.forward

        def recording(*args, **kwargs):
            out, kept = forward(*args, **kwargs)
            saved.append(weakref.ref(kept))
            return out, kept

        monkeypatch.setattr(F.CONV2D, "forward", recording)
        return saved

    def test_conv_saves_padded_input_freed_by_backward(self, monkeypatch):
        """Conv keeps its padded input for the backward, never im2col
        columns, and backward frees it."""
        saved = self._conv_saves(monkeypatch)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(17, 3, 6, 6)))      # several row-blocks
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, padding=1)
        loss = (out * out).sum()
        kept = saved[0]()
        assert kept.shape == (17, 3, 8, 8)
        assert kept.nbytes < 17 * 3 * 9 * 6 * 6 * x.data.itemsize  # columns
        del kept
        loss.backward()
        assert saved[0]() is None
        assert w.grad is not None
        assert out.data.shape == (17, 4, 6, 6)   # outputs keep their data

    def test_unpadded_conv_saves_its_input_itself(self, monkeypatch):
        saved = self._conv_saves(monkeypatch)
        x = Tensor(np.ones((2, 3, 5, 5)))
        F.conv2d(x, Tensor(np.ones((4, 3, 3, 3)), requires_grad=True))
        assert saved[0]() is x.data

    def test_second_backward_raises(self):
        a = Tensor([2.0], requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released graph"):
            loss.backward()
        assert np.isclose(a.grad[0], 4.0)

    def test_backward_through_released_intermediate_raises(self):
        a = Tensor([2.0], requires_grad=True)
        mid = a * 3.0
        mid.sum().backward()
        with pytest.raises(RuntimeError, match="released graph"):
            (mid * 2.0).sum().backward()

    def test_dropped_intermediates_are_freed_before_backward(self):
        """The tape keeps what each backward reads (conv its weight, batch
        norm its gamma, relu and max-pool their masks), so conv, batch
        norm and relu outputs the caller drops are freed in the forward."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 2, 6, 6)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        conv = F.conv2d(x, w, padding=1)
        norm = F.batch_norm(conv, gamma, beta, np.zeros(4, np.float32),
                            np.ones(4, np.float32), training=True)
        act = norm.relu()
        loss = F.max_pool2d(act, 2).sum()
        dropped = [weakref.ref(t.data) for t in (conv, norm, act)]
        dropped += [weakref.ref(t) for t in (conv, norm, act)]
        del conv, norm, act
        assert [ref() for ref in dropped] == [None] * len(dropped)
        loss.backward()
        for leaf in (w, gamma, beta):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_retained_and_leaf_grads_keep_their_values(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        feats = F.conv2d(x, w).relu()
        feats.retain_grad()
        (feats * feats).sum().backward()
        np.testing.assert_allclose(feats.grad, 2.0 * feats.data, rtol=1e-6)
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert np.abs(w.grad).sum() > 0
        assert feats._node.parents == () and feats._node.retained is None


class TestDetachCopy:
    def test_detach_shares_data(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        d.data[0] = 9.0
        assert a.data[0] == 9.0

    def test_copy_is_independent(self):
        a = Tensor([1.0], requires_grad=True)
        c = a.copy()
        c.data[0] = 9.0
        assert a.data[0] == 1.0
        assert c.requires_grad
