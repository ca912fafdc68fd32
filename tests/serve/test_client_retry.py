"""ServingClient transport hardening: timeouts and reset retries."""

from __future__ import annotations

import http.client

import numpy as np
import pytest

from repro.serve import ServingClient, ServingError


class TestResetRetry:
    def _flaky_client(self, monkeypatch, failures, exc_factory):
        client = ServingClient("http://127.0.0.1:9", timeout=1.0,
                               retry_resets=1)
        attempts = []

        def fake_request_once(method, path, payload=None, timeout=None):
            attempts.append((method, path))
            if len(attempts) <= failures:
                raise exc_factory()
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", fake_request_once)
        monkeypatch.setattr("repro.serve.client.time.sleep", lambda _: None)
        return client, attempts

    @pytest.mark.parametrize("exc_factory", [
        lambda: ConnectionResetError("peer reset"),
        lambda: BrokenPipeError("broken pipe"),
        lambda: http.client.RemoteDisconnected("server hung up"),
    ])
    def test_one_reset_is_retried(self, monkeypatch, exc_factory):
        client, attempts = self._flaky_client(monkeypatch, failures=1,
                                              exc_factory=exc_factory)
        assert client.health() == {"ok": True}
        assert attempts == [("GET", "/v1/healthz")] * 2

    def test_persistent_resets_surface_as_serving_error(self, monkeypatch):
        client, attempts = self._flaky_client(
            monkeypatch, failures=99,
            exc_factory=lambda: ConnectionResetError("peer reset"))
        with pytest.raises(ServingError,
                           match="connection reset after 2 attempts"):
            client.health()
        assert len(attempts) == 2
        assert client.retry_resets == 1

    def test_retry_budget_zero_fails_fast(self, monkeypatch):
        client = ServingClient("http://127.0.0.1:9", retry_resets=0)
        calls = []

        def always_reset(method, path, payload=None, timeout=None):
            calls.append(path)
            raise ConnectionResetError("peer reset")

        monkeypatch.setattr(client, "_request_once", always_reset)
        with pytest.raises(ServingError, match="after 1 attempts"):
            client.metrics()
        assert len(calls) == 1

    def test_http_errors_are_not_retried(self, monkeypatch):
        # Only transport-level resets retry; a served error response is
        # an answer, and replaying it would double non-idempotent POSTs.
        client, attempts = self._flaky_client(
            monkeypatch, failures=0, exc_factory=AssertionError)

        def served_404(method, path, payload=None, timeout=None):
            attempts.append((method, path))
            raise ServingError(404, "unknown model")

        monkeypatch.setattr(client, "_request_once", served_404)
        with pytest.raises(ServingError, match="unknown model"):
            client.predict("ghost", np.zeros((3, 12, 12), np.float32))
        assert len(attempts) == 1
