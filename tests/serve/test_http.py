"""HTTP front end: endpoints, error mapping, hot-swap, keep-alive."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         QueueFullError, ServingClient, ServingError,
                         encode_tensor, start_http_server, stop_http_server)


def _tiny_model(seed):
    nn.manual_seed(seed)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    return model


@pytest.fixture(scope="module")
def stack():
    store = ModelStore()
    store.register("m", _tiny_model(0), version="v1")
    store.register("m", _tiny_model(99), version="v2", activate=False)
    server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8,
                                                       max_delay_ms=1.0))
    httpd = start_http_server(server)
    with ServingClient(httpd.url) as client:
        yield store, server, httpd, client
    stop_http_server(httpd)
    server.close()


@pytest.fixture(scope="module")
def image(rng):
    return rng.random((3, 12, 12)).astype(np.float32)


class TestEndpoints:
    def test_healthz(self, stack):
        _, _, _, client = stack
        payload = client.health()
        assert payload["status"] == "ok" and payload["models"] == ["m"]

    def test_models_listing(self, stack):
        _, _, _, client = stack
        entries = client.models()
        assert {(e.name, e.version) for e in entries} \
            == {("m", "v1"), ("m", "v2")}
        active = {e.version for e in entries if e.active}
        assert active == {"v1"}
        assert all(entry.metadata == {} for entry in entries)
        # The raw wire dict is still there for consumers of the payload.
        raw = client.models_json()
        assert set(raw["m"]["versions"]) == {"v1", "v2"}

    def test_predict_single_and_batch(self, stack, image):
        _, _, _, client = stack
        single = client.predict("m", image)
        assert single["model"] == "m" and single["version"] == "v1"
        assert len(single["labels"]) == 1 and len(single["logits"][0]) == 4
        batch = client.predict("m", np.stack([image, image]))
        assert len(batch["labels"]) == 2
        # Same image, same version → bit-identical logits through JSON.
        assert batch["logits"][0] == single["logits"][0]

    def test_metrics_shape(self, stack, image):
        _, _, _, client = stack
        client.predict("m", image)
        metrics = client.metrics()
        assert metrics["requests"]["served"] >= 1
        assert metrics["batcher"]["batches"] >= 1
        assert metrics["policy"]["max_batch_size"] == 8
        assert "m" in metrics["models"]

    def test_version_pinning(self, stack, image):
        _, _, _, client = stack
        pinned = client.predict("m", image, version="v2")
        assert pinned["version"] == "v2"


class TestErrorMapping:
    def test_unknown_model_404(self, stack, image):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("ghost", image)
        assert excinfo.value.status == 404

    def test_unknown_version_404(self, stack, image):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", image, version="v9")
        assert excinfo.value.status == 404

    def test_malformed_inputs_400(self, stack):
        _, _, httpd, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", np.zeros((2, 2), dtype=np.float32))
        assert excinfo.value.status == 400
        for body in (b"not json", b'{"inputs": [[[0.0]]]}',
                     b'{"model": "m"}'):
            request = urllib.request.Request(
                f"{httpd.url}/v1/predict", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            excinfo.value.close()   # the error holds the response socket
            assert excinfo.value.code == 400

    def test_unknown_paths_404(self, stack):
        _, _, httpd, _ = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{httpd.url}/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_backpressure_maps_to_429(self, stack, image, monkeypatch):
        _, server, _, client = stack

        def full(*args, **kwargs):
            raise QueueFullError("queue depth 1 reached")

        monkeypatch.setattr(server.batcher, "submit", full)
        with pytest.raises(ServingError) as excinfo:
            client.predict("m", image)
        assert excinfo.value.status == 429

    def test_429_carries_retry_after(self, stack, image, monkeypatch):
        _, server, httpd, _ = stack

        def full(*args, **kwargs):
            raise QueueFullError("queue depth 1 reached")

        monkeypatch.setattr(server.batcher, "submit", full)
        body = json.dumps({"model": "m",
                           "inputs": encode_tensor(image)}).encode()
        request = urllib.request.Request(
            f"{httpd.url}/v1/predict", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "1"


class TestHotSwap:
    def test_activate_endpoint_swaps_served_version(self, stack, image):
        store, _, _, client = stack
        try:
            before = client.predict("m", image)
            assert before["version"] == "v1"
            client.activate("m", "v2")
            after = client.predict("m", image)
            assert after["version"] == "v2"
            # Different weights, different logits; pinned v1 unchanged.
            assert after["logits"] != before["logits"]
            pinned = client.predict("m", image, version="v1")
            assert pinned["logits"] == before["logits"]
        finally:
            store.activate("m", "v1")

    def test_activate_unknown_version_404(self, stack):
        _, _, _, client = stack
        with pytest.raises(ServingError) as excinfo:
            client.activate("m", "v9")
        assert excinfo.value.status == 404


class _Spy:
    """Counts accepted connections and the threads that served
    predicts, on one fresh server."""

    def __init__(self, httpd, server):
        self.accepted = 0
        self.threads = set()
        accept, predict = httpd.process_request, server.predict

        def counting_accept(request, client_address):
            self.accepted += 1
            accept(request, client_address)

        def recording_predict(*args, **kwargs):
            self.threads.add(threading.current_thread())
            return predict(*args, **kwargs)

        httpd.process_request = counting_accept
        server.predict = recording_predict


@pytest.fixture()
def fresh():
    store = ModelStore()
    store.register("m", _tiny_model(0), version="v1")
    server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8,
                                                       max_delay_ms=1.0))
    httpd = start_http_server(server)
    try:
        yield server, httpd, _Spy(httpd, server)
    finally:
        stop_http_server(httpd)
        server.close()


class _SlowPlane:
    """A forget plane whose waited deletions take ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def request(self, user, sample_ids, trace=None, wait=True,
                timeout=120.0):
        time.sleep(self.seconds)
        return {"user": user, "version": "v1"}

    def close(self):
        pass


class _ResetConnection(http.client.HTTPConnection):
    """An idle connection whose server reset it before the client could
    see it go: not readable, and its next request fails."""

    def __init__(self, sock):
        super().__init__("127.0.0.1", 9)
        self.sock = sock

    def request(self, *args, **kwargs):
        raise ConnectionResetError("connection reset by peer")


def _read_to_eof(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestKeepAlive:
    def test_sequential_predicts_ride_one_connection(self, fresh, image):
        _, httpd, spy = fresh
        with ServingClient(httpd.url) as client:
            first = client.predict("m", image)
            for _ in range(7):
                assert client.predict("m", image)["logits"] \
                    == first["logits"]
        assert spy.accepted == 1
        assert len(spy.threads) == 1

    def test_accepted_sockets_disable_nagle(self, fresh, image):
        _, httpd, _ = fresh
        with ServingClient(httpd.url) as client:
            client.predict("m", image)
            connections = list(httpd._connections)
            assert len(connections) == 1
            assert connections[0].getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY)

    def test_per_request_timeout_applies_on_a_reused_connection(
            self, fresh, image):
        server, httpd, spy = fresh
        server.forget_plane = _SlowPlane(0.6)
        try:
            # The client's own timeout is shorter than the deletion;
            # forget(timeout=...) must stretch it on the warm socket.
            with ServingClient(httpd.url, timeout=0.3,
                               retry_resets=0) as client:
                client.predict("m", image)
                outcome = client.forget("alice", [1], timeout=1.0)
                assert outcome["version"] == "v1"
                assert spy.accepted == 1
                with pytest.raises(OSError):     # a shorter one applies too
                    client.forget("alice", [1], timeout=0.0001)
                # The timed-out connection is dropped, not reused.
                client.predict("m", image)
                assert spy.accepted == 2
        finally:
            server.forget_plane = None

    def test_stop_ends_idle_keep_alive_connections(self, image):
        store = ModelStore()
        store.register("m", _tiny_model(0), version="v1")
        server = InferenceServer(store, policy=BatchPolicy(max_batch_size=8))
        httpd = start_http_server(server)
        spy = _Spy(httpd, server)
        try:
            with ServingClient(httpd.url) as client:
                client.predict("m", image)      # connection now idle
                started = time.perf_counter()
                stop_http_server(httpd)
                assert time.perf_counter() - started < 5.0
                assert len(spy.threads) == 1
                assert not any(t.is_alive() for t in spy.threads)
        finally:
            server.close()

    def test_concurrent_threads_share_one_client(self, fresh, image):
        """More threads than cores on one client, with frequent thread
        switches: every call is served, and every connection opened is
        back in the idle pool exactly once."""
        _, httpd, spy = fresh
        errors = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingClient(httpd.url) as client:
                expected = client.predict("m", image)["logits"]

                def worker():
                    try:
                        for _ in range(10):
                            got = client.predict("m", image)["logits"]
                            if got != expected:
                                errors.append(got)
                    except Exception as exc:  # noqa: BLE001 - reported
                        errors.append(exc)

                threads = [threading.Thread(target=worker)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert 1 <= spy.accepted <= 8
                assert len(client._idle) == spy.accepted
                assert len(set(map(id, client._idle))) == spy.accepted
        finally:
            sys.setswitchinterval(previous)

    def test_client_reconnects_after_the_server_drops_it(self, fresh,
                                                         image):
        _, httpd, spy = fresh
        with ServingClient(httpd.url) as client:
            client.predict("m", image)
            httpd.end_connections()         # the server drops the idle one
            client.predict("m", image)
        assert spy.accepted == 2

    def test_idle_connections_the_server_dropped_are_not_reused(
            self, fresh, image):
        server, httpd, spy = fresh
        predict = server.predict
        barrier = threading.Barrier(2, timeout=10)

        def paired(*args, **kwargs):
            barrier.wait()              # both connections are open at once
            return predict(*args, **kwargs)

        server.predict = paired
        with ServingClient(httpd.url, retry_resets=0) as client:
            threads = [threading.Thread(target=client.predict,
                                        args=("m", image))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            server.predict = predict
            assert len(client._idle) == 2
            httpd.end_connections()         # the server drops both
            # No retry to spare: the call must skip the dead sockets.
            client.predict("m", image)
            assert len(client._idle) == 1
        assert spy.accepted == 3

    def test_a_reset_retries_on_a_new_connection(self, fresh, image):
        _, httpd, spy = fresh
        pairs = [socket.socketpair() for _ in range(2)]
        try:
            with ServingClient(httpd.url, retry_resets=1) as client:
                client._idle.extend(_ResetConnection(ours)
                                    for ours, _ in pairs)
                client.predict("m", image)
                # The retry opened a connection rather than taking the
                # second dead one, which the reset closed.
                assert spy.accepted == 1
                assert len(client._idle) == 1
                assert pairs[0][0].fileno() == -1
        finally:
            for ours, theirs in pairs:
                ours.close()
                theirs.close()

    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Content-Length: many\r\n",
        b"Content-Length: -1\r\n",
    ])
    def test_unread_bodies_answer_400_and_close(self, fresh, image,
                                                framing):
        _, httpd, _ = fresh
        body = json.dumps({"model": "m",
                           "inputs": encode_tensor(image)}).encode()
        request = (b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                   + framing + b"\r\n" + f"{len(body):x}\r\n".encode()
                   + body + b"\r\n0\r\n\r\n")
        with socket.create_connection(httpd.server_address,
                                      timeout=10) as sock:
            sock.sendall(request)
            response = _read_to_eof(sock)       # the server closes
        head, _, payload = response.partition(b"\r\n\r\n")
        # One answer: the body's bytes were not parsed as a request.
        assert response.count(b"HTTP/1.1 ") == 1
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert json.loads(payload)["error"]["code"] == "bad_request"
