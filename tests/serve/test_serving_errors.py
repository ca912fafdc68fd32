"""Serving error paths: port collisions and backpressure floods."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro import nn
from repro.models import build_model
from repro.serve import (BatchPolicy, InferenceServer, ModelStore,
                         ServingClient, ServingError, start_http_server,
                         stop_http_server)


def make_server(**kwargs) -> InferenceServer:
    nn.manual_seed(5)
    model = build_model("small_cnn", num_classes=4, scale="tiny")
    model.eval()
    store = ModelStore()
    store.register("m", model, version="v1")
    return InferenceServer(store, **kwargs)


class TestAddrInUse:
    def test_taken_port_falls_back_to_ephemeral(self):
        # Occupy a port with a live listener, then ask the serving front
        # end for exactly that port: it must come up anyway, elsewhere.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]
        server = make_server(policy=BatchPolicy(max_batch_size=8,
                                                max_delay_ms=1.0))
        try:
            httpd = start_http_server(server, port=taken_port)
            try:
                bound_port = httpd.server_address[1]
                assert bound_port != taken_port
                assert ServingClient(httpd.url).health()["status"] == "ok"
            finally:
                stop_http_server(httpd)
        finally:
            server.close()
            blocker.close()

    def test_no_retries_surfaces_the_original_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]
        server = make_server()
        try:
            with pytest.raises(OSError):
                start_http_server(server, port=taken_port, retries=0)
        finally:
            server.close()
            blocker.close()


class TestCacheMissFlood:
    def test_429_for_misses_while_hits_keep_flowing(self, rng):
        images = rng.random((12, 3, 12, 12)).astype(np.float32)
        server = make_server(policy=BatchPolicy(max_batch_size=8,
                                                max_delay_ms=0.0,
                                                max_queue=2),
                             response_cache=8)
        httpd = start_http_server(server)
        client = ServingClient(httpd.url, timeout=30.0)
        release = threading.Event()
        try:
            cached = client.predict("m", images[0])     # warm the cache
            assert not cached["cached"]

            real_infer = server.batcher.infer_fn
            running = threading.Event()

            def blocked_infer(key, batch):
                running.set()
                release.wait(timeout=30.0)
                return real_infer(key, batch)

            server.batcher.infer_fn = blocked_infer

            outcomes = []
            lock = threading.Lock()

            def flood(index):
                try:
                    client.predict("m", images[index])
                    status = 200
                except ServingError as exc:
                    status = exc.status
                with lock:
                    outcomes.append(status)

            threads = [threading.Thread(target=flood, args=(i,), daemon=True)
                       for i in range(1, 7)]
            # The first flooder's batch blocks in the forward before the
            # rest start, so the others cannot coalesce into it and must
            # fill the queue behind it.
            threads[0].start()
            assert running.wait(timeout=30.0)
            for thread in threads[1:]:
                thread.start()
            # Wait until the queue is saturated behind the blocked batch.
            for _ in range(200):
                if server.batcher.stats()["queued"] >= 2:
                    break
                threading.Event().wait(0.01)
            assert server.batcher.stats()["queued"] >= 2

            # A fresh miss bounces with 429 while the flood is stuck...
            with pytest.raises(ServingError) as excinfo:
                client.predict("m", images[7])
            assert excinfo.value.status == 429
            # ...but cached traffic is immune: no queue slot, no forward.
            hit = client.predict("m", images[0])
            assert hit["cached"] is True
            assert hit["logits"] == cached["logits"]

            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert 429 in outcomes                  # some flooders bounced
            assert server.batcher.stats()["rejected"] >= 1
        finally:
            release.set()
            stop_http_server(httpd)
            server.close()

