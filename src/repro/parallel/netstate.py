"""Network state transport: ``StateChannel`` slot descriptors over TCP.

The shared-memory :class:`~repro.parallel.shm.StateChannel` ships whole
state dicts between processes on one machine; the distributed serving
tier needs the same payloads to cross a real network seam.  This module
keeps the *descriptor* shape identical — a payload is still packed with
the 64-byte-aligned layout of :func:`~repro.parallel.shm._pack_state`
and described by the same picklable :class:`~repro.parallel.shm.
StateSlot` — and swaps the segment for a length-prefixed socket stream:

- every control message is one *frame* (8-byte big-endian length +
  pickled dict);
- a message carrying a ``slot`` is followed by the raw packed payload
  bytes (not framed — the slot's ``nbytes`` already bounds them);
- the receiver answers the header frame with ``{"have": n}`` — the
  number of payload bytes it retained from an earlier broken attempt —
  so a transfer that died mid-stream **resumes** instead of restarting;
- after the last byte the receiver unpacks and **re-verifies the
  content fingerprint** exactly like the shm reader: a mismatch
  (:class:`~repro.parallel.shm.StateVerifyError` — torn stream,
  injected corruption) discards the buffer and answers ``ok: False``,
  and the sender re-ships.

Senders retry both failure classes with bounded attempts —
transport-level corruption is fixed by re-shipping the same bytes, a
broken connection by resuming from the receiver's high-water mark — so
one :func:`ship_state` call either lands a verified payload or raises
:class:`NetstateError`.

The fault site ``"netstate.send"`` mirrors ``"state.write"`` for the
shm lane: ``corrupt_fingerprint`` advertises a wrong content hash (the
receiver's verify must catch it), ``send_error`` drops the connection
mid-payload (the next attempt must resume, not restart).
"""

from __future__ import annotations

import pickle
import socket
import socketserver
import struct
import threading
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs import profile as _profile
from ..obs.backoff import backoff_delay
from ..obs.metrics import Registry
from ..reliability import faults as _faults
from .shm import (StateSlot, StateVerifyError, _pack_state, _unpack_state,
                  packed_nbytes)

_LEN = struct.Struct(">Q")

#: Refuse control frames beyond this size (headers are factory specs +
#: slot descriptors, a few KiB; anything larger is a protocol error).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Payload streaming chunk size.
_CHUNK = 1 << 20


class NetstateError(RuntimeError):
    """A network state transfer failed after exhausting its retries."""


# -- framing -----------------------------------------------------------

def _recv_exact(sock: socket.socket, nbytes: int,
                sink: Optional[bytearray] = None) -> Optional[bytes]:
    """Read exactly ``nbytes`` (into ``sink`` when given).

    Returns ``None`` on a clean EOF *before the first byte* — the peer
    simply closed the connection between messages.  EOF mid-read raises
    ``ConnectionError`` (a torn frame or payload).
    """
    out = sink if sink is not None else bytearray()
    got = 0
    while got < nbytes:
        chunk = sock.recv(min(nbytes - got, _CHUNK))
        if not chunk:
            if got == 0 and sink is None:
                return None
            raise ConnectionError(
                f"peer closed mid-read ({got}/{nbytes} bytes)")
        out += chunk
        got += len(chunk)
    return bytes(out) if sink is None else b""


def _send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_frame(sock: socket.socket) -> Optional[bytes]:
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the "
                              f"{MAX_FRAME_BYTES}-byte control-frame cap")
    body = _recv_exact(sock, length)
    if body is None and length > 0:
        raise ConnectionError("peer closed mid-frame")
    return body if body is not None else b""


def _recv_reply(sock: socket.socket) -> dict:
    frame = _recv_frame(sock)
    if frame is None:
        raise ConnectionError("peer closed before replying")
    reply = pickle.loads(frame)
    if not isinstance(reply, dict):
        raise ConnectionError(f"malformed reply of type {type(reply).__name__}")
    return reply


# -- receiver ----------------------------------------------------------

class _StreamTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class StateStreamServer:
    """Threaded TCP listener receiving control messages and state ships.

    ``handler(message, state)`` is called once per verified message —
    ``state`` is the unpacked dict for payload-bearing messages, else
    ``None`` — and its return dict (or ``None``) is merged into the
    ``{"ok": True}`` reply.  A handler exception answers ``ok: False``
    with the exception type/detail instead of killing the connection.

    Partially-received payloads survive their connection: they are
    keyed by the slot's transfer name, and the next attempt for the
    same transfer resumes from the retained prefix.
    """

    def __init__(self, handler: Callable[[dict, Optional[dict]],
                                         Optional[dict]],
                 host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self._partial: Dict[str, bytearray] = {}
        self._lock = threading.Lock()
        self.registry = Registry()
        self._messages = self.registry.counter("messages")
        self._state_receives = self.registry.counter("state_receives")
        self._resumed_bytes = self.registry.counter("resumed_bytes")
        self._verify_failures = self.registry.counter("verify_failures")
        outer = self

        class _Connection(socketserver.BaseRequestHandler):
            def handle(self):
                outer._serve_connection(self.request)

        self._server = _StreamTCPServer((host, port), _Connection)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-netstate", daemon=True)
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def stats(self) -> Dict[str, int]:
        """Receiver counters (registry-backed; read-only snapshot)."""
        return {"messages": self._messages.value,
                "state_receives": self._state_receives.value,
                "resumed_bytes": self._resumed_bytes.value,
                "verify_failures": self._verify_failures.value}

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10.0)

    # -- per-connection loop -------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(sock)
                if frame is None:
                    return                  # clean close between messages
                reply = self._handle_message(sock, pickle.loads(frame))
                _send_frame(sock, pickle.dumps(reply))
        except (ConnectionError, OSError, EOFError, pickle.PickleError):
            # The peer vanished (or sent garbage); partial payload
            # buffers stay behind so the re-ship resumes.
            return

    def _handle_message(self, sock: socket.socket, message: dict) -> dict:
        self._messages.inc()
        slot: Optional[StateSlot] = message.pop("slot", None)
        state: Optional[dict] = None
        if slot is not None:
            state = self._receive_payload(sock, slot)
            if state is None:
                return {"ok": False, "error": "verify",
                        "detail": f"payload for {slot.name!r} failed its "
                                  f"fingerprint re-verify; buffer discarded"}
        try:
            extra = self.handler(message, state) or {}
        except Exception as exc:  # noqa: BLE001 - surfaced to the sender
            # A handler rejection (registration drift, unknown model) is
            # deterministic — re-shipping the same bytes cannot fix it.
            return {"ok": False, "error": type(exc).__name__,
                    "detail": str(exc), "retryable": False}
        # Piggyback the receiver's metric snapshot on every ok reply so
        # the sender (the cluster router) observes remote-host counters
        # without a separate scrape round-trip.
        return {"ok": True, "obs": self.registry.snapshot(), **extra}

    def _receive_payload(self, sock: socket.socket,
                         slot: StateSlot) -> Optional[dict]:
        with self._lock:
            buf = self._partial.setdefault(slot.name, bytearray())
            have = len(buf)
        if have:
            self._resumed_bytes.inc(have)
        _send_frame(sock, pickle.dumps({"have": have}))
        _recv_exact(sock, slot.nbytes - have, sink=buf)
        with self._lock:
            self._partial.pop(slot.name, None)
        self._state_receives.inc()
        try:
            return _unpack_state(buf, slot, verify=True)
        except StateVerifyError:
            self._verify_failures.inc()
            return None


# -- sender ------------------------------------------------------------

def request(address: Tuple[str, int], message: dict,
            timeout: float = 30.0) -> dict:
    """One control round-trip (no state payload); raises on transport
    failure, returns the receiver's reply dict (check ``reply["ok"]``)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        _send_frame(sock, pickle.dumps(message))
        return _recv_reply(sock)


def ship_state(address: Tuple[str, int], message: dict,
               state: Dict[str, np.ndarray], *,
               transfer_id: str, attempts: int = 4, timeout: float = 60.0,
               backoff_s: float = 0.05) -> dict:
    """Ship one state dict to ``address``, resumably and verified.

    The state is packed once into the shm-lane byte layout and
    described by a :class:`StateSlot` named ``transfer_id`` — the key
    the receiver resumes broken transfers under, so it must be unique
    per logical shipment.  Each attempt streams only the bytes the
    receiver does not already hold.  Returns the receiver's reply
    merged with ``attempts`` (total tries) and ``resumed_from`` (the
    receiver's high-water mark on the final try); raises
    :class:`NetstateError` when every attempt failed.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    payload = bytearray(packed_nbytes(state))
    slot = _pack_state(payload, state, transfer_id)
    last: object = None
    for attempt in range(attempts):
        fault = None
        if _faults.ACTIVE is not None:
            fault = _faults.ACTIVE.check("netstate.send")
        advertised = slot
        if fault is not None and fault.kind == "corrupt_fingerprint":
            advertised = StateSlot(name=slot.name, entries=slot.entries,
                                   nbytes=slot.nbytes, fingerprint="0" * 40)
        _prof = _profile.ACTIVE
        prof_token = _prof.start("netstate.ship") if _prof is not None else None
        try:
            with socket.create_connection(address, timeout=timeout) as sock:
                _send_frame(sock, pickle.dumps({**message,
                                                "slot": advertised}))
                have = int(_recv_reply(sock)["have"])
                body = memoryview(payload)[have:]
                if fault is not None and fault.kind == "send_error":
                    sock.sendall(body[:len(body) // 2])
                    raise BrokenPipeError(
                        "injected netstate.send fault: connection dropped "
                        "mid-payload")
                sock.sendall(body)
                reply = _recv_reply(sock)
            if reply.get("ok"):
                return {**reply, "attempts": attempt + 1,
                        "resumed_from": have}
            if not reply.get("retryable", True):
                raise NetstateError(
                    f"state ship {transfer_id!r} to {address} rejected by "
                    f"the receiver: {reply.get('error')}: "
                    f"{reply.get('detail')}")
            # Verify failure: the bytes tore in transit, re-ship in full.
            last = reply
        except (ConnectionError, OSError, EOFError) as exc:
            last = exc
        finally:
            if _prof is not None:
                _prof.stop(prof_token)
        if attempt + 1 < attempts:
            time.sleep(backoff_delay(attempt + 1, base_delay_s=backoff_s,
                                     max_delay_s=1.0, token=transfer_id))
    raise NetstateError(f"state ship {transfer_id!r} to {address} failed "
                        f"after {attempts} attempts: {last}")
