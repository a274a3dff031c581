"""Worker process of the leased-worker regression executor.

Forked by the coordinator
(:class:`~repro.regression.distributed.DistributedBatchExecutor`),
which runs :func:`serve` in the child.  The worker connects back over
loopback, authenticates with the one-batch token, and then loops:
receive a job frame, execute it through the *same* guarded wrappers the
serial path uses (:data:`~repro.regression.resilience.GUARDS` — so crash
isolation, chaos hooks and structured failures behave identically),
stream heartbeats while busy, and send the outcome back as a result
frame.  Artifacts (VCDs, reports) are written directly to the batch
workdir, which the coordinator shares.

A worker is deliberately stateless: it owns no queue, no journal and no
cache.  Everything durable lives with the coordinator, so killing a
worker at any instant loses at most the single job it was leasing.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time

from . import chaos
from .protocol import FrameConnection, ProtocolError, decode_payload, \
    encode_payload, frame_bytes
from .resilience import GUARDS


def _heartbeat_loop(conn: FrameConnection, busy: dict) -> None:
    """Every ``busy["interval"]`` seconds, heartbeat the job in hand
    (``busy["job_id"]``, ``None`` while idle).

    One thread serves every job of the worker: starting and joining a
    thread per job would put two thread handoffs on each job's path.  A
    send failure means the coordinator is gone, which the main loop
    discovers on its own."""
    while True:
        time.sleep(busy["interval"])
        job_id = busy["job_id"]
        if job_id is not None:
            try:
                conn.send({"type": "heartbeat", "job_id": job_id})
            except OSError:
                return


def _corrupt(body: bytes) -> bytes:
    """Flip one byte in the middle of a frame body (chaos
    ``net-corrupt-frame``)."""
    if not body:
        return body
    position = len(body) // 2
    return (body[:position] + bytes([body[position] ^ 0xFF])
            + body[position + 1:])


def serve(host: str, port: int, token: str, worker_id: str) -> int:
    """Connect to the coordinator and execute jobs until shutdown."""
    # Interrupts belong to the coordinator: Ctrl-C reaches the whole
    # process group, and the coordinator's teardown stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        print(f"worker {worker_id}: cannot reach coordinator "
              f"{host}:{port}: {exc}", file=sys.stderr)
        return 2
    sock.settimeout(None)
    conn = FrameConnection(sock)
    busy = {"job_id": None, "interval": 1.0}
    beat = None
    try:
        conn.send({"type": "hello", "token": token, "pid": os.getpid(),
                   "worker_id": worker_id})
        while True:
            try:
                frame = conn.recv()
            except ProtocolError:
                return 2
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") != "job":
                continue
            job_id = frame["job_id"]
            kind = frame["kind"]
            job = decode_payload(frame["job"])
            busy["interval"] = float(frame.get("heartbeat", 1.0))
            busy["job_id"] = job_id
            if beat is None:
                beat = threading.Thread(target=_heartbeat_loop,
                                        args=(conn, busy), daemon=True)
                beat.start()
            try:
                outcome = GUARDS[kind](job)
            finally:
                busy["job_id"] = None
            rule = chaos.net_rule_for(job) if kind == "run" else None
            body = frame_bytes({
                "type": "result", "job_id": job_id,
                "outcome": encode_payload(outcome),
            })
            if rule is not None and rule.mode == "net-drop":
                # Partition: the work happened, the result never
                # arrives; the coordinator re-leases after expiry.
                return 0
            if rule is not None and rule.mode == "net-delay":
                time.sleep(chaos.NET_DELAY_SECONDS)
            if rule is not None and rule.mode == "net-corrupt-frame":
                body = _corrupt(body)
            try:
                conn.send_raw(body)
            except OSError:
                # Coordinator already reclaimed our lease (or died);
                # nothing useful left to do with the result.
                return 0
            if rule is not None and rule.mode == "net-corrupt-frame":
                # The coordinator will drop this connection as
                # poisoned; exit cleanly rather than spin on it.
                return 0
    finally:
        conn.close()
