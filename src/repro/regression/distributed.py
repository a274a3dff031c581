"""Leased-worker executor: the parallel path of the regression batch.

:class:`DistributedBatchExecutor` runs a batch's run/compare/triage
jobs on N worker processes that speak the framed-JSON protocol of
:mod:`repro.regression.protocol` over loopback TCP.  Workers are forked
from the coordinator, so they inherit its imports and start in
milliseconds; each one runs :func:`repro.regression.worker.serve`.
``jobs=N`` forks N workers; ``jobs=1`` with a ``run_timeout`` forks one,
because a deadline needs a process to kill.

Ownership of a job is a **lease**: a worker holds at most one job, kept
alive by heartbeats.  When a worker dies, goes silent past
``lease_seconds`` or overruns ``run_timeout``, the coordinator knows
exactly which job it held: that job alone is charged one attempt and
re-queued under the retry/backoff/quarantine policy of
:class:`~repro.regression.resilience.ResilientBatchExecutor`, of which
this class is a subclass — every completion, failure, journal append
and compare/triage hand-off goes through the same bookkeeping as the
serial path.  That is the whole byte-identity argument: this layer only
changes *where* a job runs, never what a completed batch contains.

The coordinator is one thread: a selector watches the listener and
every worker connection, so forking a replacement mid-batch copies no
other thread's half-held lock.  A replacement worker is forked only for
a worker lost while holding a lease.  That loss was charged to a job,
so ``max_retries`` already bounds the respawns.  If no worker ever
joins, or none is left alive while work is pending, one warning line
is printed and the rest of the batch runs in-process.  Never a failure.
"""

from __future__ import annotations

import heapq
import multiprocessing
import selectors
import socket
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from . import worker as worker_module
from .protocol import (
    FrameConnection,
    ProtocolError,
    decode_payload,
    encode_payload,
)
from .resilience import ResilientBatchExecutor, RunFailure, _Task

#: Poll interval (seconds) of the scheduling loop's watchdogs.
_TICK = 0.05

#: Seconds a peer may take to deliver the rest of a frame once its
#: first bytes are readable; past it the connection counts as lost.
_FRAME_TIMEOUT = 10.0

#: Workers are forked: they inherit the coordinator's imports (and any
#: instrumentation installed before the batch started).
_FORK = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class DistributedConfig:
    """Lease knobs for a batch on leased workers."""

    #: A lease whose worker has been silent this long is reclaimed and
    #: its job re-queued (the worker, presumed gone, is killed).
    lease_seconds: float = 15.0
    #: Heartbeat interval workers are asked to use while busy; must be
    #: comfortably below ``lease_seconds``.
    heartbeat_seconds: float = 0.5
    #: How long to wait for the first worker to dial back before
    #: running the batch in-process (also the per-worker join deadline
    #: after which an unconnected worker is reaped).
    spawn_timeout: float = 30.0


class _Lease:
    """One job currently owned by one worker."""

    __slots__ = ("job_id", "task", "started", "last_beat")

    def __init__(self, job_id: int, task: _Task, now: float) -> None:
        self.job_id = job_id
        self.task = task
        self.started = now
        self.last_beat = now


class _Worker:
    """Coordinator-side state of one worker process."""

    __slots__ = ("ident", "proc", "spawned_at", "conn", "pid", "lease",
                 "dead")

    def __init__(self, ident: str, proc, now: float) -> None:
        self.ident = ident
        self.proc = proc
        self.spawned_at = now
        self.conn: Optional[FrameConnection] = None
        self.pid: Optional[int] = None
        self.lease: Optional[_Lease] = None
        self.dead = False

    @property
    def joined(self) -> bool:
        return self.conn is not None and not self.dead


class DistributedBatchExecutor(ResilientBatchExecutor):
    """Run a regression batch on ``jobs`` leased worker processes.

    Everything the base class owns — results, journal, retry budget,
    compare/triage scheduling, the result cache — stays with the
    coordinator; workers are stateless executors.
    """

    def __init__(self, jobs_by_key, *, jobs: int,
                 distributed: Optional[DistributedConfig] = None,
                 **kwargs) -> None:
        super().__init__(jobs_by_key, **kwargs)
        self.jobs = jobs
        self.distributed = distributed or DistributedConfig()
        self._selector = selectors.DefaultSelector()
        self._workers: Dict[str, _Worker] = {}
        self._listener: Optional[socket.socket] = None
        self._token = uuid.uuid4().hex
        self._job_seq = 0
        self._task_seq = 0
        self._port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    def execute(self):
        leftovers: Optional[List[_Task]] = None
        try:
            try:
                joined = self._start_cluster()
            except OSError as exc:
                self.faults.note("cluster.error", error=str(exc))
                joined = 0
            if joined:
                leftovers = self._execute_leased()
        finally:
            self._teardown_cluster()
        if leftovers is None or leftovers:
            self._finish_in_process(leftovers or [])
        return self._outcome()

    def _finish_in_process(self, leftovers: Sequence[_Task]) -> None:
        """No worker is left to lease to: run ``leftovers`` (which keep
        their failure history) and then everything else still due."""
        print("regression: no distributed workers reachable; finishing "
              "the batch in-process", file=sys.stderr)
        self.faults.degraded_local = True
        self.faults.note("cluster.degraded-local", workers=self.jobs,
                         pending=len(leftovers))
        for task in leftovers:
            self._run_task_blocking(task)
        self._execute_serial()

    def _start_cluster(self) -> int:
        """Open the listener, fork the workers, wait for first contact.

        Returns the number of joined workers — zero means nobody dialed
        back (every worker exited, or the timeout passed)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.jobs + 4)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._selector.register(listener, selectors.EVENT_READ)
        for _ in range(self.jobs):
            self._spawn_worker()
        deadline = time.monotonic() + self.distributed.spawn_timeout
        while time.monotonic() < deadline:
            if any(worker.joined for worker in self._workers.values()):
                break
            if all(not worker.proc.is_alive()
                   for worker in self._workers.values()):
                break  # every worker is already dead; fail fast
            self._poll(deque(), [])
        return sum(1 for worker in self._workers.values() if worker.joined)

    def _spawn_worker(self) -> _Worker:
        ident = f"w{len(self._workers)}"
        # ``worker_module.serve`` is looked up per fork, so tests can
        # substitute the entry point.
        proc = _FORK.Process(
            target=worker_module.serve,
            args=("127.0.0.1", self._port, self._token, ident),
            name=f"repro-worker-{ident}", daemon=True)
        proc.start()
        worker = _Worker(ident, proc, time.monotonic())
        self._workers[ident] = worker
        return worker

    def _teardown_cluster(self) -> None:
        for worker in self._workers.values():
            if worker.lease is not None:
                # Interrupted mid-job: the result is no longer wanted.
                worker.proc.kill()
            elif worker.conn is not None:
                try:
                    worker.conn.send({"type": "shutdown"})
                except OSError:
                    pass
        if self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None
        grace = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.proc.join(max(0.0, grace - time.monotonic()))
            if worker.proc.exitcode is None:
                worker.proc.kill()
                worker.proc.join(5)
            if worker.conn is not None:
                self._close(worker.conn)
                worker.conn = None
        for key in list(self._selector.get_map().values()):
            self._close(key.data)  # connected, never said hello
        self._selector.close()

    # -- connections: one selector, read from the scheduling thread ---------

    def _poll(self, ready: Deque[_Task], backoff: list) -> None:
        """Wait up to one tick for socket activity and handle all of it."""
        for key, _ in self._selector.select(_TICK):
            if key.data is None:
                self._accept()
            elif isinstance(key.data, _Worker):
                self._read(key.data, ready, backoff)
            else:
                self._admit(key.data)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.settimeout(_FRAME_TIMEOUT)
        conn = FrameConnection(sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _admit(self, conn: FrameConnection) -> None:
        """Read a new connection's hello: bind it to the worker it names
        (token checked) or drop it."""
        try:
            hello = conn.recv()
        except (ProtocolError, OSError):
            hello = None
        worker = None
        if (hello is not None and hello.get("type") == "hello"
                and hello.get("token") == self._token
                and isinstance(hello.get("worker_id"), str)):
            worker = self._workers.get(hello["worker_id"])
        if worker is None or worker.dead or worker.conn is not None:
            self._close(conn)
            return
        self._selector.modify(conn.sock, selectors.EVENT_READ, worker)
        worker.conn = conn
        worker.pid = hello.get("pid")
        self.faults.note("worker.joined", worker=worker.ident,
                         pid=worker.pid)

    def _read(self, worker: _Worker, ready: Deque[_Task],
              backoff: list) -> None:
        try:
            frame = worker.conn.recv()
            reason = "closed"
        except ProtocolError:
            # Poisoned connection (e.g. a corrupt result frame): drop
            # the worker rather than guess at the bytes.
            frame, reason = None, "protocol-error"
        except OSError:
            frame, reason = None, "closed"
        now = time.monotonic()
        if frame is None:
            lease = worker.lease
            self._lose(worker, reason)
            if lease is not None:
                self._fail(lease.task, self._worker_lost_failure(
                    lease.task, "WorkerLost",
                    f"worker {worker.ident} was lost ({reason}) while "
                    "executing this job"), backoff, now)
        elif frame["type"] == "heartbeat":
            lease = worker.lease
            if lease is not None and lease.job_id == frame.get("job_id"):
                lease.last_beat = now
        elif frame["type"] == "result":
            self._on_result(worker, frame, ready, backoff, now)

    def _close(self, conn: FrameConnection) -> None:
        self._selector.unregister(conn.sock)
        conn.close()

    # -- the scheduling loop ------------------------------------------------

    def _execute_leased(self) -> List[_Task]:
        """Lease jobs to workers until the batch is done.  Returns the
        tasks still pending when no worker is left alive (empty when the
        batch completed)."""
        ready: Deque[_Task] = deque()
        for key, job in self.jobs_by_key.items():
            if key not in self.results:
                ready.append(_Task("run", key, job))
        for entry_key in self._entry_order:
            # Resumed entries may already carry runs or an alignment.
            for maker in (self._compare_task, self._triage_task):
                task = maker(entry_key)
                if task is not None:
                    ready.append(task)
        backoff: List[Tuple[float, int, _Task]] = []
        while True:
            now = time.monotonic()
            self._reap_unjoined(now)
            self._enforce_leases(ready, backoff, now)
            while backoff and backoff[0][0] <= now:
                ready.append(heapq.heappop(backoff)[2])
            alive = [worker for worker in self._workers.values()
                     if not worker.dead]
            if (not ready and not backoff
                    and not any(worker.lease for worker in alive)):
                return []
            if not alive:
                return list(ready) + [task for _, _, task in sorted(backoff)]
            self._dispatch(ready, now)
            self._poll(ready, backoff)

    def _dispatch(self, ready: Deque[_Task], now: float) -> None:
        idle = [worker for worker in self._workers.values()
                if worker.joined and worker.lease is None]
        while ready and idle:
            task = ready.popleft()
            if self._satisfy_from_cache(task, ready):
                continue
            worker = idle.pop()
            job = self._job_for_attempt(task)
            self._job_seq += 1
            worker.lease = _Lease(self._job_seq, task, now)
            try:
                worker.conn.send({
                    "type": "job", "job_id": worker.lease.job_id,
                    "kind": task.kind, "job": encode_payload(job),
                    "heartbeat": self.distributed.heartbeat_seconds,
                })
            except OSError:
                # Never reached the worker: free requeue, no attempt
                # charged.
                worker.lease = None
                ready.appendleft(task)
                self._mark_dead(worker, "send-failed")

    def _fail(self, task: _Task, failure: RunFailure, backoff: list,
              now: float) -> None:
        """Charge ``task`` one failed attempt; schedule its retry."""
        delay = self._register_failure(task, failure)
        if delay is not None:
            self._task_seq += 1
            heapq.heappush(backoff, (now + delay, self._task_seq, task))

    # -- structured failures for jobs a worker never finished ---------------

    def _failure(self, task: _Task, kind: str, exc_type: str,
                 message: str) -> RunFailure:
        names = task.names
        return RunFailure(
            config_name=str(names["config"]), test_name=str(names["test"]),
            seed=int(names["seed"]), view=str(names["view"]),
            stage=task.kind, kind=kind, exc_type=exc_type,
            message=message, attempt=task.job.attempt,
        )

    def _worker_lost_failure(self, task: _Task, exc_type: str,
                             message: str) -> RunFailure:
        return self._failure(task, "ERROR", exc_type, message)

    def _timeout_failure(self, task: _Task) -> RunFailure:
        return self._failure(
            task, "TIMEOUT", "WatchdogTimeout",
            f"exceeded the run deadline of {self.config.run_timeout}s "
            "and was killed")

    # -- worker events ------------------------------------------------------

    def _on_result(self, worker: _Worker, frame: dict,
                   ready: Deque[_Task], backoff: list, now: float) -> None:
        lease = worker.lease
        if lease is None or lease.job_id != frame.get("job_id"):
            # A result for a reclaimed lease (the net-delay case): the
            # job was already re-queued elsewhere, so a late result must
            # be discarded or the batch double-completes.
            self.faults.note("result.stale", worker=worker.ident,
                             job_id=frame.get("job_id"))
            return
        worker.lease = None
        # The worker idles until its next lease: hand that out before
        # the bookkeeping below.
        self._dispatch(ready, now)
        task = lease.task
        try:
            status, payload = decode_payload(frame["outcome"])
        except Exception as exc:
            self._fail(task, self._worker_lost_failure(
                task, "UndecodableResult",
                f"worker {worker.ident} returned an undecodable result "
                f"payload: {exc}"), backoff, now)
            return
        if status != "ok":
            self._fail(task, payload, backoff, now)
            return
        self._complete(task, payload)
        if task.kind == "run":
            follow_up = self._compare_task(task.key[:3])
        elif task.kind == "compare":
            follow_up = self._triage_task(task.key)
        else:
            follow_up = None
        if follow_up is not None:
            ready.append(follow_up)

    def _lose(self, worker: _Worker, reason: str) -> None:
        """Drop ``worker``; if it held a lease, fork its replacement (the
        caller charges the job, so retries bound the respawns)."""
        held_lease = worker.lease is not None
        worker.lease = None
        self._mark_dead(worker, reason)
        if held_lease:
            replacement = self._spawn_worker()
            self.faults.worker_respawns += 1
            self.faults.note("worker.respawned", worker=replacement.ident,
                             replaces=worker.ident)

    def _mark_dead(self, worker: _Worker, reason: str) -> None:
        if worker.dead:
            return
        worker.dead = True
        if worker.conn is not None:
            self._close(worker.conn)
            worker.conn = None
        if worker.proc.exitcode is None:
            worker.proc.kill()
        self.faults.worker_deaths += 1
        self.faults.note("worker.lost", worker=worker.ident, reason=reason)

    # -- watchdogs ----------------------------------------------------------

    def _reap_unjoined(self, now: float) -> None:
        for worker in self._workers.values():
            if worker.dead or worker.conn is not None:
                continue
            if worker.proc.exitcode is not None:
                self._mark_dead(worker, "exited-before-join")
            elif now - worker.spawned_at > self.distributed.spawn_timeout:
                self._mark_dead(worker, "never-joined")

    def _enforce_leases(self, ready: Deque[_Task], backoff: list,
                        now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.dead or worker.lease is None:
                continue
            task = worker.lease.task
            timeout = self.config.run_timeout
            silent = now - worker.lease.last_beat
            if timeout is not None and now - worker.lease.started > timeout:
                self._lose(worker, "run-timeout")
                self._fail(task, self._timeout_failure(task), backoff, now)
            elif silent > self.distributed.lease_seconds:
                self.faults.lease_reclaims += 1
                self.faults.note("lease.reclaimed", worker=worker.ident,
                                 silent_seconds=round(silent, 3),
                                 **task.names)
                self._lose(worker, "lease-expired")
                self._fail(task, self._worker_lost_failure(
                    task, "LeaseExpired",
                    f"worker {worker.ident} stopped heartbeating "
                    f"({silent:.1f}s silent); lease reclaimed"),
                    backoff, now)
