"""Supervised worker processes: the one place this package forks.

GPOS keeps every OS-level service in one layer (paper §3, §4.2); this
module is that layer for child processes.  The fleet's optimizer workers
(:mod:`repro.fleet`) and the morsel pool's stage workers
(:mod:`repro.engine.parallel`) are both a :class:`Supervised` child plus
a handler run by :func:`serve` — neither forks, pipes, detects death or
drains on its own.

The protocol is one request, one reply, on one duplex pipe.  Every
message crosses as ``(id, payload)`` and every reply echoes the id of
the request it answers; :meth:`Supervised.reply` drops any reply whose
id is not the one asked for.  A reply nobody read — a gather interrupted
half-way, a wedge the child woke up from — is therefore discarded by the
next caller instead of being handed to it one reply late.

A child that does not answer raises :class:`NoReply`: ``"died"`` when
the pipe is broken (EOF), ``"wedged"`` when it stays silent past the
timeout.  What to do about either is the caller's decision.
:meth:`Supervised.stop` escalates: farewell, join, terminate, kill.
Children are daemons, so none outlives the process that made it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Optional

from repro.errors import ReproError

#: ``fork`` where the platform has it, else ``spawn``.
CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class NoReply(Exception):
    """A supervised child did not answer: ``reason`` is ``"died"`` (the
    pipe broke) or ``"wedged"`` (silence past the timeout)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Last:
    """A handler's reply after which :func:`serve` stops serving."""

    __slots__ = ("reply",)

    def __init__(self, reply: Any):
        self.reply = reply


def error_reply(exc: BaseException) -> dict:
    """The one error-reply format: a typed :class:`ReproError` keeps its
    code, anything else is a ``WORKER`` error."""
    return {
        "ok": False,
        "error_class": type(exc).__name__,
        "code": exc.code if isinstance(exc, ReproError) else "WORKER",
        "message": str(exc),
    }


def serve(conn, handle: Callable[[Any], Any]) -> None:
    """Child side: answer requests until EOF or a :class:`Last` reply.

    Any exception from ``handle``, and any reply that cannot be pickled,
    is sent back as :func:`error_reply` — the child keeps serving.
    """
    while True:
        try:
            req_id, msg = conn.recv()
        except (EOFError, OSError):
            break  # the parent went away
        try:
            reply = handle(msg)
        except Exception as exc:  # noqa: BLE001 - becomes the reply
            reply = error_reply(exc)
        last = isinstance(reply, Last)
        if last:
            reply = reply.reply
        try:
            payload = ForkingPickler.dumps((req_id, reply))
        except Exception as exc:  # noqa: BLE001 - unpicklable reply
            payload = ForkingPickler.dumps((req_id, {
                **error_reply(exc),
                "message": f"reply serialization failed: {exc}",
            }))
        try:
            conn.send_bytes(payload)
        except OSError:
            break
        if last:
            break
    conn.close()


class Supervised:
    """Parent-side handle on one forked child and its duplex pipe.

    ``target(conn, *args)`` runs in the child (normally a setup that
    ends in :func:`serve`).  Request ids come from ``ids`` (default: a
    counter of this handle's own).  Not thread-safe: one caller at a
    time owns the pipe.
    """

    def __init__(
        self,
        target: Callable,
        *,
        name: str,
        ids: Optional[Callable[[], int]] = None,
    ):
        self.target = target
        self.name = name
        self._ids = ids or itertools.count(1).__next__
        self.process = None
        self.conn = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self, *args) -> None:
        parent_conn, child_conn = CONTEXT.Pipe()
        self.process = CONTEXT.Process(
            target=self.target,
            args=(child_conn, *args),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def request(self, msg: Any) -> int:
        """Send ``msg``; returns the id its reply will carry."""
        req_id = self._ids()
        try:
            self.conn.send((req_id, msg))
        except OSError:
            raise NoReply("died") from None
        return req_id

    def reply(self, req_id: int, timeout: Optional[float] = None) -> Any:
        """The reply to request ``req_id``; replies to other ids are
        dropped.  ``timeout=None`` waits for as long as the child lives."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while deadline is None or self.conn.poll(
                max(deadline - time.monotonic(), 0.0)
            ):
                got_id, reply = self.conn.recv()
                if got_id == req_id:
                    return reply
        except (EOFError, OSError):
            raise NoReply("died") from None
        raise NoReply("wedged")

    def exchange(self, msg: Any, timeout: Optional[float] = None) -> Any:
        return self.reply(self.request(msg), timeout)

    def stop(self, farewell: Any = None, timeout: float = 2.0):
        """Drain the child: send ``farewell`` (if any), join for up to
        ``timeout`` seconds, then terminate, then kill; close the pipe.
        Idempotent; returns the child's exit code."""
        process = self.process
        if process is None:
            return None
        if farewell is not None and process.is_alive():
            try:
                self.request(farewell)
            except NoReply:
                pass
        process.join(timeout)
        for escalate in (process.terminate, process.kill):
            if not process.is_alive():
                break
            escalate()
            process.join(10.0)
        self.conn.close()
        return process.exitcode

    def restart(self, *args) -> None:
        """Stop at once (no farewell, no grace) and start again."""
        self.stop(timeout=0.0)
        self.start(*args)
