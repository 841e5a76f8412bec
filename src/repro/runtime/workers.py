"""Start, watch, signal and reap worker processes: the one fork.

The serving fleet (``serve.supervisor``) and the search's lease queue
(``search.queue``) both run their work on forked workers, and each
decides what to do about them in its own ``decide(event, now)`` core.
The mechanism under the two cores is the same, so it lives here, once:

* :meth:`Workers.spawn` forks one worker and gives it one end of a
  ``socketpair`` — its only link to the parent, carrying length-framed
  pickled messages both ways.  The child restores the default signal
  dispositions, closes every socket this shell holds for the parent or
  for another worker, runs ``body(conn)`` and ends in ``os._exit``.  So
  a worker reads EOF as soon as its parent is gone, however the parent
  died, and the parent reads EOF as soon as the worker is.
* :meth:`Workers.wait` turns socket traffic into ``("message", wid,
  msg)`` events and EOF into ``("exited", wid, code)``, reaping the
  worker by its pid — never ``waitpid(-1)``, which would steal the exit
  status of a child someone else started.
* :meth:`Workers.send`, :meth:`Workers.signal` and :meth:`Workers.stop`
  (SIGTERM, a grace, SIGKILL, reap).

Nothing here knows whether it serves or searches: what a message
means, when to signal and what a death costs belong to the caller's
core, and child setup beyond the above to the caller's ``body``.
Only the shell's own sockets are closed in the child, through their
Python objects: closing descriptors the child's interpreter still holds
objects for would let a late finalizer close a reused descriptor.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal as signals
import socket
import struct
import sys
import threading
import time
from typing import Any, Callable

_HEADER = struct.Struct("!I")
#: Exit status of a worker whose body raised.
_BODY_RAISED = 70
#: How long a worker whose socket read EOF may take to become reapable
#: before it is SIGKILLed, so the status reported is its own.
_EXIT_GRACE_S = 1.0


def supported() -> bool:
    """Can this host fork workers (POSIX ``fork``)?"""
    return os.name == "posix" and hasattr(os, "fork")


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass


class Conn:
    """One end of a worker's socket: whole messages, sent from any
    thread.  Each frame goes out in one ``sendall``, so a reader that
    sees its first byte can read it whole."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()

    @staticmethod
    def frame(message: Any) -> bytes:
        """One message as it crosses the socket."""
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        return _HEADER.pack(len(data)) + data

    def send(self, message: Any) -> None:
        """Send one message; ``OSError`` once the other end is gone."""
        data = self.frame(message)
        with self._send_lock:
            self.sock.sendall(data)

    def recv(self) -> Any:
        """The next message; ``EOFError`` once the other end is gone."""
        size, = _HEADER.unpack(self._read(_HEADER.size))
        return pickle.loads(self._read(size))

    def _read(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            chunk = self.sock.recv(size - len(data))
            if not chunk:
                raise EOFError
            data += chunk
        return data


class Workers:
    """The live workers of one parent, by caller-chosen id (``wid``).

    Holds no descriptor until the first :meth:`spawn` or :meth:`wait`;
    :meth:`stop` without a ``wid`` releases everything.
    """

    def __init__(self) -> None:
        self._workers: dict[int, tuple[int, Conn]] = {}  # wid: pid, conn
        self._wid_by_fd: dict[int, int] = {}
        self._poll = select.poll()
        self._wake: tuple[socket.socket, socket.socket] | None = None

    def __len__(self) -> int:
        return len(self._workers)

    def pid(self, wid: int) -> int | None:
        return self._workers[wid][0] if wid in self._workers else None

    def spawn(self, wid: int, body: Callable[[Conn], int | None],
              ) -> str | None:
        """Fork worker ``wid`` to run ``body(conn)``, whose return value
        is its exit status.  None, or why the OS refused (then nothing
        was forked and nothing is left open)."""
        _flush_std_streams()  # or the child repeats buffered output
        try:
            ours, theirs = socket.socketpair()
        except OSError as exc:
            return exc.strerror or str(exc)
        try:
            pid = os.fork()
        except OSError as exc:
            ours.close()
            theirs.close()
            return exc.strerror or str(exc)
        if pid == 0:  # the worker
            code = _BODY_RAISED
            try:
                for signum in (signals.SIGTERM, signals.SIGINT,
                               signals.SIGHUP):
                    signals.signal(signum, signals.SIG_DFL)
                for held in (ours, *(self._wake or ()), *(
                        conn.sock for _, conn in self._workers.values())):
                    held.close()
                code = body(Conn(theirs)) or 0
            except BaseException:  # noqa: BLE001 - report, then die
                import traceback

                traceback.print_exc()
            finally:
                _flush_std_streams()
                os._exit(code)
        theirs.close()
        self._workers[wid] = (pid, Conn(ours))
        self._wid_by_fd[ours.fileno()] = wid
        self._poll.register(ours, select.POLLIN)
        return None

    def send(self, wid: int, message: Any) -> None:
        """Send one message to ``wid``; if it is gone, its exit arrives
        from :meth:`wait` instead."""
        with contextlib.suppress(OSError):
            self._workers[wid][1].send(message)

    def signal(self, wid: int, signum: int) -> None:
        """Signal ``wid``: unreaped, its pid cannot have been reused."""
        if wid in self._workers:
            os.kill(self._workers[wid][0], signum)

    def wake(self) -> None:
        """Make a blocked :meth:`wait` return now (signal-handler safe)."""
        if self._wake is not None:
            with contextlib.suppress(OSError):  # full: a wake is pending
                self._wake[1].send(b"w")

    def wait(self, timeout: float) -> list[tuple]:
        """Block up to ``timeout`` seconds, or until :meth:`wake`, for
        worker traffic; what arrived, as ``("message", wid, msg)`` and
        ``("exited", wid, code)`` events (code < 0: the signal)."""
        if self._wake is None:
            self._wake = socket.socketpair()
            self._wake[1].setblocking(False)
            self._poll.register(self._wake[0], select.POLLIN)
        events: list[tuple] = []
        for fd, _ in self._poll.poll(max(0.0, timeout) * 1000):
            wid = self._wid_by_fd.get(fd)
            if wid is None:
                self._wake[0].recv(4096)
                continue
            try:
                message = self._workers[wid][1].recv()
                events.append(("message", wid, message))
            except (EOFError, OSError):
                events.append(("exited", wid, self._reap(
                    wid, time.monotonic() + _EXIT_GRACE_S)))
        return events

    def stop(self, grace: float, wid: int | None = None) -> dict[int, int]:
        """SIGTERM worker ``wid`` (default: every worker), give it
        ``grace`` seconds to exit, SIGKILL it if it has not, and reap
        it; exit codes by wid.  Without ``wid`` the shell is released."""
        wids = list(self._workers) if wid is None else [wid]
        for each in wids:
            self.signal(each, signals.SIGTERM)
        deadline = time.monotonic() + grace
        codes = {each: self._reap(each, deadline) for each in wids}
        if wid is None and self._wake is not None:
            self._poll.unregister(self._wake[0])
            for sock in self._wake:
                sock.close()
            self._wake = None
        return codes

    def _reap(self, wid: int, deadline: float) -> int:
        """Forget ``wid`` and collect its exit code, SIGKILLing it once
        ``deadline`` has passed."""
        pid, conn = self._workers.pop(wid)
        del self._wid_by_fd[conn.sock.fileno()]
        self._poll.unregister(conn.sock)
        conn.sock.close()
        flags = os.WNOHANG
        while True:
            reaped, status = os.waitpid(pid, flags)
            if reaped:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() < deadline:
                time.sleep(0.005)
            else:
                os.kill(pid, signals.SIGKILL)
                flags = 0
