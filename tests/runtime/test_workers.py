"""The worker shell with real forks: exits, signals, stop, reaping.

``repro.runtime.workers`` is the one place that forks, watches, signals
and reaps a worker process, for the serving fleet and for the search
queue alike.  Each test here forks for real and finishes in well under
two seconds; the decision cores above the shell are proved without any
process in ``test_supervisor_schedule.py`` and ``test_queue_schedule.py``.
"""

from __future__ import annotations

import errno
import faulthandler
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.workers import Workers, supported

pytestmark = pytest.mark.skipif(not supported(),
                                reason="the worker shell needs POSIX fork")


@pytest.fixture
def shell():
    workers = Workers()
    yield workers
    workers.stop(0.0)


def _events(shell: Workers, want: int, timeout: float = 5.0) -> list:
    events: list = []
    deadline = time.monotonic() + timeout
    while len(events) < want and time.monotonic() < deadline:
        events += shell.wait(deadline - time.monotonic())
    return events


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def test_messages_cross_both_ways_whole(shell):
    """A frame larger than one socket read still arrives as one message."""
    def echo(conn):
        conn.send(("ready",))
        message = conn.recv()
        conn.send(("echo", message))
        return 3

    assert shell.spawn(0, echo) is None
    assert _events(shell, 1) == [("message", 0, ("ready",))]
    big = {"blob": b"x" * (1 << 20)}
    shell.send(0, big)
    assert _events(shell, 2) == [("message", 0, ("echo", big)),
                                 ("exited", 0, 3)]
    assert len(shell) == 0


def test_a_segfaulting_child_is_reported_as_minus_sigsegv(shell):
    def crash(conn):
        faulthandler.disable()  # no inherited traceback dump
        os.kill(os.getpid(), signal.SIGSEGV)

    assert shell.spawn(4, crash) is None
    assert _events(shell, 1) == [("exited", 4, -signal.SIGSEGV)]


def test_a_child_ignoring_sigterm_is_killed_when_the_grace_runs_out(shell):
    def stubborn(conn):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        conn.send("ignoring SIGTERM")
        time.sleep(60)

    assert shell.spawn(0, stubborn) is None
    assert _events(shell, 1) == [("message", 0, "ignoring SIGTERM")]
    pid = shell.pid(0)
    started = time.monotonic()
    assert shell.stop(0.3) == {0: -signal.SIGKILL}
    assert 0.3 <= time.monotonic() - started < 1.5
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # reaped: no zombie is left


def test_reaping_is_by_pid_so_other_children_keep_their_status(shell):
    """A child the shell did not start keeps its own exit status."""
    other = subprocess.Popen([sys.executable, "-c", "raise SystemExit(7)"])
    for wid in range(2):
        assert shell.spawn(wid, lambda conn: 0) is None
    time.sleep(0.2)  # ``other`` has exited too, and waits to be reaped
    assert sorted(_events(shell, 2)) == [("exited", 0, 0), ("exited", 1, 0)]
    assert other.wait(5.0) == 7


def _sockets() -> set[str]:
    links = (os.readlink(f"/proc/self/fd/{fd}")
             for fd in os.listdir("/proc/self/fd")
             if os.path.exists(f"/proc/self/fd/{fd}"))
    return {link for link in links if link.startswith("socket:")}


def test_a_worker_holds_its_one_socket_and_no_other(shell):
    """Not its parent's end, not a sibling's, not the wake socket: so a
    worker reads EOF once its parent is gone, however that happened.
    (Sockets the test process held before the shell existed, such as a
    saved stdin, are the host's and are not counted.)"""
    inherited = _sockets()
    shell.wait(0.0)  # the wake socket exists from the first wait on
    for wid in range(3):
        assert shell.spawn(
            wid, lambda conn: conn.send(len(_sockets() - inherited))) is None
    events = _events(shell, 6)
    assert sorted(e for e in events if e[0] == "message") == [
        ("message", wid, 1) for wid in range(3)]


def test_a_failed_fork_returns_the_os_reason_and_leaks_no_fd(
        shell, monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    before = _open_fds()
    assert shell.spawn(0, lambda conn: 0) == \
        "Resource temporarily unavailable"
    assert _open_fds() == before
    assert len(shell) == 0 and shell.pid(0) is None
