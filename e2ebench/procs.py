"""Spawn the real server or cluster as subprocesses, and always tear them down.

Both topologies bind port 0 and announce their address on stdout, so every
run gets a free port without probing for one.  Each spawned process asks the
kernel to signal it when the benchmark dies (``PR_SET_PDEATHSIG``), and
cluster workers already exit when their router's stdin pipe closes, so a
crashed or killed benchmark leaves no orphans behind.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time

ANNOUNCE = "listening on http://"
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child between fork and exec (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (cluster workers under their router)."""
    found = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            found = [int(token) for token in handle.read().split()]
    except OSError:
        pass
    return found


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB, or 0.0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_ns(pids: list[int]) -> int:
    """CPU nanoseconds the live threads of ``pids`` have run.

    ``/proc/<pid>/task/<tid>/schedstat`` counts in nanoseconds the time
    each thread ran; a paravirtualised guest leaves out the time the
    hypervisor stole, and time-slicing with other processes is not run
    time, so neither counts here.  The servers' threads are long-lived (an
    asyncio loop and scheduler workers); a thread that exits between two
    readings takes its time with it.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total


def cpu_s_total(pid: int) -> float:
    """User plus system CPU seconds of one process, its exited threads
    included (``/proc/<pid>/stat``, clock-tick resolution), or 0.0 when it
    is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # A zombie has released its memory and will be reaped.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ServerProcess:
    """One ``repro serve`` or ``repro cluster`` subprocess tree.

    ``start()`` returns once the process has announced its port; the
    caller then waits for ``/readyz``.  ``stop()`` is idempotent and
    leaves no process of the tree running.
    """

    def __init__(self, cli_args: list[str], src_dir: str, cwd: str) -> None:
        self.cli_args = list(cli_args)
        self.src_dir = src_dir
        self.cwd = cwd
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.workers: list[int] = []

    def start(self, timeout: float = 60.0) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        env["PYTHONUNBUFFERED"] = "1"
        env.pop("REPRO_SLO", None)
        env.pop("REPRO_LOG", None)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.cli_args,
             "--host", "127.0.0.1", "--port", "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=self.cwd,
            env=env,
            preexec_fn=_die_with_parent,
        )
        try:
            self.port = self._read_port(timeout)
        except BaseException:
            self.stop()
            raise
        return self.port

    def _read_port(self, timeout: float) -> int:
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + timeout
        buffered = b""
        fd = self.process.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode("utf-8", "replace").splitlines():
                if ANNOUNCE in line:
                    endpoint = line.split(ANNOUNCE, 1)[1].split()[0]
                    return int(endpoint.rsplit(":", 1)[1])
        raise RuntimeError(
            f"{' '.join(self.cli_args[:1])} did not announce a port "
            f"(exit code {self.process.poll()})",
        )

    def pids(self) -> list[int]:
        """The tree's live processes: the server (or router) and workers."""
        if self.process is None:
            return []
        self.workers = child_pids(self.process.pid) or self.workers
        return [self.process.pid, *self.workers]

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def cpu_s(self) -> float:
        """CPU seconds the tree has used since it started."""
        return sum(cpu_s_total(pid) for pid in self.pids())

    def cpu_meter(self):
        """A function returning the tree's CPU nanoseconds (:func:`cpu_ns`)."""
        pids = self.pids()
        return lambda: cpu_ns(pids)

    def stop(self) -> None:
        if self.process is None:
            return
        process, self.process = self.process, None
        self.workers = child_pids(process.pid) or self.workers
        if process.poll() is None:
            # SIGINT is the graceful path: the router stops its workers.
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                stream.close()
        deadline = time.monotonic() + 10.0
        for pid in self.workers:
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.workers = []
