"""Child processes of the fleet workloads: the gateway host and
standalone workers, started from the benchmark and always reaped."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 120.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _ready_line(proc: subprocess.Popen, what: str) -> dict:
    deadline = time.monotonic() + READY_TIMEOUT_S
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"{what} did not become ready")
        readable, _, _ = select.select([fd], [], [], min(remaining, 0.5))
        if readable:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"{what} exited with {proc.wait()}")
            buf += chunk
    return json.loads(buf.partition(b"\n")[0])


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class GatewayProcess:
    """A :class:`repro.serving.Gateway` in its own process
    (``gateway_host.py``) with ``workers`` worker processes."""

    def __init__(self, root: Path, l2_dir: Path, workers: int = 2):
        self.root = root
        self.l2_dir = l2_dir
        self.workers = workers
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.pid = 0
        self.worker_pids: list[int] = []

    def start(self) -> "GatewayProcess":
        self.l2_dir.mkdir(parents=True, exist_ok=True)
        with open(self.l2_dir.parent / f"{self.l2_dir.name}.stderr", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "gateway_host.py"),
                 "--l2-dir", str(self.l2_dir),
                 "--workers", str(self.workers)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=child_env(self.root), cwd=self.root,
            )
        try:
            ready = _ready_line(self.proc, "gateway")
        except BaseException:
            self.stop()
            raise
        self.port = int(ready["port"])
        self.pid = int(ready["pid"])
        self.worker_pids = [int(p) for p in ready["worker_pids"]]
        return self

    @property
    def pids(self) -> list[int]:
        return [self.pid, *self.worker_pids]

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        finally:
            proc.stdout.close()
            for pid in self.worker_pids:
                _kill(pid)


class WorkerProcess:
    """One standalone ``python -m repro.serving.worker`` (the fleet's
    internal entry point: JSON lines over a local socket).  The worker
    serves one connection at a time, so every exchange opens its own."""

    def __init__(self, root: Path, l2_dir: Path):
        self.root = root
        self.l2_dir = l2_dir
        self.proc: subprocess.Popen | None = None
        self.pid = 0
        self.port = 0

    def start(self) -> "WorkerProcess":
        with open(self.l2_dir.parent / "worker.stderr", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serving.worker",
                 "--l2-dir", str(self.l2_dir)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                env=child_env(self.root), cwd=self.root,
            )
        try:
            ready = _ready_line(self.proc, "worker")
        except BaseException:
            self.stop()
            raise
        self.pid = int(ready["pid"])
        self.port = int(ready["port"])
        return self

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def calls(self, lines: list) -> list:
        """Send each JSON line in turn on one connection; the replies."""
        with socket.create_connection(self.address) as sock, \
                sock.makefile("rwb") as stream:
            replies = []
            for line in lines:
                stream.write(line)
                stream.flush()
                replies.append(stream.readline())
            return replies

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if self.port:
                self.calls([b'{"op": "shutdown"}\n'])
            else:
                proc.kill()
        except OSError:
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
