"""A server as a child process: the system under test (``python -m repro
serve``) and the control measured beside it (``reference.py``)."""

from __future__ import annotations

import math
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from loadgen import Sender

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
STARTUP_TIMEOUT_S = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def serve_argv(artifact: Path, flags: Sequence[str]) -> list[str]:
    """The real front door with the CLI defaults plus ``flags``."""
    return ["-m", "repro", "serve", str(artifact), *flags]


class ChildServer:
    """Spawns ``python <argv> --port <free port>`` and waits for /healthz.

    Use as a context manager: leaving the block terminates the child
    (then kills it if it ignores the signal) and waits for it. ``cpus``
    pins the child, so that it and the load generator never share a core.
    """

    def __init__(
        self,
        argv: Sequence[str],
        log_dir: Path,
        cpus: set[int] | None = None,
    ) -> None:
        self.port = _free_port()
        self._cpus = cpus
        self._command = [sys.executable, *argv, "--port", str(self.port)]
        self._log_path = log_dir / f"serve-{self.port}.log"
        self._process: subprocess.Popen | None = None
        self.startup_s = 0.0

    def __enter__(self) -> "ChildServer":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
        )
        started = time.perf_counter()
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                self._command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        try:
            if self._cpus:
                os.sched_setaffinity(self._process.pid, self._cpus)
            self._wait_healthy(started + STARTUP_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _wait_healthy(self, deadline: float) -> None:
        probe = Sender(self.port)
        try:
            while time.perf_counter() < deadline:
                if not self.alive():
                    raise RuntimeError(f"server exited during start-up:\n{self.log_tail()}")
                try:
                    status, _ = probe.call("GET", "/healthz")
                    if status == 200:
                        return
                except OSError:
                    pass  # not listening yet
                time.sleep(0.01)
        finally:
            probe.close()
        raise RuntimeError(f"server not healthy in {STARTUP_TIMEOUT_S:g} s:\n{self.log_tail()}")

    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def stop(self) -> None:
        process = self._process
        if process is None or process.poll() is not None:
            return
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self._log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def get(self, path: str) -> tuple[int, bytes]:
        probe = Sender(self.port)
        try:
            return probe.call("GET", path)
        finally:
            probe.close()

    # -- /proc accounting ----------------------------------------------------

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far; nan once it is gone."""
        try:
            stat = Path(f"/proc/{self._process.pid}/stat").read_text()
        except OSError:
            return math.nan
        # The command name may hold spaces; fields are counted after it.
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """VmHWM: the most resident memory the child ever held; nan once
        it is gone."""
        try:
            status = Path(f"/proc/{self._process.pid}/status").read_text()
        except OSError:
            return math.nan
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return math.nan
