"""A verb whose reader has gone stops quietly.

``python -m repro bench list | head -1`` closes the pipe while the
command may still write. Each verb below runs in a fresh interpreter
whose stdout is a pipe with no reader left, so its first write (or the
flush of its buffered output) fails with ``BrokenPipeError``. It must
write no traceback and exit with status 1; ``--help`` exits 0, as
``argparse`` drops a help text it cannot write.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def run_into_closed_pipe(*argv: str) -> subprocess.CompletedProcess:
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes a byte
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
            check=False,
        )
    finally:
        os.close(write)


@pytest.fixture(scope="module")
def clicks(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("closed-stdout") / "clicks.tsv"
    subprocess.run(
        [
            sys.executable, "-m", "repro", "generate", "--sessions", "60",
            "--items", "30", "--seed", "3", "--out", str(path),
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=60,
        check=True,
    )
    return path


@pytest.mark.parametrize(
    ("argv", "status"),
    [
        (["bench", "list"], 1),
        (["stats"], 1),
        (["--help"], 0),
        (["serve", "--help"], 0),
    ],
    ids=["bench-list", "stats", "help", "serve-help"],
)
def test_a_closed_stdout_ends_the_verb_without_a_traceback(argv, status, clicks):
    if argv == ["stats"]:
        argv = ["stats", str(clicks)]
    proc = run_into_closed_pipe(*argv)
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert proc.returncode == status
