"""The control: a frozen reference server, measured beside the real one.

The sandbox this benchmark runs in does not hold its speed, in two ways.
The whole box changes gear for seconds to minutes at a time (a batch call
that takes 22 ms in one minute takes 42 ms in the next), and, separately,
the path a request takes through the guest kernel (connect, accept, thread
start, wake-ups between the two vCPUs) has spells in which it costs up to
twice as much while compute does not move at all. Over ten minutes the
median latency of one unchanged server ran from 1.06 to 2.37 ms. Two sets
of runs of the same code then disagree by more than any useful bound, and
the driver refused the first version of this benchmark for exactly that.

So every end-to-end run measures a second server next to the real one:
this file, run as a child process on the same cores. It answers a request
the way the real front door does today (stdlib ``ThreadingHTTPServer``,
HTTP/1.0, one connection and one thread per request, JSON in, numpy
scoring over a posting list, JSON out). ``work`` in the request body is
how many times the scoring step is repeated: 1 makes a request of the
size of ``/v1/recommend``, 1800 one that is compute-bound like a
64-session batch call. The timed phase alternates short segments, control
then real (50 requests each, or one batch call each), and the time-based
gated metrics are real / control, times what the control measured on the
box the ledger's numbers come from (``controls`` in ledger.json):

    latency_p50_ms = control p50_ms * median_i(p50(real_i) / p50(control_i))

Over ten seeds in a noisy half hour that took the interquartile spread of
the median latency from 15-23 % of its median to 1-7 %, of throughput
from 21-45 % to 1-3 % and of CPU per operation from 18-25 % to 2-4 %. The
raw values and the control's own are printed beside the scaled ones. A
compute-only calibration loop, which the first version used, follows the
first kind of drift and not the second (correlation with the median
latency 0.15, against 0.73 for this server), and a request-sized control
does not follow a batch call (0.46 against 0.63 for the compute-bound one).

The control is part of the benchmark and frozen with it: a change that
edits it, or its constants in ledger.json, is a change to the benchmark.
"""

from __future__ import annotations

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

ARGV = [str(Path(__file__).resolve())]  # after the interpreter
_SLOT = 21
# A posting list of 250 session ids for each of 800 items.
_POSTINGS = np.random.default_rng(0).integers(0, 40_000, size=(800, 250))


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        self._send(b'{"status": "ok"}')

    def do_POST(self) -> None:  # noqa: N802 (stdlib API)
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        sessions = _POSTINGS[payload["item_id"] % len(_POSTINGS)]
        for _ in range(payload["work"]):
            weights = np.bincount(sessions % 256, minlength=256) / (1.0 + len(sessions))
            ranked = np.argsort(-weights, kind="stable")[:_SLOT]
        items = [{"item_id": int(item), "score": float(weights[item])} for item in ranked]
        self._send(json.dumps({"items": items, "degraded": False}).encode())


class _Server(ThreadingHTTPServer):
    request_queue_size = 128
    daemon_threads = True


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    _Server(("127.0.0.1", parser.parse_args().port), _Handler).serve_forever()
