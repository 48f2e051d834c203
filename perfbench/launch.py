"""Start ``repro.cli serve`` for the benchmark, optionally traced.

Usage::

    python perfbench/launch.py [--trace-out SPANS.jsonl] -- serve --listen ...

Without ``--trace-out`` this is exactly ``python -m repro.cli serve ...``
with ``src/`` on the path. With it, the public functions in
:data:`tracer.TARGETS` (plus the gateway's admission hooks) are wrapped
where their callers look them up before the CLI is entered, spans stay
in memory, and on exit — SIGINT/SIGTERM stop the server the way the CLI
expects — they are written as JSONL, next to samples of the gateway's
admission queue (time admitted, and the wait or depth seen).
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _trace_gateway(stats: dict) -> None:
    """Queue wait and depth: the time from admission (``_submit``) to an
    executor thread starting the request (``_call_service``)."""
    from repro.serving import gateway

    cls = gateway.AsyncGateway
    submit, call = cls._submit, cls._call_service
    admitted: dict = {}

    def traced_submit(self, request, blobs, op_label, key):
        t0 = time.perf_counter()
        admitted[id(request)] = t0
        result = submit(self, request, blobs, op_label, key)
        stats["queue_depth"].append((t0, self._queue_depth()))
        return result

    def traced_call(self, request, blobs):
        t0 = admitted.pop(id(request), None)
        if t0 is not None:
            stats["queue_wait"].append((t0, time.perf_counter() - t0))
        return call(self, request, blobs)

    cls._submit = traced_submit
    cls._call_service = traced_call


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    # SIGTERM ends the threaded front like Ctrl-C does, so the span
    # file below is still written (the gateway handles both itself).
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    from repro import cli

    if trace_out is None:
        return cli.main(argv)

    import tracer

    tr = tracer.install(tracer.Tracer())
    stats = {"queue_depth": [], "queue_wait": []}
    _trace_gateway(stats)
    try:
        return cli.main(argv)
    finally:
        tr.dump(trace_out, process="server")
        with open(trace_out + ".stats.json", "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
