"""Open-loop load generator of the serve regime, run as its own process.

A server's clients run in other processes.  Run beside the in-process
server, the generator and its connections would compete with the
server's threads for the interpreter lock, which delays both the
hand-over of due requests and the reading of answers.

Usage (``serve_phase`` starts it once per ladder step)::

    python3 perfbench/loadgen.py < job.json > result.json

The job is ``{"port": int, "connections": int, "requests": [[due, body],
...]}`` with ``due`` in seconds from the step's start.  The result holds
one ``[put, taken, done, status, response text, request id]`` per
request, in the job's order, with times in seconds from the same start:
when the generator handed the request to the connections, when a
connection took it, and when its answer had been read.  The request id
is ``<client port>:<sequence number on that connection>``.
"""

from __future__ import annotations

import http.client
import json
import queue
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import post_predict

Item = Optional[Tuple[int, Any, float]]


def _connection(port: int, work: "queue.Queue[Item]", results: List[Any], start: float) -> None:
    """One keep-alive connection: answer requests until told to stop."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    # requests answered so far on each socket, by its local port: the
    # connection opens a new socket when the server closed the old one
    seq: Dict[int, int] = {}
    try:
        while True:
            item = work.get()
            if item is None:
                return
            index, body, put = item
            taken = time.perf_counter()
            try:
                status, raw = post_predict(conn, body)
                done = time.perf_counter()
                local_port = conn.sock.getsockname()[1]
                request_id = f"{local_port}:{seq.get(local_port, 0)}"
                seq[local_port] = seq.get(local_port, 0) + 1
            except (OSError, http.client.HTTPException) as exc:
                done = time.perf_counter()
                status, raw, request_id = 0, repr(exc).encode(), ""
                conn.close()
            results[index] = [
                put - start,
                taken - start,
                done - start,
                status,
                raw.decode("utf-8", "replace"),
                request_id,
            ]
    finally:
        conn.close()


def main() -> int:
    job = json.load(sys.stdin)
    requests = job["requests"]
    results: List[Any] = [None] * len(requests)
    work: "queue.Queue[Item]" = queue.Queue()
    start = time.perf_counter() + 0.05
    connections = [
        threading.Thread(target=_connection, args=(job["port"], work, results, start))
        for _ in range(job["connections"])
    ]
    for thread in connections:
        thread.start()
    for index, (due, body) in enumerate(requests):
        delay = start + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put((index, body, time.perf_counter()))
    for _ in connections:
        work.put(None)
    for thread in connections:
        thread.join()
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
