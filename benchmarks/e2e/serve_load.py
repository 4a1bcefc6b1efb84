"""The detection server as a subprocess, and an open-loop load generator.

The server is ``repro.serve.cli.main`` with its defaults (two workers),
which is what ``python -m repro serve`` runs, started from a short
bootstrap that pins it to CPU 0 (the generator keeps to CPU 1, so the
two never share a vCPU) and runs a :class:`~speed.SpeedProbe` in it.
The probe's samples come back on stdout when the server exits, so each
request's latency can be rescaled by the speed of the CPU that served
it.

The generator is one process with a dispatcher and two keep-alive
connections. The dispatcher releases request ``i`` at its scheduled
time ``t_i`` (an open loop: it never waits for replies); whichever
connection is free sends it. Latency is measured from ``t_i``, so time
a request spends waiting for a busy connection or a stalled server
counts against it. How late the dispatcher itself ran is recorded too:
a run whose dispatcher lateness is large measured the generator, not
the server.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from speed import SpeedProbe

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
_SAMPLES = "speed-samples "
SERVER_CPU, CLIENT_CPU = 0, 1

_BOOTSTRAP = f"""
import json, os, sys
from repro.serve.cli import main
from speed import SpeedProbe
if len(os.sched_getaffinity(0)) > 1:
    os.sched_setaffinity(0, {{{SERVER_CPU}}})
with SpeedProbe() as probe:
    code = main(sys.argv[1:])
print({_SAMPLES!r} + json.dumps([probe.times, probe.durations]), flush=True)
sys.exit(code)
"""


def pin_client() -> None:
    """Keep this process off the server's CPU (on hosts with two or more)."""
    if len(os.sched_getaffinity(0)) > 1:
        os.sched_setaffinity(0, {CLIENT_CPU})


class ServerError(RuntimeError):
    """The server subprocess failed to start or to stop cleanly."""


class ServerProcess:
    """The detection server on an ephemeral port, default configuration."""

    def __init__(self, src: Path, start_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env.pop("REPRO_KERNEL_BACKEND", None)
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
        self.speed: Optional[SpeedProbe] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BOOTSTRAP, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            self.host, self.port = self._await_listening(start_timeout)
            self.get("/v1/health")
        except BaseException:
            self.kill()
            raise

    def _await_listening(self, timeout: float):
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise ServerError(f"server did not report a listening port: {self._stderr()}")

    def _stderr(self) -> str:
        if self.proc.poll() is None:
            return "(still running)"
        return (self.proc.stderr.read() or "").strip()[-2000:]

    def get(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200:
            raise ServerError(f"GET {path} answered {response.status}")
        return payload

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, so the server drains queued work, then wait for exit
        and collect its speed samples into :attr:`speed`."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            stdout, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain within the timeout") from None
        for line in stdout.splitlines():
            if line.startswith(_SAMPLES):
                self.speed = SpeedProbe()
                self.speed.times, self.speed.durations = json.loads(line[len(_SAMPLES):])
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


@dataclass
class Reply:
    index: int
    scheduled: float
    dispatched: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.scheduled

    @property
    def lateness(self) -> float:
        return self.dispatched - self.scheduled


def _connection_loop(host: str, port: int, bodies: Sequence[bytes], work: queue.Queue,
                     replies: List[Reply], lock: threading.Lock) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    headers = {"Content-Type": "application/json"}
    try:
        while True:
            item = work.get()
            if item is None:
                return
            index, body_index, scheduled, dispatched = item
            try:
                conn.request("POST", "/v1/detect", body=bodies[body_index], headers=headers)
                response = conn.getresponse()
                blob = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                blob, status = b"", 0
            reply = Reply(index, scheduled, dispatched, time.perf_counter(), status, blob)
            with lock:
                replies.append(reply)
    finally:
        conn.close()


def open_loop(host: str, port: int, bodies: Sequence[bytes], schedule: Sequence[tuple],
              connections: int = 2) -> List[Reply]:
    """Send ``bodies[b]`` at offset ``t`` for every ``(t, b)`` in ``schedule``.

    Returns one :class:`Reply` per request, ordered by request index. A
    transport failure is a reply with status 0.
    """
    work: queue.Queue = queue.Queue()
    replies: List[Reply] = []
    lock = threading.Lock()
    threads = [
        threading.Thread(target=_connection_loop, args=(host, port, bodies, work, replies, lock))
        for _ in range(connections)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    try:
        for index, (offset, body_index) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            work.put((index, body_index, due, time.perf_counter()))
    finally:
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise ServerError("load-generator connections did not finish")
    return sorted(replies, key=lambda reply: reply.index)
