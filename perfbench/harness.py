"""Process, HTTP and statistics plumbing shared by every workload.

The system under test always runs in its own process, started from the
program tree's ``src/`` exactly as a user starts it (``python -m repro
serve`` / ``python -m repro kdv``), or, in a traced run, through
``launcher.py``, which installs the span wrappers first and then calls
the same CLI entry point.  The load generator is this process: at most
two client threads over keep-alive ``http.client`` connections.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"

#: Environment variables of the program that would change what it does;
#: removed from every child so runs do not depend on the caller's shell.
PROGRAM_ENV = ("REPRO_TRACE", "REPRO_WORKERS", "REPRO_BACKEND")


class BenchError(RuntimeError):
    """The benchmark could not set up or drive the program."""


def check_program(root: Path) -> Path:
    """The program's ``src`` directory; fails when the tree lacks it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'repro'}")
    return src


def child_env(root: Path, workdir: Path, **extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(workdir)
    env.update(extra)
    return env


def program_argv(args: list[str], spans_path: Path | None) -> list[str]:
    """``python -m repro <args>``, or the traced launcher around it."""
    if spans_path is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(spans_path), *args]


def host_metadata(root: Path) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def cpu_probe_ms() -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    Stored with each result so a slow run can be told apart from a slow
    host (other tenants of a shared machine); never a metric.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    data = sorted(values)
    if not data:
        raise BenchError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values, q: float) -> float | None:
    """Percentile ``q`` only when at least ten samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < 10:
        return None
    return percentile(values, q)


def median(values) -> float:
    return float(statistics.median(values))


# -- the server process -----------------------------------------------------


_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` process, started and stopped like a user would."""

    def __init__(self, args: list[str], env: dict, cwd: Path,
                 spans_path: Path | None = None, boot_timeout: float = 120.0):
        self.spans_path = spans_path
        self.proc = subprocess.Popen(
            program_argv(["serve", *args, "--port", "0"], spans_path),
            env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._lines: list[str] = []
        self.port = self._await_port(boot_timeout)
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _await_port(self, timeout: float) -> int:
        found: list[int] = []

        def read():
            for line in self.proc.stdout:
                self._lines.append(line)
                match = _LISTENING.search(line)
                if match:
                    found.append(int(match.group(2)))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            self.stop()
            raise BenchError("server did not start: "
                             + "".join(self._lines[-20:]))
        return found[0]

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if not match:
            raise BenchError("no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown path), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(10)
        self.proc.stdout.close()

    def spans(self) -> dict:
        """The span file a traced server wrote on shutdown."""
        if self.spans_path is None or not self.spans_path.is_file():
            raise BenchError("traced server wrote no span file: "
                             + "".join(self._lines[-20:]))
        return json.loads(self.spans_path.read_text())


class Client:
    """One keep-alive HTTP/1.1 connection, used by one thread.

    Headers and body go out as a single ``send`` (``http.client`` joins
    them), the way browsers and map clients talk to a tile server; the
    client sets no socket options of its own.
    """

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, rid: str, body=None):
        """``(status, body bytes, seconds from send to last body byte)``."""
        headers = {tracing.RID_HEADER: rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=120)
            return None, b"", time.perf_counter() - t0
        return resp.status, payload, time.perf_counter() - t0

    def json(self, method: str, path: str, rid: str, body=None):
        status, payload, _ = self.call(method, path, rid, body)
        if status is None or not 200 <= status < 300:
            raise BenchError(f"{method} {path} -> {status}: {payload[:200]!r}")
        try:
            return json.loads(payload)
        except ValueError:
            raise BenchError(f"{method} {path}: body is not JSON: "
                             f"{payload[:200]!r}") from None

    def close(self) -> None:
        self.conn.close()


class OpLog:
    """Thread-safe record of every op the load generator attempted."""

    def __init__(self):
        self.ops: list[dict] = []
        self._lock = threading.Lock()

    def add(self, **op) -> None:
        with self._lock:
            self.ops.append(op)

    def call(self, conn: Client, method: str, path: str, rid: str, *,
             kind: str, phase: str, client: int = 0, body=None, parse=None,
             **extra):
        """One logged HTTP op.  It succeeds on a 2xx status whose body
        ``parse`` (if given) accepts; returns the (parsed) body on success
        and ``None`` on failure."""
        t0 = time.perf_counter()
        status, payload, latency = conn.call(method, path, rid, body)
        ok = status is not None and 200 <= status < 300
        result, outcome = payload, status
        if ok and parse is not None:
            try:
                result = parse(payload)
            except ValueError:
                ok, outcome = False, f"{status} with a malformed body"
        if not ok:
            extra["error"] = f"{method} {path} -> {outcome}: {payload[:200]!r}"
        self.add(rid=rid, kind=kind, phase=phase, client=client, t0=t0,
                 latency=latency, ok=ok, bytes=len(payload), status=status,
                 **extra)
        return result if ok else None


def run_threads(fns) -> None:
    """Run each ``fn()`` on its own thread, wait for all of them, and
    re-raise the first exception any of them raised."""
    errors: list[BaseException] = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # reported below, never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in fns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(loops, seconds: float) -> float:
    """Run each ``loop(deadline)`` on its own thread; each issues its next
    op only after the previous one completed, until the deadline.  Returns
    the measured seconds: start to the last op's completion."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    run_threads([functools.partial(loop, deadline) for loop in loops])
    return time.perf_counter() - t0


def run_cli(args: list[str], env: dict, cwd: Path,
            spans_path: Path | None = None) -> tuple[float, int, float, str]:
    """One fresh ``repro`` process: ``(wall seconds, exit code, peak RSS
    MiB, captured output)``; wall time is spawn to exit."""
    out_path = Path(env["TMPDIR"]) / "cli-output.txt"
    with open(out_path, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(program_argv(args, spans_path), env=env,
                                cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, text
