"""Shared helpers: checkout layout, child processes, statistics, host facts."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, IO, Optional, Sequence

#: the benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch state (caches, WALs, span dumps); listed in .gitignore.
WORK = ROOT / ".perfbench"


class BenchError(Exception):
    """A failed precondition or output check: the run must exit non-zero."""


def require_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}; run from a full checkout")


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a child: the checkout's ``src`` on the path, and no
    inherited ``REPRO_*`` switches, so every run sees the same defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


class Child:
    """A Python child speaking one JSON object per stdout line."""

    def __init__(self, args: Sequence[str], env: Dict[str, str],
                 stdin: bool = False) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *args], cwd=str(ROOT), env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)

    def read(self, prefix: str = "{") -> str:
        """Next stdout line starting with ``prefix``; a child that ends
        early is a failed run."""
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith(prefix):
                return line
        code = self.proc.wait()
        raise BenchError(f"child {self.proc.args[2:]} exited {code} early")

    def read_json(self) -> Dict[str, Any]:
        return json.loads(self.read("{"))

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def peak_rss_mib(self) -> float:
        """The child's resident high-water mark, read while it lives."""
        return vm_hwm_mib(self.proc.pid)

    def finish(self, timeout: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"child {self.proc.args[2:]} did not exit")
        finally:
            self._close_pipes()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass


def emit(obj: Dict[str, Any], stream: IO[str] = sys.stdout) -> None:
    """Child side of :class:`Child`: one JSON line, flushed."""
    stream.write(json.dumps(obj, sort_keys=True) + "\n")
    stream.flush()


def vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def self_peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of a non-empty sequence."""
    if not values:
        raise BenchError("quantile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise BenchError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _governor() -> Optional[str]:
    path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor gave to others, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "governor": _governor(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "steal_s": steal_seconds(),
    }


def nproc() -> int:
    return os.cpu_count() or 1

