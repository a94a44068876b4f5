"""Host facts and process bookkeeping, read from /proc.

Every run records the CPU counts it ran with, the load before and
after, and the library versions; the peak resident memory of the
driver and its Ray workers is summed from their ``VmHWM``.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import time


def nproc() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS, so it can be
    smaller than the affinity mask."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


# a virtual machine on an oversubscribed host loses CPU time to steal;
# above this share of the run's CPU time, job times stretch (on a
# 4-vCPU VM, neardup jobs went from 11 s to 42 s at ~17% steal)
STEAL_LIMIT = 0.02


def _cpu_times() -> list:
    """The aggregate ``cpu`` line of /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _busy_steal() -> tuple:
    """(busy, stolen) clock ticks of the whole machine so far."""
    t = _cpu_times()
    # user nice system idle iowait irq softirq steal
    return t[0] + t[1] + t[2] + t[5] + t[6], t[7]


class Timer:
    """Times a block. ``wall`` is its wall time; ``s`` is the wall time
    less the share of it the hypervisor stole. A vCPU accrues steal only
    while it has work to run, so steal / (busy + steal) over the block is
    the share of the benchmark's running time that other guests took.
    With no steal, ``s`` equals ``wall``. Contention that slows the
    CPUs without stealing them is not taken out."""

    def __enter__(self):
        self._ticks, self._t0 = _busy_steal(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._ticks, _busy_steal()))
        self.s = self.wall * busy / (busy + steal) if busy else self.wall
        return False


def host_record() -> dict:
    from importlib.metadata import version

    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "load_start": os.getloadavg(), "cpu_ticks_start": _cpu_times(),
            "versions": {p: version(p) for p in ("ray", "pyarrow", "duckdb")}}


def close_record(rec: dict) -> dict:
    """Add the end load, the share of CPU time stolen by the hypervisor
    during the run, and ``load_ok``: both 1-minute loads below the
    affinity CPU count and steal below STEAL_LIMIT, so nothing else
    competed for the run's cores."""
    rec["load_end"] = os.getloadavg()
    # user nice system idle iowait irq softirq steal
    delta = [b - a for a, b in zip(rec.pop("cpu_ticks_start"),
                                   _cpu_times())][:8]
    rec["steal_share"] = delta[7] / max(sum(delta), 1)
    rec["load_ok"] = (max(rec["load_start"][0], rec["load_end"][0])
                      < rec["affinity_cpus"]
                      and rec["steal_share"] < STEAL_LIMIT)
    return rec


def _children() -> dict:
    """ppid -> [pid] over every process visible in /proc."""
    kids = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(pid: int | None = None) -> list:
    kids = _children()
    out, todo = [], [pid or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """VmHWM of this driver plus every live Ray worker it started
    (workers retitle themselves ``ray::<task>``)."""
    def is_worker(pid):
        cmd = _cmdline(pid)
        return cmd.startswith("ray::") or "default_worker.py" in cmd

    pids = [os.getpid()] + [p for p in descendants() if is_worker(p)]
    return sum(_hwm_kb(p) for p in pids) / 1024.0


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process it starts, however
    deep. Without it, the children of a killed raylet (workers, agents)
    go to PID 1 and outlive the run as zombies or, if started during
    the kill, as live workers."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def kill_descendants(timeout: float = 20.0) -> None:
    """SIGKILL every process this driver started and reap each, until
    none is left, zombies included (used to stop a Ray session, when a
    job stalls, and on exit). After ``adopt_orphans`` a process whose
    parent is killed comes to this one, so a worker the raylet forks
    while it is being killed is found on the next pass."""
    deadline = time.monotonic() + timeout
    while True:
        pids = descendants()
        if not pids:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} outlived SIGKILL")
        for p in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(p, signal.SIGKILL)
        time.sleep(0.02)
        _reap()
