"""Ray session lifetime for the benchmark: one quiet session at a given
``num_cpus``, torn down the same way whether its job finished or
stalled, and a deadline for each job.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import threading

import host

# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# up to 64 characters below its temp dir
MAX_RAY_DIR = 42


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Session:
    """One quiet Ray session at ``num_cpus``, its temp files under
    ``.pbr/`` in the checkout."""

    def __init__(self, num_cpus: int):
        ray_dir = os.path.join(os.getcwd(), ".pbr")
        if len(ray_dir) > MAX_RAY_DIR:
            # a deep checkout: Ray's socket paths would not fit
            ray_dir = tempfile.mkdtemp(prefix="pbr", dir="/tmp")
            log(f"Ray temp dir moved to {ray_dir} (socket path limit)")
        host.adopt_orphans()    # so stop() reaps the raylet's children
        self.ray_dir = ray_dir
        self.num_cpus = num_cpus

    def start(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        ray.init(num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 _temp_dir=self.ray_dir,
                 object_store_memory=512 * 1024 * 1024)
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        """Kill the session's processes, reap them, then drop the
        driver's connection. Nothing in the session needs flushing, and
        this also ends a session whose job stalled; Ray's graceful
        shutdown takes 1.4 s on one CPU, this 0.3 s."""
        import ray

        host.kill_descendants()
        ray.shutdown()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.ray_dir, ignore_errors=True)


class Stalled(Exception):
    pass


def run_job(fn, timeout: float):
    """``fn()`` with a deadline. On expiry the session's processes are
    killed, which makes the blocked call return, and Stalled is raised;
    the caller then stops the session. (``ray.shutdown`` while another
    thread is still inside Ray can crash the driver.)"""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # handed to the caller below
            box["err"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        host.kill_descendants()
        th.join(30)
        raise Stalled(f"no result within {timeout:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]
