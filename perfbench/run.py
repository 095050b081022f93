#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``workloads.py``) with a local Ray session of its own; this process
guards it:

- it refuses to start without the program (``raycrawl/``) beside it;
- it puts the child in a new process group and records that group and
  the run's Ray directory in ``.work/run.json``; a run killed before it
  could clean up leaves that file behind, and the next run kills the
  recorded group and removes the directories before it starts;
- it samples the summed PSS of the group from ``/proc``
  (``peak_mem_mb``), and kills the group when the child ends or
  overruns its time limit, waiting until every member is gone;
- it removes the run's state and Ray directories.

The last line of standard output is the run's JSON result; everything
else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crawl", "polite", "dedup_ops")
TIME_LIMIT_S = 170.0
# Ray puts AF_UNIX sockets (107-byte path limit) about 65 characters
# below its temp dir; under a longer checkout path the Ray directory is
# a fresh one in the system's temp dir.
MAX_RAY_TEMP = 40
# set in the environment of the child, which Ray's processes inherit
RUN_TOKEN = "PERFBENCH_RUN"


def _group_members(pgid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def _pss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total / 1024


class PeakMemory(threading.Thread):
    """Samples the summed PSS of a process group until stopped."""

    def __init__(self, pgid: int, every: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.pgid, self.every = pgid, every
        self.peak = 0.0
        self._stop_evt = threading.Event()

    def run(self) -> None:
        while not self._stop_evt.wait(self.every):
            self.peak = max(self.peak, _pss_mb(_group_members(self.pgid)))

    def stop(self) -> float:
        self._stop_evt.set()
        self.join()
        return self.peak


def _kill_group(pgid: int, grace: float = 10.0) -> None:
    """SIGTERM the group, SIGKILL what is left after ``grace`` seconds,
    and wait until no member is alive."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 30.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.1)
        if not _group_members(pgid):
            return


def _carries(pid: int, token: str) -> bool:
    try:
        with open(f"/proc/{pid}/environ", "rb") as f:
            return f"{RUN_TOKEN}={token}".encode() in f.read().split(b"\0")
    except OSError:
        return False


def _clean_stale(record: str) -> None:
    """Undo what a killed earlier run left behind, as its ``record``
    names it: its process group (only if a member still carries that
    run's token, so a reused group id is never hit) and its Ray
    directory."""
    try:
        with open(record) as f:
            stale = json.load(f)
    except (OSError, ValueError):
        return
    if any(_carries(p, stale["token"]) for p in _group_members(stale["pgid"])):
        _kill_group(stale["pgid"], grace=0.0)
    shutil.rmtree(stale["ray_temp"], ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller inputs for the benchmark's own smoke test
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    a = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "raycrawl", "__init__.py"))
            and os.path.isfile(os.path.join(root, "__ray_entry__.py"))):
        print("run.py: no raycrawl program in the current directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    work = os.path.join(HERE, ".work")
    record = os.path.join(work, "run.json")
    _clean_stale(record)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_temp = os.path.join(HERE, ".ray")
    if len(ray_temp) > MAX_RAY_TEMP:
        ray_temp = tempfile.mkdtemp(prefix="perfbench-ray-")
    shutil.rmtree(ray_temp, ignore_errors=True)
    out = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scale", a.scale, "--out", out, "--work-dir", work,
           "--ray-temp", ray_temp]
    token = secrets.token_hex(8)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, HERE]),
               PYTHONUNBUFFERED="1", RAY_USAGE_STATS_ENABLED="0",
               **{RUN_TOKEN: token})
    # a SIGTERM to this process still takes the child's group down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr,
                             process_group=0)
    with open(record, "w") as f:
        json.dump({"pgid": child.pid, "token": token, "ray_temp": ray_temp}, f)
    mem = PeakMemory(child.pid)
    mem.start()
    try:
        code = child.wait(timeout=TIME_LIMIT_S - (time.monotonic() - t_start))
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {TIME_LIMIT_S:.0f}s; killed",
              file=sys.stderr)
        code = None
    finally:
        peak = mem.stop()
        _kill_group(child.pid)
        child.wait()
        shutil.rmtree(ray_temp, ignore_errors=True)
    result = None
    if code == 0 and os.path.exists(out):
        with open(out) as f:
            result = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print(f"run.py: workload {a.workload} failed (exit {code})",
              file=sys.stderr)
        return 1
    if not a.trace:
        result["metrics"]["peak_mem_mb"] = {"value": peak, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
