"""Runs the benchmark's queries for it, from a process kept small.

A child's peak RSS (`ru_maxrss`) includes the resident size of the
process it was forked from, so queries started straight from run.py,
which has numpy, scipy and the reference model loaded, would all read
at least run.py's size. run.py starts this process first, while it is
still small, and sends it one JSON request per line:

    {"argv": [...], "cwd": DIR, "stdout": FILE, "budget_s": SECONDS}

For each it replies with one JSON line:

    {"wall_s": ..., "exit_code": ... or null if killed, "rss_mb": ...}

The wall time runs from spawning the child to reaping it. It exits when
its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, stdout, budget_s):
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(budget_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # reaped here, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": None if killed.is_set() else proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["cwd"], req["stdout"], req["budget_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
