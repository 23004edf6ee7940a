"""Runs benchmark children one at a time and reports each one's cost.

Reads one JSON request per line on standard input,
``{"argv": [...], "env": {...}, "cwd": DIR, "stdout": PATH, "stderr": PATH}``,
runs it to completion and writes one JSON line back:
``{"code": N, "wall_s": F, "cpu_s": F, "rss_mb": F}``.  Ends at end of input.

It is a process of its own because the peak RSS that ``wait4`` reports for
a child includes the memory of the process that forked it.  This process
stays small, so the figure is the child's own; ``run.py`` holds parsed
reports and traces and is not small.  On SIGTERM it kills the running
child, waits for it and exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter

TIMEOUT_S = 150


def main() -> int:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
            os.waitpid(proc.pid, 0)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"]
            )
            running.append(proc)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                running.clear()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
