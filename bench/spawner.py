"""Runs the benchmark's CLI children from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the peak resident set of the
process it was spawned from: exec keeps the larger of the old and the new
memory's peak.  Spawned from the harness, which holds the instance pool and
runs library calls, every CLI child would report the harness's memory, not
its own.  This process imports nothing heavy and starts without
``site`` (about 11 MB, where a CLI child takes 17 MB or more), so its peak
stays below any CLI child's and ``ru_maxrss`` is the child's own.

The harness starts it with ``python3 -S bench/spawner.py`` and the
children's environment.  Each line on standard input is one JSON request, ``{"argv":
[...], "cwd": dir, "stdout": file, "stderr": file}``; each reply is one JSON
line, ``{"seconds": wall time from spawn to reaped exit, "maxrss_kb": ...,
"code": exit code}``.  It runs one child at a time, waits for each to end,
and exits at the end of its input.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": elapsed, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
