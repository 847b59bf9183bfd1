"""Run one command and report its own wall time and resource use.

    python -I -S perfbench/launch.py <program> <args...>

The command inherits stdin, stdout and stderr.  When it has exited, one line
``perfbench-usage <json>`` with its wall time, CPU time, peak resident set
and exit status is appended to stderr, and this process exits with the
command's exit code.

The command is started from this small interpreter rather than from the
benchmark itself because Linux counts the resident set of the image a process
replaces at exec in that process's peak: started straight from the larger
benchmark process, every command would report at least the benchmark's own
peak.  The rusage comes from os.wait4 on the command's pid, so it covers the
command and the pool workers it reaped, and nothing else.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
code = os.waitstatus_to_exitcode(status)
report = {
    "wall_s": wall,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "peak_rss_kib": usage.ru_maxrss,
    "exit": code,
}
sys.stderr.write("perfbench-usage " + json.dumps(report) + "\n")
sys.exit(code if code >= 0 else 1)
