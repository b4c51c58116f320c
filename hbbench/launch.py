"""Run ``python -m hbgraphs.cli ARGS`` as a child; report its exit code and peak RSS.

Usage: ``python3 -S hbbench/launch.py FD ARGS...``.  The report, "<exit code>
<peak RSS in KiB>", is written to file descriptor FD.  Linux carries the peak
RSS of a process across exec, so a command started straight from the large
benchmark process would report the benchmark's peak.  Started from this small
process, it reports its own (with any pool it waited for).
"""

import os
import sys

fd, argv = int(sys.argv[1]), sys.argv[2:]
pid = os.fork()
if pid == 0:
    os.close(fd)
    os.execv(sys.executable, [sys.executable, "-m", "hbgraphs.cli", *argv])
_, status, usage = os.wait4(pid, 0)
os.write(fd, f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n".encode())
