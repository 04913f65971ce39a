"""Starts the benchmark's child processes from a small process of its own.

On Linux a child's peak RSS (``ru_maxrss``) starts at the peak of the process
it was forked from, so children forked from the harness, which parses large
outputs, would all report at least the harness's memory.  This process stays
at the size of a bare interpreter.  It reads one JSON request per line on
stdin (``argv``, ``out``, ``err``, ``timeout``), runs the command with stdout
and stderr written to the named files, and answers ``"<exit code> <seconds>
<ru_maxrss in KiB>"``, timed from fork to reap.  It exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                fds = [os.open(os.devnull, os.O_RDONLY)]
                fds += [os.open(req[k], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for k in ("out", "err")]
                for target, fd in enumerate(fds):
                    os.dup2(fd, target)
                os.execv(req["argv"][0], req["argv"])
            finally:
                os._exit(127)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
        signal.alarm(0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {seconds!r} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
