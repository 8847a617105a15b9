"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py TIMEOUT STDOUT STDERR -- CMD [ARG ...]

The benchmark starts each timed command through this small process.
On Linux a child's peak RSS (``ru_maxrss``) starts from the peak of the
process that forked it, and the benchmark process itself holds large
reference tables; forking from here keeps the figure the command's own.
The command is killed after TIMEOUT seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timeout, out_path, err_path, cmd = float(argv[0]), argv[1], argv[2], argv[4:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
