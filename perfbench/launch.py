"""Run one command and print its exit code, wall time, CPU time and peak RSS as JSON.

    python3 launch.py TIMEOUT_S CPUS STDOUT_FILE COMMAND...

CPUS is a comma-separated list of the CPUs the command may run on.

The benchmark starts every CLI run through this small process instead of
forking it from itself: on Linux a child's ``ru_maxrss`` includes the
resident size of the process it was forked from, so a child of the
benchmark (which holds snapshots and imports) would report the
benchmark's size rather than the CLI's own peak. This process stays
near a bare interpreter's size and imports nothing heavy.

Wall time runs from just before the spawn to the last byte of stdout.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout, cpus, out_path, *command = sys.argv[1:]
    os.sched_setaffinity(0, {int(cpu) for cpu in cpus.split(",")})  # inherited by the command
    read_fd, write_fd = os.pipe()
    with open(out_path, "wb") as out:
        start = last = time.perf_counter()
        pid = os.posix_spawnp(
            command[0],
            command,
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_CLOSE, read_fd)],
        )
        os.close(write_fd)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(int(timeout))
        while chunk := os.read(read_fd, 1 << 16):
            last = time.perf_counter()
            out.write(chunk)
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
    print(
        json.dumps(
            {
                "exit_code": os.waitstatus_to_exitcode(status),
                "wall_s": last - start,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024,
            }
        )
    )


if __name__ == "__main__":
    main()
