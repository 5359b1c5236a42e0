"""Child processes measured the way the benchmark reports them: wall
time, user plus system CPU seconds and peak resident memory, all from
the child's own resource usage."""

import os
import subprocess
import threading
import time


class Measured:
    """Outcome of one measured child process."""

    def __init__(self, returncode, wall_s, cpu_s, peak_rss_mib):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mib = peak_rss_mib


def reap(popen, started, timeout_s):
    """Waits for `popen` (killing it after `timeout_s`) and returns its
    Measured outcome; `started` is the wall clock the measurement began."""
    timer = threading.Timer(timeout_s, popen.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(popen.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    popen.returncode = os.waitstatus_to_exitcode(status)
    return Measured(popen.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def run(argv, cwd, env, timeout_s, stdout_path, stderr_path, stdin_text=None):
    """Runs `argv` to completion with its output in files."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                             stdin=subprocess.PIPE if stdin_text is not None
                             else subprocess.DEVNULL)
        if stdin_text is not None:
            try:
                p.stdin.write(stdin_text.encode())
                p.stdin.close()
            except BrokenPipeError:
                pass
        return reap(p, started, timeout_s)
