"""Spawns the benchmark's operations and reports each one's own resource usage.

Linux carries a process's peak RSS (ru_maxrss) across exec, starting from the
peak of the process it was forked from. The benchmark process grows while it
generates inputs and reference results, so it starts this small launcher
first and has it spawn every operation; each operation's ru_maxrss then
describes that operation alone. Children inherit the launcher's environment.

Protocol: one JSON request per line on stdin, {"cmd", "cwd", "timeout_s"};
one JSON reply per line on stdout, {"wall_s", "cpu_s", "rss_mib",
"exit_code"}. The child's stderr goes to cwd/stderr.txt. End of input ends
the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import time


def spawn(cmd, cwd, timeout_s: float) -> dict:
    """Run one process to its end; rusage is this process's alone (os.wait4)."""
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        # past the deadline the child is killed and reported with its signal
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["cmd"], request["cwd"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
