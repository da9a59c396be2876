"""Runs one command at a time for the benchmark and reports on it.

Reads one JSON request per line on stdin, ``{"argv": [...], "timeout": s}``,
runs the command to completion (killing it at the timeout), and writes one
JSON line back: exit code (null on timeout), stdout, stderr, wall seconds
from spawn to exit, and the peak resident memory of its children so far.

It exists because a child's peak memory, as the kernel counts it,
includes the memory of the process that spawned it: this process stays
small, so ``RUSAGE_CHILDREN`` here measures the commands, not the
benchmark. It imports nothing from lampclock. Closing stdin ends it.

:class:`Spawner` is the benchmark's side of the pipe.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


class Spawner:
    """A running spawner process; use as a context manager."""

    def __init__(self, cwd, env):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, cwd=cwd, env=env, encoding="utf-8")
        self.maxrss_kb = 0

    def run(self, argv, timeout):
        """(exit code or None on timeout, stdout, stderr, wall seconds)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        self.maxrss_kb = reply["maxrss_kb"]
        return reply["code"], reply["stdout"], reply["stderr"], reply["seconds"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        t0 = perf_counter()
        try:
            proc = subprocess.run(request["argv"], capture_output=True, encoding="utf-8",
                                  errors="replace", timeout=request["timeout"])
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", ""
        seconds = perf_counter() - t0
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"code": code, "stdout": out, "stderr": err,
                                     "seconds": seconds, "maxrss_kb": maxrss_kb}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
