"""Start and time the benchmark's child processes from a process that stays small.

On Linux a child's ru_maxrss includes the peak RSS of the process that
spawned it: exec records the old address space's high-water mark.  The
benchmark itself reads 1e6-value files and runs grid passes, so it starts
every child through this helper, launched before it allocates anything large.
The helper also does the timing, from just before the spawn to the reap.

Protocol: one JSON request per line on stdin, [argv, stdout path, stderr
path, timeout seconds]; one JSON reply per line on stdout, [wall seconds,
ru_maxrss in KiB, exit code].  The helper exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


class Spawner:
    """Client side: owns the helper process and the scratch files for child output."""

    def __init__(self, env, cwd, work, timeout_s):
        self.out_path, self.err_path = work / "child.out", work / "child.err"
        self.timeout_s = timeout_s
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, argv):
        """Run one child to completion; returns (wall seconds, peak RSS MB, exit code, stdout)."""
        request = [list(argv), str(self.out_path), str(self.err_path), self.timeout_s]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        seconds, maxrss_kib, code = json.loads(reply)
        return seconds, maxrss_kib / 1024.0, code, self.out_path.read_text()

    def stderr_tail(self, chars=400):
        return self.err_path.read_text()[-chars:]

    def close(self):
        """Stop the helper.  If the benchmark was interrupted while a child runs,
        the helper is terminated, and it kills the child before it exits."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def serve():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        argv, out_path, err_path, timeout_s = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([seconds, usage.ru_maxrss, proc.returncode]), flush=True)


if __name__ == "__main__":
    serve()
