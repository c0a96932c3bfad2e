"""Run one child process under a wall-clock timeout and an address-space cap.

The cap is set with ``RLIMIT_AS`` in the child alone, so a blow-up of the
program under test ends as a failed invocation (MemoryError, a signal or
the timeout) instead of exhausting the machine.  The child is reaped with
``os.wait4`` to read its own CPU time and peak resident set.
"""

import os
import resource
import selectors
import subprocess
import time
from dataclasses import dataclass

DEFAULT_TIMEOUT_S = 15.0
DEFAULT_MEMORY_CAP = 1 << 30


@dataclass
class Outcome:
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    status: str  # "ok", "exit <code>", "signal <n>" or "timeout"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_guarded(argv, *, stdin: bytes = b"", env=None, cwd=None,
                timeout_s: float = DEFAULT_TIMEOUT_S,
                memory_cap: int = DEFAULT_MEMORY_CAP) -> Outcome:
    """Run ``argv`` to completion or until ``timeout_s``; never raises on
    the child's behalf."""

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd,
                            preexec_fn=limit_child)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    pidfd = os.pidfd_open(proc.pid)
    try:
        try:
            proc.stdin.write(stdin)
        except BrokenPipeError:
            pass
        proc.stdin.close()
        deadline = start + timeout_s
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            sel.register(pidfd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    if key.fileobj == pidfd:
                        sel.unregister(pidfd)
                        continue
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        os.close(pidfd)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    if timed_out:
        state = "timeout"
    elif proc.returncode < 0:
        state = f"signal {-proc.returncode}"
    elif proc.returncode:
        state = f"exit {proc.returncode}"
    else:
        state = "ok"
    return Outcome(b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                   wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   state)
