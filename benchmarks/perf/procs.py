"""Child processes measured from outside: wall, CPU and peak RSS.

Every end-to-end number is taken here, around a child running one of
the program's public entry points: wall clock from spawn to exit, and
``ru_utime + ru_stime`` / ``ru_maxrss`` of the child *and its waited
descendants* from ``os.wait4`` (so a fleet's workers are counted).

Linux folds the spawning process's peak resident size into the
child's ``ru_maxrss`` at ``exec``, so a parent that was ever larger
than the child would make ``peak_rss_mb`` report the benchmark instead
of the program.  The orchestrator therefore stays small (no numpy, no
corpora) until all end-to-end runs are done, and
:meth:`ChildResult.peak_rss_mb` refuses a reading that is not above this
process's own peak.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from benchmarks.perf import ROOT, SRC

#: no single child may run longer than this (seconds)
CHILD_TIMEOUT = 150.0


@dataclass
class ChildResult:
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mb: float
    returncode: int
    #: perf_counter() when the child had exited
    ended: float
    #: this process's own peak RSS when the child was reaped
    spawner_peak_mb: float

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.sys_s

    def peak_rss_mb(self) -> float:
        """``ru_maxrss`` in MiB, refused when it cannot be the child's."""
        if self.maxrss_mb <= self.spawner_peak_mb + 1.0:
            raise RuntimeError(
                f"child peak RSS {self.maxrss_mb:.1f} MiB is not above "
                f"the benchmark process's own peak; the reading would "
                f"describe the benchmark, not the program"
            )
        return self.maxrss_mb


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + inherited if inherited else ""
    )
    return env


def repro_argv(*args) -> list:
    """``python -m repro ...`` as a child would be typed."""
    return [sys.executable, "-m", "repro", *map(str, args)]


def _own_peak_rss_mb() -> float:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Child:
    """One spawned child in its own process group."""

    def __init__(self, argv, log_path: pathlib.Path) -> None:
        self.argv = list(argv)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self._proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.pid = self._proc.pid

    def _kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float = CHILD_TIMEOUT) -> ChildResult:
        """Block until exit; kills the whole group at ``timeout``."""
        timed_out = threading.Event()

        def expire():
            timed_out.set()
            self._kill_group()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(self.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            self.abort()
            raise
        finally:
            timer.cancel()
            self._log.close()
        ended = time.perf_counter()
        # subprocess must not wait on the pid a second time
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            self._reap_group()
            raise RuntimeError(
                f"child exceeded {timeout:.0f}s and was killed: "
                f"{' '.join(self.argv)}"
            )
        return ChildResult(
            wall_s=ended - self.started,
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            returncode=self._proc.returncode,
            ended=ended,
            spawner_peak_mb=_own_peak_rss_mb(),
        )

    def _reap_group(self) -> None:
        """After a kill: wait until no group member is left."""
        for _ in range(200):
            try:
                os.killpg(self.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def abort(self) -> None:
        """Stop a child that is no longer wanted (error paths)."""
        if self._proc.returncode is None:
            self._kill_group()
            try:
                os.wait4(self.pid, 0)
            except ChildProcessError:
                pass
            self._proc.returncode = -signal.SIGKILL
            self._reap_group()
        if not self._log.closed:
            self._log.close()


def run(argv, log_path, timeout: float = CHILD_TIMEOUT) -> ChildResult:
    return Child(argv, log_path).wait(timeout)


def check(result: ChildResult, log_path, what: str) -> None:
    """Raise with the tail of the child's output on a non-zero exit."""
    if result.returncode != 0:
        tail = pathlib.Path(log_path).read_text(errors="replace")[-2000:]
        raise RuntimeError(
            f"{what} exited {result.returncode}:\n{tail}"
        )
