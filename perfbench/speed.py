"""Host-speed reference for CPU-time measurements on a shared host.

A shared host's CPU throughput drifts by a fifth or more over tens of
seconds and dips for fractions of a second, and it slows the measured code
and any other code alike.  So the measured process is pinned to one CPU,
and a reference process at the lowest priority shares that CPU with it and
runs a fixed pure-Python chunk over and over.  The scheduler interleaves
the two every few milliseconds, including during a long call into C, so
the chunks' mean CPU time over an interval tracks how fast that CPU ran
the measured code in the same interval.  An interval's CPU time times the
speed, ``PYTHON_CHUNK_S`` over the chunks' mean CPU time, is its
normalized CPU time.
"""

from __future__ import annotations

import mmap
import os
import resource
import signal
import struct
import time

#: About the median CPU seconds of ``python_chunk`` on a shared 2-vCPU
#: Intel Xeon virtual machine.  It only fixes the scale: normalized seconds
#: read as CPU seconds at that typical speed.
PYTHON_CHUNK_S = 0.0015

#: Niceness of the reference process: while the measured process is
#: runnable, the scheduler gives the reference about 1/70 of the CPU.
NICE = 19

#: Shared counters: chunks completed, CPU seconds spent in them.
_COUNTERS = struct.Struct("dd")


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU seconds of this process (and, for
    ``RUSAGE_CHILDREN``, of its children that have ended).  Time the
    hypervisor gives this virtual CPU to other guests is not in it."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def python_chunk() -> None:
    """Fixed work in pure Python: interpreter dispatch and small objects.
    A 1024x1024 eigensolve's CPU time follows this chunk's more closely
    than that of a chunk of small numpy and LAPACK calls."""
    acc = 0
    for i in range(16000):
        acc += i * i
    {str(i): i for i in range(1600)}


class SpeedReference:
    """Pins this process to one CPU and forks the reference process onto
    it.  ``close`` stops and reaps it; the reference also ends by itself
    when this process is gone."""

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._shared = mmap.mmap(-1, _COUNTERS.size)
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self._loop(os.getppid())
            finally:
                os._exit(0)
        while self.read()[0] < 1:  # so that ``speed`` has a fallback
            time.sleep(0.001)

    def _loop(self, parent: int) -> None:
        # Ended by ``close``: no handler inherited from the parent may keep
        # SIGTERM from ending it, and a terminal's Ctrl-C is the parent's.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.nice(NICE)
        chunks, spent = 0, 0.0
        while os.getppid() == parent:
            start = time.process_time()
            python_chunk()
            spent += time.process_time() - start
            chunks += 1
            _COUNTERS.pack_into(self._shared, 0, chunks, spent)

    def read(self) -> tuple:
        """The counters now: chunks completed and their CPU seconds."""
        return _COUNTERS.unpack_from(self._shared, 0)

    def speed(self, since: tuple, until: tuple) -> float:
        """The CPU's speed between two readings, ``PYTHON_CHUNK_S`` over the
        chunks' mean CPU time.  An interval too short for a whole chunk
        takes the speed since the reference started."""
        chunks, spent = until[0] - since[0], until[1] - since[1]
        if chunks < 1:
            chunks, spent = until
        return PYTHON_CHUNK_S * chunks / spent

    def close(self) -> None:
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        self._shared.close()
