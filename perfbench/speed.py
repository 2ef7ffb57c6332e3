"""Machine-speed monitor for normalising wall times on a shared machine.

A virtual CPU shared with other tenants runs the same code at speeds that
differ by up to 1.5x from one second to the next, which swamps the run-to-run
differences the benchmark exists to show.  The monitor samples the speed
while the workload runs: an interval timer interrupts the main thread every
``period`` seconds, and the handler times a fixed calibration kernel in
thread CPU time (so preemption does not count, only how fast the CPU runs
it).  Code slows differently under contention, so the kernel mixes
small-array work with a memory-bound gather, as the workloads do.  A
wall-clock interval is then scaled by the mean kernel time observed during
it, relative to a fixed reference kernel time.
"""

import contextlib
import os
import signal
import time
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

_RNG = np.random.default_rng(0)
_A, _B = _RNG.standard_normal((50, 5)), _RNG.standard_normal((50, 5))
_I, _J = _RNG.integers(0, 50, 40), _RNG.integers(0, 50, 40)
_Y = _RNG.standard_normal(40)
_X = _RNG.standard_normal(20000)
_BIG = _RNG.standard_normal(2_000_000)
_SCATTERED = _RNG.integers(0, _BIG.size, 50_000)


def compute_kernel():
    """Fixed calibration work shaped like the package's small-array hot paths.

    Small conditional-Gaussian updates (gather, 5x5 Cholesky, triangular
    solves) as in a Gibbs row draw, an interpreter loop, and one pass over a
    20,000-element array.  Like the other kernel it calls numpy and scipy
    only, never linkpattern, so changes to the package do not move it.
    """
    rng = np.random.default_rng(1)
    total = 0.0
    for _ in range(4):
        design = _A[_I] * _B[_J]
        precision = np.eye(5) + 2.0 * design.T @ design
        chol = np.linalg.cholesky(0.5 * (precision + precision.T))
        mean = cho_solve((chol, True), 2.0 * design.T @ _Y)
        draw = mean + solve_triangular(chol, rng.standard_normal(5), trans="T", lower=True)
        total += float(draw.sum())
    for i in range(300):
        total += i * 1e-9
    return total + float(np.dot(_X * 0.5, _X))


def memory_kernel():
    """Fixed calibration work bound by memory: a scattered gather from 16 MB."""
    return float(_BIG[_SCATTERED].sum())


def kernel():
    """Both kernels, one after the other: the workloads do both kinds of work."""
    return compute_kernel() + memory_kernel()


# Thread CPU time of ``kernel`` at reference speed, in seconds: its typical
# time between the workloads' own steps on the two-vCPU machine the benchmark
# was built on, so that reported seconds are close to wall seconds there.
REFERENCE_KERNEL_S = 1.2e-3


class SpeedMonitor:
    """Samples (wall time, kernel CPU time) every ``period`` seconds while running."""

    def __init__(self, period=0.1):
        self.period = period
        self.samples = []
        self._previous = None
        self._child_dir = None   # set while forked children sample instead
        self._child_fd = None    # in such a child: where its samples go

    def _sample(self, _signum, _frame):
        kernel()  # refills the caches the workload evicted; only the second run counts
        start = time.thread_time()
        kernel()
        sample = (time.perf_counter(), time.thread_time() - start)
        if self._child_fd is None:
            self.samples.append(sample)
        else:
            line = f"{sample[0]!r} {sample[1]!r} {time.process_time()!r}\n"
            os.write(self._child_fd, line.encode())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        self._start()
        return self

    def _after_fork_in_child(self):
        if self._child_dir is None:
            return
        path = os.path.join(self._child_dir, f"speed-{os.getpid()}.txt")
        self._child_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def _start(self):
        """Start sampling, and stay busy long enough for the next interval to see samples.

        Busy rather than asleep: an idle process runs the kernel slower.
        """
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        end = time.perf_counter() + 6 * self.period
        while time.perf_counter() < end:
            kernel()

    @contextlib.contextmanager
    def in_workers(self, directory):
        """Sample inside the processes forked during the block, not in this one.

        This process only waits on them, and a waiting process runs the
        kernel slower for reasons other than the machine.  Each child writes
        its samples to a file in ``directory``; the ones a child took while
        busy (it used most of the CPU since its previous sample) join
        ``samples`` afterwards.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._child_dir = str(directory)
        try:
            yield
        finally:
            self._child_dir = None
            for path in sorted(Path(directory).glob("speed-*.txt")):
                rows = [tuple(map(float, line.split())) for line in path.read_text().splitlines()]
                path.unlink()
                self.samples.extend(
                    (wall, kernel_s)
                    for (wall0, _k0, cpu0), (wall, kernel_s, cpu) in zip(rows, rows[1:])
                    if cpu - cpu0 > 0.5 * (wall - wall0))
            self.samples.sort()
            self._start()

    def __exit__(self, *exc):
        self._child_dir = None
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start, end, margin=1.0):
        """Mean kernel time around [start, end] over the reference kernel time.

        Values above 1 mean the machine ran slower than the reference.  The
        window widens by ``margin`` seconds on each side, so that short
        intervals still see samples; samples after the call are not yet taken.
        """
        times = [k for t, k in self.samples if start - margin <= t <= end + margin]
        if not times:
            raise ValueError(f"no speed samples in [{start:.3f}, {end:.3f}]")
        return float(np.mean(times)) / REFERENCE_KERNEL_S

    def normalise(self, start, end):
        """Seconds the interval [start, end] would take at reference speed."""
        return (end - start) / self.factor(start, end)
