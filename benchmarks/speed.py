"""The benchmark's clock, and the machine-speed probe for the timings of one operation.

Every time is taken on `clock`, the CPU time of this process. The benchmark
runs recirc on one thread, with no sleeps and only buffered file writes, so on
an unshared machine this clock and the wall clock agree. On the shared VM this
benchmark was defined on, the hypervisor also takes the vCPU away in bursts
(steal time): the wall clock counts those, the process's CPU clock does not.
A change that moved work to other threads would still have it counted, but
would not show a gain from running them in parallel.

The host also changes speed by 20-30% over tens of seconds, as other
tenants load it, which moves both clocks alike. A short fixed kernel that
never calls recirc (quadrature-style numpy on small arrays and a Python loop,
about 0.65 ms) is run at every time step of an operation and in bursts before
the command starts and when its set-up ends. Its own time is left out of
every measured time. The operation's times are
multiplied by REFERENCE_S over the probe's trimmed mean time, which reports
them at the speed the machine had when the benchmark was defined. Because the
probe samples the machine while the operation runs, it follows the drift that
a calibration taken only between operations misses.
"""

import statistics
import time

import numpy as np

clock = time.process_time
REFERENCE_S = 0.00065  # typical probe time on the reference machine (see README.md)
BURST = 20             # probes before the command and at the end of its set-up
WARM_UP = 5            # untimed probes, so numpy's first-call costs are not sampled
TRIM = 0.1             # share of samples dropped at each end of the trimmed mean

_rng = np.random.default_rng(0)
_GRADS = _rng.random((128, 12, 6, 2))
_DOFS = _rng.random((128, 6))
_IDX = _rng.integers(0, 300, 128 * 6)


def kernel():
    """Time on `clock` of one pass of the fixed probe kernel."""
    t0 = clock()
    for _ in range(2):
        G = _GRADS.transpose(0, 2, 1, 3).reshape(128, 6, 24)
        vals = (_DOFS[:, None, :] @ G).reshape(128, 12, 2)
        eps = 0.5 * (vals[..., None] + vals[..., None, :])
        mag = np.sqrt((eps * eps).sum(axis=(-2, -1)))
        np.bincount(_IDX, weights=np.repeat(mag.sum(axis=1), 6), minlength=300)
    acc = 0
    for i in range(2000):
        acc += i * i
    return clock() - t0


def trimmed_mean(values, trim=TRIM):
    """Mean of the values without the lowest and highest `trim` share."""
    xs = sorted(values)
    k = int(len(xs) * trim)
    return statistics.fmean(xs[k:len(xs) - k])


class Probe:
    """Probe samples of one operation, the time spent on them, and its speed factor.

    Calling the probe runs the kernel `reps` times (or `n` times). `spent_s`
    is the time of all calls on `clock`, so callers can take it out of their
    own measurements.
    """

    def __init__(self, reps, kernel=kernel, reference=REFERENCE_S):
        self.reps = reps
        self.kernel = kernel
        self.reference = reference
        self.samples = []
        self.spent_s = 0.0
        for _ in range(WARM_UP):
            kernel()

    def __call__(self, n=None):
        t0 = clock()
        for _ in range(n or self.reps):
            self.samples.append(self.kernel())
        self.spent_s += clock() - t0

    def factor(self):
        """Reference probe time over the operation's trimmed mean probe time."""
        return self.reference / trimmed_mean(self.samples)
