"""Measuring how fast this machine runs while a workload runs.

The benchmark shares a host whose speed drifts by tens of percent within
seconds.  ``SpeedSampler`` interrupts the process every ``PERIOD_S`` seconds
(SIGALRM) and times one short reference burst.  The burst does the kind of
work phasekit does (numpy element-wise arithmetic, ``numpy.roll``, real FFTs
and Python-level calls on 512- to 16384-node arrays) but calls no phasekit
code, so no change to the program can move it.  run.py scales each measured
interval by ``REFERENCE_BURST_S`` ÷ the mean burst time during it, so that
drifts of the host's speed cancel, and subtracts the bursts' own time.
The set-up, which includes importing numpy, is scaled by ``SETUP_BURSTS``
bursts taken right after it instead.
"""

import signal
import time

import numpy as np

SIZES = (512, 2048, 2048, 16384)
PERIOD_S = 0.1
SETUP_BURSTS = 50         # taken right after the set-up, to scale it
# mean burst time on the machine where the baseline was taken (2-core
# Xeon VM, quiet host); reported times are at that speed
REFERENCE_BURST_S = 0.0032


def burst_seconds() -> float:
    """Wall time of one pass over the reference work."""
    t0 = time.perf_counter()
    sink = 0.0
    for n in SIZES:
        f = np.linspace(0.5, 2.0, n)
        for _ in range(4):
            g = (np.roll(f, -1) - np.roll(f, 1)) * 0.5
            h = np.fft.irfft(np.fft.rfft(f) * 0.999, n=n)
            f = 0.5 * (f + h) + 1e-9 * g * g / (1.0 + f)
            sink += float(np.max(f)) + float(np.sum(g))
    elapsed = time.perf_counter() - t0
    if sink != sink:
        raise FloatingPointError("reference burst produced NaN")
    return elapsed


class SpeedSampler:
    """Times a reference burst every PERIOD_S seconds of the process's life
    between ``start`` and ``stop``.  The timer is re-armed after each burst,
    so bursts never pile up when the host is slow."""

    def __init__(self):
        self.bursts = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.bursts.append(burst_seconds())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        burst_seconds()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> list:
        """Stop sampling; take one last burst so that no interval is left
        without a sample, and return all burst times."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.bursts.append(burst_seconds())
        return self.bursts


if __name__ == "__main__":
    print([burst_seconds() for _ in range(5)])
