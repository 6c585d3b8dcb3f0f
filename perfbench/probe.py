"""A fixed reference load, sampled while the workload runs, for normalising
times to one machine speed.

The host this benchmark runs on is shared: the same CPU work can take twice as
long from one minute to the next, and from one second to the next.  `probe()`
times a fixed piece of work that does not touch flowcert and is shaped like
it: small-array numpy arithmetic (the MCF right-hand side at N = 801) and
scalar Python calls (what a scalar root solve spends its time on).

`Sampler` runs the probe from a SIGALRM handler once per interval, in the main
thread between two bytecodes of whatever the workload is doing, so the samples
spread evenly over the pass and see the machine at the same moments the
workload does.  Sampling takes about 3% of the pass; `clock()` leaves it out.
"""

import signal
import time

import numpy as np

_NUMPY_CALLS = 400
_SCALAR_CALLS = 25_000
_W = np.linspace(0.0, 1e-3, 801)


def _rhs_like(w: np.ndarray) -> np.ndarray:
    a, b, c = w[2:], w[:-2], w[1:-1]
    w_z = (a - b) * 10.0
    w_zz = (a - 2.0 * c + b) * 400.0
    out = np.zeros_like(w)
    out[1:-1] = w_zz / (1.0 + w_z * w_z) + c * (2.0 + c) / (2.0 * (1.0 + c)) - 0.5 * w_z
    return out


def _scalar(t: float) -> float:
    return t ** 1.5 + 2.0 * t - 1.0


def probe() -> float:
    """Seconds this process takes for the fixed reference load (about 17 ms)."""
    start = time.perf_counter()
    for _ in range(_NUMPY_CALLS):
        _rhs_like(_W)
    acc = 0.0
    for i in range(_SCALAR_CALLS):
        acc += _scalar(i * 1e-6)
    return time.perf_counter() - start


class Sampler:
    """Probe samples every `interval` seconds of wall time while active."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: list[float] = []
        self._sampled = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())
        self._sampled += self.samples[-1]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling so far."""
        return time.perf_counter() - self._sampled
