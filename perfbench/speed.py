"""Speed probe: how fast this CPU runs a fixed chunk of interpreter work.

On a shared host the CPU runs in slow and fast phases lasting from a
fraction of a second to minutes; on the 2-core machine (Python 3.11) this
benchmark was built on, the same pure-Python loop took between 0.038 and
0.066 s in consecutive one-second windows, and the median pass time of one
workload moved by 40% between runs a minute apart.  Timings are therefore reported
at a reference speed: while an interval is timed, SIGALRM runs a fixed
chunk of work every PERIOD_S of wall time, and

    scaled = (elapsed - time spent in the chunks)
             * REFERENCE_CHUNK_S / mean chunk time

is the interval's length on a CPU that runs the chunk in
REFERENCE_CHUNK_S.  The raw times are kept next to the scaled ones.

``python3 speed.py`` is the set-up probe: it imports the package and scipy
under the probe and prints ``[time in chunks, mean chunk time]``.
"""

import cmath
import json
import signal
import statistics
import time

PERIOD_S = 0.02
REFERENCE_CHUNK_S = 1e-4


def at_reference_speed(elapsed, spent, mean_chunk):
    """``elapsed`` net of ``spent`` in the probe, scaled to reference speed."""
    return (elapsed - spent) * REFERENCE_CHUNK_S / mean_chunk


class _Box:
    def __init__(self, value):
        self.value = value


def _chunk():
    # Attribute access, complex arithmetic and cmath calls, like the
    # package's own Python code: across slow and fast phases this chunk's
    # time tracked the workloads' pass times more closely (pass-to-pass
    # variation 7% after scaling, against 11% for a bare integer loop and
    # 25% unscaled).
    box = _Box(1.5 + 0.5j)
    acc = 0j
    for i in range(300):
        acc += cmath.exp(box.value * 1e-3 * i) / (1.0 + abs(acc))
        box.value *= 0.999
    return acc


class SpeedProbe:
    """Context manager sampling the chunk time while its block runs.

    The first sample is taken on entry, so every interval has one.
    """

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self):
        return sum(self.samples)

    def mean_chunk(self):
        return statistics.mean(self.samples)

    def scaled(self, elapsed):
        return at_reference_speed(elapsed, self.spent(), self.mean_chunk())


if __name__ == "__main__":
    with SpeedProbe() as probe:
        import scipy  # noqa: F401
        import semiclassics  # noqa: F401
        import semiclassics.cli  # noqa: F401
    print(json.dumps([probe.spent(), probe.mean_chunk()]), flush=True)
