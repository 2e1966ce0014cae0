"""Timing at a fixed host speed.

The benchmark runs on a few cores of a shared host. Each core switches
between a fast and a slow state (about 2x apart) every few seconds, as
neighbours come and go, and process CPU time slows with it; so raw times of
the same code spread far more than a bound a regression could be judged by.
The drift is not in the code under test: a short fixed probe timed next to
the work, on the same core, slows in step with it, and the ratio of the two
stays within a few per cent.

So every timed block is sampled: a SIGALRM timer interrupts it every tenth
of a second (``floor``: every fifth) and runs a probe in the same thread,
and one probe runs just before and one just after. Each probe gives the core's speed at that moment,
its reference time over its measured time. The block's normalised time is
its own time (probe time taken out) times the mean of those speeds: the
seconds the same work takes on a core where the probe takes its reference
time. Speeds are averaged rather than times, so a probe that a context switch
stretched pulls the mean down by at most ``1 / samples``.

The probe has to do the kind of work the block does:

- ``numpy``: small array calls on a 100 x 10 matrix driven from Python, the
  mix the Python-bound workloads run;
- ``python``: plain interpreter work, for ``import margin_lab``, which runs
  before numpy is loaded;
- ``floor``: the two BLAS passes over run-large's 80 MB matrix. run-large's
  time goes to such passes, which do not follow the small probes (its time
  over the ``numpy`` probe's spread 35 % within a run), but do follow this
  one: over three 25 s runs, one with a second busy process on the host, the
  median raw unit took 0.60 to 1.52 s and the normalised one 0.84 to 0.89 s.
"""

from __future__ import annotations

import math
import signal
import time

_small = []  # the numpy probe's 100 x 10 matrix and vector, made on first use


def _numpy_burst() -> None:
    if not _small:
        import numpy as np

        _small.extend([np, np.random.default_rng(0).standard_normal((100, 10)), np.full(10, 0.01)])
    np, z, w = _small
    for _ in range(30):
        float(np.exp(-(z @ w)).sum())


def _python_burst() -> None:
    x, d = 0.0, {}
    for i in range(800):
        x += (i * 0.5) % 7.0
        d[i & 63] = x


class Probe:
    """A fixed burst of work and its seconds on the reference host: an Intel
    Xeon with 2 vCPUs, in a quiet phase. The reference only sets the scale of
    the normalised seconds. A probe takes the fastest of ``repeats`` bursts,
    so a burst cut by a context switch is dropped."""

    def __init__(self, burst, ref_s: float, repeats: int = 3, interval_s: float = 0.1):
        self.burst, self.ref_s, self.repeats, self.interval_s = burst, ref_s, repeats, interval_s

    def seconds(self) -> float:
        best = math.inf
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.burst()
            best = min(best, time.perf_counter() - t0)
        return best


PROBES = {"numpy": Probe(_numpy_burst, 0.1e-3), "python": Probe(_python_burst, 0.09e-3)}

# bytes per second of the floor probe's two passes on the reference host
FLOOR_REF_BYTES_PER_S = 21e9


def use_floor_matrix(z) -> None:
    """Add the ``floor`` probe: ``z @ w`` plus ``c @ z`` over the workload's
    own matrix, the two passes a descent step cannot avoid. Each costs about
    8 ms at run-large's size, so it is sampled less often and once a time."""
    import numpy as np

    w = np.full(z.shape[1], 1.0 / np.sqrt(z.shape[1]))
    c = np.full(z.shape[0], 1.0 / z.shape[0])

    def burst():
        z @ w
        c @ z

    PROBES["floor"] = Probe(burst, 2 * z.nbytes / FLOOR_REF_BYTES_PER_S,
                            repeats=1, interval_s=0.2)


def core_speed(kind: str = "numpy") -> float:
    """The host's speed now: the probe's reference time over its time."""
    probe = PROBES[kind]
    return probe.ref_s / probe.seconds()


class Sampler:
    """Times one block of work with the probe named ``kind``, or raw if
    ``kind`` is None; ``seconds`` is normalised, ``raw_s`` is not.

        with Sampler() as s:
            work()
        s.seconds, s.raw_s, s.speed
    """

    def __init__(self, kind: str | None = "numpy"):
        self.kind = kind
        self.speeds: list[float] = []
        self._probe_s = 0.0
        self._busy = False
        self.raw_s = math.nan
        self.seconds = math.nan

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.speeds.append(core_speed(self.kind))
        self._probe_s += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        if self.kind is not None:
            self.speeds.append(core_speed(self.kind))
            self._old = signal.signal(signal.SIGALRM, self._sample)
            interval = PROBES[self.kind].interval_s
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        if self.kind is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self.speeds.append(core_speed(self.kind))
        self.raw_s = elapsed - self._probe_s
        self.seconds = self.raw_s * self.speed

    @property
    def speed(self) -> float:
        return sum(self.speeds) / len(self.speeds) if self.speeds else 1.0
