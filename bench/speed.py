"""The host's current speed, sampled while the benchmark's calls run.

The benchmark's machine is a guest on a shared host. Other guests slow it
down by up to a half, in bursts that come and go over seconds to minutes,
and a burst slows every call that overlaps it. While a ``Sampler`` is
active, a SIGALRM handler runs a fixed reference step every few tens
of milliseconds of wall time, in the middle of whatever the benchmark is
timing, and records the CPU seconds it took. ``cpu_seconds`` times
a call in CPU seconds less the steps that interrupted it, and
``Sampler.scale`` turns the steps taken during a span of calls into the
factor that brings their times to the reference speed. On a 2-vCPU Intel
Xeon guest, 33 repeats of one sdsp-chain4 training job took 5.6 to 8.7
CPU seconds (IQR/median 0.19); rescaled by the first part of the step
below alone, their IQR/median was 0.03.

The step mixes the kinds of work a ``ctrlab`` run does, so the host's
bursts slow the step and the program by about as much. It trains a small
two-layer network by hand in numpy three times: on four 256-row batches,
on eight 32-row batches, where the per-call overhead dominates, and on
one 1024-row batch, where the arithmetic counts; then it runs a
pure-Python dict-and-sort loop. On the same guest, in cycles of one
sdsp-blocks8-csv evaluation phase and two one-epoch training phases, the
mixed step left 15% less scatter in the rescaled times than its first
part alone, and followed the host's bursts more closely. It uses no
``ctrlab`` code, so a change to the program cannot change the step's
speed or cancel out of the ratio.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds per sampled step at the reference speed: about the mean of
# a sample taken during a training job on the 2-vCPU Intel Xeon guest
# above, so rescaled times stay close to the seconds that guest gives.
REFERENCE_STEP_S = 960e-6


class _Network:
    """A two-layer network with fixed batches, trained in place."""

    def __init__(self, rng, batches: int, rows: int, features: int,
                 hidden: int):
        self.batches = [(rng.standard_normal((rows, features)),
                         (rng.random(rows) < 0.5).astype(float))
                        for _ in range(batches)]
        self.w1 = 0.3 * rng.standard_normal((features, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = 0.3 * rng.standard_normal((hidden, 1))
        self.b2 = np.zeros(1)

    def train(self) -> None:
        for x, y in self.batches:
            z = x @ self.w1 + self.b1
            h = np.maximum(z, 0.0)
            p = 1.0 / (1.0 + np.exp(-(h @ self.w2 + self.b2).ravel()))
            dout = (p - y)[:, None] / len(y)
            dz = (dout @ self.w2.T) * (z > 0)
            self.w2 = self.w2 - 0.01 * (h.T @ dout)
            self.b2 = self.b2 - 0.01 * dout.sum(axis=0)
            self.w1 = self.w1 - 0.01 * (x.T @ dz)
            self.b1 = self.b1 - 0.01 * dz.sum(axis=0)


class ReferenceStep:
    """Fixed inputs and the state the step keeps updating."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.networks = [_Network(rng, 4, 256, 8, 8),
                         _Network(rng, 8, 32, 8, 8),
                         _Network(rng, 1, 1024, 16, 32)]
        self.keys = list(range(300))

    def __call__(self) -> None:
        for network in self.networks:
            network.train()
        totals = {}
        for i in self.keys:
            key = (i * 7) % 97
            totals[key] = totals.get(key, 0) + i
        sorted(totals.items(), key=lambda item: item[1])


class Sampler:
    """Samples ReferenceStep every ``interval`` seconds of wall time while
    the ``with`` block runs; ``times`` holds each sample's CPU seconds per
    step and ``total_s`` the running sum of all the sampler's CPU time."""

    def __init__(self, interval: float):
        self.step = ReferenceStep()
        self.interval = interval
        self.times = []
        self.total_s = 0.0

    def _sample(self, signum, frame) -> None:
        # The first step brings the step's data back into the caches, so
        # the second one's time depends on the host, not on what the
        # interrupted code left there.
        start = time.process_time()
        self.step()
        warm = time.process_time()
        self.step()
        end = time.process_time()
        self.times.append(end - warm)
        self.total_s += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int) -> float:
        """Reference step time over the mean step taken since ``times``
        had ``since`` entries; over all steps if none was taken since,
        and 1.0 if there are none at all."""
        recent = self.times[since:] or self.times
        if not recent:
            return 1.0
        return REFERENCE_STEP_S * len(recent) / sum(recent)


def cpu_seconds(fn, sampler: Sampler | None = None):
    """(fn(), CPU seconds it took, less the sampler's steps during it)."""
    taken = sampler.total_s if sampler else 0.0
    start = time.process_time()
    out = fn()
    elapsed = time.process_time() - start
    return out, elapsed - ((sampler.total_s - taken) if sampler else 0.0)
