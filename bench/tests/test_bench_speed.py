"""The speed sampler: restores the signal state, and its arithmetic."""

import signal
import time

import speed


def test_sampler_samples_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(0.005)
    with sampler:
        out, cpu = speed.cpu_seconds(lambda: sum(i * i for i in range(10**6)),
                                     sampler)
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert out == sum(i * i for i in range(10**6))
    assert sampler.times and 0 < cpu
    assert sampler.total_s >= sum(sampler.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_uses_the_steps_since_a_mark_or_falls_back():
    sampler = speed.Sampler(1.0)
    assert sampler.scale(0) == 1.0
    ref = speed.REFERENCE_STEP_S
    sampler.times = [ref, 2 * ref, 4 * ref]
    assert sampler.scale(1) == ref / (3 * ref)
    assert sampler.scale(3) == 3 * ref / (7 * ref)
