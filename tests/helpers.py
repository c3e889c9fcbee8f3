"""Inputs and comparisons shared by the test modules."""

import numpy as np

from ctrlab.config import RunConfig

# The largest subnormal float64.
MAX_SUBNORMAL = np.nextafter(np.finfo(np.float64).tiny, 0.0)
# Signed zeros, the smallest and largest subnormals, infinities and NaN.
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, MAX_SUBNORMAL,
                           np.inf, -np.inf, np.nan])
# Finite special values: signed zeros and subnormals.
FINITE_SPECIALS = SPECIAL_VALUES[:5]
# Batch sizes on both sides of OpenBLAS's small-matrix kernels.
FOLD_ROWS = [1, 13, 26, 51, 128, 148, 256, 2_000]


def with_specials(shape, seed, values=SPECIAL_VALUES, scale=1.0, loc=0.0):
    """Normal draws of ``shape`` with ``values`` written over a third of the
    entries, each value at least once when the array is large enough."""
    rng = np.random.default_rng(seed)
    out = rng.normal(loc=loc, scale=scale, size=shape)
    flat = out.reshape(-1)
    spots = rng.permutation(flat.size)[:max(1, flat.size // 3)]
    flat[spots] = np.resize(values, spots.size)
    return out


def with_random_biases(net, seed):
    """``net`` with finite, nonzero bias rows, specials among them."""
    for i, (w, out) in enumerate(zip(net.weights, net.dims[1:])):
        w.values[-1, :out] = with_specials(out, seed + i, FINITE_SPECIALS,
                                           scale=0.3)
    return net


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: NaN payloads and zero signs count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_apart_from_nan(a, b) -> bool:
    """NaN at the same entries, and every other entry's bits equal: only a
    NaN's payload or sign may differ."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def assert_close(actual, want, name=""):
    """Within a relative 1e-12 of ``want``, or, for an entry that cancels to
    far below its array's scale, within 1e-12 of that scale."""
    np.testing.assert_allclose(actual, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max(initial=0.0),
                               err_msg=name)


def relative_error(a, b, floor=1e-4):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def numeric_gradient(f, values: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. every entry of ``values``.

    Mutates ``values`` in place during probing and restores it; used as the
    independent oracle against the hand-written backward passes.
    """
    grad = np.zeros_like(values)
    it = np.nditer(values, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = values[idx]
        values[idx] = orig + eps
        up = f()
        values[idx] = orig - eps
        down = f()
        values[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
        it.iternext()
    return grad


CHAIN3 = [[1.0, 0.8, 0.0], [0.8, 1.0, 0.8], [0.0, 0.8, 1.0]]
FIXED = [[0], [0, 1], [1, 2]]


def tiny_config(mode: str, seed: int = 5) -> RunConfig:
    """Three chained domains, small enough to train in a fraction of a
    second; patience covers every epoch, so every run trains all of them."""
    return RunConfig(
        domains=3,
        dataset={"kind": "synth", "affinity": CHAIN3, "noise": [0.0] * 3,
                 "sizes": [240, 200, 160]},
        seed=seed, mode=mode, expert_counts=[1, 2, 1], batch_size=24,
        learning_rate=0.5, num_prototypes=4, selection_interval=3, epochs=3,
        early_stop_patience=3,
        fixed_subsets=FIXED if mode == "fixed-subset" else None)
