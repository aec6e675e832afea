import collections

import numpy as np
import pytest

from sinkbridge import discrete, models, spd


@pytest.fixture
def hard_zero_target_model():
    """The default 1-d grid with eta a standard normal cut off below x = -3 (V = +inf there)."""
    grid = discrete.uniform_grid(1, 64, 8.0)
    quad = models.quadratic_potential([0.0], [[1.0]])

    def v_fn(points):
        out = quad(points)
        out[points[:, 0] < -3.0] = np.inf
        return out

    return discrete.build_model(quad, v_fn, models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]]), grid)


class _Decompositions(collections.Counter):
    """A Counter of decomposition calls that remembers each decomposed input until it is cleared."""

    def __init__(self):
        super().__init__()
        self.inputs = set()

    def clear(self):
        super().clear()
        self.inputs.clear()

    def record(self, name, a):
        a = np.asarray(a)
        key = (name, a.shape, a.dtype.str, a.tobytes())
        self[name] += 1
        if key in self.inputs:
            self["repeated"] += 1
        self.inputs.add(key)


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of numpy eigh, eigvalsh, svd, solve, qr and slogdet calls made while the test runs.

    ``svd`` counts every SVD, ``norm_svd`` the share that ``spd.spectral_norm``
    and ``spd.condition_number`` make.  A batched call on a stack counts once.
    ``repeated`` counts the calls whose input, by shape and bytes, the same
    numpy function has already decomposed since the test began or last
    called ``clear``; the key appears once a call repeats.
    """
    counts = _Decompositions()

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            counts.record(name, a)
            return fn(a, *args, **kwargs)

        return wrapper

    def norm_counting(fn):
        def wrapper(*args, **kwargs):
            counts["norm_svd"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "solve", "qr", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    # the spd helpers call np.linalg.svd, counted as svd above; each call of theirs is one norm_svd too
    for name in ("spectral_norm", "condition_number"):
        monkeypatch.setattr(spd, name, norm_counting(getattr(spd, name)))
    return counts
