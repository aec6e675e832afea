import collections

import numpy as np
import pytest

from sinkbridge import discrete, models


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


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of numpy eigh, eigvalsh, svd, solve, qr and slogdet calls made while the test runs.

    ``svd`` counts every SVD, ``norm_svd`` the share that spectral norms make.
    A batched call on a stack counts once.
    """
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "solve", "qr", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    # np.linalg.norm(a, 2) reaches svd through the implementation module;
    # those calls count as svd and, on their own, as norm_svd
    monkeypatch.setattr(np.linalg._linalg, "svd", counting("svd", counting("norm_svd", np.linalg._linalg.svd)))
    return counts
