import json

import numpy as np
import pytest

from sinkbridge import cli, gaussian, riccati, spd
from sinkbridge.errors import DomainError, ShapeError
from sinkbridge.riccati import INFINITE


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return spd.symmetrize(a @ a.T + scale * np.eye(d))


def iteration_oracle(varpi, r0, n=200):
    """Independent fixed-point oracle: iterate the raw formula directly."""
    varpi = np.atleast_2d(np.asarray(varpi, dtype=float))
    r = np.atleast_2d(np.asarray(r0, dtype=float))
    eye = np.eye(varpi.shape[0])
    for _ in range(n):
        r = np.linalg.inv(eye + np.linalg.inv(varpi + r))
    return r


GOLDEN = float(iteration_oracle([[1.0]], [[0.0]])[0, 0])  # 0.6180339887...


def test_ricc_map_scalar():
    assert np.allclose(riccati.ricc_map(np.array([[1.0]]), np.zeros((1, 1))), [[0.5]])


def test_ricc_map_fixed_value_from_iteration_oracle():
    assert abs(GOLDEN - 0.6180339887) < 1e-9
    out = riccati.ricc_map(np.array([[1.0]]), np.array([[GOLDEN]]))
    assert abs(out[0, 0] - GOLDEN) < 1e-12


def test_ricc_map_infinite_returns_identity():
    s = np.diag([0.3, 0.9])
    assert np.array_equal(riccati.ricc_map(INFINITE, s), np.eye(2))


def test_ricc_map_dim_mismatch():
    with pytest.raises(ShapeError):
        riccati.ricc_map(np.eye(2), np.zeros((3, 3)))


def test_fixed_point_golden_ratio():
    r = riccati.fixed_point(np.array([[1.0]]))
    assert abs(r[0, 0] - GOLDEN) < 1e-14
    assert abs(r[0, 0] - 0.6180339887) < 1e-9


def test_fixed_point_diagonal_entrywise():
    r = riccati.fixed_point(np.diag([1.0, 4.0]))
    r1 = iteration_oracle([[1.0]], [[0.0]])[0, 0]
    r4 = iteration_oracle([[4.0]], [[0.0]])[0, 0]
    assert np.allclose(np.diag(r), [r1, r4], atol=1e-13)
    assert abs(r[1, 1] - 0.8284271247) < 1e-9


def test_fixed_point_like_infinite():
    assert np.array_equal(riccati.fixed_point_like(INFINITE, 3), np.eye(3))


def test_fixed_point_identities_scalar():
    rep = riccati.fixed_point_identities(np.array([[1.0]]))
    # r + r^2 = 0.618034 + 0.381966 = 1
    assert rep["quadratic_identity_residual"] < 1e-12
    assert rep["ok"]


def test_fixed_point_identities_identity_d3():
    rep = riccati.fixed_point_identities(np.eye(3))
    assert rep["quadratic_identity_residual"] < 1e-10


def test_fixed_point_identities_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        rep = riccati.fixed_point_identities(random_spd(rng, d, scale=rng.uniform(0.1, 2.0)))
        assert rep["ok"]
        assert rep["quadratic_identity_residual"] < 1e-9
        assert rep["inverse_identity_residual"] < 1e-9


def test_decay_params_scalar():
    delta, c = riccati.decay_params(np.array([[1.0]]))
    assert abs(delta - (1.0 + 1.0 + GOLDEN) ** -2) < 1e-14
    assert abs(delta - 0.1458980338) < 1e-9
    assert c > 0


def test_decay_params_monotone_in_scale():
    d10, _ = riccati.decay_params(np.array([[10.0]]))
    d100, _ = riccati.decay_params(np.array([[100.0]]))
    assert d100 < d10 < 1.0


def test_decay_params_diag_uses_min_eigenvalue():
    delta, _ = riccati.decay_params(np.diag([1.0, 4.0]))
    delta_scalar, _ = riccati.decay_params(np.array([[1.0]]))
    assert abs(delta - delta_scalar) < 1e-14


def test_iterate_constant_at_fixed_point():
    varpi = np.array([[1.0]])
    r = riccati.fixed_point(varpi)
    traj = riccati.iterate(varpi, r, 5)
    assert len(traj) == 6
    for s in traj:
        assert abs(s[0, 0] - r[0, 0]) < 1e-14


def test_iterate_first_step_and_convergence():
    traj = riccati.iterate(np.array([[1.0]]), np.zeros((1, 1)), 50)
    assert abs(traj[1][0, 0] - 0.5) < 1e-15
    assert abs(traj[50][0, 0] - GOLDEN) < 1e-12


def test_scalar_closed_form_at_fixed_point():
    r = GOLDEN
    for n in [0, 1, 7]:
        assert abs(riccati.scalar_closed_form(1.0, r, n) - r) < 1e-13


def test_scalar_closed_form_matches_iteration():
    assert abs(riccati.scalar_closed_form(1.0, 0.0, 1) - 0.5) < 1e-14
    for varpi, r0 in [(1.0, 0.0), (2.0, 5.0), (0.3, 0.9)]:
        traj = riccati.iterate(np.array([[varpi]]), np.array([[r0]]), 100)
        for n in range(101):
            assert abs(riccati.scalar_closed_form(varpi, r0, n) - traj[n][0, 0]) < 1e-12


def test_scalar_closed_form_computes_rate_directly(monkeypatch):
    traj = {varpi: riccati.iterate(np.array([[varpi]]), np.array([[1.5]]), 40) for varpi in (0.1, 1.0, 10.0)}

    def no_decay_params(varpi):
        raise AssertionError("scalar_closed_form must not call decay_params")

    monkeypatch.setattr(riccati, "decay_params", no_decay_params)
    for varpi, states in traj.items():
        for n in range(41):
            assert abs(riccati.scalar_closed_form(varpi, 1.5, n) - states[n][0, 0]) < 1e-12


@pytest.mark.parametrize("d", [1, 8])
def test_ricc_map_decompositions(d, decompositions):
    """varpi is decomposed once per call, so no count grows with the number of steps."""
    rng = np.random.default_rng(d)
    varpi = random_spd(rng, d)
    riccati.ricc_map(varpi, random_spd(rng, d))
    assert decompositions["eigh"] + decompositions["eigvalsh"] <= 4
    assert decompositions["svd"] == 0

    def counted(call):
        decompositions.clear()
        call()
        return dict(decompositions)

    assert counted(lambda: riccati.decay_params(varpi)) == {"eigh": 1}
    zero = np.zeros((d, d))
    assert counted(lambda: riccati.iterate(varpi, zero, 5)) == counted(lambda: riccati.iterate(varpi, zero, 60))
    mu = gaussian.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    eta = gaussian.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    k = gaussian.LinearGaussianKernel(np.zeros(d), np.eye(d), random_spd(rng, d))
    assert counted(lambda: gaussian.sinkhorn_run(mu, eta, k, 5)) == counted(lambda: gaussian.sinkhorn_run(mu, eta, k, 50))


def log_spectrum_varpi(d, cond, seed=0):
    """A seed-fixed varpi whose spectrum is log-spaced over [1, cond]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(0.0, np.log10(cond), d)) @ q.T)


@pytest.mark.parametrize("d, cond", [(8, 1e1), (32, 1e3), (64, 1e6)])
def test_fixed_point_accurate_when_ill_conditioned(d, cond, tmp_path):
    varpi = log_spectrum_varpi(d, cond)
    r = riccati.fixed_point(varpi)
    # one step of the oracle's numpy-inv map
    assert np.linalg.norm(iteration_oracle(varpi, r, n=1) - r, 2) <= 1e-10

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": varpi.tolist()}}))
    out = tmp_path / "ricc"
    assert cli.main(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",1") for row in rows)
    assert json.loads(out.with_suffix(".json").read_text())["identities"]["ok"]


def test_riccati_command_decomposes_varpi_once(decompositions, monkeypatch, tmp_path):
    """Load and compute share one validated decomposition of varpi.

    fixed_point_identities is left out: it is the independent check and
    starts again from the dense matrix.
    """
    varpi = log_spectrum_varpi(4, 1e2)
    eigh = np.linalg.eigh  # the fixture's counting wrapper
    of_varpi = []

    def recording(a, *args, **kwargs):
        of_varpi.append(np.array_equal(a, varpi))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(riccati, "fixed_point_identities", lambda varpi: {"ok": True})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": varpi.tolist(), "n": 30}}))
    assert cli.main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "ricc")]) == 0
    assert sum(of_varpi) == 1
    assert decompositions["svd"] == decompositions["norm_svd"]  # spectral norms only


def test_monotone_in_state():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        varpi = random_spd(rng, d, scale=rng.uniform(0.2, 1.5))
        v1 = spd.clamp_psd(random_spd(rng, d, scale=0.0) * 0.5)
        v2 = v1 + spd.clamp_psd(random_spd(rng, d, scale=0.0) * 0.5)
        r1 = riccati.ricc_map(varpi, v1)
        r2 = riccati.ricc_map(varpi, v2)
        assert spd.loewner_leq(r1, r2, tol=1e-12)


def test_sandwich_chain():
    # Ricc^p(0) <= Ricc^n(0) <= Ricc^n(v) <= Ricc^{n-1}(I) <= I for n >= p >= 1
    rng = np.random.default_rng(17)
    for d in [1, 2, 4]:
        varpi = random_spd(rng, d, scale=0.5)
        v = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        from_zero = riccati.iterate(varpi, np.zeros((d, d)), 20)
        from_v = riccati.iterate(varpi, v, 20)
        from_eye = riccati.iterate(varpi, np.eye(d), 20)
        eye = np.eye(d)
        for n in range(1, 21):
            for p in range(1, n + 1):
                assert spd.loewner_leq(from_zero[p], from_zero[n], tol=1e-12)
            assert spd.loewner_leq(from_zero[n], from_v[n], tol=1e-12)
            assert spd.loewner_leq(from_v[n], from_eye[n - 1], tol=1e-12)
            assert spd.loewner_leq(from_eye[n - 1], eye, tol=1e-12)


def test_decay_envelope_holds():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        varpi = random_spd(rng, d, scale=rng.uniform(0.2, 2.0))
        r0 = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        r_star = riccati.fixed_point(varpi)
        delta, c = riccati.decay_params(varpi)
        traj = riccati.iterate(varpi, r0, 60)
        gap0 = np.linalg.norm(r0 - r_star, 2)
        for n in range(1, 61):
            gap = np.linalg.norm(traj[n] - r_star, 2)
            assert gap <= c * delta**n * gap0 + 1e-14


def test_empirical_ratio_approaches_delta_scalar():
    varpi = np.array([[0.7]])
    r_star = riccati.fixed_point(varpi)[0, 0]
    delta, _ = riccati.decay_params(varpi)
    traj = riccati.iterate(varpi, np.array([[0.0]]), 40)
    gaps = [abs(t[0, 0] - r_star) for t in traj]
    # ratios are only meaningful while the gap is far above float noise
    ratios = [gaps[n + 1] / gaps[n] for n in range(len(gaps) - 1) if gaps[n] > 1e-11]
    assert ratios[-1] <= delta + 1e-6


def test_psi_map_trivial():
    assert np.allclose(riccati.psi_map(np.eye(2), np.zeros((2, 2))), np.eye(2))


def test_psi_map_scalar_factorization():
    v = np.array([[0.7]])
    lhs = riccati.psi_map(np.array([[1.0]]), riccati.psi_map(np.array([[1.0]]), v))
    direct = 1.0 / (1.0 + 1.0 / (1.0 + 0.7))
    assert abs(lhs[0, 0] - direct) < 1e-14
    assert np.allclose(lhs, riccati.ricc_map(np.array([[1.0]]), v))


def test_psi_map_factorization_sweep():
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gamma = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        v = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        composed = riccati.psi_map(gamma, riccati.psi_map(gamma.T, v))
        param = spd.sym_inv(spd.symmetrize(gamma @ gamma.T))
        assert np.linalg.norm(composed - riccati.ricc_map(param, v), 2) < 1e-10


def test_psi_fixed_point_transport():
    rng = np.random.default_rng(123)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gamma = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        left = riccati.psi_map(gamma.T, riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma @ gamma.T))))
        right = riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma.T @ gamma)))
        assert np.linalg.norm(left - right, 2) < 1e-9


def test_psi_map_singular_gamma():
    with pytest.raises(DomainError):
        riccati.psi_map(np.zeros((2, 2)), np.eye(2))
