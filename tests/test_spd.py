import numpy as np
import pytest

from sinkbridge import gaussian, riccati, spd
from sinkbridge.bounds import CurvatureSpec
from sinkbridge.errors import DomainError, ShapeError


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return spd.symmetrize(a @ a.T + scale * np.eye(d))


def test_symmetrize_exact():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = spd.symmetrize(a)
    assert np.array_equal(s, s.T)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ShapeError):
        spd.symmetrize(np.ones((2, 3)))


def test_clamp_psd_kills_noise_but_rejects_negative():
    noise = spd.clamp_psd(np.diag([1.0, -1e-12]))
    assert spd.eig_range(noise)[0] >= 0.0
    with pytest.raises(DomainError):
        spd.clamp_psd(np.diag([1.0, -1e-3]))


def test_require_spd_rejects_singular():
    with pytest.raises(DomainError):
        spd.require_spd(np.diag([1.0, 0.0]))


def test_principal_sqrt_identity():
    assert np.allclose(spd.principal_sqrt(np.eye(3)), np.eye(3))


def test_principal_sqrt_diagonal():
    assert np.allclose(spd.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_principal_sqrt_squaring_oracle(d):
    # oracle: the square of the root must reproduce the input
    rng = np.random.default_rng(7 + d)
    a = random_spd(rng, d)
    root = spd.principal_sqrt(a)
    spd.require_spd(root)
    err = np.linalg.norm(root @ root - a) / np.linalg.norm(a)
    assert err < 1e-10


def test_geometric_mean_idempotent():
    rng = np.random.default_rng(3)
    u = random_spd(rng, 3)
    assert np.allclose(spd.geometric_mean(u, u), u, atol=1e-12)


def test_geometric_mean_commuting_scalar():
    # commuting case reduces to (uv)^{1/2}
    g = spd.geometric_mean(np.array([[4.0]]), np.array([[1.0]]))
    assert np.allclose(g, [[2.0]])


def test_geometric_mean_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    u = random_spd(rng, 2)
    v = random_spd(rng, 2)
    assert np.linalg.norm(u @ v - v @ u) > 1e-6  # genuinely non-commuting pair
    g1 = spd.geometric_mean(u, v)
    g2 = spd.geometric_mean(v, u)
    assert np.linalg.norm(g1 - g2, 2) < 1e-10


def test_geometric_mean_dim_mismatch():
    with pytest.raises(ShapeError):
        spd.geometric_mean(np.eye(2), np.eye(3))


def test_loewner_leq_cases():
    assert spd.loewner_leq(np.zeros((2, 2)), np.eye(2), 1e-10)
    assert spd.loewner_leq(np.eye(2), np.eye(2), 1e-10)
    # eigencheck oracle: diag(2,2) - diag(1,3) has a negative eigenvalue
    assert not spd.loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]), 1e-10)


def test_sqrt_monotone_on_commuting_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = np.diag(rng.uniform(0.1, 3.0, size=3))
        b = a + np.diag(rng.uniform(0.0, 2.0, size=3))
        assert spd.loewner_leq(spd.principal_sqrt(a), spd.principal_sqrt(b))


INDEFINITE = np.diag([1.0, -0.5])
EYE2 = np.eye(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spd.require_spd(INDEFINITE),
        lambda: spd.sym_inv(INDEFINITE),
        lambda: spd.principal_sqrt(INDEFINITE),
        lambda: spd.geometric_mean(INDEFINITE, EYE2),
        lambda: spd.geometric_mean(EYE2, INDEFINITE),
        lambda: riccati.ricc_map(INDEFINITE, np.zeros((2, 2))),
        lambda: riccati.ricc_map(EYE2, INDEFINITE),
        lambda: spd.clamp_psd([[float("nan")]]),
        lambda: riccati.iterate(EYE2, np.diag([1.0, float("nan")]), 3),
        lambda: riccati.ricc_map(EYE2, np.full((2, 2), float("nan"))),
        lambda: gaussian.GaussianMeasure([0.0, 0.0], INDEFINITE),
        lambda: gaussian.LinearGaussianKernel([0.0, 0.0], EYE2, INDEFINITE),
        lambda: CurvatureSpec(u_plus=INDEFINITE, v_plus=EYE2),
        lambda: CurvatureSpec(u_plus=EYE2, v_plus=EYE2, u_minus=INDEFINITE),
    ],
    ids=[
        "require_spd", "sym_inv", "principal_sqrt", "geometric_mean-u", "geometric_mean-v",
        "ricc_map-varpi", "ricc_map-s", "clamp_psd-nan", "iterate-r0-nan", "ricc_map-s-nan", "GaussianMeasure", "LinearGaussianKernel-tau",
        "CurvatureSpec-u_plus", "CurvatureSpec-u_minus",
    ],
)
def test_validating_entry_points_reject_non_spd(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("fn", [spd.sym_inv, spd.principal_sqrt])
def test_spd_primitive_decomposes_once(fn, decompositions):
    fn(random_spd(np.random.default_rng(1), 4))
    assert sum(decompositions.values()) == 1
