"""Randomised properties of the Gaussian bridge over the documented input range.

Every drawn problem (d <= 64, cond(u), cond(v) <= 1e8, a well-conditioned
channel) must either solve to round-off times its condition number, with
finite Sinkhorn states, or stop with a DomainError.  A NaN, an overflow or
any other exception fails the test.  Its contraction constants, from
``bounds.rate_table`` on the Gaussian-equality curvature, must all be
finite and in range.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinkbridge import bounds, spd
from sinkbridge import gaussian as g
from sinkbridge.bounds import CurvatureSpec
from sinkbridge.errors import DomainError

EPS = np.finfo(float).eps
# the largest residual over 300 seeded draws was below 40 cond eps
C = 1e3


def log_spectrum_spd(rng, d, lo, hi):
    """SPD matrix with a random eigenbasis and eigenvalues log-spaced over [10^lo, 10^hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(lo, hi, d)) @ q.T)


def sqrt_pair(a):
    w, q = np.linalg.eigh(a)
    return (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T


@st.composite
def bridge_problems(draw):
    d = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond_u, log_cond_v = draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0))
    scale_u, scale_v = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    u = log_spectrum_spd(rng, d, scale_u, scale_u + log_cond_u)
    v = log_spectrum_spd(rng, d, scale_v, scale_v + log_cond_v)
    tau = 10.0 ** draw(st.floats(-2.0, 2.0)) * log_spectrum_spd(rng, d, 0.0, draw(st.floats(0.0, 2.0)))
    beta = log_spectrum_spd(rng, d, 0.0, draw(st.floats(0.0, 1.0))) if draw(st.booleans()) else np.eye(d)
    mu = g.GaussianMeasure(rng.standard_normal(d), u)
    eta = g.GaussianMeasure(rng.standard_normal(d), v)
    return mu, eta, g.LinearGaussianKernel(rng.standard_normal(d), beta, tau)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def curvature_problems(draw):
    """A bridge problem; half the time eta's spectrum is moved into mu's eigenbasis.

    Aligned, cond(v^{1/2} chi u^{1/2}) nears sqrt(cond(u) cond(v)), so the
    flow parameters varpi reach condition numbers near 1e16.
    """
    mu, eta, k = draw(bridge_problems())
    if draw(st.booleans()):
        _, q = np.linalg.eigh(mu.cov)
        eta = g.GaussianMeasure(eta.mean, spd.symmetrize((q * np.linalg.eigvalsh(eta.cov)) @ q.T))
    return mu, eta, k


def relative_push_forward_error(f, p, q):
    cov = f.slope @ p.cov @ f.slope.T + f.noise_cov
    return np.linalg.norm(cov - q.cov, 2) / np.linalg.norm(q.cov, 2)


def fixed_point_residual(noise_cov, target_cov, gram):
    """||r + r varpi^{-1} r - I|| for r = target^{-1/2} noise target^{-1/2} and varpi^{-1} = gram."""
    _, t_ihalf = sqrt_pair(target_cov)
    r = t_ihalf @ noise_cov @ t_ihalf
    return np.linalg.norm(r + r @ gram @ r - np.eye(len(r)), 2)


@PROPERTY_SETTINGS
@given(bridge_problems())
def test_bridge_solves_to_round_off_or_raises_domain_error(problem):
    mu, eta, k = problem
    try:
        fwd, bwd = g.bridge_solve(mu, eta, k)
        states = g.sinkhorn_run(mu, eta, k, 3)
    except DomainError:
        return
    cond = max(np.linalg.cond(mu.cov), np.linalg.cond(eta.cov), np.linalg.cond(k.chi))
    tol = C * cond * EPS
    for f in (fwd, bwd):
        assert all(np.all(np.isfinite(a)) for a in (f.intercept, f.slope, f.noise_cov))
    assert relative_push_forward_error(fwd, mu, eta) <= tol
    assert relative_push_forward_error(bwd, eta, mu) <= tol

    u_half, _ = sqrt_pair(mu.cov)
    v_half, _ = sqrt_pair(eta.cov)
    gram = v_half @ k.chi @ u_half  # G, with varpi_0^{-1} = G G' and varpi_1^{-1} = G' G
    assert fixed_point_residual(fwd.noise_cov, eta.cov, gram @ gram.T) <= tol
    assert fixed_point_residual(bwd.noise_cov, mu.cov, gram.T @ gram) <= tol

    for s in states:
        assert all(np.all(np.isfinite(a)) for a in (s.tau_n, s.m_n, s.sigma_pi_n))


@PROPERTY_SETTINGS
@given(curvature_problems())
def test_rate_table_constants_are_finite_and_in_range(problem):
    mu, eta, k = problem
    rep = bounds.rate_table(k, CurvatureSpec.gaussian(mu.cov, eta.cov), 4, p=2)
    values = {name: s["value"] for name, s in rep.scalars.items()}
    assert all(np.isfinite(float(v)) for v in values.values())
    assert values["iota"] >= 1.0
    assert 0.0 < values["delta_bar"] < 1.0 and values["c_bar"] >= 1.0
    assert 0.0 < values["composite_rate"] <= 1.0
