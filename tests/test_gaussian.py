import numpy as np
import pytest

import collections

import mpmath

from references import (bridge_gaps_mp, bridge_plan, geometric_mean, joint_gaps, joint_plan, model_slice, push_through,
                        varpi_pair)
from sinkbridge import cli, verify
from sinkbridge import gaussian as g
from sinkbridge import riccati, spd
from sinkbridge.bounds import CurvatureSpec
from sinkbridge.errors import DomainError, ShapeError

GOLDEN = 0.6180339887498949


def random_spd(rng, d, lo=0.5, hi=2.0):
    """SPD matrix with eigenvalues drawn uniformly in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return spd.symmetrize((q * rng.uniform(lo, hi, size=d)) @ q.T)


def random_model(rng, d):
    mu = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    eta = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    beta = 0.3 * rng.standard_normal((d, d)) + np.eye(d)
    k = g.LinearGaussianKernel(rng.standard_normal(d), beta, random_spd(rng, d))
    return mu, eta, k


def std_model(d=1):
    mu = g.GaussianMeasure(np.zeros(d), np.eye(d))
    eta = g.GaussianMeasure(np.zeros(d), np.eye(d))
    k = g.LinearGaussianKernel(np.zeros(d), np.eye(d), np.eye(d))
    return mu, eta, k


def test_varpi_pair_identity_model():
    w0, w1 = varpi_pair(*std_model(2))
    assert np.allclose(w0, np.eye(2), atol=1e-13)
    assert np.allclose(w1, np.eye(2), atol=1e-13)


def test_varpi_pair_scaled_noise():
    mu, eta, k = std_model(2)
    for t in [0.5, 2.0, 10.0]:
        w0, w1 = varpi_pair(mu, eta, k.rescaled(t))
        assert np.allclose(w0, t**2 * np.eye(2), atol=1e-10 * t**2)
        assert np.allclose(w1, t**2 * np.eye(2), atol=1e-10 * t**2)


def test_varpi_pair_diagonal_entrywise():
    u = np.diag([1.0, 2.0])
    v = np.diag([3.0, 1.0])
    mu = g.GaussianMeasure(np.zeros(2), u)
    eta = g.GaussianMeasure(np.zeros(2), v)
    k = g.LinearGaussianKernel(np.zeros(2), np.eye(2), np.eye(2))
    w0, w1 = varpi_pair(mu, eta, k)
    # entrywise scalar evaluation: w0_ii = 1/(v_ii u_ii), w1_ii = 1/(u_ii v_ii)
    assert np.allclose(w0, np.diag([1.0 / 3.0, 0.5]), atol=1e-13)
    assert np.allclose(w1, np.diag([1.0 / 3.0, 0.5]), atol=1e-13)


def test_bridge_solve_standard_normals():
    bridge = g.bridge_solve(*std_model())
    fwd, bwd = bridge.forward, bridge.backward()
    assert abs(fwd.noise_cov[0, 0] - GOLDEN) < 1e-12
    assert abs(fwd.slope[0, 0] - GOLDEN) < 1e-12
    assert abs(bwd.slope[0, 0] - GOLDEN) < 1e-12


def test_bridge_identity_transport_limit():
    mu, eta, k = std_model()
    for t in [1e-2, 1e-4]:
        fwd = g.bridge_solve(mu, eta, k.rescaled(t)).forward
        assert abs(fwd.slope[0, 0] - 1.0) < np.sqrt(t)


def test_bridge_marginal_consistency_scalar():
    mu = g.GaussianMeasure([0.0], [[4.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    bridge = g.bridge_solve(mu, eta, k)
    fwd, bwd = bridge.forward, bridge.backward()
    s = fwd.noise_cov[0, 0]
    assert abs(s * 1.0 * 4.0 * 1.0 * s + s - 1.0) < 1e-10
    pushed = push_through(mu, fwd)
    assert abs(pushed.cov[0, 0] - 1.0) < 1e-12
    pushed_back = push_through(eta, bwd)
    assert abs(pushed_back.cov[0, 0] - 4.0) < 1e-12


def test_bridge_push_forward_random_models():
    rng = np.random.default_rng(314)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        mu, eta, k = random_model(rng, d)
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        pushed = push_through(mu, fwd)
        assert np.linalg.norm(pushed.mean - eta.mean) < 1e-9
        assert np.linalg.norm(pushed.cov - eta.cov, 2) < 1e-9
        back = push_through(eta, bwd)
        assert np.linalg.norm(back.mean - mu.mean) < 1e-9
        assert np.linalg.norm(back.cov - mu.cov, 2) < 1e-9


def test_bridge_cross_covariance_schur_oracle():
    # independent closed form for beta=I, tau=s2*I channels: the joint cross
    # block is  (Sig0^{1/2} (4 Sig0^{1/2} Sig1 Sig0^{1/2} + s2^2 I)^{1/2} Sig0^{-1/2} - s2 I)/2
    rng = np.random.default_rng(2718)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        s2 = float(rng.uniform(0.3, 2.0))
        mu = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d, 0.5))
        eta = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d, 0.5))
        k = g.LinearGaussianKernel(np.zeros(d), np.eye(d), s2 * np.eye(d))
        plan = bridge_plan(g.bridge_solve(mu, eta, k))
        s0h = spd.principal_sqrt(mu.cov)
        s0ih = spd.sym_inv(s0h)
        inner = spd.principal_sqrt(4.0 * s0h @ eta.cov @ s0h + s2**2 * np.eye(d))
        cross_oracle = 0.5 * (s0h @ inner @ s0ih - s2 * np.eye(d))
        assert np.linalg.norm(plan.cov[:d, d:] - cross_oracle, 2) < 1e-9


def test_sinkhorn_initial_state():
    rng = np.random.default_rng(9)
    mu, eta, k = random_model(rng, 3)
    run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 1)
    assert run.tau.shape == run.sigma.shape == run.delta.shape == (4, 3, 3)
    assert run.mean.shape == run.offset.shape == (4, 3)
    assert np.allclose(run.tau[0], k.tau)
    assert np.allclose(run.mean[0], k.alpha + k.beta @ mu.mean)
    # pi_0 = mu K pushed through the channel
    assert np.allclose(run.sigma[0], k.beta @ mu.cov @ k.beta.T + k.tau, atol=1e-12)


def test_sinkhorn_standard_model_convergence():
    mu, eta, k = std_model()
    run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 25)
    assert np.all(np.abs(run.mean[:, 0]) < 1e-14)
    assert abs(run.tau[-2, 0, 0] - GOLDEN) < 1e-10
    assert abs(run.tau[-1, 0, 0] - GOLDEN) < 1e-10


def test_sinkhorn_means_converge_to_targets():
    mu = g.GaussianMeasure([1.0], [[1.0]])
    eta = g.GaussianMeasure([-1.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 60)
    assert abs(run.mean[-2, 0] - (-1.0)) < 1e-10  # the last even state
    assert abs(run.mean[-1, 0] - 1.0) < 1e-10  # the last odd state


def test_sinkhorn_terminal_matches_bridge():
    rng = np.random.default_rng(77)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        mu, eta, k = random_model(rng, d)
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        run = g.sinkhorn_run(bridge, 400)
        assert np.linalg.norm(run.tau[-2] - fwd.noise_cov, 2) < 1e-10
        assert np.linalg.norm(run.tau[-1] - bwd.noise_cov, 2) < 1e-10
        assert np.linalg.norm(run.mean[-2] - eta.mean) < 1e-9
        assert np.linalg.norm(run.mean[-1] - mu.mean) < 1e-9


def test_sinkhorn_rescaled_recursion_exact():
    # the even/odd conditional covariances must satisfy the rescaled Riccati
    # recursions exactly
    rng = np.random.default_rng(55)
    mu, eta, k = random_model(rng, 2)
    w0, w1 = varpi_pair(mu, eta, k)
    v_half = spd.principal_sqrt(eta.cov)
    v_ih = spd.sym_inv(v_half)
    u_half = spd.principal_sqrt(mu.cov)
    u_ih = spd.sym_inv(u_half)
    taus = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 10).tau
    for n in range(2, 20, 2):
        lhs = v_ih @ taus[n] @ v_ih
        rhs = riccati.ricc_map(w0, v_ih @ taus[n - 2] @ v_ih)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-10
    for n in range(3, 21, 2):
        lhs = u_ih @ taus[n] @ u_ih
        rhs = riccati.ricc_map(w1, u_ih @ taus[n - 2] @ u_ih)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-10


def test_sinkhorn_rescaled_sandwich():
    # rescaled conditional covariances stay below the identity once the
    # recursion has taken over from the raw channel initialization
    rng = np.random.default_rng(61)
    mu, eta, k = random_model(rng, 3)
    v_ih = spd.sym_inv(spd.principal_sqrt(eta.cov))
    u_ih = spd.sym_inv(spd.principal_sqrt(mu.cov))
    for n, tau in enumerate(g.sinkhorn_run(g.bridge_solve(mu, eta, k), 8).tau):
        if n >= 2:
            scaled = (v_ih if n % 2 == 0 else u_ih)
            assert spd.loewner_leq(scaled @ tau @ scaled, np.eye(3), tol=1e-12)


def test_pi_referenced_fixed_point_identity():
    # each marginal-flow covariance pairs with its conditional covariance as
    # a Riccati fixed point: with W = (S^pi)^{-1/2} (chi u chi')^{-1} (S^pi)^{-1/2},
    # the matrix (S^pi)^{-1/2} tau (S^pi)^{-1/2} is the fixed point of Ricc_W
    rng = np.random.default_rng(71)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        mu, eta, k = random_model(rng, d)
        chi = k.chi
        run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 6)
        for n, (tau, sigma) in enumerate(zip(run.tau, run.sigma)):
            if n % 2 == 0:
                core = spd.sym_inv(chi @ mu.cov @ chi.T)
            else:
                core = spd.sym_inv(chi.T @ eta.cov @ chi)
            s_ih = spd.sym_inv(spd.principal_sqrt(sigma))
            w_pi = spd.symmetrize(s_ih @ core @ s_ih)
            r_pi = spd.symmetrize(s_ih @ tau @ s_ih)
            assert np.linalg.norm(riccati.ricc_map(w_pi, r_pi) - r_pi, 2) < 1e-10


def test_gaussian_kl_values():
    n01 = g.GaussianMeasure([0.0], [[1.0]])
    assert g.gaussian_kl(n01, n01) == 0.0
    assert abs(g.gaussian_kl(g.GaussianMeasure([1.0], [[1.0]]), n01) - 0.5) < 1e-14
    v = g.gaussian_kl(g.GaussianMeasure([0.0], [[2.0]]), n01)
    assert abs(v - 0.5 * (2.0 - 1.0 - np.log(2.0))) < 1e-12
    assert abs(v - 0.15342641) < 1e-8


def test_gelbrich_w2_values():
    rng = np.random.default_rng(4)
    p = g.GaussianMeasure(rng.standard_normal(3), random_spd(rng, 3))
    assert g.gelbrich_w2(p, p) < 1e-7
    a = g.GaussianMeasure([0.0], [[1.0]])
    b = g.GaussianMeasure([0.0], [[4.0]])
    assert abs(g.gelbrich_w2(a, b) - 1.0) < 1e-12
    q = g.GaussianMeasure(p.mean + 2.0, p.cov)
    assert abs(g.gelbrich_w2(p, q) - 2.0 * np.sqrt(3)) < 1e-9
    assert abs(g.gelbrich_w2(a, b) - g.gelbrich_w2(b, a)) < 1e-12


def test_joint_plan_blocks():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    f = g.AffineGaussianMap([0.0], [[1.0]], [[1.0]])
    plan = joint_plan(mu, f)
    assert np.allclose(plan.cov, [[1.0, 1.0], [1.0, 2.0]])
    product = joint_plan(mu, g.AffineGaussianMap([0.5], [[0.0]], [[2.0]]))
    assert np.allclose(product.cov, np.diag([1.0, 2.0]))


def test_joint_plan_degenerate():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    with pytest.raises(DomainError):
        joint_plan(mu, g.AffineGaussianMap([0.0], [[0.0]], [[0.0]]))


def test_bridge_plan_kl_to_reference():
    mu, eta, k = std_model()
    plan = bridge_plan(g.bridge_solve(mu, eta, k))
    ref = joint_plan(mu, g.AffineGaussianMap(k.alpha, k.beta, k.tau))
    val = g.gaussian_kl(plan, ref)
    assert np.isfinite(val) and val > 0


def test_entropic_map_gradient_values():
    mu, eta, k = std_model()
    fwd = g.bridge_solve(mu, eta, k).forward
    assert abs(g.entropic_map_gradient(fwd)[0, 0] - GOLDEN) < 1e-10
    fwd_t = g.bridge_solve(mu, eta, k.rescaled(1e-3)).forward
    assert abs(g.entropic_map_gradient(fwd_t)[0, 0] - 1.0) < 2e-3


def test_barycentric_identity():
    # chi' Sigma chi == gradient @ chi, forward and flat
    rng = np.random.default_rng(6021)
    models = [random_model(rng, int(rng.integers(1, 4))) for _ in range(6)]
    mu2 = g.GaussianMeasure(np.zeros(2), np.diag([1.0, 2.0]))
    eta2 = g.GaussianMeasure(np.zeros(2), np.diag([3.0, 1.0]))
    k2 = g.LinearGaussianKernel(np.zeros(2), np.eye(2), np.diag([1.0, 0.5]))
    models.append((mu2, eta2, k2))
    for mu, eta, k in models:
        chi = k.chi
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        res_f = chi.T @ fwd.noise_cov @ chi - g.entropic_map_gradient(fwd) @ chi
        assert np.linalg.norm(res_f, 2) < 1e-10
        res_b = chi @ bwd.noise_cov @ chi.T - g.entropic_map_gradient(bwd) @ chi.T
        assert np.linalg.norm(res_b, 2) < 1e-10


def test_ot_limit_identity_and_scalar():
    rng = np.random.default_rng(12)
    cov = random_spd(rng, 2)
    mu = g.GaussianMeasure([0.1, -0.2], cov)
    eta = g.GaussianMeasure([1.0, 2.0], cov)
    lim = g.bridge_solve(mu, eta, g.LinearGaussianKernel(np.zeros(2), np.eye(2), np.eye(2))).ot_limit()
    assert np.allclose(lim.slope, np.eye(2), atol=1e-9)
    assert np.allclose(lim.intercept + lim.slope @ mu.mean, eta.mean)

    mu1 = g.GaussianMeasure([0.0], [[4.0]])
    eta1 = g.GaussianMeasure([0.0], [[1.0]])
    lim1 = g.bridge_solve(mu1, eta1, g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])).ot_limit()
    assert abs(lim1.slope[0, 0] - 0.5) < 1e-12


def test_ot_limit_sweep_monotone():
    mu1 = g.GaussianMeasure([0.0], [[4.0]])
    eta1 = g.GaussianMeasure([0.0], [[1.0]])
    k1 = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    bridge = g.bridge_solve(mu1, eta1, k1)
    lim = bridge.ot_limit()
    gaps = [abs(bridge.rescaled(t).forward.slope[0, 0] - lim.slope[0, 0]) for t in [1.0, 0.1, 0.01, 0.001]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-3


def test_proximal_invariance():
    rng = np.random.default_rng(88)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        mu, _, k = random_model(rng, d)
        out = g.proximal_chain(mu, mu, k, 3)
        for n in range(1, 4):
            assert np.linalg.norm(out.mean[n] - mu.mean) < 1e-12
            assert np.linalg.norm(out.cov[n] - mu.cov, 2) < 1e-12


def test_proximal_step_decomposes_three_times(decompositions):
    # one eigh each, at any number of sweeps: the forward covariance's inverse
    # (which also validates it), the backward noise's clamp and the stacked
    # marginals' SPD check
    rng = np.random.default_rng(89)
    mu, nu, k = random_model(rng, 3)
    for steps in (1, 20):
        decompositions.clear()
        g.proximal_chain(nu, mu, k, steps)
        assert decompositions == {"eigh": 3}


def test_proximal_mean_contraction():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    nu = g.GaussianMeasure([3.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    out = g.proximal_chain(nu, mu, k, 1)
    assert abs(out.mean[1, 0] - 1.5) < 1e-13


def test_proximal_w2_and_entropy_decay():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    nu = g.GaussianMeasure([3.0], [[2.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    b = 0.5  # = ||u||/(t + ||u||) for this channel
    a = 1.0
    w0 = g.gelbrich_w2(nu, mu)
    h0 = g.gaussian_kl(nu, mu)
    chain = g.proximal_chain(nu, mu, k, 20)
    for n in range(1, 21):
        cur = g.GaussianMeasure(chain.mean[n], chain.cov[n])
        assert g.gelbrich_w2(cur, mu) <= b**n * w0 + 1e-13
        assert g.gaussian_kl(cur, mu) <= a * b ** (2 * (n - 1)) * h0 + 1e-13


def bridge_gap_sequence(mu, eta, k, n_steps):
    bridge = g.bridge_solve(mu, eta, k)
    return g.bridge_gaps(bridge, g.sinkhorn_run(bridge, n_steps))


def test_bridge_entropy_monotone_and_rate():
    mu, eta, k = std_model()
    gaps = bridge_gap_sequence(mu, eta, k, 20)
    assert np.all(gaps > 0.0)
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a
    # even-subsequence envelope with eps = 1 for the standard model
    for n in range(1, 20):
        assert gaps[2 * n] <= 0.5**n * gaps[0]


def test_bridge_entropy_rate_random_models():
    rng = np.random.default_rng(1001)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        mu, eta, k = random_model(rng, d)
        eps = (
            spd.spectral_norm(k.chi) ** 2
            * spd.spectral_norm(mu.cov)
            * spd.spectral_norm(eta.cov)
        )
        rate = 1.0 / (1.0 + 1.0 / eps)
        gaps = bridge_gap_sequence(mu, eta, k, 15)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a
        for n in range(1, 15):
            assert gaps[2 * n] <= rate**n * gaps[0]


def test_marginal_decay_envelopes():
    # relative entropy and W2 of the even marginal flow against eta decay
    # within the eps * (1 + phi(eps)) envelopes
    from sinkbridge.bounds import phi

    rng = np.random.default_rng(515)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        mu, eta, k = random_model(rng, d)
        eps = (
            spd.spectral_norm(k.chi) ** 2
            * spd.spectral_norm(mu.cov)
            * spd.spectral_norm(eta.cov)
        )
        rate = 1.0 + phi(eps)
        run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 12)
        pis = [g.GaussianMeasure(m, sigma) for m, sigma in zip(run.mean, run.sigma)]
        h0 = g.gaussian_kl(eta, pis[0])
        w0 = g.gelbrich_w2(eta, pis[0])
        for n in range(1, 13):
            hn = g.gaussian_kl(eta, pis[2 * n])
            wn = g.gelbrich_w2(eta, pis[2 * n])
            assert hn <= eps * rate ** (-2 * (n - 1)) * h0 + 1e-12
            assert wn <= eps * rate ** (-(n - 1)) * w0 + 1e-12


def test_gradient_sandwich_collapses_in_equality_case():
    # with u- = u+ = u and v- = v+ = v both two-sided bounds are equalities
    rng = np.random.default_rng(808)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        mu, eta, k = random_model(rng, d)
        chi = k.chi
        w0, w1 = varpi_pair(mu, eta, k)
        v_half = spd.principal_sqrt(eta.cov)
        u_half = spd.principal_sqrt(mu.cov)
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        bound_f = chi.T @ v_half @ riccati.fixed_point(w0) @ v_half @ chi
        assert np.linalg.norm(g.entropic_map_gradient(fwd) @ chi - bound_f, 2) < 1e-10
        bound_b = chi @ u_half @ riccati.fixed_point(w1) @ u_half @ chi.T
        assert np.linalg.norm(g.entropic_map_gradient(bwd) @ chi.T - bound_b, 2) < 1e-10


def test_dimension_mismatch_raises():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0, 0.0], np.eye(2))
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    with pytest.raises(ShapeError):
        g.bridge_solve(mu, eta, k)


def _stacked_model(size=4, d=3):
    """Arrays of ``size`` random models of dimension d: means, u, v, alpha, beta, tau."""
    rng = np.random.default_rng(11)
    spds = [np.stack([random_spd(rng, d) for _ in range(size)]) for _ in range(3)]
    means = [rng.standard_normal((size, d)) for _ in range(3)]
    beta = np.eye(d) + 0.3 * rng.standard_normal((size, d, d))
    return means[0], spds[0], means[1], spds[1], means[2], beta, spds[2]


@pytest.mark.parametrize("part", ["measure", "kernel", "spec"])
def test_a_stacked_model_names_its_failing_slice(part):
    """An indefinite slice 2 of a stack raises DomainError naming it, as the spd primitives do."""
    m, u, mbar, v, alpha, beta, tau = _stacked_model()
    u[2] = tau[2] = np.diag([1.0, -0.5, 1.0])
    make = {
        "measure": lambda: g.GaussianMeasure(m, u),
        "kernel": lambda: g.LinearGaussianKernel(alpha, beta, tau),
        "spec": lambda: CurvatureSpec(u_plus=v, v_plus=u),
    }[part]
    with pytest.raises(DomainError, match="matrix 2 of the stack is not SPD"):
        make()


def test_a_stacked_kernel_names_its_singular_beta():
    m, u, mbar, v, alpha, beta, tau = _stacked_model()
    beta[1] = np.ones((3, 3))
    with pytest.raises(DomainError, match="beta 1 of the stack is singular"):
        g.LinearGaussianKernel(alpha, beta, tau)


def test_a_stacked_model_needs_one_batch_shape():
    """Parts of a model with different leading axes raise ShapeError; nothing is broadcast."""
    m, u, mbar, v, alpha, beta, tau = _stacked_model()
    with pytest.raises(ShapeError):
        g.GaussianMeasure(m[:3], u)
    with pytest.raises(ShapeError):
        g.LinearGaussianKernel(alpha[:3], beta, tau)
    with pytest.raises(ShapeError):
        g.LinearGaussianKernel(alpha, beta, tau[:3])
    with pytest.raises(ShapeError):
        CurvatureSpec(u_plus=u[:3], v_plus=v)
    mu, eta, k = g.GaussianMeasure(m, u), g.GaussianMeasure(mbar, v), g.LinearGaussianKernel(alpha, beta, tau)
    one_kernel = g.LinearGaussianKernel(alpha[0], beta[0], tau[0])
    for parts in ((g.GaussianMeasure(m[:3], u[:3]), eta, k), (mu, eta, one_kernel)):
        with pytest.raises(ShapeError):
            g.bridge_solve(*parts)


def log_spectrum_spd(rng, d, cond):
    """SPD matrix with a random eigenbasis and eigenvalues log-spaced over [1, cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(0.0, np.log10(cond), d)) @ q.T)


def push_forward_error(f, p, q):
    """Relative spectral-norm error of the covariance of p pushed through f, against q."""
    cov = f.slope @ p.cov @ f.slope.T + f.noise_cov
    return np.linalg.norm(cov - q.cov, 2) / np.linalg.norm(q.cov, 2)


def test_gelbrich_w2_of_a_measure_with_itself_is_round_off():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = g.GaussianMeasure(rng.standard_normal(3), random_spd(rng, 3))
        assert g.gelbrich_w2(p, p) <= 1e-13


def test_gelbrich_w2_matches_trace_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        p = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d, 0.1, 5.0))
        q = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d, 0.1, 5.0))
        q_half = spd.principal_sqrt(q.cov)
        # tr (q^{1/2} p q^{1/2})^{1/2}: the sum of the square roots of its eigenvalues
        cross = np.sum(np.sqrt(np.linalg.eigvalsh(q_half @ p.cov @ q_half)))
        trace_form = np.sqrt(np.sum((p.mean - q.mean) ** 2) + np.trace(p.cov + q.cov) - 2.0 * cross)
        assert abs(g.gelbrich_w2(p, q) - trace_form) <= 1e-12 * trace_form


@pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
def test_bridge_matches_janati_closed_form(t):
    """beta = I, tau = t I: the bridge coupling has cross-covariance
    C = (u^{1/2} D u^{-1/2} - t I) / 2 with D = (4 u^{1/2} v u^{1/2} + t^2 I)^{1/2}
    (Janati et al. 2020, "Entropic OT between unbalanced Gaussian measures has
    a closed form"), so the slope is C' u^{-1} and the noise v - C' u^{-1} C."""

    def sqrtm(a):
        w, q = np.linalg.eigh(a)
        return (q * np.sqrt(w)) @ q.T

    rng = np.random.default_rng(2020)
    for d in range(1, 6):
        u, v = random_spd(rng, d, 0.3, 3.0), random_spd(rng, d, 0.3, 3.0)
        mu = g.GaussianMeasure(rng.standard_normal(d), u)
        eta = g.GaussianMeasure(rng.standard_normal(d), v)
        k = g.LinearGaussianKernel(np.zeros(d), np.eye(d), t * np.eye(d))
        u_half = sqrtm(u)
        dd = sqrtm(4.0 * u_half @ v @ u_half + t**2 * np.eye(d))
        c = 0.5 * (u_half @ dd @ np.linalg.inv(u_half) - t * np.eye(d))
        slope = c.T @ np.linalg.inv(u)
        fwd = g.bridge_solve(mu, eta, k).forward
        assert np.max(np.abs(fwd.slope - slope)) <= 1e-12
        assert np.max(np.abs(fwd.noise_cov - (v - slope @ c))) <= 1e-12


@pytest.mark.parametrize("d, cond, tol", [(8, 1e6, 1e-12), (32, 1e8, 1e-11), (64, 1e8, 1e-11)])
def test_bridge_push_forward_accurate_when_ill_conditioned(d, cond, tol):
    """Both maps push their marginal onto the other to round-off times a small factor,
    where forming inverse square roots and a congruence inverse lost the square of cond."""
    rng = np.random.default_rng(0)
    mu = g.GaussianMeasure(np.zeros(d), log_spectrum_spd(rng, d, cond))
    eta = g.GaussianMeasure(np.zeros(d), log_spectrum_spd(rng, d, cond))
    bridge = g.bridge_solve(mu, eta, g.LinearGaussianKernel(np.zeros(d), np.eye(d), np.eye(d)))
    fwd, bwd = bridge.forward, bridge.backward()
    assert push_forward_error(fwd, mu, eta) <= tol
    assert push_forward_error(bwd, eta, mu) <= tol


def test_bridge_and_sinkhorn_take_one_svd(decompositions, monkeypatch, tmp_path):
    """Every Riccati parameter, fixed point and flow comes from one SVD; no varpi is decomposed.

    The ``gaussian`` command and criteria 4, 5 and 7 decompose each (mu, eta, k)
    they read once, the noise sweep included.
    """

    def no_spectrum(varpi):
        raise AssertionError("a Gaussian bridge must not decompose a varpi matrix")

    mu, eta, k = random_model(np.random.default_rng(8), 4)
    with monkeypatch.context() as m:
        m.setattr(riccati, "_spectrum", no_spectrum)
        decompositions.clear()
        bridge = g.bridge_solve(mu, eta, k)
        assert decompositions["svd"] == 1
        decompositions.clear()
        g.bridge_gaps(bridge, g.sinkhorn_run(bridge, 15))
        bridge.backward(), bridge.ot_limit(), bridge.rescaled(0.1).forward
        assert decompositions["svd"] == 0
        decompositions.clear()
        bridge.rescaled(0.1)  # the rescaled kernel scales tau's spectrum and keeps beta's check
        assert not decompositions

    calls = []
    bridge_factors = g.bridge_factors
    monkeypatch.setattr(g, "bridge_factors", lambda *a: calls.append(a) or bridge_factors(*a))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    assert count(lambda: cli.main(["gaussian", "--out", str(tmp_path / "gaussian")])) == 1
    # criterion 7: one model, four noises
    assert count(lambda: verify.criterion_ot_limit(seed=0)) == 1
    # criteria 4 and 5: the standard model alone, then one stack per dimension
    # of the random models, whether ten are drawn or thirty
    draw = verify._gaussian_models
    for n_models in (10, 30):
        monkeypatch.setattr(verify, "_gaussian_models", lambda seed: draw(seed, count=n_models))
        groups = len(draw(3, count=n_models))  # criteria 4 and 5 draw from seed + 3
        assert count(lambda: verify.criterion_bridge_vs_sinkhorn(seed=0)) == 1 + groups
        assert count(lambda: verify.criterion_improved_rate(seed=0)) == 1 + groups


def _relative_error(got, want):
    return float(np.max(np.abs(got / want - 1.0)))


def test_bridge_gaps_match_the_per_state_reference():
    """The chain-rule gaps against the joint relative entropy in 80 digits, to relative 1e-12.

    The first model of each dimension 1..4 among 24 random ones, and the
    standard model to n = 25, where the gaps fall to ~1e-44.  The joint
    relative entropy subtracted in doubles, whose error is ~1e-13
    absolute, agrees to 1e-12.  A run of 3 pairs, its record and its gaps,
    is bitwise the first 8 states of the longer run.
    """
    # each dimension's stack keeps draw order, so its slice 0 is the first model drawn of that dimension
    firsts = {stack[0].dim: model_slice(stack, 0) for stack in verify._gaussian_models(3, count=24)}
    assert sorted(firsts) == [1, 2, 3, 4]
    for (mu, eta, k), n_pairs in [((firsts[d]), 6) for d in (1, 2, 3, 4)] + [(std_model(), 25)]:
        bridge = g.bridge_solve(mu, eta, k)
        run = g.sinkhorn_run(bridge, n_pairs)
        gaps = g.bridge_gaps(bridge, run)
        assert gaps.shape == (2 * n_pairs + 2,)
        assert _relative_error(gaps, bridge_gaps_mp(mu, eta, k, n_pairs)) <= 1e-12
        assert np.max(np.abs(gaps - joint_gaps(bridge, run))) <= 1e-12
        short = g.sinkhorn_run(bridge, 3)
        assert all(np.array_equal(x, y[:8]) for x, y in zip(short, run, strict=True))
        assert np.array_equal(g.bridge_gaps(bridge, short), gaps[:8])


def test_bridge_gaps_keep_relative_accuracy_for_a_sharp_kernel():
    """At tau = 1e-6 the gaps sit near 1.25e-7 beside conditional covariances of 1e-6; they match to 1e-9."""
    mu, eta, _ = std_model()
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1e-6]])
    bridge = g.bridge_solve(mu, eta, k)
    gaps = g.bridge_gaps(bridge, g.sinkhorn_run(bridge, 30))
    assert _relative_error(gaps, bridge_gaps_mp(mu, eta, k, 30)) <= 1e-9


def test_bridge_gaps_reject_a_state_that_is_not_positive_definite():
    """A conditional covariance F + Delta with an eigenvalue at 0 raises DomainError, not an inf or NaN gap."""
    bridge = g.bridge_solve(*std_model())
    run = g.sinkhorn_run(bridge, 1)
    delta = run.delta.copy()
    delta[2] = -np.diag(riccati._fixed_scalar(bridge.factors.lam))  # state 2's A = F + Delta is null
    with pytest.raises(DomainError, match="not positive definite"):
        g.bridge_gaps(bridge, run._replace(delta=delta))


def test_psi_series_meets_the_direct_form():
    """psi(y) = log1p(y) - y / (1 + y) to relative 1e-14 on both sides of the series cut |y| = 0.05.

    Just above the cut the direct form still cancels about five bits.
    """
    y = np.r_[-0.9, -0.3, 1e-150, 0.3, 10.0, 1e10, np.linspace(-0.2, 0.2, 401), 0.05 * (1 + np.finfo(float).eps)]
    y = np.r_[y, -y[y < 1.0]]
    y = y[y != 0.0]
    with mpmath.workdps(400):
        want = np.array([float(mpmath.log1p(x) - x / (1 + x)) for x in map(mpmath.mpf, y)])
    got = g._psi(y)
    assert np.all(got > 0.0) and _relative_error(got, want) <= 1e-14
    assert g._psi(np.zeros(1))[0] == 0.0


def test_bridge_gaps_decompose_once_for_any_number_of_states(monkeypatch):
    """One d x d eigh per parity whatever the number of states; no 2d x 2d joint is decomposed and no slogdet taken."""
    mu, eta, k = verify._gaussian_models(3)[0]
    d = mu.dim
    bridge = g.bridge_solve(mu, eta, k)
    seen = collections.Counter()

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            seen[name, np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "solve", "inv", "cholesky", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    counts = []
    for n_pairs in (5, 40):
        run = g.sinkhorn_run(bridge, n_pairs)
        seen.clear()
        g.bridge_gaps(bridge, run)
        counts.append(dict(seen))
    assert counts[0] == counts[1] == {("eigh", d): 2}


def test_gaps_run_no_second_riccati_trajectory(monkeypatch):
    """``sinkhorn_run`` runs the two Riccati flows, and ``bridge_gaps`` reads their Delta_n and runs none."""
    calls = []
    iterate = riccati._iterate_spectral
    monkeypatch.setattr(riccati, "_iterate_spectral", lambda *a: calls.append(a) or iterate(*a))
    bridge = g.bridge_solve(*random_model(np.random.default_rng(8), 3))
    run = g.sinkhorn_run(bridge, 12)
    assert len(calls) == 2
    g.bridge_gaps(bridge, run)
    assert len(calls) == 2


def test_kernel_chi_computed_once(decompositions):
    rng = np.random.default_rng(3)
    beta = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    k = g.LinearGaussianKernel(np.zeros(3), beta, random_spd(rng, 3))
    decompositions.clear()
    for kernel, tau in ((k, k.tau), (k.rescaled(2.5), 2.5 * k.tau)):
        assert np.allclose(kernel.chi, np.linalg.solve(tau, beta), rtol=1e-12, atol=1e-12)
    # the rescaled kernel is built from tau's spectrum scaled by 2.5; only the reference solves ran
    assert decompositions == {"solve": 2}


def test_ot_limit_matches_geometric_mean():
    """The slope is ((chi0 u chi0')^{-1} # v) chi0, # the matrix geometric mean."""
    rng = np.random.default_rng(41)
    for d in range(1, 5):
        mu = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
        eta = g.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
        tau0 = random_spd(rng, d)
        beta = 0.3 * rng.standard_normal((d, d)) + np.eye(d)
        chi0 = np.linalg.solve(tau0, beta)
        slope = geometric_mean(np.linalg.inv(chi0 @ mu.cov @ chi0.T), eta.cov) @ chi0
        lim = g.bridge_solve(mu, eta, g.LinearGaussianKernel(np.zeros(d), beta, tau0)).ot_limit()
        assert np.max(np.abs(lim.slope - slope)) <= 1e-12
        assert np.allclose(lim.intercept + lim.slope @ mu.mean, eta.mean, atol=1e-12)


def test_rescaled_bridge_matches_a_fresh_solve():
    """Scaling tau by t divides the singular values by t and leaves every other factor as it was.

    The zero-noise limit, which no noise level changes, is kept to round-off.
    """
    def norm(a):
        return np.linalg.norm(a, 2, axis=(-2, -1))

    def largest(a):
        return np.abs(a).max(axis=(-2, -1))

    for mu, eta, k in verify._gaussian_models(4):  # criterion 6's models at seed 0, a stack per dimension
        bridge = g.bridge_solve(mu, eta, k)
        lim = bridge.ot_limit().slope
        for t in np.logspace(-3.0, 3.0, 13):
            rescaled = bridge.rescaled(t)
            fresh = g.bridge_solve(mu, eta, k.rescaled(t)).forward
            for got, want in ((rescaled.forward.slope, fresh.slope), (rescaled.forward.noise_cov, fresh.noise_cov)):
                assert np.all(norm(got - want) <= 1e-13 * norm(want))
            assert np.all(largest(rescaled.ot_limit().slope - lim) <= 1e-14 * largest(lim))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "tau, cov, t",
    [(1e300, 1e-10, 1.0), (1e-300, 1e10, 1.0), (1e-160, 1.0, 1.0), (1.0, 1.0, 1e-160)],
    ids=["1e+300-1e-10", "1e-300-10000000000.0", "1e-160-1.0", "unit-rescaled-1e-160"],
)
def test_bridge_out_of_double_range_raises(tau, cov, t):
    """Singular values whose square over- or underflows stop with DomainError, not a zero slope or NaN.

    The noise t * tau is reached by a fresh solve and by rescaling the bridge for tau.
    """
    mu = g.GaussianMeasure([0.0], [[cov]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[tau]])
    for call in (
        lambda: g.bridge_solve(mu, mu, k.rescaled(t)),
        lambda: g.bridge_solve(mu, mu, k).rescaled(t),
        lambda: varpi_pair(mu, mu, k.rescaled(t)),
    ):
        with pytest.raises(DomainError, match="degenerate"):
            call()


@pytest.mark.parametrize("make", [
    lambda: g.LinearGaussianKernel([0.0], [[np.nan]], [[1.0]]),
    lambda: g.LinearGaussianKernel([0.0], [[np.inf]], [[1.0]]),
    lambda: g.LinearGaussianKernel([np.nan], [[1.0]], [[1.0]]),
    lambda: g.GaussianMeasure([np.inf], [[1.0]]),
    lambda: g.GaussianMeasure([np.nan, 0.0], np.eye(2)),
], ids=["kernel-beta-nan", "kernel-beta-inf", "kernel-alpha-nan", "measure-mean-inf", "measure-mean-nan"])
def test_constructors_reject_non_finite_input(make, decompositions):
    """A non-finite mean, alpha or beta raises DomainError before any decomposition reads it."""
    decompositions.clear()
    with pytest.raises(DomainError, match="must be finite"):
        make()
    assert not decompositions
