import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
import references
import scipy.special
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, logsumexp

from sinkbridge import discrete, models, verify
from sinkbridge import gaussian as g
from sinkbridge.errors import ConfigError, DomainError, ShapeError


def gaussian_desk_model(n=64, radius=8.0, t=1.0, u=1.0, v=1.0):
    grid = discrete.uniform_grid(1, n, radius)
    return discrete.build_model(
        models.quadratic_potential([0.0], [[u]]),
        models.quadratic_potential([0.0], [[v]]),
        models.linear_gaussian_channel_potential([0.0], [[1.0]], [[t]]),
        grid,
    )


def constant_channel_model(n=16):
    grid = discrete.uniform_grid(1, n, 6.0)
    return discrete.build_model(
        models.quadratic_potential([0.3], [[1.0]]),
        models.quadratic_potential([-0.5], [[0.7]]),
        lambda xs, ys: np.full((xs.shape[0], ys.shape[0]), 2.7),
        grid,
    )


def test_uniform_grid_weights():
    grid = discrete.uniform_grid(1, 64, 8.0)
    assert grid.size == 64
    assert np.allclose(grid.weights, 0.25)
    grid2 = discrete.uniform_grid(2, 8, 4.0)
    assert grid2.size == 64 and grid2.dim == 2
    assert np.allclose(grid2.weights, 1.0)
    with pytest.raises(DomainError):
        discrete.uniform_grid(3, 4, 1.0)


def test_build_model_gaussian_tail_mass():
    model = gaussian_desk_model()
    # standard normal mass beyond the domain edge, two-sided
    tail = erfc(8.0 / np.sqrt(2.0))
    assert tail < 1e-12
    # discrete normalization holds exactly
    assert abs(np.sum(np.exp(model.log_mu) * model.grid.weights) - 1.0) < 1e-12
    assert abs(np.sum(np.exp(model.log_eta) * model.grid.weights) - 1.0) < 1e-12
    rows = np.exp(-model.w_pot) @ model.grid.weights
    assert np.max(np.abs(rows - 1.0)) < 1e-12


def test_build_model_constant_channel_rows_uniform():
    model = constant_channel_model()
    total = model.grid.weights.sum()
    assert np.allclose(np.exp(-model.w_pot), 1.0 / total)


def test_build_model_shape_error():
    grid = discrete.uniform_grid(1, 8, 4.0)
    with pytest.raises(ShapeError):
        discrete.build_model(
            models.quadratic_potential([0.0], [[1.0]]),
            models.quadratic_potential([0.0], [[1.0]]),
            lambda xs, ys: np.zeros((3, 3)),
            grid,
        )


def test_build_model_underflow_diagnostic():
    grid = discrete.uniform_grid(1, 8, 4.0)
    quad = models.quadratic_potential([0.0], [[1.0]])
    channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]])

    def massless(pts):
        return np.full(pts.shape[0], np.inf)

    for u_fn, v_fn in ((massless, quad), (quad, massless)):
        with pytest.raises(DomainError, match="underflows to zero total mass"):
            discrete.build_model(u_fn, v_fn, channel, grid)
    # a channel whose sharpest row overflows off the coarse grid entirely
    def razor_channel(xs, ys):
        # offset keeps every node pair at least half a cell from the ridge
        with np.errstate(over="ignore"):
            return np.exp(((ys[None, :, 0] - xs[:, None, 0] - 0.5) * 500.0) ** 2)

    with pytest.raises(DomainError, match="grid too narrow"):
        discrete.build_model(
            models.quadratic_potential([0.0], [[1.0]]),
            models.quadratic_potential([0.0], [[1.0]]),
            razor_channel,
            grid,
        )


def test_initial_state_pairing_structure():
    model = gaussian_desk_model(n=32)
    s0 = discrete.initial_state(model)
    assert s0.n == 0
    assert np.array_equal(s0.v, np.zeros(model.grid.size))
    s1 = discrete.sinkhorn_step(s0)
    assert np.array_equal(s1.u, s0.u)  # U_1 == U_0
    s2 = discrete.sinkhorn_step(s1)
    assert np.array_equal(s2.v, s1.v)  # V_2 == V_1
    s3 = discrete.sinkhorn_step(s2)
    assert np.array_equal(s3.u, s2.u)  # U_3 == U_2


def test_marginal_exactness_by_parity():
    model = gaussian_desk_model(n=48)
    state = discrete.initial_state(model)
    for _ in range(8):
        assert discrete.marginal_residual(state, state.n % 2) < 1e-12
        state = discrete.sinkhorn_step(state)


def test_constant_channel_converges_in_one_half_step():
    model = constant_channel_model()
    s1 = discrete.sinkhorn_step(discrete.initial_state(model))
    product = model.log_mu[:, None] + model.log_eta[None, :]
    assert np.max(np.abs(discrete.plan_log_density(s1) - product)) < 1e-12
    assert max(discrete.marginal_residual(s1, 0), discrete.marginal_residual(s1, 1)) < 1e-12


def test_two_point_toy_matches_hand_scaling():
    # two nodes, unit weights; everything computable by hand
    grid = discrete.Grid(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    u_tab = np.array([np.log(2.0), np.log(2.0)])  # mu = (1/2, 1/2)
    v_tab = np.array([np.log(4.0) - np.log(3.0), np.log(4.0)])  # eta = (3/4, 1/4)
    w_tab = np.log(np.array([[2.0, 2.0], [4.0, 4.0 / 3.0]]))  # rows sum to 1
    model = discrete.build_model(lambda p: u_tab, lambda p: v_tab, lambda xs, ys: w_tab, grid)
    assert np.allclose(np.exp(model.log_mu), [0.5, 0.5])
    assert np.allclose(np.exp(model.log_eta), [0.75, 0.25])

    s0 = discrete.initial_state(model)
    p0 = discrete.plan_mass(s0)
    k = np.exp(-w_tab)
    assert np.allclose(p0, 0.5 * k)

    # hand column scaling to eta masses
    s1 = discrete.sinkhorn_step(s0)
    col = p0.sum(axis=0)
    expected1 = p0 * (np.array([0.75, 0.25]) / col)[None, :]
    assert np.max(np.abs(discrete.plan_mass(s1) - expected1)) < 1e-14

    # hand row scaling back to mu masses
    s2 = discrete.sinkhorn_step(s1)
    row = expected1.sum(axis=1)
    expected2 = expected1 * (0.5 / row)[:, None]
    assert np.max(np.abs(discrete.plan_mass(s2) - expected2)) < 1e-14


def test_run_gaussian_desk_model_converges():
    model = gaussian_desk_model()
    trace = discrete.run(model, 200, tol=1e-10)
    assert trace.converged
    assert all(b <= a + 1e-12 for a, b in zip(trace.residuals, trace.residuals[1:]))


def test_run_terminal_slope_matches_closed_form():
    model = gaussian_desk_model()
    trace = discrete.run(model, 200, tol=1e-12)
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    fwd = g.bridge_solve(mu, eta, k).forward
    means, _ = discrete.conditional_moments(trace.states[-1])
    pts = model.grid.points[:, 0]
    h = pts[1] - pts[0]
    central = np.abs(pts) < 2.0
    slope = np.polyfit(pts[central], means[central, 0], 1)[0]
    assert abs(slope - fwd.slope[0, 0]) < 2.0 * h**2


def test_run_nonconvergent_flag():
    model = gaussian_desk_model(n=32)
    trace = discrete.run(model, 1, tol=1e-15)
    assert not trace.converged
    assert len(trace.h_pi2n_eta) >= 1  # partial trace still populated


def test_mirror_symmetry_for_symmetric_model():
    # mu = eta with a symmetric channel: the two potential sequences are one
    # recursion interleaved, so the converged even and odd marginals mirror
    # each other (and the common target) exactly
    model = gaussian_desk_model()
    trace = discrete.run(model, 300, tol=1e-11)
    assert trace.converged
    last_even = [s for s in trace.states if s.n % 2 == 0][-1]
    last_odd = [s for s in trace.states if s.n % 2 == 1][-1]
    pi_even = discrete.plan_marginal(last_even, 1)
    pi_odd = discrete.plan_marginal(last_odd, 0)
    assert np.max(np.abs(pi_even - pi_odd)) < 1e-10


def test_bridge_oracle_identity_when_target_is_pushforward():
    # eta chosen as the exact push-forward law mu K: the reference plan is
    # already the bridge, so the oracle must return (essentially) itself.
    # radius 10 keeps the channel's boundary-truncation mass below 1e-12.
    model = gaussian_desk_model(n=80, radius=10.0, v=2.0)
    oracle = discrete.bridge_oracle(model).states[-2]
    s0 = discrete.initial_state(model)
    kl = discrete.joint_relative_entropy(
        discrete.plan_log_density(oracle), discrete.plan_log_density(s0), model.grid.weights
    )
    assert kl < 1e-12
    assert np.max(np.abs(discrete.plan_mass(oracle) - discrete.plan_mass(s0))) < 1e-12


def test_bridge_oracle_constant_channel_is_product():
    model = constant_channel_model()
    oracle = discrete.bridge_oracle(model).states[-2]
    product = model.log_mu[:, None] + model.log_eta[None, :]
    assert np.max(np.abs(discrete.plan_log_density(oracle) - product)) < 1e-12


def test_bridge_oracle_second_moments_match_closed_form():
    model = gaussian_desk_model()
    oracle = discrete.bridge_oracle(model).states[-2]
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    plan = references.bridge_plan(g.bridge_solve(mu, eta, k))
    mass = discrete.plan_mass(oracle)
    pts = model.grid.points[:, 0]
    exx = float(np.sum(mass * pts[:, None] ** 2))
    eyy = float(np.sum(mass * pts[None, :] ** 2))
    exy = float(np.sum(mass * pts[:, None] * pts[None, :]))
    assert abs(exx - plan.cov[0, 0]) < 1e-10
    assert abs(eyy - plan.cov[1, 1]) < 1e-10
    assert abs(exy - plan.cov[0, 1]) < 1e-10


def test_entropy_report_chains_and_telescoping():
    grid = discrete.uniform_grid(1, 64, 8.0)
    model = discrete.build_model(
        models.quadratic_potential([0.0], [[1.0]]),
        models.gaussian_mixture_potential([0.5, 0.5], [[-2.0], [2.0]], [[[0.5]], [[0.5]]]),
        models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]]),
        grid,
    )
    trace = discrete.run(model, 200, tol=1e-11)
    assert trace.converged
    oracle = discrete.bridge_oracle(model)
    rep = discrete.entropy_report(trace, oracle)

    # every sequence strictly decreases and stays positive, compared exactly
    for key in ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu", "H_bridge_even", "H_bridge_odd"):
        seq = rep[key]
        assert all(0.0 < b < a for a, b in zip(seq, seq[1:])), key
        assert seq[-1] < 1e-9

    # four-term chains linking marginal entropies across half-steps
    for n in range(1, trace.n_sweeps + 1):
        assert rep["H_pi2n_eta"][n] <= rep["H_mu_pi2n1"][n - 1]
        assert rep["H_mu_pi2n1"][n - 1] <= rep["H_pi2n_eta"][n - 1]
        assert rep["H_pi2n1_mu"][n] <= rep["H_eta_pi2n"][n]
        assert rep["H_eta_pi2n"][n] <= rep["H_pi2n1_mu"][n - 1]

    # bridge-gap dominates the marginal gap, and the identities telescope:
    # H(P*|P_2n) - H(P*|P_2n+1) = H(eta|pi_2n), H(P*|P_2n+1) - H(P*|P_2n+2) = H(mu|pi_2n+1)
    even, odd = np.array(rep["H_bridge_even"]), np.array(rep["H_bridge_odd"])
    assert np.all(np.array(rep["H_eta_pi2n"]) <= even)
    eps = np.finfo(float).eps
    assert np.all(np.abs(even - odd - rep["H_eta_pi2n"]) <= 2 * eps * even)
    assert np.all(np.abs(odd[:-1] - even[1:] - rep["H_mu_pi2n1"][:-1]) <= 2 * eps * odd[:-1])


def test_entropy_report_double_well_monotone_only():
    grid = discrete.uniform_grid(1, 64, 8.0)
    model = discrete.build_model(
        models.quartic_double_well_potential(0.05, 0.8),
        models.quadratic_potential([0.0], [[1.0]]),
        models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]]),
        grid,
    )
    trace = discrete.run(model, 300, tol=1e-10)
    assert trace.converged
    oracle = discrete.bridge_oracle(model)
    rep = discrete.entropy_report(trace, oracle)
    for key in ("H_pi2n_eta", "H_eta_pi2n", "H_bridge_even", "H_bridge_odd"):
        seq = rep[key]
        assert all(0.0 < b < a for a, b in zip(seq, seq[1:])), key


def test_potential_recursion_equals_matrix_scaling():
    for model in (gaussian_desk_model(n=48), constant_channel_model()):
        plans = discrete.matrix_scaling_plans(model, 10)
        state = discrete.initial_state(model)
        for n in range(11):
            assert np.max(np.abs(discrete.plan_mass(state) - plans[n])) < 1e-12
            state = discrete.sinkhorn_step(state)


def test_gaussian_consistency_under_grid_halving():
    """Converged grid plans at N = 32, 48 and 64 against the closed-form bridge's conditional variance.

    A sharp channel (t = 0.05) keeps every error far above round-off
    (~1.5e-2, 2.6e-4 and 5.1e-7).  The midpoint rule's error on a Gaussian
    integrand falls like A h^-2 exp(-c / h^2) with c = 2 pi^2 t, and each
    pair of neighbouring grids must give that c to within criterion 10's 5%.
    """
    t, radius, sizes = 0.05, 8.0, np.array([32, 48, 64])
    std = g.GaussianMeasure([0.0], [[1.0]])
    fwd = g.bridge_solve(std, std, g.LinearGaussianKernel([0.0], [[1.0]], [[t]])).forward
    errs = []
    for n in sizes:
        oracle = discrete.bridge_oracle(gaussian_desk_model(n=n, radius=radius, t=t), max_sweeps=20000).states[-2]
        errs.append(abs(discrete.mean_conditional_cov(oracle)[0, 0] - fwd.noise_cov[0, 0]))
    errs = np.array(errs)
    assert errs.min() > 1e-10
    inv_h2 = (sizes / (2.0 * radius)) ** 2
    fitted = (np.log(errs[:-1] / errs[1:]) - np.log(inv_h2[:-1] / inv_h2[1:])) / np.diff(inv_h2)
    assert np.all(np.abs(fitted / (2.0 * np.pi**2 * t) - 1.0) <= 0.05)


def test_model_from_spec_roundtrip():
    doc = {
        "grid": {"dim": 1, "n": 32, "radius": 6.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
    }
    model = models.model_from_spec(doc)
    direct = gaussian_desk_model(n=32, radius=6.0)
    assert np.allclose(model.u_pot, direct.u_pot)
    assert np.allclose(model.w_pot, direct.w_pot)
    with pytest.raises(ConfigError, match="model is missing key 'U'"):
        models.model_from_spec({"grid": {"dim": 1, "n": 8, "radius": 1.0}})


def test_model_from_spec_tabulated_channel(tmp_path):
    grid = discrete.uniform_grid(1, 8, 4.0)
    w_fn = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]])
    table = w_fn(grid.points, grid.points)
    path = tmp_path / "w.npy"
    np.save(path, table)
    doc = {
        "grid": {"dim": 1, "n": 8, "radius": 4.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "W": {"kind": "tabulated", "path": str(path)},
    }
    model = models.model_from_spec(doc)
    direct = discrete.build_model(
        models.quadratic_potential([0.0], [[1.0]]),
        models.quadratic_potential([0.0], [[1.0]]),
        w_fn,
        grid,
    )
    assert np.allclose(model.w_pot, direct.w_pot)


def test_two_dimensional_grid_runs():
    grid = discrete.uniform_grid(2, 12, 5.0)
    model = discrete.build_model(
        models.quadratic_potential([0.0, 0.0], np.eye(2)),
        models.quadratic_potential([0.5, -0.5], 0.8 * np.eye(2)),
        models.linear_gaussian_channel_potential([0.0, 0.0], np.eye(2), np.eye(2)),
        grid,
    )
    trace = discrete.run(model, 100, tol=1e-9)
    assert trace.converged
    state = discrete.initial_state(model)
    assert discrete.marginal_residual(state, 0) < 1e-12


def two_dimensional_model(n=16):
    grid = discrete.uniform_grid(2, n, 5.0)
    return discrete.build_model(
        models.quadratic_potential([0.0, 0.0], np.eye(2)),
        models.quadratic_potential([0.5, -0.5], [[0.8, 0.2], [0.2, 0.6]]),
        models.linear_gaussian_channel_potential([0.0, 0.0], 0.9 * np.eye(2), 0.7 * np.eye(2)),
        grid,
    )


def test_lean_reduction_matches_logsumexp():
    rng = np.random.default_rng(7)
    t = rng.uniform(-40.0, 60.0, size=(37, 53))
    t[rng.uniform(size=t.shape) < 0.2] = np.inf
    t[5, :] = np.inf  # a row with no mass
    t[:, 11] = np.inf  # a column with no mass
    for axis in (0, 1):
        want = logsumexp(-t, axis=axis)
        got = discrete._neg_lse(t.copy(), axis)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.isneginf(got).any()
        finite = np.isfinite(want)
        assert np.all(np.isfinite(got[finite]))
        assert np.max(np.abs(got[finite] - want[finite])) < 1e-13


def test_fused_residuals_and_entropies_match_plan_marginals():
    for model in (verify._desk_models()["bimodal-v"], two_dimensional_model(12)):
        w = model.grid.weights
        trace = discrete.run(model, 200, tol=1e-11)
        assert trace.converged
        for n in range(trace.n_sweeps + 1):
            even, odd = trace.states[2 * n], trace.states[2 * n + 1]
            pi_even = discrete.plan_marginal(even, 1)
            pi_odd = discrete.plan_marginal(odd, 0)
            expected = [
                discrete.relative_entropy(pi_even, model.log_eta, w),
                discrete.relative_entropy(model.log_eta, pi_even, w),
                discrete.relative_entropy(model.log_mu, pi_odd, w),
                discrete.relative_entropy(pi_odd, model.log_mu, w),
                max(discrete.marginal_residual(even, 1), discrete.marginal_residual(odd, 0)),
            ]
            fused = [
                trace.h_pi2n_eta[n], trace.h_eta_pi2n[n], trace.h_mu_pi2n1[n], trace.h_pi2n1_mu[n],
                trace.residuals[n],
            ]
            assert np.max(np.abs(np.subtract(fused, expected))) < 1e-12


def test_bridge_gaps_match_dense_joint_entropy():
    cases = list(verify._desk_models().values()) + [two_dimensional_model(16)]
    for model in cases:
        trace = discrete.run(model, 300, tol=1e-11)
        oracle = discrete.bridge_oracle(model, start=trace.states[-2])
        rep = discrete.entropy_report(trace, oracle)
        ref = discrete.plan_log_density(oracle.states[-2])
        for state in trace.states:
            dense = discrete.joint_relative_entropy(ref, discrete.plan_log_density(state), model.grid.weights)
            key = "H_bridge_even" if state.n % 2 == 0 else "H_bridge_odd"
            assert abs(rep[key][state.n // 2] - dense) < 1e-12


def test_resumed_oracle_equals_cold_oracle():
    model = verify._desk_models()["double-well-u"]
    trace = discrete.run(model, 300, tol=1e-10)
    cold = discrete.bridge_oracle(model).states[-2]
    warm = discrete.bridge_oracle(model, start=trace.states[-2]).states[-2]
    assert warm.n == cold.n
    assert np.array_equal(warm.u, cold.u) and np.array_equal(warm.v, cold.v)
    with pytest.raises(DomainError, match="even state"):
        discrete.bridge_oracle(model, start=trace.states[-1])


@pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-14])
def test_oracle_continues_a_run_without_repeating_a_kernel_pass(tol, monkeypatch, hard_zero_target_model):
    """Each kernel pass makes the next state from state 0 on, so n + 1 passes reach state n with none repeated.

    The oracle continues the trace from the even state its final sweep
    made; a run already below ORACLE_TOL (tol 1e-14) is its own oracle.
    Both give bitwise the report and reference of an oracle restarted at
    the trace's last even state.
    """
    passes = []
    kernel_pass = discrete._kernel_pass
    monkeypatch.setattr(discrete, "_kernel_pass", lambda *a: passes.append(a) or kernel_pass(*a))
    for model in [*verify._desk_models().values(), hard_zero_target_model]:
        passes.clear()
        trace = discrete.run(model, 300, tol=tol)
        oracle = discrete.bridge_oracle(model, start=trace)
        assert trace.converged and (oracle is trace) == (tol < discrete.ORACLE_TOL)
        assert oracle.states[0].n == (0 if oracle is trace else trace.states[-1].n + 1)
        assert len(passes) == oracle.resume.n + 1
        restarted = discrete.bridge_oracle(model, start=trace.states[-2])
        assert discrete.entropy_report(trace, oracle) == discrete.entropy_report(trace, restarted)
        assert np.array_equal(discrete.plan_log_density(oracle.states[-2]),
                              discrete.plan_log_density(restarted.states[-2]))


def test_hard_zero_target_converges_on_its_support(hard_zero_target_model):
    model = hard_zero_target_model
    assert np.isinf(model.v_pot).any()
    trace = discrete.run(model, 500, tol=1e-13)
    assert trace.converged and trace.n_sweeps <= 40
    for seq in (trace.h_pi2n_eta, trace.h_eta_pi2n, trace.h_mu_pi2n1, trace.h_pi2n1_mu, trace.residuals):
        assert np.all(np.isfinite(seq))
    oracle = discrete.bridge_oracle(model)
    reference = oracle.states[-2]
    assert max(discrete.marginal_residual(reference, 0), discrete.marginal_residual(reference, 1)) < 1e-12
    # the converged plan puts no mass where eta has a hard zero
    assert np.all(discrete.plan_mass(reference)[:, np.isinf(model.v_pot)] == 0.0)
    rep = discrete.entropy_report(trace, oracle)
    assert verify.chains_monotone(rep)
    # P_0 leaks mass off supp(eta): row 0's gap holds the leak, as the dense joint relative entropy does
    ref = discrete.plan_log_density(reference)
    gaps = [x for pair in zip(rep["H_bridge_even"], rep["H_bridge_odd"]) for x in pair]
    for state, gap in zip(trace.states, gaps):
        assert gap > 0.0
        dense = discrete.joint_relative_entropy(ref, discrete.plan_log_density(state), model.grid.weights)
        assert abs(gap - dense) < 1e-12


def hard_zero_source_model():
    """The default 1-d grid with mu a standard normal cut off above x = 2.5 (U = +inf there)."""
    quad = models.quadratic_potential([0.0], [[1.0]])

    def u_fn(points):
        out = quad(points)
        out[points[:, 0] > 2.5] = np.inf
        return out

    channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]])
    return discrete.build_model(u_fn, quad, channel, discrete.uniform_grid(1, 64, 8.0))


# the largest measured difference is 1.43e-14, on the gap H(P*|P_0) ~ 0.63 of the factored hard-zero target
SUBTRACTED_BOUND = 2e-14


def test_lean_loop_matches_per_sweep_bookkeeping(monkeypatch, hard_zero_target_model):
    """The entropy chains formed after the loop, and the tail-sum bridge gaps, equal the per-sweep forms bit for bit.

    The first-order forms, ``relative_entropy`` of each marginal and the
    gaps as dot products in the potentials, agree to an absolute SUBTRACTED_BOUND.
    """
    cases = [*verify._desk_models().values(), hard_zero_target_model, hard_zero_source_model(),
             factored_hard_zero_target()[2]]
    assert np.isinf(cases[3].v_pot).any() and np.isinf(cases[4].u_pot).any() and np.isinf(cases[5].v_pot).any()
    entropies = counted_calls(monkeypatch, "relative_entropy")
    worst = 0.0
    for model in cases:
        for budget in (3, 300):
            entropies.clear()
            trace = discrete.run(model, budget, tol=1e-12)
            assert entropies == []
            want, subtracted = references.per_sweep_run(model, budget, tol=1e-12)
            assert trace.converged == want.converged
            assert [s.n for s in trace.states] == [s.n for s in want.states]
            for key in ("h_pi2n_eta", "h_eta_pi2n", "h_mu_pi2n1", "h_pi2n1_mu", "residuals"):
                assert getattr(trace, key) == getattr(want, key), key
            for key, seq in subtracted.items():
                worst = max(worst, np.max(np.abs(np.subtract(getattr(trace, key), seq))))
        assert trace.converged
        oracle = discrete.bridge_oracle(model, start=trace.states[-2])
        rep = discrete.entropy_report(trace, oracle)
        assert rep == references.per_state_entropy_report(want, oracle)
        even, odd = references.linear_bridge_gaps(trace, oracle)
        worst = max(worst, np.max(np.abs(np.subtract(rep["H_bridge_even"], even))),
                    np.max(np.abs(np.subtract(rep["H_bridge_odd"], odd))))
    assert worst <= SUBTRACTED_BOUND


@pytest.mark.parametrize("name", ["gaussian", "double-well-u", "bimodal-v", "hard-zero-target"])
def test_entropies_meet_the_60_digit_recursion(monkeypatch, name, hard_zero_target_model):
    """Chains and tail-sum gaps against ``references.grid_entropies_mp``, on the N = 32 desk models and a hard zero.

    Relative 1e-3 where the reference exceeds 1e-24 and 1e-6 where it
    exceeds 1e-20 (measured: 2.9e-4 and 3.8e-7).  The hard-zero target
    covers row 0's leak, without which H(eta | pi_0) is off by 0.0168.
    """
    if name == "hard-zero-target":
        model = hard_zero_target_model
    else:  # criterion 9's desk model, built on 32 nodes
        grid = discrete.uniform_grid
        monkeypatch.setattr(discrete, "uniform_grid", lambda dim, n, radius: grid(dim, 32, radius))
        model = verify._desk_models()[name]
    trace = discrete.run(model, 300, tol=1e-11)
    rep = discrete.entropy_report(trace, discrete.bridge_oracle(model, start=trace.states[-2]))
    want = references.grid_entropies_mp(model, len(trace.states))
    for key, seq in want.items():
        got, seq = np.array(rep[key]), np.array(seq)
        assert np.all(got > 0.0), key
        err = np.abs(got - seq) / seq
        assert np.all(err[seq > 1e-24] <= 1e-3) and np.all(err[seq > 1e-20] <= 1e-6), key


def test_relative_entropy_zero_log_zero():
    # a common hard zero contributes 0 log 0 = 0; mass where q vanishes costs +inf
    w = np.full(3, 0.5)
    log_p = np.array([-np.inf, 0.0, 0.0])
    log_q = np.array([-np.inf, np.log(1.5), np.log(0.5)])
    assert abs(discrete.relative_entropy(log_p, log_q, w) - 0.5 * np.log(4.0 / 3.0)) < 1e-15
    assert discrete.relative_entropy(log_p, np.array([0.0, 0.0, -np.inf]), w) == np.inf
    # a stack of log_q gives one KL per slice, as the single calls give them
    stack = np.array([log_q, [0.0, 0.0, -np.inf], [7.0, 0.0, 0.0]])
    kl = discrete.relative_entropy(log_p, stack, w)
    assert kl.tolist() == [discrete.relative_entropy(log_p, q, w) for q in stack]


def test_a_stack_of_states_shares_one_model():
    grid = discrete.uniform_grid(1, 8, 4.0)
    quad = models.quadratic_potential([0.0], [[1.0]])
    channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]])
    one, other = (discrete.initial_state(discrete.build_model(quad, quad, channel, grid)) for _ in range(2))
    assert discrete.plan_mass([one, discrete.sinkhorn_step(one)]).shape == (2, 8, 8)
    with pytest.raises(ShapeError, match="share one model"):
        discrete.plan_log_density([one, other])


def with_nan(factor, i, j):
    """A copy of a channel factor with a NaN planted at (i, j) of its table and of its kernel."""
    table, kern = factor.table.copy(), factor.kernel.copy()
    table[i, j] = kern[i, j] = np.nan
    return discrete.Factor(table, factor.m, kern)


def test_injected_nan_raises_within_the_sweep():
    model = gaussian_desk_model()
    broken = dataclasses.replace(model, channel=(with_nan(model.channel[0], 3, 5),))
    for call in (lambda: discrete.run(broken, 100000), lambda: discrete.bridge_oracle(broken)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="non-finite"):
            call()
        assert time.perf_counter() - start < 1.0


def counted_calls(monkeypatch, name):
    """Record the arguments of every call of ``discrete.<name>``."""
    calls = []
    inner = getattr(discrete, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(discrete, name, counting)
    return calls


def test_kernel_passes_per_sweep(monkeypatch):
    model = verify._desk_models()["bimodal-v"]
    passes = counted_calls(monkeypatch, "_kernel_pass")
    exact = counted_calls(monkeypatch, "_neg_lse")
    for budget in (3, 300):
        passes.clear()
        trace = discrete.run(model, budget, tol=1e-11)
        # one pass for U_0, then two per sweep
        assert len(passes) == 1 + 2 * (trace.n_sweeps + 1)
        assert all(pot.shape == (model.grid.size,) for _, pot, _ in passes)
    assert trace.converged

    # the oracle is a run: two per sweep, and a cold start adds U_0
    passes.clear()
    cold = discrete.bridge_oracle(model)
    assert len(passes) == 1 + 2 * (cold.n_sweeps + 1)
    passes.clear()
    warm = discrete.bridge_oracle(model, start=trace.states[-2])
    assert len(passes) == 2 * (warm.n_sweeps + 1)

    # the report sums entries the runs already hold
    for budget in (2, 300):
        trace = discrete.run(model, budget, tol=1e-11)
        passes.clear()
        discrete.entropy_report(trace, cold)
        assert passes == []
    # every scaled sum of this model is far above the underflow threshold
    assert exact == []


# separable channels: a linear-Gaussian channel with diagonal beta and tau on
# a 2-d grid is stored as one factor table per axis


def diagonal_spec(n=16, radius=6.0, alpha=(0.3, -0.2), beta=(0.9, 0.7), tau=(0.6, 1.1),
                  v_cov=((1.2, 0.3), (0.3, 0.9))):
    return {
        "grid": {"dim": 2, "n": n, "radius": radius},
        "U": {"kind": "quadratic", "params": {"mean": [0.2, -0.1], "cov": [[1.0, 0.0], [0.0, 0.8]]}},
        "V": {"kind": "quadratic", "params": {"mean": [-0.3, 0.1], "cov": [list(r) for r in v_cov]}},
        "W": {"kind": "linear-gaussian", "alpha": list(alpha),
              "beta": np.diag(beta).tolist(), "tau": np.diag(tau).tolist()},
    }


def dense_twin(doc, v_fn=None):
    """The same model as a quadratic-marginal spec, built with one dense (N, N) channel table."""
    grid = discrete.uniform_grid(2, doc["grid"]["n"], doc["grid"]["radius"])
    w = doc["W"]
    return discrete.build_model(
        models.quadratic_potential(**doc["U"]["params"]),
        v_fn or models.quadratic_potential(**doc["V"]["params"]),
        models.linear_gaussian_channel_potential(w["alpha"], w["beta"], w["tau"]),
        grid,
    )


def axis_factors(doc):
    axis = discrete.uniform_grid(1, doc["grid"]["n"], doc["grid"]["radius"])
    w = doc["W"]
    return tuple(
        discrete.channel_table(
            models.linear_gaussian_channel_potential(w["alpha"][k], w["beta"][k][k], w["tau"][k][k]), axis
        )
        for k in range(2)
    )


def test_model_from_spec_routes_diagonal_channels_to_factors(tmp_path):
    doc = diagonal_spec(n=8)
    model = models.model_from_spec(doc)
    assert [f.table.shape for f in model.channel] == [(8, 8), (8, 8)]
    # the on-demand dense table is the dense model's table
    assert np.max(np.abs(model.w_pot - dense_twin(doc).w_pot)) < 1e-12

    correlated = diagonal_spec(n=8)
    correlated["W"]["beta"] = [[0.9, 0.1], [0.0, 0.7]]
    assert [f.table.shape for f in models.model_from_spec(correlated).channel] == [(64, 64)]
    correlated_noise = diagonal_spec(n=8)
    correlated_noise["W"]["tau"] = [[0.6, 0.2], [0.2, 1.1]]
    assert [f.table.shape for f in models.model_from_spec(correlated_noise).channel] == [(64, 64)]

    path = tmp_path / "w.npy"
    np.save(path, dense_twin(doc).w_pot)
    tabulated = dict(doc, W={"kind": "tabulated", "path": str(path)})
    assert [f.table.shape for f in models.model_from_spec(tabulated).channel] == [(64, 64)]

    one_d = {
        "grid": {"dim": 1, "n": 32, "radius": 6.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
    }
    model = models.model_from_spec(one_d)
    assert [f.table.shape for f in model.channel] == [(32, 32)]
    assert np.array_equal(model.w_pot, gaussian_desk_model(n=32, radius=6.0).w_pot)


def test_factored_kernel_pass_matches_dense_pass():
    doc = diagonal_spec(n=12)
    factored, dense = models.model_from_spec(doc), dense_twin(doc)
    rng = np.random.default_rng(3)
    pot = rng.uniform(-5.0, 5.0, size=factored.grid.size)
    pot[rng.uniform(size=pot.size) < 0.1] = np.inf
    pot[:12] = np.inf  # a whole grid line without mass
    for axis in (0, 1):
        got = discrete._kernel_pass(factored, pot, axis)
        want = discrete._kernel_pass(dense, pot, axis)
        assert np.all(np.isfinite(want))
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("spec", [
    diagonal_spec(),
    diagonal_spec(n=20, alpha=(-0.4, 0.5), beta=(1.1, 0.6), tau=(0.5, 0.9), v_cov=((0.7, 0.0), (0.0, 1.3))),
])
def test_factored_and_dense_forms_agree(spec):
    factored = models.model_from_spec(spec)
    assert len(factored.channel) == 2
    results = []
    for model in (factored, dense_twin(spec)):
        trace = discrete.run(model, 300, tol=1e-11)
        oracle = discrete.bridge_oracle(model, start=trace.states[-2])
        results.append((trace, oracle, discrete.entropy_report(trace, oracle)))
    (t_f, o_f, rep_f), (t_d, o_d, rep_d) = results
    assert t_f.converged and t_f.n_sweeps == t_d.n_sweeps and o_f.n_sweeps == o_d.n_sweeps
    for s_f, s_d in zip(t_f.states + o_f.states, t_d.states + o_d.states):
        assert np.max(np.abs(s_f.u - s_d.u)) < 1e-12 and np.max(np.abs(s_f.v - s_d.v)) < 1e-12
    assert rep_f.keys() == rep_d.keys()
    for key in rep_f:
        assert np.max(np.abs(np.subtract(rep_f[key], rep_d[key]))) < 1e-12, key


def factored_hard_zero_target():
    """``diagonal_spec()`` built from its two factors, eta cut off below x_1 = -2: (doc, V function, model)."""
    doc = diagonal_spec()
    quad = models.quadratic_potential(**doc["V"]["params"])

    def v_fn(points):
        out = quad(points)
        out[points[:, 0] < -2.0] = np.inf  # whole grid lines of the first axis
        return out

    grid = discrete.uniform_grid(2, 16, 6.0)
    model = discrete.build_model(models.quadratic_potential(**doc["U"]["params"]), v_fn, axis_factors(doc), grid)
    return doc, v_fn, model


def test_factored_hard_zero_target_converges():
    doc, v_fn, model = factored_hard_zero_target()
    assert len(model.channel) == 2 and np.isinf(model.v_pot).any()
    trace = discrete.run(model, 500, tol=1e-12)
    assert trace.converged
    for seq in (trace.h_pi2n_eta, trace.h_eta_pi2n, trace.h_mu_pi2n1, trace.h_pi2n1_mu, trace.residuals):
        assert np.all(np.isfinite(seq))
    oracle = discrete.bridge_oracle(model, start=trace.states[-2])
    reference = oracle.states[-2]
    assert max(discrete.marginal_residual(reference, 0), discrete.marginal_residual(reference, 1)) < 1e-12
    rep = discrete.entropy_report(trace, oracle)
    assert all(np.all(np.isfinite(seq)) for seq in rep.values())
    # the dense form of the same model gives the same entropies
    dense = dense_twin(doc, v_fn)
    dense_trace = discrete.run(dense, 500, tol=1e-12)
    dense_oracle = discrete.bridge_oracle(dense, start=dense_trace.states[-2])
    dense_rep = discrete.entropy_report(dense_trace, dense_oracle)
    for key in rep:
        assert np.max(np.abs(np.subtract(rep[key], dense_rep[key]))) < 1e-12, key


def test_nan_in_one_factor_raises_within_the_sweep():
    model = models.model_from_spec(diagonal_spec())
    first, second = model.channel
    broken = dataclasses.replace(model, channel=(first, with_nan(second, 3, 5)))
    for call in (lambda: discrete.run(broken, 100000), lambda: discrete.bridge_oracle(broken)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="non-finite"):
            call()
        assert time.perf_counter() - start < 1.0


def test_factored_model_at_128_per_axis_stays_small():
    doc = diagonal_spec(n=128, radius=6.0)
    tracemalloc.start()
    try:
        model = models.model_from_spec(doc)
        trace = discrete.run(model, 3, tol=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.table.shape for f in model.channel] == [(128, 128), (128, 128)]
    assert trace.n_sweeps == 3 and np.all(np.isfinite(trace.residuals))
    dense_bytes = 8 * model.grid.size**2  # 2.1 GB
    assert peak < dense_bytes / 20


def reference_pass(model, pot, axis):
    """The kernel pass, -log K(exp(-pot)), as log-domain reductions only, one (.., n, n) table per factor."""
    t = (pot - model.log_w).reshape([f.table.shape[0] for f in model.channel])
    for k, f in enumerate(model.channel):
        a = t.swapaxes(k, -1)
        table = f.table + (a[..., None, :] if axis == 1 else a[..., :, None])
        t = (-discrete._neg_lse(table, axis - 2)).swapaxes(k, -1)
    return t.reshape(-1)


def assert_matches_reference(got, want):
    """Equal off the finite entries; within 1e-13 of them relative to max(1, |want|)."""
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(want[finite])))


def test_scaled_kernel_pass_matches_log_domain_reference():
    doc = diagonal_spec(n=12)
    rng = np.random.default_rng(11)
    for model in (models.model_from_spec(doc), dense_twin(doc)):
        pot = rng.uniform(-1e3, 1e3, size=model.grid.size)
        pot[rng.uniform(size=pot.size) < 0.1] = np.inf
        pot[:12] = np.inf  # a grid line without mass along each axis
        pot.reshape(12, 12)[:, 5] = np.inf
        for axis in (0, 1):
            assert_matches_reference(discrete._kernel_pass(model, pot, axis), reference_pass(model, pot, axis))


def far_hard_zero_model():
    """A sharp channel whose target sits far from most nodes: V = +inf below x = 5, N(6, 0.2^2) above."""
    grid = discrete.uniform_grid(1, 512, 8.0)
    quad = models.quadratic_potential([6.0], [[0.04]])

    def v_fn(points):
        out = quad(points)
        out[points[:, 0] < 5.0] = np.inf
        return out

    channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[0.01]])
    return discrete.build_model(models.quadratic_potential([0.0], [[1.0]]), v_fn, channel, grid)


def test_underflowing_rows_take_the_exact_reduction(monkeypatch):
    model = far_hard_zero_model()
    x = model.grid.points[:, 0]
    exact = counted_calls(monkeypatch, "_neg_lse")
    # mass on [-3, 3]: the rows far outside it underflow, fewer than half of them
    pot = np.where(np.abs(x) < 3.0, 0.0, np.inf)
    for axis in (0, 1):
        exact.clear()
        got = discrete._kernel_pass(model, pot, axis)
        ((table, _),) = exact  # one reduction over the underflowing rows only
        assert table.ndim == 2 and 0 < table.shape[0] <= model.grid.size // 2
        assert_matches_reference(got, reference_pass(model, pot, axis))
    # the target's own potential: most rows underflow and the whole pass is exact
    exact.clear()
    got = discrete._kernel_pass(model, model.v_pot, 1)
    ((table, _),) = exact
    assert table.shape == (1, model.grid.size, model.grid.size)
    assert_matches_reference(got, reference_pass(model, model.v_pot, 1))
    # every pass of a run matches the reference
    passes = counted_calls(monkeypatch, "_kernel_pass")
    trace = discrete.run(model, 5, tol=0.0)
    assert len(passes) == 1 + 2 * (trace.n_sweeps + 1)
    for _, pot, axis in list(passes):
        assert_matches_reference(discrete._kernel_pass(model, pot, axis), reference_pass(model, pot, axis))
    assert np.all(np.isfinite(trace.residuals))


def test_sharp_channel_kernels_hold_no_subnormals(monkeypatch):
    """A t = 0.05 channel on 128 nodes has 238 subnormal kernel entries; its factor stores them as 0.

    Each is below the 2^-1022 error the scaled product already allows, so
    every kernel pass of a run still matches the log-domain reference.
    """
    model = gaussian_desk_model(n=128, t=0.05)
    ((f, m, kern),) = model.channel
    raw = np.exp(m[:, None] - f)
    tiny = np.finfo(float).tiny
    assert np.count_nonzero((raw > 0.0) & (raw < tiny)) == 238
    assert not np.any((kern > 0.0) & (kern < tiny))
    assert np.array_equal(kern, np.where(raw < tiny, 0.0, raw))
    passes = counted_calls(monkeypatch, "_kernel_pass")
    discrete.run(model, 5, tol=0.0)
    for _, pot, axis in list(passes):
        assert_matches_reference(discrete._kernel_pass(model, pot, axis), reference_pass(model, pot, axis))


def test_kernel_with_a_nan_row_still_holds_no_subnormals():
    """A NaN makes the kernel's minimum NaN; the subnormal entries of the other rows are still stored as 0."""
    model = gaussian_desk_model(n=128, t=0.05)
    f = model.channel[0].table.copy()
    f[3, 5] = np.nan
    tiny = np.finfo(float).tiny
    m = f.min(axis=1)
    m[~np.isfinite(m)] = 0.0
    raw = np.exp(m[:, None] - f)
    assert np.count_nonzero((raw > 0.0) & (raw < tiny)) > 0
    kern = discrete._kernel_exp(m[:, None] - f)
    assert np.array_equal(np.argwhere(np.isnan(kern)), [[3, 5]])
    assert not np.any((kern > 0.0) & (kern < tiny))
    assert np.array_equal(kern, np.where(raw < tiny, 0.0, raw), equal_nan=True)


def assert_bitwise(got, want):
    """Equal bit for bit, with a NaN wherever the other has one."""
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def assert_passes_match_reference(model, pot):
    """Each factor pass of both kernel passes, and the kernel pass itself, bitwise those of ``references.factor_pass``."""
    for axis in (0, 1):
        t = (pot - model.log_w).reshape([f.table.shape[0] for f in model.channel])
        for k, factor in enumerate(model.channel):
            a = t.swapaxes(k, -1)
            rows = a.reshape(-1, a.shape[-1])
            # the reference shifts a NaN slice by 0, so its exp can overflow and its product meet inf * 0;
            # the library keeps the NaN shift, and its slice is NaN without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                want = references.factor_pass(factor, rows.copy(), axis)
            assert_bitwise(discrete._factor_pass(factor, rows.copy(), axis), want)
            t = want.reshape(a.shape).swapaxes(k, -1)
        assert_bitwise(discrete._kernel_pass(model, pot, axis), t.reshape(-1))


@st.composite
def pass_problems(draw):
    """A 1-d or 2-d model, dense or separable, and a potential to pass through its channel.

    The channel noise runs from sharp (t = 1e-3, where scaled sums
    underflow and are recomputed) to broad.  The potential may hold +inf
    hard zeros, a whole +inf slice (every node, or one grid line) and a NaN.
    """
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 48) if dim == 1 else st.integers(2, 8))
    radius = draw(st.sampled_from([2.0, 8.0]))
    t = draw(st.sampled_from([1e-3, 1e-2, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta, tau = np.diag(rng.uniform(0.5, 1.0, dim)), np.diag(t * rng.uniform(0.5, 1.5, dim))
    quad = {"kind": "quadratic", "params": {"mean": [0.0] * dim, "cov": np.eye(dim).tolist()}}
    doc = {"grid": {"dim": dim, "n": n, "radius": radius}, "U": quad, "V": quad,
           "W": {"kind": "linear-gaussian", "alpha": [0.0] * dim, "beta": beta.tolist(), "tau": tau.tolist()}}
    if draw(st.booleans()):  # separable: one factor per axis
        model = models.model_from_spec(doc)
    else:
        potential = models.quadratic_potential([0.0] * dim, np.eye(dim))
        channel = models.linear_gaussian_channel_potential([0.0] * dim, beta, tau)
        model = discrete.build_model(potential, potential, channel, discrete.uniform_grid(dim, n, radius))
    size = model.grid.size
    pot = rng.uniform(-1.0, 1.0, size) * draw(st.sampled_from([1.0, 30.0, 1e3]))
    pot[rng.uniform(size=size) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.inf
    cut = draw(st.sampled_from(["none", "all", "line"]))
    if cut == "all":
        pot[:] = np.inf
    elif cut == "line":
        lines = pot.reshape(n, -1)
        j = int(rng.integers(lines.shape[-1]))
        (lines[:, j] if dim == 2 and draw(st.booleans()) else lines[j % n])[...] = np.inf
    if draw(st.booleans()):
        pot[rng.integers(size)] = np.nan
    return model, pot


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pass_problems())
def test_factor_pass_equals_the_unguarded_pass_bitwise(problem):
    assert_passes_match_reference(*problem)


def test_factor_pass_equals_the_unguarded_pass_on_both_exact_reductions(monkeypatch):
    model = far_hard_zero_model()
    x = model.grid.points[:, 0]
    exact = counted_calls(monkeypatch, "_neg_lse")
    # the rows far from [-3, 3] underflow, fewer than half of them; then most of them do
    for pot, axis, whole in ((np.where(np.abs(x) < 3.0, 0.0, np.inf), 0, False),
                             (np.where(np.abs(x) < 3.0, 0.0, np.inf), 1, False), (model.v_pot, 1, True)):
        exact.clear()
        discrete._kernel_pass(model, pot, axis)
        ((table, _),) = exact
        assert (table.ndim == 3) == whole
        assert_passes_match_reference(model, pot)
    # a NaN propagates to the same entries; a NaN-free model's pass has none
    pot = model.u_pot.copy()
    pot[100] = np.nan
    assert_passes_match_reference(model, pot)
    assert np.isnan(discrete._kernel_pass(model, pot, 0)).any()


def models_equal(first, second):
    """Whether two models hold bitwise the same tables and channel factors (tables, minima and scaled kernels)."""
    arrays = [(first.u_pot, second.u_pot), (first.v_pot, second.v_pot),
              *((a, b) for pair in zip(first.channel, second.channel) for a, b in zip(*pair))]
    return len(first.channel) == len(second.channel) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in arrays)


def test_tables_a_caller_holds_stay_untouched():
    # the two-point model of test_two_point_toy_matches_hand_scaling, with rows that need normalizing
    grid = discrete.Grid(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    u_tab = np.array([np.log(2.0), np.log(2.0)])
    v_tab = np.array([np.log(4.0) - np.log(3.0), np.log(4.0)])
    w_tab = np.log(np.array([[1.0, 3.0], [2.0, 5.0]]))
    held = [tab.tobytes() for tab in (u_tab, v_tab, w_tab)]
    first, second = (discrete.build_model(lambda p: u_tab, lambda p: v_tab, lambda xs, ys: w_tab, grid)
                     for _ in range(2))
    assert [tab.tobytes() for tab in (u_tab, v_tab, w_tab)] == held
    assert models_equal(first, second)
    assert not np.array_equal(first.channel[0].table, w_tab)  # the rows were shifted, in a table of the model's own


def test_tabulated_channel_builds_alike_twice(tmp_path):
    n = 6
    grid = discrete.uniform_grid(2, n, 3.0)
    pts = grid.points
    diff = pts[None, :, :] - 0.9 * pts[:, None, :]
    table = 0.5 * np.einsum("ijk,kl,ijl->ij", diff, np.array([[2.0, 0.5], [0.5, 1.0]]), diff)
    path = tmp_path / "w.npy"
    np.save(path, table)
    quad = {"kind": "quadratic", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}
    doc = {"grid": {"dim": 2, "n": n, "radius": 3.0}, "U": quad, "V": quad, "W": {"kind": "tabulated", "path": str(path)}}
    first, second = models.model_from_spec(doc), models.model_from_spec(doc)
    assert models_equal(first, second)
    # one constructor's callable tabulated twice: each call reads the file into a table of its own
    potential = models.quadratic_potential([0.0, 0.0], np.eye(2))
    w_fn = models.tabulated_channel_potential(str(path))
    for _ in range(2):
        assert models_equal(discrete.build_model(potential, potential, w_fn, grid), first)
    assert np.load(path).tobytes() == table.tobytes()


def recorded_tables(monkeypatch, name):
    """Wrap the channel constructor ``models.<name>``: each table its callables make is recorded with the
    traced memory at that moment, and the tracemalloc peak reset, so the peak that follows counts what the
    build adds to it."""
    made = []
    inner = getattr(models, name)

    def constructor(*args, **kwargs):
        w_fn = inner(*args, **kwargs)

        def w(xs, ys):
            table = w_fn(xs, ys)
            made.append((table, tracemalloc.get_traced_memory()[0]))
            tracemalloc.reset_peak()
            return table

        return w

    monkeypatch.setattr(models, name, constructor)
    return made


@pytest.mark.parametrize("kind", ["dense", "tabulated", "factors"])
def test_library_tables_become_the_channel_in_place(monkeypatch, tmp_path, kind):
    """Each table a library constructor makes is the model's channel factor, normalized where it lies.

    Building a dense channel from its table allocates the kernel K and O(N)
    more, no F beside it: the channel holds two N x N arrays, not three.
    """
    doc = diagonal_spec(n=24)
    if kind == "dense":
        doc["W"]["beta"] = [[0.9, 0.1], [0.0, 0.9]]
    elif kind == "tabulated":
        grid = discrete.uniform_grid(2, 24, doc["grid"]["radius"])
        np.save(tmp_path / "w.npy", models.linear_gaussian_channel_potential(
            [0.0, 0.0], [[0.9, 0.1], [0.0, 0.9]], [[0.8, 0.3], [0.3, 0.8]])(grid.points, grid.points))
        doc["W"] = {"kind": "tabulated", "path": str(tmp_path / "w.npy")}
    made = recorded_tables(monkeypatch, "tabulated_channel_potential" if kind == "tabulated"
                           else "linear_gaussian_channel_potential")
    tracemalloc.start()
    try:
        model = models.model_from_spec(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(made) == len(model.channel) == (2 if kind == "factors" else 1)
    assert all(f.table is table for f, (table, _) in zip(model.channel, made))
    if kind != "factors":  # after the dense table: its kernel, and the marginals' O(N)
        table_bytes = 8 * model.grid.size**2
        assert table_bytes <= peak - made[0][1] < 1.1 * table_bytes


def test_channel_table_leaves_the_callables_table_as_it_is():
    grid = discrete.uniform_grid(1, 16, 4.0)
    raw = models.linear_gaussian_channel_potential([0.0], [[0.9]], [[0.5]])(grid.points, grid.points)
    held = raw.tobytes()
    f, m, kern = discrete.channel_table(lambda xs, ys: raw, grid)
    assert f is not raw and raw.tobytes() == held
    assert np.allclose(np.exp(m[:, None] - f), kern, rtol=1e-14, atol=0.0)
    assert np.allclose(np.exp(-f) @ grid.weights, 1.0, rtol=1e-14, atol=0.0)


def counted_exp(monkeypatch):
    """Number of entries exponentiated by each exp while the test runs.

    ``np.exp`` counts the size of its result; scipy's logsumexp, which
    makes one exp per entry through its own namespace, the size of its input.
    """
    sizes = []
    exp, lse = np.exp, scipy.special.logsumexp

    def counting(*args, **kwargs):
        out = exp(*args, **kwargs)
        sizes.append(np.size(out))
        return out

    def counting_lse(a, *args, **kwargs):
        sizes.append(np.size(a))
        return lse(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    monkeypatch.setattr(scipy.special, "logsumexp", counting_lse)
    return sizes


def dense_specs():
    """A 1-d channel (one (N, N) factor) with a mixture target, and a correlated 2-d one."""
    one_d = {
        "grid": {"dim": 1, "n": 256, "radius": 8.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "gaussian-mixture", "params": {
            "weights": [0.5, 0.5], "means": [[-2.0], [2.0]], "covs": [[[0.5]], [[0.5]]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[0.25]]},
    }
    correlated = diagonal_spec(n=12)
    correlated["W"]["beta"] = [[0.9, 0.1], [0.0, 0.7]]
    return one_d, correlated


def test_dense_build_exponentiates_each_channel_entry_once(monkeypatch):
    exps = counted_exp(monkeypatch)
    for doc in dense_specs():
        exps.clear()
        model = models.model_from_spec(doc)
        n = model.grid.size
        assert [f.table.shape for f in model.channel] == [(n, n)]
        # the normaliser and the scaled kernel share one exp per entry; the
        # marginals add O(N) (two exps per entry made 2 N^2 before)
        assert n * n <= sum(exps) <= n * n + 8 * n


def test_scaled_kernels_are_built_once_per_model(monkeypatch):
    built = counted_calls(monkeypatch, "_kernel_exp")
    for doc in (diagonal_spec(), *dense_specs()):
        built.clear()
        model = models.model_from_spec(doc)
        assert len(built) == len(model.channel)  # channel_table made every kernel with its factor
        trace = discrete.run(model, 300, tol=1e-11)
        oracle = discrete.bridge_oracle(model, start=trace.states[-2])
        discrete.entropy_report(trace, oracle)
        assert len(built) == len(model.channel)  # and nothing made one again
        for f, m, kern in model.channel:
            assert kern.shape == f.shape and np.all(kern.max(axis=1) == 1.0)
            assert np.array_equal(m, f.min(axis=1))
            assert np.max(np.abs(kern - np.exp(m[:, None] - f))) < 1e-15


def test_replaced_channel_runs_as_the_model_built_with_it(monkeypatch):
    model = models.model_from_spec(diagonal_spec())
    other = models.model_from_spec(diagonal_spec(tau=(0.3, 2.0)))
    built = counted_calls(monkeypatch, "_kernel_exp")
    swapped = dataclasses.replace(model, channel=other.channel)
    # the swapped model carries the factors it was handed, kernels included: nothing is rebuilt
    assert built == [] and all(a is b for a, b in zip(swapped.channel, other.channel))
    want = discrete.run(other, 300, tol=1e-11)
    got = discrete.run(swapped, 300, tol=1e-11)
    assert got.n_sweeps == want.n_sweeps
    for key in ("h_pi2n_eta", "h_eta_pi2n", "h_mu_pi2n1", "h_pi2n1_mu", "residuals"):
        assert getattr(got, key) == getattr(want, key), key
    for s_got, s_want in zip(got.states, want.states):
        assert s_got.u.tobytes() == s_want.u.tobytes() and s_got.v.tobytes() == s_want.v.tobytes()


# build-time validation reads the row minima of each channel table: a NaN or
# -inf entry makes its row's minimum NaN or -inf, an all-+inf row +inf


def _set_nan(w):
    w[3, 5] = np.nan


def _set_neg_inf(w):
    w[3, 5] = -np.inf


def _set_inf_row(w):
    w[2] = np.inf


BAD_CHANNELS = {
    "nan": (_set_nan, "NaN or -inf"),
    "neg-inf": (_set_neg_inf, "NaN or -inf"),
    "inf-row": (_set_inf_row, "underflows entirely"),
}


@pytest.mark.parametrize("case", list(BAD_CHANNELS))
@pytest.mark.parametrize("beta", [[[0.9, 0.0], [0.0, 0.7]], [[0.9, 0.1], [0.0, 0.7]]], ids=["factor", "dense"])
def test_channel_build_rejects_bad_entries(monkeypatch, case, beta):
    """Each bad entry in the second factor of a diagonal 2-d channel, and in a dense (N, N) table.

    Both reach ``discrete._normalize_channel`` as a table from a callable W.
    """
    edit, message = BAD_CHANNELS[case]
    good = models.linear_gaussian_channel_potential
    made = []

    def poked(*args, **kwargs):
        w_fn = good(*args, **kwargs)
        made.append(w_fn)
        last = len(made)

        def w(xs, ys):
            table = w_fn(xs, ys)
            if last == 2 or table.shape[0] > 8:  # the second axis factor, or the (64, 64) table
                edit(table)
            return table

        return w

    monkeypatch.setattr(models, "linear_gaussian_channel_potential", poked)
    doc = diagonal_spec(n=8)
    doc["W"]["beta"] = beta
    with pytest.raises(DomainError, match=message):
        models.model_from_spec(doc)
