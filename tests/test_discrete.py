import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc, logsumexp

from sinkbridge import discrete, models, verify
from sinkbridge import gaussian as g
from sinkbridge.errors import DomainError, ShapeError


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
    with pytest.raises(DomainError):
        discrete.build_model(
            lambda pts: 1e6 * np.ones(pts.shape[0]) * np.inf,
            models.quadratic_potential([0.0], [[1.0]]),
            models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]]),
            grid,
        )
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
        r_mu, r_eta = discrete.marginal_residuals(state)
        if state.n % 2 == 0:
            assert r_mu < 1e-12
        else:
            assert r_eta < 1e-12
        state = discrete.sinkhorn_step(state)


def test_constant_channel_converges_in_one_half_step():
    model = constant_channel_model()
    s1 = discrete.sinkhorn_step(discrete.initial_state(model))
    product = model.log_mu[:, None] + model.log_eta[None, :]
    assert np.max(np.abs(discrete.plan_log_density(s1) - product)) < 1e-12
    r_mu, r_eta = discrete.marginal_residuals(s1)
    assert max(r_mu, r_eta) < 1e-12


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
    fwd, _ = g.bridge_solve(mu, eta, k)
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
    pi_even = discrete.plan_marginals(last_even)[1]
    pi_odd = discrete.plan_marginals(last_odd)[0]
    assert np.max(np.abs(pi_even - pi_odd)) < 1e-10


def test_bridge_oracle_identity_when_target_is_pushforward():
    # eta chosen as the exact push-forward law mu K: the reference plan is
    # already the bridge, so the oracle must return (essentially) itself.
    # radius 10 keeps the channel's boundary-truncation mass below 1e-12.
    model = gaussian_desk_model(n=80, radius=10.0, v=2.0)
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    s0 = discrete.initial_state(model)
    kl = discrete.joint_relative_entropy(
        discrete.plan_log_density(oracle), discrete.plan_log_density(s0), model.grid.weights
    )
    assert kl < 1e-12
    assert np.max(np.abs(discrete.plan_mass(oracle) - discrete.plan_mass(s0))) < 1e-12


def test_bridge_oracle_constant_channel_is_product():
    model = constant_channel_model()
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    product = model.log_mu[:, None] + model.log_eta[None, :]
    assert np.max(np.abs(discrete.plan_log_density(oracle) - product)) < 1e-12


def test_bridge_oracle_second_moments_match_closed_form():
    model = gaussian_desk_model()
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    plan = g.bridge_plan(mu, eta, k)
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
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    rep = discrete.entropy_report(trace, oracle)

    for key in ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu", "H_bridge_even", "H_bridge_odd"):
        seq = rep[key]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), key
        assert seq[-1] < 1e-9

    # four-term chains linking marginal entropies across half-steps
    for n in range(1, trace.n_sweeps + 1):
        assert rep["H_pi2n_eta"][n] <= rep["H_mu_pi2n1"][n - 1] + 1e-12
        assert rep["H_mu_pi2n1"][n - 1] <= rep["H_pi2n_eta"][n - 1] + 1e-12
        assert rep["H_pi2n1_mu"][n] <= rep["H_eta_pi2n"][n] + 1e-12
        assert rep["H_eta_pi2n"][n] <= rep["H_pi2n1_mu"][n - 1] + 1e-12

    # bridge-gap dominates the marginal gap, and the identities telescope
    for n in range(len(rep["H_bridge_even"])):
        assert rep["H_eta_pi2n"][n] <= rep["H_bridge_even"][n] + 1e-12
    assert max(abs(x) for x in rep["telescope_even_residuals"]) < 1e-9
    assert max(abs(x) for x in rep["telescope_odd_residuals"]) < 1e-9


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
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    rep = discrete.entropy_report(trace, oracle)
    for key in ("H_pi2n_eta", "H_eta_pi2n", "H_bridge_even", "H_bridge_odd"):
        seq = rep[key]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), key


def test_potential_recursion_equals_matrix_scaling():
    for model in (gaussian_desk_model(n=48), constant_channel_model()):
        plans = discrete.matrix_scaling_plans(model, 10)
        state = discrete.initial_state(model)
        for n in range(11):
            assert np.max(np.abs(discrete.plan_mass(state) - plans[n])) < 1e-12
            state = discrete.sinkhorn_step(state)


def test_gaussian_consistency_under_grid_halving():
    # sharp channel so the coarse-grid bias is visible above the float floor
    t = 0.05
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[t]])
    fwd, _ = g.bridge_solve(mu, eta, k)
    errs = []
    for n in (64, 128):
        model = gaussian_desk_model(n=n, t=t)
        oracle = discrete.bridge_oracle(model, tol=1e-13, max_sweeps=20000)
        cc = discrete.mean_conditional_cov(oracle)
        errs.append(abs(cc[0, 0] - fwd.noise_cov[0, 0]))
    assert errs[0] > 1e-8  # coarse-grid bias is measurable
    assert errs[0] / errs[1] >= 3.5


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
    with pytest.raises(DomainError):
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
    r_mu, _ = discrete.marginal_residuals(state)
    assert r_mu < 1e-12


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
            pi_even = discrete.plan_marginals(even)[1]
            pi_odd = discrete.plan_marginals(odd)[0]
            expected = [
                discrete.relative_entropy(pi_even, model.log_eta, w),
                discrete.relative_entropy(model.log_eta, pi_even, w),
                discrete.relative_entropy(model.log_mu, pi_odd, w),
                discrete.relative_entropy(pi_odd, model.log_mu, w),
                max(discrete.marginal_residuals(even)[1], discrete.marginal_residuals(odd)[0]),
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
        oracle = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
        rep = discrete.entropy_report(trace, oracle)
        ref = discrete.plan_log_density(oracle)
        for state in trace.states:
            dense = discrete.joint_relative_entropy(ref, discrete.plan_log_density(state), model.grid.weights)
            key = "H_bridge_even" if state.n % 2 == 0 else "H_bridge_odd"
            assert abs(rep[key][state.n // 2] - dense) < 1e-12


def test_resumed_oracle_equals_cold_oracle():
    model = verify._desk_models()["double-well-u"]
    trace = discrete.run(model, 300, tol=1e-10)
    cold = discrete.bridge_oracle(model, tol=1e-13)
    warm = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
    assert warm.n == cold.n
    assert np.array_equal(warm.u, cold.u) and np.array_equal(warm.v, cold.v)
    with pytest.raises(DomainError, match="even state"):
        discrete.bridge_oracle(model, start=trace.states[-1])


def test_hard_zero_target_converges_on_its_support(hard_zero_target_model):
    model = hard_zero_target_model
    assert np.isinf(model.v_pot).any()
    trace = discrete.run(model, 500, tol=1e-13)
    assert trace.converged and trace.n_sweeps <= 40
    for seq in (trace.h_pi2n_eta, trace.h_eta_pi2n, trace.h_mu_pi2n1, trace.h_pi2n1_mu, trace.residuals):
        assert np.all(np.isfinite(seq))
    oracle = discrete.bridge_oracle(model, tol=1e-13)
    r_mu, r_eta = discrete.marginal_residuals(oracle)
    assert max(r_mu, r_eta) < 1e-12
    # the converged plan puts no mass where eta has a hard zero
    assert np.all(discrete.plan_mass(oracle)[:, np.isinf(model.v_pot)] == 0.0)
    rep = discrete.entropy_report(trace, oracle)
    assert np.all(np.isfinite(rep["H_bridge_even"] + rep["H_bridge_odd"]))
    assert max(abs(x) for x in rep["telescope_even_residuals"] + rep["telescope_odd_residuals"]) < 1e-9


def test_relative_entropy_zero_log_zero():
    # a common hard zero contributes 0 log 0 = 0; mass where q vanishes costs +inf
    w = np.full(3, 0.5)
    log_p = np.array([-np.inf, 0.0, 0.0])
    log_q = np.array([-np.inf, np.log(1.5), np.log(0.5)])
    assert abs(discrete.relative_entropy(log_p, log_q, w) - 0.5 * np.log(4.0 / 3.0)) < 1e-15
    assert discrete.relative_entropy(log_p, np.array([0.0, 0.0, -np.inf]), w) == np.inf


def test_injected_nan_raises_within_the_sweep():
    model = gaussian_desk_model()
    w_pot = model.w_pot.copy()
    w_pot[3, 5] = np.nan
    broken = dataclasses.replace(model, channel=(w_pot,))
    for call in (lambda: discrete.run(broken, 100000), lambda: discrete.bridge_oracle(broken)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="non-finite"):
            call()
        assert time.perf_counter() - start < 1.0


def counted_passes(monkeypatch):
    """Count the engine's N x N kernel passes."""
    calls = []
    inner = discrete._neg_lse

    def counting(t, axis):
        calls.append(t.shape)
        return inner(t, axis)

    monkeypatch.setattr(discrete, "_neg_lse", counting)
    return calls


def test_kernel_passes_per_sweep(monkeypatch):
    model = verify._desk_models()["bimodal-v"]
    passes = counted_passes(monkeypatch)
    for budget in (3, 300):
        passes.clear()
        trace = discrete.run(model, budget, tol=1e-11)
        # one pass for U_0, then two per sweep
        assert len(passes) == 1 + 2 * (trace.n_sweeps + 1)
        assert all(shape == (model.grid.size,) * 2 for shape in passes)
    assert trace.converged

    # the oracle makes two per sweep, plus the closing sweep's first
    # half-step and the two-pass final marginal check; a cold start adds U_0
    passes.clear()
    cold = discrete.bridge_oracle(model, tol=1e-13)
    assert len(passes) == 2 * (cold.n // 2) + 4
    start = trace.states[-2]
    passes.clear()
    warm = discrete.bridge_oracle(model, tol=1e-13, start=start)
    assert len(passes) == 2 * ((warm.n - start.n) // 2) + 3

    counts = []
    for budget in (2, 300):
        trace = discrete.run(model, budget, tol=1e-11)
        passes.clear()
        discrete.entropy_report(trace, warm)
        counts.append(len(passes))
    assert counts == [2, 2]


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
    """The same model as a spec, built with one dense (N, N) channel table."""
    grid = discrete.uniform_grid(2, doc["grid"]["n"], doc["grid"]["radius"])
    w = doc["W"]
    return discrete.build_model(
        models.marginal_potential_from_spec(doc["U"]),
        v_fn or models.marginal_potential_from_spec(doc["V"]),
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
    assert [f.shape for f in model.channel] == [(8, 8), (8, 8)]
    # the on-demand dense table is the dense model's table
    assert np.max(np.abs(model.w_pot - dense_twin(doc).w_pot)) < 1e-12

    correlated = diagonal_spec(n=8)
    correlated["W"]["beta"] = [[0.9, 0.1], [0.0, 0.7]]
    assert [f.shape for f in models.model_from_spec(correlated).channel] == [(64, 64)]
    correlated_noise = diagonal_spec(n=8)
    correlated_noise["W"]["tau"] = [[0.6, 0.2], [0.2, 1.1]]
    assert [f.shape for f in models.model_from_spec(correlated_noise).channel] == [(64, 64)]

    path = tmp_path / "w.npy"
    np.save(path, dense_twin(doc).w_pot)
    tabulated = dict(doc, W={"kind": "tabulated", "path": str(path)})
    assert [f.shape for f in models.model_from_spec(tabulated).channel] == [(64, 64)]

    one_d = {
        "grid": {"dim": 1, "n": 32, "radius": 6.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
    }
    model = models.model_from_spec(one_d)
    assert [f.shape for f in model.channel] == [(32, 32)]
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
        oracle = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
        results.append((trace, oracle, discrete.entropy_report(trace, oracle)))
    (t_f, o_f, rep_f), (t_d, o_d, rep_d) = results
    assert t_f.converged and t_f.n_sweeps == t_d.n_sweeps and o_f.n == o_d.n
    for s_f, s_d in zip(t_f.states, t_d.states):
        assert np.max(np.abs(s_f.u - s_d.u)) < 1e-12 and np.max(np.abs(s_f.v - s_d.v)) < 1e-12
    assert np.max(np.abs(o_f.u - o_d.u)) < 1e-12 and np.max(np.abs(o_f.v - o_d.v)) < 1e-12
    assert rep_f.keys() == rep_d.keys()
    for key in rep_f:
        assert np.max(np.abs(np.subtract(rep_f[key], rep_d[key]))) < 1e-12, key


def test_factored_hard_zero_target_converges():
    doc = diagonal_spec()
    quad = models.marginal_potential_from_spec(doc["V"])

    def v_fn(points):
        out = quad(points)
        out[points[:, 0] < -2.0] = np.inf  # whole grid lines of the first axis
        return out

    grid = discrete.uniform_grid(2, 16, 6.0)
    model = discrete.build_model(models.marginal_potential_from_spec(doc["U"]), v_fn, axis_factors(doc), grid)
    assert len(model.channel) == 2 and np.isinf(model.v_pot).any()
    trace = discrete.run(model, 500, tol=1e-12)
    assert trace.converged
    for seq in (trace.h_pi2n_eta, trace.h_eta_pi2n, trace.h_mu_pi2n1, trace.h_pi2n1_mu, trace.residuals):
        assert np.all(np.isfinite(seq))
    oracle = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
    assert max(discrete.marginal_residuals(oracle)) < 1e-12
    rep = discrete.entropy_report(trace, oracle)
    assert all(np.all(np.isfinite(seq)) for seq in rep.values())
    # the dense form of the same model gives the same entropies
    dense = dense_twin(doc, v_fn)
    dense_trace = discrete.run(dense, 500, tol=1e-12)
    dense_oracle = discrete.bridge_oracle(dense, tol=1e-13, start=dense_trace.states[-2])
    dense_rep = discrete.entropy_report(dense_trace, dense_oracle)
    for key in rep:
        assert np.max(np.abs(np.subtract(rep[key], dense_rep[key]))) < 1e-12, key


def test_nan_in_one_factor_raises_within_the_sweep():
    model = models.model_from_spec(diagonal_spec())
    first, second = model.channel
    second = second.copy()
    second[3, 5] = np.nan
    broken = dataclasses.replace(model, channel=(first, second))
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
    assert [f.shape for f in model.channel] == [(128, 128), (128, 128)]
    assert trace.n_sweeps == 3 and np.all(np.isfinite(trace.residuals))
    dense_bytes = 8 * model.grid.size**2  # 2.1 GB
    assert peak < dense_bytes / 20
