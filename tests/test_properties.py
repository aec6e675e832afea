"""Randomised properties of the Gaussian bridge, the Riccati trajectory and the grid entropy terms.

Every drawn problem (d <= 64, cond(u), cond(v) <= 1e8, a well-conditioned
channel) must either solve to round-off times its condition number, with
finite Sinkhorn states, or stop with a DomainError.  A NaN, an overflow or
any other exception fails the test.  Its contraction constants, from
``bounds.rate_table`` on the Gaussian-equality curvature, must all be
finite and in range.  The closed-form Riccati trajectory must match the
map stepped on the dense varpi.  The grid's two relative-entropy terms
must be >= 0 and meet a 60-digit evaluation.  A stack of Gaussian models
must give bitwise what each of its models gives alone, and so must a
stack of Gaussians against one, the proximal chain against its step loop,
the batched draws of verify against per-matrix ones and criterion 9's
stacked dense entropies against per-state ones.  ``spd``'s norm and
condition number must equal numpy's bitwise, and the Loewner tests must
give the verdicts of an SVD noise scale on criterion 1's stacks.  The CLI's table renderer
must refuse exactly the tables with a non-finite cell that no mask
declares, and every cell it writes must parse back to its double.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from references import (loewner_gap_svd, model_slice, plan_log_density_one, proximal_trace_steps,
                        psi_cases_per_matrix, relative_entropy_one, riccati_steps, spd_family_per_matrix)
from sinkbridge import bounds, cli, discrete, riccati, spd, verify
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


def fixed_point_residual(noise_cov, target_cov, chi, source_cov):
    """||r + r varpi^{-1} r - I|| for r = target^{-1/2} noise target^{-1/2} and varpi^{-1} = G G'.

    G = target^{1/2} chi source^{1/2}, so r G = target^{-1/2} noise chi source^{1/2}
    and the residual is target^{-1/2} (noise + noise chi source chi' noise)
    target^{-1/2} - I.  It is evaluated in that form: forming G G', whose
    condition number is cond(G)^2, puts the check's own round-off above the
    solver's error once cond(G) nears 1e3.
    """
    _, t_ihalf = sqrt_pair(target_cov)
    x = noise_cov @ chi
    return np.linalg.norm(t_ihalf @ (noise_cov + x @ source_cov @ x.T) @ t_ihalf - np.eye(len(x)), 2)


@PROPERTY_SETTINGS
@given(bridge_problems())
def test_bridge_solves_to_round_off_or_raises_domain_error(problem):
    mu, eta, k = problem
    try:
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        states = g.sinkhorn_run(bridge, 3)
    except DomainError:
        return
    cond = max(np.linalg.cond(mu.cov), np.linalg.cond(eta.cov), np.linalg.cond(k.chi))
    tol = C * cond * EPS
    for f in (fwd, bwd):
        assert all(np.all(np.isfinite(a)) for a in (f.intercept, f.slope, f.noise_cov))
    assert relative_push_forward_error(fwd, mu, eta) <= tol
    assert relative_push_forward_error(bwd, eta, mu) <= tol

    # varpi_0^{-1} = G G' and varpi_1^{-1} = G' G for G = v^{1/2} chi u^{1/2}
    assert fixed_point_residual(fwd.noise_cov, eta.cov, k.chi, mu.cov) <= tol
    assert fixed_point_residual(bwd.noise_cov, mu.cov, k.chi.T, eta.cov) <= tol

    for s in states:
        assert all(np.all(np.isfinite(a)) for a in (s.tau_n, s.m_n, s.sigma_pi_n))


@PROPERTY_SETTINGS
@given(curvature_problems())
def test_rate_table_constants_are_finite_and_in_range(problem):
    mu, eta, k = problem
    rep = bounds.rate_table(k, CurvatureSpec.gaussian(mu, eta), 4, p=2)
    values = {name: s["value"] for name, s in rep.scalars.items()}
    assert all(np.isfinite(float(v)) for v in values.values())
    assert values["iota"] >= 1.0
    assert 0.0 < values["delta_bar"] < 1.0 and values["c_bar"] >= 1.0
    assert 0.0 < values["composite_rate"] <= 1.0


@st.composite
def model_stacks(draw):
    """One to five models of one dimension d <= 4, as stacked (mu, eta, k); cond(u), cond(v) <= 1e4."""
    d, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spds(top, log_cond):
        return np.stack([log_spectrum_spd(rng, d, top - log_cond, top) for _ in range(size)])

    u, v = (spds(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 4.0))) for _ in range(2))
    tau = spds(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 2.0)))
    beta = spds(0.0, 1.0) if draw(st.booleans()) else np.eye(d) + 0.3 * rng.standard_normal((size, d, d))

    def means():
        return rng.standard_normal((size, d))

    return g.GaussianMeasure(means(), u), g.GaussianMeasure(means(), v), g.LinearGaussianKernel(means(), beta, tau)


def same(slices, arrays) -> bool:
    """Each of ``slices``, one model's slices of stacked results, is bitwise the matching one of ``arrays``."""
    return all(np.array_equal(a, b) for a, b in zip(slices, arrays, strict=True))


@PROPERTY_SETTINGS
@given(model_stacks(), st.integers(1, 6))
def test_a_stacked_bridge_equals_its_models_bitwise(stack, n_pairs):
    """Every stacked bridge quantity and constant is bitwise what the model alone gives."""
    mu, eta, k = stack
    bridge = g.bridge_solve(mu, eta, k)
    states = g.sinkhorn_run(bridge, n_pairs)
    gaps = g.bridge_gaps(bridge, states)
    spec = CurvatureSpec.gaussian(mu, eta)
    eps, family = bounds.eps_lg(k, spec), bounds.varpi_family(k, spec)
    maps = (bridge.forward, bridge.backward())
    assert gaps.shape == (2 * n_pairs + 2, len(mu.mean))
    for j in range(len(mu.mean)):
        mu1, eta1, k1 = model_slice(stack, j)
        one = g.bridge_solve(mu1, eta1, k1)
        one_states = g.sinkhorn_run(one, n_pairs)
        spec1 = CurvatureSpec.gaussian(mu1, eta1)
        assert same((x[j] for x in bridge.factors), one.factors)
        for s, s1 in zip(states, one_states):
            assert same((x[j] for x in (s.tau_n, s.m_n, s.sigma_pi_n, s.delta, s.offset)),
                        (s1.tau_n, s1.m_n, s1.sigma_pi_n, s1.delta, s1.offset))
        assert np.array_equal(gaps[:, j], g.bridge_gaps(one, one_states))
        for f, f1 in zip(maps, (one.forward, one.backward())):
            assert same((x[j] for x in (f.intercept, f.slope, f.noise_cov)), (f1.intercept, f1.slope, f1.noise_cov))
        assert eps[j] == bounds.eps_lg(k1, spec1)
        for w, w1 in zip(family, bounds.varpi_family(k1, spec1)):
            assert same((w.lam[j], w.q[j]), w1)


@st.composite
def measure_pairs(draw):
    """A stack of one to five Gaussians of one dimension d <= 4 and one Gaussian of that dimension; cond <= 1e4."""
    d, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top, log_cond = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 4.0))
    covs = np.stack([log_spectrum_spd(rng, d, top - log_cond, top) for _ in range(size + 1)])
    means = rng.standard_normal((size + 1, d))
    return g.GaussianMeasure(means[1:], covs[1:]), g.GaussianMeasure(means[0], covs[0])


@PROPERTY_SETTINGS
@given(measure_pairs())
def test_stacked_divergences_equal_per_slice_calls_bitwise(pair):
    """KL and W2 of a stack against one Gaussian, either way round, are bitwise the per-slice calls."""
    stack, one = pair
    for fn in (g.gaussian_kl, g.gelbrich_w2):
        forward, backward = fn(stack, one), fn(one, stack)
        assert forward.shape == backward.shape == stack.mean.shape[:1]
        for j in range(len(stack.mean)):
            p = g.GaussianMeasure(stack.mean[j], stack.cov[j])
            assert (forward[j], backward[j]) == (fn(p, one), fn(one, p))


@st.composite
def proximal_problems(draw):
    """A start nu, a target mu and a channel of one dimension d <= 4, cond <= 1e4, and 1 to 25 sweeps."""
    stack, target = draw(measure_pairs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = target.dim
    beta = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    tau = 10.0 ** draw(st.floats(-2.0, 2.0)) * log_spectrum_spd(rng, d, 0.0, draw(st.floats(0.0, 2.0)))
    nu = g.GaussianMeasure(stack.mean[0], stack.cov[0])
    return nu, target, g.LinearGaussianKernel(rng.standard_normal(d), beta, tau), draw(st.integers(1, 25))


@PROPERTY_SETTINGS
@given(proximal_problems())
def test_proximal_trace_equals_the_step_loop_bitwise(problem):
    """Every row of the stacked chain is the row that proximal_step, gelbrich_w2 and gaussian_kl give one at a time."""
    nu, mu, k, steps = problem
    a, b = bounds.proximal_rates(k, CurvatureSpec(u_plus=mu.cov, v_plus=nu.cov))
    assert bounds.proximal_trace(nu, mu, k, a, b, steps) == proximal_trace_steps(nu, mu, k, a, b, steps)


@pytest.mark.parametrize("seed", range(5))
def test_batched_draws_equal_per_matrix_draws_bitwise(seed):
    """Criteria 1-3's cases, one QR per dimension, are bitwise those made with one QR per matrix."""
    assert same(verify._spd_family(seed), spd_family_per_matrix(seed))
    gammas, starts = verify._psi_cases(seed)
    ref_gammas, ref_starts = psi_cases_per_matrix(seed)
    assert same(gammas, ref_gammas) and same(starts, ref_starts)


@pytest.mark.parametrize("name", ["gaussian", "double-well-u", "bimodal-v", "hard-zero-target"])
def test_stacked_dense_entropies_equal_per_state_ones_bitwise(name, request):
    """Plan tables, masses and dense entropies of a stack of states, and of each state alone,
    against the per-state formulas of ``tests/references.py``.

    The hard-zero target puts -inf in the reference plan, whose entries both sides leave out.
    """
    model = (request.getfixturevalue("hard_zero_target_model") if name == "hard-zero-target"
             else verify._desk_models()[name])
    trace = discrete.run(model, 300, tol=1e-11)
    ref = discrete.plan_log_density(discrete.bridge_oracle(model, start=trace.states[-2]).states[-2])
    assert np.any(ref == -np.inf) == (name == "hard-zero-target")
    w = model.grid.weights
    singles = [plan_log_density_one(s) for s in trace.states]
    logs = discrete.plan_log_density(trace.states)
    assert same(logs, singles) and same([discrete.plan_log_density(s) for s in trace.states], singles)
    masses = [np.exp(x) * w[:, None] * w[None, :] for x in singles]
    assert same(discrete.plan_mass(trace.states), masses)
    assert same([discrete.plan_mass(s) for s in trace.states], masses)
    expected = [relative_entropy_one(ref, x, w[:, None] * w[None, :]) for x in singles]
    assert discrete.joint_relative_entropy(ref, logs, w).tolist() == expected
    assert [discrete.joint_relative_entropy(ref, x, w) for x in singles] == expected


@st.composite
def general_matrices(draw):
    """One d x d matrix or a stack of 1-5, d <= 8, with singular values spread over up to 16 decades.

    Some draws zero a row, or the whole of a slice, so exactly singular and null matrices occur.
    """
    d = draw(st.integers(1, 8))
    batch = draw(st.sampled_from([(), (1,), (2,), (3,), (5,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top, log_cond = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.0, 16.0))
    left, _ = np.linalg.qr(rng.standard_normal((*batch, d, d)))
    right, _ = np.linalg.qr(rng.standard_normal((*batch, d, d)))
    a = (left * np.logspace(top, top - log_cond, d)) @ right.swapaxes(-1, -2)
    zeroed = draw(st.sampled_from(["none", "row", "all"]))
    if zeroed == "row":
        a[..., 0, :] = 0.0
    elif zeroed == "all":
        a[...] = 0.0
    return a


@PROPERTY_SETTINGS
@given(general_matrices())
@example(np.zeros((1, 1)))
@example(np.array([[1.0, 0.0], [0.0, 1e-17]]))
def test_norm_and_condition_number_equal_numpys_bitwise(a):
    """spd reads both off one svd(compute_uv=False), as np.linalg.norm(a, 2) and np.linalg.cond do."""
    norm, cond = spd.spectral_norm(a), spd.condition_number(a)
    want_norm, want_cond = np.linalg.norm(a, 2, axis=(-2, -1)), np.linalg.cond(a)
    if a.ndim == 2:
        assert type(norm) is float and type(cond) is float
    assert np.array_equal(norm, want_norm) and np.array_equal(cond, want_cond)


@pytest.mark.parametrize("seed", range(5))
def test_loewner_verdicts_on_criterion_1_stacks_match_an_svd_scale(seed, monkeypatch):
    """The noise scale 1 + ||b - a|| read off eigvalsh(b - a) gives the verdicts an SVD norm gives."""
    compared = []
    loewner_lt = spd.loewner_lt
    monkeypatch.setattr(spd, "loewner_lt", lambda a, b, tol=1e-10: compared.append((a, b, tol)) or loewner_lt(a, b, tol))
    assert verify.criterion_riccati_fixed_point(seed=seed)["passed"]
    monkeypatch.undo()
    assert len(compared) == 4 * len(verify._dim_groups(verify._spd_family(seed)))
    for a, b, tol in compared:
        lo, scale = loewner_gap_svd(a, b)
        assert np.array_equal(spd.loewner_lt(a, b, tol), lo > tol * scale)
        assert np.array_equal(spd.loewner_leq(a, b, tol), lo >= -tol * scale)


@st.composite
def riccati_problems(draw):
    """varpi with d <= 8, cond(varpi) <= 1e6 and largest eigenvalue in [1e-6, 10]; a PSD start
    of any rank and of scale 1e-3 to 1e3; n <= 60 steps."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top, log_cond = draw(st.floats(-6.0, 1.0)), draw(st.floats(0.0, 6.0))
    a = rng.standard_normal((d, draw(st.integers(0, d))))
    r0 = spd.clamp_psd(10.0 ** draw(st.floats(-3.0, 3.0)) * (a @ a.T))
    return log_spectrum_spd(rng, d, top - log_cond, top), r0, draw(st.integers(0, 60))


@PROPERTY_SETTINGS
@given(riccati_problems())
def test_closed_form_iterate_matches_the_dense_steps(problem):
    """Normwise within 1e-12 (1 + ||r*|| + ||r0||) at every step.

    varpi's scale is capped at 10: both paths round varpi + s, which costs
    eps ||varpi|| on the slow modes, the closed form and the steps alike.
    """
    varpi, r0, n = problem
    err = spd.spectral_norm(riccati.iterate(varpi, r0, n) - riccati_steps(varpi, r0, n))
    scale = 1.0 + spd.spectral_norm(riccati.fixed_point(varpi)) + spd.spectral_norm(r0)
    assert np.all(err <= 1e-12 * scale)


# both sides of the series cut |x| = 0.01, the smallest and largest |x| drawn
CUT = discrete._SERIES_CUT


@PROPERTY_SETTINGS
@given(st.lists(st.floats(1e-12, 50.0) | st.floats(-50.0, -1e-12), min_size=1, max_size=16))
@example([CUT * (1 - EPS), CUT, -CUT * (1 - EPS), -CUT, 1e-12, -1e-12, 50.0, -50.0])
def test_kl_terms_meet_60_digits(xs):
    """e^x - 1 - x and x e^x - e^x + 1 are >= 0 and within relative 1e-13 of 60 digits, for 1e-12 <= |x| <= 50.

    Log-ratio increments stay far below |x| ~ 709, where x expm1(x) overflows.
    """
    back, forward = discrete._kl_terms(np.array(xs))
    with mpmath.workdps(60):
        e = [(mpmath.exp(x) - 1 - x, x * mpmath.exp(x) - mpmath.exp(x) + 1) for x in map(mpmath.mpf, xs)]
    want_back, want_forward = np.array(e, dtype=float).T
    assert np.all(back >= 0.0) and np.all(forward >= 0.0)
    assert np.all(np.abs(back - want_back) <= 1e-13 * want_back)
    assert np.all(np.abs(forward - want_forward) <= 1e-13 * want_forward)


@st.composite
def tables(draw):
    """An n column and 1-4 float columns over 0-12 rows, with inf and NaN cells and random placeholder cells."""
    rows = draw(st.integers(0, 12))
    cell = st.floats() | st.sampled_from([np.inf, -np.inf, np.nan])
    table = {"n": np.arange(rows)}
    for j in range(draw(st.integers(1, 4))):
        values = draw(st.lists(cell, min_size=rows, max_size=rows))
        mask = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        table[f"c{j}"] = cli._Placeholders(np.array(values, dtype=float), np.array(mask, dtype=bool))
    return table


@PROPERTY_SETTINGS
@given(tables())
def test_rendered_table_refuses_undeclared_non_finite_cells_and_round_trips(table):
    """Rendering raises iff a cell outside the mask is inf or NaN, naming the first in row order.

    Otherwise every cell parses back to its double.
    """
    floats = {name: column for name, column in table.items() if name != "n"}
    bad = [(row, name) for name, column in floats.items() for row in range(len(column.values))
           if not (np.isfinite(column.values[row]) or column.mask[row])]
    if bad:
        row, name = min(bad, key=lambda b: b[0])
        with pytest.raises(DomainError) as err:
            cli._csv("test x.csv", table)
        assert str(err.value) == f"test x.csv row n={row} is not finite: {name} {floats[name].values[row]}"
        return
    header, *lines = cli._csv("test x.csv", table).splitlines()
    assert header == ",".join(table) and len(lines) == len(table["n"])
    for row, line in enumerate(lines):
        n, *cells = line.split(",")
        assert n == str(row)
        for cell, column in zip(cells, floats.values()):
            value, parsed = column.values[row], float(cell)
            # the 17-digit promise, bit for bit (a NaN has no payload to keep)
            assert np.isnan(parsed) if np.isnan(value) else np.float64(parsed).view(np.int64) == value.view(np.int64)
