import json

import numpy as np
import pytest

from references import correction_sequences, curvature_flow_mp, proximal_crossover_composed, proximal_step, varpi_pair
from sinkbridge import bounds, cli, riccati, spd
from sinkbridge import gaussian as g
from sinkbridge.bounds import ZERO, CurvatureSpec
from sinkbridge.errors import DomainError


def gaussian_spec(u, v):
    """``CurvatureSpec.gaussian`` of the centred Gaussians with covariances u and v."""
    return CurvatureSpec.gaussian(*(g.GaussianMeasure(np.zeros(np.shape(c)[:-1]), c) for c in (u, v)))


def kernel_ti(t, d=1):
    return g.LinearGaussianKernel(np.zeros(d), np.eye(d), t * np.eye(d))


def test_eps_generic():
    assert bounds.eps_generic(1.0, 1.0, 1.0) == 1.0
    assert bounds.eps_generic(2.0, 0.5, 3.0) == 6.0
    with pytest.raises(DomainError):
        bounds.eps_generic(0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match=r"underflows to 0: kappa=1\.000e-200, rho1=1\.000e\+00"):
        bounds.eps_generic(1e-200, 1.0, 1.0)


def test_entropy_envelopes_rows():
    eps, gaps = 3.0, np.array([2.0, 1.5, 1.0, 0.7, 0.4])
    pair, improved = bounds.entropy_envelopes(eps, gaps)
    ph = bounds.phi(eps)
    for n in range(len(gaps)):
        assert pair[n] == (1.0 + 1.0 / eps) ** -(n // 2) * gaps[0]
        assert improved[n] == ((1.0 + ph) ** -(n - 2) * gaps[0] if n >= 2 else np.inf)


def test_proximal_trace_rows():
    mu, nu = g.GaussianMeasure([0.0], [[1.0]]), g.GaussianMeasure([3.0], [[2.0]])
    k = kernel_ti(1.0)
    a, b = bounds.proximal_rates(k, CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]]))
    rows = bounds.proximal_trace(nu, mu, k, a, b, 4)
    w0, h0 = g.gelbrich_w2(nu, mu), g.gaussian_kl(nu, mu)
    assert len(rows) == 5 and rows[0] == (w0, w0, h0, h0)
    cur = nu
    for n, (w2, w2_env, kl, kl_env) in enumerate(rows[1:], 1):
        cur = proximal_step(cur, mu, k)
        assert (w2, kl) == (g.gelbrich_w2(cur, mu), g.gaussian_kl(cur, mu))
        assert (w2_env, kl_env) == (b**n * w0, a * b ** (2 * (n - 1)) * h0)
        assert w2 <= w2_env and kl <= kl_env


def test_kappa_from_kernel():
    for t in [0.5, 1.0, 4.0]:
        assert abs(spd.spectral_norm(kernel_ti(t).chi) - 1.0 / t) < 1e-12


def test_eps_lg_values():
    spec = gaussian_spec(np.eye(1), np.eye(1))
    assert abs(bounds.eps_lg(kernel_ti(1.0), spec) - 1.0) < 1e-12
    assert abs(bounds.eps_lg(kernel_ti(10.0), spec) - 0.01) < 1e-14
    vals = [bounds.eps_lg(kernel_ti(t), spec) for t in [0.1, 1.0, 10.0, 100.0, 1000.0]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_phi_values_and_identity():
    p1 = bounds.phi(1.0)
    assert abs(p1 - 0.6180339887) < 1e-9
    assert abs((1.0 + p1) ** 2 - (1.0 + 1.0 + p1)) < 1e-12
    assert abs(bounds.phi(0.25) - 4.0 / (np.sqrt(4.25) + 0.5)) < 1e-12
    assert abs(bounds.phi(0.25) - 1.5615528128) < 1e-9
    assert bounds.phi(1e6) < 2e-6
    for eps in np.logspace(-3, 3, 25):
        p = bounds.phi(eps)
        assert abs((1.0 + p) ** 2 - (1.0 + 1.0 / eps + p)) < 1e-12
        assert (1.0 + p) ** -2 < (1.0 + 1.0 / eps) ** -1


def test_varpi_family_zero_conventions():
    spec = CurvatureSpec(u_plus=np.eye(2), v_plus=np.eye(2))  # u_- = v_- = 0
    w0, w1, w0b, w1b = bounds.varpi_family(kernel_ti(1.0, 2), spec)
    assert all(riccati.is_infinite(w) for w in (w0, w1, w0b, w1b))

    spec_u0 = CurvatureSpec(u_plus=np.eye(2), v_plus=np.eye(2), v_minus=np.eye(2))
    w0, w1, w0b, w1b = bounds.varpi_family(kernel_ti(1.0, 2), spec_u0)
    # u_- = 0 kills the first-flow upper parameter and the second-flow lower one
    assert riccati.is_infinite(w0b) and riccati.is_infinite(w1)
    assert not riccati.is_infinite(w0) and not riccati.is_infinite(w1b)


def dense(w):
    """The varpi matrix q diag(lam) q' of a family member's spectrum."""
    return (w.q * w.lam) @ w.q.T


def test_varpi_family_gaussian_equality_identity_model():
    spec = gaussian_spec(np.eye(2), np.eye(2))
    family = bounds.varpi_family(kernel_ti(1.0, 2), spec)
    for w in family:
        assert np.allclose(dense(w), np.eye(2), atol=1e-12)


def test_varpi_family_t_rescaling():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    u = spd.symmetrize((q * [0.7, 1.8]) @ q.T)
    spec = CurvatureSpec(u_plus=u, v_plus=np.diag([1.0, 2.0]), u_minus=0.5 * u, v_minus=np.diag([0.5, 1.0]))
    base = bounds.varpi_family(kernel_ti(1.0, 2), spec)
    for t in [0.1, 1.0, 10.0]:
        fam_t = bounds.varpi_family(kernel_ti(t, 2), spec)
        for w_t, w_1 in zip(fam_t, base):
            w_t, w_1 = dense(w_t), dense(w_1)
            assert np.linalg.norm(w_t / t**2 - w_1, 2) < 1e-12 * max(1.0, spd.spectral_norm(w_1))


def dense_varpi(chi, u, v):
    """Reference Riccati parameter v^{-1/2} (chi u chi')^{-1} v^{-1/2}, by dense inverses."""
    v_ihalf = np.linalg.inv(spd.principal_sqrt(v))
    return spd.symmetrize(v_ihalf @ np.linalg.inv(chi @ u @ chi.T) @ v_ihalf)


def test_varpi_family_matches_gaussian_module():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    u = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    v = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    mu = g.GaussianMeasure(np.zeros(3), u)
    eta = g.GaussianMeasure(np.zeros(3), v)
    k = g.LinearGaussianKernel(np.zeros(3), np.eye(3) + 0.3 * rng.standard_normal((3, 3)), np.diag([0.5, 1.0, 2.0]))
    # both functions come from one decomposition; the dense congruence formula checks them
    w0_ref, w1_ref = dense_varpi(k.chi, u, v), dense_varpi(k.chi.T, v, u)
    w0g, w1g = varpi_pair(mu, eta, k)
    w0, w1, w0b, w1b = map(dense, bounds.varpi_family(k, gaussian_spec(u, v)))
    for w, ref in ((w0g, w0_ref), (w0, w0_ref), (w0b, w0_ref), (w1g, w1_ref), (w1, w1_ref), (w1b, w1_ref)):
        assert np.linalg.norm(w - ref, 2) < 1e-10 * spd.spectral_norm(ref)


def test_varpi_family_equality_case_decomposes_once(monkeypatch):
    """CurvatureSpec.gaussian holds one (u, v) pair: one bridge_factors call, bitwise the family of a spec of copies."""
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    u = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    v = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    k = g.LinearGaussianKernel(np.zeros(3), np.eye(3) + 0.3 * rng.standard_normal((3, 3)), np.diag([0.5, 1.0, 2.0]))
    calls = []
    bridge_factors = bounds.bridge_factors
    monkeypatch.setattr(bounds, "bridge_factors", lambda *a: calls.append(a) or bridge_factors(*a))
    family = bounds.varpi_family(k, gaussian_spec(u, v))
    assert len(calls) == 1
    copies = bounds.varpi_family(k, CurvatureSpec(u_plus=u, v_plus=v, u_minus=u.copy(), v_minus=v.copy()))
    assert len(calls) == 3
    for w, w_copy in zip(family, copies):
        assert np.array_equal(w.lam, w_copy.lam) and np.array_equal(w.q, w_copy.q)


def random_two_sided(seed):
    """A seed-fixed d = 3 kernel and a spec of four distinct SPD factors."""
    rng = np.random.default_rng(seed)
    factors = {}
    for name in ("u_plus", "v_plus", "u_minus", "v_minus"):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        factors[name] = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    spec = CurvatureSpec(**factors)
    k = g.LinearGaussianKernel(np.zeros(3), np.eye(3) + 0.3 * rng.standard_normal((3, 3)), np.diag([0.5, 1.0, 2.0]))
    return k, spec


def test_varpi_family_pairs_each_lower_factor_with_the_opposite_upper_one():
    k, spec = random_two_sided(22)
    chi = k.chi
    refs = (
        dense_varpi(chi, spec.u_plus, spec.v_minus),
        dense_varpi(chi.T, spec.v_plus, spec.u_minus),
        dense_varpi(chi, spec.u_minus, spec.v_plus),
        dense_varpi(chi.T, spec.v_minus, spec.u_plus),
    )
    for w, ref in zip(map(dense, bounds.varpi_family(k, spec)), refs):
        assert np.linalg.norm(w - ref, 2) < 1e-10 * spd.spectral_norm(ref)


def test_rate_table_makes_only_the_bridge_decompositions(decompositions, monkeypatch):
    """One bridge_factors call per finite pair; no varpi is assembled and decomposed again."""
    k, spec = random_two_sided(23)
    pairs = []
    bridge_factors = bounds.bridge_factors
    monkeypatch.setattr(bounds, "bridge_factors", lambda *a: pairs.append(a) or bridge_factors(*a))
    spectrum = riccati._spectrum

    def spectra_only(varpi):
        assert isinstance(varpi, riccati.Spectrum), "a varpi matrix was decomposed"
        return spectrum(varpi)

    monkeypatch.setattr(riccati, "_spectrum", spectra_only)
    decompositions.clear()
    bounds.rate_table(k, spec, 6, p=2)
    assert len(pairs) == 2
    assert decompositions["svd"] - decompositions["norm_svd"] == 2


@pytest.mark.parametrize("p", [1, 5])
def test_rate_table_runs_no_correction_sequence(decompositions, p):
    """iota needs only the two fixed points, so no Riccati iterate runs, whatever p is.

    The one eigh is of proximal_rates' resolvent: the bridges, roots and
    inverses of the curvature factors and tau come from the spectra that
    validated them.
    """
    k, spec = random_two_sided(23)
    decompositions.clear()
    rep = bounds.rate_table(k, spec, 6, p=p)
    assert (decompositions["solve"], decompositions["eigh"], decompositions["norm_svd"]) == (0, 1, 7)
    assert rep.scalars["iota"]["value"] == correction_sequences(k, spec, p)[2]


@pytest.mark.parametrize("seed", [20, 21, 22, 23, "zero-minus"])
def test_rate_table_constants_are_their_public_parts(seed):
    """rate_table shares its norms among eps, iota and the proximal rates; each constant is bitwise
    what ``eps_lg`` and ``proximal_rates`` give, with four SPD factors or with ZERO minus factors."""
    k, spec = random_two_sided(23 if seed == "zero-minus" else seed)
    if seed == "zero-minus":
        spec = CurvatureSpec(u_plus=spec.u_plus, v_plus=spec.v_plus)
    scalars = {name: entry["value"] for name, entry in bounds.rate_table(k, spec, 4).scalars.items()}
    assert scalars["eps"] == bounds.eps_lg(k, spec)
    assert (scalars["proximal_a"], scalars["proximal_b"]) == bounds.proximal_rates(k, spec)


def log_spectrum_spd(d, cond, seed):
    """A seed-fixed SPD matrix whose spectrum is log-spaced over [1, cond]."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(0.0, np.log10(cond), d)) @ q.T)


def ill_conditioned_bridge(d, cond):
    """Gaussian-equality curvature whose flow parameters varpi have condition number ~cond^2."""
    beta = np.eye(d) + 0.1 * np.random.default_rng(5).standard_normal((d, d))
    k = g.LinearGaussianKernel(np.zeros(d), beta, np.eye(d))
    return k, gaussian_spec(log_spectrum_spd(d, cond, 0), log_spectrum_spd(d, cond, 1))


@pytest.mark.parametrize("d, cond", [(16, 1e7), (32, 1e8), (64, 1e8)])
def test_rate_table_on_ill_conditioned_bridges(d, cond):
    # an assembled varpi here fails the 1e12 SPD check that user input
    # meets; the family's spectra never meet it
    rep = bounds.rate_table(*ill_conditioned_bridge(d, cond), 10, p=2)
    values = {name: s["value"] for name, s in rep.scalars.items()}
    assert all(np.isfinite(float(v)) for v in values.values())
    assert values["iota"] >= 1.0 and 0.0 < values["delta_bar"] < 1.0 and values["c_bar"] >= 1.0


def test_bounds_command_on_ill_conditioned_bridge(tmp_path):
    k, spec = ill_conditioned_bridge(32, 1e8)
    model = {
        "kernel": {"alpha": k.alpha.tolist(), "beta": k.beta.tolist(), "tau": k.tau.tolist()},
        "spec": {name: getattr(spec, name).tolist() for name in ("u_plus", "v_plus", "u_minus", "v_minus")},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bounds", "model": model}))
    out = tmp_path / "bounds"
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert rows and not any(row.endswith(",0") for row in rows)


def test_curvature_flow_equality_case_matches_sinkhorn():
    # in the Gaussian equality case both envelopes coincide with the actual
    # Sinkhorn conditional covariances
    u = np.diag([1.0, 2.0])
    v = np.diag([0.8, 1.5])
    mu = g.GaussianMeasure(np.zeros(2), u)
    eta = g.GaussianMeasure(np.zeros(2), v)
    k = g.LinearGaussianKernel(np.zeros(2), np.eye(2), 0.7 * np.eye(2))
    spec = gaussian_spec(u, v)
    sigma, tau = bounds.curvature_flow(k, spec, 8)
    run = g.sinkhorn_run(g.bridge_solve(mu, eta, k), 8)
    assert len(sigma) == len(tau) == len(run.tau)
    for n, tau_n in enumerate(run.tau):
        assert np.linalg.norm(tau[n] - tau_n, 2) < 1e-10
        assert np.linalg.norm(sigma[n] - tau_n, 2) < 1e-10


def test_curvature_flow_sandwich_and_rescaled_recursion():
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    u_plus = spd.symmetrize((q * [1.5, 2.0]) @ q.T)
    u_minus = spd.symmetrize((q * [0.7, 1.0]) @ q.T)
    spec = CurvatureSpec(u_plus=u_plus, v_plus=np.diag([2.0, 1.2]), u_minus=u_minus, v_minus=np.diag([0.9, 0.6]))
    k = kernel_ti(1.3, 2)
    sigma, tau = bounds.curvature_flow(k, spec, 10)
    for s, t in zip(sigma, tau):
        assert spd.loewner_leq(s, t, tol=1e-10)

    w0, w1, w0b, w1b = bounds.varpi_family(k, spec)
    vp_ih = spd.sym_inv(spd.principal_sqrt(spec.v_plus))
    up_ih = spd.sym_inv(spd.principal_sqrt(spec.u_plus))
    vm_ih = spd.sym_inv(spd.principal_sqrt(spec.v_minus))
    um_ih = spd.sym_inv(spd.principal_sqrt(spec.u_minus))
    for n in range(2, len(tau), 2):
        lhs = vp_ih @ tau[n] @ vp_ih
        assert np.linalg.norm(lhs - riccati.ricc_map(w0b, vp_ih @ tau[n - 2] @ vp_ih), 2) < 1e-10
        lhs_s = vm_ih @ sigma[n] @ vm_ih
        assert np.linalg.norm(lhs_s - riccati.ricc_map(w0, vm_ih @ sigma[n - 2] @ vm_ih), 2) < 1e-10
    for n in range(3, len(tau), 2):
        lhs = up_ih @ tau[n] @ up_ih
        assert np.linalg.norm(lhs - riccati.ricc_map(w1b, up_ih @ tau[n - 2] @ up_ih), 2) < 1e-10
        lhs_s = um_ih @ sigma[n] @ um_ih
        assert np.linalg.norm(lhs_s - riccati.ricc_map(w1, um_ih @ sigma[n - 2] @ um_ih), 2) < 1e-10


def test_curvature_flow_zero_branch():
    # u_- = 0: the odd lower envelope is null and the even upper envelope
    # rescales to the identity after the first pair
    spec = CurvatureSpec(u_plus=np.eye(2), v_plus=np.diag([2.0, 1.0]), v_minus=np.diag([0.5, 0.25]))
    k = kernel_ti(1.0, 2)
    sigma, tau = bounds.curvature_flow(k, spec, 6)
    vp_ih = spd.sym_inv(spd.principal_sqrt(spec.v_plus))
    for n in range(1, len(sigma), 2):
        assert np.allclose(sigma[n], 0.0)
    for n in range(2, len(tau), 2):
        assert np.linalg.norm(vp_ih @ tau[n] @ vp_ih - np.eye(2), 2) < 1e-12


def test_curvature_flow_scalar_hand_oracle():
    # two steps by hand for u+- = (2, 1), v+- = (2, 1), beta = tau = 1
    spec = CurvatureSpec(
        u_plus=[[2.0]], v_plus=[[2.0]], u_minus=[[1.0]], v_minus=[[1.0]]
    )
    k = kernel_ti(1.0)
    sigma, tau = bounds.curvature_flow(k, spec, 2)
    s1 = 1.0 / (1.0 / 1.0 + 1.0)  # (u_-^{-1} + chi' tau_0 chi)^{-1}
    t1 = 1.0 / (1.0 / 2.0 + 1.0)  # (u_+^{-1} + chi' sigma_0 chi)^{-1}
    assert abs(sigma[1][0, 0] - s1) < 1e-14
    assert abs(tau[1][0, 0] - t1) < 1e-14
    s2 = 1.0 / (1.0 / 1.0 + t1)
    t2 = 1.0 / (1.0 / 2.0 + s1)
    assert abs(sigma[2][0, 0] - s2) < 1e-14
    assert abs(tau[2][0, 0] - t2) < 1e-14


def two_sided_spec(d, cond, drop=()):
    """Seed-fixed curvature factors with spectra over scale * [1, cond]; the names in ``drop`` become ZERO."""
    scales = {"u_plus": 1.0, "v_plus": 1.0, "u_minus": 0.5, "v_minus": 0.7}
    factors = {name: scale * log_spectrum_spd(d, cond, seed) for seed, (name, scale) in enumerate(scales.items())}
    return CurvatureSpec(**{**factors, **dict.fromkeys(drop, ZERO)})


@pytest.mark.parametrize("drop, n_max", [
    ((), 8), (("u_minus",), 8), (("v_minus",), 8), (("u_minus", "v_minus"), 8), ((), 0), (("u_minus", "v_minus"), 0),
], ids=["two-sided", "u_minus-zero", "v_minus-zero", "both-zero", "n_max-0", "both-zero-n_max-0"])
def test_curvature_flow_matches_the_high_precision_recursion(drop, n_max):
    # the two Sinkhorn runs against the envelopes' defining recursion in 60 digits
    k, _ = ill_conditioned_bridge(4, 1e4)
    spec = two_sided_spec(4, 1e4, drop)
    sigma, tau = bounds.curvature_flow(k, spec, n_max)
    sigma_ref, tau_ref = curvature_flow_mp(k, spec, n_max)
    assert len(sigma) == len(tau) == len(sigma_ref) == 2 * n_max + 2
    for flow, ref in ((sigma, sigma_ref), (tau, tau_ref)):
        for m, m_ref in zip(flow, ref):
            assert np.linalg.norm(m - m_ref, 2) <= 1e-11 * np.linalg.norm(m_ref, 2)


@pytest.mark.parametrize("drop, eighs", [((), 2), (("u_minus", "v_minus"), 1)], ids=["two-sided", "zero-minus"])
def test_curvature_flow_decomposes_no_held_factor_again(drop, eighs, decompositions):
    """The flows start from the spectra the spec holds: one eigh per bridged run, for its odd start.

    Building a spec and running its flows decomposes no input twice.
    """
    k, _ = ill_conditioned_bridge(3, 1e2)
    decompositions.clear()
    spec = two_sided_spec(3, 1e2, drop)
    held = decompositions["eigh"]
    bounds.curvature_flow(k, spec, 5)
    assert decompositions["eigh"] - held == eighs
    assert decompositions["repeated"] == 0


def test_xi_iota_zero_case():
    spec = CurvatureSpec(u_plus=np.eye(2), v_plus=np.eye(2))
    k = kernel_ti(1.0, 2)
    xi_even, xi_odd, iota = correction_sequences(k, spec, 6)
    assert iota == bounds.rate_table(k, spec, 0).scalars["iota"]["value"] == 1.0
    assert all(abs(x - 1.0) < 1e-14 for x in xi_even + xi_odd)


def test_xi_iota_gaussian_equality_scalar():
    spec = gaussian_spec([[1.0]], [[1.0]])
    iota = bounds.rate_table(kernel_ti(1.0), spec, 0).scalars["iota"]["value"]
    r = riccati.fixed_point(np.array([[1.0]]))[0, 0]
    assert abs(iota - 1.0 / r) < 1e-12


def test_xi_monotone_and_bounded_by_iota():
    rng = np.random.default_rng(404)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    spec = CurvatureSpec(
        u_plus=spd.symmetrize((q * [1.2, 2.3]) @ q.T),
        v_plus=np.diag([1.5, 0.9]),
        u_minus=spd.symmetrize((q * [0.6, 1.1]) @ q.T),
        v_minus=np.diag([0.7, 0.4]),
    )
    k = kernel_ti(0.8, 2)
    xi_even, xi_odd, iota = correction_sequences(k, spec, 10)
    assert iota == bounds.rate_table(k, spec, 0).scalars["iota"]["value"]
    for seq in (xi_even, xi_odd):
        assert all(x >= 1.0 - 1e-12 for x in seq)
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
        assert all(x <= iota + 1e-12 for x in seq)


def test_rate_table_napkin_numbers():
    spec = gaussian_spec([[1.0]], [[1.0]])
    rep = bounds.rate_table(kernel_ti(1.0), spec, 10)
    assert abs(rep.scalars["pair_rate"]["value"] - 0.5) < 1e-12
    assert abs(rep.scalars["phi_rate_squared"]["value"] - 0.381966) < 1e-6
    assert rep.scalars["phi_rate_strictly_better"]["value"] is True

    rep2 = bounds.rate_table(kernel_ti(10.0), spec, 4)
    assert rep2.scalars["phi_rate_squared"]["value"] < rep2.scalars["pair_rate"]["value"]


@pytest.mark.parametrize("beta, eps", [(1e8, 1e16), (1e10, 1e20)])
def test_rate_table_strict_ordering_past_rounding(beta, eps):
    # both rates round to 1.0 here; the ordering is read from phi (2 + phi) > 1/eps
    spec = gaussian_spec([[1.0]], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[beta]], [[1.0]])
    rep = bounds.rate_table(k, spec, 3)
    assert rep.scalars["eps"]["value"] == eps
    assert rep.scalars["pair_rate"]["value"] == rep.scalars["phi_rate_squared"]["value"] == 1.0
    assert rep.scalars["phi_rate_strictly_better"]["value"] is True


def test_rate_table_iota_one_collapse():
    # with u_- = v_- = 0 the composite envelope equals the basic one for large p
    spec = CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]])
    rep = bounds.rate_table(kernel_ti(1.0), spec, 6, p=12)
    assert abs(rep.scalars["composite_rate"]["value"] - rep.scalars["pair_rate"]["value"]) < 1e-12


def test_rate_table_dominates_empirical_gaussian_decay():
    u = np.diag([1.0, 0.7])
    v = np.diag([1.3, 0.9])
    mu = g.GaussianMeasure(np.zeros(2), u)
    eta = g.GaussianMeasure([0.4, -0.2], v)
    k = kernel_ti(1.0, 2)
    spec = gaussian_spec(u, v)
    bridge = g.bridge_solve(mu, eta, k)
    gaps = g.bridge_gaps(bridge, g.sinkhorn_run(bridge, 12))
    even_ratio = [gaps[2 * n] / gaps[0] for n in range(13)]
    rep = bounds.rate_table(k, spec, 12)
    bound = [b for _, tag, b in rep.envelopes if tag == "two-step-entropy-rate"]
    assert len(bound) == len(even_ratio) == 13
    assert all(r <= b for r, b in zip(even_ratio, bound))


def test_proximal_rates_values():
    spec1 = CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]])
    a, b = bounds.proximal_rates(kernel_ti(1.0), spec1)
    assert (a, b) == (1.0, 0.5)
    a9, b9 = bounds.proximal_rates(kernel_ti(9.0), spec1)
    assert abs(b9 - 0.1) < 1e-13
    assert b9 <= a9


def test_proximal_rates_b_le_a_sweep():
    rng = np.random.default_rng(606)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        u = spd.symmetrize((q * rng.uniform(0.3, 3.0, d)) @ q.T)
        spec = CurvatureSpec(u_plus=u, v_plus=np.eye(d))
        beta = 0.3 * rng.standard_normal((d, d)) + np.eye(d)
        k = g.LinearGaussianKernel(np.zeros(d), beta, spd.symmetrize((q * rng.uniform(0.3, 3.0, d)) @ q.T))
        a, b = bounds.proximal_rates(k, spec)
        assert b <= a + 1e-12
        # scalar-formula check when the model is the scaled-identity one
    for t, nu in [(1.0, 1.0), (2.0, 0.5), (9.0, 1.0)]:
        spec = CurvatureSpec(u_plus=[[nu]], v_plus=[[1.0]])
        _, b = bounds.proximal_rates(kernel_ti(t), spec)
        assert abs(b - nu / (t + nu)) < 1e-13


def test_proximal_crossover_exact_equivalence():
    # the rate comparison must match the exact margin predicate at the two
    # reference points and across the true boundary
    cases = [
        (1.0, 2.0, 1.0),
        (1.0, 1.0, 2.0),
        (10.0, 2.0, 1.0),  # margin 2.5 > 1: proximal rate wins
        (10.0, 1.0, 2.0),  # margin negative
    ]
    seen = set()
    for t, up, vp in cases:
        spec = CurvatureSpec(u_plus=[[up]], v_plus=[[vp]])
        out = bounds.proximal_crossover(kernel_ti(t), spec)
        assert out["pair_rate_below"] == out["margin_above_one"]
        seen.add(out["pair_rate_below"])
    assert seen == {True, False}


def test_stacked_proximal_rates_and_crossover_equal_per_model_calls():
    """A stack of models gives, per model, bitwise the floats and bools of that model alone.

    The 1-d stack is criterion 8's four cases, each alone on kernel_ti(t);
    the 3-d stack has correlated beta, tau and u_plus.
    """
    t, up, vp = np.array([(1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (10.0, 2.0, 1.0), (10.0, 1.0, 2.0)]).T.reshape(3, -1, 1, 1)
    singles = [(kernel_ti(float(t[j, 0, 0])), CurvatureSpec(u_plus=up[j], v_plus=vp[j])) for j in range(4)]
    stacks = [(g.LinearGaussianKernel(np.zeros((4, 1)), np.ones_like(t), t), CurvatureSpec(u_plus=up, v_plus=vp))]
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 4, 3, 3)))
    tau, u, v = g._congruent(q, rng.uniform(0.3, 3.0, (3, 4, 3)))
    beta = np.eye(3) + 0.3 * rng.standard_normal((4, 3, 3))
    stacks.append((g.LinearGaussianKernel(np.zeros((4, 3)), beta, tau), CurvatureSpec(u_plus=u, v_plus=v)))
    singles += [(g.LinearGaussianKernel(np.zeros(3), beta[j], tau[j]), CurvatureSpec(u_plus=u[j], v_plus=v[j]))
                for j in range(4)]
    for i, (k, spec) in enumerate(stacks):
        rates, crossover = bounds.proximal_rates(k, spec), bounds.proximal_crossover(k, spec)
        for j, (k1, spec1) in enumerate(singles[4 * i: 4 * i + 4]):
            assert tuple(x[j] for x in rates) == bounds.proximal_rates(k1, spec1)
            assert {key: x[j] for key, x in crossover.items()} == bounds.proximal_crossover(k1, spec1)


def test_proximal_crossover_takes_each_norm_once(decompositions):
    # ||chi||, ||tau||, ||u_plus||, ||v_plus|| and the resolvent's norm, once each: composed of eps_lg
    # and proximal_rates, the crossover took ten
    k, spec = kernel_ti(10.0), CurvatureSpec(u_plus=[[2.0]], v_plus=[[1.0]])
    decompositions.clear()
    bounds.proximal_crossover(k, spec)
    assert decompositions["norm_svd"] == 5


@pytest.mark.parametrize("d", [1, 3])
def test_proximal_crossover_is_bitwise_its_composed_form(d):
    """On a stack of four models and on each alone, every output equals the composed form's, in value and type."""
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((3, 4, d, d)))
    tau, u, v = g._congruent(q, rng.uniform(0.3, 3.0, (3, 4, d)))
    beta = np.eye(d) + 0.3 * rng.standard_normal((4, d, d))
    cases = [(g.LinearGaussianKernel(np.zeros((4, d)), beta, tau), CurvatureSpec(u_plus=u, v_plus=v))]
    cases += [(g.LinearGaussianKernel(np.zeros(d), beta[j], tau[j]), CurvatureSpec(u_plus=u[j], v_plus=v[j]))
              for j in range(4)]
    for k, spec in cases:
        got, want = bounds.proximal_crossover(k, spec), proximal_crossover_composed(k, spec)
        assert got.keys() == want.keys()
        for key, x in want.items():
            assert type(got[key]) is type(x) and np.array_equal(got[key], x), key


def test_rate_table_builds_roots_and_inverses_from_held_spectra(decompositions):
    """With ZERO upper factors no bridge gives v_plus's or u_plus's root; the held spectra still do.

    The one eigh left is of proximal_rates' resolvent, as with four SPD factors.
    """
    k, spec = random_two_sided(23)
    flat = CurvatureSpec(u_plus=spec.u_plus, v_plus=spec.v_plus)
    decompositions.clear()
    rep = bounds.rate_table(k, flat, 6)
    assert decompositions["eigh"] == 1
    iota = max(spd.spectral_norm(f) / spd.spectral_norm(spd.principal_sqrt(f) @ spd.principal_sqrt(f))
               for f in (flat.u_plus, flat.v_plus))
    assert rep.scalars["iota"]["value"] == iota


def test_bound_report_serialization_roundtrip(tmp_path):
    spec = gaussian_spec([[1.0]], [[1.0]])
    rep = bounds.rate_table(kernel_ti(1.0), spec, 3)
    assert rep.scalars["eps"] == {"value": 1.0, "tag": "contraction-coefficient"}
    assert len(rep.envelopes) == 3 * 4
    assert [row[:2] for row in rep.envelopes[:4]] == [(n, "two-step-entropy-rate") for n in range(4)]
    # the bounds command writes these rows, and every bound reads back bit for bit
    out = tmp_path / "bnd"
    assert cli.main(["bounds", "--out", str(out)]) == 0
    header, *rows = out.with_suffix(".csv").read_text().splitlines()
    assert header == "n,theorem_tag,bound"
    written = bounds.rate_table(kernel_ti(1.0), spec, 20)  # the command's default model
    assert [(int(n), tag, float(b)) for n, tag, b in (row.split(",") for row in rows)] == written.envelopes
