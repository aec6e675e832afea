import json

import numpy as np
import pytest

from sinkbridge import bounds, cli, riccati, spd
from sinkbridge import gaussian as g
from sinkbridge.bounds import CurvatureSpec
from sinkbridge.errors import DomainError


def kernel_ti(t, d=1):
    return g.LinearGaussianKernel(np.zeros(d), np.eye(d), t * np.eye(d))


def test_eps_generic():
    assert bounds.eps_generic(1.0, 1.0, 1.0) == 1.0
    assert bounds.eps_generic(2.0, 0.5, 3.0) == 6.0
    with pytest.raises(DomainError):
        bounds.eps_generic(0.0, 1.0, 1.0)


def test_kappa_from_kernel():
    for t in [0.5, 1.0, 4.0]:
        assert abs(spd.spectral_norm(kernel_ti(t).chi) - 1.0 / t) < 1e-12


def test_eps_lg_values():
    spec = CurvatureSpec.gaussian(np.eye(1), np.eye(1))
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
    spec = CurvatureSpec.gaussian(np.eye(2), np.eye(2))
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
    w0g, w1g = g.varpi_pair(mu, eta, k)
    w0, w1, w0b, w1b = map(dense, bounds.varpi_family(k, CurvatureSpec.gaussian(u, v)))
    for w, ref in ((w0g, w0_ref), (w0, w0_ref), (w0b, w0_ref), (w1g, w1_ref), (w1, w1_ref), (w1b, w1_ref)):
        assert np.linalg.norm(w - ref, 2) < 1e-10 * spd.spectral_norm(ref)


def test_varpi_family_pairs_each_lower_factor_with_the_opposite_upper_one():
    rng = np.random.default_rng(22)
    factors = {}
    for name in ("u_plus", "v_plus", "u_minus", "v_minus"):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        factors[name] = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    spec = CurvatureSpec(**factors)
    k = g.LinearGaussianKernel(np.zeros(3), np.eye(3) + 0.3 * rng.standard_normal((3, 3)), np.diag([0.5, 1.0, 2.0]))
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
    rng = np.random.default_rng(23)
    factors = {}
    for name in ("u_plus", "v_plus", "u_minus", "v_minus"):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        factors[name] = spd.symmetrize((q * rng.uniform(0.5, 2.0, 3)) @ q.T)
    spec = CurvatureSpec(**factors)
    k = g.LinearGaussianKernel(np.zeros(3), np.eye(3) + 0.3 * rng.standard_normal((3, 3)), np.diag([0.5, 1.0, 2.0]))

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


def log_spectrum_spd(d, cond, seed):
    """A seed-fixed SPD matrix whose spectrum is log-spaced over [1, cond]."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(0.0, np.log10(cond), d)) @ q.T)


def ill_conditioned_bridge(d, cond):
    """Gaussian-equality curvature whose flow parameters varpi have condition number ~cond^2."""
    beta = np.eye(d) + 0.1 * np.random.default_rng(5).standard_normal((d, d))
    k = g.LinearGaussianKernel(np.zeros(d), beta, np.eye(d))
    return k, CurvatureSpec.gaussian(log_spectrum_spd(d, cond, 0), log_spectrum_spd(d, cond, 1))


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
    spec = CurvatureSpec.gaussian(u, v)
    sigma, tau = bounds.curvature_flow(k, spec, 8)
    states = g.sinkhorn_run(mu, eta, k, 8)
    for s in states:
        if s.n < len(tau):
            assert np.linalg.norm(tau[s.n] - s.tau_n, 2) < 1e-10
            assert np.linalg.norm(sigma[s.n] - s.tau_n, 2) < 1e-10


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


def test_xi_iota_zero_case():
    spec = CurvatureSpec(u_plus=np.eye(2), v_plus=np.eye(2))
    xi_even, xi_odd, iota = bounds.xi_iota(kernel_ti(1.0, 2), spec, 6)
    assert iota == 1.0
    assert all(abs(x - 1.0) < 1e-14 for x in xi_even + xi_odd)


def test_xi_iota_gaussian_equality_scalar():
    spec = CurvatureSpec.gaussian([[1.0]], [[1.0]])
    k = kernel_ti(1.0)
    _, _, iota = bounds.xi_iota(k, spec, 4)
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
    xi_even, xi_odd, iota = bounds.xi_iota(kernel_ti(0.8, 2), spec, 10)
    for seq in (xi_even, xi_odd):
        assert all(x >= 1.0 - 1e-12 for x in seq)
        assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
        assert all(x <= iota + 1e-12 for x in seq)


def test_rate_table_napkin_numbers():
    spec = CurvatureSpec.gaussian([[1.0]], [[1.0]])
    rep = bounds.rate_table(kernel_ti(1.0), spec, 10)
    assert abs(rep.scalars["pair_rate"]["value"] - 0.5) < 1e-12
    assert abs(rep.scalars["phi_rate_squared"]["value"] - 0.381966) < 1e-6
    assert rep.scalars["phi_rate_strictly_better"]["value"] is True

    rep2 = bounds.rate_table(kernel_ti(10.0), spec, 4)
    assert rep2.scalars["phi_rate_squared"]["value"] < rep2.scalars["pair_rate"]["value"]


@pytest.mark.parametrize("beta, eps", [(1e8, 1e16), (1e10, 1e20)])
def test_rate_table_strict_ordering_past_rounding(beta, eps):
    # both rates round to 1.0 here; the ordering is read from phi (2 + phi) > 1/eps
    spec = CurvatureSpec.gaussian([[1.0]], [[1.0]])
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
    spec = CurvatureSpec.gaussian(u, v)
    plan = g.bridge_plan(mu, eta, k)
    states = g.sinkhorn_run(mu, eta, k, 12)
    gaps = [g.gaussian_kl(plan, g.state_plan(s, mu, eta, k)) for s in states]
    even_ratio = [gaps[2 * n] / gaps[0] for n in range(13)]
    rep = bounds.rate_table(k, spec, 12, empirical={"two-step-entropy-rate": even_ratio})
    rows = [r for r in rep.envelopes if r[1] == "two-step-entropy-rate" and r[3] is not None]
    assert rows and all(ok for *_, ok in rows)


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


def test_bound_report_serialization_roundtrip():
    spec = CurvatureSpec.gaussian([[1.0]], [[1.0]])
    rep = bounds.rate_table(kernel_ti(1.0), spec, 3)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "sinkbridge/v1"
    assert "eps" in doc["scalars"]
    rows = list(rep.envelope_csv_rows())
    assert rows[0].startswith("n,theorem_tag")
    assert len(rows) == 1 + 3 * 4
