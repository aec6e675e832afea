"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Each test drives the same checks as `sinkbridge verify` and prints a
PASS/FAIL line so `pytest -s tests/test_acceptance.py` reads as a report.
"""

from sinkbridge import riccati, verify


def _check(result):
    line = f"{'PASS' if result['passed'] else 'FAIL'}  criterion {result['id']:>2}  {result['name']}"
    print(line)
    assert result["passed"], result


def test_criterion_01_riccati_fixed_point():
    # map residual < 1e-10, quadratic identity to 1e-9, strict sandwich
    res = verify.criterion_riccati_fixed_point(seed=0, tol_map=1e-10, tol_identity=1e-9)
    _check(res)
    assert res["details"]["max_map_residual"] < 1e-10
    assert res["details"]["max_identity_residual"] < 1e-9


def test_criterion_01_catches_a_transposed_eigenbasis(monkeypatch):
    # a planted defect: the spectral layer rotates with Q' where it should
    # rotate with Q.  The dense map residual sees it.  Criterion 2 cannot:
    # every spectral quantity is then that of Q' diag(lam) Q, a consistent
    # flow whose iterates and fixed point agree with each other.
    spectrum = riccati._spectrum

    def transposed(varpi):
        w, q = spectrum(varpi)
        return riccati.Spectrum(w, q.T)

    monkeypatch.setattr(riccati, "_spectrum", transposed)
    res = verify.criterion_riccati_fixed_point(seed=0)
    assert not res["passed"]
    assert res["details"]["max_map_residual"] > 1e-10


def test_criterion_02_riccati_decay():
    # certified envelope for n <= 60; scalar closed form matches to 1e-12
    res = verify.criterion_riccati_decay(seed=0, n_max=60, tol_closed_form=1e-12)
    _check(res)
    assert res["details"]["max_closed_form_error"] < 1e-12


def test_criterion_03_psi_factorization():
    # factorization and fixed-point transport to 1e-9 on 50 cases, d <= 4
    res = verify.criterion_psi_factorization(seed=0, tol=1e-9, n_cases=50)
    _check(res)
    assert res["details"]["max_factorization_residual"] < 1e-9
    assert res["details"]["max_transport_residual"] < 1e-9


def test_criterion_04_bridge_vs_sinkhorn():
    # sigma -> 0.6180339887 within 1e-10 by n = 50; gap monotone and under
    # the (1 + 1/eps)^{-n} envelope on the standard and 10 random models
    res = verify.criterion_bridge_vs_sinkhorn(seed=0, tol_sigma=1e-10)
    _check(res)
    assert res["details"]["sigma_error_at_n50"] < 1e-10


def test_criterion_05_improved_rate():
    res = verify.criterion_improved_rate(seed=0)
    _check(res)


def test_criterion_06_entropic_map_identities():
    res = verify.criterion_entropic_map_identities(seed=0, tol=1e-10)
    _check(res)
    assert res["details"]["max_barycentric_residual"] < 1e-10
    assert res["details"]["max_sandwich_residual"] < 1e-10


def test_criterion_07_ot_limit():
    res = verify.criterion_ot_limit(seed=0, final_gap=5e-3)
    _check(res)
    assert res["details"]["gaps"][-1] < 5e-3


def test_criterion_08_proximal_sampler():
    res = verify.criterion_proximal_sampler(seed=0)
    _check(res)


def test_criterion_09_discrete_sinkhorn():
    res = verify.criterion_discrete_sinkhorn(seed=0, tol_plans=1e-12)
    _check(res)
    assert res["details"]["max_scaling_gap"] < 1e-12
    assert res["details"]["max_marginal_residual"] < 1e-12


def test_criterion_10_discretization_consistency():
    res = verify.criterion_discretization_consistency(seed=0, min_ratio=3.5)
    _check(res)
    assert res["details"]["ratio"] >= 3.5


def test_criterion_11_determinism():
    res = verify.criterion_determinism(seed=0)
    _check(res)
