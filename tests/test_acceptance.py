"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Each test drives the same checks as `sinkbridge verify` and prints a
PASS/FAIL line so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import inspect

import numpy as np
import pytest

from sinkbridge import riccati, verify


def _criterion(name):
    """One criterion at seed 0 as ``verify`` runs it, with the id and name ``run_criteria`` gives it."""
    (result,) = verify.run_criteria(seed=0, name_filter=name)
    return result


def _check(result):
    line = f"{'PASS' if result['passed'] else 'FAIL'}  criterion {result['id']:>2}  {result['name']}"
    print(line)
    assert result["passed"], result


def test_criterion_01_riccati_fixed_point():
    # map residual < 1e-10, quadratic identity to 1e-9, strict sandwich
    res = _criterion("riccati-fixed-point")
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
        return riccati.Spectrum(w, q.swapaxes(-1, -2))  # each slice's Q'; the criterion passes stacks

    monkeypatch.setattr(riccati, "_spectrum", transposed)
    res = verify.criterion_riccati_fixed_point(seed=0)
    assert not res["passed"]
    assert res["details"]["max_map_residual"] > 1e-10


def test_criterion_02_riccati_decay():
    # certified envelope for n <= 60; the closed form matches the dense steps to 1e-12
    res = _criterion("riccati-decay")
    _check(res)
    assert res["details"]["max_closed_form_error"] < 1e-12


def test_criterion_03_psi_factorization():
    # factorization and fixed-point transport to 1e-9 on 50 cases, d <= 4
    res = _criterion("psi-factorization")
    _check(res)
    assert res["details"]["max_factorization_residual"] < 1e-9
    assert res["details"]["max_transport_residual"] < 1e-9


def test_criterion_04_bridge_vs_sinkhorn():
    # sigma -> 0.6180339887 within 1e-10 by n = 50; gap monotone and under
    # the (1 + 1/eps)^{-floor(n/2)} envelope on the standard and 10 random models
    res = _criterion("gaussian-bridge-vs-sinkhorn")
    _check(res)
    assert res["details"]["sigma_error_at_n50"] < 1e-10


def test_criterion_05_improved_rate():
    res = _criterion("improved-phi-rate")
    _check(res)


def test_criterion_06_entropic_map_identities():
    res = _criterion("entropic-map-identities")
    _check(res)
    assert res["details"]["max_barycentric_residual"] < 1e-10
    assert res["details"]["max_sandwich_residual"] < 1e-10


def test_criterion_07_ot_limit():
    res = _criterion("ot-limit")
    _check(res)
    assert res["details"]["gaps"][-1] < 5e-3


def test_criterion_08_proximal_sampler():
    res = _criterion("proximal-sampler")
    _check(res)


def test_criterion_09_discrete_sinkhorn():
    res = _criterion("discrete-sinkhorn-correctness")
    _check(res)
    assert res["details"]["max_scaling_gap"] < 1e-12
    assert res["details"]["max_marginal_residual"] < 1e-12
    assert res["details"]["max_bridge_gap_diff"] < 1e-12


def test_criterion_10_discretization_consistency():
    res = _criterion("discretization-consistency")
    _check(res)
    assert res["details"]["ratio"] >= 3.5


def test_criterion_02_makes_one_solve_per_step_and_dimension(decompositions):
    # one closed-form solve for each dimension's stack and one for the five scalar
    # flows' (5, 1, 1) stack, then the 100 steps of their dense reference; one
    # solve per matrix and step would be 24 * 60 + 5 * 100 = 1940
    for seed in (0, 1):
        dims = {varpi.shape[0] for varpi in verify._spd_family(seed)}
        decompositions.clear()
        verify.criterion_riccati_decay(seed=seed)
        assert decompositions["solve"] == len(dims) + 1 + 100


def test_criterion_02_reads_no_zero_gap(monkeypatch):
    # the smallest true gap of the family at n <= 60 is ~5e-130, and Delta_n resolves it
    seen = []
    holds = verify.decay_holds
    monkeypatch.setattr(verify, "decay_holds", lambda gaps, env: seen.append(gaps) or holds(gaps, env))
    assert verify.criterion_riccati_decay(seed=0)["passed"]
    assert len(seen) == 24 and all(np.all(gaps > 0.0) for gaps in seen)


def _thrice(family):
    return 3 * family


def _thrice_each(lists):
    return tuple(3 * x for x in lists)


@pytest.mark.parametrize(
    "criterion, cases, triple",
    [
        (verify.criterion_riccati_fixed_point, "_spd_family", _thrice),
        (verify.criterion_riccati_decay, "_spd_family", _thrice),
        (verify.criterion_psi_factorization, "_psi_cases", _thrice_each),
    ],
    ids=["1", "2", "3"],
)
def test_criteria_1_to_3_decompose_once_per_dimension(criterion, cases, triple, decompositions, monkeypatch):
    """Three times the cases of each dimension, as many decompositions and solves: one batched call per stack."""
    draw = getattr(verify, cases)

    def counted():
        decompositions.clear()
        assert criterion(seed=0)["passed"]
        return dict(decompositions)

    once = counted()
    monkeypatch.setattr(verify, cases, lambda seed: triple(draw(seed)))
    assert counted() == once
    assert once["eigh"] > 0


def test_criteria_take_only_a_seed():
    # every tolerance is a constant inside its criterion, so no caller can loosen one
    for name, fn in verify.CRITERIA:
        assert str(inspect.signature(fn)) == "(seed=0)", name


def test_criterion_11_determinism():
    res = verify.criterion_determinism(seed=0)
    _check(res)
