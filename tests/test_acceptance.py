"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Each test drives the same checks as `sinkbridge verify` and prints a
PASS/FAIL line so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import collections
import inspect

import numpy as np
import pytest

from sinkbridge import bounds, discrete, models, riccati, spd, verify
from sinkbridge import gaussian as g
from sinkbridge.bounds import CurvatureSpec


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


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_04_catches_a_pair_envelope_one_step_ahead(seed, monkeypatch):
    # a planted defect: the pair envelope (1 + 1/eps)^-(n//2 + 1) gaps[0] from row 1 on,
    # one step ahead of the claim.  The worst gap / envelope reads 1.43 at seed 0
    # and 1.003 at seed 1 (0.74 at seed 2, where it passes)
    envelopes = bounds.entropy_envelopes

    def ahead(eps, gaps):
        _, improved = envelopes(eps, gaps)
        pair = [(1.0 + 1.0 / eps) ** -(n // 2 + 1) * gaps[0] if n else gaps[0] for n in range(len(gaps))]
        return np.array(pair), improved

    monkeypatch.setattr(bounds, "entropy_envelopes", ahead)
    res = verify.criterion_bridge_vs_sinkhorn(seed=seed)
    assert not res["passed"]
    assert not res["details"]["random_models_ok"]


def test_criterion_05_improved_rate():
    res = _criterion("improved-phi-rate")
    _check(res)


def test_criterion_06_entropic_map_identities():
    res = _criterion("entropic-map-identities")
    _check(res)
    assert res["details"]["max_barycentric_residual"] < 1e-10
    assert res["details"]["max_sandwich_residual"] < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_06_catches_an_untransposed_gradient(seed, monkeypatch):
    # a planted defect: the gradient of x -> intercept + slope x returned as the
    # slope, not its transpose; on a non-symmetric chi the residuals read
    # 1.05-1.23, against ~2e-15 when correct
    monkeypatch.setattr(g, "entropic_map_gradient", lambda bridge: bridge.slope.copy())
    res = verify.criterion_entropic_map_identities(seed=seed)
    assert not res["passed"]
    assert res["details"]["max_barycentric_residual"] > 1e-10


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
    # every chain strictly positive and decreasing with no slack (the largest ratio reads ~0.055)
    assert res["details"]["entropy_chains_ok"]
    assert res["details"]["min_chain_entry"] > 0.0
    assert res["details"]["max_chain_ratio"] < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_09_catches_a_late_perturbed_potential(monkeypatch, seed):
    # a planted defect: V of half-step 27, late in every desk model's run, off
    # by 1e-11 at node 32.  The cross-chain inequalities see it; with the old
    # 1e-12 chain slack and first-order entropies the criterion passed it.
    step = discrete.sinkhorn_step

    def perturbed(state):
        out = step(state)
        if out.n == 27:
            v = out.v.copy()
            v[32] += 1e-11
            out = discrete.SinkhornState(out.model, out.n, out.u, v)
        return out

    monkeypatch.setattr(discrete, "sinkhorn_step", perturbed)
    res = verify.criterion_discrete_sinkhorn(seed=seed)
    assert not res["passed"]
    assert not res["details"]["entropy_chains_ok"]


def test_criterion_09_steps_on_a_run_that_holds_fewer_states(monkeypatch):
    # a run cut to two sweeps holds four states; the criterion steps on to the eleven it
    # compares with matrix scaling, which are the same states, so those details do not move
    full = verify.criterion_discrete_sinkhorn(seed=0)["details"]
    run = discrete.run
    # only the criterion's own run is cut: bridge_oracle resumes it from a start state
    monkeypatch.setattr(discrete, "run", lambda model, n_sweeps, tol, start=None: run(
        model, n_sweeps if start else 1, tol, start))
    short = verify.criterion_discrete_sinkhorn(seed=0)["details"]
    assert (short["max_scaling_gap"], short["max_marginal_residual"]) == (full["max_scaling_gap"],
                                                                          full["max_marginal_residual"])


def test_criterion_10_discretization_consistency():
    # every compared error above round-off, each grid pair at the midpoint-rule rate to 5%
    res = _criterion("discretization-consistency")
    _check(res)
    assert res["details"]["min_error"] > 1e-10
    assert res["details"]["max_rate_deviation"] <= 0.05


def test_criterion_10_catches_a_mistabulated_channel(monkeypatch):
    # a planted defect: the grid channel's noise is t (1 + 1e-4), not t.  The
    # N = 64 error then reads ~4.6e-6, about ten times its model value.
    channel = models.linear_gaussian_channel_potential
    monkeypatch.setattr(
        models, "linear_gaussian_channel_potential", lambda alpha, beta, tau: channel(alpha, beta, np.multiply(tau, 1 + 1e-4))
    )
    res = verify.criterion_discretization_consistency(seed=0)
    assert not res["passed"]
    assert res["details"]["max_rate_deviation"] > 0.05


def test_criterion_10_catches_an_off_by_one_index(monkeypatch):
    # a planted defect: grid state n is compared with the Gaussian tau_{n+1}
    run = g.sinkhorn_run
    monkeypatch.setattr(g, "sinkhorn_run", lambda bridge, n_max: run(bridge, n_max + 1)[1 : 2 * n_max + 3])
    res = verify.criterion_discretization_consistency(seed=0)
    assert not res["passed"]
    assert res["details"]["max_rate_deviation"] > 0.05


def test_criterion_10_runs_no_oracle(monkeypatch):
    # three grids stepped through half-steps 0..11, each compared with the closed form; a cold
    # bridge_oracle run, as the criterion once made, costs ~600 half-steps per grid
    calls = collections.Counter()
    for name in ("bridge_oracle", "sinkhorn_step"):
        fn = getattr(discrete, name)
        monkeypatch.setattr(discrete, name, lambda *a, _fn=fn, _name=name, **kw: calls.update([_name]) or _fn(*a, **kw))
    assert verify.criterion_discretization_consistency(seed=0)["passed"]
    assert calls == {"sinkhorn_step": 3 * 11}


def test_criterion_02_makes_one_solve_per_step_and_dimension(decompositions):
    # one closed-form solve for each dimension's stack and one for the five scalar
    # flows' (5, 1, 1) stack; their dense reference steps a 1 x 1 solve, which is a
    # division.  One solve per matrix and step would be 24 * 60 + 5 * 100 = 1940
    for seed in (0, 1):
        dims = {varpi.shape[0] for varpi in verify._spd_family(seed)}
        decompositions.clear()
        verify.criterion_riccati_decay(seed=seed)
        assert decompositions["solve"] == len(dims) + 1


def test_criterion_02_reads_no_zero_gap(monkeypatch):
    # the smallest true gap of the family at n <= 60 is ~5e-130, and Delta_n resolves it
    seen = []
    holds = verify.dominated
    monkeypatch.setattr(verify, "dominated", lambda gaps, env: seen.append(gaps) or holds(gaps, env))
    assert verify.criterion_riccati_decay(seed=0)["passed"]
    assert len(seen) == 24 and all(np.all(gaps > 0.0) for gaps in seen)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_02_catches_a_rate_one_percent_too_fast(seed, monkeypatch):
    # with no slack on the gate, a delta shrunk by 1% fails rows the true delta passes
    decay_params = riccati.decay_params
    monkeypatch.setattr(riccati, "decay_params", lambda varpi: (0.99 * decay_params(varpi)[0], decay_params(varpi)[1]))
    assert not verify.criterion_riccati_decay(seed=seed)["passed"]


def test_criteria_04_05_read_no_zero_gap(monkeypatch):
    # criteria 4 and 5 at seeds 0-2: eleven gap sequences each, one per column of a
    # stacked result, all of them positive and decreasing
    seen = []
    bridge_gaps = g.bridge_gaps
    monkeypatch.setattr(g, "bridge_gaps", lambda bridge, states: seen.append(bridge_gaps(bridge, states)) or seen[-1])
    for seed in (0, 1, 2):
        assert verify.criterion_bridge_vs_sinkhorn(seed=seed)["passed"]
        assert verify.criterion_improved_rate(seed=seed)["passed"]
    sequences = [column for gaps in seen for column in gaps.reshape(len(gaps), -1).T]
    assert len(sequences) == 3 * 22
    assert all(np.all(gaps > 0.0) and np.all(np.diff(gaps) < 0.0) for gaps in sequences)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criteria_04_05_gate_every_model_of_a_stack(seed, monkeypatch):
    # a planted defect confined to one model: the last of the largest dimension
    # stack stalls after its first Sinkhorn pair, so its gaps from n = 2 on
    # read gap 0.  Each gate must see that column, not only the stack as a whole
    stacks = verify._gaussian_models(seed + 3)  # the random models of criteria 4 and 5
    dim = max(stacks, key=lambda stack: len(stack[0].mean))[0].dim
    bridge_gaps = g.bridge_gaps

    def stalled(bridge, states):
        gaps = bridge_gaps(bridge, states)
        if bridge.mu.mean.ndim == 2 and bridge.mu.dim == dim:
            gaps[2:, -1] = gaps[0, -1]
        return gaps

    monkeypatch.setattr(g, "bridge_gaps", stalled)
    res = verify.criterion_bridge_vs_sinkhorn(seed=seed)
    assert not res["passed"] and not res["details"]["random_models_ok"]
    res = verify.criterion_improved_rate(seed=seed)
    assert not res["passed"] and not res["details"]["phi_envelope_dominates"]


def _tiled(stacks):
    """Each stacked model (mu, eta, k) with its models three times over."""

    def tile(a):
        return np.concatenate([a] * 3)

    return [(g.GaussianMeasure(tile(mu.mean), tile(mu.cov)), g.GaussianMeasure(tile(eta.mean), tile(eta.cov)),
             g.LinearGaussianKernel(tile(k.alpha), tile(k.beta), tile(k.tau))) for mu, eta, k in stacks]


@pytest.mark.parametrize("criterion, offset", [
    (verify.criterion_bridge_vs_sinkhorn, 3), (verify.criterion_improved_rate, 3),
    (verify.criterion_entropic_map_identities, 4),
], ids=["4", "5", "6"])
def test_criteria_4_to_6_decompose_once_per_dimension(criterion, offset, decompositions, monkeypatch):
    """Three times the models of each dimension, as many decompositions and solves: one batched call per stack."""
    stacks = verify._gaussian_models(offset)  # the models the criterion draws at seed 0

    def counted(models):
        monkeypatch.setattr(verify, "_gaussian_models", lambda seed: models)
        decompositions.clear()
        assert criterion(seed=0)["passed"]
        return dict(decompositions)

    once = counted(stacks)
    assert counted(_tiled(stacks)) == once
    assert once["eigh"] > 0 and once["svd"] > 0


@pytest.mark.parametrize("n_models", [10, 30])
@pytest.mark.parametrize("criterion", [
    verify.criterion_bridge_vs_sinkhorn, verify.criterion_improved_rate, verify.criterion_entropic_map_identities,
    verify.criterion_ot_limit, verify.criterion_proximal_sampler,
], ids=["4", "5", "6", "7", "8"])
def test_criteria_4_to_8_decompose_no_validated_input_again(criterion, n_models, monkeypatch):
    """No eigh of a covariance, noise or curvature factor a constructor has validated and holds.

    Every SPD decomposition goes through spd._spd_eigh or spd.clamp_psd;
    each call's input is compared by identity with the arrays that
    GaussianMeasure, LinearGaussianKernel and CurvatureSpec hold.
    """
    held = []

    def holding(cls, names):
        post_init = cls.__post_init__

        def recorded(self, *args):
            post_init(self, *args)
            held.extend(x for x in (getattr(self, name) for name in names) if isinstance(x, np.ndarray))

        monkeypatch.setattr(cls, "__post_init__", recorded)

    holding(g.GaussianMeasure, ("cov",))
    holding(g.LinearGaussianKernel, ("tau",))
    holding(CurvatureSpec, ("u_plus", "v_plus", "u_minus", "v_minus"))
    again = collections.Counter()
    for name in ("_spd_eigh", "clamp_psd"):
        fn = getattr(spd, name)
        monkeypatch.setattr(spd, name, lambda a, _fn=fn: again.update([any(a is x for x in held)]) or _fn(a))
    draw = verify._gaussian_models
    monkeypatch.setattr(verify, "_gaussian_models", lambda seed: draw(seed, count=n_models))
    assert criterion(seed=0)["passed"]
    assert again[False] > 0 and again[True] == 0


@pytest.mark.parametrize("n_models", [10, 30])
def test_gaussian_models_validate_once_per_dimension(n_models, decompositions):
    # per dimension stack: one eigh each for mu's, eta's and tau's covariances and one SVD for cond(beta)
    # and one QR for the three eigenbases
    decompositions.clear()
    groups = len(verify._gaussian_models(3, count=n_models))
    assert decompositions == {"eigh": 3 * groups, "svd": groups, "norm_svd": groups, "qr": groups}


@pytest.mark.parametrize("n_models", [10, 30])
def test_criterion_06_takes_nine_svds_per_dimension(n_models, decompositions, monkeypatch):
    # per dimension stack: cond(beta) as the kernel stack is built, the bridge's
    # SVD, one for varpi_family's two curvature pairs, which the Gaussian
    # equality case makes the same (u, v), and six spectral norms (two
    # barycentric residuals and four sandwich ones); cond and the norms take
    # theirs inside numpy's linalg module
    draw = verify._gaussian_models
    monkeypatch.setattr(verify, "_gaussian_models", lambda seed: draw(seed, count=n_models))
    groups = len(draw(4, count=n_models))  # criterion 6 draws from seed + 4
    decompositions.clear()
    assert verify.criterion_entropic_map_identities(seed=0)["passed"]
    assert decompositions["svd"] == 9 * groups
    assert decompositions["norm_svd"] == 7 * groups


@pytest.mark.parametrize("seed", [0, 1])
def test_spd_family_and_psi_cases_take_one_qr_per_dimension(seed, decompositions):
    # criteria 1 and 2's 20 random matrices and criterion 3's 100 bases: one batched QR per dimension
    decompositions.clear()
    family = verify._spd_family(seed)
    assert decompositions["qr"] == len({varpi.shape[-1] for varpi in family[4:]}) < 20
    decompositions.clear()
    gammas, _ = verify._psi_cases(seed)
    assert decompositions["qr"] == len({gamma.shape[-1] for gamma in gammas}) < 100


def test_criterion_08_decomposes_alike_for_any_number_of_steps(decompositions):
    # the chain's gain, backward covariance and stacked marginals, and one W2 and
    # one KL call for all the rows: as many decompositions at 40 steps as at 20.
    # W2's roots and KL's inverse come from the measures' held spectra
    mu, nu = g.GaussianMeasure([0.0], [[1.0]]), g.GaussianMeasure([3.0], [[2.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])

    def counted(steps):
        decompositions.clear()
        assert len(bounds.proximal_trace(nu, mu, k, 1.0, 0.5, steps)) == steps + 1
        return dict(decompositions)

    twenty = counted(20)
    assert counted(40) == twenty
    assert twenty == {"eigh": 3, "svd": 1, "slogdet": 2}


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
