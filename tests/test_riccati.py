import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import riccati_gaps_mp
from sinkbridge import bounds, cli, gaussian, riccati, spd
from sinkbridge.errors import DomainError, ShapeError
from sinkbridge.bounds import ZERO
from sinkbridge.riccati import INFINITE


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return spd.symmetrize(a @ a.T + scale * np.eye(d))


def iteration_oracle(varpi, r0, n=200):
    """Independent fixed-point oracle: iterate the raw formula directly."""
    varpi = np.atleast_2d(np.asarray(varpi, dtype=float))
    r = np.atleast_2d(np.asarray(r0, dtype=float))
    eye = np.eye(varpi.shape[0])
    for _ in range(n):
        r = np.linalg.inv(eye + np.linalg.inv(varpi + r))
    return r


GOLDEN = float(iteration_oracle([[1.0]], [[0.0]])[0, 0])  # 0.6180339887...


def test_ricc_map_scalar():
    assert np.allclose(riccati.ricc_map(np.array([[1.0]]), np.zeros((1, 1))), [[0.5]])


def test_ricc_map_fixed_value_from_iteration_oracle():
    assert abs(GOLDEN - 0.6180339887) < 1e-9
    out = riccati.ricc_map(np.array([[1.0]]), np.array([[GOLDEN]]))
    assert abs(out[0, 0] - GOLDEN) < 1e-12


def test_ricc_map_infinite_returns_identity():
    s = np.diag([0.3, 0.9])
    assert np.array_equal(riccati.ricc_map(INFINITE, s), np.eye(2))


def test_sentinels_keep_their_identity_and_names():
    assert (repr(INFINITE), repr(ZERO)) == ("INFINITE", "ZERO")
    assert riccati.Sentinel("INFINITE") is INFINITE and INFINITE is not ZERO
    for s in (INFINITE, ZERO):
        assert copy.deepcopy(s) is s and pickle.loads(pickle.dumps(s)) is s
    assert riccati.is_infinite(INFINITE) and not riccati.is_infinite(ZERO)
    assert bounds.is_zero(ZERO) and not bounds.is_zero(INFINITE)


def test_ricc_map_dim_mismatch():
    with pytest.raises(ShapeError):
        riccati.ricc_map(np.eye(2), np.zeros((3, 3)))


def test_fixed_point_golden_ratio():
    r = riccati.fixed_point(np.array([[1.0]]))
    assert abs(r[0, 0] - GOLDEN) < 1e-14
    assert abs(r[0, 0] - 0.6180339887) < 1e-9


def test_fixed_point_diagonal_entrywise():
    r = riccati.fixed_point(np.diag([1.0, 4.0]))
    r1 = iteration_oracle([[1.0]], [[0.0]])[0, 0]
    r4 = iteration_oracle([[4.0]], [[0.0]])[0, 0]
    assert np.allclose(np.diag(r), [r1, r4], atol=1e-13)
    assert abs(r[1, 1] - 0.8284271247) < 1e-9


def test_fixed_point_like_infinite():
    assert np.array_equal(riccati.fixed_point_like(INFINITE, 3), np.eye(3))


def test_fixed_point_identities_scalar():
    rep = riccati.fixed_point_identities(np.array([[1.0]]))
    # r + r^2 = 0.618034 + 0.381966 = 1
    assert rep["quadratic_identity_residual"] < 1e-12
    assert rep["ok"]


def test_fixed_point_identities_identity_d3():
    rep = riccati.fixed_point_identities(np.eye(3))
    assert rep["quadratic_identity_residual"] < 1e-10


def test_fixed_point_identities_decompose_only_varpi_twice(decompositions):
    """On a stack, varpi alone is decomposed twice: by its validation and again by ``sym_inv``.

    The second decomposition is kept on purpose.  With varpi^{-1} read off
    the validating spectrum, the quadratic identity and both sandwiches
    would share the eigenbasis r is rotated with, and a transposed
    eigenbasis would pass them (``test_criterion_01_catches_a_transposed_eigenbasis``).
    """
    rng = np.random.default_rng(4)
    stack = np.stack([random_spd(rng, 3) for _ in range(5)])
    decompositions.clear()
    assert np.all(riccati.fixed_point_identities(stack)["ok"])
    assert decompositions["repeated"] == 1


def test_fixed_point_identities_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        rep = riccati.fixed_point_identities(random_spd(rng, d, scale=rng.uniform(0.1, 2.0)))
        assert rep["ok"]
        assert rep["quadratic_identity_residual"] < 1e-9
        assert rep["inverse_identity_residual"] < 1e-9


def test_decay_params_scalar():
    delta, c = riccati.decay_params(np.array([[1.0]]))
    assert abs(delta - (1.0 + 1.0 + GOLDEN) ** -2) < 1e-14
    assert abs(delta - 0.1458980338) < 1e-9
    assert c > 0


def test_decay_envelope_rows():
    delta, c = riccati.decay_params(np.array([[2.0]]))
    gaps = np.array([3.0, 0.5, 0.1, 0.02])
    env = riccati.decay_envelope(gaps, delta, c)
    assert env[0] == gaps[0]
    assert all(env[n] == c * delta**n * gaps[0] for n in range(1, 4))


def test_decay_params_monotone_in_scale():
    d10, _ = riccati.decay_params(np.array([[10.0]]))
    d100, _ = riccati.decay_params(np.array([[100.0]]))
    assert d100 < d10 < 1.0


def test_decay_params_diag_uses_min_eigenvalue():
    delta, _ = riccati.decay_params(np.diag([1.0, 4.0]))
    delta_scalar, _ = riccati.decay_params(np.array([[1.0]]))
    assert abs(delta - delta_scalar) < 1e-14


def test_iterate_constant_at_fixed_point():
    varpi = np.array([[1.0]])
    r = riccati.fixed_point(varpi)
    traj = riccati.iterate(varpi, r, 5)
    assert len(traj) == 6
    for s in traj:
        assert abs(s[0, 0] - r[0, 0]) < 1e-14


def test_iterate_first_step_and_convergence():
    traj = riccati.iterate(np.array([[1.0]]), np.zeros((1, 1)), 50)
    assert abs(traj[1][0, 0] - 0.5) < 1e-15
    assert abs(traj[50][0, 0] - GOLDEN) < 1e-12


def test_iterate_is_a_stack_of_ricc_map_steps():
    rng = np.random.default_rng(31)
    varpi, r0 = random_spd(rng, 3), 0.5 * random_spd(rng, 3)
    traj = riccati.iterate(varpi, r0, 12)
    assert traj.shape == (13, 3, 3)
    r = spd.clamp_psd(r0)
    for j in range(13):
        assert np.allclose(traj[j], r, rtol=0.0, atol=1e-14)
        r = riccati.ricc_map(varpi, r)


def test_iterate_infinite_is_a_stack_of_identities():
    traj = riccati.iterate(INFINITE, np.diag([0.3, 0.9]), 4)
    assert traj.shape == (5, 2, 2)
    assert np.array_equal(traj[0], np.diag([0.3, 0.9]))
    assert all(np.array_equal(t, np.eye(2)) for t in traj[1:])


@pytest.mark.parametrize("d", [1, 8])
def test_ricc_map_decompositions(d, decompositions):
    """varpi is decomposed once per call, so no count grows with the number of steps."""
    rng = np.random.default_rng(d)
    varpi = random_spd(rng, d)
    riccati.ricc_map(varpi, random_spd(rng, d))
    assert decompositions["eigh"] + decompositions["eigvalsh"] <= 4
    assert decompositions["svd"] == 0

    def counted(call):
        """The decompositions and linear solves a call makes."""
        decompositions.clear()
        call()
        return dict(decompositions)

    assert counted(lambda: riccati.decay_params(varpi)) == {"eigh": 1}
    zero = np.zeros((d, d))
    assert counted(lambda: riccati.iterate(varpi, zero, 5)) == counted(lambda: riccati.iterate(varpi, zero, 60))
    assert decompositions["solve"] == 1  # the whole trajectory's
    mu = gaussian.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    eta = gaussian.GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
    k = gaussian.LinearGaussianKernel(np.zeros(d), np.eye(d), random_spd(rng, d))
    bridge = gaussian.bridge_solve(mu, eta, k)
    assert counted(lambda: gaussian.sinkhorn_run(bridge, 5)) == counted(lambda: gaussian.sinkhorn_run(bridge, 50))


def log_spectrum_varpi(d, cond, seed=0):
    """A seed-fixed varpi whose spectrum is log-spaced over [1, cond]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return spd.symmetrize((q * np.logspace(0.0, np.log10(cond), d)) @ q.T)


@pytest.mark.parametrize("d, cond", [(8, 1e1), (32, 1e3), (64, 1e6)])
def test_fixed_point_accurate_when_ill_conditioned(d, cond, tmp_path):
    varpi = log_spectrum_varpi(d, cond)
    r = riccati.fixed_point(varpi)
    # one step of the oracle's numpy-inv map
    assert np.linalg.norm(iteration_oracle(varpi, r, n=1) - r, 2) <= 1e-10

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": varpi.tolist()}}))
    out = tmp_path / "ricc"
    assert cli.main(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",1") for row in rows)
    assert json.loads(out.with_suffix(".json").read_text())["identities"]["ok"]


def test_riccati_command_decomposes_varpi_once(decompositions, monkeypatch, tmp_path):
    """Load and compute share one validated decomposition of varpi, and one clamp of r0.

    fixed_point_identities is left out: it is the independent check and
    starts again from the dense matrix.
    """
    varpi = log_spectrum_varpi(4, 1e2)
    r0 = np.diag([0.1, 0.2, 0.3, 0.4]) + 0.05
    eigh = np.linalg.eigh  # the fixture's counting wrapper
    of_varpi, of_r0 = [], []

    def recording(a, *args, **kwargs):
        of_varpi.append(np.array_equal(a, varpi))
        of_r0.append(np.array_equal(a, r0))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(riccati, "fixed_point_identities", lambda varpi: {"ok": True})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": varpi.tolist(), "r0": r0.tolist(), "n": 30}}))
    assert cli.main(["riccati", "--config", str(cfg), "--out", str(tmp_path / "ricc")]) == 0
    assert sum(of_varpi) == 1
    assert sum(of_r0) == 1
    assert decompositions["eigh"] == 2  # nothing else is decomposed
    assert decompositions["svd"] == decompositions["norm_svd"]  # spectral norms only


def test_monotone_in_state():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        varpi = random_spd(rng, d, scale=rng.uniform(0.2, 1.5))
        v1 = spd.clamp_psd(random_spd(rng, d, scale=0.0) * 0.5)
        v2 = v1 + spd.clamp_psd(random_spd(rng, d, scale=0.0) * 0.5)
        r1 = riccati.ricc_map(varpi, v1)
        r2 = riccati.ricc_map(varpi, v2)
        assert spd.loewner_leq(r1, r2, tol=1e-12)


def test_sandwich_chain():
    # Ricc^p(0) <= Ricc^n(0) <= Ricc^n(v) <= Ricc^{n-1}(I) <= I for n >= p >= 1
    rng = np.random.default_rng(17)
    for d in [1, 2, 4]:
        varpi = random_spd(rng, d, scale=0.5)
        v = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        from_zero = riccati.iterate(varpi, np.zeros((d, d)), 20)
        from_v = riccati.iterate(varpi, v, 20)
        from_eye = riccati.iterate(varpi, np.eye(d), 20)
        eye = np.eye(d)
        for n in range(1, 21):
            for p in range(1, n + 1):
                assert spd.loewner_leq(from_zero[p], from_zero[n], tol=1e-12)
            assert spd.loewner_leq(from_zero[n], from_v[n], tol=1e-12)
            assert spd.loewner_leq(from_v[n], from_eye[n - 1], tol=1e-12)
            assert spd.loewner_leq(from_eye[n - 1], eye, tol=1e-12)


def test_decay_envelope_holds():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        varpi = random_spd(rng, d, scale=rng.uniform(0.2, 2.0))
        r0 = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        r_star = riccati.fixed_point(varpi)
        delta, c = riccati.decay_params(varpi)
        traj = riccati.iterate(varpi, r0, 60)
        gap0 = np.linalg.norm(r0 - r_star, 2)
        for n in range(1, 61):
            gap = np.linalg.norm(traj[n] - r_star, 2)
            assert gap <= c * delta**n * gap0 + 1e-14


def test_empirical_ratio_approaches_delta_scalar():
    # Delta_n is read without subtraction, so the ratio is exact far below the round-off of r*
    varpi = np.array([[0.7]])
    delta, _ = riccati.decay_params(varpi)
    _, deltas = riccati._iterate_spectral(*riccati._spectrum(varpi), np.array([[0.0]]), 40)
    gaps = riccati.gap_norms(deltas)
    assert abs(gaps[40] / gaps[39] - delta) <= 1e-12 * delta


def oracle_error(varpi, r0, n=60):
    """The closed form's largest normwise relative error in Delta_0, ..., Delta_n against ``riccati_gaps_mp``.

    A gap whose true value is below 1e-290 is held to 1e-290 instead: it
    underflows into subnormal doubles, whose relative precision is less.
    """
    w, q = riccati._spectrum(varpi)
    _, deltas = riccati._iterate_spectral(w, q, spd.clamp_psd(r0), n)
    exact = riccati_gaps_mp(varpi, r0, n)
    err = spd.spectral_norm(q @ deltas @ q.swapaxes(-1, -2) - exact)
    return float(np.max(err / np.maximum(spd.spectral_norm(exact), 1e-290)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-150, 1e-6, 0.1, 1.0, 10.0, 1e6, 1e150])
def test_closed_form_gaps_match_the_high_precision_oracle(lam):
    varpi = np.array([[lam]])
    r_star = riccati.fixed_point(varpi)[0, 0]
    for r0 in (0.0, r_star * (1 - 1e-3), r_star * (1 + 1e-3), 2.0, 1e200, 1e308):
        assert oracle_error(varpi, np.array([[r0]])) <= 1e-10, r0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(4))
def test_closed_form_gaps_match_the_oracle_in_random_bases(seed):
    rng = np.random.default_rng(seed)
    varpi = log_spectrum_varpi(3, 1e3, seed=seed) * 10.0 ** rng.uniform(-2.0, 0.0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for scale in (0.0, 1.0, 1e200):
        r0 = spd.symmetrize((q * rng.uniform(0.0, 2.0, size=3)) @ q.T) * scale
        assert oracle_error(varpi, r0) <= 1e-10, scale


def test_psi_map_trivial():
    assert np.allclose(riccati.psi_map(np.eye(2), np.zeros((2, 2))), np.eye(2))


def test_psi_map_scalar_factorization():
    v = np.array([[0.7]])
    lhs = riccati.psi_map(np.array([[1.0]]), riccati.psi_map(np.array([[1.0]]), v))
    direct = 1.0 / (1.0 + 1.0 / (1.0 + 0.7))
    assert abs(lhs[0, 0] - direct) < 1e-14
    assert np.allclose(lhs, riccati.ricc_map(np.array([[1.0]]), v))


def test_psi_map_factorization_sweep():
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gamma = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        v = spd.clamp_psd(random_spd(rng, d, scale=0.0))
        composed = riccati.psi_map(gamma, riccati.psi_map(gamma.T, v))
        param = spd.sym_inv(spd.symmetrize(gamma @ gamma.T))
        assert np.linalg.norm(composed - riccati.ricc_map(param, v), 2) < 1e-10


def test_psi_fixed_point_transport():
    rng = np.random.default_rng(123)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gamma = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        left = riccati.psi_map(gamma.T, riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma @ gamma.T))))
        right = riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma.T @ gamma)))
        assert np.linalg.norm(left - right, 2) < 1e-9


def test_psi_map_singular_gamma():
    with pytest.raises(DomainError):
        riccati.psi_map(np.zeros((2, 2)), np.eye(2))


@st.composite
def riccati_stacks(draw):
    """Parameters varpi, starts r0 and congruences gamma: 1 to 4 slices of one d <= 8, each at its own scale in [1e-7, 1e6]."""
    d = draw(st.integers(1, 8))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-7.0, 6.0), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    varpi = np.stack([s * random_spd(rng, d) for s in scales])
    r0 = np.stack([s * random_spd(rng, d, scale=0.0) for s in scales])
    gamma = []
    for s in scales:
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gamma.append(s * (q1 * rng.uniform(0.5, 2.0, size=d)) @ q2.T)
    return varpi, r0, np.stack(gamma)


@given(riccati_stacks())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_stacked_riccati_matches_single_calls_bitwise(case):
    """A check or a step on the stack's scale, not each slice's own, would move the small slices."""
    varpi, r0, gamma = case
    spectrum = riccati._spectrum(varpi)
    singles = [riccati._spectrum(x) for x in varpi]
    assert np.array_equal(spectrum.lam, [s.lam for s in singles])
    assert np.array_equal(spectrum.q, [s.q for s in singles])

    def agree(stacked, fn, *stacks, axis=0):
        assert np.array_equal(stacked, np.stack([fn(*one) for one in zip(*stacks)], axis=axis))

    agree(riccati.fixed_point(varpi), riccati.fixed_point, varpi)
    agree(riccati.fixed_point(spectrum), riccati.fixed_point, singles)
    agree(riccati.ricc_map(varpi, r0), riccati.ricc_map, varpi, r0)
    agree(riccati.iterate(varpi, r0, 4), lambda v, r: riccati.iterate(v, r, 4), varpi, r0, axis=1)
    agree(riccati.psi_map(gamma, r0), riccati.psi_map, gamma, r0)
    report = riccati.fixed_point_identities(varpi)
    single_reports = [riccati.fixed_point_identities(x) for x in varpi]
    for key, values in report.items():
        assert np.array_equal(values, [rep[key] for rep in single_reports]), key
        assert {type(rep[key]) for rep in single_reports} == {bool if values.dtype == bool else float}


STACK = np.stack([k * np.eye(3) for k in (1.0, 2.0, 3.0, 4.0)])


def _with_slice_2(bad):
    out = STACK.copy()
    out[2] = bad
    return out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: riccati.fixed_point(_with_slice_2(np.diag([1.0, 0.5, -1e-5]))), "matrix 2 of the stack is not SPD"),
        (lambda: riccati.fixed_point_identities(_with_slice_2(np.diag([1.0, 0.5, 1e-13]))), "matrix 2 of the stack is not SPD"),
        (lambda: riccati.ricc_map(_with_slice_2(np.diag([1.0, np.nan, 1.0])), STACK), "matrix 2 of the stack is not SPD"),
        (lambda: riccati.iterate(STACK, _with_slice_2(np.diag([1.0, 0.5, -1e-5])), 3), "matrix 2 of the stack is not PSD"),
        (lambda: riccati.psi_map(_with_slice_2(np.diag([1.0, 1.0, 0.0])), STACK), "gamma 2 of the stack is singular"),
        (lambda: riccati.psi_map(_with_slice_2(np.diag([1.0, np.nan, 1.0])), STACK), "gamma 2 of the stack has a non-finite"),
        (lambda: riccati.psi_map(np.array([[np.inf]]), np.eye(1)), r"^gamma has a non-finite entry"),
    ],
    ids=["fixed_point", "fixed_point_identities", "ricc_map-nan", "iterate-r0", "psi_map-gamma", "psi_map-gamma-nan",
         "psi_map-one-gamma-inf"],
)
def test_stacked_riccati_names_the_failing_slice(call, message):
    with pytest.raises(DomainError, match=message):
        call()
