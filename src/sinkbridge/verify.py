"""Acceptance checks: one function per criterion, shared by CLI and tests.

Every check pins its tolerance here, computes its own reference values
(iteration oracles, closed forms, exact Gaussian divergences) and returns a
dict {passed, details}; ``run_criteria`` adds its id and name from its
place in ``CRITERIA``.  All randomness is seed-fixed; results are
deterministic for a given seed.  Criteria 1-6 draw all their cases first
and then run the cases of each dimension as one stack: one call of each
decomposition, and one Gaussian mean recursion, per dimension, whatever
the number of cases.  Only the Python-scalar envelopes of
``bounds.entropy_envelopes`` are evaluated model by model.  The commands'
``satisfied`` and ``entropy_monotone`` outputs call the gates below, so a
claim and its criterion share one gate.
"""

import json

import numpy as np

from . import bounds, discrete, models, riccati, spd
from . import gaussian as g
from .bounds import CurvatureSpec

CHAINS = ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu")
DETERMINISM = "determinism"  # criterion 11, which runs the others


def dominated(obs, env):
    """The envelope gate of the Riccati decay and the Gaussian entropy claims: obs[n] <= env[n], with no slack.

    The gaps compared keep their relative accuracy, so an exact comparison is the claim itself.
    """
    return obs <= env


def _nonincreasing(seq) -> bool:
    """Each entry at most the one before, compared exactly; each column of a stacked sequence (n, ...) alike."""
    return bool(np.all(np.diff(seq, axis=0) <= 0.0))


def chains_monotone(rep: dict) -> bool:
    """The entropy-chain gate: every marginal chain of a ``discrete.entropy_report`` is nonincreasing.

    The bridge gaps are tail sums of nonnegative terms, which cannot rise.
    """
    return all(_nonincreasing(rep[key]) for key in CHAINS)


def _spd_family(seed):
    """Scalars 0.1, 1, 10, a diagonal, and 20 seed-fixed random SPD, d <= 8.

    The draws are made matrix by matrix in one generator's order; each
    dimension's eigenbases come from one batched QR.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(20):
        d = int(rng.integers(1, 9))
        draws.append((rng.standard_normal((d, d)), rng.uniform(0.2, 4.0, size=d)))
    fixed = [np.array([[0.1]]), np.array([[1.0]]), np.array([[10.0]]), np.diag([1.0, 4.0])]
    return fixed + _per_dimension(draws, lambda z, w: g._congruent(np.linalg.qr(z)[0], w))


def _dim_groups(mats):
    """The indices of ``mats`` grouped by dimension, groups and members in draw order."""
    groups = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape[-1], []).append(i)
    return list(groups.values())


def _stack(mats, idx):
    return np.stack([mats[i] for i in idx])


def _per_dimension(draws, fn) -> list:
    """``fn`` of each dimension group of ``draws``, tuples whose first part fixes d, stacked part by part.

    ``fn`` returns one result per member of the group; they come back as
    one list in draw order.
    """
    out = [None] * len(draws)
    for idx in _dim_groups([draw[0] for draw in draws]):
        for i, x in zip(idx, fn(*(np.stack(part) for part in zip(*(draws[i] for i in idx))))):
            out[i] = x
    return out


def _gaussian_models(seed, count=10, dmax=4):
    """``count`` seed-fixed random models (mu, eta, k), d <= dmax, as one stacked model per dimension.

    The draws are made model by model in one generator's order; the groups
    and the models in each keep that order.  Each group's three eigenbases
    come from one batched QR, and each stacked constructor validates once.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        d = int(rng.integers(1, dmax + 1))
        # in draw order: u's and v's bases and spectra, the two means, beta, tau's basis and spectrum, alpha
        draws.append((rng.standard_normal((d, d)), rng.standard_normal((d, d)), rng.uniform(0.5, 2.0, d),
                      rng.uniform(0.5, 2.0, d), rng.standard_normal(d), rng.standard_normal(d),
                      0.3 * rng.standard_normal((d, d)) + np.eye(d), rng.standard_normal((d, d)),
                      rng.uniform(0.5, 2.0, d), rng.standard_normal(d)))
    out = []
    for idx in _dim_groups([draw[0] for draw in draws]):
        z1, z2, w1, w2, m, mbar, beta, z3, w3, alpha = (np.stack(part) for part in zip(*(draws[i] for i in idx)))
        u, v, tau = g._congruent(np.linalg.qr(np.stack([z1, z2, z3]))[0], np.stack([w1, w2, w3]))
        out.append((g.GaussianMeasure(m, u), g.GaussianMeasure(mbar, v), g.LinearGaussianKernel(alpha, beta, tau)))
    return out


def _std_model():
    mu = g.GaussianMeasure([0.0], [[1.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    return mu, eta, k


def criterion_riccati_fixed_point(seed=0):
    worst_map = 0.0
    worst_quad = 0.0
    sandwich_ok = True
    family = _spd_family(seed)
    for idx in _dim_groups(family):
        rep = riccati.fixed_point_identities(_stack(family, idx))
        worst_map = max(worst_map, float(rep["fixed_point_residual"].max()))
        worst_quad = max(worst_quad, float(rep["quadratic_identity_residual"].max()))
        sandwich_ok = sandwich_ok and bool(np.all(rep["sandwich_strict"] & rep["inverse_sandwich_strict"]))
    passed = worst_map < 1e-10 and worst_quad < 1e-9 and sandwich_ok
    return {
        "passed": bool(passed),
        "details": {"max_map_residual": worst_map, "max_identity_residual": worst_quad, "sandwich_strict": sandwich_ok},
    }


def criterion_riccati_decay(seed=0):
    n_max = 60
    rng = np.random.default_rng(seed + 1)
    envelope_ok = True
    worst_ratio = 0.0  # the largest gap / envelope over rows n >= 1 with a positive envelope
    family = _spd_family(seed)
    starts = [np.diag(rng.uniform(0.0, 2.0, size=varpi.shape[0])) for varpi in family]
    for idx in _dim_groups(family):
        spectrum = riccati._spectrum(_stack(family, idx))
        r0 = spd.clamp_psd(_stack(starts, idx))
        # gaps[n, j]: slice j's distance to its fixed point after n steps, read off Delta_n
        gaps = riccati.gap_norms(riccati._delta_flow(*spectrum, r0, n_max)[0])
        for j, one in enumerate(zip(*spectrum)):
            env = riccati.decay_envelope(gaps[:, j], *riccati.decay_params(riccati.Spectrum(*one)))
            on = env[1:] > 0.0
            worst_ratio = max(worst_ratio, float((gaps[1:, j][on] / env[1:][on]).max(initial=0.0)))
            envelope_ok = envelope_ok and bool(np.all(dominated(gaps[:, j], env)))

    # the closed form against the map stepped on the dense varpi, s <- (varpi + s + I)^{-1} (varpi + s),
    # for five scalar flows as one (5, 1, 1) stack; a 1 x 1 solve is the division
    varpi, s = np.array([(0.1, 0.0), (1.0, 0.0), (1.0, 2.0), (10.0, 0.3), (2.0, 5.0)]).T.reshape(2, -1, 1, 1)
    steps = [s]
    for _ in range(100):
        x = varpi + steps[-1]
        steps.append(x / (x + 1.0))
    err = np.abs(riccati.iterate(varpi, s, 100) - np.array(steps))
    worst_cf = float(err.max())
    closed_ok = bool(np.all(err < 1e-12))
    return {
        "passed": bool(envelope_ok and closed_ok),
        "details": {"worst_envelope_ratio": worst_ratio, "max_closed_form_error": worst_cf},
    }


def _psi_cases(seed):
    """50 seed-fixed congruences gamma of cond <= 4 and diagonal PSD starts v, d <= 4.

    The draws are made case by case in one generator's order; each
    dimension's two eigenbases per case come from one batched QR.
    """
    rng = np.random.default_rng(seed + 2)
    draws = []
    for _ in range(50):
        d = int(rng.integers(1, 5))
        # in draw order: the two bases, the spectrum, the start
        draws.append((rng.standard_normal((d, d)), rng.standard_normal((d, d)), rng.uniform(0.5, 2.0, size=d),
                      np.diag(rng.uniform(0.0, 2.0, size=d))))

    def congruences(z1, z2, w):
        q1, q2 = np.linalg.qr(np.stack([z1, z2]))[0]
        return (q1 * w[..., None, :]) @ q2.swapaxes(-1, -2)

    return _per_dimension([draw[:3] for draw in draws], congruences), [draw[3] for draw in draws]


def criterion_psi_factorization(seed=0):
    worst_fact = 0.0
    worst_transport = 0.0
    gammas, starts = _psi_cases(seed)
    for idx in _dim_groups(gammas):
        gamma = _stack(gammas, idx)
        gamma_t = gamma.swapaxes(-1, -2)
        v = spd.clamp_psd(_stack(starts, idx))
        lhs = riccati.psi_map(gamma, riccati.psi_map(gamma_t, v))
        param = spd.sym_inv(spd.symmetrize(gamma @ gamma_t))
        worst_fact = max(worst_fact, float(spd.spectral_norm(lhs - riccati.ricc_map(param, v)).max()))
        left = riccati.psi_map(gamma_t, riccati.fixed_point(param))
        right = riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma_t @ gamma)))
        worst_transport = max(worst_transport, float(spd.spectral_norm(left - right).max()))
    passed = worst_fact < 1e-9 and worst_transport < 1e-9
    return {
        "passed": bool(passed),
        "details": {"max_factorization_residual": worst_fact, "max_transport_residual": worst_transport},
    }


def _bridge_gaps(mu, eta, k, n_pairs):
    bridge = g.bridge_solve(mu, eta, k)
    return g.bridge_gaps(bridge, g.sinkhorn_run(bridge, n_pairs))


def _envelopes(mu, eta, k, gaps):
    """The pair and improved envelopes of the Gaussian-equality eps on each model's gap sequence.

    ``gaps`` is (n, ...) for a stack of models (mu, eta, k), one column per
    model; each column's envelopes are ``bounds.entropy_envelopes``' Python-scalar ones.
    """
    eps = np.asarray(bounds.eps_lg(k, CurvatureSpec.gaussian(mu, eta)))
    pair, improved = np.empty_like(gaps), np.empty_like(gaps)
    for j in np.ndindex(eps.shape):
        column = (slice(None), *j)
        pair[column], improved[column] = bounds.entropy_envelopes(float(eps[j]), gaps[column])
    return pair, improved


def criterion_bridge_vs_sinkhorn(seed=0):
    bridge = g.bridge_solve(*_std_model())
    states = g.sinkhorn_run(bridge, 25)
    golden = riccati.fixed_point(np.array([[1.0]]))[0, 0]
    sigma_err = max(
        abs(s.tau_n[0, 0] - golden) for s in states if s.n in (50, 51)
    )
    gaps = g.bridge_gaps(bridge, states)
    monotone = _nonincreasing(gaps)
    envelope = all(gaps[2 * n] <= 0.5**n * gaps[0] for n in range(1, 26))

    rate_ok = True
    for mu_r, eta_r, k_r in _gaussian_models(seed + 3):
        gaps_r = _bridge_gaps(mu_r, eta_r, k_r, 15)
        pair, _ = _envelopes(mu_r, eta_r, k_r, gaps_r)
        rate_ok = rate_ok and _nonincreasing(gaps_r) and bool(np.all(dominated(gaps_r, pair)))
    passed = sigma_err < 1e-10 and monotone and envelope and rate_ok
    return {
        "passed": bool(passed),
        "details": {
            "sigma_error_at_n50": sigma_err,
            "standard_model_monotone": monotone,
            "standard_model_envelope": envelope,
            "random_models_ok": rate_ok,
        },
    }


def criterion_improved_rate(seed=0):
    arithmetic_ok = all((1.0 + bounds.phi(e)) ** -2 < (1.0 + 1.0 / e) ** -1 for e in [0.01, 0.25, 1.0, 4.0, 100.0])

    env_ok = True
    for mu, eta, k in [_std_model()] + _gaussian_models(seed + 3):
        gaps = _bridge_gaps(mu, eta, k, 10)
        _, improved = _envelopes(mu, eta, k, gaps)
        env_ok = env_ok and bool(np.all(dominated(gaps[2:], improved[2:])))
    return {
        "passed": bool(arithmetic_ok and env_ok),
        "details": {"strict_ordering": arithmetic_ok, "phi_envelope_dominates": env_ok},
    }


def criterion_entropic_map_identities(seed=0):
    worst_bary = 0.0
    worst_sandwich = 0.0
    for mu, eta, k in _gaussian_models(seed + 4):
        chi = k.chi
        chi_t = chi.swapaxes(-1, -2)
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        grad_fwd, grad_bwd = g.entropic_map_gradient(fwd) @ chi, g.entropic_map_gradient(bwd) @ chi_t
        worst_bary = max(
            worst_bary,
            float(spd.spectral_norm(chi_t @ fwd.noise_cov @ chi - grad_fwd).max()),
            float(spd.spectral_norm(chi @ bwd.noise_cov @ chi_t - grad_bwd).max()),
        )
        # equality case: both two-sided bound families collapse onto the
        # gradient; the fixed points come from the family's bridge spectra
        w0, w1, w0b, w1b = bounds.varpi_family(k, CurvatureSpec.gaussian(mu, eta))
        v_half, u_half = bridge.factors.v_half, bridge.factors.u_half
        for w in (w0, w0b):
            bound = chi_t @ v_half @ riccati.fixed_point(w) @ v_half @ chi
            worst_sandwich = max(worst_sandwich, float(spd.spectral_norm(grad_fwd - bound).max()))
        for w in (w1, w1b):
            bound = chi @ u_half @ riccati.fixed_point(w) @ u_half @ chi_t
            worst_sandwich = max(worst_sandwich, float(spd.spectral_norm(grad_bwd - bound).max()))
    passed = worst_bary < 1e-10 and worst_sandwich < 1e-10
    return {
        "passed": bool(passed),
        "details": {"max_barycentric_residual": worst_bary, "max_sandwich_residual": worst_sandwich},
    }


def criterion_ot_limit(seed=0):
    mu = g.GaussianMeasure([0.0], [[4.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    bridge = g.bridge_solve(mu, eta, k)
    lim = bridge.ot_limit()
    limit_ok = abs(lim.slope[0, 0] - 0.5) < 1e-12
    # one decomposition for the whole sweep: a rescaled bridge reuses it
    gaps = [abs(bridge.rescaled(t).forward.slope[0, 0] - lim.slope[0, 0]) for t in [1.0, 0.1, 0.01, 0.001]]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    passed = limit_ok and monotone and gaps[-1] < 5e-3
    return {
        "passed": bool(passed),
        "details": {"limit_slope_ok": limit_ok, "gaps": gaps, "monotone": monotone},
    }


def criterion_proximal_sampler(seed=0):
    mu = g.GaussianMeasure([0.0], [[1.0]])
    nu = g.GaussianMeasure([3.0], [[2.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    spec = CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]])
    a, b = bounds.proximal_rates(k, spec)
    rates_ok = a == 1.0 and b == 0.5
    rows = bounds.proximal_trace(nu, mu, k, a, b, 20)
    decay_ok = all(w2 <= w2_env + 1e-13 and kl <= kl_env + 1e-13 for w2, w2_env, kl, kl_env in rows)

    # crossover: the rate comparison must match the exact margin predicate on
    # both sides of the asymmetric-curvature boundary and for both outcomes;
    # the four cases (t, u_plus, v_plus) are one stack of 1-d models, k with noise t
    t, up, vp = np.array([(1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (10.0, 2.0, 1.0), (10.0, 1.0, 2.0)]).T.reshape(3, -1, 1, 1)
    k_x = g.LinearGaussianKernel(np.zeros((len(t), 1)), np.ones_like(t), t)
    out = bounds.proximal_crossover(k_x, CurvatureSpec(u_plus=up, v_plus=vp))
    crossover_ok = bool(np.all(out["pair_rate_below"] == out["margin_above_one"]))
    crossover_ok = crossover_ok and set(out["pair_rate_below"].tolist()) == {True, False}
    passed = rates_ok and decay_ok and crossover_ok
    return {
        "passed": bool(passed),
        "details": {"rates_ok": rates_ok, "decay_ok": decay_ok, "crossover_ok": crossover_ok},
    }


def _desk_models():
    """The three 1-d models of criterion 9, which share one tabulated channel."""
    grid = discrete.uniform_grid(1, 64, 8.0)
    channel = (discrete.channel_table(models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]]), grid),)
    std = models.quadratic_potential([0.0], [[1.0]])
    marginals = {
        "gaussian": (std, std),
        "double-well-u": (models.quartic_double_well_potential(0.05, 0.8), std),
        "bimodal-v": (std, models.gaussian_mixture_potential([0.5, 0.5], [[-2.0], [2.0]], [[[0.5]], [[0.5]]])),
    }
    return {name: discrete.build_model(u, v, channel, grid) for name, (u, v) in marginals.items()}


def criterion_discrete_sinkhorn(seed=0):
    tol_plans = 1e-12
    n_plans = 11  # the states checked against matrix scaling: n = 0..10
    scaling_ok = True
    marginal_ok = True
    chains_ok = True
    worst_plan_gap = 0.0
    worst_marginal = 0.0
    worst_gap_diff = 0.0
    worst_ratio = 0.0  # the largest entry[n] / entry[n - 1] of any chain
    min_entry = np.inf
    for name, model in _desk_models().items():
        trace = discrete.run(model, 300, tol=1e-11)
        oracle = discrete.bridge_oracle(model, start=trace)
        rep = discrete.entropy_report(trace, oracle)
        ref = discrete.plan_log_density(oracle.states[-2])
        w = model.grid.weights
        states = list(trace.states)
        while len(states) < n_plans:  # a run that stopped early is stepped on for the oracle comparison
            states.append(discrete.sinkhorn_step(states[-1]))

        mass = discrete.plan_mass(states[:n_plans])
        for m, plan in zip(mass, discrete.matrix_scaling_plans(model, n_plans - 1)):
            m -= plan
        gap = float(np.abs(mass, out=mass).max())
        worst_plan_gap = max(worst_plan_gap, gap)
        scaling_ok = scaling_ok and gap < tol_plans
        # only the marginal a state's plan has exactly: the first at an even state, the second at an odd one
        res = max(discrete.marginal_residual(state, state.n % 2) for state in states[:n_plans])
        worst_marginal = max(worst_marginal, res)
        marginal_ok = marginal_ok and res < tol_plans

        # the report's tail-sum bridge gaps against the dense joint relative entropies, in stacks of
        # n_plans states: a stack of the whole run would raise the peak memory by a table per state
        dense = np.concatenate([
            discrete.joint_relative_entropy(ref, discrete.plan_log_density(trace.states[i:i + n_plans]), w)
            for i in range(0, len(trace.states), n_plans)
        ])
        fast = [x for pair in zip(rep["H_bridge_even"], rep["H_bridge_odd"]) for x in pair]
        worst_gap_diff = max(worst_gap_diff, float(np.abs(dense - fast).max()))
        chains_ok = chains_ok and chains_monotone(rep)
        # the four cross-chain inequalities, for n >= 1 and compared exactly
        chains = pe, ep, me, pm = [np.array(rep[key]) for key in CHAINS]
        chains_ok = chains_ok and bool(np.all(
            (pe[1:] <= me[:-1]) & (me[:-1] <= pe[:-1]) & (pm[1:] <= ep[1:]) & (ep[1:] <= pm[:-1])
        ))
        min_entry = min(min_entry, *(float(c.min()) for c in chains))
        worst_ratio = max(worst_ratio, *(float(np.max(c[1:] / c[:-1])) for c in chains))
    passed = scaling_ok and marginal_ok and chains_ok and min_entry > 0.0 and worst_gap_diff < tol_plans
    return {
        "passed": bool(passed),
        "details": {
            "max_scaling_gap": worst_plan_gap,
            "max_marginal_residual": worst_marginal,
            "max_bridge_gap_diff": worst_gap_diff,
            "entropy_chains_ok": chains_ok,
            "max_chain_ratio": worst_ratio,
            "min_chain_entry": min_entry,
        },
    }


def criterion_discretization_consistency(seed=0):
    # The first grid half-steps against the closed-form Gaussian flow, whose
    # tau_n is exact for every n, so no converged reference is needed.  The
    # midpoint rule's error on a Gaussian integrand of variance t falls like
    # A h^-2 exp(-c / h^2) with c = 2 pi^2 t (Poisson summation; Trefethen &
    # Weideman 2014).  Each error must stay above round-off, and each pair of
    # grids must give that c at every n, to within the margin.
    t, radius, sizes, n_steps = 0.05, 8.0, (32, 48, 64), 11
    floor, margin = 1e-10, 0.05
    std = g.GaussianMeasure([0.0], [[1.0]])
    bridge = g.bridge_solve(std, std, g.LinearGaussianKernel([0.0], [[1.0]], [[t]]))
    # states n = 0, 1, ..., n_steps
    taus = np.array([s.tau_n[0, 0] for s in g.sinkhorn_run(bridge, n_steps // 2)])
    quadratic = models.quadratic_potential([0.0], [[1.0]])
    channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[t]])
    errs = []
    for n in sizes:
        model = discrete.build_model(quadratic, quadratic, channel, discrete.uniform_grid(1, n, radius))
        state = discrete.initial_state(model)
        grid_taus = [discrete.mean_conditional_cov(state)[0, 0]]
        for _ in range(n_steps):
            state = discrete.sinkhorn_step(state)
            grid_taus.append(discrete.mean_conditional_cov(state)[0, 0])
        errs.append(np.abs(np.array(grid_taus) - taus))
    errs = np.array(errs)  # (grid, n)
    # the c of err = A h^-2 exp(-c / h^2) that each pair of neighbouring grids gives, at each n
    inv_h2 = (np.array(sizes) / (2.0 * radius)) ** 2
    fitted = (np.log(errs[:-1] / errs[1:]) - np.log(inv_h2[:-1] / inv_h2[1:])[:, None]) / np.diff(inv_h2)[:, None]
    deviation = float(np.abs(fitted / (2.0 * np.pi**2 * t) - 1.0).max())
    passed = errs.min() > floor and deviation <= margin
    return {
        "passed": bool(passed),
        "details": {
            "max_errors": [float(e) for e in errs.max(axis=1)],
            "min_error": float(errs.min()),
            "max_rate_deviation": deviation,
        },
    }


CRITERIA = [
    ("riccati-fixed-point", criterion_riccati_fixed_point),
    ("riccati-decay", criterion_riccati_decay),
    ("psi-factorization", criterion_psi_factorization),
    ("gaussian-bridge-vs-sinkhorn", criterion_bridge_vs_sinkhorn),
    ("improved-phi-rate", criterion_improved_rate),
    ("entropic-map-identities", criterion_entropic_map_identities),
    ("ot-limit", criterion_ot_limit),
    ("proximal-sampler", criterion_proximal_sampler),
    ("discrete-sinkhorn-correctness", criterion_discrete_sinkhorn),
    ("discretization-consistency", criterion_discretization_consistency),
]


def run_criteria(seed: int = 0, name_filter: str | None = None) -> list[dict]:
    """Run the numbered checks, optionally restricted by a name substring; id i is CRITERIA[i - 1]."""
    return [{"id": i, "name": name, **fn(seed=seed)}
            for i, (name, fn) in enumerate(CRITERIA, 1) if not name_filter or name_filter in name]


def summary_document(results: list[dict], seed: int) -> str:
    """Canonical machine-readable summary; byte-stable for a fixed seed."""
    doc = {
        "schema": "sinkbridge/v1",
        "seed": seed,
        "all_passed": all(r["passed"] for r in results),
        "criteria": [
            {
                "id": r["id"],
                "name": r["name"],
                "passed": r["passed"],
                "details": {k: _canonical(v) for k, v in sorted(r["details"].items())},
            }
            for r in results
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _canonical(v):
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, tuple)):
        return [_canonical(x) for x in v]
    if isinstance(v, np.generic):
        return _canonical(v.item())
    return str(v)


def criterion_determinism(seed: int = 0, first: str | None = None) -> dict:
    """Criterion 11: two full runs with one seed serialize identically.

    ``first`` is the summary of a full run the caller already made; it
    stands in for the first of the two runs.
    """
    if first is None:
        first = summary_document(run_criteria(seed=seed), seed)
    second = summary_document(run_criteria(seed=seed), seed)
    passed = first == second
    return {
        "id": 11,
        "name": DETERMINISM,
        "passed": bool(passed),
        "details": {"byte_identical": passed},
    }
