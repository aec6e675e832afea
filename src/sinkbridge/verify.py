"""Acceptance checks: one function per criterion, shared by CLI and tests.

Every check pins its tolerance here, computes its own reference values
(iteration oracles, closed forms, exact Gaussian divergences) and returns
its records: a ``Gate`` (name, observed, allowed, op) for each comparison
it makes, and a (name, numbers) pair for a list it only reports.
``run_criteria`` adds its id and name from its place in ``CRITERIA``, and
it alone decides ``passed``: no gate fails.  A gate over arrays is reported
by the entry that decides it (``_worst``).  Results are deterministic for a
given seed.  Criteria 1-6 run the cases of each dimension as one stack: one
call of each decomposition, and one Gaussian mean recursion, per dimension.
The commands' ``satisfied`` and ``entropy_monotone`` outputs call the gates
below, so a claim and its criterion share one gate.
"""

import json
import operator
from typing import NamedTuple

import numpy as np

from . import bounds, discrete, models, riccati, spd
from . import gaussian as g
from .bounds import CurvatureSpec

CHAINS = ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu")
DETERMINISM = "determinism"  # criterion 11, which runs the others


def dominated(obs, env):
    """The envelope gate of the Riccati decay and the Gaussian entropy claims: obs[n] <= env[n], with no slack.

    The gaps compared keep their relative accuracy, so an exact comparison is
    the claim itself.  It is the ``<=`` of every ``Gate``.
    """
    return obs <= env


OPS = {"<": operator.lt, "<=": dominated, ">": operator.gt, "==": operator.eq}


class Gate(NamedTuple):
    """One comparison of a criterion, made exactly: it holds when ``observed op allowed``."""

    name: str
    observed: float
    allowed: float
    op: str  # a key of OPS

    @property
    def holds(self) -> bool:
        return bool(OPS[self.op](self.observed, self.allowed))


def failing(records) -> list:
    """The names of the gates among a criterion's records that do not hold; a (name, numbers) pair never fails."""
    return [r.name for r in records if isinstance(r, Gate) and not r.holds]


def _worst(name, observed, allowed, op="<=") -> Gate:
    """The upper-bound gate ``observed op allowed`` over arrays, as the one entry that decides it.

    Among the failing entries (all, if none fails) that is the first with a
    NaN, else the one with the largest observed / allowed, then observed: the
    gate holds exactly when every entry does.  ``observed`` is a list of
    arrays, flattened in order; ``allowed`` a list of like arrays, or one bound.
    """
    obs = np.concatenate([np.ravel(x) for x in observed])
    if isinstance(allowed, list):
        lim = np.concatenate([np.ravel(x) for x in allowed])
    else:
        lim = np.full(obs.shape, float(allowed))
    fails = ~OPS[op](obs, lim)
    cand = np.flatnonzero(fails) if fails.any() else np.arange(obs.size)
    nan = cand[np.isnan(obs[cand]) | np.isnan(lim[cand])]
    if nan.size:
        i = int(nan[0])
    else:
        with np.errstate(all="ignore"):  # a 0 / 0 or inf / inf ratio ranks below every number
            ratio = np.fmax(obs[cand] / lim[cand], -np.inf)
        top = cand[ratio == ratio.max()]
        i = int(top[np.argmax(obs[top])])
    return Gate(name, float(obs[i]), float(lim[i]), op)


def _nonincreasing(name, seqs) -> Gate:
    """The gate that no entry of any sequence rises above the one before: each ``np.diff`` step <= 0, the largest reported."""
    return _worst(name, [np.diff(seq, axis=0) for seq in seqs], 0.0)


def chains_monotone(rep: dict) -> bool:
    """The entropy-chain gate, criterion 9's too: every marginal chain of a ``discrete.entropy_report`` is nonincreasing.

    The bridge gaps are tail sums of nonnegative terms, which cannot rise.
    """
    return _nonincreasing("chains_monotone", [rep[key] for key in CHAINS]).holds


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
    family = _spd_family(seed)
    reps = [riccati.fixed_point_identities(_stack(family, idx)) for idx in _dim_groups(family)]
    strict = np.concatenate([rep["sandwich_strict"] & rep["inverse_sandwich_strict"] for rep in reps])
    return [
        _worst("max_map_residual", [rep["fixed_point_residual"] for rep in reps], 1e-10, "<"),
        _worst("max_identity_residual", [rep["quadratic_identity_residual"] for rep in reps], 1e-9, "<"),
        Gate("sandwich_violations", int(np.count_nonzero(~strict)), 0, "=="),  # either strict sandwich not strict
    ]


def criterion_riccati_decay(seed=0):
    n_max = 60
    rng = np.random.default_rng(seed + 1)
    # each slice's gaps and envelope from row 1 on: row 0 of the envelope is the gap itself,
    # and a NaN there reaches every later row
    gaps_on, envelopes = [], []
    family = _spd_family(seed)
    starts = [np.diag(rng.uniform(0.0, 2.0, size=varpi.shape[0])) for varpi in family]
    for idx in _dim_groups(family):
        spectrum = riccati._spectrum(_stack(family, idx))
        r0 = spd.clamp_psd(_stack(starts, idx))
        # gaps[n, j]: slice j's distance to its fixed point after n steps, read off Delta_n
        gaps = riccati.gap_norms(riccati._delta_flow(*spectrum, r0, n_max)[0])
        for j, one in enumerate(zip(*spectrum)):
            gaps_on.append(gaps[1:, j])
            envelopes.append(riccati.decay_envelope(gaps[:, j], *riccati.decay_params(riccati.Spectrum(*one)))[1:])

    # the closed form against the map stepped on the dense varpi, s <- (varpi + s + I)^{-1} (varpi + s),
    # for five scalar flows as one (5, 1, 1) stack; a 1 x 1 solve is the division
    varpi, s = np.array([(0.1, 0.0), (1.0, 0.0), (1.0, 2.0), (10.0, 0.3), (2.0, 5.0)]).T.reshape(2, -1, 1, 1)
    steps = [s]
    for _ in range(100):
        x = varpi + steps[-1]
        steps.append(x / (x + 1.0))
    err = np.abs(riccati.iterate(varpi, s, 100) - np.array(steps))
    return [_worst("envelope", gaps_on, envelopes), _worst("max_closed_form_error", [err], 1e-12, "<")]


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
    factorization, transport = [], []
    gammas, starts = _psi_cases(seed)
    for idx in _dim_groups(gammas):
        gamma = _stack(gammas, idx)
        gamma_t = gamma.swapaxes(-1, -2)
        v = _stack(starts, idx)  # psi_map and ricc_map each validate it
        lhs = riccati.psi_map(gamma, riccati.psi_map(gamma_t, v))
        # one decomposition of the parameter serves the map and its fixed point
        param = riccati._spectrum(spd.sym_inv(spd.symmetrize(gamma @ gamma_t)))
        factorization.append(spd.spectral_norm(lhs - riccati.ricc_map(param, v)))
        left = riccati.psi_map(gamma_t, riccati.fixed_point(param))
        right = riccati.fixed_point(spd.sym_inv(spd.symmetrize(gamma_t @ gamma)))
        transport.append(spd.spectral_norm(left - right))
    return [_worst("max_factorization_residual", factorization, 1e-9, "<"),
            _worst("max_transport_residual", transport, 1e-9, "<")]


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
    run = g.sinkhorn_run(bridge, 25)
    golden = riccati.fixed_point(np.array([[1.0]]))[0, 0]
    gaps = g.bridge_gaps(bridge, run)

    # each random model's gaps (n, models) and pair envelope; row 0 of the envelope is the gap itself,
    # and a NaN there reaches every later row
    random_gaps, pairs = [], []
    for mu_r, eta_r, k_r in _gaussian_models(seed + 3):
        random_gaps.append(_bridge_gaps(mu_r, eta_r, k_r, 15))
        pairs.append(_envelopes(mu_r, eta_r, k_r, random_gaps[-1])[0])
    return [
        Gate("sigma_error_at_n50", float(np.max(np.abs(run.tau[50:, 0, 0] - golden))), 1e-10, "<"),  # states 50, 51
        _nonincreasing("standard_model_monotone", [gaps]),
        _worst("standard_model_envelope", [gaps[2:51:2]], [0.5 ** np.arange(1, 26) * gaps[0]]),
        _nonincreasing("random_models_monotone", random_gaps),
        _worst("random_models_pair_envelope", [x[1:] for x in random_gaps], [x[1:] for x in pairs]),
    ]


def criterion_improved_rate(seed=0):
    eps = [0.01, 0.25, 1.0, 4.0, 100.0]
    ordering = _worst("strict_ordering", [[(1.0 + bounds.phi(e)) ** -2 for e in eps]],
                      [[(1.0 + 1.0 / e) ** -1 for e in eps]], "<")

    gaps_on, improved_on = [], []  # from n = 2 on, where the improved envelope is finite
    for mu, eta, k in [_std_model()] + _gaussian_models(seed + 3):
        gaps = _bridge_gaps(mu, eta, k, 10)
        gaps_on.append(gaps[2:])
        improved_on.append(_envelopes(mu, eta, k, gaps)[1][2:])
    return [ordering, _worst("phi_envelope", gaps_on, improved_on)]


def criterion_entropic_map_identities(seed=0):
    barycentric, sandwich = [], []
    for mu, eta, k in _gaussian_models(seed + 4):
        chi = k.chi
        chi_t = chi.swapaxes(-1, -2)
        bridge = g.bridge_solve(mu, eta, k)
        fwd, bwd = bridge.forward, bridge.backward()
        grad_fwd, grad_bwd = g.entropic_map_gradient(fwd) @ chi, g.entropic_map_gradient(bwd) @ chi_t
        barycentric += [spd.spectral_norm(chi_t @ fwd.noise_cov @ chi - grad_fwd),
                        spd.spectral_norm(chi @ bwd.noise_cov @ chi_t - grad_bwd)]
        # equality case: both two-sided bound families collapse onto the
        # gradient; the fixed points come from the family's bridge spectra,
        # and a member the family returns twice (w0b is w0) is gated once
        w0, w1, w0b, w1b = bounds.varpi_family(k, CurvatureSpec.gaussian(mu, eta))
        v_half, u_half = bridge.factors.v_half, bridge.factors.u_half
        for w in {id(w): w for w in (w0, w0b)}.values():
            bound = chi_t @ v_half @ riccati.fixed_point(w) @ v_half @ chi
            sandwich.append(spd.spectral_norm(grad_fwd - bound))
        for w in {id(w): w for w in (w1, w1b)}.values():
            bound = chi @ u_half @ riccati.fixed_point(w) @ u_half @ chi_t
            sandwich.append(spd.spectral_norm(grad_bwd - bound))
    return [_worst("max_barycentric_residual", barycentric, 1e-10, "<"),
            _worst("max_sandwich_residual", sandwich, 1e-10, "<")]


def criterion_ot_limit(seed=0):
    mu = g.GaussianMeasure([0.0], [[4.0]])
    eta = g.GaussianMeasure([0.0], [[1.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    bridge = g.bridge_solve(mu, eta, k)
    lim = bridge.ot_limit()
    # one decomposition for the whole sweep: a rescaled bridge reuses it
    gaps = [float(abs(bridge.rescaled(t).forward.slope[0, 0] - lim.slope[0, 0])) for t in [1.0, 0.1, 0.01, 0.001]]
    return [
        Gate("limit_slope_error", float(abs(lim.slope[0, 0] - 0.5)), 1e-12, "<"),
        _worst("monotone", [gaps[1:]], [gaps[:-1]], "<"),
        Gate("final_gap", gaps[-1], 5e-3, "<"),
        ("gaps", gaps),
    ]


def criterion_proximal_sampler(seed=0):
    mu = g.GaussianMeasure([0.0], [[1.0]])
    nu = g.GaussianMeasure([3.0], [[2.0]])
    k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
    spec = CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]])
    a, b = bounds.proximal_rates(k, spec)
    # rows n >= 1: row 0's envelopes are W2_0 and KL_0 themselves, and a NaN there reaches every later row
    w2, w2_env, kl, kl_env = np.array(bounds.proximal_trace(nu, mu, k, a, b, 20)[1:]).T

    # crossover: the rate comparison must match the exact margin predicate on
    # both sides of the asymmetric-curvature boundary and for both outcomes;
    # the four cases (t, u_plus, v_plus) are one stack of 1-d models, k with noise t
    t, up, vp = np.array([(1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (10.0, 2.0, 1.0), (10.0, 1.0, 2.0)]).T.reshape(3, -1, 1, 1)
    k_x = g.LinearGaussianKernel(np.zeros((len(t), 1)), np.ones_like(t), t)
    out = bounds.proximal_crossover(k_x, CurvatureSpec(u_plus=up, v_plus=vp))
    return [
        Gate("prefactor_a", a, 1.0, "=="),
        Gate("rate_b", b, 0.5, "=="),
        _worst("w2_envelope", [w2], [w2_env + 1e-13]),
        _worst("kl_envelope", [kl], [kl_env + 1e-13]),
        Gate("crossover_disagreements", np.count_nonzero(out["pair_rate_below"] != out["margin_above_one"]), 0, "=="),
        Gate("crossover_outcomes", len(set(out["pair_rate_below"].tolist())), 2, "=="),
    ]


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
    plan_gaps, marginals, gap_diffs, chains = [], [], [], []  # chains: each model's four, in CHAINS order
    for model in _desk_models().values():
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
        plan_gaps.append(np.abs(mass, out=mass).max())
        # only the marginal a state's plan has exactly: the first at an even state, the second at an odd one
        marginals.append([discrete.marginal_residual(state, state.n % 2) for state in states[:n_plans]])

        # the report's tail-sum bridge gaps against the dense joint relative entropies, in stacks of
        # n_plans states: a stack of the whole run would raise the peak memory by a table per state
        dense = np.concatenate([
            discrete.joint_relative_entropy(ref, discrete.plan_log_density(trace.states[i:i + n_plans]), w)
            for i in range(0, len(trace.states), n_plans)
        ])
        fast = [x for pair in zip(rep["H_bridge_even"], rep["H_bridge_odd"]) for x in pair]
        gap_diffs.append(np.abs(dense - fast))
        chains.append([np.array(rep[key]) for key in CHAINS])
    each = [c for four in chains for c in four]
    return [
        _worst("max_scaling_gap", plan_gaps, tol_plans, "<"),
        _worst("max_marginal_residual", marginals, tol_plans, "<"),
        _worst("max_bridge_gap_diff", gap_diffs, tol_plans, "<"),
        _nonincreasing("chains_monotone", each),  # the gate of ``chains_monotone``
        # the four cross-chain inequalities, for n >= 1
        _worst("cross_chain", [x for pe, ep, me, pm in chains for x in (pe[1:], me[:-1], pm[1:], ep[1:])],
               [x for pe, ep, me, pm in chains for x in (me[:-1], pe[:-1], ep[1:], pm[:-1])]),
        Gate("min_chain_entry", float(np.min(np.concatenate(each))), 0.0, ">"),
    ]


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
    taus = g.sinkhorn_run(bridge, n_steps // 2).tau[:, 0, 0]
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
    return [
        Gate("min_error", float(errs.min()), floor, ">"),
        _worst("max_rate_deviation", [np.abs(fitted / (2.0 * np.pi**2 * t) - 1.0)], margin),
        ("max_errors", [float(e) for e in errs.max(axis=1)]),
    ]


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
    """Run the numbered checks, optionally restricted by a name substring; id i is CRITERIA[i - 1].

    A criterion passes when none of its gates fails.  Its details hold each
    gate as {observed, allowed, op} and each (name, numbers) pair's numbers.
    """
    results = []
    for i, (name, fn) in enumerate(CRITERIA, 1):
        if not name_filter or name_filter in name:
            records = fn(seed=seed)
            details = {r[0]: {"observed": r.observed, "allowed": r.allowed, "op": r.op} if isinstance(r, Gate)
                       else r[1] for r in records}
            results.append({"id": i, "name": name, "passed": not failing(records), "details": details})
    return results


def summary_document(results: list[dict], seed: int) -> str:
    """Canonical machine-readable summary; byte-stable for a fixed seed."""
    doc = {"schema": "sinkbridge/v1", "seed": seed, "all_passed": all(r["passed"] for r in results),
           "criteria": _canonical(results)}
    return json.dumps(doc, indent=2, sort_keys=True)


def _canonical(v):
    """A result as the summary writes it: each float as its 17-digit string, so the text is byte-stable."""
    if isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, dict):
        return {k: _canonical(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canonical(x) for x in v]
    if isinstance(v, np.generic):
        return _canonical(v.item())
    raise TypeError(f"a criterion detail of type {type(v).__name__} has no canonical form")


def criterion_determinism(seed: int = 0, first: str | None = None) -> dict:
    """Criterion 11: two full runs with one seed serialize identically.

    ``first`` is the summary of a full run the caller already made; it
    stands in for the first of the two runs.
    """
    if first is None:
        first = summary_document(run_criteria(seed=seed), seed)
    passed = first == summary_document(run_criteria(seed=seed), seed)
    return {"id": 11, "name": DETERMINISM, "passed": passed, "details": {"byte_identical": passed}}
