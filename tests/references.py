"""Reference implementations that tests compare the library against.

No command, criterion or demo needs these, so they live beside the tests.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from sinkbridge import bounds, discrete, riccati, spd
from sinkbridge import gaussian as g
from sinkbridge.errors import DomainError, ShapeError


def varpi_pair(mu, eta, k):
    """Riccati parameters of the two conditional-covariance flows, as dense matrices.

    Returns (v^{-1/2} (chi u chi')^{-1} v^{-1/2}, u^{-1/2} (chi' v chi)^{-1} u^{-1/2}),
    assembled from the bridge's one SVD as p diag(lam) p' and r diag(lam) r'.
    Their condition number is cond(v^{1/2} chi u^{1/2})^2; the library hands
    the Riccati layer ``BridgeFactors.spectra`` instead, which carries no such loss.
    """
    f = g.bridge_solve(mu, eta, k).factors
    return g._congruent(f.p, f.lam), g._congruent(f.r, f.lam)


def push_through(p, f):
    """Image N(intercept + slope m, slope u slope' + noise_cov) of a Gaussian N(m, u) under an affine Gaussian map."""
    return g.GaussianMeasure(f.intercept + f.slope @ p.mean, f.slope @ p.cov @ f.slope.T + f.noise_cov)


def model_slice(model, j):
    """Model j of a stacked model (mu, eta, k), built again as a model of its own."""
    mu, eta, k = model
    return (g.GaussianMeasure(mu.mean[j], mu.cov[j]), g.GaussianMeasure(eta.mean[j], eta.cov[j]),
            g.LinearGaussianKernel(k.alpha[j], k.beta[j], k.tau[j]))


def loewner_gap_svd(a, b):
    """``spd._loewner_gap`` with its noise scale 1 + ||b - a|| from an SVD norm, a second decomposition of b - a."""
    diff = spd.symmetrize(b) - spd.symmetrize(a)
    return np.linalg.eigvalsh(diff)[..., 0], 1.0 + np.linalg.norm(diff, 2, axis=(-2, -1))


@dataclass(frozen=True)
class JointGaussian(g.GaussianMeasure):
    """Gaussian law on pairs (x, y); mean has length 2d.  A ``GaussianMeasure``, so ``gaussian_kl`` takes it."""

    def __post_init__(self):
        super().__post_init__()
        if self.mean.shape[0] % 2:
            raise ShapeError("joint mean must have even length")

    @property
    def dim(self) -> int:
        return self.mean.shape[0] // 2

    def swapped(self) -> "JointGaussian":
        """The same law with the two coordinates exchanged."""
        d = self.dim
        perm = np.r_[np.arange(d, 2 * d), np.arange(d)]
        return JointGaussian(self.mean[perm], self.cov[np.ix_(perm, perm)])


def joint_plan(mu, f) -> JointGaussian:
    """Materialize the coupling mu(dx) K(x, dy) of a ``gaussian.AffineGaussianMap`` f as a joint Gaussian on (x, y)."""
    if f.slope.shape[1] != mu.dim:
        raise ShapeError("map slope does not accept the measure dimension")
    cross = mu.cov @ f.slope.T
    top = np.hstack([mu.cov, cross])
    bottom = np.hstack([cross.T, f.slope @ mu.cov @ f.slope.T + f.noise_cov])
    cov = np.vstack([top, bottom])
    try:
        return JointGaussian(np.r_[mu.mean, f.intercept + f.slope @ mu.mean], cov)
    except DomainError as exc:
        raise DomainError("joint covariance is degenerate (noiseless rank-deficient map)") from exc


def bridge_plan(bridge) -> JointGaussian:
    """The joint law of a ``gaussian.GaussianBridge``'s coupling on (x, y)."""
    return joint_plan(bridge.mu, bridge.forward)


def state_plan(run, n, mu, eta, k) -> JointGaussian:
    """Joint Gaussian coupling described by state n of a ``gaussian.GaussianSinkhornRun``, on (x, y)."""
    chi, tau, mean = k.chi, run.tau[n], run.mean[n]
    if n % 2 == 0:
        f = g.AffineGaussianMap(mean - tau @ chi @ mu.mean, tau @ chi, tau)
        return joint_plan(mu, f)
    f = g.AffineGaussianMap(mean - tau @ chi.T @ eta.mean, tau @ chi.T, tau)
    return joint_plan(eta, f).swapped()


def joint_gaps(bridge, run) -> np.ndarray:
    """The bridge gap of each state of a run as the relative entropy of two 2d x 2d joints, subtracted in doubles."""
    plan = bridge_plan(bridge)
    return np.array([g.gaussian_kl(plan, state_plan(run, n, bridge.mu, bridge.eta, bridge.k))
                     for n in range(len(run.tau))])


def bridge_gaps_mp(mu, eta, k, n_max, dps=80):
    """``gaussian.bridge_gaps`` of the states n = 0, ..., 2 n_max + 1, by definition, in ``dps``-digit arithmetic.

    The Sinkhorn plans come from the defining recursion: the even plan
    2j is mu(dx) N(m_e + tau_e chi (x - m), tau_e), the odd plan 2j + 1 is
    eta(dy) N(m_o + tau_o chi' (y - mbar), tau_o), and each conditional
    is the other plan's, inverted by Bayes' rule:
    tau_o = (u^{-1} + chi' tau_e chi)^{-1}, m_o = m + tau_o chi' (mbar - m_e),
    tau_e = (v^{-1} + chi tau_o chi')^{-1}, m_e = mbar + tau_e chi (m - m_o),
    from tau_e = tau and m_e = alpha + beta m.  The bridge is
    mu(dx) N(mbar + S chi (x - m), S) with S = v^{1/2} r* v^{1/2} in closed
    form, r* = -w/2 + (w + w^2/4)^{1/2} for w = (G G')^{-1},
    G = v^{1/2} chi u^{1/2}; nothing is iterated towards it.  Each gap is
    the relative entropy of the two 2d-dimensional joints.  The float
    inputs are taken as exact and the gaps are rounded to doubles.
    """
    with mpmath.workdps(dps):
        def exact(a):
            return mpmath.matrix(np.asarray(a, dtype=float).tolist())

        def sym_fn(a, fn):
            lam, q = mpmath.eigsy((a + a.T) / 2)
            return q * mpmath.diag([fn(x) for x in lam]) * q.T

        u, v, tau = exact(mu.cov), exact(eta.cov), exact(k.tau)
        m, mbar = exact(mu.mean), exact(eta.mean)
        beta, chi = exact(k.beta), mpmath.inverse(tau) * exact(k.beta)
        d = u.rows
        v_half, u_half = sym_fn(v, mpmath.sqrt), sym_fn(u, mpmath.sqrt)
        gram = v_half * chi * u_half
        varpi = mpmath.inverse(gram * gram.T)
        r_star = sym_fn(varpi, lambda x: 2 / (1 + mpmath.sqrt(1 + 4 / x)))
        sigma = v_half * r_star * v_half

        def joint(src_mean, src_cov, mean, noise, slope):
            cov = mpmath.zeros(2 * d)
            out = mpmath.zeros(2 * d, 1)
            cross = src_cov * slope.T
            low = slope * src_cov * slope.T + noise
            for i in range(d):
                out[i], out[d + i] = src_mean[i], mean[i]
                for j in range(d):
                    cov[i, j], cov[i, d + j] = src_cov[i, j], cross[i, j]
                    cov[d + i, j], cov[d + i, d + j] = cross[j, i], low[i, j]
            return out, cov

        def swap(law):
            mean, cov = law
            perm = list(range(d, 2 * d)) + list(range(d))
            return (mpmath.matrix([mean[i] for i in perm]),
                    mpmath.matrix([[cov[i, j] for j in perm] for i in perm]))

        def kl(p, q):
            (pm, pc), (qm, qc) = p, q
            q_inv = mpmath.inverse(qc)
            dm = qm - pm
            quad = (dm.T * q_inv * dm)[0, 0]
            tr = sum((q_inv * pc)[i, i] for i in range(2 * d))
            return (tr - 2 * d + quad + mpmath.log(mpmath.det(qc) / mpmath.det(pc))) / 2

        star = joint(m, u, mbar, sigma, sigma * chi)
        tau_e, m_e = tau, exact(k.alpha) + beta * m
        gaps = []
        for _ in range(n_max + 1):
            gaps.append(kl(star, joint(m, u, m_e, tau_e, tau_e * chi)))
            tau_o = mpmath.inverse(mpmath.inverse(u) + chi.T * tau_e * chi)
            m_o = m + tau_o * chi.T * (mbar - m_e)
            gaps.append(kl(star, swap(joint(mbar, v, m_o, tau_o, tau_o * chi.T))))
            tau_e = mpmath.inverse(mpmath.inverse(v) + chi * tau_o * chi.T)
            m_e = mbar + tau_e * chi * (m - m_o)
        return np.array([float(x) for x in gaps])


def geometric_mean(u, v):
    """Geometric mean u # v of two SPD matrices.

    Computed as v^{1/2} (v^{-1/2} u v^{-1/2})^{1/2} v^{1/2}; symmetric in its
    arguments, and equal to (uv)^{1/2} when u and v commute.
    """
    u = spd._spd_eigh(u)[0]
    v_half, v_inv_half = spd._sqrt_pair(*spd._spd_eigh(v)[1:])
    spd.check_same_dim(u, v_half)
    inner = spd.principal_sqrt(v_inv_half @ u @ v_inv_half)
    return spd.symmetrize(v_half @ inner @ v_half)


def curvature_flow_mp(k, spec, n_max, dps=60):
    """``bounds.curvature_flow`` by its defining recursion, in ``dps``-digit arithmetic.

    Both envelopes start at tau.  The step into x adds u_minus^{-1} to
    chi' tau_n chi for sigma and u_plus^{-1} to chi' sigma_n chi for tau,
    and inverts; the step into y does the same with v and chi'.  A ZERO
    factor makes its step the null matrix.  The float inputs are taken as
    exact and the result is rounded to doubles.
    """
    with mpmath.workdps(dps):
        def exact(a):
            return mpmath.matrix(np.asarray(a).tolist())

        def inv(a):
            return None if bounds.is_zero(a) else mpmath.inverse(exact(a))

        chi = exact(k.chi)
        zero = mpmath.zeros(k.dim)
        into_x = (chi.T, chi, inv(spec.u_minus), inv(spec.u_plus))
        into_y = (chi, chi.T, inv(spec.v_minus), inv(spec.v_plus))
        sigma, tau = [exact(k.tau)], [exact(k.tau)]
        for n in range(2 * n_max + 1):
            left, right, minus_inv, plus_inv = into_y if n % 2 else into_x
            sigma_next = zero if minus_inv is None else mpmath.inverse(minus_inv + left * tau[-1] * right)
            tau.append(mpmath.inverse(plus_inv + left * sigma[-1] * right))
            sigma.append(sigma_next)

        def to_float(flow):
            return [np.array(m.tolist(), dtype=float) for m in flow]

        return to_float(sigma), to_float(tau)


def proximal_step(nu, mu, k):
    """One sweep of the forward/backward Gibbs chain targeting mu, the per-sweep form of ``gaussian.proximal_chain``.

    Pushes nu through the channel, then through the exact Gaussian
    conditional of the input given the output under mu x K, with the gain
    and backward covariance formed afresh: slice n of the chain is bitwise
    n calls from nu.
    """
    g._check_model(nu, mu, k)
    u = mu.cov
    gain = u @ k.beta.T @ spd.sym_inv(k.beta @ u @ k.beta.T + k.tau)
    back_cov = spd.clamp_psd(u - gain @ k.beta @ u)
    y_mean = k.alpha + k.beta @ nu.mean
    y_cov = k.beta @ nu.cov @ k.beta.T + k.tau
    mean = mu.mean + gain @ (y_mean - (k.alpha + k.beta @ mu.mean))
    return g.GaussianMeasure(mean, spd.symmetrize(gain @ y_cov @ gain.T + back_cov))


def proximal_trace_steps(nu, mu, k, a, b, steps):
    """``bounds.proximal_trace`` one ``proximal_step`` at a time, each row's W2 and KL a call of its own."""
    w0, h0 = g.gelbrich_w2(nu, mu), g.gaussian_kl(nu, mu)
    rows = [(w0, w0, h0, h0)]
    cur = nu
    for n in range(1, steps + 1):
        cur = proximal_step(cur, mu, k)
        rows.append((g.gelbrich_w2(cur, mu), b**n * w0, g.gaussian_kl(cur, mu), a * b ** (2 * (n - 1)) * h0))
    return rows


def spd_family_per_matrix(seed):
    """``verify._spd_family`` with one QR per drawn matrix."""
    rng = np.random.default_rng(seed)
    fam = [np.array([[0.1]]), np.array([[1.0]]), np.array([[10.0]]), np.diag([1.0, 4.0])]
    for _ in range(20):
        d = int(rng.integers(1, 9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        fam.append(spd.symmetrize((q * rng.uniform(0.2, 4.0, size=d)) @ q.T))
    return fam


def psi_cases_per_matrix(seed):
    """``verify._psi_cases`` with one QR per drawn basis."""
    rng = np.random.default_rng(seed + 2)
    gammas, starts = [], []
    for _ in range(50):
        d = int(rng.integers(1, 5))
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gammas.append((q1 * rng.uniform(0.5, 2.0, size=d)) @ q2.T)
        starts.append(np.diag(rng.uniform(0.0, 2.0, size=d)))
    return gammas, starts


def plan_log_density_one(state):
    """``discrete.plan_log_density`` of one state, as the plain broadcast expression."""
    return -(state.u[:, None] + state.model.w_pot + state.v[None, :])


def relative_entropy_one(log_p, log_q, weights):
    """``discrete.relative_entropy`` of one pair of tables, as one masked ``np.sum``."""
    on = log_p != -np.inf
    if not on.all():
        log_p, log_q, weights = log_p[on], log_q[on], weights[on]
    return float(np.sum(weights * np.exp(log_p) * (log_p - log_q)))


def riccati_steps(varpi, r0, n):
    """r0, Ricc(r0), ..., Ricc^n(r0), each step s -> (varpi + s + I)^{-1} (varpi + s) solved on the dense varpi."""
    out = [r0]
    for _ in range(n):
        out.append(np.linalg.solve(varpi + out[-1] + np.eye(len(varpi)), varpi + out[-1]))
    return np.array(out)


def riccati_gaps_mp(varpi, r0, n, dps=350):
    """r_k - r* for k = 0, ..., n: the Riccati map stepped on the dense varpi in ``dps``-digit arithmetic.

    r* = q diag(2 / (1 + sqrt(1 + 4/lam))) q' from the high-precision
    eigendecomposition of varpi, and each step is r -> (varpi + r)(varpi + r + I)^{-1}.
    The float inputs are taken as exact and the gaps are rounded to
    doubles; 350 digits resolve a gap of 1e-300 beside an r* of order one.
    """
    with mpmath.workdps(dps):
        w = mpmath.matrix(np.asarray(varpi).tolist())
        r = mpmath.matrix(np.asarray(r0).tolist())
        lam, q = mpmath.eigsy(w)
        r_star = q * mpmath.diag([2 / (1 + mpmath.sqrt(1 + 4 / x)) for x in lam]) * q.T
        eye = mpmath.eye(w.rows)
        gaps = []
        for _ in range(n + 1):
            gaps.append(np.array((r - r_star).tolist(), dtype=float))
            r = (w + r) * mpmath.inverse(w + r + eye)
        return np.array(gaps)


def per_sweep_run(model, n_sweeps, tol):
    """``discrete.run`` with its entropies taken one half-step at a time, inside the loop.

    Each entry is ``discrete._kl_terms`` of that half-step's increment
    alone, summed against the target's mass on its support, with row 0's
    leak where eta has hard zeros; the lean loop must return the same
    lists bit for bit.  Beside the trace it returns the first-order forms
    of the four chains, ``relative_entropy`` of each half-step's marginal
    assembled as a full log density (-inf off the target's support), as a
    dict keyed like the trace's lists.
    """
    w = model.grid.weights
    log_mu, log_eta = model.log_mu, model.log_eta
    mu_supp, eta_supp = model.u_pot != np.inf, model.v_pot != np.inf
    trace = discrete.SinkhornTrace(model)
    subtracted = {key: [] for key in ("h_pi2n_eta", "h_eta_pi2n", "h_mu_pi2n1", "h_pi2n1_mu")}
    state = discrete.initial_state(model)

    def corrected(log_target, new, old, support):
        inc = new[support] - old[support]
        r = discrete._residual(inc)
        marginal = np.full(log_target.shape, -np.inf)
        marginal[support] = log_target[support] + inc
        back, forward = discrete._kl_terms(inc)
        mass = (w * np.exp(log_target))[support]
        h_back, h_forward = np.sum(mass * back), np.sum(mass * forward)
        if state.n == 0 and log_target is log_eta and not support.all():
            leak = np.sum(mass * np.expm1(inc))
            h_back, h_forward = h_back - leak, h_forward + leak
        return marginal, r, float(h_back), float(h_forward)

    for _ in range(n_sweeps + 1):
        odd = discrete.sinkhorn_step(state)
        pi_even, r_eta, h_back, h_forward = corrected(log_eta, odd.v, state.v, eta_supp)
        trace.states.append(state)
        trace.h_eta_pi2n.append(h_back)
        trace.h_pi2n_eta.append(h_forward)
        subtracted["h_pi2n_eta"].append(discrete.relative_entropy(pi_even, log_eta, w))
        subtracted["h_eta_pi2n"].append(discrete.relative_entropy(log_eta, pi_even, w))
        following = discrete.sinkhorn_step(odd)
        pi_odd, r_mu, h_back, h_forward = corrected(log_mu, following.u, odd.u, mu_supp)
        trace.states.append(odd)
        trace.h_mu_pi2n1.append(h_back)
        trace.h_pi2n1_mu.append(h_forward)
        subtracted["h_mu_pi2n1"].append(discrete.relative_entropy(log_mu, pi_odd, w))
        subtracted["h_pi2n1_mu"].append(discrete.relative_entropy(pi_odd, log_mu, w))
        trace.residuals.append(max(r_eta, r_mu))
        if trace.residuals[-1] < tol:
            trace.converged = True
            break
        state = following
    return trace, subtracted


def per_state_entropy_report(trace, oracle):
    """``discrete.entropy_report`` with each bridge gap summed state by state, from the oracle's last entry back.

    The entries h_k are read one state at a time from the trace, and from
    the oracle past the trace's end.
    """
    def entries(t):
        return {s.n: (t.h_eta_pi2n if s.n % 2 == 0 else t.h_mu_pi2n1)[s.n // 2 - t.states[0].n // 2]
                for s in t.states}

    h = {**entries(oracle), **entries(trace)}
    total, gaps = 0.0, {}
    for k in sorted(h, reverse=True):
        total += h[k]
        gaps[k] = total
    return {
        "H_pi2n_eta": list(trace.h_pi2n_eta),
        "H_mu_pi2n1": list(trace.h_mu_pi2n1),
        "H_eta_pi2n": list(trace.h_eta_pi2n),
        "H_pi2n1_mu": list(trace.h_pi2n1_mu),
        "H_bridge_even": [gaps[s.n] for s in trace.states if s.n % 2 == 0],
        "H_bridge_odd": [gaps[s.n] for s in trace.states if s.n % 2 == 1],
    }


def linear_bridge_gaps(trace, oracle):
    """The first-order bridge gaps <ref_1, U_n - U*> + <ref_2, V_n - V*> against the oracle's converged plan.

    ref_1 and ref_2 are that plan's marginal masses on the supports; the W
    terms cancel in the log-ratio of the two plans.  Returns (even, odd).
    """
    model, reference = trace.model, oracle.states[-2]
    w = model.grid.weights
    mu_supp, eta_supp = model.u_pot != np.inf, model.v_pot != np.inf
    first, second = discrete.plan_marginal(reference, 0), discrete.plan_marginal(reference, 1)
    ref_1, ref_2 = (w * np.exp(first))[mu_supp], (w * np.exp(second))[eta_supp]
    gaps = [float(np.sum(ref_1 * (s.u[mu_supp] - reference.u[mu_supp]))
                  + np.sum(ref_2 * (s.v[eta_supp] - reference.v[eta_supp]))) for s in trace.states]
    return gaps[0::2], gaps[1::2]


def grid_entropies_mp(model, n_half, dps=60):
    """The grid recursion's entropy chains and bridge gaps for states 0 .. n_half - 1, in ``dps`` digits.

    Runs the scaling form of the potential recursion, a = exp(-U) and
    b = exp(-V) against K = exp(-W), from the model's tables with mu and
    eta renormalized exactly, so that every plan after a half-step has mass
    one.  Each entropy is summed in its defining form over the target's
    support.  The bridge gaps are the joint relative entropies against the
    plan reached once both marginal log-ratios are below 10^(-dps/2), far
    past what doubles resolve.  Returns a dict keyed like
    ``discrete.entropy_report``'s, with float entries; n_half is even.
    """
    with mpmath.workdps(dps):
        w = [mpmath.mpf(x) for x in model.grid.weights]
        kern = [[mpmath.exp(-mpmath.mpf(x)) for x in row] for row in model.w_pot]
        kern_t = [list(col) for col in zip(*kern)]

        def density(pot):
            raw = [mpmath.exp(-mpmath.mpf(x)) for x in pot]
            total = mpmath.fsum(wi * r for wi, r in zip(w, raw))
            return [r / total for r in raw]

        def apply(rows, vec):  # sum_j rows[i][j] w_j vec_j for every i
            wv = [wj * vj for wj, vj in zip(w, vec)]
            return [mpmath.fdot(row, wv) for row in rows]

        def scale(target, sums):
            return [t / s if t else mpmath.mpf(0) for t, s in zip(target, sums)]

        def entropies(target, ratio):  # H(target | pi), H(pi | target) with pi = target * ratio, on the support
            terms = [(wi * t, mpmath.log(r), r) for wi, t, r in zip(w, target, ratio) if t]
            return -mpmath.fsum(m * x for m, x, _ in terms), mpmath.fsum(m * r * x for m, x, r in terms)

        mu, eta = density(model.u_pot), density(model.v_pot)
        b = [mpmath.mpf(1)] * len(w)
        a = scale(mu, apply(kern, b))
        states, chains = [], {"H_pi2n_eta": [], "H_eta_pi2n": [], "H_mu_pi2n1": [], "H_pi2n1_mu": []}
        tol = mpmath.mpf(10) ** (-(dps // 2))
        while True:
            b_next = scale(eta, apply(kern_t, a))
            ratio_eta = [bo / bn if e else 0 for bo, bn, e in zip(b, b_next, eta)]
            a_next = scale(mu, apply(kern, b_next))
            ratio_mu = [ao / an if m else 0 for ao, an, m in zip(a, a_next, mu)]
            if len(states) < n_half:
                h_eta, h_pi_eta = entropies(eta, ratio_eta)
                h_mu, h_pi_mu = entropies(mu, ratio_mu)
                chains["H_eta_pi2n"].append(h_eta)
                chains["H_pi2n_eta"].append(h_pi_eta)
                chains["H_mu_pi2n1"].append(h_mu)
                chains["H_pi2n1_mu"].append(h_pi_mu)
            states += [(a, b), (a, b_next)]
            residual = max(abs(mpmath.log(r)) for r in ratio_eta + ratio_mu if r)
            if len(states) >= n_half and residual < tol:
                break
            a, b = a_next, b_next

        # the reference plan's marginals, and each state's joint relative entropy to it
        a_ref, b_ref = states[-2]
        first = [x * y for x, y in zip(a_ref, apply(kern, b_ref))]
        second = [x * y for x, y in zip(b_ref, apply(kern_t, a_ref))]

        def gap(a_n, b_n):
            return (mpmath.fsum(wi * m * mpmath.log(x / y) for wi, m, x, y in zip(w, first, a_ref, a_n) if m)
                    + mpmath.fsum(wi * m * mpmath.log(x / y) for wi, m, x, y in zip(w, second, b_ref, b_n) if m))

        gaps = [gap(*s) for s in states[:n_half]]
        out = {key: [float(x) for x in seq[: n_half // 2]] for key, seq in chains.items()}
        out["H_bridge_even"] = [float(x) for x in gaps[0::2]]
        out["H_bridge_odd"] = [float(x) for x in gaps[1::2]]
        return out


def factor_pass(factor, a, axis):
    """``discrete._factor_pass`` before its one guard: every pass builds the low mask and a new output.

    Returns -log sum exp(-F - a) over one axis of the factor's table F for every row of ``a``,
    the sign of a potential, as the library's pass does; the two must
    agree bit for bit, NaN entries included.
    """
    f, m, kern = factor
    b = a if axis == 1 else a + m
    c = b.min(axis=1, keepdims=True)
    c[~np.isfinite(c)] = 0.0
    s = np.exp(c - b) @ (kern.T if axis == 1 else kern)
    low = s < discrete._THETA
    n_low = np.count_nonzero(low)
    if 2 * n_low > low.size:
        return -discrete._neg_lse(f + (a[:, None, :] if axis == 1 else a[:, :, None]), axis - 2)
    if n_low:
        s[low] = 1.0
    out = c - np.log(s)
    if axis == 1:
        out += m
    if n_low:
        rows, cols = np.nonzero(low)
        out[rows, cols] = -discrete._neg_lse((f if axis == 1 else f.T)[cols] + a[rows], 1)
    return out


def norm_ratio(f, m):
    """||f|| / ||f^{1/2} m f^{1/2}||, with f's root taken afresh."""
    half = spd.principal_sqrt(f)
    return spd.spectral_norm(f) / spd.spectral_norm(half @ m @ half)


def correction_sequences(k, spec, p_max):
    """The correction sequences xi_even, xi_odd for p = 0..p_max and their limit iota.

    xi_even[p] is ``norm_ratio(v_plus, .)`` at the p-th Riccati iterate of
    w0_bar from the identity, xi_odd[p] ``norm_ratio(u_plus, .)`` at that of
    w1_bar; iota is the larger of the two ratios at the flows' fixed points,
    the one ``bounds.rate_table`` reports.
    """
    _, _, w0_bar, w1_bar = bounds.varpi_family(k, spec)
    sides = ((spec.v_plus, w0_bar), (spec.u_plus, w1_bar))
    xi_even, xi_odd = ([norm_ratio(f, m) for m in riccati.iterate(w, np.eye(spec.dim), p_max)] for f, w in sides)
    iota = max(norm_ratio(f, riccati.fixed_point_like(w, spec.dim)) for f, w in sides)
    return xi_even, xi_odd, float(iota)


def proximal_crossover_composed(k, spec):
    """``bounds.proximal_crossover`` composed of ``eps_lg`` and ``proximal_rates``' own arithmetic.

    It takes ten SVD norms of five matrices, each call its own; the library's
    crossover must agree with it bit for bit, on one model or a stack.
    """
    eps = bounds.eps_lg(k, spec)
    kappa2 = spd.spectral_norm(k.chi) ** 2
    ntau = spd.spectral_norm(k.tau)
    beta_t = k.beta.swapaxes(-1, -2)
    resolvent = spd.sym_inv(spd._inverse(*spec.spectra["u_plus"]) + beta_t @ spd._inverse(*k.tau_spectrum) @ k.beta)
    b = g._per_model(kappa2 * ntau * spd.spectral_norm(resolvent))
    pair_rate = 1.0 / (1.0 + 1.0 / eps)
    t = spd.spectral_norm(k.tau)
    margin = 0.5 * t * (1.0 / spd.spectral_norm(spec.v_plus) - 1.0 / spd.spectral_norm(spec.u_plus))
    return {"pair_rate": pair_rate, "proximal_rate_sq": b**2, "pair_rate_below": pair_rate < b**2, "margin": margin,
            "margin_above_one": margin > 1.0}
