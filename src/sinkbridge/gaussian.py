"""Closed-form linear-Gaussian bridges, Sinkhorn recursions and divergences.

The reference channel is y = alpha + beta x + noise with noise covariance
tau.  Bridging two Gaussian marginals N(m, u) -> N(mbar, v) against that
channel reduces to Riccati fixed points; the Sinkhorn iteration reduces to
interleaved Riccati flows for the conditional covariances plus an affine
recursion for the marginal means.  Everything in this module is exact
linear algebra: no sampling anywhere.
"""

from dataclasses import dataclass

import numpy as np

from . import riccati, spd
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class GaussianMeasure:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "cov", spd.require_spd(np.atleast_2d(np.asarray(self.cov, dtype=float))))
        if self.mean.shape[0] != self.cov.shape[0]:
            raise ShapeError(f"mean/cov mismatch: {self.mean.shape} vs {self.cov.shape}")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class JointGaussian:
    """Gaussian law on pairs (x, y); mean has length 2d."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "cov", spd.require_spd(np.atleast_2d(np.asarray(self.cov, dtype=float))))
        if self.mean.shape[0] != self.cov.shape[0] or self.mean.shape[0] % 2:
            raise ShapeError("joint mean must have even length matching cov")

    @property
    def dim(self) -> int:
        return self.mean.shape[0] // 2

    def swapped(self) -> "JointGaussian":
        """The same law with the two coordinates exchanged."""
        d = self.dim
        perm = np.r_[np.arange(d, 2 * d), np.arange(d)]
        return JointGaussian(self.mean[perm], self.cov[np.ix_(perm, perm)])


@dataclass(frozen=True)
class LinearGaussianKernel:
    """Transition y = alpha + beta x + N(0, tau)."""

    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_2d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "tau", spd.require_spd(np.atleast_2d(np.asarray(self.tau, dtype=float))))
        if self.beta.shape[0] != self.beta.shape[1]:
            raise ShapeError("beta must be square")
        if np.linalg.cond(self.beta) >= 1e12:
            raise DomainError("beta is singular or near-singular")
        if self.alpha.shape[0] != self.beta.shape[0] or self.tau.shape[0] != self.beta.shape[0]:
            raise ShapeError("alpha/beta/tau dimensions disagree")

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    @property
    def chi(self) -> np.ndarray:
        """tau^{-1} beta, the natural coupling matrix of the channel."""
        return spd.sym_inv(self.tau) @ self.beta

    def rescaled(self, t: float) -> "LinearGaussianKernel":
        """Same channel with noise covariance t * tau."""
        return LinearGaussianKernel(self.alpha, self.beta, t * self.tau)


@dataclass(frozen=True)
class AffineGaussianMap:
    """Random affine map x -> intercept + slope x + N(0, noise_cov)."""

    intercept: np.ndarray
    slope: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intercept", np.atleast_1d(np.asarray(self.intercept, dtype=float)))
        object.__setattr__(self, "slope", np.atleast_2d(np.asarray(self.slope, dtype=float)))
        object.__setattr__(self, "noise_cov", spd.clamp_psd(np.atleast_2d(np.asarray(self.noise_cov, dtype=float))))


@dataclass(frozen=True)
class GaussianSinkhornState:
    """One Sinkhorn iterate: conditional covariance, marginal mean and covariance."""

    n: int
    tau_n: np.ndarray
    m_n: np.ndarray
    sigma_pi_n: np.ndarray


def _check_model(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    if not (mu.dim == eta.dim == k.dim):
        raise ShapeError(f"dimension mismatch: mu {mu.dim}, eta {eta.dim}, kernel {k.dim}")


def varpi_pair(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    """Riccati parameters of the two conditional-covariance flows.

    Returns (v^{-1/2} (chi u chi')^{-1} v^{-1/2}, u^{-1/2} (chi' v chi)^{-1} u^{-1/2}).
    """
    _check_model(mu, eta, k)
    u, v = mu.cov, eta.cov
    chi = k.chi
    v_ih = spd.sym_inv(spd.principal_sqrt(v))
    u_ih = spd.sym_inv(spd.principal_sqrt(u))
    cuc = spd.require_spd(chi @ u @ chi.T)
    cvc = spd.require_spd(chi.T @ v @ chi)
    w0 = spd.symmetrize(v_ih @ spd.sym_inv(cuc) @ v_ih)
    w1 = spd.symmetrize(u_ih @ spd.sym_inv(cvc) @ u_ih)
    return w0, w1


def bridge_solve(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    """Closed-form bridge between two Gaussians for a linear-Gaussian channel.

    Returns the forward transition (x -> y) and the backward transition
    (y -> x) as affine Gaussian maps.  The forward noise covariance is
    v^{1/2} r v^{1/2} with r the Riccati fixed point for the first flow
    parameter; pushing mu through the forward map reproduces eta exactly.
    """
    _check_model(mu, eta, k)
    u, v = mu.cov, eta.cov
    m, mbar = mu.mean, eta.mean
    chi = k.chi
    w0, w1 = varpi_pair(mu, eta, k)

    v_half = spd.principal_sqrt(v)
    sigma_fwd = spd.symmetrize(v_half @ riccati.fixed_point(w0) @ v_half)
    fwd = AffineGaussianMap(mbar - sigma_fwd @ chi @ m, sigma_fwd @ chi, sigma_fwd)

    u_half = spd.principal_sqrt(u)
    sigma_bwd = spd.symmetrize(u_half @ riccati.fixed_point(w1) @ u_half)
    bwd = AffineGaussianMap(m - sigma_bwd @ chi.T @ mbar, sigma_bwd @ chi.T, sigma_bwd)
    return fwd, bwd


def push_through(p: GaussianMeasure, f: AffineGaussianMap) -> GaussianMeasure:
    """Image of a Gaussian under an affine Gaussian map."""
    mean = f.intercept + f.slope @ p.mean
    cov = f.slope @ p.cov @ f.slope.T + f.noise_cov
    return GaussianMeasure(mean, cov)


def joint_plan(mu: GaussianMeasure, f: AffineGaussianMap) -> JointGaussian:
    """Materialize the coupling mu(dx) K(x, dy) as a joint Gaussian on (x, y)."""
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


def sinkhorn_run(mu, eta, k, n_max: int, tol: float = 0.0):
    """Run the closed-form Gaussian Sinkhorn recursion.

    Parameters
    ----------
    mu, eta : GaussianMeasure
        Marginals N(m, u) and N(mbar, v).
    k : LinearGaussianKernel
        Reference channel.
    n_max : int
        Maximum number of half-step pairs; the returned list holds states
        for n = 0, 1, ..., up to 2*n_max + 1.
    tol : float
        Early stop once successive even and odd conditional covariances and
        marginal means all move by less than tol.  0 disables early stop.

    Returns
    -------
    list of GaussianSinkhornState
        State n carries the conditional covariance of the n-th transition,
        the mean of the n-th marginal flow and its covariance.  Even states
        describe transitions x -> y with second marginal pi_{2n}; odd states
        describe transitions y -> x with first marginal pi_{2n+1}.
    """
    _check_model(mu, eta, k)
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    u, v = mu.cov, eta.cov
    m, mbar = mu.mean, eta.mean
    chi = k.chi
    w0, w1 = varpi_pair(mu, eta, k)
    v_half = spd.principal_sqrt(v)
    v_ihalf = spd.sym_inv(v_half)
    u_half = spd.principal_sqrt(u)
    u_ihalf = spd.sym_inv(u_half)

    def state(n, tau_n, m_n):
        # even states push u through x -> y, odd states push v through y -> x
        a, cov = (chi, u) if n % 2 == 0 else (chi.T, v)
        sigma_pi = spd.symmetrize(tau_n @ a @ cov @ a.T @ tau_n + tau_n)
        return GaussianSinkhornState(n, tau_n, m_n, sigma_pi)

    # n = 0: the reference channel itself, pi_0 = mu K
    r_even = spd.symmetrize(v_ihalf @ k.tau @ v_ihalf)
    tau_even = k.tau
    m_even = k.alpha + k.beta @ m
    states = [state(0, tau_even, m_even)]

    # n = 1: first conjugate transition
    tau_odd = spd.sym_inv(spd.sym_inv(u) + chi.T @ k.tau @ chi)
    r_odd = spd.symmetrize(u_ihalf @ tau_odd @ u_ihalf)
    m_odd = m + tau_odd @ chi.T @ (mbar - m_even)
    states.append(state(1, tau_odd, m_odd))

    for j in range(1, n_max + 1):
        prev_tau_even, prev_tau_odd = tau_even, tau_odd
        prev_m_even, prev_m_odd = m_even, m_odd

        r_even = riccati.ricc_map(w0, r_even)
        tau_even = spd.symmetrize(v_half @ r_even @ v_half)
        m_even = mbar + tau_even @ chi @ (m - m_odd)
        states.append(state(2 * j, tau_even, m_even))

        r_odd = riccati.ricc_map(w1, r_odd)
        tau_odd = spd.symmetrize(u_half @ r_odd @ u_half)
        m_odd = m + tau_odd @ chi.T @ (mbar - m_even)
        states.append(state(2 * j + 1, tau_odd, m_odd))

        if tol > 0.0:
            moved = max(
                np.linalg.norm(tau_even - prev_tau_even, 2),
                np.linalg.norm(tau_odd - prev_tau_odd, 2),
                np.linalg.norm(m_even - prev_m_even),
                np.linalg.norm(m_odd - prev_m_odd),
            )
            if moved < tol:
                break
    return states


def state_plan(state: GaussianSinkhornState, mu, eta, k) -> JointGaussian:
    """Joint Gaussian coupling described by one Sinkhorn state, on (x, y)."""
    chi = k.chi
    if state.n % 2 == 0:
        f = AffineGaussianMap(
            state.m_n - state.tau_n @ chi @ mu.mean, state.tau_n @ chi, state.tau_n
        )
        return joint_plan(mu, f)
    f = AffineGaussianMap(
        state.m_n - state.tau_n @ chi.T @ eta.mean, state.tau_n @ chi.T, state.tau_n
    )
    return joint_plan(eta, f).swapped()


def bridge_plan(mu, eta, k) -> JointGaussian:
    """Joint Gaussian law of the bridge coupling."""
    fwd, _ = bridge_solve(mu, eta, k)
    return joint_plan(mu, fwd)


def gaussian_kl(p, q) -> float:
    """Relative entropy between two Gaussians (measures or joints)."""
    if p.mean.shape != q.mean.shape:
        raise ShapeError("dimension mismatch")
    d = p.mean.shape[0]
    q_inv = spd.sym_inv(q.cov)
    dm = p.mean - q.mean
    _, ld_p = np.linalg.slogdet(p.cov)
    _, ld_q = np.linalg.slogdet(q.cov)
    val = 0.5 * (np.trace(q_inv @ p.cov) - d + dm @ q_inv @ dm + ld_q - ld_p)
    return float(max(val, 0.0))


def gelbrich_w2(p: GaussianMeasure, q: GaussianMeasure) -> float:
    """2-Wasserstein distance between Gaussians in closed form."""
    if p.mean.shape != q.mean.shape:
        raise ShapeError("dimension mismatch")
    q_half = spd.principal_sqrt(q.cov)
    cross = spd.psd_sqrt(q_half @ p.cov @ q_half)
    val = np.sum((p.mean - q.mean) ** 2) + np.trace(p.cov + q.cov - 2.0 * cross)
    return float(np.sqrt(max(val, 0.0)))


def entropic_map_gradient(bridge: AffineGaussianMap) -> np.ndarray:
    """Gradient of the bridge's conditional-mean map.

    For an affine conditional mean x -> intercept + slope x the gradient in
    the column-stacking convention is slope transposed; for bridge maps it
    satisfies the conditional-covariance identity
    gradient @ chi == chi' @ noise_cov @ chi (and the flat analogue).
    """
    return bridge.slope.T.copy()


def ot_limit_map(mu: GaussianMeasure, eta: GaussianMeasure, tau0, beta) -> AffineGaussianMap:
    """Zero-noise limit of the bridge as the channel noise t * tau0 vanishes.

    The limit transport is deterministic with slope
    ((chi0 u chi0')^{-1} # v) chi0 where chi0 = tau0^{-1} beta and # is the
    geometric mean; for beta = tau0 = I this is u^{-1} # v.
    """
    tau0 = spd.require_spd(np.atleast_2d(np.asarray(tau0, dtype=float)))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    if np.linalg.cond(beta) >= 1e12:
        raise DomainError("beta is singular or near-singular")
    chi0 = spd.sym_inv(tau0) @ beta
    mixed = spd.geometric_mean(spd.sym_inv(spd.require_spd(chi0 @ mu.cov @ chi0.T)), eta.cov)
    slope = mixed @ chi0
    return AffineGaussianMap(eta.mean - slope @ mu.mean, slope, np.zeros_like(mu.cov))


def kernel_costs(k: LinearGaussianKernel, x1, x2) -> tuple[float, float]:
    """Entropy and Fisher costs between two channel inputs.

    h is the relative entropy of the two output laws and j the relative
    Fisher information; they satisfy h <= (||tau||/2) j and
    j <= ||chi||^2 ||x1 - x2||^2.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x1.shape != x2.shape or x1.shape[0] != k.dim:
        raise ShapeError("input dimension mismatch")
    db = k.beta @ (x1 - x2)
    tau_inv = spd.sym_inv(k.tau)
    h = 0.5 * db @ tau_inv @ db
    j = db @ tau_inv @ tau_inv @ db
    return float(h), float(j)


def proximal_step(nu: GaussianMeasure, mu: GaussianMeasure, k: LinearGaussianKernel) -> GaussianMeasure:
    """One sweep of the forward/backward Gibbs chain targeting mu.

    Pushes nu through the channel, then through the exact Gaussian
    conditional of the input given the output under mu x K.  The target mu
    is invariant.
    """
    _check_model(nu, mu, k)
    u = mu.cov
    fwd_cov = spd.require_spd(k.beta @ u @ k.beta.T + k.tau)
    gain = u @ k.beta.T @ spd.sym_inv(fwd_cov)
    back_cov = spd.clamp_psd(u - gain @ k.beta @ u)

    y_mean = k.alpha + k.beta @ nu.mean
    y_cov = k.beta @ nu.cov @ k.beta.T + k.tau
    mean = mu.mean + gain @ (y_mean - (k.alpha + k.beta @ mu.mean))
    cov = spd.symmetrize(gain @ y_cov @ gain.T + back_cov)
    return GaussianMeasure(mean, cov)
