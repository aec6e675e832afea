"""Closed-form linear-Gaussian bridges, Sinkhorn recursions and divergences.

The reference channel is y = alpha + beta x + noise with noise covariance
tau.  Bridging two Gaussian marginals N(m, u) -> N(mbar, v) against that
channel reduces to Riccati fixed points; the Sinkhorn iteration reduces to
interleaved Riccati flows for the conditional covariances plus an affine
recursion for the marginal means.  Everything in this module is exact
linear algebra: no sampling anywhere.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

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
    # tau^{-1} beta, the natural coupling matrix of the channel, set once at construction
    chi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_2d(np.asarray(self.beta, dtype=float)))
        tau, w, q = spd._spd_eigh(np.atleast_2d(np.asarray(self.tau, dtype=float)))
        object.__setattr__(self, "tau", tau)
        if self.beta.shape[0] != self.beta.shape[1]:
            raise ShapeError("beta must be square")
        if np.linalg.cond(self.beta) >= 1e12:
            raise DomainError("beta is singular or near-singular")
        if self.alpha.shape[0] != self.beta.shape[0] or self.tau.shape[0] != self.beta.shape[0]:
            raise ShapeError("alpha/beta/tau dimensions disagree")
        # tau^{-1} from the spectrum that validated tau, as spd.sym_inv forms it
        object.__setattr__(self, "chi", spd.symmetrize((q / w) @ q.T) @ self.beta)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

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


class BridgeFactors(NamedTuple):
    """The decomposition a Gaussian bridge problem is solved from.

    Square roots and inverse square roots of u and v, and the SVD
    G = v^{1/2} chi u^{1/2} = p diag(s) r' with lam = s^{-2}.  The two
    Riccati parameters are varpi_0 = (G G')^{-1} = p diag(lam) p' and
    varpi_1 = (G' G)^{-1} = r diag(lam) r', so p and r are their
    eigenbases and lam, ascending since s descends, their common spectrum.
    """

    u_half: np.ndarray
    u_ihalf: np.ndarray
    v_half: np.ndarray
    v_ihalf: np.ndarray
    p: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    r: np.ndarray

    def spectra(self):
        """The Riccati parameters (varpi_0, varpi_1), as the spectra the SVD gave."""
        return riccati.Spectrum(self.lam, self.p), riccati.Spectrum(self.lam, self.r)


def _congruent(a, w) -> np.ndarray:
    """a diag(w) a'."""
    return spd.symmetrize((a * w) @ a.T)


def bridge_factors(u, v, chi) -> BridgeFactors:
    """The one decomposition of a bridge between N(., u) and N(., v) through chi.

    One validated eigh each of u and v and one SVD of v^{1/2} chi u^{1/2};
    no inverse of u, v or a congruence is formed.  Raises DomainError when
    a singular value lies outside [1e-150, 1e150], where s^2 or s^{-2}
    would over- or underflow.
    """
    u_half, u_ihalf = spd.sqrt_pair(u)
    v_half, v_ihalf = spd.sqrt_pair(v)
    p, s, rt = np.linalg.svd(v_half @ chi @ u_half)
    if not (1e-150 <= s[-1] and s[0] <= 1e150):  # a NaN fails too
        raise DomainError(f"bridge is degenerate: v^(1/2) chi u^(1/2) has singular values in [{s[-1]:.3e}, {s[0]:.3e}]")
    return BridgeFactors(u_half, u_ihalf, v_half, v_ihalf, p, s, s**-2.0, rt.T)


def varpi_pair(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    """Riccati parameters of the two conditional-covariance flows.

    Returns (v^{-1/2} (chi u chi')^{-1} v^{-1/2}, u^{-1/2} (chi' v chi)^{-1} u^{-1/2}),
    assembled as matrices from one SVD by ``bridge_factors``.  Their
    condition number is cond(v^{1/2} chi u^{1/2})^2; the Riccati layer
    takes ``BridgeFactors.spectra`` instead, which carries no such loss.
    """
    _check_model(mu, eta, k)
    f = bridge_factors(mu.cov, eta.cov, k.chi)
    return _congruent(f.p, f.lam), _congruent(f.r, f.lam)


def bridge_solve(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    """Closed-form bridge between two Gaussians for a linear-Gaussian channel.

    Returns the forward transition (x -> y) and the backward transition
    (y -> x) as affine Gaussian maps.  The forward noise covariance is
    v^{1/2} r v^{1/2} with r the Riccati fixed point for the first flow
    parameter; pushing mu through the forward map reproduces eta exactly.
    """
    _check_model(mu, eta, k)
    m, mbar = mu.mean, eta.mean
    chi = k.chi
    f = bridge_factors(mu.cov, eta.cov, chi)
    # the fixed points are p diag(rho) p' and r diag(rho) r', rho being
    # riccati's per-eigenvalue fixed point at lam = s^{-2} written in s;
    # scaling p and r by the square roots before rho is applied keeps the
    # small entries of rho from drowning in the round-off of the large ones
    rho = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * f.s**2))

    sigma_fwd = _congruent(f.v_half @ f.p, rho)
    fwd = AffineGaussianMap(mbar - sigma_fwd @ chi @ m, sigma_fwd @ chi, sigma_fwd)

    sigma_bwd = _congruent(f.u_half @ f.r, rho)
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


def sinkhorn_run(mu, eta, k, n_max: int):
    """Run the closed-form Gaussian Sinkhorn recursion.

    Parameters
    ----------
    mu, eta : GaussianMeasure
        Marginals N(m, u) and N(mbar, v).
    k : LinearGaussianKernel
        Reference channel.
    n_max : int
        Number of half-step pairs; the returned list holds states for
        n = 0, 1, ..., 2*n_max + 1.

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
    f = bridge_factors(u, v, chi)

    def state(n, tau_n, m_n):
        # even states push u through x -> y, odd states push v through y -> x
        a, cov = (chi, u) if n % 2 == 0 else (chi.T, v)
        sigma_pi = spd.symmetrize(tau_n @ a @ cov @ a.T @ tau_n + tau_n)
        return GaussianSinkhornState(n, tau_n, m_n, sigma_pi)

    # n = 0: the reference channel itself, pi_0 = mu K; n = 1: its conjugate
    tau_even = k.tau
    tau_odd = spd.sym_inv(spd.sym_inv(u) + chi.T @ k.tau @ chi)
    # the rescaled covariance flows do not depend on the means: one Riccati
    # trajectory each, in the eigenbases p and r of varpi_0 and varpi_1 that
    # the SVD gave, then the mean recursion runs along them; both starts are
    # congruences of SPD matrices
    evens = riccati._iterate_spectral(f.lam, f.p, spd.symmetrize(f.v_ihalf @ tau_even @ f.v_ihalf), n_max)
    odds = riccati._iterate_spectral(f.lam, f.r, spd.symmetrize(f.u_ihalf @ tau_odd @ f.u_ihalf), n_max)

    m_even = k.alpha + k.beta @ m
    m_odd = m + tau_odd @ chi.T @ (mbar - m_even)
    states = [state(0, tau_even, m_even), state(1, tau_odd, m_odd)]
    for j in range(1, n_max + 1):
        tau_even = spd.symmetrize(f.v_half @ evens[j] @ f.v_half)
        m_even = mbar + tau_even @ chi @ (m - m_odd)
        states.append(state(2 * j, tau_even, m_even))

        tau_odd = spd.symmetrize(f.u_half @ odds[j] @ f.u_half)
        m_odd = m + tau_odd @ chi.T @ (mbar - m_even)
        states.append(state(2 * j + 1, tau_odd, m_odd))
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
    # the covariance part tr(p + q - 2 (p^{1/2} q p^{1/2})^{1/2}) equals
    # ||p^{1/2} - q^{1/2} V W'||_F^2 for the SVD W S V' of p^{1/2} q^{1/2}:
    # a sum of squares, so it cannot cancel below round-off
    p_half = spd.principal_sqrt(p.cov)
    q_half = spd.principal_sqrt(q.cov)
    w, _, vt = np.linalg.svd(p_half @ q_half)
    diff = p_half - q_half @ vt.T @ w.T
    return float(np.sqrt(np.sum((p.mean - q.mean) ** 2) + np.sum(diff**2)))


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
    geometric mean; for beta = tau0 = I this is u^{-1} # v.  With
    v^{1/2} chi0 u^{1/2} = p diag(s) r' the geometric mean is
    v^{1/2} p diag(1/s) p' v^{1/2}.
    """
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    k0 = LinearGaussianKernel(np.zeros(beta.shape[0]), beta, tau0)
    _check_model(mu, eta, k0)
    f = bridge_factors(mu.cov, eta.cov, k0.chi)
    slope = _congruent(f.v_half @ f.p, 1.0 / f.s) @ k0.chi
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
