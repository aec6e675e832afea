"""Closed-form linear-Gaussian bridges, Sinkhorn recursions and divergences.

The reference channel is y = alpha + beta x + noise with noise covariance
tau.  Bridging two Gaussian marginals N(m, u) -> N(mbar, v) against that
channel reduces to Riccati fixed points; the Sinkhorn iteration reduces to
interleaved Riccati flows for the conditional covariances plus an affine
recursion for the marginal means.  Everything in this module is exact
linear algebra: no sampling anywhere.

``bridge_solve`` decomposes a problem (mu, eta, k) once into a
``GaussianBridge``, which every map, flow, gap and noise sweep reads.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import riccati, spd
from .errors import DomainError, ShapeError


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, after checking that every entry is finite; checked before any decomposition reads it."""
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite, got {np.array2string(a, threshold=8)}")
    return a


@dataclass(frozen=True)
class GaussianMeasure:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _finite(np.atleast_1d(np.asarray(self.mean, dtype=float)), "mean"))
        object.__setattr__(self, "cov", spd.require_spd(spd.matrix(self.cov)))
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
        object.__setattr__(self, "cov", spd.require_spd(spd.matrix(self.cov)))
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
    """Transition y = alpha + beta x + N(0, tau).

    ``spectrum`` hands over tau's validated eigenvalues and eigenvectors
    (w, q) with a beta that has passed its checks, as ``rescaled`` does; it
    is init-only, and without it the kernel decomposes tau itself.
    """

    alpha: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    spectrum: InitVar[tuple | None] = None
    # tau^{-1} beta, the natural coupling matrix of the channel, set once at construction
    chi: np.ndarray = field(init=False, repr=False, compare=False)
    # the (w, q) of tau that validated it, which ``rescaled`` scales
    tau_spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, spectrum):
        object.__setattr__(self, "alpha", _finite(np.atleast_1d(np.asarray(self.alpha, dtype=float)), "alpha"))
        object.__setattr__(self, "beta", _finite(spd.matrix(self.beta), "beta"))
        if spectrum is None:
            tau, *spectrum = spd._spd_eigh(spd.matrix(self.tau))
            object.__setattr__(self, "tau", tau)
            if self.beta.shape[0] != self.beta.shape[1]:
                raise ShapeError("beta must be square")
            if np.linalg.cond(self.beta) >= 1e12:
                raise DomainError("beta is singular or near-singular")
            if self.alpha.shape[0] != self.beta.shape[0] or self.tau.shape[0] != self.beta.shape[0]:
                raise ShapeError("alpha/beta/tau dimensions disagree")
        w, q = spectrum
        object.__setattr__(self, "tau_spectrum", (w, q))
        # tau^{-1} from the spectrum that validated tau, as spd.sym_inv forms it
        object.__setattr__(self, "chi", spd.symmetrize((q / w) @ q.T) @ self.beta)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    def rescaled(self, t: float) -> "LinearGaussianKernel":
        """Same channel with noise covariance t * tau, from tau's spectrum scaled by t: no decomposition."""
        w, q = self.tau_spectrum
        w = t * w
        spd._require(w[0] > spd.SPD_RTOL * np.max(w), w, "SPD")  # the check _spd_eigh makes of t * tau
        return LinearGaussianKernel(self.alpha, self.beta, t * self.tau, (w, q))


@dataclass(frozen=True)
class AffineGaussianMap:
    """Random affine map x -> intercept + slope x + N(0, noise_cov)."""

    intercept: np.ndarray
    slope: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intercept", np.atleast_1d(np.asarray(self.intercept, dtype=float)))
        object.__setattr__(self, "slope", spd.matrix(self.slope))
        object.__setattr__(self, "noise_cov", spd.clamp_psd(spd.matrix(self.noise_cov)))


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
    r: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        return self.s**-2.0

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
    return BridgeFactors(u_half, u_ihalf, v_half, v_ihalf, p, _in_double_range(s), rt.T)


def _in_double_range(s) -> np.ndarray:
    """The descending singular values s, once they lie in [1e-150, 1e150]."""
    if not (1e-150 <= s[-1] and s[0] <= 1e150):  # a NaN fails too
        raise DomainError(f"bridge is degenerate: v^(1/2) chi u^(1/2) has singular values in [{s[-1]:.3e}, {s[0]:.3e}]")
    return s


@dataclass(frozen=True)
class GaussianBridge:
    """The Schrodinger bridge between mu = N(m, u) and eta = N(mbar, v) through k.

    Every member reads ``factors``, the one decomposition ``bridge_solve``
    made.  The backward map is built only when called, the joint law only
    when read.
    """

    mu: GaussianMeasure
    eta: GaussianMeasure
    k: LinearGaussianKernel
    factors: BridgeFactors

    def _transition(self, half, basis, chi, m_from, m_to) -> AffineGaussianMap:
        # the noise is half basis diag(rho) basis' half, rho being riccati's
        # per-eigenvalue fixed point at lam = s^{-2} written in s; scaling the
        # basis by the square root before rho is applied keeps the small
        # entries of rho from drowning in the round-off of the large ones
        rho = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * self.factors.s**2))
        sigma = _congruent(half @ basis, rho)
        return AffineGaussianMap(m_to - sigma @ chi @ m_from, sigma @ chi, sigma)

    @cached_property
    def forward(self) -> AffineGaussianMap:
        """The transition x -> y; pushing mu through it reproduces eta exactly."""
        f = self.factors
        return self._transition(f.v_half, f.p, self.k.chi, self.mu.mean, self.eta.mean)

    def backward(self) -> AffineGaussianMap:
        """The transition y -> x; pushing eta through it reproduces mu exactly."""
        f = self.factors
        return self._transition(f.u_half, f.r, self.k.chi.T, self.eta.mean, self.mu.mean)

    @cached_property
    def plan(self) -> JointGaussian:
        """The joint law of the bridge coupling on (x, y)."""
        return joint_plan(self.mu, self.forward)

    def ot_limit(self) -> AffineGaussianMap:
        """The deterministic transport the bridge tends to as the noise t * tau vanishes.

        Its slope is ((chi u chi')^{-1} # v) chi, # the matrix geometric
        mean, evaluated as v^{1/2} p diag(1/s) p' v^{1/2} chi; for
        beta = tau = I it is u^{-1} # v.
        """
        f = self.factors
        slope = _congruent(f.v_half @ f.p, 1.0 / f.s) @ self.k.chi
        return AffineGaussianMap(self.eta.mean - slope @ self.mu.mean, slope, np.zeros_like(self.mu.cov))

    def rescaled(self, t: float) -> "GaussianBridge":
        """The bridge for the channel noise t * tau, without a new decomposition.

        Scaling tau by t scales chi by 1/t, so of all the factors only the
        singular values change, to s / t.
        """
        k = self.k.rescaled(t)
        return GaussianBridge(self.mu, self.eta, k, self.factors._replace(s=_in_double_range(self.factors.s / t)))


def bridge_solve(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel) -> GaussianBridge:
    """Closed-form bridge between two Gaussians for a linear-Gaussian channel, decomposed once."""
    _check_model(mu, eta, k)
    return GaussianBridge(mu, eta, k, bridge_factors(mu.cov, eta.cov, k.chi))


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


def sinkhorn_run(bridge: GaussianBridge, n_max: int):
    """Run the closed-form Gaussian Sinkhorn recursion.

    Parameters
    ----------
    bridge : GaussianBridge
        The bridge of the marginals N(m, u), N(mbar, v) and the reference
        channel, whose decomposition both Riccati flows run from.
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
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    mu, eta, k, f = bridge.mu, bridge.eta, bridge.k, bridge.factors
    u, v = mu.cov, eta.cov
    m, mbar = mu.mean, eta.mean
    chi = k.chi

    # n = 0: the reference channel itself, pi_0 = mu K; n = 1: its conjugate
    tau_odd = spd.sym_inv(spd.sym_inv(u) + chi.T @ k.tau @ chi)
    # the rescaled covariance flows do not depend on the means: one Riccati
    # trajectory each, in the eigenbases p and r of varpi_0 and varpi_1 that
    # the SVD gave; both starts are congruences of SPD matrices
    evens, _ = riccati._iterate_spectral(f.lam, f.p, spd.symmetrize(f.v_ihalf @ k.tau @ f.v_ihalf), n_max)
    odds, _ = riccati._iterate_spectral(f.lam, f.r, spd.symmetrize(f.u_ihalf @ tau_odd @ f.u_ihalf), n_max)
    # the conditional and marginal covariances of every state, one stack per
    # parity: even states push u through x -> y, odd states push v through y -> x
    tau_e = np.concatenate([k.tau[None], spd.symmetrize(f.v_half @ evens[1:] @ f.v_half)])
    tau_o = np.concatenate([tau_odd[None], spd.symmetrize(f.u_half @ odds[1:] @ f.u_half)])
    sigma_e = spd.symmetrize(tau_e @ chi @ u @ chi.T @ tau_e + tau_e)
    sigma_o = spd.symmetrize(tau_o @ chi.T @ v @ chi @ tau_o + tau_o)
    gain_e, gain_o = tau_e @ chi, tau_o @ chi.T

    # only the mean recursion runs state by state
    states = []
    for j in range(n_max + 1):
        m_even = k.alpha + k.beta @ m if j == 0 else mbar + gain_e[j] @ (m - m_odd)
        m_odd = m + gain_o[j] @ (mbar - m_even)
        states.append(GaussianSinkhornState(2 * j, tau_e[j], m_even, sigma_e[j]))
        states.append(GaussianSinkhornState(2 * j + 1, tau_o[j], m_odd, sigma_o[j]))
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


def bridge_gaps(bridge: GaussianBridge, states) -> np.ndarray:
    """``gaussian_kl(bridge.plan, state_plan(s, mu, eta, k))`` for every state s, as one array.

    The plans of all states are assembled as one stack of joint covariances
    on (x, y), odd states with their coordinates swapped as ``state_plan``
    swaps them.  The noise covariances pass one stacked ``clamp_psd``, and
    the joints one stacked ``sym_inv`` that is also their SPD check, so the
    cost in decompositions does not grow with the number of states.  Each
    gap is bitwise the one the per-state calls give.
    """
    mu, eta, k = bridge.mu, bridge.eta, bridge.k
    d = mu.dim
    tau = np.stack([s.tau_n for s in states])
    m_n = np.stack([s.m_n for s in states])
    noise = spd.clamp_psd(tau)
    means = np.empty((len(states), 2 * d))
    covs = np.empty((len(states), 2 * d, 2 * d))
    parity = np.array([s.n % 2 for s in states])
    # even states map x ~ mu through chi, odd states y ~ eta through chi';
    # src_blk and dst_blk are where the mapped coordinate and its image sit in (x, y)
    for odd, src, a in ((0, mu, k.chi), (1, eta, k.chi.T)):
        i = np.flatnonzero(parity == odd)
        slope = tau[i] @ a
        intercept = m_n[i] - slope @ src.mean
        cross = src.cov @ slope.swapaxes(-1, -2)
        src_blk, dst_blk = (slice(d, None), slice(None, d)) if odd else (slice(None, d), slice(d, None))
        means[i, src_blk] = src.mean
        means[i, dst_blk] = intercept + slope @ src.mean
        covs[i, src_blk, src_blk] = src.cov
        covs[i, src_blk, dst_blk] = cross
        covs[i, dst_blk, src_blk] = cross.swapaxes(-1, -2)
        covs[i, dst_blk, dst_blk] = slope @ src.cov @ slope.swapaxes(-1, -2) + noise[i]
    try:
        return _kl(bridge.plan.mean, bridge.plan.cov, means, spd.symmetrize(covs))
    except DomainError as exc:
        raise DomainError("joint covariance is degenerate (noiseless rank-deficient map)") from exc


def _kl(p_mean, p_cov, q_mean, q_cov):
    """Relative entropy of N(p_mean, p_cov) to N(q_mean, q_cov), or to each of a stack of them."""
    q_inv = spd.sym_inv(q_cov)
    dm = (p_mean - q_mean)[..., None, :]
    _, ld_p = np.linalg.slogdet(p_cov)
    _, ld_q = np.linalg.slogdet(q_cov)
    quad = (dm @ q_inv @ dm.swapaxes(-1, -2))[..., 0, 0]
    val = 0.5 * (np.trace(q_inv @ p_cov, axis1=-2, axis2=-1) - p_mean.shape[-1] + quad + ld_q - ld_p)
    return np.maximum(val, 0.0)


def gaussian_kl(p, q) -> float:
    """Relative entropy between two Gaussians (measures or joints)."""
    if p.mean.shape != q.mean.shape:
        raise ShapeError("dimension mismatch")
    return float(_kl(p.mean, p.cov, q.mean, q.cov))


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


def proximal_step(nu: GaussianMeasure, mu: GaussianMeasure, k: LinearGaussianKernel) -> GaussianMeasure:
    """One sweep of the forward/backward Gibbs chain targeting mu.

    Pushes nu through the channel, then through the exact Gaussian
    conditional of the input given the output under mu x K.  The target mu
    is invariant.
    """
    _check_model(nu, mu, k)
    u = mu.cov
    # sym_inv validates the forward covariance on the one decomposition it inverts with
    gain = u @ k.beta.T @ spd.sym_inv(k.beta @ u @ k.beta.T + k.tau)
    back_cov = spd.clamp_psd(u - gain @ k.beta @ u)

    y_mean = k.alpha + k.beta @ nu.mean
    y_cov = k.beta @ nu.cov @ k.beta.T + k.tau
    mean = mu.mean + gain @ (y_mean - (k.alpha + k.beta @ mu.mean))
    cov = spd.symmetrize(gain @ y_cov @ gain.T + back_cov)
    return GaussianMeasure(mean, cov)
