"""Closed-form linear-Gaussian bridges, Sinkhorn recursions and divergences.

The reference channel is y = alpha + beta x + noise with noise covariance
tau.  Bridging two Gaussian marginals N(m, u) -> N(mbar, v) against that
channel reduces to Riccati fixed points; the Sinkhorn iteration reduces to
interleaved Riccati flows for the conditional covariances plus an affine
recursion for the marginal means.  Everything in this module is exact
linear algebra: no sampling anywhere.

``bridge_solve`` decomposes a problem (mu, eta, k) once into a
``GaussianBridge``, which every map, flow, gap and noise sweep reads.

Every measure, kernel, map, bridge and Sinkhorn state here holds one
model or a stack of models of one dimension d: a mean (..., d) beside a
covariance (..., d, d), the leading batch axes shared by every part of a
problem.  One model is the stack with no leading axes.  Each LAPACK call
and each step of the mean recursion is made once for the whole stack,
and each model's result is bitwise the one a call on that model alone
gives.  A failing slice of a stack is named by its index.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import riccati, spd
from .errors import DomainError, ShapeError


def _mv(a, x) -> np.ndarray:
    """a x for a matrix a and a vector x, or for each pair of a stack."""
    return (a @ x[..., None])[..., 0]


def _t(a) -> np.ndarray:
    """a', or the transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a``, after checking that every entry is finite; checked before any decomposition reads it."""
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite, got {np.array2string(a, threshold=8)}")
    return a


@dataclass(frozen=True)
class GaussianMeasure:
    """N(mean, cov), or a stack of them.

    ``cov_spectrum`` holds the (w, q) of cov that validated it; the
    bridge's roots, ``sinkhorn_run``'s inverse of u, ``gaussian_kl``'s
    inverse and ``gelbrich_w2``'s roots are built from it, so cov is
    decomposed once.
    """

    mean: np.ndarray
    cov: np.ndarray
    cov_spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", _finite(np.atleast_1d(np.asarray(self.mean, dtype=float)), "mean"))
        cov, *spectrum = spd._spd_eigh(spd.matrix(self.cov))
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "cov_spectrum", tuple(spectrum))
        if self.mean.shape != self.cov.shape[:-1]:
            raise ShapeError(f"mean/cov mismatch: {self.mean.shape} vs {self.cov.shape}")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


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
            if self.beta.shape[-1] != self.beta.shape[-2]:
                raise ShapeError("beta must be square")
            regular = spd.condition_number(self.beta) < 1e12
            if not np.all(regular):
                raise DomainError(f"beta{spd._failing_slice(regular)[1]} is singular or near-singular")
            if self.alpha.shape != self.beta.shape[:-1] or self.tau.shape != self.beta.shape:
                raise ShapeError("alpha/beta/tau dimensions disagree")
        w, q = spectrum
        object.__setattr__(self, "tau_spectrum", (w, q))
        # tau^{-1} from the spectrum that validated tau
        object.__setattr__(self, "chi", spd._inverse(w, q) @ self.beta)

    @property
    def dim(self) -> int:
        return self.beta.shape[-1]

    def rescaled(self, t: float) -> "LinearGaussianKernel":
        """Same channel with noise covariance t * tau, from tau's spectrum scaled by t: no decomposition."""
        w, q = self.tau_spectrum
        w = t * w
        spd._require_spd_spectrum(w)  # the check _spd_eigh makes of t * tau
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
    """One Sinkhorn iterate: conditional covariance, marginal mean and covariance.

    ``delta`` is tau_n's distance to the bridge's conditional covariance,
    Delta_n = q' h^{-1} tau_n h^{-1} q - diag(f(lam)) with (h, q) = (v^{1/2}, p)
    for even n and (u^{1/2}, r) for odd n, as the Riccati flow gives it;
    ``offset`` is m_n minus the bridge's mean of the same marginal, mbar for
    even n and m for odd n.  ``bridge_gaps`` reads both.
    """

    n: int
    tau_n: np.ndarray
    m_n: np.ndarray
    sigma_pi_n: np.ndarray
    delta: np.ndarray
    offset: np.ndarray


def _check_model(mu: GaussianMeasure, eta: GaussianMeasure, k: LinearGaussianKernel):
    if not (mu.cov.shape == eta.cov.shape == k.tau.shape):
        raise ShapeError(f"dimension mismatch: mu {mu.cov.shape}, eta {eta.cov.shape}, kernel {k.tau.shape}")


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
    """a diag(w) a', per slice of a stack."""
    return spd.symmetrize((a * w[..., None, :]) @ _t(a))


def bridge_factors(u, v, chi) -> BridgeFactors:
    """The one decomposition of a bridge between N(., u) and N(., v) through chi.

    u and v come as the validated spectra (w, q) that a ``GaussianMeasure``
    or a ``bounds.CurvatureSpec`` holds, so their roots need no
    decomposition; the one made here is the SVD of v^{1/2} chi u^{1/2}.
    No inverse of u, v or a congruence is formed.  Raises DomainError when
    a singular value lies outside [1e-150, 1e150], where s^2 or s^{-2}
    would over- or underflow.
    """
    u_half, u_ihalf = spd._sqrt_pair(*u)
    v_half, v_ihalf = spd._sqrt_pair(*v)
    p, s, rt = np.linalg.svd(v_half @ chi @ u_half)
    return BridgeFactors(u_half, u_ihalf, v_half, v_ihalf, p, _in_double_range(s), _t(rt))


def _in_double_range(s) -> np.ndarray:
    """The descending singular values s, once each slice's lie in [1e-150, 1e150]."""
    ok = (1e-150 <= s[..., -1]) & (s[..., 0] <= 1e150)  # a NaN fails too
    if not np.all(ok):
        i, where = spd._failing_slice(ok)
        raise DomainError(f"bridge{where} is degenerate: v^(1/2) chi u^(1/2) has singular values in "
                          f"[{s[i][-1]:.3e}, {s[i][0]:.3e}]")
    return s


@dataclass(frozen=True)
class GaussianBridge:
    """The Schrodinger bridge between mu = N(m, u) and eta = N(mbar, v) through k.

    Every member reads ``factors``, the one decomposition ``bridge_solve``
    made.  The backward map is built only when called.
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
        slope = sigma @ chi
        return AffineGaussianMap(m_to - _mv(slope, m_from), slope, sigma)

    @cached_property
    def forward(self) -> AffineGaussianMap:
        """The transition x -> y; pushing mu through it reproduces eta exactly."""
        f = self.factors
        return self._transition(f.v_half, f.p, self.k.chi, self.mu.mean, self.eta.mean)

    def backward(self) -> AffineGaussianMap:
        """The transition y -> x; pushing eta through it reproduces mu exactly."""
        f = self.factors
        return self._transition(f.u_half, f.r, _t(self.k.chi), self.eta.mean, self.mu.mean)

    def ot_limit(self) -> AffineGaussianMap:
        """The deterministic transport the bridge tends to as the noise t * tau vanishes.

        Its slope is ((chi u chi')^{-1} # v) chi, # the matrix geometric
        mean, evaluated as v^{1/2} p diag(1/s) p' v^{1/2} chi; for
        beta = tau = I it is u^{-1} # v.
        """
        f = self.factors
        slope = _congruent(f.v_half @ f.p, 1.0 / f.s) @ self.k.chi
        return AffineGaussianMap(self.eta.mean - _mv(slope, self.mu.mean), slope, np.zeros_like(self.mu.cov))

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
    return GaussianBridge(mu, eta, k, bridge_factors(mu.cov_spectrum, eta.cov_spectrum, k.chi))


def push_through(p: GaussianMeasure, f: AffineGaussianMap) -> GaussianMeasure:
    """Image of a Gaussian under an affine Gaussian map."""
    mean = f.intercept + _mv(f.slope, p.mean)
    cov = f.slope @ p.cov @ _t(f.slope) + f.noise_cov
    return GaussianMeasure(mean, cov)


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
        describe transitions y -> x with first marginal pi_{2n+1}.  For a
        stack of bridges each state holds every model's, stacked alike.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    mu, eta, k, f = bridge.mu, bridge.eta, bridge.k, bridge.factors
    u, v = mu.cov, eta.cov
    m, mbar = mu.mean, eta.mean
    chi = k.chi

    # n = 0: the reference channel itself, pi_0 = mu K; n = 1: its conjugate, u^{-1} from mu's spectrum
    tau_odd = spd.sym_inv(spd._inverse(*mu.cov_spectrum) + _t(chi) @ k.tau @ chi)
    # the rescaled covariance flows do not depend on the means: one Riccati
    # trajectory each, in the eigenbases p and r of varpi_0 and varpi_1 that
    # the SVD gave; both starts are congruences of SPD matrices
    evens, delta_e = riccati._iterate_spectral(f.lam, f.p, spd.symmetrize(f.v_ihalf @ k.tau @ f.v_ihalf), n_max)
    odds, delta_o = riccati._iterate_spectral(f.lam, f.r, spd.symmetrize(f.u_ihalf @ tau_odd @ f.u_ihalf), n_max)
    # the conditional and marginal covariances of every state, one stack per
    # parity: even states push u through x -> y, odd states push v through y -> x
    tau_e = np.concatenate([k.tau[None], spd.symmetrize(f.v_half @ evens[1:] @ f.v_half)])
    tau_o = np.concatenate([tau_odd[None], spd.symmetrize(f.u_half @ odds[1:] @ f.u_half)])
    sigma_e = spd.symmetrize(tau_e @ chi @ u @ _t(chi) @ tau_e + tau_e)
    sigma_o = spd.symmetrize(tau_o @ _t(chi) @ v @ chi @ tau_o + tau_o)
    gain_e, gain_o = tau_e @ chi, tau_o @ _t(chi)

    # only the mean recursion runs state by state, once for the whole stack and
    # on column vectors (..., d, 1); beside it the offsets m_even - mbar and
    # m_odd - m run as products, so that only the first is a difference
    m, mbar = m[..., None], mbar[..., None]
    neg_e, neg_o = -gain_e, -gain_o
    states = []
    for j in range(n_max + 1):
        if j == 0:
            m_even = k.alpha[..., None] + k.beta @ m
            e = m_even - mbar
        else:
            m_even = mbar + gain_e[j] @ (m - m_odd)
            e = neg_e[j] @ o
        m_odd = m + gain_o[j] @ (mbar - m_even)
        o = neg_o[j] @ e
        states.append(GaussianSinkhornState(2 * j, tau_e[j], m_even[..., 0], sigma_e[j], delta_e[j], e[..., 0]))
        states.append(GaussianSinkhornState(2 * j + 1, tau_o[j], m_odd[..., 0], sigma_o[j], delta_o[j], o[..., 0]))
    return states


def _psi(y):
    """psi(y) = log1p(y) - y / (1 + y) >= 0 for each y > -1; a series below |y| = 0.05, where the two terms cancel."""
    small = np.abs(y) < 0.05
    ys = np.where(small, y, 0.0)
    # psi(y) = sum_{k >= 2} (-1)^k (k - 1) / k y^k, to k = 16 in Horner form: the tail is below 1e-19 psi
    series = np.zeros_like(ys)
    for k in range(16, 1, -1):
        series = ys * (series + (-1) ** k * (k - 1) / k)
    series *= ys
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log1p(y) - y / (1.0 + y)
    return np.where(small, series, direct)


def bridge_gaps(bridge: GaussianBridge, states) -> np.ndarray:
    """The relative entropy H(P* | P_n) of the bridge plan to each state's plan, as one array.

    An even plan shares its first marginal mu with the bridge, an odd plan
    its second marginal eta, so by the chain rule its gap is the average
    over that marginal of the KL between the two Gaussian transitions.  In
    the whitened basis of the state's parity (``GaussianSinkhornState``) the
    bridge's conditional covariance is F = diag(f(lam)) and the state's
    A = F + Delta; with S = diag(s) and the offset e~ in that basis,

        gap = 1/2 [sum_i psi(y_i) + e~' A^{-1} e~ + tr(A^{-1} Delta S^2 Delta)],

    the y_i being the eigenvalues of Y = F^{-1/2} Delta F^{-1/2}.  From
    Y = W diag(y) W' each term is a sum of nonnegative ones, and nothing is
    subtracted after Delta_n and the offset, which ``sinkhorn_run`` carries,
    so a gap far below the round-off of the plans keeps its relative
    accuracy.  One stacked d x d eigh per parity, whatever the number of
    states and models.  For a stack of bridges gaps[n] holds every model's
    gap n, so each model's sequence is a column.
    """
    f = bridge.factors
    fix = riccati._fixed_scalar(f.lam)
    root = np.sqrt(fix)[..., None, :]  # (..., 1, d): a state's axes follow the states axis
    weight = (f.s**2 * fix)[..., None, :, None]  # the diagonal of F^{1/2} S^2 F^{1/2}
    parity = np.array([s.n % 2 for s in states])
    gaps = np.empty((len(states), *f.s.shape[:-1]))
    for odd, ihalf, basis in ((0, f.v_ihalf, f.p), (1, f.u_ihalf, f.r)):
        i = np.flatnonzero(parity == odd)
        if not len(i):
            continue
        delta = np.stack([states[j].delta for j in i], axis=-3)
        y, w = np.linalg.eigh(delta / root[..., None] / root[..., None, :])
        if not np.all(y > -1.0):  # a NaN fails too
            raise DomainError("a Sinkhorn state's conditional covariance is not positive definite")
        # W' F^{-1/2} e~, e~ = basis' ihalf e, for each offset e
        z = (np.stack([states[j].offset for j in i], axis=-2) @ ihalf @ basis / root)[..., None, :] @ w
        mean_part = np.sum(z[..., 0, :] ** 2 / (1.0 + y), axis=-1)
        cross_part = np.sum(y**2 / (1.0 + y) * (weight * w**2).sum(axis=-2), axis=-1)
        gaps[i] = np.moveaxis(0.5 * (_psi(y).sum(axis=-1) + mean_part + cross_part), -1, 0)
    return gaps


def _pair_dims(p, q) -> None:
    """Raise ShapeError unless p and q have one dimension and, when both are stacks, one batch shape."""
    a, b = p.mean.shape, q.mean.shape
    if a[-1] != b[-1] or (len(a) > 1 and len(b) > 1 and a != b):
        raise ShapeError("dimension mismatch")


def _per_model(x):
    """A float for one model, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def gaussian_kl(p: GaussianMeasure, q: GaussianMeasure):
    """Relative entropy between two Gaussians; q's inverse comes from its held spectrum.

    Either side may be a stack against one measure on the other, whose
    inverse and log-determinant are then made once; the result is a float
    for one pair and one value per model for a stack.
    """
    _pair_dims(p, q)
    q_inv = spd._inverse(*q.cov_spectrum)
    dm = (p.mean - q.mean)[..., None, :]
    _, ld_p = np.linalg.slogdet(p.cov)
    _, ld_q = np.linalg.slogdet(q.cov)
    quad = (dm @ q_inv @ _t(dm))[..., 0, 0]
    tr = np.trace(q_inv @ p.cov, axis1=-2, axis2=-1)
    return _per_model(np.maximum(0.5 * (tr - p.mean.shape[-1] + quad + ld_q - ld_p), 0.0))


def gelbrich_w2(p: GaussianMeasure, q: GaussianMeasure):
    """2-Wasserstein distance between Gaussians in closed form.

    Either side may be a stack against one measure on the other, whose
    root is then taken once; a float for one pair, one value per model for
    a stack.  Both roots come from the measures' held spectra.
    """
    _pair_dims(p, q)
    # the covariance part tr(p + q - 2 (p^{1/2} q p^{1/2})^{1/2}) equals
    # ||p^{1/2} - q^{1/2} V W'||_F^2 for the SVD W S V' of p^{1/2} q^{1/2}:
    # a sum of squares, so it cannot cancel below round-off
    p_half = spd._sqrt(*p.cov_spectrum)
    q_half = spd._sqrt(*q.cov_spectrum)
    w, _, vt = np.linalg.svd(p_half @ q_half)
    diff = p_half - q_half @ _t(vt) @ _t(w)
    return _per_model(np.sqrt(np.sum((p.mean - q.mean) ** 2, axis=-1) + np.sum(diff**2, axis=(-2, -1))))


def entropic_map_gradient(bridge: AffineGaussianMap) -> np.ndarray:
    """Gradient of the bridge's conditional-mean map.

    For an affine conditional mean x -> intercept + slope x the gradient in
    the column-stacking convention is slope transposed; for bridge maps it
    satisfies the conditional-covariance identity
    gradient @ chi == chi' @ noise_cov @ chi (and the flat analogue).
    """
    return _t(bridge.slope).copy()


def _gibbs_backward(mu: GaussianMeasure, k: LinearGaussianKernel):
    """The gain and covariance of the exact conditional of the input given the output under mu x K."""
    u = mu.cov
    # sym_inv validates the forward covariance on the one decomposition it inverts with
    gain = u @ k.beta.T @ spd.sym_inv(k.beta @ u @ k.beta.T + k.tau)
    return gain, spd.clamp_psd(u - gain @ k.beta @ u)


def _gibbs_sweep(mean, cov, mu: GaussianMeasure, k: LinearGaussianKernel, gain, back_cov):
    """The mean and covariance of one sweep's image of N(mean, cov), from ``_gibbs_backward``'s pair; unvalidated."""
    y_mean = k.alpha + k.beta @ mean
    y_cov = k.beta @ cov @ k.beta.T + k.tau
    mean = mu.mean + gain @ (y_mean - (k.alpha + k.beta @ mu.mean))
    return mean, spd.symmetrize(gain @ y_cov @ gain.T + back_cov)


def proximal_step(nu: GaussianMeasure, mu: GaussianMeasure, k: LinearGaussianKernel) -> GaussianMeasure:
    """One sweep of the forward/backward Gibbs chain targeting mu.

    Pushes nu through the channel, then through the exact Gaussian
    conditional of the input given the output under mu x K.  The target mu
    is invariant.
    """
    _check_model(nu, mu, k)
    return GaussianMeasure(*_gibbs_sweep(nu.mean, nu.cov, mu, k, *_gibbs_backward(mu, k)))


def proximal_chain(nu: GaussianMeasure, mu: GaussianMeasure, k: LinearGaussianKernel, steps: int) -> GaussianMeasure:
    """nu and its images after 1, ..., ``steps`` sweeps of ``proximal_step``, as one stacked measure.

    The gain and backward covariance are formed once, only the mean and
    covariance recursion runs sweep by sweep, and the marginals are
    validated as one stack; slice n is bitwise n ``proximal_step`` calls from nu.
    """
    _check_model(nu, mu, k)
    gain, back_cov = _gibbs_backward(mu, k)
    means, covs = [nu.mean], [nu.cov]
    for _ in range(steps):
        mean, cov = _gibbs_sweep(means[-1], covs[-1], mu, k, gain, back_cov)
        means.append(mean)
        covs.append(cov)
    return GaussianMeasure(np.stack(means), np.stack(covs))
