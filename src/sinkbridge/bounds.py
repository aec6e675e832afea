"""Explicit contraction constants, curvature flows and rate envelopes.

Curvature data comes in as two-sided Hessian bounds on the marginal
potentials: SPD matrices u_plus, v_plus for the lower bounds and either SPD
matrices or the distinguished value ZERO for the upper-bound factors
u_minus, v_minus (ZERO encodes "no upper curvature bound", which turns the
matching Riccati parameters INFINITE).  Log-Sobolev constants that the
theory only asserts to exist are accepted as user inputs, never computed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import riccati, spd
from .errors import DomainError, ShapeError
from .gaussian import LinearGaussianKernel, bridge_factors
from .riccati import INFINITE


class _ZeroFactor:
    """Sentinel for a null curvature factor (inverse = infinity)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


ZERO = _ZeroFactor()


def is_zero(x) -> bool:
    return x is ZERO


@dataclass(frozen=True)
class CurvatureSpec:
    """Two-sided curvature bounds on the marginal potentials.

    u_plus and v_plus bound the Hessians below (as u_plus^{-1}, v_plus^{-1});
    u_minus and v_minus bound them above, with ZERO meaning unbounded.
    """

    u_plus: np.ndarray
    v_plus: np.ndarray
    u_minus: object = ZERO
    v_minus: object = ZERO

    def __post_init__(self):
        object.__setattr__(self, "u_plus", spd.require_spd(spd.matrix(self.u_plus)))
        object.__setattr__(self, "v_plus", spd.require_spd(spd.matrix(self.v_plus)))
        for name in ("u_minus", "v_minus"):
            val = getattr(self, name)
            if not is_zero(val):
                object.__setattr__(self, name, spd.require_spd(spd.matrix(val)))
        shapes = {f.shape for f in (self.u_plus, self.v_plus, self.u_minus, self.v_minus) if not is_zero(f)}
        if len(shapes) > 1:
            raise ShapeError(f"curvature factors disagree in shape: {sorted(shapes)}")

    @property
    def dim(self) -> int:
        return self.u_plus.shape[0]

    @classmethod
    def gaussian(cls, u, v) -> "CurvatureSpec":
        """Equality case: both curvature bounds equal the true covariances."""
        u = spd.matrix(u)
        v = spd.matrix(v)
        return cls(u_plus=u, v_plus=v, u_minus=u, v_minus=v)


def eps_generic(kappa: float, rho1: float, rho2: float) -> float:
    """Entropy-contraction coefficient kappa^2 * rho1 * rho2."""
    if kappa <= 0 or rho1 <= 0 or rho2 <= 0:
        raise DomainError("eps_generic requires positive arguments")
    eps = kappa * kappa * rho1 * rho2
    if not np.isfinite(eps):
        raise DomainError(f"contraction coefficient overflows: kappa={kappa:.3e}, rho1={rho1:.3e}, rho2={rho2:.3e}")
    return eps


def eps_lg(k: LinearGaussianKernel, spec: CurvatureSpec) -> float:
    """Entropy-contraction coefficient of a linear-Gaussian channel.

    ||tau^{-1} beta||^2 ||u_plus|| ||v_plus||; for beta = I, tau = t I this
    is ||u_plus|| ||v_plus|| / t^2.
    """
    kappa = spd.spectral_norm(k.chi)
    return eps_generic(kappa, spd.spectral_norm(spec.u_plus), spd.spectral_norm(spec.v_plus))


def phi(eps: float) -> float:
    """Improved-rate exponent: eps^{-1} / (sqrt(1/4 + eps^{-1}) + 1/2).

    Satisfies (1 + phi)^2 == 1 + 1/eps + phi, hence
    (1 + phi)^{-2} < (1 + 1/eps)^{-1} strictly.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    inv = 1.0 / eps
    return inv / (np.sqrt(0.25 + inv) + 0.5)


def varpi_family(k: LinearGaussianKernel, spec: CurvatureSpec):
    """Riccati parameters (w0, w1, w0_bar, w1_bar) of the curvature flows.

    Two bridge decompositions give them in pairs: v_minus^{1/2} chi
    u_plus^{1/2} gives (w0, w1_bar) and v_plus^{1/2} chi u_minus^{1/2}
    gives (w0_bar, w1).  Each finite member is a ``riccati.Spectrum`` read
    off its bridge's SVD, so no varpi matrix is assembled or decomposed
    again.  A pair whose product contains a ZERO factor comes back as
    INFINITE.  For tau = t * tau0 every finite member's eigenvalues scale
    as t^2 times its tau0-normalized counterpart's.
    """

    def pair(u, v):
        if is_zero(u) or is_zero(v):
            return INFINITE, INFINITE
        return bridge_factors(u, v, k.chi).spectra()

    w0, w1_bar = pair(spec.u_plus, spec.v_minus)
    w0_bar, w1 = pair(spec.u_minus, spec.v_plus)
    return w0, w1, w0_bar, w1_bar


def curvature_flow(k: LinearGaussianKernel, spec: CurvatureSpec, n_max: int):
    """Interleaved two-sided conditional-covariance envelopes.

    Returns (sigma_flow, tau_flow), two lists of length 2*n_max + 2 with
    sigma_n <= tau_n for every n.  Both start at the channel noise tau; the
    recursions add the curvature factors' inverses after each channel pass,
    with ZERO factors collapsing the lower envelope to the null matrix.
    """
    chi = k.chi
    d = k.dim
    zero = np.zeros((d, d))
    u_plus_inv = spd.sym_inv(spec.u_plus)
    v_plus_inv = spd.sym_inv(spec.v_plus)
    u_minus_inv = None if is_zero(spec.u_minus) else spd.sym_inv(spec.u_minus)
    v_minus_inv = None if is_zero(spec.v_minus) else spd.sym_inv(spec.v_minus)

    sigma = [spd.symmetrize(np.array(k.tau))]
    tau = [spd.symmetrize(np.array(k.tau))]
    for n in range(2 * n_max + 1):
        prev_s, prev_t = sigma[-1], tau[-1]
        if n % 2 == 0:  # build odd index n+1
            s = zero if u_minus_inv is None else spd.sym_inv(u_minus_inv + chi.T @ prev_t @ chi)
            t = spd.sym_inv(u_plus_inv + chi.T @ prev_s @ chi)
        else:  # build even index n+1
            s = zero if v_minus_inv is None else spd.sym_inv(v_minus_inv + chi @ prev_t @ chi.T)
            t = spd.sym_inv(v_plus_inv + chi @ prev_s @ chi.T)
        sigma.append(s)
        tau.append(t)
    return sigma, tau


def xi_iota(k: LinearGaussianKernel, spec: CurvatureSpec, p_max: int):
    """Log-Lyapunov correction sequences and their limit.

    xi_even[p] and xi_odd[p] are nondecreasing in p, live in [1, iota], and
    are built from p-fold Riccati iterates started at the identity; iota is
    the larger of the two fixed-point norm ratios and is always >= 1.
    """
    _, _, w0_bar, w1_bar = varpi_family(k, spec)
    return _xi_iota(spec, w0_bar, w1_bar, p_max)


def _xi_iota(spec: CurvatureSpec, w0_bar, w1_bar, p_max: int):
    """``xi_iota`` from the upper flow parameters of ``varpi_family``."""
    d = spec.dim
    v_half = spd.principal_sqrt(spec.v_plus)
    u_half = spd.principal_sqrt(spec.u_plus)
    nv = spd.spectral_norm(spec.v_plus)
    nu = spd.spectral_norm(spec.u_plus)

    def ratio_even(mat):
        return nv / spd.spectral_norm(v_half @ mat @ v_half)

    def ratio_odd(mat):
        return nu / spd.spectral_norm(u_half @ mat @ u_half)

    xi_even = [ratio_even(m) for m in riccati.iterate(w0_bar, np.eye(d), p_max)]
    xi_odd = [ratio_odd(m) for m in riccati.iterate(w1_bar, np.eye(d), p_max)]

    iota0 = ratio_even(riccati.fixed_point_like(w0_bar, d))
    iota1 = ratio_odd(riccati.fixed_point_like(w1_bar, d))
    return xi_even, xi_odd, float(max(iota0, iota1))


@dataclass
class BoundReport:
    """Named constants plus per-n rate envelopes, each tagged by origin."""

    scalars: dict = field(default_factory=dict)
    envelopes: list = field(default_factory=list)  # rows (n, tag, bound, empirical, satisfied)

    def add_scalar(self, name: str, value, tag: str):
        self.scalars[name] = {"value": value, "tag": tag}

    def envelope_csv_rows(self):
        yield "n,theorem_tag,bound,empirical,satisfied"
        for n, tag, bound, emp, ok in self.envelopes:
            emp_s = "" if emp is None else format(emp, ".17g")
            ok_s = "" if ok is None else str(int(ok))
            yield f"{n},{tag},{format(bound, '.17g')},{emp_s},{ok_s}"


def rate_table(k: LinearGaussianKernel, spec: CurvatureSpec, n_max: int, p: int = 1, empirical=None) -> BoundReport:
    """Assemble every contraction envelope for one channel/curvature pair.

    empirical, when given, maps a tag to a per-n sequence of measured decay
    ratios gap_n / gap_0 so the report can record bound-vs-observed rows.
    """
    report = BoundReport()
    eps = eps_lg(k, spec)
    ph = phi(eps)
    report.add_scalar("eps", eps, "contraction-coefficient")
    report.add_scalar("phi", ph, "improved-exponent")
    base_rate = 1.0 / (1.0 + 1.0 / eps)
    report.add_scalar("pair_rate", base_rate, "two-step-entropy-rate")
    report.add_scalar("phi_rate_squared", (1.0 + ph) ** -2, "improved-entropy-rate")
    report.add_scalar(
        "phi_identity_residual", abs((1.0 + ph) ** 2 - (1.0 + 1.0 / eps + ph)), "exponent-identity"
    )
    # (1 + phi)^-2 < (1 + 1/eps)^-1 is phi (2 + phi) > 1/eps; both rates
    # round to 1.0 once eps >~ 1e16, so they cannot be compared directly
    strict = bool(ph * (2.0 + ph) > 1.0 / eps)
    report.add_scalar("phi_rate_strictly_better", strict, "rate-ordering")
    if not strict:
        raise DomainError("improved rate failed to dominate the basic rate")

    _, _, w0_bar, w1_bar = varpi_family(k, spec)
    xi_even, xi_odd, iota = _xi_iota(spec, w0_bar, w1_bar, p)
    report.add_scalar("iota", iota, "norm-ratio-limit")
    decays = [riccati.decay_params(w) for w in (w0_bar, w1_bar) if not riccati.is_infinite(w)]
    delta_bar = max((d for d, _ in decays), default=0.0)
    c_bar = max((c for _, c in decays), default=0.0)
    report.add_scalar("delta_bar", delta_bar, "flow-decay-rate")
    report.add_scalar("c_bar", c_bar, "flow-decay-prefactor")
    composite_rate = 1.0 / (1.0 + (iota / eps) / (1.0 + c_bar * delta_bar**p))
    report.add_scalar("composite_rate", composite_rate, "corrected-two-step-rate")

    a, b = proximal_rates(k, spec)
    report.add_scalar("proximal_a", a, "proximal-prefactor")
    report.add_scalar("proximal_b", b, "proximal-step-rate")

    empirical = empirical or {}

    def rows(tag, bound_at):
        emp_seq = empirical.get(tag)
        for n in range(n_max + 1):
            bound = bound_at(n)
            emp = None
            ok = None
            if emp_seq is not None and n < len(emp_seq):
                emp = float(emp_seq[n])
                ok = emp <= bound * (1.0 + 1e-9) + 1e-12
            report.envelopes.append((n, tag, float(bound), emp, ok))

    rows("two-step-entropy-rate", lambda n: base_rate**n)
    rows("improved-entropy-rate", lambda n: (1.0 + ph) ** -(n - 2) if n >= 2 else np.inf)
    rows(
        "corrected-two-step-rate",
        lambda n: composite_rate ** (n - p) if n >= p else np.inf,
    )
    return report


def proximal_rates(k: LinearGaussianKernel, spec: CurvatureSpec) -> tuple[float, float]:
    """Prefactor and per-step rate of the forward/backward Gibbs chain.

    a = ||chi||^2 ||tau|| ||u_plus||; b replaces ||u_plus|| with
    ||(u_plus^{-1} + beta' tau^{-1} beta)^{-1}||, so b <= a always.  For
    beta = I, tau = t I and scalar u_plus, b = ||u_plus|| / (t + ||u_plus||).
    """
    kappa2 = spd.spectral_norm(k.chi) ** 2
    ntau = spd.spectral_norm(k.tau)
    a = kappa2 * ntau * spd.spectral_norm(spec.u_plus)
    resolvent = spd.sym_inv(spd.sym_inv(spec.u_plus) + k.beta.T @ spd.sym_inv(k.tau) @ k.beta)
    b = kappa2 * ntau * spd.spectral_norm(resolvent)
    return float(a), float(b)


def proximal_crossover(k: LinearGaussianKernel, spec: CurvatureSpec) -> dict:
    """Compare the two-step Sinkhorn entropy rate with the squared proximal rate.

    For beta = I and diagonal tau = t I the exact algebra gives
        (1 + 1/eps)^{-1} < b^2   iff   (t/2) (1/||v_plus|| - 1/||u_plus||) > 1.
    Returns both sides so callers can verify the equivalence.
    """
    eps = eps_lg(k, spec)
    _, b = proximal_rates(k, spec)
    pair_rate = 1.0 / (1.0 + 1.0 / eps)
    t = spd.spectral_norm(k.tau)
    margin = 0.5 * t * (1.0 / spd.spectral_norm(spec.v_plus) - 1.0 / spd.spectral_norm(spec.u_plus))
    return {
        "pair_rate": pair_rate,
        "proximal_rate_sq": b**2,
        "pair_rate_below": bool(pair_rate < b**2),
        "margin": float(margin),
        "margin_above_one": bool(margin > 1.0),
    }
