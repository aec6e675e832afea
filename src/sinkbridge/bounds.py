"""Explicit contraction constants, curvature flows and rate envelopes.

Curvature data comes in as two-sided Hessian bounds on the marginal
potentials: SPD matrices u_plus, v_plus for the lower bounds and either SPD
matrices or the distinguished value ZERO for the upper-bound factors
u_minus, v_minus (ZERO encodes "no upper curvature bound", which turns the
matching Riccati parameters INFINITE).  Log-Sobolev constants that the
theory only asserts to exist are accepted as user inputs, never computed.

``CurvatureSpec``, ``eps_lg``, ``varpi_family``, ``proximal_rates`` and
``proximal_crossover`` take a stack of models, as ``gaussian`` does:
factors (..., d, d) give one constant or one family per model, each
bitwise what that model alone gives.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import riccati, spd
from .errors import DomainError, ShapeError
from .gaussian import (GaussianMeasure, LinearGaussianKernel, _covariance_flows, _interleave, _per_model,
                       bridge_factors, gaussian_kl, gelbrich_w2, proximal_chain)
from .riccati import INFINITE, Sentinel

ZERO = Sentinel("ZERO")  # a null curvature factor (inverse = infinity)


def is_zero(x) -> bool:
    return x is ZERO


@dataclass(frozen=True)
class CurvatureSpec:
    """Two-sided curvature bounds on the marginal potentials.

    u_plus and v_plus bound the Hessians below (as u_plus^{-1}, v_plus^{-1});
    u_minus and v_minus bound them above, with ZERO meaning unbounded.
    ``spectra`` holds, by name, the (w, q) that validated each SPD factor,
    from which ``varpi_family``, ``rate_table`` and ``proximal_rates``
    build roots and inverses.  ``held`` is init-only:
    triples (matrix, w, q) of inputs validated already, as ``gaussian``
    hands over its measures' covariances.
    """

    u_plus: np.ndarray
    v_plus: np.ndarray
    u_minus: object = ZERO
    v_minus: object = ZERO
    held: InitVar[tuple] = ()
    spectra: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, held):
        # each input validated once: ``gaussian`` passes u and v twice each, already validated
        checked = {id(a): (a, w, q) for a, w, q in held}
        spectra = {}
        for name in ("u_plus", "v_plus", "u_minus", "v_minus"):
            val = getattr(self, name)
            if not (is_zero(val) and name.endswith("minus")):  # only an upper factor may be ZERO
                if id(val) not in checked:
                    checked[id(val)] = spd._spd_eigh(spd.matrix(val))
                a, w, q = checked[id(val)]
                object.__setattr__(self, name, a)
                spectra[name] = (w, q)
        object.__setattr__(self, "spectra", spectra)
        shapes = {f.shape for f in (self.u_plus, self.v_plus, self.u_minus, self.v_minus) if not is_zero(f)}
        if len(shapes) > 1:
            raise ShapeError(f"curvature factors disagree in shape: {sorted(shapes)}")

    @property
    def dim(self) -> int:
        return self.u_plus.shape[-1]

    @cached_property
    def plus_norms(self):
        """(||u_plus||, ||v_plus||), taken once for every constant that reads them."""
        return spd.spectral_norm(self.u_plus), spd.spectral_norm(self.v_plus)

    @classmethod
    def gaussian(cls, mu: GaussianMeasure, eta: GaussianMeasure) -> "CurvatureSpec":
        """Equality case: both curvature bounds equal the covariances of the marginals mu and eta.

        The measures' held spectra are handed over, so nothing is decomposed.
        """
        u, v = mu.cov, eta.cov
        return cls(u_plus=u, v_plus=v, u_minus=u, v_minus=v, held=((u, *mu.cov_spectrum), (v, *eta.cov_spectrum)))


def eps_generic(kappa, rho1, rho2):
    """Entropy-contraction coefficient kappa^2 * rho1 * rho2: a float, or an array for arrays of constants."""
    if np.any(np.less_equal(kappa, 0)) or np.any(np.less_equal(rho1, 0)) or np.any(np.less_equal(rho2, 0)):
        raise DomainError("eps_generic requires positive arguments")
    with np.errstate(over="ignore", under="ignore"):  # an array overflows as a float does, silently
        eps = kappa * kappa * rho1 * rho2
    ok = (eps != 0) & np.isfinite(eps)
    if not np.all(ok):
        i, where = spd._failing_slice(ok)
        kappa, rho1, rho2, eps = (np.broadcast_to(x, np.shape(ok))[i] for x in (kappa, rho1, rho2, eps))
        how = "underflows to 0" if eps == 0 else "overflows"
        raise DomainError(f"contraction coefficient{where} {how}: kappa={kappa:.3e}, rho1={rho1:.3e}, rho2={rho2:.3e}")
    return eps


def eps_lg(k: LinearGaussianKernel, spec: CurvatureSpec):
    """Entropy-contraction coefficient of a linear-Gaussian channel, per model of a stack.

    ||tau^{-1} beta||^2 ||u_plus|| ||v_plus||; for beta = I, tau = t I this
    is ||u_plus|| ||v_plus|| / t^2.
    """
    return eps_generic(k.chi_norm, *spec.plus_norms)


def phi(eps: float) -> float:
    """Improved-rate exponent: eps^{-1} / (sqrt(1/4 + eps^{-1}) + 1/2).

    Satisfies (1 + phi)^2 == 1 + 1/eps + phi, hence
    (1 + phi)^{-2} < (1 + 1/eps)^{-1} strictly.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    inv = 1.0 / eps
    return inv / (np.sqrt(0.25 + inv) + 0.5)


def entropy_envelopes(eps: float, gaps) -> tuple[np.ndarray, np.ndarray]:
    """The pair envelope (1 + 1/eps)^-(n//2) gaps[0] and the improved one (1 + phi)^-(n-2) gaps[0]
    on each Gaussian bridge gap gaps[n]; the improved one is inf before n = 2."""
    ph = phi(eps)
    pair = [(1.0 + 1.0 / eps) ** -(n // 2) * gaps[0] for n in range(len(gaps))]
    improved = [(1.0 + ph) ** -(n - 2) * gaps[0] if n >= 2 else np.inf for n in range(len(gaps))]
    return np.array(pair), np.array(improved)


def varpi_family(k: LinearGaussianKernel, spec: CurvatureSpec):
    """Riccati parameters (w0, w1, w0_bar, w1_bar) of the curvature flows.

    Two bridge decompositions give them in pairs: v_minus^{1/2} chi
    u_plus^{1/2} gives (w0, w1_bar) and v_plus^{1/2} chi u_minus^{1/2}
    gives (w0_bar, w1).  Each finite member is a ``riccati.Spectrum`` read
    off its bridge's SVD, so no varpi matrix is assembled or decomposed
    again.  When the two products are of the same arrays, as
    ``CurvatureSpec.gaussian`` holds them, one decomposition gives all
    four.  A pair whose product contains a ZERO factor comes back as
    INFINITE.  For tau = t * tau0 every finite member's eigenvalues scale
    as t^2 times its tau0-normalized counterpart's.
    """

    def pair(u, v):
        if u not in spec.spectra or v not in spec.spectra:  # a ZERO factor
            return INFINITE, INFINITE
        return bridge_factors(spec.spectra[u], spec.spectra[v], k.chi).spectra()

    w0, w1_bar = pair("u_plus", "v_minus")
    if spec.u_minus is spec.u_plus and spec.v_plus is spec.v_minus:
        return w0, w1_bar, w0, w1_bar
    w0_bar, w1 = pair("u_minus", "v_plus")
    return w0, w1, w0_bar, w1_bar


def curvature_flow(k: LinearGaussianKernel, spec: CurvatureSpec, n_max: int):
    """Interleaved two-sided conditional-covariance envelopes.

    Returns (sigma_flow, tau_flow), two stacks of 2*n_max + 2 matrices with
    sigma_n <= tau_n for every n.  They interleave the conditional
    covariances of two Gaussian Sinkhorn runs through k, A from N(0, u_plus)
    to N(0, v_minus) and B from N(0, u_minus) to N(0, v_plus): sigma_n is
    A's at even n and B's at odd n, tau_n the other way round.  Only the
    runs' covariance flows are formed, from the spectra the spec holds.
    """
    a_even, a_odd = _sinkhorn_covariances(k, spec, "u_plus", "v_minus", n_max)
    b_even, b_odd = _sinkhorn_covariances(k, spec, "u_minus", "v_plus", n_max)
    return _interleave(a_even, b_odd), _interleave(b_even, a_odd)


def _sinkhorn_covariances(k: LinearGaussianKernel, spec: CurvatureSpec, u: str, v: str, n_max: int):
    """The even and the odd tau_n of the Gaussian Sinkhorn run from N(0, u) to N(0, v) through k, u and v named in spec.

    A ZERO factor leaves the run without a bridge: each step into its side
    is the null matrix, and each step out of it gives the opposite factor.
    """
    def flow(first, rest):
        return np.stack([first] + [rest] * n_max)

    zero = np.zeros_like(k.tau)
    if u not in spec.spectra:  # a ZERO u
        return flow(k.tau, getattr(spec, v)), flow(zero, zero)
    u_inv = spd._inverse(*spec.spectra[u])
    if v not in spec.spectra:  # a ZERO v
        return flow(k.tau, zero), flow(spd.sym_inv(u_inv + k.chi.T @ k.tau @ k.chi), getattr(spec, u))
    return _covariance_flows(bridge_factors(spec.spectra[u], spec.spectra[v], k.chi), k, u_inv, n_max)[0]


def _iota(spec: CurvatureSpec, w0_bar, w1_bar) -> float:
    """The norm-ratio limit iota: the larger ratio ||f|| / ||f^{1/2} r* f^{1/2}||, of f = v_plus at
    w0_bar's fixed point r* and of f = u_plus at w1_bar's.

    Each root is built from the spectrum that validated f, the one its
    bridge in ``varpi_family`` is built from, so no factor is decomposed
    again, whether or not a ZERO upper factor left its bridge unformed.
    """

    def ratio(name, norm, w):
        half = spd._sqrt(*spec.spectra[name])
        return norm / spd.spectral_norm(half @ riccati.fixed_point_like(w, spec.dim) @ half)

    return float(max(ratio("v_plus", spec.plus_norms[1], w0_bar), ratio("u_plus", spec.plus_norms[0], w1_bar)))


class BoundReport(NamedTuple):
    """Named constants {name: {"value", "tag"}} and rate envelope rows (n, tag, bound), tagged by origin."""

    scalars: dict
    envelopes: list


def rate_table(k: LinearGaussianKernel, spec: CurvatureSpec, n_max: int, p: int = 1) -> BoundReport:
    """Every contraction constant, and every envelope for n <= n_max (inf before it applies).

    eps, iota and the proximal rates share ||chi||, ||u_plus|| and ||v_plus||; eps is checked first.
    """
    eps = eps_lg(k, spec)
    ph = phi(eps)
    base_rate = 1.0 / (1.0 + 1.0 / eps)
    # (1 + phi)^-2 < (1 + 1/eps)^-1 is phi (2 + phi) > 1/eps; both rates
    # round to 1.0 once eps >~ 1e16, so they cannot be compared directly
    strict = bool(ph * (2.0 + ph) > 1.0 / eps)
    if not strict:
        raise DomainError("improved rate failed to dominate the basic rate")

    _, _, w0_bar, w1_bar = varpi_family(k, spec)
    iota = _iota(spec, w0_bar, w1_bar)
    decays = [riccati.decay_params(w) for w in (w0_bar, w1_bar) if not riccati.is_infinite(w)]
    delta_bar = max((d for d, _ in decays), default=0.0)
    c_bar = max((c for _, c in decays), default=0.0)
    composite_rate = 1.0 / (1.0 + (iota / eps) / (1.0 + c_bar * delta_bar**p))
    _, a, b = map(_per_model, _proximal_norms(k, spec))

    scalars = {
        "eps": (eps, "contraction-coefficient"),
        "phi": (ph, "improved-exponent"),
        "pair_rate": (base_rate, "two-step-entropy-rate"),
        "phi_rate_squared": ((1.0 + ph) ** -2, "improved-entropy-rate"),
        "phi_identity_residual": (abs((1.0 + ph) ** 2 - (1.0 + 1.0 / eps + ph)), "exponent-identity"),
        "phi_rate_strictly_better": (strict, "rate-ordering"),
        "iota": (iota, "norm-ratio-limit"),
        "delta_bar": (delta_bar, "flow-decay-rate"),
        "c_bar": (c_bar, "flow-decay-prefactor"),
        "composite_rate": (composite_rate, "corrected-two-step-rate"),
        "proximal_a": (a, "proximal-prefactor"),
        "proximal_b": (b, "proximal-step-rate"),
    }
    envelopes = {
        "two-step-entropy-rate": lambda n: base_rate**n,
        "improved-entropy-rate": lambda n: (1.0 + ph) ** -(n - 2) if n >= 2 else np.inf,
        "corrected-two-step-rate": lambda n: composite_rate ** (n - p) if n >= p else np.inf,
    }
    return BoundReport(
        {name: {"value": value, "tag": tag} for name, (value, tag) in scalars.items()},
        [(n, tag, float(bound_at(n))) for tag, bound_at in envelopes.items() for n in range(n_max + 1)],
    )


def _proximal_norms(k: LinearGaussianKernel, spec: CurvatureSpec):
    """||tau|| and ``proximal_rates``' (a, b) before conversion."""
    ntau = spd.spectral_norm(k.tau)
    beta_t = k.beta.swapaxes(-1, -2)
    resolvent = spd.sym_inv(spd._inverse(*spec.spectra["u_plus"]) + beta_t @ spd._inverse(*k.tau_spectrum) @ k.beta)
    kappa2 = k.chi_norm**2
    return ntau, kappa2 * ntau * spec.plus_norms[0], kappa2 * ntau * spd.spectral_norm(resolvent)


def proximal_rates(k: LinearGaussianKernel, spec: CurvatureSpec):
    """Prefactor and per-step rate of the forward/backward Gibbs chain, per model of a stack.

    a = ||chi||^2 ||tau|| ||u_plus||; b replaces ||u_plus|| with
    ||(u_plus^{-1} + beta' tau^{-1} beta)^{-1}||, so b <= a always.  For
    beta = I, tau = t I and scalar u_plus, b = ||u_plus|| / (t + ||u_plus||).
    u_plus^{-1} and tau^{-1} come from the spectra that validated them.
    Floats for one model, arrays for a stack.
    """
    _, a, b = map(_per_model, _proximal_norms(k, spec))
    return a, b


def proximal_trace(nu, mu, k: LinearGaussianKernel, a: float, b: float, steps: int) -> list:
    """Rows (W2, b^n W2_0, KL, a b^(2(n-1)) KL_0), n = 0..steps, of the Gibbs chain from nu to mu.

    (a, b) are ``proximal_rates``; row 0's envelopes are W2_0 and KL_0.  The
    chain is ``proximal_chain``'s one stack, and every row's W2 and KL come
    from one call each against mu.
    """
    chain = proximal_chain(nu, mu, k, steps)
    w2, kl = gelbrich_w2(chain, mu).tolist(), gaussian_kl(chain, mu).tolist()
    w0, h0 = w2[0], kl[0]
    return [(w0, w0, h0, h0)] + [(w2[n], b**n * w0, kl[n], a * b ** (2 * (n - 1)) * h0) for n in range(1, steps + 1)]


def proximal_crossover(k: LinearGaussianKernel, spec: CurvatureSpec) -> dict:
    """Compare the two-step Sinkhorn entropy rate with the squared proximal rate.

    For beta = I and diagonal tau = t I the exact algebra gives
        (1 + 1/eps)^{-1} < b^2   iff   (t/2) (1/||v_plus|| - 1/||u_plus||) > 1.
    Returns both sides so callers can verify the equivalence: floats and
    bools for one model, one array entry per model for a stack.  Each of
    the five norms is taken once, and eps and b are ``eps_lg``'s and
    ``proximal_rates``' own arithmetic.
    """
    nu, nv = spec.plus_norms
    t, _, b = map(_per_model, _proximal_norms(k, spec))
    pair_rate = 1.0 / (1.0 + 1.0 / eps_lg(k, spec))
    margin = 0.5 * t * (1.0 / nv - 1.0 / nu)
    return {
        "pair_rate": pair_rate,
        "proximal_rate_sq": b**2,
        "pair_rate_below": pair_rate < b**2,
        "margin": margin,
        "margin_above_one": margin > 1.0,
    }
