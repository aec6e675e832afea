"""Riccati matrix maps s -> (I + (varpi + s)^{-1})^{-1} and their flows.

The map family is parameterized by varpi in one of three forms:

- an SPD matrix, as a user supplies it: each call symmetrizes it,
  decomposes it once and checks it against the 1e12 bound
  ``spd.SPD_RTOL``, and only a varpi given this way meets that check;
- a ``Spectrum`` (lam, q) with varpi = q diag(lam) q', taken as given:
  ``gaussian.BridgeFactors.spectra`` reads it off the bridge's SVD, and a
  caller that reuses one varpi across calls gets it from ``_spectrum``;
- the distinguished value ``INFINITE`` encoding varpi^{-1} = 0, in which
  case the map and its fixed point are identically the identity matrix.
  INFINITE is a dedicated sentinel, not a huge-number stand-in: the
  conventions it encodes are exact identities, not limits.
"""

from typing import NamedTuple

import numpy as np

from . import spd
from .errors import DomainError, ShapeError


class _InfiniteVarpi:
    """Sentinel for the varpi^{-1} = 0 convention."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _InfiniteVarpi()


def is_infinite(varpi) -> bool:
    return varpi is INFINITE


class Spectrum(NamedTuple):
    """varpi = q diag(lam) q', lam ascending and positive, q orthogonal.

    A Spectrum is trusted as given: it is built only from a decomposition
    that was validated where it was made.
    """

    lam: np.ndarray
    q: np.ndarray


def _spectrum(varpi) -> Spectrum:
    """The one validated decomposition of a finite varpi.

    A matrix is symmetrized, decomposed and SPD-checked; a Spectrum passes
    through unchecked.
    """
    if is_infinite(varpi):
        raise DomainError("operation requires a finite varpi")
    if isinstance(varpi, Spectrum):
        return varpi
    _, w, q = spd._spd_eigh(np.atleast_2d(np.asarray(varpi, dtype=float)))
    return Spectrum(w, q)


def _fixed_scalar(lam):
    """Per-eigenvalue fixed point 2 / (1 + sqrt(1 + 4/lam)); nothing cancels."""
    return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / lam))


def _rotate(q, s) -> np.ndarray:
    """q s q', a matrix given in varpi's eigenbasis back in the original basis."""
    return spd.symmetrize(q @ s @ q.T)


def ricc_map(varpi, s) -> np.ndarray:
    """One step of ``iterate``: the Riccati map (I + (varpi + s)^{-1})^{-1}.

    Returns the identity when ``varpi`` is INFINITE.  The output is SPD and
    strictly below I in the Loewner order for finite varpi.
    """
    return iterate(varpi, s, 1)[1]


def fixed_point(varpi) -> np.ndarray:
    """Closed-form fixed point -varpi/2 + (varpi + (varpi/2)^2)^{1/2}.

    The unique SPD fixed point of the map; sits strictly between
    (I + varpi^{-1})^{-1} and I.  Evaluated per eigenvalue by _fixed_scalar.
    """
    if is_infinite(varpi):
        raise ShapeError("INFINITE carries no dimension; use fixed_point_like")
    w, q = _spectrum(varpi)
    return _rotate(q, np.diag(_fixed_scalar(w)))


def fixed_point_like(varpi, dim: int) -> np.ndarray:
    """fixed_point that resolves INFINITE to the identity of the given dim."""
    if is_infinite(varpi):
        return np.eye(dim)
    return fixed_point(varpi)


def fixed_point_identities(varpi, tol: float = 1e-9) -> dict:
    """Residuals of the closed-form fixed-point identities.

    Checks r + r varpi^{-1} r = I, the inverse identity
    r^{-1} = I + (varpi + r)^{-1}, and the strict sandwich
    (I + varpi^{-1})^{-1} < r < I together with I < r^{-1} < I + varpi^{-1}.
    varpi is the dense matrix: the map residual applies the dense map, which
    decomposes varpi + r and never varpi, so it checks r independently of
    the eigenbasis it came from.
    """
    w, q = _spectrum(varpi)
    varpi = spd.symmetrize(varpi)
    eye = np.eye(varpi.shape[0])
    r = _rotate(q, np.diag(_fixed_scalar(w)))
    varpi_inv = spd.sym_inv(varpi)
    r_inv = spd.sym_inv(r)
    u = varpi + r

    # the dense map r -> (I + (varpi + r)^{-1})^{-1}, with I + u^{-1} shared
    # by the map and the inverse identity
    step = eye + spd.sym_inv(u)
    quad = spd.spectral_norm(r + r @ varpi_inv @ r - eye)
    fp = spd.spectral_norm(spd.sym_inv(step) - r)
    inv_identity = spd.spectral_norm(r_inv - step)
    lower = spd.sym_inv(eye + varpi_inv)
    report = {
        "fixed_point_residual": fp,
        "quadratic_identity_residual": quad,
        "inverse_identity_residual": inv_identity,
        "sandwich_strict": bool(
            spd.loewner_lt(lower, r, tol=1e-14) and spd.loewner_lt(r, eye, tol=1e-14)
        ),
        "inverse_sandwich_strict": bool(
            spd.loewner_lt(eye, r_inv, tol=1e-14)
            and spd.loewner_lt(r_inv, eye + varpi_inv, tol=1e-14)
        ),
    }
    report["ok"] = bool(
        fp <= tol
        and quad <= tol
        and inv_identity <= tol
        and report["sandwich_strict"]
        and report["inverse_sandwich_strict"]
    )
    return report


def decay_params(varpi) -> tuple[float, float]:
    """Exponential decay rate delta and a proven bound on its prefactor.

    delta = (1 + l_min(varpi + r))^{-2} lies in (0, 1) and is the sharp
    asymptotic rate (the norm of the map's derivative at the fixed point).
    c_bound satisfies  ||r_n - r|| <= c_bound delta^n ||r_0 - r||  for every
    PSD r_0 and n >= 1: the segment from the n-th iterate to the fixed
    point stays above Ricc^{n-1}(0) by monotonicity, so step n contracts by
    at least delta_n = (1 + l_min(varpi + Ricc^{n-1}(0)))^{-2}, and
    c_bound = prod_k (delta_k / delta) converges since delta_k drops to
    delta geometrically.  Iterates from 0 commute with varpi and increase
    with its eigenvalues, so each l_min is the scalar flow at l_min(varpi).
    """
    w, _ = _spectrum(varpi)
    lam = float(w[0])
    delta = float((1.0 + lam + _fixed_scalar(lam)) ** -2)

    c_bound = 1.0
    m = 0.0
    for _ in range(500):
        ratio = max((1.0 + lam + m) ** -2 / delta, 1.0)
        c_bound *= ratio
        if ratio < 1.0 + 1e-15:
            break
        m = (lam + m) / (lam + m + 1.0)
    return delta, float(c_bound)


def iterate(varpi, r0, n: int) -> list[np.ndarray]:
    """Trajectory [r0, Ricc(r0), ..., Ricc^n(r0)] of the Riccati recursion.

    r0 is validated once and varpi decomposed at most once; in varpi's
    eigenbasis a step is s -> a (a + I)^{-1}, a = diag(lam) + s: one
    linear solve.
    """
    r = spd.clamp_psd(np.atleast_2d(np.asarray(r0, dtype=float)))
    if is_infinite(varpi):
        return [r] + [np.eye(r.shape[0]) for _ in range(n)]
    w, q = _spectrum(varpi)
    return _iterate_spectral(w, q, r, n)


def _iterate_spectral(w, q, r0, n: int) -> list[np.ndarray]:
    """``iterate`` for varpi = q diag(w) q', given that spectrum and a PSD r0.

    Neither is checked here: callers pass a spectrum they validated, and a
    start that is PSD by construction or has been through ``clamp_psd``.
    """
    spd.check_same_dim(q, r0)
    lam = np.diag(w)
    eye = np.eye(len(w))
    s = q.T @ r0 @ q
    out = [r0]
    for _ in range(n):
        a = lam + s
        s = np.linalg.solve(a + eye, a)
        s = 0.5 * (s + s.T)
        out.append(_rotate(q, s))
    return out


def scalar_closed_form(varpi: float, r0: float, n: int) -> float:
    """Closed-form scalar trajectory value r_n for the one-dimensional map."""
    if varpi <= 0:
        raise DomainError("scalar varpi must be positive")
    if r0 < 0:
        raise DomainError("scalar r0 must be nonnegative")
    r = float(fixed_point(varpi)[0, 0])
    # decay_params' rate (1 + l_min(varpi + r))^{-2}; for a scalar the
    # eigenvalue is varpi + r itself, so this is the same float
    delta = (1.0 + (varpi + r)) ** -2
    dn = delta**n
    gap = (r0 - r) * (varpi + 2.0 * r) * dn / ((r0 + varpi + r) * (1.0 - dn) + (varpi + 2.0 * r) * dn)
    return r + gap


def psi_map(gamma, v) -> np.ndarray:
    """The congruence-shrink map v -> (I + gamma v gamma')^{-1}.

    Composing it with its transposed-parameter twin factors the Riccati map:
    psi_map(g, psi_map(g', v)) == ricc_map((g g')^{-1}, v).
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    if gamma.shape[0] != gamma.shape[1]:
        raise ShapeError(f"gamma must be square, got {gamma.shape}")
    if np.linalg.cond(gamma) > 1e12:
        raise DomainError("gamma is singular or near-singular")
    v = spd.clamp_psd(np.atleast_2d(np.asarray(v, dtype=float)))
    if gamma.shape[1] != v.shape[0]:
        raise ShapeError(f"dimension mismatch: {gamma.shape} vs {v.shape}")
    eye = np.eye(gamma.shape[0])
    return spd.sym_inv(eye + gamma @ v @ gamma.T)
