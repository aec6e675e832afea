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

``fixed_point``, ``iterate``, ``ricc_map``, ``psi_map`` and
``fixed_point_identities`` take a stack (..., d, d) of parameters and
states as well as one matrix, and make each of their LAPACK calls once,
batched over the whole stack; a Spectrum may hold a stack (lam (..., d),
q (..., d, d)) too.  ``iterate`` forms every step of a trajectory from
one closed form in one batched solve, with no loop over the steps.  Each
slice is validated against its own scale, a failing slice is named by
its index, and each slice's result is bitwise the one a call on that
slice alone gives.  One matrix gives a matrix, and floats and bools from
``fixed_point_identities``.  ``decay_params`` takes one parameter, and
INFINITE stands for one parameter.
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import spd
from .errors import DomainError, ShapeError


class Sentinel(Enum):
    """INFINITE (the varpi^{-1} = 0 convention) and ZERO (a null curvature factor in ``bounds``):
    compared by identity and shown by name; a copy is the value itself."""

    INFINITE = "INFINITE"
    ZERO = "ZERO"

    def __repr__(self):
        return self.name


INFINITE = Sentinel("INFINITE")

# the largest residual of each fixed-point identity that fixed_point_identities accepts
IDENTITY_TOL = 1e-9


def is_infinite(varpi) -> bool:
    return varpi is INFINITE


class Spectrum(NamedTuple):
    """varpi = q diag(lam) q', lam ascending and positive, q orthogonal; per slice of a stack.

    A Spectrum is trusted as given: it is built only from a decomposition
    that was validated where it was made.
    """

    lam: np.ndarray
    q: np.ndarray


def _spectrum(varpi) -> Spectrum:
    """The one validated decomposition of a finite varpi.

    A matrix, or each slice of a stack, is symmetrized, decomposed and
    SPD-checked; a Spectrum passes through unchecked.
    """
    if is_infinite(varpi):
        raise DomainError("operation requires a finite varpi")
    if isinstance(varpi, Spectrum):
        return varpi
    _, w, q = spd._spd_eigh(varpi)
    return Spectrum(w, q)


def _fixed_scalar(lam):
    """Per-eigenvalue fixed point 2 / (1 + sqrt(1 + 4/lam)); nothing cancels."""
    return 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / lam))


def _diag(v) -> np.ndarray:
    """diag(v) of a vector, or of each vector in a stack (..., d): exactly np.diag's entries."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def _rotate(q, s) -> np.ndarray:
    """q s q', a matrix (or a stack) given in varpi's eigenbasis back in the original basis."""
    return spd.symmetrize(q @ s @ q.swapaxes(-1, -2))


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
    return _rotate(q, _diag(_fixed_scalar(w)))


def fixed_point_like(varpi, dim: int) -> np.ndarray:
    """fixed_point that resolves INFINITE to the identity of the given dim."""
    if is_infinite(varpi):
        return np.eye(dim)
    return fixed_point(varpi)


def fixed_point_identities(varpi) -> dict:
    """Residuals of the closed-form fixed-point identities.

    Checks r + r varpi^{-1} r = I, the inverse identity
    r^{-1} = I + (varpi + r)^{-1}, and the strict sandwich
    (I + varpi^{-1})^{-1} < r < I together with I < r^{-1} < I + varpi^{-1}.
    varpi is the dense matrix: the map residual applies the dense map, which
    decomposes varpi + r and never varpi, so it checks r independently of
    the eigenbasis it came from.  ``ok`` holds when each residual is at most
    ``IDENTITY_TOL`` and both sandwiches are strict.  For a stack each entry
    is an array with one value per slice.
    """
    w, q = _spectrum(varpi)
    varpi = spd.symmetrize(varpi)
    eye = np.broadcast_to(np.eye(varpi.shape[-1]), varpi.shape)
    r = _rotate(q, _diag(_fixed_scalar(w)))
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
        "sandwich_strict": spd.loewner_lt(lower, r, tol=1e-14) & spd.loewner_lt(r, eye, tol=1e-14),
        "inverse_sandwich_strict": (
            spd.loewner_lt(eye, r_inv, tol=1e-14) & spd.loewner_lt(r_inv, eye + varpi_inv, tol=1e-14)
        ),
    }
    report["ok"] = (
        (fp <= IDENTITY_TOL)
        & (quad <= IDENTITY_TOL)
        & (inv_identity <= IDENTITY_TOL)
        & report["sandwich_strict"]
        & report["inverse_sandwich_strict"]
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
    if w.ndim != 1:
        raise ShapeError(f"decay_params takes one varpi, got a stack of shape {w.shape[:-1]}")
    lam = float(w[0])
    delta = float((1.0 + lam + _fixed_scalar(lam)) ** -2)
    if delta == 0.0:
        raise DomainError(f"decay rate underflows to 0: l_min(varpi) = {lam:.3e}")

    c_bound = 1.0
    m = 0.0
    for _ in range(500):
        ratio = max((1.0 + lam + m) ** -2 / delta, 1.0)
        c_bound *= ratio
        if ratio < 1.0 + 1e-15:
            break
        m = (lam + m) / (lam + m + 1.0)
    return delta, float(c_bound)


def iterate(varpi, r0, n: int) -> np.ndarray:
    """Trajectory r0, Ricc(r0), ..., Ricc^n(r0) as an (n+1, ..., d, d) array.

    r0 is validated once and varpi decomposed at most once; the steps come
    from ``_iterate_spectral``'s closed form, one batched solve for a whole
    stack of parameters and starts of one shape.  r_n - r* is accurate to
    relative ~1e-14 and each entry of r_n to absolute ~eps (||r*|| + ||r0 - r*||),
    so an entry far below r*'s scale loses relative accuracy: for
    varpi = 1e-150 and r0 = 0, r_1 reads 0, not 1e-150 (r* = 1e-75).
    """
    r = spd.clamp_psd(r0)
    if is_infinite(varpi):
        return np.concatenate([r[None], np.broadcast_to(np.eye(r.shape[-1]), (n, *r.shape))])
    w, q = _spectrum(varpi)
    return _iterate_spectral(w, q, r, n)[0]


def _iterate_spectral(w, q, r0, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``iterate`` for varpi = q diag(w) q', from a validated spectrum and a PSD r0 it does not check.

    Returns the trajectory, entry 0 r0 itself, and ``_delta_flow``'s Delta_n,
    rotated back as r_n = q (diag(f) + Delta_n) q'.
    """
    deltas, f = _delta_flow(w, q, r0, n)
    traj = np.concatenate([r0[None], _rotate(q, _diag(f) + deltas[1:])])
    return traj, deltas


def _delta_flow(w, q, r0, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Delta_n = q' r_n q - r*, n = 0..n, of ``iterate`` for varpi = q diag(w) q', as an (n+1, ..., d, d) array.

    Returns Delta_n and f, r*'s eigenvalues, which a caller that rotates
    r_n back reuses.  The spectral norm of Delta_n is ||r_n - r*||, so a
    caller that reads only the gaps makes no rotation.  In varpi's eigenbasis r* = diag(f)
    and D = diag(d), d = 1 + w + f; the difference form Ricc(s) - r* =
    (D + Delta)^{-1} Delta D^{-1} makes X = Delta^{-1} obey X' = D X D + D, so

        Delta_n = D^{-n} Delta_0 (I + H_n Delta_0)^{-1} D^{-n},  H_n = diag(d^{-1} (1 - d^{-2n}) / (1 - d^{-2})),

    and nothing is subtracted after Delta_0.  d^{-n} and H_n come from log1p
    and expm1, which cancel nothing for w in [1e-300, 1e300], and the solve
    takes Delta_0 / c, c = max(1, max |Delta_0|), so a start near 1e308 does not overflow.
    """
    spd.check_same_dim(q, r0)
    f = _fixed_scalar(w)
    delta0 = spd.symmetrize(q.swapaxes(-1, -2) @ r0 @ q) - _diag(f)
    log_d = np.log1p(w + f)
    k = np.arange(1.0, n + 1).reshape((-1,) + (1,) * w.ndim)
    d_pow = np.exp(-k * log_d)  # d^{-k}, (n, ..., d)
    h = np.exp(-log_d) * np.expm1(-2.0 * k * log_d) / np.expm1(-2.0 * log_d)
    c = np.maximum(1.0, np.abs(delta0).max(axis=(-2, -1)))[..., None, None]
    # Delta_0 (I + H Delta_0)^{-1} = (I/c + Delta_0 H / c)^{-1} Delta_0 / c
    m = np.linalg.solve(np.eye(w.shape[-1]) / c + delta0 / c * h[..., None, :], delta0 / c)
    deltas = spd.symmetrize(d_pow[..., :, None] * m * d_pow[..., None, :])
    return np.concatenate([delta0[None], deltas]), f


def gap_norms(deltas):
    """||Delta_n|| for each symmetric Delta_n of a stack, as its largest |eigenvalue|, not an SVD."""
    return np.abs(np.linalg.eigvalsh(deltas)).max(axis=-1)


def _powers(x: float, n):
    """x**k for each integer k of n, as the scalar expression x**k rounds it.

    numpy's vectorized power can round differently in the last bit, which
    would move every envelope evaluated along a trajectory.
    """
    return np.array([x ** int(k) for k in np.ravel(n)]).reshape(np.shape(n))


def decay_envelope(gaps, delta: float, c_bound: float) -> np.ndarray:
    """``decay_params``' bound c_bound delta^n gaps[0] on each gaps[n] = ||r_n - r||, n >= 1.

    Row 0 is gaps[0] itself, so a start near the largest double never meets c_bound.
    """
    return np.concatenate([gaps[:1], c_bound * _powers(delta, np.arange(1, len(gaps))) * gaps[0]])


def psi_map(gamma, v) -> np.ndarray:
    """The congruence-shrink map v -> (I + gamma v gamma')^{-1}, per slice of a stack.

    Composing it with its transposed-parameter twin factors the Riccati map:
    psi_map(g, psi_map(g', v)) == ricc_map((g g')^{-1}, v).
    """
    gamma = spd.square(gamma)
    # checked before np.linalg.cond, whose SVD raises LinAlgError on a non-finite entry
    finite = np.isfinite(gamma).all(axis=(-2, -1))
    if not np.all(finite):
        raise DomainError(f"gamma{spd._failing_slice(finite)[1]} has a non-finite entry")
    ok = np.linalg.cond(gamma) <= 1e12
    if not np.all(ok):
        raise DomainError(f"gamma{spd._failing_slice(ok)[1]} is singular or near-singular")
    v = spd.clamp_psd(v)
    spd.check_same_dim(gamma, v)
    eye = np.eye(gamma.shape[-1])
    return spd.sym_inv(eye + gamma @ v @ gamma.swapaxes(-1, -2))
