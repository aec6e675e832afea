"""Dense symmetric-matrix primitives.

Everything here goes through the symmetric eigendecomposition rather than
Cholesky so that near-singular positive semi-definite inputs are handled
gracefully.  All constructors symmetrize with (A + A')/2 to kill round-off
drift, and all tolerance checks are relative to the spectral scale.

One decomposition per operation: each validating primitive symmetrizes
once, calls ``eigh`` once, and runs its SPD or PSD check on that same
spectrum before building its result from it.  The check is then nearly
free, so there are no unchecked twins of these functions: a second,
unvalidated path per primitive would buy little speed and let a non-SPD
input through silently.
"""

import numpy as np

from .errors import DomainError, ShapeError

# Constructor tolerances: absolute eigenvalue noise allowed on PSD inputs and
# relative eigenvalue gap required of SPD inputs.
PSD_ATOL = 1e-10
SPD_RTOL = 1e-12


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part (A + A')/2 of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")


def spectral_norm(a) -> float:
    return float(np.linalg.norm(np.atleast_2d(a), 2))


def eig_range(a) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetrized input."""
    w = np.linalg.eigvalsh(symmetrize(a))
    return float(w[0]), float(w[-1])


def clamp_psd(a) -> np.ndarray:
    """Validated PSD constructor.

    Symmetrizes, then clamps eigenvalue noise in [-atol*(1+||a||), 0) to
    zero.  Genuinely negative eigenvalues raise a DomainError, and so does
    a NaN eigenvalue, which any non-finite entry produces.
    """
    a = symmetrize(a)
    w, u = np.linalg.eigh(a)
    # the spectral radius of a symmetric matrix is its spectral norm; a NaN
    # anywhere in w makes the floor NaN, so the check below raises
    floor = -PSD_ATOL * (1.0 + np.max(np.abs(w)))
    if not w[0] >= floor:
        raise DomainError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.maximum(w, 0.0)
    return symmetrize((u * w) @ u.T)


def _spd_eigh(a):
    """Symmetrize, decompose once and check eig_min > rtol*eig_max.

    Returns the symmetrized matrix with its eigenvalues and eigenvectors.
    """
    a = symmetrize(a)
    w, u = np.linalg.eigh(a)
    lo, hi = float(w[0]), float(w[-1])
    if not (lo > SPD_RTOL * max(hi, 0.0)):
        raise DomainError(f"matrix is not SPD: eigenvalue range [{lo:.3e}, {hi:.3e}]")
    return a, w, u


def require_spd(a) -> np.ndarray:
    """Validated SPD constructor: symmetrize and check eig_min > rtol*eig_max."""
    return _spd_eigh(a)[0]


def sym_inv(a) -> np.ndarray:
    """Inverse of an SPD matrix via eigendecomposition; preserves symmetry exactly."""
    _, w, u = _spd_eigh(a)
    return symmetrize((u / w) @ u.T)


def principal_sqrt(a) -> np.ndarray:
    """Principal symmetric square root of an SPD matrix."""
    _, w, u = _spd_eigh(a)
    return symmetrize((u * np.sqrt(w)) @ u.T)


def sqrt_pair(a) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of an SPD matrix and its inverse, from one decomposition."""
    _, w, u = _spd_eigh(a)
    root = np.sqrt(w)
    return symmetrize((u * root) @ u.T), symmetrize((u / root) @ u.T)


def geometric_mean(u, v) -> np.ndarray:
    """Geometric mean of two SPD matrices.

    Computed as v^{1/2} (v^{-1/2} u v^{-1/2})^{1/2} v^{1/2}; symmetric in its
    arguments, and equal to (uv)^{1/2} when u and v commute.
    """
    u = require_spd(u)
    v_half, v_inv_half = sqrt_pair(v)
    check_same_dim(u, v_half)
    inner = principal_sqrt(v_inv_half @ u @ v_inv_half)
    return symmetrize(v_half @ inner @ v_half)


def loewner_leq(a, b, tol: float = 1e-10) -> bool:
    """True iff a <= b in the Loewner order, up to spectral-scale noise tol."""
    a = symmetrize(a)
    b = symmetrize(b)
    check_same_dim(a, b)
    diff = b - a
    lo, _ = eig_range(diff)
    return lo >= -tol * (1.0 + spectral_norm(diff))


def loewner_lt(a, b, tol: float = 1e-10) -> bool:
    """True iff a < b strictly: eig_min(b - a) clears the noise floor."""
    a = symmetrize(a)
    b = symmetrize(b)
    check_same_dim(a, b)
    diff = b - a
    lo, _ = eig_range(diff)
    return lo > tol * (1.0 + spectral_norm(diff))

