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

Norms and condition numbers come from singular values.  ``spectral_norm``
is the first of the descending values of one ``svd(compute_uv=False)``,
and ``condition_number`` divides that first value by the last: the same
LAPACK call ``np.linalg.norm(a, 2)`` and ``np.linalg.cond`` make, with
bitwise the same result, without their wrappers.  The Loewner tests read
their noise scale ||b - a|| off the eigenvalues of b - a they already
compute, as its spectral radius.

A validated input carries its decomposition.  ``_spd_eigh`` returns the
(w, q) that validated a matrix, and ``gaussian.GaussianMeasure``,
``gaussian.LinearGaussianKernel`` and ``bounds.CurvatureSpec`` hold it.
``_inverse``, ``_sqrt`` and ``_sqrt_pair`` build an inverse or a root
from a held (w, q), by the same arithmetic as ``sym_inv``,
``principal_sqrt`` and ``sqrt_pair`` use after their own decomposition,
so a validated input is not decomposed again.

``matrix``, ``square``, ``symmetrize``, ``spectral_norm``,
``condition_number``, ``clamp_psd``,
``require_spd``, ``sym_inv``, ``principal_sqrt``, ``sqrt_pair``,
``loewner_leq`` and ``loewner_lt`` take a stack (..., d, d) as well as
one matrix, and make one batched LAPACK call for the whole stack.  Each
slice is checked against its own spectral scale, never against the
stack's, and gives bitwise the result a call on that slice alone gives.
``eig_range`` takes one matrix.
"""

import numpy as np

from .errors import DomainError, ShapeError

# Constructor tolerances: absolute eigenvalue noise allowed on PSD inputs and
# relative eigenvalue gap required of SPD inputs.
PSD_ATOL = 1e-10
SPD_RTOL = 1e-12


def matrix(a) -> np.ndarray:
    """One matrix, or a stack (..., m, n), as a float array: a scalar becomes 1x1."""
    return np.atleast_2d(np.asarray(a, dtype=float))


def square(a) -> np.ndarray:
    """A square matrix, or a stack (..., d, d), as a float array: a scalar becomes 1x1."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part (A + A')/2 of a square matrix, or of each in a stack (..., d, d)."""
    half = 0.5 * square(a)  # halved first, so entries near the largest double do not overflow
    return half + half.swapaxes(-1, -2)


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")


def spectral_norm(a):
    """Largest singular value: a float for one matrix, an array for a stack."""
    norm = np.linalg.svd(np.atleast_2d(a), compute_uv=False)[..., 0]
    return float(norm) if norm.ndim == 0 else norm


def condition_number(a):
    """s_max / s_min of a finite matrix, or of each in a stack, as ``np.linalg.cond`` gives it.

    A singular matrix reads inf, and so does a null one, whose 0 / 0 is
    NaN: a gate ``condition_number(a) < bound`` rejects both.  A float for
    one matrix, an array for a stack.
    """
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[..., 0] / s[..., -1]
    cond = np.where(np.isnan(cond), np.inf, cond)  # the input is finite, so a NaN is 0 / 0
    return float(cond) if cond.ndim == 0 else cond


def eig_range(a) -> tuple[float, float]:
    """Smallest and largest eigenvalue of one symmetrized matrix."""
    w = np.linalg.eigvalsh(symmetrize(a))
    _one_matrix(w, a)
    return float(w[0]), float(w[-1])


def _one_matrix(w, a) -> None:
    """Raise ShapeError unless the spectrum ``w`` of ``a`` is that of one matrix."""
    if w.ndim != 1:
        raise ShapeError(f"expected one matrix, got a stack of shape {np.shape(a)}")


def _require(ok, w, what: str) -> None:
    """Raise DomainError unless every slice passed its check ``ok``.

    ``w`` holds the ascending eigenvalues the check read, and ``ok`` one
    verdict per slice with the stack axes reversed, as the checks read them
    from ``w.T``: the eigenvalue index comes first there, so one matrix's
    eigenvalues are numpy scalars, far cheaper to compare than the 0-d
    arrays ``w[..., 0]`` gives.  The message names the first failing slice
    of a stack and its eigenvalue range.
    """
    if ok.all() if ok.ndim else ok:  # a single matrix's check is a numpy bool
        return
    i, where = _failing_slice(ok.T)
    raise DomainError(f"matrix{where} is not {what}: eigenvalue range [{w[i][0]:.3e}, {w[i][-1]:.3e}]")


def _failing_slice(ok) -> tuple[tuple, str]:
    """The index of the first False among per-slice verdicts ``ok``, and how a message names it.

    One matrix's verdict gives ((), ""), slice 2 of a stack ((2,), " 2 of the stack").
    """
    if not np.ndim(ok):
        return (), ""
    i = tuple(int(k) for k in np.unravel_index(np.argmin(ok), np.shape(ok)))
    return i, f" {i[0] if len(i) == 1 else i} of the stack"


def clamp_psd(a) -> np.ndarray:
    """Validated PSD constructor, for one matrix or each matrix in a stack.

    Symmetrizes, then clamps eigenvalue noise in [-atol*(1+||a||), 0) to
    zero, with ||a|| the spectral norm of the slice itself.  Genuinely
    negative eigenvalues raise a DomainError, and so does a NaN eigenvalue,
    which any non-finite entry produces.
    """
    a = symmetrize(a)
    w, u = np.linalg.eigh(a)
    # the spectral radius of a symmetric matrix is its spectral norm; a NaN
    # anywhere in a slice makes its floor NaN, so the check below raises
    wt = w.T
    floor = -PSD_ATOL * (1.0 + np.maximum.reduce(np.abs(wt)))
    _require(wt[0] >= floor, w, "PSD")
    w = np.maximum(w, 0.0)
    return symmetrize((u * w[..., None, :]) @ u.swapaxes(-1, -2))


def _spd_eigh(a):
    """Symmetrize, decompose once and check eig_min > rtol*eig_max per slice.

    Returns the symmetrized matrix (or stack) with its eigenvalues and
    eigenvectors.
    """
    a = symmetrize(a)
    w, u = np.linalg.eigh(a)
    _require_spd_spectrum(w)
    return a, w, u


def _require_spd_spectrum(w) -> None:
    """Raise DomainError unless each slice's ascending eigenvalues w have eig_min > rtol*eig_max."""
    # the largest eigenvalue read as max(w), not w[-1]: it is NaN when any
    # eigenvalue is, and eigh can leave a NaN between finite ends, as for
    # diag(1, nan, 1); a negative max fails as it fails against max(., 0)
    wt = w.T
    _require(wt[0] > SPD_RTOL * np.maximum.reduce(wt), w, "SPD")


def require_spd(a) -> np.ndarray:
    """Validated SPD constructor: symmetrize and check eig_min > rtol*eig_max, per slice of a stack."""
    return _spd_eigh(a)[0]


def _inverse(w, u) -> np.ndarray:
    """u diag(1/w) u' from a validated spectrum (w, u): the inverse ``sym_inv`` forms."""
    return symmetrize((u / w[..., None, :]) @ u.swapaxes(-1, -2))


def _sqrt(w, u) -> np.ndarray:
    """u diag(w^{1/2}) u' from a validated spectrum (w, u): the root ``principal_sqrt`` forms."""
    return symmetrize((u * np.sqrt(w)[..., None, :]) @ u.swapaxes(-1, -2))


def _sqrt_pair(w, u) -> tuple[np.ndarray, np.ndarray]:
    """The root and inverse root from a validated spectrum (w, u): the pair ``sqrt_pair`` forms."""
    root = np.sqrt(w)[..., None, :]
    ut = u.swapaxes(-1, -2)
    return symmetrize((u * root) @ ut), symmetrize((u / root) @ ut)


def sym_inv(a) -> np.ndarray:
    """Inverse of an SPD matrix, or of each in a stack, via eigendecomposition; preserves symmetry exactly."""
    return _inverse(*_spd_eigh(a)[1:])


def principal_sqrt(a) -> np.ndarray:
    """Principal symmetric square root of an SPD matrix, or of each in a stack."""
    return _sqrt(*_spd_eigh(a)[1:])


def sqrt_pair(a) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root of an SPD matrix, or of each in a stack, and its inverse, from one decomposition."""
    return _sqrt_pair(*_spd_eigh(a)[1:])


def _loewner_gap(a, b):
    """eig_min(b - a) and the noise scale 1 + ||b - a|| of two matrices, or of each pair of slices.

    b - a is symmetric, so its norm is its spectral radius max(-w_0, w_max),
    read off the one ``eigvalsh`` that gives eig_min.
    """
    a = symmetrize(a)
    b = symmetrize(b)
    check_same_dim(a, b)
    w = np.linalg.eigvalsh(b - a)
    lo = w[..., 0]
    return lo, 1.0 + np.maximum(-lo, w[..., -1])


def _verdict(ok):
    """A bool for one matrix, the array of per-slice verdicts for a stack."""
    return ok if ok.ndim else bool(ok)


def loewner_leq(a, b, tol: float = 1e-10):
    """True iff a <= b in the Loewner order, up to spectral-scale noise tol; per slice of a stack."""
    lo, scale = _loewner_gap(a, b)
    return _verdict(lo >= -tol * scale)


def loewner_lt(a, b, tol: float = 1e-10):
    """True iff a < b strictly: eig_min(b - a) clears the noise floor; per slice of a stack."""
    lo, scale = _loewner_gap(a, b)
    return _verdict(lo > tol * scale)

