"""Potential constructors and the JSON model-spec loader for the grid engine.

A model document looks like

    {"grid": {"dim": 1, "n": 64, "radius": 8.0},
     "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
     "V": {"kind": "gaussian-mixture", "params": {...}},
     "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}}

W may instead be {"kind": "tabulated", "path": "table.npy"} with an (N, N)
array stored as .npy or delimited text.

Every vector or matrix parameter is read once by ``parse_array`` and must
be sized for the grid's dimension; a mismatch raises ShapeError before
anything is tabulated.  A linear-Gaussian channel whose beta and tau have
zero off-diagonal entries is separable: it is stored as one factor table
per grid axis (see the ``discrete`` module docstring), which on a 2-d grid
never forms the (N, N) table.  Every other channel is one dense (N, N)
table.
"""

import numbers
import reprlib

import numpy as np

from . import spd
from .discrete import DiscreteModel, _neg_lse, build_model, channel_table, uniform_grid
from .errors import ConfigError, DomainError, ShapeError


def parse_array(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a float array of rank ``ndim``; a lower rank gains leading unit axes.

    Ragged, non-numeric (strings, booleans, null, objects, NaN) or
    higher-rank input raises ConfigError naming ``name``; +-inf passes.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ConfigError(f"{name} is ragged: {reprlib.repr(value)}") from exc
    if arr.dtype.kind not in "iuf" or arr.ndim > ndim or np.isnan(arr).any():
        raise ConfigError(f"{name} must be a numeric array of rank <= {ndim}, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False).reshape((1,) * (ndim - arr.ndim) + arr.shape)


def parse_count(value, name: str, low: int) -> int:
    """``value`` as an integer >= ``low``; booleans, floats and strings raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def quadratic_potential(mean, cov):
    """U(x) = (x - m)' cov^{-1} (x - m) / 2, the Gaussian potential."""
    mean = parse_array(mean, "mean", 1)
    prec = spd.sym_inv(parse_array(cov, "cov", 2))

    def u(points):
        diff = points - mean[None, :]
        return 0.5 * np.einsum("ij,jk,ik->i", diff, prec, diff)

    return u


def quartic_double_well_potential(a: float, b: float):
    """U(x) = sum_axis a x^4 - b x^2; convex at infinity, bimodal for b > 0."""
    if a <= 0:
        raise DomainError("quartic coefficient a must be positive")

    def u(points):
        return np.sum(a * points**4 - b * points**2, axis=1)

    return u


def gaussian_mixture_potential(weights, means, covs):
    """U(x) = -log sum_k w_k g_k(x) for Gaussian components g_k."""
    weights = parse_array(weights, "weights", 1)
    means = parse_array(means, "means", 2)
    covs = parse_array(covs, "covs", 3)
    if weights.shape[0] != means.shape[0] or weights.shape[0] != covs.shape[0]:
        raise DomainError("mixture weights/means/covs lengths disagree")
    precs = [spd.sym_inv(c) for c in covs]
    log_norms = [
        -0.5 * (np.linalg.slogdet(2.0 * np.pi * c)[1]) + np.log(wk)
        for c, wk in zip(covs, weights)
    ]

    def u(points):
        comps = []
        for mean, prec, ln in zip(means, precs, log_norms):
            diff = points - mean[None, :]
            comps.append(0.5 * np.einsum("ij,jk,ik->i", diff, prec, diff) - ln)
        return -_neg_lse(np.stack(comps, axis=0), 0)

    return u


def linear_gaussian_channel_potential(alpha, beta, tau):
    """W(x, y) = (y - a - Bx)' tau^{-1} (y - a - Bx) / 2 up to a constant."""
    alpha = parse_array(alpha, "alpha", 1)
    beta = parse_array(beta, "beta", 2)
    prec = spd.sym_inv(parse_array(tau, "tau", 2))

    def w(xs, ys):
        pred = alpha[None, :] + xs @ beta.T
        diff = ys[None, :, :] - pred[:, None, :]
        return 0.5 * np.einsum("ijk,kl,ijl->ij", diff, prec, diff)

    return w


def tabulated_channel_potential(path: str):
    table = parse_array(np.load(path) if str(path).endswith(".npy") else np.loadtxt(path), str(path), 2)

    def w(xs, ys):
        if table.shape != (xs.shape[0], ys.shape[0]):
            raise DomainError(f"tabulated channel is {table.shape}, grid wants {(xs.shape[0], ys.shape[0])}")
        return table

    return w


_MARGINAL_KINDS = {
    "quadratic": lambda p: quadratic_potential(p["mean"], p["cov"]),
    "quartic-double-well": lambda p: quartic_double_well_potential(p["a"], p["b"]),
    "gaussian-mixture": lambda p: gaussian_mixture_potential(p["weights"], p["means"], p["covs"]),
}


def marginal_potential_from_spec(doc: dict):
    try:
        kind = doc["kind"]
        params = doc.get("params", {})
        return _MARGINAL_KINDS[kind](params)
    except KeyError as exc:
        raise DomainError(f"unknown or incomplete marginal potential spec: {doc}") from exc


def channel_potential_from_spec(doc: dict):
    kind = doc.get("kind")
    if kind == "linear-gaussian":
        return linear_gaussian_channel_potential(doc["alpha"], doc["beta"], doc["tau"])
    if kind == "tabulated":
        return tabulated_channel_potential(doc["path"])
    raise DomainError(f"unknown channel kind: {kind!r}")


# spec parameters sized by the state dimension: (name, rank, trailing axes of size dim)
_DIM_PARAMS = {
    "quadratic": (("mean", 1, 1), ("cov", 2, 2)),
    "gaussian-mixture": (("means", 2, 1), ("covs", 3, 2)),
    "linear-gaussian": (("alpha", 1, 1), ("beta", 2, 2), ("tau", 2, 2)),
}


def _parse_params(what: str, kind, params: dict, dim: int) -> dict:
    """``params`` with every dimension-sized entry parsed and checked against the grid."""
    out = dict(params)
    for name, rank, axes in _DIM_PARAMS.get(kind, ()):
        arr = out[name] = parse_array(params[name], f"{what} {name}", rank)
        if arr.shape[-axes:] != (dim,) * axes:
            raise ShapeError(f"{what} {name} has shape {arr.shape}, the grid is {dim}-dimensional")
    return out


def _axis_factors(doc: dict, n: int, radius: float):
    """Per-axis ``channel_table`` factors of a linear-Gaussian channel with diagonal beta and tau, else None."""
    alpha, beta, tau = doc["alpha"], doc["beta"], doc["tau"]
    if np.any(beta != np.diag(np.diag(beta))) or np.any(tau != np.diag(np.diag(tau))):
        return None
    axis = uniform_grid(1, n, radius)
    return tuple(
        channel_table(linear_gaussian_channel_potential(alpha[k], beta[k, k], tau[k, k]), axis)
        for k in range(alpha.size)
    )


def model_from_spec(doc: dict) -> DiscreteModel:
    """Build a DiscreteModel from a JSON-style model document."""
    try:
        gdoc = doc["grid"]
        dim, n = parse_count(gdoc["dim"], "grid dim", 1), parse_count(gdoc["n"], "grid n", 1)
        radius = float(gdoc["radius"])
        grid = uniform_grid(dim, n, radius)
        u_fn, v_fn = (
            marginal_potential_from_spec(dict(m, params=_parse_params(what, m.get("kind"), m.get("params", {}), dim)))
            for what, m in (("U", doc["U"]), ("V", doc["V"]))
        )
        wdoc = _parse_params("W", doc["W"].get("kind"), doc["W"], dim)
        factors = _axis_factors(wdoc, n, radius) if wdoc.get("kind") == "linear-gaussian" else None
        w_fn = factors or channel_potential_from_spec(wdoc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"malformed model spec: {exc}") from exc
    return build_model(u_fn, v_fn, w_fn, grid)
