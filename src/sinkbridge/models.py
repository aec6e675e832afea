"""Potential constructors and the JSON model-spec loader for the grid engine.

A model document looks like

    {"grid": {"dim": 1, "n": 64, "radius": 8.0},
     "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
     "V": {"kind": "gaussian-mixture", "params": {...}},
     "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}}

W may instead be {"kind": "tabulated", "path": "table.npy"} with an (N, N)
array stored as .npy or delimited text.

``read_object`` reads every JSON object of a config, here and in the CLI,
against a table of its keys; any other key raises ConfigError.  Each kind of
U, V and W is an entry of ``MARGINAL_KINDS`` or ``CHANNEL_KINDS``, so a
grid-sized axis of the wrong length raises ShapeError before tabulation.

A linear-Gaussian channel whose beta and tau have zero off-diagonal
entries is separable: it is stored as one factor table per grid axis (see
the ``discrete`` module docstring), which on a 2-d grid never forms the
(N, N) table.  Every other channel is one dense (N, N) table.  A model
whose largest channel table would exceed ``TABLE_BUDGET`` bytes is
rejected by the loader before anything is read or allocated.
"""

import numbers
import os
import reprlib

import numpy as np

from . import spd
from .discrete import DiscreteModel, Grid, _neg_lse, _normalize_channel, build_model, uniform_grid
from .errors import ConfigError, DomainError, ShapeError

# the largest channel table, in bytes of float64, that a model may hold: the
# dense (4096, 4096) table of a 64 x 64 grid.  Building it holds a few such
# arrays at once (the table, its scaled kernel and temporaries)
TABLE_BUDGET = 8 * 4096**2


def parse_array(value, name: str, ndim: int, finite: bool = False) -> np.ndarray:
    """``value`` as a float array of rank ``ndim``; a lower rank gains leading unit axes.

    Ragged, non-numeric (strings, booleans, null, objects, NaN) or
    higher-rank input raises ConfigError naming ``name``.  +-inf passes,
    as a tabulated table's hard zeros, unless ``finite`` is set.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ConfigError(f"{name} is ragged: {reprlib.repr(value)}") from exc
    if arr.dtype.kind not in "iuf" or arr.ndim > ndim or np.isnan(arr).any():
        raise ConfigError(f"{name} must be a numeric array of rank <= {ndim}, got {reprlib.repr(value)}")
    if finite and not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite, got {reprlib.repr(value)}")
    return arr.astype(float, copy=False).reshape((1,) * (ndim - arr.ndim) + arr.shape)


def parse_count(value, name: str, low: int) -> int:
    """``value`` as an integer >= ``low``; booleans, floats and strings raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def read_object(doc, what: str, fields: dict, dim: int = 0, defaults=None, kinds=None) -> dict:
    """The config object ``doc``, each entry read by its field in ``fields``.

    A field is ``(rank, axes)`` for an array, parsed at ``rank`` with its last
    ``axes`` axes of length ``dim``; a dict for a nested object, read under the
    same name; or None for an entry the caller reads.  An array with a NaN
    or an infinite entry raises ConfigError.  With ``kinds``, the
    object's ``kind`` picks an entry ``(constructor name, fields)`` whose
    fields join ``fields``.  Any other key raises ConfigError naming ``what``,
    the key and the valid keys: a misspelled key never runs at its default.
    A null array counts as left out; a key left out takes its entry in
    ``defaults`` and is otherwise missing, a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if kinds is not None:
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"unknown {what} kind {kind!r}; valid kinds: {', '.join(kinds)}")
        fields = {"kind": None, **fields, **kinds[kind][1]}
    stray = [key for key in doc if key not in fields]
    if stray:
        raise ConfigError(f"unknown {what} key {stray[0]!r}; valid: {', '.join(fields)}")
    out = dict(defaults or {})
    for key, value in doc.items():
        field = fields[key]
        if field is None:
            out[key] = value
        elif isinstance(field, dict):
            out[key] = read_object(value, what, field, dim)
        elif value is not None:
            rank, axes = field
            arr = out[key] = parse_array(value, f"{what} {key}", rank, finite=True)
            if arr.shape[rank - axes:] != (dim,) * axes:
                raise ShapeError(f"{what} {key} has shape {arr.shape}, the grid is {dim}-dimensional")
    missing = [key for key in fields if key not in out]
    if missing:
        raise ConfigError(f"{what} is missing key {missing[0]!r}")
    return out


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
    if not (np.all(weights >= 0.0) and 0.0 < weights.sum() < np.inf):
        raise DomainError(f"mixture weights must be >= 0 and finite with a positive sum, got {weights.tolist()}")
    precs = [spd.sym_inv(c) for c in covs]
    with np.errstate(divide="ignore"):  # a zero weight turns its component off: log 0 = -inf
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
        table = np.einsum("ijk,kl,ijl->ij", diff, prec, diff)
        table *= 0.5  # in place: no second (N, N) array
        return table

    return w


def tabulated_channel_potential(path: str):
    """W read from a table file, checked against the grid; each call reads the file into a table of its own."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"tabulated channel path must be a string, got {reprlib.repr(path)}")

    def w(xs, ys):
        try:
            raw = np.load(path) if str(path).endswith(".npy") else np.loadtxt(path)
        except EOFError as exc:  # an empty .npy file
            raise ConfigError(f"tabulated channel table {path} is empty: {exc}") from exc
        table = parse_array(raw, str(path), 2)
        if table.shape != (xs.shape[0], ys.shape[0]):
            raise DomainError(f"tabulated channel is {table.shape}, grid wants {(xs.shape[0], ys.shape[0])}")
        return table

    return w


# each kind of U and V (parameters in its "params" object) and of W (parameters
# beside its "kind"): its constructor's name and its fields, as read_object reads them
MARGINAL_KINDS = {
    "quadratic": ("quadratic_potential", {"params": {"mean": (1, 1), "cov": (2, 2)}}),
    "quartic-double-well": ("quartic_double_well_potential", {"params": {"a": (0, 0), "b": (0, 0)}}),
    "gaussian-mixture": ("gaussian_mixture_potential", {"params": {"weights": (1, 0), "means": (2, 1), "covs": (3, 2)}}),
}
CHANNEL_KINDS = {
    "linear-gaussian": ("linear_gaussian_channel_potential", {"alpha": (1, 1), "beta": (2, 2), "tau": (2, 2)}),
    "tabulated": ("tabulated_channel_potential", {"path": None}),
}


def _separable(doc: dict) -> bool:
    """Whether a linear-Gaussian channel's beta and tau have zero off-diagonal entries."""
    return not any(np.any(a != np.diag(np.diag(a))) for a in (doc["beta"], doc["tau"]))


def _check_table_size(dim: int, n: int, separable: bool) -> None:
    """Raise ConfigError if the model's largest channel table would exceed ``TABLE_BUDGET`` bytes.

    A separable channel holds one (n, n) factor per axis, any other the
    dense (N, N) table, N = n**dim; only the sizes are computed.
    """
    side = n if separable else n**dim
    size = 8 * side**2
    if size > TABLE_BUDGET:
        kind = "factor" if separable else "dense"
        raise ConfigError(f"grid n = {n} in dim = {dim} needs a {kind} channel table of {side} x {side} doubles, "
                          f"{size} bytes, over the budget of {TABLE_BUDGET} bytes")


def _own_channel(w_fn, grid: Grid):
    """``channel_table`` of a channel made by a constructor of this module.

    Each call of such a ``w_fn`` makes a table that nothing else holds, so
    the table becomes the channel F in place (``discrete._normalize_channel``).
    """
    return _normalize_channel(w_fn(grid.points, grid.points), grid)


def _axis_factors(doc: dict, n: int, radius: float):
    """Per-axis channel factors of a separable linear-Gaussian channel."""
    alpha, beta, tau = doc["alpha"], doc["beta"], doc["tau"]
    axis = uniform_grid(1, n, radius)
    return tuple(
        _own_channel(linear_gaussian_channel_potential(alpha[k], beta[k, k], tau[k, k]), axis)
        for k in range(alpha.size)
    )


def model_from_spec(doc: dict) -> DiscreteModel:
    """Build a DiscreteModel from a JSON-style model document."""
    doc = read_object(doc, "model", dict.fromkeys(("grid", "U", "V", "W")))
    grid = read_object(doc["grid"], "grid", {"dim": None, "n": None, "radius": (0, 0)})
    dim, n = parse_count(grid["dim"], "grid dim", 1), parse_count(grid["n"], "grid n", 1)
    if not grid["radius"] > 0.0:
        raise ConfigError(f"grid radius must be > 0, got {float(grid['radius'])!r}")
    # constructors are looked up at call time, so a rebound one (a tracing wrapper, say) is the one that runs
    u_fn, v_fn = (
        globals()[MARGINAL_KINDS[m["kind"]][0]](**m["params"])
        for m in (read_object(doc[what], what, {}, dim, kinds=MARGINAL_KINDS) for what in ("U", "V"))
    )
    w = read_object(doc["W"], "W", {}, dim, kinds=CHANNEL_KINDS)
    kind = w.pop("kind")
    separable = kind == "linear-gaussian" and _separable(w)
    _check_table_size(dim, n, separable)
    nodes = uniform_grid(dim, n, grid["radius"])
    if separable:
        channel = _axis_factors(w, n, grid["radius"])
    else:
        channel = (_own_channel(globals()[CHANNEL_KINDS[kind][0]](**w), nodes),)
    return build_model(u_fn, v_fn, channel, nodes)
