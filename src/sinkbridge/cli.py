"""Command-line front end: model ingestion, experiment runs, stable reports.

Every command runs in three phases.  ``load`` turns the JSON config into
typed, validated inputs and fills each default once, ``compute`` runs the
numerics and returns each output file as data (a table of columns by
header name, or a report dict), and ``write`` emits the files.  ``_run``
renders every file before it writes one, and is the one place errors
become exit codes:

- an error a malformed config raises while loading (OSError, ValueError,
  TypeError or KeyError) is a bad config: ``config error: ...`` on
  stderr, exit 2, and no output file is written;
- a DomainError while computing or rendering is a domain failure:
  ``runtime error: ...``, exit 3, and no output file is written.
  Rendering raises one for any inf or NaN it would write, except the
  documented placeholders, which their columns declare: ``gaussian`` trace
  ``envelope_phi`` before n = 2, ``bounds`` ``improved-entropy-rate``
  before n = 2 and ``corrected-two-step-rate`` before n = p, and
  ``discrete`` ``H_mu_pi2n1`` at row 0;
- any other error is a bug and propagates.

``write`` returns 0 on success; 1 for a failed ``verify`` criterion, a
non-monotone ``discrete`` entropy chain or a row that reads ``satisfied=0``
(``riccati``'s ``identities.ok`` is reported, never gated); 3 for a grid
run that did not converge.  Every emitted float round-trips its double (table
cells carry 17 significant digits); identical config and seed give
byte-identical outputs.
"""

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds, discrete, models, riccati, spd, verify
from . import gaussian as g
from .bounds import ZERO, CurvatureSpec
from .errors import ConfigError, DomainError, ShapeError
from .models import parse_array, parse_count, read_object
from .riccati import INFINITE

SCHEMA = "sinkbridge/v1"
COMMANDS = ("riccati", "gaussian", "discrete", "bounds", "verify")

# each command's top-level config keys beside "command", with their defaults
CONFIG_DEFAULTS = {
    "riccati": {"model": {}},
    "gaussian": {"model": {}},
    "discrete": {"model": {}, "n_sweeps": 500, "tolerances": {}},
    "bounds": {"model": {}},
    "verify": {"seed": 0},
}

# each command's model defaults; a config's "model" object overrides them key by key
_STANDARD = {"mean": [0.0], "cov": [[1.0]]}
_CHANNEL = {"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}
_QUADRATIC = {"kind": "quadratic", "params": _STANDARD}
MODEL_DEFAULTS = {
    "riccati": {"varpi": 1.0, "r0": 0.0, "n": 50, "dim": 1},
    "gaussian": {"mu": _STANDARD, "eta": _STANDARD, "kernel": _CHANNEL, "spec": None, "n_max": 30,
                 "t_grid": [10.0, 1.0, 0.1, 0.01, 0.001]},
    "discrete": {"grid": {"dim": 1, "n": 64, "radius": 8.0}, "U": _QUADRATIC, "V": _QUADRATIC,
                 "W": {"kind": "linear-gaussian", **_CHANNEL}},
    "bounds": {"kernel": _CHANNEL, "spec": dict.fromkeys(("u_plus", "v_plus", "u_minus", "v_minus"), [[1.0]]),
               "n_max": 20, "p": 1},
}


def _json_default(x):
    """An array or a numpy scalar as its list or number; a report holds no other type that json cannot write."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"a report value of type {type(x).__name__} has no JSON form")


class _Placeholders(NamedTuple):
    """A float column whose cells under ``mask`` are documented placeholders, written as the inf or NaN they hold."""
    values: object
    mask: object


def _csv(where: str, table: dict) -> str:
    """A table's text; DomainError names its first non-finite cell, row by row, that is not a placeholder."""
    cells, bad, names = {}, {}, [next(iter(table))]  # a row is named by its first and its text columns
    for column, values in table.items():
        values, declared = values if isinstance(values, _Placeholders) else (values, False)
        data = np.asarray(values)
        if data.dtype.kind == "f":
            bad[column] = ~(np.isfinite(data) | declared)
            cells[column] = [format(x, ".17g") for x in data.tolist()]
        else:
            cells[column] = [str(int(x)) if data.dtype.kind == "b" else str(x) for x in data.tolist()]
            names += [column] if data.dtype.kind == "U" else []
    failed = [(int(np.argmax(b)), column) for column, b in bad.items() if b.any()]
    if failed:
        row, column = min(failed, key=lambda f: f[0])
        label = " ".join(f"{name}={cells[name][row]}" for name in names)
        raise DomainError(f"{where} row {label} is not finite: {column} {cells[column][row]}")
    return "\n".join([",".join(table), *map(",".join, zip(*cells.values()))]) + "\n"


def _numbers(doc, key=""):
    """(key, value) for each float and array of a report, with nested keys and list indices joined by dots."""
    if isinstance(doc, (float, np.floating, np.ndarray)):
        yield key, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, (list, tuple)) else ()
    for name, value in items:
        yield from _numbers(value, f"{key}.{name}" if key else str(name))


def _render(command: str, path, data) -> str:
    """The text of one output file, after checking that every number in it is finite or a placeholder."""
    where = f"{command} {path or 'stdout'}"
    if path is not None and path.suffix == ".csv":
        return _csv(where, data)
    for key, value in _numbers(data):
        if not np.isfinite(value).all():
            raise DomainError(f"{where} report is not finite: {key} {value}")
    if command == "verify":  # the canonical summary, which criterion 11 compares byte for byte
        return verify.summary_document(data["criteria"], data["seed"]) + "\n"
    return json.dumps({"schema": SCHEMA, **data}, indent=2, sort_keys=True, default=_json_default) + "\n"


def _path(args, suffix: str) -> Path | None:
    """Where one output file goes (a suffix after a dot replaces the prefix's own); None is verify's stdout."""
    if args.command == "verify" and not args.out:
        return None
    out = Path(args.out or f"out/{args.command}")
    return out.with_suffix(suffix) if suffix.startswith(".") else out.parent / (out.name + suffix)


def _save(texts: dict):
    """The one writer of output files."""
    for path, text in texts.items():
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def _write(args, files: dict, texts: dict) -> int:
    """Write every file; 1 with a message on stderr when a table's satisfied column holds a 0."""
    _save(texts)
    *first, last = texts
    print(f"wrote {', '.join(map(str, first))} and {last}")
    failed = {path: np.count_nonzero(np.logical_not(data.get("satisfied", True))) for path, data in files.items()}
    for path in filter(failed.get, failed):
        print(f"{failed[path]} row(s) of {path} read satisfied=0", file=sys.stderr)
    return int(any(failed.values()))


def _run(args, load, compute, write=_write) -> int:
    """Run one command's three phases; the only place an error becomes an exit code."""
    loaded = False
    try:
        inputs = load(args)
        loaded = True
        files = {_path(args, suffix): data for suffix, data in compute(*inputs).items()}
        texts = {path: _render(args.command, path, data) for path, data in files.items()}
    # what a malformed config raises while loading; DomainError is a ValueError
    except (OSError, ValueError, TypeError, KeyError) as exc:
        if not loaded:
            if isinstance(exc, json.JSONDecodeError):
                exc = f'not valid JSON ({exc}); expected an object like {{"command": "{args.command}", "model": {{...}}}}'
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(exc, DomainError):
            raise
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return write(args, files, texts)


def _config(args) -> tuple[dict, dict]:
    """The config document and its model object, each with its defaults filled in."""
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    defaults = {"command": args.command, **CONFIG_DEFAULTS[args.command]}
    config = read_object(doc, "config", dict.fromkeys(defaults), defaults=defaults)
    if config["command"] != args.command:
        raise ConfigError(f"config is for command {config['command']!r}, not {args.command!r}")
    defaults = MODEL_DEFAULTS.get(args.command, {})
    return config, read_object(config.get("model", {}), "model", dict.fromkeys(defaults), defaults=defaults)


def _kernel(doc) -> g.LinearGaussianKernel:
    return g.LinearGaussianKernel(**read_object(doc, "kernel", {"alpha": (1, 0), "beta": (2, 0), "tau": (2, 0)}))


def _spec(doc) -> CurvatureSpec:
    """A missing or null upper factor is ZERO."""
    fields = dict.fromkeys(("u_plus", "v_plus", "u_minus", "v_minus"), (2, 0))
    return CurvatureSpec(**read_object(doc, "spec", fields, defaults={"u_minus": ZERO, "v_minus": ZERO}))


def _check_dims(**parts):
    dims = {name: part.dim for name, part in parts.items()}
    if len(set(dims.values())) > 1:
        raise ShapeError(f"dimensions disagree: {dims}")


def _positive(value, name: str, ndim: int = 0) -> np.ndarray:
    arr = parse_array(value, name, ndim, finite=True)
    if not np.all(arr > 0):
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return arr


def _load_riccati(args):
    config, model = _config(args)
    n = parse_count(model["n"], "n", 0)
    infinite = isinstance(model["varpi"], str) and model["varpi"].lower() == "infinite"
    unread = "r0" if infinite else "dim"
    if unread in config["model"]:  # the keys the config gives, not the defaults
        raise ConfigError(f"model key {unread!r} is not read when varpi is {model['varpi']!r}")
    if infinite:
        # the start carries only the dimension: the map is the identity
        return INFINITE, INFINITE, np.zeros((parse_count(model["dim"], "dim", 1),) * 2), n
    varpi = parse_array(model["varpi"], "varpi", 2, finite=True)
    # the one validated decomposition every Riccati call below works from
    spectrum = riccati._spectrum(varpi)
    r0 = parse_array(model["r0"], "r0", 2, finite=True)
    if r0.shape == (1, 1):
        r0 = r0[0, 0] * np.eye(len(varpi))
    if r0.shape != varpi.shape:
        raise ShapeError(f"r0 has shape {r0.shape}, varpi {varpi.shape}")
    return varpi, spectrum, spd.clamp_psd(r0), n


# every written number is checked as it is rendered, so an overflow stops the run with exit 3, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _riccati(varpi, spectrum, r0, n):
    if riccati.is_infinite(varpi):
        note = "map and fixed point are the identity by convention"
        return {".json": {"varpi": "infinite", "fixed_point": np.eye(len(r0)), "note": note},
                ".csv": {"n": [0], "error": [0.0], "envelope": [0.0], "satisfied": [True]}}
    r_star = riccati.fixed_point(spectrum)
    delta, c_bound = riccati.decay_params(spectrum)
    gaps = riccati.gap_norms(riccati._delta_flow(*spectrum, r0, n)[0])
    env = riccati.decay_envelope(gaps, delta, c_bound)
    # empirical prefactor fit: the largest gap ratio against delta^k gap_0, over the rows where that is not 0
    scale = riccati._powers(delta, np.arange(1, n + 1)) * gaps[0]
    fit = float(np.max(gaps[1:][scale > 0] / scale[scale > 0], initial=0.0))
    doc = {
        "varpi": varpi,
        "fixed_point": r_star,
        "delta": delta,
        "prefactor_bound": c_bound,
        "prefactor_empirical_fit": fit,
        # the independent check: it starts again from the dense matrix
        "identities": riccati.fixed_point_identities(varpi),
    }
    table = {"n": np.arange(n + 1), "error": gaps, "envelope": env, "satisfied": verify.dominated(gaps, env)}
    return {".json": doc, ".csv": table}


def cmd_riccati(args) -> int:
    return _run(args, _load_riccati, _riccati)


def _load_gaussian(args):
    _, model = _config(args)
    mu, eta = (g.GaussianMeasure(**read_object(model[key], key, {"mean": (1, 0), "cov": (2, 0)}))
               for key in ("mu", "eta"))
    k = _kernel(model["kernel"])
    spec = CurvatureSpec.gaussian(mu, eta) if model["spec"] is None else _spec(model["spec"])
    _check_dims(mu=mu, eta=eta, kernel=k, spec=spec)
    t_grid = _positive(model["t_grid"], "t_grid", 1).tolist()
    return mu, eta, k, spec, parse_count(model["n_max"], "n_max", 1), t_grid


# every written number is checked as it is rendered, so an overflow stops the run with exit 3, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _gaussian(mu, eta, k, spec, n_max, t_grid):
    eps = bounds.eps_lg(k, spec)
    bridge = g.bridge_solve(mu, eta, k)
    run = g.sinkhorn_run(bridge, n_max)
    gaps = g.bridge_gaps(bridge, run)
    pair, improved = bounds.entropy_envelopes(eps, gaps)
    n = np.arange(len(gaps))
    # each state's free marginal against its target, one stacked call per parity: eta at even n, mu at odd n
    w2 = np.empty(len(gaps))
    for parity, target in ((0, eta), (1, mu)):
        w2[parity::2] = g.gelbrich_w2(target, g.GaussianMeasure(run.mean[parity::2], run.sigma[parity::2]))
    # envelope_phi's inf before n = 2 is documented; any other inf would pass the gate as inf <= inf
    trace = {"n": n, "H_bridge_gap": gaps, "W2_marginal_gap": w2, "envelope_pair": pair,
             "envelope_phi": _Placeholders(improved, n < 2),
             "satisfied": verify.dominated(gaps, pair) & verify.dominated(gaps, improved)}

    lim = bridge.ot_limit()
    slopes = [bridge.rescaled(t).forward.slope for t in t_grid]
    sweep = {"t": t_grid, "slope_gap_to_limit": [spd.spectral_norm(s - lim.slope) for s in slopes],
             "slope_norm": [spd.spectral_norm(s) for s in slopes]}

    a, b = bounds.proximal_rates(k, spec)
    nu = g.GaussianMeasure(mu.mean + 3.0, 2.0 * mu.cov)
    rows = np.array(bounds.proximal_trace(nu, mu, k, a, b, 20))
    proximal = {"n": np.arange(len(rows)), **dict(zip(("W2", "W2_envelope", "KL", "KL_envelope"), rows.T))}
    report = {
        "eps": eps,
        "phi": bounds.phi(eps),
        "proximal_a": a,
        "proximal_b": b,
        "terminal_bridge_gap": float(gaps[-1]),
        "forward_noise_cov": bridge.forward.noise_cov,
    }
    return {"_trace.csv": trace, "_ot_sweep.csv": sweep, "_proximal.csv": proximal, "_report.json": report}


def cmd_gaussian(args) -> int:
    return _run(args, _load_gaussian, _gaussian)


def _load_discrete(args):
    config, model = _config(args)
    n_sweeps = parse_count(config["n_sweeps"], "n_sweeps", 1)
    tolerances = read_object(config["tolerances"], "tolerances", {"marginal": None}, defaults={"marginal": 1e-10})
    tol = float(_positive(tolerances["marginal"], "tolerances.marginal"))
    return models.model_from_spec(model), n_sweeps, tol


def _discrete(model, n_sweeps, tol):
    trace = discrete.run(model, n_sweeps, tol=tol)
    # continue the trace past its last sweep: no half-step is made twice
    oracle = discrete.bridge_oracle(model, start=trace)
    rep = discrete.entropy_report(trace, oracle)
    n = np.arange(len(rep["H_pi2n_eta"]))
    # H_mu_pi2n1 is read one sweep back: its row 0 is a NaN placeholder, as pi_{-1} does not exist
    h_mu = _Placeholders([float("nan")] + rep["H_mu_pi2n1"][:-1], n == 0)
    table = {"n": n, "H_pi2n_eta": rep["H_pi2n_eta"], "H_mu_pi2n1": h_mu, "H_eta_pi2n": rep["H_eta_pi2n"],
             "H_pi2n1_mu": rep["H_pi2n1_mu"], "H_bridge_Pn": rep["H_bridge_even"]}
    summary = {
        "converged": trace.converged,
        "sweeps": trace.n_sweeps,
        "final_residual": trace.residuals[-1],
        "entropy_monotone": verify.chains_monotone(rep),
    }
    return {".csv": table, ".json": summary}


def _write_discrete(args, files, texts) -> int:
    _write(args, files, texts)  # the table has no satisfied column
    summary = files[_path(args, ".json")]
    if not summary["converged"]:
        print("did not converge within the sweep budget", file=sys.stderr)
        return 3
    if not summary["entropy_monotone"]:
        print("entropy monotonicity violated", file=sys.stderr)
        return 1
    return 0


def cmd_discrete(args) -> int:
    return _run(args, _load_discrete, _discrete, _write_discrete)


def _load_bounds(args):
    _, model = _config(args)
    k, spec = _kernel(model["kernel"]), _spec(model["spec"])
    _check_dims(kernel=k, spec=spec)
    return k, spec, parse_count(model["n_max"], "n_max", 0), parse_count(model["p"], "p", 0)


def _bounds(k, spec, n_max, p):
    report = bounds.rate_table(k, spec, n_max, p=p)
    n, tags, bound = zip(*report.envelopes)
    # the envelopes documented as inf: improved before n = 2, corrected before n = p
    first = {"improved-entropy-rate": 2, "corrected-two-step-rate": p}
    placeholder = [row < first.get(tag, 0) for row, tag in zip(n, tags)]
    table = {"n": n, "theorem_tag": tags, "bound": _Placeholders(bound, placeholder)}
    return {".json": {"scalars": report.scalars}, ".csv": table}


def cmd_bounds(args) -> int:
    return _run(args, _load_bounds, _bounds)


def _load_verify(args):
    config, _ = _config(args)
    seed = parse_count(config["seed"] if args.seed is None else args.seed, "seed", 0)
    names = [name for name, _ in verify.CRITERIA] + [verify.DETERMINISM]
    if args.filter and not any(args.filter in name for name in names):
        raise ConfigError(f"--filter {args.filter!r} matches no criterion; valid: {', '.join(names)}")
    return seed, args.filter


def _verify(seed, name_filter):
    results = verify.run_criteria(seed=seed, name_filter=name_filter)
    if not name_filter or name_filter in verify.DETERMINISM:
        # the full suite is itself the first of the two runs compared
        first = None if name_filter else verify.summary_document(results, seed)
        results.append(verify.criterion_determinism(seed, first=first))
    return {".json": {"seed": seed, "criteria": results}}


def _write_verify(args, files, texts) -> int:
    results = next(iter(files.values()))["criteria"]
    if args.json:
        print(*texts.values(), end="")
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['id']:>2}  {r['name']}")
    _save(texts)
    return 0 if all(r["passed"] for r in results) else 1


def cmd_verify(args) -> int:
    return _run(args, _load_verify, _verify, _write_verify)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sinkbridge",
        description="Riccati flows, Gaussian Schrodinger/Sinkhorn bridges, grid Sinkhorn, and rate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output path prefix")
        if name == "verify":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--filter", help="restrict verify to criteria whose name contains this")
            p.add_argument("--json", action="store_true", help="print machine-readable summary")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* (a tracing wrapper, say) is the one that runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
