"""Command-line front end: model ingestion, experiment runs, stable reports.

Every command runs in three phases.  ``load`` turns the JSON config into
typed, validated inputs and fills each default once, ``compute`` runs the
numerics, and ``write`` emits the output files.  ``_run`` is the one place
errors become exit codes:

- an error a malformed config raises while loading (OSError, ValueError,
  TypeError or KeyError) is a bad config: ``config error: ...`` on
  stderr, exit 2, and no output file is written;
- a DomainError while computing is a domain failure: ``runtime error:
  ...``, exit 3;
- any other error is a bug and propagates.

``write`` returns 0 on success, 1 for a verification failure, a broken
invariant or a written row that reads ``satisfied=0``, and 3 for a grid
run that did not converge.  All emitted floats carry 17 significant digits
so files round-trip doubles exactly; identical config and seed give
byte-identical outputs.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

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


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_default(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if x is INFINITE:
        return "infinite"
    return str(x)


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, **doc}, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _run(args, load, compute, write) -> int:
    """Run one command's three phases; the only place an error becomes an exit code."""
    loaded = False
    try:
        inputs = load(args)
        loaded = True
        result = compute(*inputs)
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
    return write(args, *result)


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


def _out(args) -> Path:
    return Path(args.out or f"out/{args.command}")


def _unsatisfied(path: Path, rows) -> int:
    """0, or 1 with a message on stderr when a row's last column, satisfied, reads 0."""
    failed = sum(row.rsplit(",", 1)[-1] == "0" for row in rows)
    if not failed:
        return 0
    print(f"{failed} row(s) of {path} read satisfied=0", file=sys.stderr)
    return 1


def _write_pair(args, doc: dict, header: str, rows) -> int:
    out = _out(args)
    _write_json(out.with_suffix(".json"), doc)
    _write_csv(out.with_suffix(".csv"), header, rows)
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return _unsatisfied(out.with_suffix(".csv"), rows) if header.endswith(",satisfied") else 0


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


def _require_finite(where: str, **cells):
    """Raise DomainError naming the cells of one output row that are inf or NaN."""
    bad = [f"{name} {value}" for name, value in cells.items() if not np.isfinite(value).all()]
    if bad:
        raise DomainError(f"{where} is not finite: {', '.join(bad)}")


# every written cell is checked below, so an overflow stops the run with exit 3, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _riccati(varpi, spectrum, r0, n):
    header = "n,error,envelope,satisfied"
    if riccati.is_infinite(varpi):
        note = "map and fixed point are the identity by convention"
        return {"varpi": "infinite", "fixed_point": np.eye(len(r0)), "note": note}, header, ["0,0,0,1"]
    r_star = riccati.fixed_point(spectrum)
    delta, c_bound = riccati.decay_params(spectrum)
    gaps = riccati.gap_norms(riccati._iterate_spectral(*spectrum, r0, n)[1])
    env = riccati.decay_envelope(gaps, delta, c_bound)
    ok = verify.decay_holds(gaps, env)
    rows = []
    for k in range(n + 1):
        _require_finite(f"riccati row n={k}", error=gaps[k], envelope=env[k])
        rows.append(f"{k},{_fmt(gaps[k])},{_fmt(env[k])},{int(ok[k])}")
    # empirical prefactor fit: the largest gap ratio against delta^k gap_0, over the rows where that is not 0
    scale = riccati._powers(delta, np.arange(1, n + 1)) * gaps[0]
    fit = float(np.max(gaps[1:][scale > 0] / scale[scale > 0], initial=0.0))
    _require_finite("riccati report", delta=delta, prefactor_bound=c_bound, prefactor_empirical_fit=fit)
    doc = {
        "varpi": varpi,
        "fixed_point": r_star,
        "delta": delta,
        "prefactor_bound": c_bound,
        "prefactor_empirical_fit": fit,
        # the independent check: it starts again from the dense matrix
        "identities": riccati.fixed_point_identities(varpi),
    }
    return doc, header, rows


def cmd_riccati(args) -> int:
    return _run(args, _load_riccati, _riccati, _write_pair)


def _load_gaussian(args):
    _, model = _config(args)
    mu, eta = (g.GaussianMeasure(**read_object(model[key], key, {"mean": (1, 0), "cov": (2, 0)}))
               for key in ("mu", "eta"))
    k = _kernel(model["kernel"])
    spec = CurvatureSpec.gaussian(mu.cov, eta.cov) if model["spec"] is None else _spec(model["spec"])
    _check_dims(mu=mu, eta=eta, kernel=k, spec=spec)
    t_grid = _positive(model["t_grid"], "t_grid", 1).tolist()
    return mu, eta, k, spec, parse_count(model["n_max"], "n_max", 1), t_grid


# every written cell is checked below, so an overflow stops the run with exit 3, not a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _gaussian(mu, eta, k, spec, n_max, t_grid):
    eps = bounds.eps_lg(k, spec)
    bridge = g.bridge_solve(mu, eta, k)
    states = g.sinkhorn_run(bridge, n_max)
    gaps = g.bridge_gaps(bridge, states)
    pair, improved = bounds.entropy_envelopes(eps, gaps)
    ok = verify.dominated(gaps, pair) & verify.dominated(gaps, improved)
    trace_rows = []
    for s, gap, env_pair, env_phi, row_ok in zip(states, gaps, pair, improved, ok):
        pi = g.GaussianMeasure(s.m_n, s.sigma_pi_n)
        w2 = g.gelbrich_w2(eta, pi) if s.n % 2 == 0 else g.gelbrich_w2(mu, pi)
        # env_phi's inf before n = 2 is documented; any other inf would pass its check as inf <= inf
        _require_finite(f"gaussian trace row n={s.n}", gap=gap, W2=w2, envelope_pair=env_pair,
                        envelope_phi=env_phi if s.n >= 2 else 0.0)
        trace_rows.append(f"{s.n},{_fmt(gap)},{_fmt(w2)},{_fmt(env_pair)},{_fmt(env_phi)},{int(row_ok)}")

    lim = bridge.ot_limit()
    sweep_rows = []
    for t in t_grid:
        slope = bridge.rescaled(t).forward.slope
        gap, norm = spd.spectral_norm(slope - lim.slope), spd.spectral_norm(slope)
        _require_finite(f"gaussian ot_sweep row t={t!r}", slope_gap_to_limit=gap, slope_norm=norm)
        sweep_rows.append(f"{_fmt(t)},{_fmt(gap)},{_fmt(norm)}")

    a, b = bounds.proximal_rates(k, spec)
    nu = g.GaussianMeasure(mu.mean + 3.0, 2.0 * mu.cov)
    prox_rows = []
    for n_step, (w2, w2_env, kl, kl_env) in enumerate(bounds.proximal_trace(nu, mu, k, a, b, 20)):
        _require_finite(f"gaussian proximal row n={n_step}", W2=w2, W2_envelope=w2_env, KL=kl, KL_envelope=kl_env)
        prox_rows.append(f"{n_step},{_fmt(w2)},{_fmt(w2_env)},{_fmt(kl)},{_fmt(kl_env)}")
    report = {
        "eps": eps,
        "phi": bounds.phi(eps),
        "proximal_a": a,
        "proximal_b": b,
        "terminal_bridge_gap": float(gaps[-1]),
        "forward_noise_cov": bridge.forward.noise_cov,
    }
    _require_finite("gaussian report", **report)
    return trace_rows, sweep_rows, prox_rows, report


def _write_gaussian(args, trace_rows, sweep_rows, prox_rows, report) -> int:
    out = _out(args)
    trace = out.parent / (out.name + "_trace.csv")
    _write_csv(trace, "n,H_bridge_gap,W2_marginal_gap,envelope_pair,envelope_phi,satisfied", trace_rows)
    _write_csv(out.parent / (out.name + "_ot_sweep.csv"), "t,slope_gap_to_limit,slope_norm", sweep_rows)
    _write_csv(out.parent / (out.name + "_proximal.csv"), "n,W2,W2_envelope,KL,KL_envelope", prox_rows)
    _write_json(out.parent / (out.name + "_report.json"), report)
    print(f"wrote {trace} (+ ot_sweep, proximal, report)")
    return _unsatisfied(trace, trace_rows)


def cmd_gaussian(args) -> int:
    return _run(args, _load_gaussian, _gaussian, _write_gaussian)


def _load_discrete(args):
    config, model = _config(args)
    n_sweeps = parse_count(config["n_sweeps"], "n_sweeps", 1)
    tolerances = read_object(config["tolerances"], "tolerances", {"marginal": None}, defaults={"marginal": 1e-10})
    tol = float(_positive(tolerances["marginal"], "tolerances.marginal"))
    return models.model_from_spec(model), n_sweeps, tol


def _discrete(model, n_sweeps, tol):
    trace = discrete.run(model, n_sweeps, tol=tol)
    # resume from the trace's last even state instead of redoing its sweeps
    oracle = discrete.bridge_oracle(model, start=trace.states[-2])
    rep = discrete.entropy_report(trace, oracle)
    keys = ("H_pi2n_eta", "H_mu_pi2n1", "H_eta_pi2n", "H_pi2n1_mu", "H_bridge_even")
    # H_mu_pi2n1 is read one sweep back; its row 0 is a NaN placeholder, as pi_{-1} does not exist
    columns = {key: rep[key][:-1] if key == "H_mu_pi2n1" else rep[key] for key in keys}
    _require_finite("discrete trace", **columns)
    columns["H_mu_pi2n1"] = [float("nan")] + columns["H_mu_pi2n1"]
    rows = [",".join([str(n), *map(_fmt, cells)]) for n, cells in enumerate(zip(*columns.values()))]
    summary = {
        "converged": trace.converged,
        "sweeps": trace.n_sweeps,
        "final_residual": trace.residuals[-1],
        "entropy_monotone": verify.chains_monotone(rep),
    }
    _require_finite("discrete report", final_residual=summary["final_residual"])
    return rows, summary


def _write_discrete(args, rows, summary) -> int:
    out = _out(args)
    _write_csv(out.with_suffix(".csv"), "n,H_pi2n_eta,H_mu_pi2n1,H_eta_pi2n,H_pi2n1_mu,H_bridge_Pn", rows)
    _write_json(out.with_suffix(".json"), summary)
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
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
    _require_finite("bounds report", **{name: s["value"] for name, s in report.scalars.items()})
    # the envelopes documented as inf: improved before n = 2, corrected before n = p
    first = {"improved-entropy-rate": 2, "corrected-two-step-rate": p}
    for n, tag, bound in report.envelopes:
        _require_finite(f"bounds row n={n} {tag}", bound=bound if n >= first.get(tag, 0) else 0.0)
    rows = [f"{n},{tag},{_fmt(bound)}" for n, tag, bound in report.envelopes]
    return {"scalars": report.scalars}, "n,theorem_tag,bound", rows


def cmd_bounds(args) -> int:
    return _run(args, _load_bounds, _bounds, _write_pair)


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
    return verify.summary_document(results, seed), results


def _write_verify(args, doc: str, results) -> int:
    if args.json:
        print(doc)
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['id']:>2}  {r['name']}")
    if args.out:
        path = Path(args.out).with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc + "\n")
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
