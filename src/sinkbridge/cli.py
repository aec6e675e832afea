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
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds, discrete, models, riccati, spd, verify
from . import gaussian as g
from .bounds import CurvatureSpec
from .errors import ConfigError, DomainError, ShapeError
from .models import parse_array, parse_count
from .riccati import INFINITE

SCHEMA = "sinkbridge/v1"
COMMANDS = ("riccati", "gaussian", "discrete", "bounds", "verify")

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


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _config(args) -> tuple[dict, dict]:
    """The config document and its model object merged over the command's defaults."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = _object(json.load(fh), "the config")
        if config.get("command", args.command) != args.command:
            raise ConfigError(f"config is for command {config.get('command')!r}, not {args.command!r}")
    return config, {**MODEL_DEFAULTS.get(args.command, {}), **_object(config.get("model", {}), "model")}


def _build(cls, doc, what: str, **ranks):
    """``cls`` from the array entries of a config object; an absent or null entry keeps its default."""
    present = [key for key in ranks if _object(doc, what).get(key) is not None]
    return cls(**{key: parse_array(doc[key], f"{what} {key}", ranks[key]) for key in present})


def _kernel(doc) -> g.LinearGaussianKernel:
    return _build(g.LinearGaussianKernel, doc, "kernel", alpha=1, beta=2, tau=2)


def _spec(doc) -> CurvatureSpec:
    """A missing or null upper factor is ZERO."""
    return _build(CurvatureSpec, doc, "spec", u_plus=2, v_plus=2, u_minus=2, v_minus=2)


def _check_dims(**parts):
    dims = {name: part.dim for name, part in parts.items()}
    if len(set(dims.values())) > 1:
        raise ShapeError(f"dimensions disagree: {dims}")


def _positive(value, name: str, ndim: int = 0) -> np.ndarray:
    arr = parse_array(value, name, ndim)
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
    return _unsatisfied(out.with_suffix(".csv"), rows)


def _load_riccati(args):
    _, model = _config(args)
    n = parse_count(model["n"], "n", 0)
    if isinstance(model["varpi"], str) and model["varpi"].lower() == "infinite":
        # the start carries only the dimension: the map is the identity
        return INFINITE, INFINITE, np.zeros((parse_count(model["dim"], "dim", 1),) * 2), n
    varpi = parse_array(model["varpi"], "varpi", 2)
    # the one validated decomposition every Riccati call below works from
    spectrum = riccati._spectrum(varpi)
    r0 = parse_array(model["r0"], "r0", 2)
    if r0.shape == (1, 1):
        r0 = r0[0, 0] * np.eye(len(varpi))
    if r0.shape != varpi.shape:
        raise ShapeError(f"r0 has shape {r0.shape}, varpi {varpi.shape}")
    spd.clamp_psd(r0)
    return varpi, spectrum, r0, n


def _riccati(varpi, spectrum, r0, n):
    header = "n,error,envelope,satisfied"
    if riccati.is_infinite(varpi):
        note = "map and fixed point are the identity by convention"
        return {"varpi": "infinite", "fixed_point": np.eye(len(r0)), "note": note}, header, ["0,0,0,1"]
    r_star = riccati.fixed_point(spectrum)
    delta, c_bound = riccati.decay_params(spectrum)
    gaps = [spd.spectral_norm(t - r_star) for t in riccati.iterate(spectrum, r0, n)]
    rows = []
    fit = 0.0
    floor = 1e-15  # absolute slack of each row's check
    for k, gap in enumerate(gaps):
        env = c_bound * delta**k * gaps[0] if k >= 1 else gaps[0]
        rows.append(f"{k},{_fmt(gap)},{_fmt(env)},{int(gap <= env * (1 + 1e-12) + floor)}")
        # empirical prefactor fit: the largest gap ratio against delta^k, over the
        # rows the envelope decides; below the floor the ratio is round-off over delta^k
        if k >= 1 and env > floor:
            fit = max(fit, gap / (delta**k * gaps[0]))
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
    mu, eta = (_build(g.GaussianMeasure, model[key], key, mean=1, cov=2) for key in ("mu", "eta"))
    k = _kernel(model["kernel"])
    spec = _spec(model["spec"]) if model["spec"] else CurvatureSpec.gaussian(mu.cov, eta.cov)
    _check_dims(mu=mu, eta=eta, kernel=k, spec=spec)
    t_grid = _positive(model["t_grid"], "t_grid", 1).tolist()
    return mu, eta, k, spec, parse_count(model["n_max"], "n_max", 1), t_grid


def _gaussian(mu, eta, k, spec, n_max, t_grid):
    eps = bounds.eps_lg(k, spec)
    ph = bounds.phi(eps)
    fwd, _ = g.bridge_solve(mu, eta, k)
    plan = g.joint_plan(mu, fwd)
    states = g.sinkhorn_run(mu, eta, k, n_max)
    gaps = [g.gaussian_kl(plan, g.state_plan(s, mu, eta, k)) for s in states]
    trace_rows = []
    for s, gap in zip(states, gaps):
        pi = g.GaussianMeasure(s.m_n, s.sigma_pi_n)
        w2 = g.gelbrich_w2(eta, pi) if s.n % 2 == 0 else g.gelbrich_w2(mu, pi)
        env_pair = (1.0 + 1.0 / eps) ** -(s.n // 2) * gaps[0]
        env_phi = (1.0 + ph) ** -(s.n - 2) * gaps[0] if s.n >= 2 else float("inf")
        trace_rows.append(
            f"{s.n},{_fmt(gap)},{_fmt(w2)},{_fmt(env_pair)},{_fmt(env_phi)},"
            f"{int(gap <= min(env_pair, env_phi) * (1 + 1e-9) + 1e-13)}"
        )

    lim = g.ot_limit_map(mu, eta, k.tau, k.beta)
    sweep_rows = []
    for t in t_grid:
        slope = g.bridge_solve(mu, eta, k.rescaled(t))[0].slope
        sweep_rows.append(f"{_fmt(t)},{_fmt(spd.spectral_norm(slope - lim.slope))},{_fmt(spd.spectral_norm(slope))}")

    a, b = bounds.proximal_rates(k, spec)
    nu = g.GaussianMeasure(mu.mean + 3.0, 2.0 * mu.cov)
    w0 = g.gelbrich_w2(nu, mu)
    h0 = g.gaussian_kl(nu, mu)
    prox_rows = [f"0,{_fmt(w0)},{_fmt(w0)},{_fmt(h0)},{_fmt(h0)}"]
    cur = nu
    for n_step in range(1, 21):
        cur = g.proximal_step(cur, mu, k)
        prox_rows.append(
            f"{n_step},{_fmt(g.gelbrich_w2(cur, mu))},{_fmt(b**n_step * w0)},"
            f"{_fmt(g.gaussian_kl(cur, mu))},{_fmt(a * b ** (2 * (n_step - 1)) * h0)}"
        )
    report = {
        "eps": eps,
        "phi": ph,
        "proximal_a": a,
        "proximal_b": b,
        "terminal_bridge_gap": gaps[-1],
        "forward_noise_cov": fwd.noise_cov,
    }
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
    n_sweeps = parse_count(config.get("n_sweeps", 500), "n_sweeps", 1)
    tolerances = _object(config.get("tolerances", {}), "tolerances")
    tol = float(_positive(tolerances.get("marginal", 1e-10), "tolerances.marginal"))
    return models.model_from_spec(model), n_sweeps, tol


def _discrete(model, n_sweeps, tol):
    trace = discrete.run(model, n_sweeps, tol=tol)
    # resume from the trace's last even state instead of redoing its sweeps
    oracle = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
    rep = discrete.entropy_report(trace, oracle)
    rows = []
    for n in range(len(rep["H_pi2n_eta"])):
        h_mu = rep["H_mu_pi2n1"][n - 1] if n >= 1 else float("nan")
        rows.append(
            f"{n},{_fmt(rep['H_pi2n_eta'][n])},{_fmt(h_mu)},{_fmt(rep['H_eta_pi2n'][n])},"
            f"{_fmt(rep['H_pi2n1_mu'][n])},{_fmt(rep['H_bridge_even'][n])}"
        )
    chains = ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu", "H_bridge_even", "H_bridge_odd")
    summary = {
        "converged": trace.converged,
        "sweeps": trace.n_sweeps,
        "final_residual": trace.residuals[-1] if trace.residuals else float("nan"),
        "entropy_monotone": all(y <= x + 1e-12 for key in chains for x, y in zip(rep[key], rep[key][1:])),
    }
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
    header, *rows = report.envelope_csv_rows()
    return {"scalars": report.scalars}, header, rows


def cmd_bounds(args) -> int:
    return _run(args, _load_bounds, _bounds, _write_pair)


def _load_verify(args):
    config, _ = _config(args)
    seed = parse_count(config.get("seed", 0) if args.seed is None else args.seed, "seed", 0)
    tolerances = _object(config.get("tolerances", {}), "tolerances")
    overrides = {key: float(parse_array(val, f"tolerance {key}", 0)) for key, val in tolerances.items()}
    for item in args.tol_override or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"bad --tol-override {item!r}: expected KEY=VAL")
        overrides[key] = float(val)
    verify._criterion_kwargs(overrides)
    return seed, args.filter, overrides


def _verify(seed, name_filter, overrides):
    results = verify.run_criteria(seed=seed, name_filter=name_filter, tol_overrides=overrides)
    if not name_filter or name_filter in "determinism":
        # the full suite at default tolerances is itself the first of the two runs compared
        first = None if name_filter or overrides else verify.summary_document(results, seed)
        results.append(verify.criterion_determinism(seed, first=first))
    results.sort(key=lambda r: r["id"])
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


def main(argv=None) -> int:
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
            p.add_argument("--tol-override", action="append", metavar="KEY=VAL")
    args = parser.parse_args(argv)
    # looked up at call time, so a rebound cmd_* (a tracing wrapper, say) is the one that runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
