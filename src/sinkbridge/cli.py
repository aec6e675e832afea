"""Command-line front end: model ingestion, experiment runs, stable reports.

Exit codes: 0 success, 1 verification failure or broken invariant, 2 bad
usage or malformed config, 3 runtime non-convergence or model-domain
failure.  All emitted floats carry 17 significant digits so files
round-trip doubles exactly; identical config and seed give byte-identical
outputs.
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
from .riccati import INFINITE

SCHEMA = "sinkbridge/v1"


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


def _load_config(args, command: str) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(
            f"config error: not valid JSON ({exc}); expected an object like "
            f'{{"schema": "{SCHEMA}", "command": "{command}", "model": {{...}}}}',
            file=sys.stderr,
        )
        raise SystemExit(2)
    if not isinstance(doc, dict):
        print("config error: top level must be an object", file=sys.stderr)
        raise SystemExit(2)
    if doc.get("command", command) != command:
        print(f"config error: config is for command {doc.get('command')!r}, not {command!r}", file=sys.stderr)
        raise SystemExit(2)
    return doc


def _tol_overrides(args) -> dict:
    out = {}
    for item in args.tol_override or []:
        if "=" not in item:
            print(f"bad --tol-override {item!r}: expected KEY=VAL", file=sys.stderr)
            raise SystemExit(2)
        key, val = item.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            print(f"bad --tol-override value {val!r}", file=sys.stderr)
            raise SystemExit(2)
    return out


def _parse_varpi(doc):
    if isinstance(doc, str) and doc.lower() == "infinite":
        return INFINITE
    return np.atleast_2d(np.asarray(doc, dtype=float))


def cmd_riccati(args) -> int:
    config = _load_config(args, "riccati")
    model = config.get("model", {"varpi": 1.0, "r0": 0.0, "n": 50})
    out = Path(args.out or "out/riccati")
    try:
        varpi = _parse_varpi(model.get("varpi", 1.0))
        n = int(model.get("n", 50))
        if riccati.is_infinite(varpi):
            dim = int(model.get("dim", 1))
            _write_json(out.with_suffix(".json"), {
                "varpi": "infinite",
                "fixed_point": np.eye(dim),
                "note": "map and fixed point are the identity by convention",
            })
            _write_csv(out.with_suffix(".csv"), "n,error,envelope,satisfied", ["0,0,0,1"])
            print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
            return 0
        d = varpi.shape[0]
        r0 = np.atleast_2d(np.asarray(model.get("r0", np.zeros((d, d))), dtype=float))
        if r0.shape == (1, 1) and d > 1:
            r0 = r0[0, 0] * np.eye(d)

        r_star = riccati.fixed_point(varpi)
        delta, c_bound = riccati.decay_params(varpi)
        traj = riccati.iterate(varpi, r0, n)
        gap0 = spd.spectral_norm(traj[0] - r_star)
        rows = []
        gaps = [spd.spectral_norm(t - r_star) for t in traj]
        for k in range(n + 1):
            env = c_bound * delta**k * gap0 if k >= 1 else gap0
            rows.append(f"{k},{_fmt(gaps[k])},{_fmt(env)},{int(gaps[k] <= env * (1 + 1e-12) + 1e-15)}")
        # empirical prefactor fit: the largest observed gap ratio against delta^n
        fit = max((gaps[k] / (delta**k * gap0) for k in range(1, n + 1) if gap0 > 0), default=0.0)
        report = riccati.fixed_point_identities(varpi)
        _write_json(out.with_suffix(".json"), {
            "varpi": varpi,
            "fixed_point": r_star,
            "delta": delta,
            "prefactor_bound": c_bound,
            "prefactor_empirical_fit": fit,
            "identities": report,
        })
        _write_csv(out.with_suffix(".csv"), "n,error,envelope,satisfied", rows)
    except (DomainError, ShapeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return 0


def _measure(doc) -> g.GaussianMeasure:
    return g.GaussianMeasure(doc["mean"], doc["cov"])


def _kernel(doc) -> g.LinearGaussianKernel:
    return g.LinearGaussianKernel(doc["alpha"], doc["beta"], doc["tau"])


def _spec(doc) -> CurvatureSpec:
    """Curvature spec from a config object; a missing or null upper factor is ZERO."""
    return CurvatureSpec(
        u_plus=doc["u_plus"],
        v_plus=doc["v_plus"],
        u_minus=bounds.ZERO if doc.get("u_minus") is None else doc["u_minus"],
        v_minus=bounds.ZERO if doc.get("v_minus") is None else doc["v_minus"],
    )


def cmd_gaussian(args) -> int:
    config = _load_config(args, "gaussian")
    model = config.get("model") or {
        "mu": {"mean": [0.0], "cov": [[1.0]]},
        "eta": {"mean": [0.0], "cov": [[1.0]]},
        "kernel": {"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
        "n_max": 30,
        "t_grid": [10.0, 1.0, 0.1, 0.01, 0.001],
    }
    out = Path(args.out or "out/gaussian")
    try:
        mu = _measure(model["mu"])
        eta = _measure(model["eta"])
        k = _kernel(model["kernel"])
        n_max = int(model.get("n_max", 30))
        spec_doc = model.get("spec")
        spec = _spec(spec_doc) if spec_doc else CurvatureSpec.gaussian(mu.cov, eta.cov)

        eps = bounds.eps_lg(k, spec)
        ph = bounds.phi(eps)
        plan = g.bridge_plan(mu, eta, k)
        states = g.sinkhorn_run(mu, eta, k, n_max)
        gaps = [g.gaussian_kl(plan, g.state_plan(s, mu, eta, k)) for s in states]
        pis = [g.GaussianMeasure(s.m_n, s.sigma_pi_n) for s in states]
        rows = []
        for s, gap, pi in zip(states, gaps, pis):
            w2 = g.gelbrich_w2(eta, pi) if s.n % 2 == 0 else g.gelbrich_w2(mu, pi)
            env_pair = (1.0 + 1.0 / eps) ** -(s.n // 2) * gaps[0]
            env_phi = (1.0 + ph) ** -(s.n - 2) * gaps[0] if s.n >= 2 else float("inf")
            rows.append(
                f"{s.n},{_fmt(gap)},{_fmt(w2)},{_fmt(env_pair)},{_fmt(env_phi)},"
                f"{int(gap <= min(env_pair, env_phi) * (1 + 1e-9) + 1e-13)}"
            )
        _write_csv(
            out.parent / (out.name + "_trace.csv"),
            "n,H_bridge_gap,W2_marginal_gap,envelope_pair,envelope_phi,satisfied",
            rows,
        )

        t_grid = [float(t) for t in model.get("t_grid", [10.0, 1.0, 0.1, 0.01, 0.001])]
        lim = g.ot_limit_map(mu, eta, k.tau, k.beta)

        sweep_rows = []
        for t in t_grid:
            fwd, _ = g.bridge_solve(mu, eta, k.rescaled(t))
            gap = spd.spectral_norm(fwd.slope - lim.slope)
            sweep_rows.append(f"{_fmt(t)},{_fmt(gap)},{_fmt(spd.spectral_norm(fwd.slope))}")
        _write_csv(out.parent / (out.name + "_ot_sweep.csv"), "t,slope_gap_to_limit,slope_norm", sweep_rows)

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
        _write_csv(
            out.parent / (out.name + "_proximal.csv"),
            "n,W2,W2_envelope,KL,KL_envelope",
            prox_rows,
        )
        _write_json(out.parent / (out.name + "_report.json"), {
            "eps": eps,
            "phi": ph,
            "proximal_a": a,
            "proximal_b": b,
            "terminal_bridge_gap": gaps[-1],
            "forward_noise_cov": g.bridge_solve(mu, eta, k)[0].noise_cov,
        })
    except (DomainError, ShapeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out.parent / (out.name + '_trace.csv')} (+ ot_sweep, proximal, report)")
    return 0


def cmd_discrete(args) -> int:
    config = _load_config(args, "discrete")
    model_doc = config.get("model") or {
        "grid": {"dim": 1, "n": 64, "radius": 8.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
    }
    out = Path(args.out or "out/discrete")
    n_sweeps = int(config.get("n_sweeps", 500))
    tol = float(config.get("tolerances", {}).get("marginal", 1e-10))
    try:
        model = models.model_from_spec(model_doc)
    except (DomainError, ShapeError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        trace = discrete.run(model, n_sweeps, tol=tol)
        # resume from the trace's last even state instead of redoing its sweeps
        oracle = discrete.bridge_oracle(model, tol=1e-13, start=trace.states[-2])
    except DomainError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    rep = discrete.entropy_report(trace, oracle)

    rows = []
    monotone_ok = True
    n_rows = len(rep["H_pi2n_eta"])
    for n in range(n_rows):
        h_mu = rep["H_mu_pi2n1"][n - 1] if n >= 1 else float("nan")
        rows.append(
            f"{n},{_fmt(rep['H_pi2n_eta'][n])},{_fmt(h_mu)},{_fmt(rep['H_eta_pi2n'][n])},"
            f"{_fmt(rep['H_pi2n1_mu'][n])},{_fmt(rep['H_bridge_even'][n])}"
        )
    for key in ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu", "H_bridge_even", "H_bridge_odd"):
        seq = rep[key]
        monotone_ok = monotone_ok and all(y <= x + 1e-12 for x, y in zip(seq, seq[1:]))
    _write_csv(
        out.with_suffix(".csv"),
        "n,H_pi2n_eta,H_mu_pi2n1,H_eta_pi2n,H_pi2n1_mu,H_bridge_Pn",
        rows,
    )
    _write_json(out.with_suffix(".json"), {
        "converged": trace.converged,
        "sweeps": trace.n_sweeps,
        "final_residual": trace.residuals[-1] if trace.residuals else float("nan"),
        "entropy_monotone": monotone_ok,
    })
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    if not trace.converged:
        print("did not converge within the sweep budget", file=sys.stderr)
        return 3
    if not monotone_ok:
        print("entropy monotonicity violated", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(args) -> int:
    config = _load_config(args, "bounds")
    model = config.get("model") or {
        "kernel": {"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]},
        "spec": {"u_plus": [[1.0]], "v_plus": [[1.0]], "u_minus": [[1.0]], "v_minus": [[1.0]]},
        "n_max": 20,
        "p": 1,
    }
    out = Path(args.out or "out/bounds")
    try:
        k = _kernel(model["kernel"])
        spec = _spec(model["spec"])
        report = bounds.rate_table(k, spec, int(model.get("n_max", 20)), p=int(model.get("p", 1)))
    except (DomainError, ShapeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out.with_suffix(".json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    _write_csv(out.with_suffix(".csv"), next(report.envelope_csv_rows()), list(report.envelope_csv_rows())[1:])
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args, "verify")
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    overrides = dict(config.get("tolerances", {}))
    overrides.update(_tol_overrides(args))
    try:
        results = verify.run_criteria(seed=seed, name_filter=args.filter, tol_overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not args.filter or args.filter in "determinism":
        # the full suite at default tolerances is itself the first of the two runs compared
        first = None if args.filter or overrides else verify.summary_document(results, seed)
        results.append(verify.criterion_determinism(seed, first=first))
    results.sort(key=lambda r: r["id"])
    doc = verify.summary_document(results, seed)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sinkbridge",
        description="Riccati flows, Gaussian Schrodinger/Sinkhorn bridges, grid Sinkhorn, and rate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("riccati", cmd_riccati),
        ("gaussian", cmd_gaussian),
        ("discrete", cmd_discrete),
        ("bounds", cmd_bounds),
        ("verify", cmd_verify),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output path prefix")
        if name == "verify":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--filter", help="restrict verify to criteria whose name contains this")
            p.add_argument("--json", action="store_true", help="print machine-readable summary")
            p.add_argument("--tol-override", action="append", metavar="KEY=VAL")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
