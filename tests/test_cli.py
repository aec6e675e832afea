import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sinkbridge import bounds, cli, discrete, gaussian, models, riccati, verify
from sinkbridge.errors import DomainError


def run_cli(args):
    return cli.main(args)


def test_riccati_command_outputs(tmp_path):
    out = tmp_path / "ricc"
    assert run_cli(["riccati", "--out", str(out)]) == 0
    rows = (out.with_suffix(".csv")).read_text().strip().splitlines()
    assert rows[0] == "n,error,envelope,satisfied"
    assert len(rows) == 52
    assert all(r.endswith(",1") for r in rows[1:])
    final_err = float(rows[-1].split(",")[1])
    assert final_err < 1e-12
    # each gap is read off Delta_n: none collapses to 0 at round-off (the last is ~1e-42)
    assert all(float(r.split(",")[1]) > 0.0 for r in rows[1:])
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["schema"] == "sinkbridge/v1"
    assert abs(doc["fixed_point"][0][0] - 0.6180339887498949) < 1e-12
    assert doc["identities"]["ok"]


def test_riccati_prefactor_fit_within_the_bound(tmp_path):
    # the fit covers only rows whose delta^n gap_0 is not 0
    out = tmp_path / "ricc"
    assert run_cli(["riccati", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert 0.0 < doc["prefactor_empirical_fit"] <= doc["prefactor_bound"]


def test_riccati_infinite_param(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": "infinite", "dim": 2}}))
    out = tmp_path / "ricc_inf"
    assert run_cli(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["varpi"] == "infinite"
    assert doc["fixed_point"] == [[1.0, 0.0], [0.0, 1.0]]


def test_riccati_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["riccati", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_gaussian_command_outputs(tmp_path):
    out = tmp_path / "gauss"
    assert run_cli(["gaussian", "--out", str(out)]) == 0
    trace = (tmp_path / "gauss_trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("n,H_bridge_gap")
    assert all(r.endswith(",1") for r in trace[1:])
    # the chain-rule gaps resolve every row, down to ~1e-52 at n = 61
    assert all(float(r.split(",")[1]) > 0.0 for r in trace[1:])
    sweep = (tmp_path / "gauss_ot_sweep.csv").read_text().strip().splitlines()
    gaps = [float(r.split(",")[1]) for r in sweep[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report = json.loads((tmp_path / "gauss_report.json").read_text())
    assert report["terminal_bridge_gap"] < 1e-12
    assert report["proximal_b"] == 0.5


def test_gaussian_compute_decomposes_no_input_twice(decompositions, tmp_path):
    """On a d = 2 model whose mu, eta and tau all differ, no decomposition of the compute phase repeats an input.

    Equal inputs would repeat by coincidence.  The default t_grid holds
    t = 1, whose rescaled bridge is the bridge itself.
    """
    model = {"mu": {"mean": [0.5, -0.2], "cov": [[2.0, 0.3], [0.3, 1.0]]},
             "eta": {"mean": [-1.0, 0.4], "cov": [[0.8, -0.1], [-0.1, 1.5]]},
             "kernel": {"alpha": [0.1, 0.0], "beta": [[1.0, 0.2], [0.0, 0.9]], "tau": [[0.7, 0.1], [0.1, 0.5]]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": model}))
    inputs = cli._load_gaussian(cli._parser().parse_args(["gaussian", "--config", str(cfg)]))
    decompositions.clear()
    cli._gaussian(*inputs)
    assert decompositions["eigh"] > 0 and decompositions["repeated"] == 0


@pytest.mark.parametrize("tau", [1.0, 1e-6])
def test_gaussian_w2_column_equals_per_state_calls(tau, tmp_path):
    """The two stacked W2 calls, one per parity, write what one gelbrich_w2 call per state gives, bit for bit.

    Each state's free marginal is compared with eta at even n and with mu at odd n.
    """
    model = {"mu": {"mean": [0.5], "cov": [[2.0]]}, "eta": {"mean": [-1.0], "cov": [[0.5]]},
             "kernel": {"alpha": [0.0], "beta": [[1.0]], "tau": [[tau]]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": model}))
    assert run_cli(["gaussian", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    header, *rows = (tmp_path / "g_trace.csv").read_text().strip().splitlines()
    col = header.split(",").index("W2_marginal_gap")
    mu, eta = (gaussian.GaussianMeasure(**model[key]) for key in ("mu", "eta"))
    run = gaussian.sinkhorn_run(gaussian.bridge_solve(mu, eta, gaussian.LinearGaussianKernel(**model["kernel"])), 30)
    want = [gaussian.gelbrich_w2(mu if n % 2 else eta, gaussian.GaussianMeasure(run.mean[n], run.sigma[n]))
            for n in range(len(run.tau))]
    assert [float(r.split(",")[col]) for r in rows] == want


def test_gaussian_sharp_kernel_every_row_satisfied(tmp_path):
    """At tau = 1e-6 the gaps sit near 1.25e-7 and each envelope just above: every row is decided exactly."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": {"kernel": {"alpha": [0.0], "beta": [[1.0]],
                                                                           "tau": [[1e-6]]}}}))
    out = tmp_path / "sharp"
    assert run_cli(["gaussian", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (tmp_path / "sharp_trace.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 62 and all(r[-1] == "1" for r in rows)
    gaps = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 15: Delta_0 = r_0 - r* cancels at tau = 1e-8, so gap_1 reads above gap_0 and trace rows 1 "
    "and 3 read satisfied=0 (exit 1) on correct code; the change that mends it flips this test"))
def test_gaussian_tau_1e_8_exits_0(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": {"kernel": {"alpha": [0.0], "beta": [[1.0]],
                                                                           "tau": [[1e-8]]}}}))
    assert run_cli(["gaussian", "--config", str(cfg), "--out", str(tmp_path / "sharp")]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: at varpi = 1e18 the envelope is tight to ~1/varpi relative, below the closed-form gap's "
    "rounding, so 8 rows read satisfied=0 (exit 1) on correct code; the change that gives the gate an error "
    "model flips this test"))
def test_riccati_varpi_1e18_exits_0(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": [[1e18]]}}))
    assert run_cli(["riccati", "--config", str(cfg), "--out", str(tmp_path / "ricc")]) == 0


def test_discrete_command_monotone_trace(tmp_path):
    out = tmp_path / "disc"
    assert run_cli(["discrete", "--out", str(out)]) == 0
    rows = (out.with_suffix(".csv")).read_text().strip().splitlines()
    assert rows[0] == "n,H_pi2n_eta,H_mu_pi2n1,H_eta_pi2n,H_pi2n1_mu,H_bridge_Pn"
    bridge = [float(r.split(",")[5]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(bridge, bridge[1:]))
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["converged"] and doc["entropy_monotone"]


def test_discrete_constant_channel_single_sweep(tmp_path):
    table = tmp_path / "w.npy"
    np.save(table, np.full((16, 16), 1.3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "discrete",
        "model": {
            "grid": {"dim": 1, "n": 16, "radius": 6.0},
            "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "W": {"kind": "tabulated", "path": str(table)},
        },
    }))
    out = tmp_path / "const"
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["sweeps"] <= 1


def test_discrete_narrow_grid_underflow_exit_2(tmp_path, capsys):
    # the underflow is raised while the model is built, so it is a config error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "discrete",
        "model": {
            "grid": {"dim": 1, "n": 8, "radius": 4.0},
            "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "W": {"kind": "linear-gaussian", "alpha": [30.0], "beta": [[1.0]], "tau": [[1e-307]]},
        },
    }))
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "underflows" in err


def test_discrete_nonconvergence_exit_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "discrete",
        "n_sweeps": 1,
        "model": {
            "grid": {"dim": 1, "n": 64, "radius": 8.0},
            "U": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "V": {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}},
            "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[0.05]]},
        },
    }))
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(tmp_path / "slow")]) == 3


def test_bounds_command(tmp_path):
    out = tmp_path / "bnd"
    assert run_cli(["bounds", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["schema"] == "sinkbridge/v1"
    assert float(doc["scalars"]["pair_rate"]["value"]) == 0.5
    rows = out.with_suffix(".csv").read_text().strip().splitlines()
    assert rows[0] == "n,theorem_tag,bound"
    assert len(rows) == 1 + 3 * 21 and all(row.count(",") == 2 for row in rows)


@pytest.mark.parametrize("beta", [1e8, 1e10])
def test_bounds_command_at_huge_eps(tmp_path, beta):
    one = [[1.0]]
    model = {"kernel": {"alpha": [0.0], "beta": [[beta]], "tau": one},
             "spec": {"u_plus": one, "v_plus": one, "u_minus": one, "v_minus": one}, "n_max": 3, "p": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bounds", "model": model}))
    out = tmp_path / "bnd"
    assert run_cli(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    scalars = json.loads(out.with_suffix(".json").read_text())["scalars"]
    assert scalars["eps"]["value"] == beta**2 and scalars["phi_rate_strictly_better"]["value"] is True


def test_wrong_command_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": {}}))
    assert run_cli(["riccati", "--config", str(cfg)]) == 2


def test_verify_filter_subset(capsys):
    assert run_cli(["verify", "--filter", "ot-limit"]) == 0
    out = capsys.readouterr().out
    assert out.split() == ["PASS", "7", "ot-limit"]


def test_verify_json_byte_identical(capsys):
    # determinism across two in-process runs of the non-discrete criteria
    assert run_cli(["verify", "--filter", "riccati", "--json", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["verify", "--filter", "riccati", "--json", "--seed", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "sinkbridge/v1"
    assert doc["all_passed"] is True


def test_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sinkbridge.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("riccati", "gaussian", "discrete", "bounds", "verify"):
        assert name in proc.stdout


def test_discrete_hard_zero_target_exit_0(tmp_path, monkeypatch, hard_zero_target_model):
    monkeypatch.setattr(models, "model_from_spec", lambda doc: hard_zero_target_model)
    out = tmp_path / "hard"
    assert run_cli(["discrete", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.with_suffix(".csv").read_text().strip().splitlines()[1:]]
    # row 0 of H_mu_pi2n1 is NaN by construction: pi_{-1} does not exist
    cells = [float(c) for row in rows for j, c in enumerate(row) if (row[0], j) != ("0", 2)]
    assert np.all(np.isfinite(cells))
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["converged"] and doc["entropy_monotone"] and np.isfinite(doc["final_residual"])


DISCRETE_2D = {
    "grid": {"dim": 2, "n": 12, "radius": 5.0},
    "U": {"kind": "quadratic", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
    "V": {"kind": "gaussian-mixture", "params": {
        "weights": [0.5, 0.5], "means": [[-1.5, 0.0], [1.5, 0.0]],
        "covs": [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]}},
    "W": {"kind": "linear-gaussian", "alpha": [0.0, 0.0],
          "beta": [[0.9, 0.0], [0.0, 0.9]], "tau": [[0.5, 0.0], [0.0, 0.5]]},
}


@pytest.mark.parametrize("command, model", [
    ("riccati", None), ("gaussian", None), ("discrete", None), ("bounds", None), ("discrete", DISCRETE_2D),
], ids=["riccati", "gaussian", "discrete", "bounds", "discrete-2d"])
def test_repeat_runs_byte_identical(tmp_path, capsys, command, model):
    argv = [command]
    if model is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, "model": model}))
        argv += ["--config", str(cfg)]
    outputs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        assert run_cli([*argv, "--out", str(tmp_path / name / "out")]) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path / name), "<run>")
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) >= 2


def test_verify_filter_matching_nothing_exit_2(monkeypatch, capsys):
    def never(seed=0):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(verify, "CRITERIA", [(name, never) for name, _ in verify.CRITERIA])
    assert run_cli(["verify", "--json", "--filter", "riccati-fixedpoint"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "'riccati-fixedpoint'" in captured.err
    for name, _ in verify.CRITERIA:
        assert name in captured.err
    assert "determinism" in captured.err


@pytest.mark.parametrize("command", ["riccati", "gaussian", "discrete", "bounds", "verify"])
def test_tol_override_flag_rejected(command, tmp_path, capsys):
    # verify's tolerances are pinned in its criteria; no command takes the flag
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--out", str(tmp_path / command), "--tol-override", "ot-limit.final_gap=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["riccati", "gaussian", "discrete", "bounds"])
@pytest.mark.parametrize(
    "flag",
    [["--seed", "1"], ["--filter", "ot-limit"], ["--json"]],
    ids=["seed", "filter", "json"],
)
def test_verify_only_flags_rejected_elsewhere(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--out", str(tmp_path / command), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_full_suite_runs_two_passes(monkeypatch, capsys):
    def one(seed=0):
        return [verify.Gate("seed", seed, 3, "==")]

    def two(seed=0):
        return []

    passes = []
    run_criteria = verify.run_criteria

    def counting(**kwargs):
        passes.append(kwargs)
        return run_criteria(**kwargs)

    monkeypatch.setattr(verify, "CRITERIA", [("one", one), ("two", two)])
    monkeypatch.setattr(verify, "run_criteria", counting)
    assert run_cli(["verify", "--json", "--seed", "3"]) == 0
    assert len(passes) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["criteria"]] == ["one", "two", "determinism"]
    assert doc["criteria"][2]["passed"] is True


def _discrete_config(tmp_path, grid, u, w):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "discrete", "model": {"grid": grid, "U": u, "V": u, "W": w}}))
    return cfg


QUAD_1D = {"kind": "quadratic", "params": {"mean": [0.0], "cov": [[1.0]]}}
QUAD_2D = {"kind": "quadratic", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}
LG_1D = {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}
LG_2D = {"kind": "linear-gaussian", "alpha": [0.0, 0.0],
         "beta": [[0.9, 0.0], [0.0, 0.8]], "tau": [[0.5, 0.0], [0.0, 0.7]]}


@pytest.mark.parametrize("dim, u, w, bad", [
    (2, QUAD_2D, LG_1D, "W alpha"),
    (2, QUAD_2D, dict(LG_2D, beta=[[0.9]]), "W beta"),
    (2, QUAD_2D, dict(LG_2D, tau=[[0.5]]), "W tau"),
    (1, QUAD_2D, LG_1D, "U mean"),
    (1, {"kind": "gaussian-mixture",
         "params": {"weights": [1.0], "means": [[0.0]], "covs": [[[1.0, 0.0], [0.0, 1.0]]]}}, LG_1D, "U covs"),
])
def test_discrete_spec_dimension_mismatch_exit_2(tmp_path, capsys, dim, u, w, bad):
    cfg = _discrete_config(tmp_path, {"dim": dim, "n": 8, "radius": 4.0}, u, w)
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and bad in err and f"{dim}-dimensional" in err
    assert not (tmp_path / "out.csv").exists()


def test_discrete_diagonal_2d_never_forms_dense_table(tmp_path, monkeypatch):
    def dense_table(model):
        raise AssertionError("the (N, N) channel table was formed")

    monkeypatch.setattr(discrete.DiscreteModel, "w_pot", property(dense_table))
    cfg = _discrete_config(tmp_path, {"dim": 2, "n": 16, "radius": 5.0}, QUAD_2D, LG_2D)
    out = tmp_path / "diag"
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["converged"] and doc["entropy_monotone"]


GAUSSIAN_2D = {
    "mu": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "eta": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "kernel": {"alpha": [0.0, 0.0], "beta": [[1.0, 0.0], [0.0, 1.0]], "tau": [[1.0, 0.0], [0.0, 1.0]]},
}
_KERNEL_1D = {"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}


def _mixture(weights, means=((-2.0,), (2.0,))):
    """A two-component 1-d Gaussian-mixture V with the given weights."""
    return {"kind": "gaussian-mixture",
            "params": {"weights": weights, "means": [list(m) for m in means], "covs": [[[0.5]], [[0.5]]]}}


RAGGED_2D = {"kind": "quadratic", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]}}

# (command, config, text the message must contain); every one of them is a bad config
MALFORMED = {
    "ragged-cov": ("discrete", {"model": {"grid": {"dim": 2, "n": 8, "radius": 4.0}, "U": RAGGED_2D,
                                          "V": QUAD_2D, "W": LG_2D}}, "U cov"),
    "missing-npy": ("discrete", {"model": {"W": {"kind": "tabulated", "path": "missing-table.npy"}}}, "missing-table"),
    "n_sweeps-abc": ("discrete", {"n_sweeps": "abc"}, "n_sweeps"),
    "n_sweeps-0": ("discrete", {"n_sweeps": 0}, "n_sweeps"),
    "n_sweeps-2.7": ("discrete", {"n_sweeps": 2.7}, "n_sweeps"),
    "n_sweeps-true": ("discrete", {"n_sweeps": True}, "n_sweeps"),
    "discrete-tolerances-list": ("discrete", {"tolerances": [1]}, "tolerances"),
    "marginal-0": ("discrete", {"tolerances": {"marginal": 0.0}}, "marginal"),
    "grid-n-2.7": ("discrete", {"model": {"grid": {"dim": 1, "n": 2.7, "radius": 4.0}}}, "grid n"),
    "verify-tolerances": ("verify", {"tolerances": {"ot-limit.final_gap": 1e300}}, "tolerances"),
    "verify-tolerances-empty": ("verify", {"tolerances": {}}, "tolerances"),
    "seed-x": ("verify", {"seed": "x"}, "seed"),
    "seed-negative": ("verify", {"seed": -1}, "seed"),
    "riccati-model-list": ("riccati", {"model": [1]}, "model"),
    "gaussian-model-str": ("gaussian", {"model": "x"}, "model"),
    "bounds-model-list": ("bounds", {"model": [1]}, "model"),
    "discrete-model-str": ("discrete", {"model": "x"}, "model"),
    "riccati-n-negative": ("riccati", {"model": {"n": -3}}, "n must be"),
    "riccati-n-2.7": ("riccati", {"model": {"n": 2.7}}, "n must be"),
    "riccati-varpi-ragged": ("riccati", {"model": {"varpi": [[1.0, 0.0], [0.0]]}}, "varpi"),
    "riccati-varpi-not-spd": ("riccati", {"model": {"varpi": [[-1.0]]}}, "SPD"),
    "riccati-r0-nan": ("riccati", {"model": {"r0": [[float("nan")]]}}, "r0"),
    "riccati-r0-shape": ("riccati", {"model": {"varpi": [[1.0, 0.0], [0.0, 2.0]], "r0": [[1.0, 0.0]]}}, "r0"),
    "riccati-infinite-dim-true": ("riccati", {"model": {"varpi": "infinite", "dim": True}}, "dim"),
    "gaussian-n_max-0": ("gaussian", {"model": {"n_max": 0}}, "n_max"),
    "gaussian-n_max-abc": ("gaussian", {"model": {"n_max": "abc"}}, "n_max"),
    "gaussian-t_grid-0": ("gaussian", {"model": {"t_grid": [1.0, 0.0]}}, "t_grid"),
    "gaussian-t_grid-negative": ("gaussian", {"model": {"t_grid": [-1.0]}}, "t_grid"),
    "gaussian-cov-bool": ("gaussian", {"model": {"mu": {"mean": [0.0], "cov": True}}}, "mu cov"),
    "gaussian-dims-disagree": ("gaussian", {"model": dict(GAUSSIAN_2D, kernel={"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]})},
                               "dimensions disagree"),
    "bounds-n_max-negative": ("bounds", {"model": {"n_max": -1}}, "n_max"),
    "bounds-p-2.7": ("bounds", {"model": {"p": 2.7}}, "p must be"),
    "bounds-spec-shapes": ("bounds", {"model": {"spec": {"u_plus": [[1.0]], "v_plus": [[1.0, 0.0], [0.0, 1.0]]}}},
                           "curvature factors"),
    # a misspelled or misplaced key exits 2 and is named, instead of running at its default
    "discrete-typos": ("discrete", {"tolerance": {"marginal": 1e-3}, "n_sweep": 3}, "unknown config key 'tolerance'"),
    "discrete-tolerances-typo": ("discrete", {"tolerances": {"marginl": 1e-3}}, "unknown tolerances key 'marginl'"),
    "discrete-model-typo": ("discrete", {"model": {"gird": {"dim": 1, "n": 8, "radius": 4.0}}}, "unknown model key 'gird'"),
    "riccati-model-typo": ("riccati", {"model": {"r_0": 1.0}}, "unknown model key 'r_0'"),
    "riccati-n_sweeps": ("riccati", {"n_sweeps": 3}, "unknown config key 'n_sweeps'"),
    "gaussian-model-typo": ("gaussian", {"model": {"nmax": 3}}, "unknown model key 'nmax'"),
    "gaussian-kernel-typo": ("gaussian", {"model": {"kernel": {"alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]],
                                                               "tua": [[2.0]]}}}, "unknown kernel key 'tua'"),
    "gaussian-mu-typo": ("gaussian", {"model": {"mu": {"mean": [0.0], "covariance": [[2.0]]}}}, "unknown mu key 'covariance'"),
    "bounds-spec-typo": ("bounds", {"model": {"spec": {"u_plus": [[1.0]], "v_plus": [[1.0]], "u_minsu": [[1.0]]}}},
                         "unknown spec key 'u_minsu'"),
    "bounds-seed": ("bounds", {"seed": 3}, "unknown config key 'seed'"),
    "verify-seed-typo": ("verify", {"sead": 3}, "unknown config key 'sead'"),
    "verify-model": ("verify", {"model": {}}, "unknown config key 'model'"),
    # keys inside the grid model's objects, and the riccati keys one form of varpi does not read
    "grid-radius-typo": ("discrete", {"model": {"grid": {"dim": 1, "n": 64, "radius": 8.0, "raduis": 2.0}}},
                         "unknown grid key 'raduis'; valid: dim, n, radius"),
    "quadratic-params-typo": ("discrete", {"model": {"V": {"kind": "quadratic", "params": {
        "mean": [0.0], "cov": [[1.0]], "covv": [[9.0]]}}}}, "unknown V key 'covv'; valid: mean, cov"),
    "U-stray-key": ("discrete", {"model": {"U": dict(QUAD_1D, mean=[3.0])}}, "unknown U key 'mean'; valid: kind, params"),
    "linear-gaussian-typo": ("discrete", {"model": {"W": dict(LG_1D, tua=[[5.0]])}},
                             "unknown W key 'tua'; valid: kind, alpha, beta, tau"),
    "tabulated-alpha": ("discrete", {"model": {"W": {"kind": "tabulated", "path": "table.npy", "alpha": [0.0]}}},
                        "unknown W key 'alpha'; valid: kind, path"),
    "quartic-a-true": ("discrete", {"model": {"U": {"kind": "quartic-double-well", "params": {"a": True, "b": 1.0}}}},
                       "U a must be a numeric array"),
    "grid-radius-str": ("discrete", {"model": {"grid": {"dim": 1, "n": 64, "radius": "8"}}},
                        "grid radius must be a numeric array"),
    "U-kind-unknown": ("discrete", {"model": {"U": dict(QUAD_1D, kind="quadractic")}},
                       "unknown U kind 'quadractic'; valid kinds: quadratic, quartic-double-well, gaussian-mixture"),
    "W-kind-unknown": ("discrete", {"model": {"W": dict(LG_1D, kind="gaussian")}},
                       "unknown W kind 'gaussian'; valid kinds: linear-gaussian, tabulated"),
    "riccati-infinite-r0": ("riccati", {"model": {"varpi": "infinite", "dim": 2, "r0": [[5.0, 0.0], [0.0, 1.0]]}},
                            "model key 'r0' is not read when varpi is 'infinite'"),
    "riccati-matrix-dim": ("riccati", {"model": {"varpi": [[2.0]], "dim": 3}}, "model key 'dim' is not read when varpi"),
    "gaussian-spec-empty": ("gaussian", {"model": {"spec": {}}}, "spec is missing key 'u_plus'"),
    # an empty table file, a non-finite array and an out-of-range radius or mixture weight
    "tabulated-empty-npy": ("discrete", {"model": {"W": {"kind": "tabulated", "path": "empty.npy"}}},
                            "tabulated channel table empty.npy is empty"),
    "gaussian-kernel-alpha-inf": ("gaussian", {"model": {"kernel": dict(_KERNEL_1D, alpha=[float("inf")])}},
                                  "kernel alpha must be finite"),
    "gaussian-mu-cov-neg-inf": ("gaussian", {"model": {"mu": {"mean": [0.0], "cov": [[-float("inf")]]}}},
                                "mu cov must be finite"),
    "gaussian-t_grid-inf": ("gaussian", {"model": {"t_grid": [1.0, float("inf")]}}, "t_grid must be finite"),
    "marginal-inf": ("discrete", {"tolerances": {"marginal": float("inf")}}, "tolerances.marginal must be finite"),
    "riccati-varpi-inf": ("riccati", {"model": {"varpi": [[float("inf")]]}}, "varpi must be finite"),
    "riccati-r0-inf": ("riccati", {"model": {"r0": float("inf")}}, "r0 must be finite"),
    "grid-radius-inf": ("discrete", {"model": {"grid": {"dim": 1, "n": 64, "radius": float("inf")}}},
                        "grid radius must be finite"),
    "grid-radius-0": ("discrete", {"model": {"grid": {"dim": 1, "n": 64, "radius": 0.0}}}, "grid radius must be > 0"),
    "grid-radius-negative": ("discrete", {"model": {"grid": {"dim": 1, "n": 64, "radius": -3.0}}},
                             "grid radius must be > 0"),
    "V-mixture-inf": ("discrete", {"model": {"V": _mixture([1.0, 1.0], means=[[-2.0], [float("inf")]])}},
                      "V means must be finite"),
    "mixture-weights-negative": ("discrete", {"model": {"V": _mixture([-0.5, 1.5])}}, "mixture weights must be >= 0"),
    "mixture-weights-zero-sum": ("discrete", {"model": {"V": _mixture([0.0, 0.0])}}, "with a positive sum"),
}


@pytest.mark.filterwarnings("error")  # a bad config is rejected before numpy warns about it
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_config_exit_2(tmp_path, capsys, monkeypatch, case):
    command, config, needle = MALFORMED[case]
    # the table a tabulated case names, so that its channel would load, and an empty one
    monkeypatch.chdir(tmp_path)
    np.save("table.npy", np.zeros((64, 64)))
    (tmp_path / "empty.npy").touch()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, **config}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli([command, "--config", str(cfg), "--out", str(out / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and needle in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def _raise_domain_error(*args, **kwargs):
    raise DomainError("injected domain failure")


@pytest.mark.parametrize("command, module, name", [
    ("riccati", riccati, "fixed_point"),
    ("gaussian", gaussian, "bridge_solve"),
    ("discrete", discrete, "run"),
    ("bounds", bounds, "rate_table"),
    ("verify", verify, "run_criteria"),
], ids=["riccati", "gaussian", "discrete", "bounds", "verify"])
def test_compute_domain_error_exit_3(tmp_path, capsys, monkeypatch, command, module, name):
    monkeypatch.setattr(module, name, _raise_domain_error)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli([command, "--out", str(out / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "injected domain failure" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["gaussian", "bounds"])
def test_overflowing_contraction_coefficient_exit_3(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    kernel = {"alpha": [0.0], "beta": [[1e308]], "tau": [[1.0]]}
    cfg.write_text(json.dumps({"command": command, "model": {"kernel": kernel}}))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gaussian", "bounds"])
def test_underflowing_contraction_coefficient_exit_3(tmp_path, capsys, command):
    # kappa = ||tau^{-1} beta|| = 1e-308, and kappa^2 underflows to 0
    cfg = tmp_path / "cfg.json"
    kernel = {"alpha": [0.0], "beta": [[1.0]], "tau": [[1e308]]}
    cfg.write_text(json.dumps({"command": command, "model": {"kernel": kernel}}))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: contraction coefficient underflows to 0: kappa=1.000e-308, rho1=")


@pytest.mark.filterwarnings("error")
def test_riccati_start_near_the_largest_double_exit_0(tmp_path):
    """The envelope's row 0 is the start gap itself: nothing overflows, and every row is finite."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"r0": [[1e308]]}}))
    out = tmp_path / "ricc"
    assert run_cli(["riccati", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert np.isfinite(rows).all() and rows[0, 1] == rows[0, 2] == 1e308
    assert np.all(rows[:, 3] == 1)


@pytest.mark.filterwarnings("error")
def test_riccati_overflowing_envelope_exit_3(tmp_path, capsys):
    """c delta^n gap_0 overflows for a start near the largest double: exit 3 naming the row, no file written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"varpi": 0.001, "r0": [[1e308]]}}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["riccati", "--config", str(cfg), "--out", str(out / "x")]) == 3
    assert capsys.readouterr().err == f"runtime error: riccati {out / 'x.csv'} row n=1 is not finite: envelope inf\n"
    assert list(out.iterdir()) == []


EXTREME_SPEC = {"u_plus": [[1e308]], "v_plus": [[1.0]], "u_minus": [[1.0]], "v_minus": [[1.0]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, model, needle", [
    ("gaussian", {"spec": EXTREME_SPEC}, "is not finite"),
    ("bounds", {"spec": EXTREME_SPEC}, "bridge is degenerate"),
    ("riccati", {"varpi": [[1e308]]}, "decay rate underflows"),
    ("riccati", {"varpi": [[1e200]]}, "decay rate underflows"),
    ("bounds", {"spec": {**EXTREME_SPEC, "u_plus": [[1.0]], "u_minus": [[1e-200]]}}, "decay rate underflows"),
], ids=["gaussian-1e308", "bounds-1e308", "riccati-1e308", "riccati-1e200", "bounds-1e-200"])
def test_extreme_spd_input_exit_3(tmp_path, capsys, command, model, needle):
    # each matrix is SPD, and 1e308 must not overflow while it is symmetrized into a "not SPD" config error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "model": model}))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and needle in err


def assert_gaussian_non_finite_exit_3(tmp_path, capsys, model, suffix, where):
    """The run stops with exit 3 naming the file, the row and the column, and writes no file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": model}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["gaussian", "--config", str(cfg), "--out", str(out / "x")]) == 3
    err = capsys.readouterr().err
    assert err == f"runtime error: gaussian {out / ('x' + suffix)} {where}\n"
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_gaussian_non_finite_trace_exit_3(tmp_path, capsys):
    """An intercept of 1e308 overflows the Sinkhorn means: no row reads inf <= inf as satisfied, no numpy warning."""
    kernel = {"alpha": [1e308], "beta": [[1.0]], "tau": [[1.0]]}
    assert_gaussian_non_finite_exit_3(tmp_path, capsys, {"kernel": kernel}, "_trace.csv",
                                      "row n=0 is not finite: H_bridge_gap inf")


@pytest.mark.filterwarnings("error")
def test_gaussian_non_finite_proximal_exit_3(tmp_path, capsys):
    """The proximal prefactor ||chi||^2 ||tau|| ||u_plus|| overflows while eps and the trace stay finite."""
    model = {"kernel": {"alpha": [0.0], "beta": [[100.0]], "tau": [[100.0]]},
             "spec": {"u_plus": [[1e307]], "v_plus": [[1e-10]]}}
    assert_gaussian_non_finite_exit_3(tmp_path, capsys, model, "_proximal.csv",
                                      "row n=1 is not finite: KL_envelope inf")


def assert_non_finite_exit_3(tmp_path, capsys, command, where):
    """The command stops with exit 3 naming the file, the row and the column, and writes no file."""
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli([command, "--out", str(out / "x")]) == 3
    assert capsys.readouterr().err == f"runtime error: {command} {out / 'x.csv'} {where}\n"
    assert list(out.iterdir()) == []


def test_discrete_non_finite_cell_exit_3(tmp_path, capsys, monkeypatch):
    """A NaN bridge gap is refused; only row 0's H_mu_pi2n1 placeholder may be NaN."""
    report = discrete.entropy_report

    def planted(trace, oracle):
        rep = report(trace, oracle)
        rep["H_bridge_even"][3] = float("nan")
        return rep

    monkeypatch.setattr(discrete, "entropy_report", planted)
    assert_non_finite_exit_3(tmp_path, capsys, "discrete", "row n=3 is not finite: H_bridge_Pn nan")


def test_bounds_non_finite_cell_exit_3(tmp_path, capsys, monkeypatch):
    """A NaN envelope is refused; only the documented inf envelopes before n = 2 and n = p pass."""
    rate_table = bounds.rate_table

    def planted(*args, **kwargs):
        report = rate_table(*args, **kwargs)
        n, tag, _ = report.envelopes[5]
        report.envelopes[5] = (n, tag, float("nan"))
        return report

    monkeypatch.setattr(bounds, "rate_table", planted)
    assert_non_finite_exit_3(tmp_path, capsys, "bounds",
                             "row n=5 theorem_tag=two-step-entropy-rate is not finite: bound nan")


# one NaN in each file the CLI writes: a table's (column, row index) or a report's key path
PLANTED = {
    "riccati-csv": ("riccati", ".csv", ("envelope", 3), "row n=3 is not finite: envelope nan"),
    "riccati-json": ("riccati", ".json", ("identities", "fixed_point_residual"),
                     "report is not finite: identities.fixed_point_residual nan"),
    "gaussian-trace": ("gaussian", "_trace.csv", ("W2_marginal_gap", 4), "row n=4 is not finite: W2_marginal_gap nan"),
    "gaussian-ot-sweep": ("gaussian", "_ot_sweep.csv", ("slope_norm", 1), "row t=1 is not finite: slope_norm nan"),
    "gaussian-proximal": ("gaussian", "_proximal.csv", ("KL", 2), "row n=2 is not finite: KL nan"),
    "gaussian-report": ("gaussian", "_report.json", ("phi",), "report is not finite: phi nan"),
    # a masked column is checked in every row its mask does not declare
    "discrete-csv": ("discrete", ".csv", ("H_mu_pi2n1", 2), "row n=2 is not finite: H_mu_pi2n1 nan"),
    "discrete-json": ("discrete", ".json", ("final_residual",), "report is not finite: final_residual nan"),
    "bounds-csv": ("bounds", ".csv", ("bound", 23),
                   "row n=2 theorem_tag=improved-entropy-rate is not finite: bound nan"),
    "bounds-json": ("bounds", ".json", ("scalars", "iota", "value"), "report is not finite: scalars.iota.value nan"),
}


@pytest.mark.parametrize("case", list(PLANTED))
def test_planted_nan_exit_3(tmp_path, capsys, monkeypatch, case):
    """Each output file is checked before any is written: exit 3 names the file, row and column, and writes none."""
    command, suffix, place, where = PLANTED[case]
    compute = getattr(cli, f"_{command}")

    def planted(*inputs):
        files = compute(*inputs)
        if suffix.endswith(".csv"):
            column, row = place
            values = files[suffix][column]
            nan_column = np.array(getattr(values, "values", values), dtype=float)
            nan_column[row] = np.nan
            declared = isinstance(values, cli._Placeholders)
            files[suffix][column] = values._replace(values=nan_column) if declared else nan_column
        else:
            *keys, last = place
            doc = files[suffix]
            for key in keys:
                doc = doc[key]
            doc[last] = float("nan")
        return files

    monkeypatch.setattr(cli, f"_{command}", planted)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli([command, "--out", str(out / "x")]) == 3
    assert capsys.readouterr().err == f"runtime error: {command} {out / ('x' + suffix)} {where}\n"
    assert list(out.iterdir()) == []


def _leaves(node) -> list:
    if isinstance(node, dict):
        node = list(node.values())
    return [x for v in node for x in _leaves(v)] if isinstance(node, list) else [node]


def _non_finite_cells(path: Path) -> list:
    """Each inf or NaN a written file holds: 'n=<n>[ <tag>] <column>=<cell>' for a table, the value for a report."""
    if path.suffix == ".json":
        return [x for x in _leaves(json.loads(path.read_text())) if isinstance(x, float) and not np.isfinite(x)]
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    tagged = header[1] == "theorem_tag"
    return [" ".join([f"{header[0]}={row[0]}", *row[1:2 if tagged else 1], f"{name}={cell}"])
            for row in rows for name, cell in zip(header, row)
            if cell in ("inf", "-inf", "nan")]


@pytest.mark.parametrize("command, model, non_finite", [
    ("riccati", {}, {".json": [], ".csv": []}),
    ("gaussian", {}, {"_trace.csv": ["n=0 envelope_phi=inf", "n=1 envelope_phi=inf"], "_ot_sweep.csv": [],
                      "_proximal.csv": [], "_report.json": []}),
    ("discrete", {}, {".csv": ["n=0 H_mu_pi2n1=nan"], ".json": []}),
    ("bounds", {"p": 3}, {".json": [], ".csv": [
        "n=0 improved-entropy-rate bound=inf", "n=1 improved-entropy-rate bound=inf",
        "n=0 corrected-two-step-rate bound=inf", "n=1 corrected-two-step-rate bound=inf",
        "n=2 corrected-two-step-rate bound=inf"]}),
], ids=["riccati", "gaussian", "discrete", "bounds-p3"])
def test_documented_placeholders_exit_0(tmp_path, command, model, non_finite):
    """The declared placeholders, and only they, are written as inf or nan."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "model": model}))
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out / "x")]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted("x" + suffix for suffix in non_finite)
    for suffix, cells in non_finite.items():
        assert _non_finite_cells(out / ("x" + suffix)) == cells, suffix


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_verify_non_finite_detail_exit_3(tmp_path, capsys, monkeypatch, to_file):
    """A NaN criterion detail stops verify with exit 3: nothing on stdout, and no --out file."""
    criterion = dict(verify.CRITERIA)["ot-limit"]

    def planted(seed):
        records = criterion(seed=seed)
        next(numbers for name, numbers, *_ in records if name == "gaps")[1] = float("nan")
        return records

    criteria = [(name, planted if name == "ot-limit" else fn) for name, fn in verify.CRITERIA]
    monkeypatch.setattr(verify, "CRITERIA", criteria)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["verify", "--json", "--filter", "ot-limit"] + (["--out", str(out / "v")] if to_file else [])
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    where = out / "v.json" if to_file else "stdout"
    assert captured.out == ""
    assert captured.err == f"runtime error: verify {where} report is not finite: criteria.0.details.gaps.1 nan\n"
    assert list(out.iterdir()) == []


def test_compute_bug_propagates(monkeypatch):
    def bug(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a domain failure")

    monkeypatch.setattr(riccati, "fixed_point", bug)
    with pytest.raises(ZeroDivisionError):
        run_cli(["riccati", "--out", "unused"])


def test_process_exit_status_follows_the_phase_rule(tmp_path):
    """``python -m sinkbridge.cli`` exits 2 for a load error and 3 for a compute error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "riccati", "model": {"n": 2.7}}))
    load = subprocess.run(
        [sys.executable, "-m", "sinkbridge.cli", "riccati", "--config", str(cfg), "--out", str(tmp_path / "a")],
        capture_output=True, text=True,
    )
    assert load.returncode == 2 and "config error" in load.stderr
    # the module run as __main__, as -m runs it, after a compute function is made to fail
    script = (
        "import runpy, sys\n"
        "from sinkbridge import errors, riccati\n"
        "def fail(*args):\n"
        "    raise errors.DomainError('injected domain failure')\n"
        "riccati.fixed_point = fail\n"
        f"sys.argv = ['sinkbridge', 'riccati', '--out', {str(tmp_path / 'b')!r}]\n"
        "runpy.run_module('sinkbridge.cli', run_name='__main__')\n"
    )
    compute = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert compute.returncode == 3 and "runtime error" in compute.stderr
    assert "Traceback" not in load.stderr + compute.stderr


def test_riccati_unsatisfied_envelope_row_exits_1(tmp_path, capsys, monkeypatch):
    """A prefactor ten times too small fails envelope rows: the files are written, then exit 1."""
    decay_params = riccati.decay_params

    def shrunk_prefactor(varpi):
        delta, c_bound = decay_params(varpi)
        return delta, c_bound / 10.0

    monkeypatch.setattr(riccati, "decay_params", shrunk_prefactor)
    out = tmp_path / "ricc"
    assert run_cli(["riccati", "--out", str(out)]) == 1
    rows = out.with_suffix(".csv").read_text().strip().splitlines()[1:]
    assert any(r.endswith(",0") for r in rows)
    assert out.with_suffix(".json").exists()
    assert "satisfied=0" in capsys.readouterr().err
    # criterion 2 reads the same envelope and gate
    assert verify.failing(verify.criterion_riccati_decay(seed=0)) == ["envelope"]


def test_gaussian_unsatisfied_trace_row_exits_1(tmp_path, capsys, monkeypatch):
    """A contraction coefficient 1e-6 times the true one fails trace rows: files written, then exit 1."""
    eps_lg = bounds.eps_lg
    monkeypatch.setattr(bounds, "eps_lg", lambda k, spec: 1e-6 * eps_lg(k, spec))
    out = tmp_path / "gauss"
    assert run_cli(["gaussian", "--out", str(out)]) == 1
    rows = (tmp_path / "gauss_trace.csv").read_text().strip().splitlines()[1:]
    assert any(r.endswith(",0") for r in rows)
    for suffix in ("_ot_sweep.csv", "_proximal.csv", "_report.json"):
        assert (tmp_path / f"gauss{suffix}").exists()
    assert "satisfied=0" in capsys.readouterr().err
    # criteria 4 and 5 read the same envelopes and gate
    assert verify.failing(verify.criterion_bridge_vs_sinkhorn(seed=0)) == ["random_models_pair_envelope"]
    assert verify.failing(verify.criterion_improved_rate(seed=0)) == ["phi_envelope"]


def test_tabulated_channel_with_neg_inf_exit_2(tmp_path, capsys):
    # parse_array lets +-inf through; the channel build rejects -inf
    table = np.zeros((8, 8))
    table[2, 6] = -np.inf
    table[5, 1] = np.inf
    assert np.array_equal(models.parse_array(table, "W", 2), table)
    path = tmp_path / "w.npy"
    np.save(path, table)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "discrete", "model": {
        "grid": {"dim": 1, "n": 8, "radius": 4.0}, "W": {"kind": "tabulated", "path": str(path)}}}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(out / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "NaN or -inf" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("dim, n, w", [
    (2, 65, {"kind": "tabulated", "path": "never-read.npy"}),
    (2, 65, {"kind": "linear-gaussian", "alpha": [0.0, 0.0], "beta": [[1.0, 0.2], [0.0, 1.0]], "tau": [[1.0, 0.0], [0.0, 1.0]]}),
    (1, 4097, {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[1.0]]}),
], ids=["tabulated-2d", "correlated-2d", "1d"])
def test_channel_table_over_budget_exit_2(dim, n, w, tmp_path, capsys, monkeypatch):
    """A channel table just over models.TABLE_BUDGET exits 2 at load; the table is never read or built."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an over-budget table was read or built")

    for module, name in ((np, "load"), (np, "loadtxt"), (models, "_normalize_channel"), (discrete, "_normalize_channel"),
                         (models, "uniform_grid"), (discrete, "uniform_grid")):
        monkeypatch.setattr(module, name, unreachable)
    side = n**dim
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "discrete", "model": {
        "grid": {"dim": dim, "n": n, "radius": 8.0},
        "U": {"kind": "quadratic", "params": {"mean": [0.0] * dim, "cov": np.eye(dim).tolist()}},
        "V": {"kind": "quadratic", "params": {"mean": [0.0] * dim, "cov": np.eye(dim).tolist()}},
        "W": w}}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["discrete", "--config", str(cfg), "--out", str(out / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"grid n = {n} in dim = {dim}" in err and f"{8 * side**2} bytes" in err
    assert list(out.iterdir()) == []


def test_channel_table_budget_is_inclusive():
    """64 x 64 dense and 4096 per axis factored are at the budget; one node more is over it."""
    assert 8 * 4096**2 == models.TABLE_BUDGET
    for dim, n, separable in ((2, 64, False), (1, 4096, False), (2, 4096, True), (3, 16, False)):
        models._check_table_size(dim, n, separable)
        with pytest.raises(models.ConfigError, match="over the budget"):
            models._check_table_size(dim, n + 1, separable)


def test_grid_engine_runs_without_scipy(tmp_path):
    """With scipy unimportable, the grid commands and the grid criteria all exit 0."""
    mixture = {"command": "discrete", "model": {
        "grid": {"dim": 1, "n": 64, "radius": 8.0},
        "V": {"kind": "gaussian-mixture", "params": {
            "weights": [0.3, 0.7], "means": [[-1.5], [1.0]], "covs": [[[0.5]], [[0.8]]]}}}}
    cfg = tmp_path / "mixture.json"
    cfg.write_text(json.dumps(mixture))
    runs = [
        ["discrete", "--out", str(tmp_path / "default")],
        ["discrete", "--config", str(cfg), "--out", str(tmp_path / "mixture")],
        ["verify", "--filter", "discrete-sinkhorn-correctness"],
        ["verify", "--filter", "discretization-consistency"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from sinkbridge import cli\n"
        f"sys.exit(max(cli.main(argv) for argv in {runs!r}))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mixture.csv").exists()


def perfbench_modules():
    """The benchmark's workload generator and output checks, imported from perfbench/."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.pop(0)
    return workloads, checks


def test_benchmark_configs_load(tmp_path):
    """Every config the benchmark's workloads write passes the key checks and loads."""
    workloads, _ = perfbench_modules()
    loaded = 0
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, 0, tmp_path / name)
        for op in [plan["warmup"], *plan["round"]]:
            if "--config" in op["argv"]:
                args = argparse.Namespace(command=op["command"], config=op["argv"][op["argv"].index("--config") + 1])
                getattr(cli, f"_load_{op['command']}")(args)
                loaded += 1
    assert loaded >= 3


def test_readme_configs_load_and_kinds_match_the_reader(tmp_path):
    """Every JSON config in README.md loads, and its kind lists are the reader's tables."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block)
        command = json.loads(block)["command"]
        getattr(cli, f"_load_{command}")(argparse.Namespace(command=command, config=str(path)))
    assert blocks

    def documented(heading):
        lines = readme.split(heading, 1)[1].strip().split("\n\n", 1)[0].splitlines()
        return {kind: keys for kind, *keys in (re.findall(r"`([^`]+)`", line) for line in lines)}

    assert documented("Kinds of `U` and `V`, with the keys of their `params` object:") == {
        kind: list(fields["params"]) for kind, (_, fields) in models.MARGINAL_KINDS.items()}
    assert documented("Kinds of `W`, with the keys beside its `kind`:") == {
        kind: list(fields) for kind, (_, fields) in models.CHANNEL_KINDS.items()}


def test_benchmark_rounds_succeed_and_repeat_byte_identical(tmp_path, capsys):
    """One round of each benchmark workload (seed 0) passes the benchmark's own output checks."""
    workloads, checks = perfbench_modules()

    def run_round(plan):
        outputs = []
        for op in plan["round"]:
            rc = run_cli(op["argv"])
            stdout = capsys.readouterr().out
            assert checks.check(op, rc, stdout) == [], op["id"]
            outputs.append((stdout, [path.read_bytes() for path in checks.output_paths(op)]))
        return outputs

    plans = {name: workloads.generate(name, 0, tmp_path / name) for name in workloads.WORKLOADS}
    first = {name: run_round(plan) for name, plan in plans.items()}
    assert all(files for _, files in first["grid"])
    assert run_round(plans["grid"]) == first["grid"]


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_verify_round_passes_its_checks(seed, tmp_path, capsys):
    """The benchmark's verify round at seeds 0-4, each operation through the benchmark's own output checks."""
    workloads, checks = perfbench_modules()
    for op in workloads.generate("verify", seed, tmp_path)["round"]:
        rc = run_cli(op["argv"])
        assert checks.check(op, rc, capsys.readouterr().out) == [], op["id"]


@pytest.mark.parametrize("seed", range(5))
def test_verify_summary_holds_records_and_number_lists(seed, capsys):
    """Every detail is a gate record {observed, allowed, op} or a list of numbers; byte_identical is the one boolean.

    Each record's finite observed and allowed, read back from the summary, give its criterion's verdict.
    """
    assert run_cli(["verify", "--json", "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] and [c["id"] for c in doc["criteria"]] == list(range(1, 12))
    for criterion in doc["criteria"][:10]:
        verdicts = []
        for name, detail in criterion["details"].items():
            if isinstance(detail, list):
                assert all(type(x) is not bool and np.isfinite(float(x)) for x in detail), name
                continue
            assert sorted(detail) == ["allowed", "observed", "op"] and detail["op"] in verify.OPS, name
            observed, allowed = (detail[key] for key in ("observed", "allowed"))
            assert type(observed) is not bool and np.isfinite([float(observed), float(allowed)]).all(), name
            verdicts.append(verify.OPS[detail["op"]](float(observed), float(allowed)))
        assert verdicts and all(verdicts), criterion["name"]
    assert doc["criteria"][10]["details"] == {"byte_identical": True}


def test_verify_summary_refuses_a_detail_it_cannot_write():
    result = {"id": 1, "name": "one", "passed": True, "details": {"thing": object()}}
    with pytest.raises(TypeError, match="object"):
        verify.summary_document([result], 0)


def test_rendered_report_refuses_a_value_it_cannot_write():
    with pytest.raises(TypeError, match="object"):
        cli._render("bounds", Path("out/bounds.json"), {"scalars": {"thing": object()}})


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    counts = []
    for _ in range(2):
        assert run_cli(["verify", "--filter", "ot-limit"]) == 0
        assert capsys.readouterr().out.split() == ["PASS", "7", "ot-limit"]
        counts.append(len(built))
    assert counts[0] > 0 and counts[1] == counts[0]
    for bad in (["verify", "--seed", "x"], ["nonsense"], ["discrete", "--filter", "ot-limit"], []):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
    assert run_cli(["verify", "--filter", "riccati-fixed-point"]) == 0
    assert capsys.readouterr().out.split() == ["PASS", "1", "riccati-fixed-point"]
    assert len(built) == counts[0]
