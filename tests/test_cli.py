import json
import subprocess
import sys

import numpy as np
import pytest

from sinkbridge import cli, discrete, models, verify


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
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["schema"] == "sinkbridge/v1"
    assert abs(doc["fixed_point"][0][0] - 0.6180339887498949) < 1e-12
    assert doc["identities"]["ok"]


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
    with pytest.raises(SystemExit) as exc:
        run_cli(["riccati", "--config", str(bad)])
    assert exc.value.code == 2
    assert "config error" in capsys.readouterr().err


def test_gaussian_command_outputs(tmp_path):
    out = tmp_path / "gauss"
    assert run_cli(["gaussian", "--out", str(out)]) == 0
    trace = (tmp_path / "gauss_trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("n,H_bridge_gap")
    assert all(r.endswith(",1") for r in trace[1:])
    sweep = (tmp_path / "gauss_ot_sweep.csv").read_text().strip().splitlines()
    gaps = [float(r.split(",")[1]) for r in sweep[1:]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report = json.loads((tmp_path / "gauss_report.json").read_text())
    assert report["terminal_bridge_gap"] < 1e-12
    assert report["proximal_b"] == 0.5


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


def test_discrete_narrow_grid_underflow_exit_3(tmp_path, capsys):
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
    code = run_cli(["discrete", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2 or code == 3
    err = capsys.readouterr().err
    assert "narrow" in err or "underflow" in err.lower() or "error" in err


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
    assert rows[0] == "n,theorem_tag,bound,empirical,satisfied"


def test_wrong_command_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gaussian", "model": {}}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["riccati", "--config", str(cfg)])
    assert exc.value.code == 2


def test_verify_filter_subset(capsys):
    assert run_cli(["verify", "--filter", "ot-limit"]) == 0
    out = capsys.readouterr().out
    assert "ot-limit" in out and "riccati" not in out


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


def test_discrete_repeat_runs_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "discrete",
        "model": {
            "grid": {"dim": 2, "n": 12, "radius": 5.0},
            "U": {"kind": "quadratic", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
            "V": {"kind": "gaussian-mixture", "params": {
                "weights": [0.5, 0.5], "means": [[-1.5, 0.0], [1.5, 0.0]],
                "covs": [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]]}},
            "W": {"kind": "linear-gaussian", "alpha": [0.0, 0.0],
                  "beta": [[0.9, 0.0], [0.0, 0.9]], "tau": [[0.5, 0.0], [0.0, 0.5]]},
        },
    }))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_cli(["discrete", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_unknown_override_criterion_exit_2(capsys):
    assert run_cli(["verify", "--filter", "ot-limit", "--tol-override", "ot-limt.final_gap=1e-3"]) == 2
    err = capsys.readouterr().err
    assert "'ot-limt'" in err and "ot-limit" in err and "riccati-fixed-point" in err


def test_verify_unknown_override_parameter_exit_2(capsys):
    assert run_cli(["verify", "--filter", "ot-limit", "--tol-override", "ot-limit.finl_gap=1e-9"]) == 2
    err = capsys.readouterr().err
    assert "'finl_gap'" in err and "final_gap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["riccati", "gaussian", "discrete", "bounds"])
@pytest.mark.parametrize(
    "flag",
    [["--seed", "1"], ["--filter", "ot-limit"], ["--json"], ["--tol-override", "ot-limit.final_gap=1"]],
    ids=["seed", "filter", "json", "tol-override"],
)
def test_verify_only_flags_rejected_elsewhere(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--out", str(tmp_path / command), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_full_suite_runs_two_passes(monkeypatch, capsys):
    def one(seed=0):
        return {"id": 1, "name": "one", "passed": True, "details": {"seed": seed}}

    def two(seed=0):
        return {"id": 2, "name": "two", "passed": True, "details": {}}

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
