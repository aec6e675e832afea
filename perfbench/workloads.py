"""Seed-driven inputs for the two workloads.

Each workload is a warm-up operation plus one *round*: a fixed list of
CLI commands.  The measured run repeats the round.  Every input the
program sees is written here, as a JSON config (and, for the tabulated
channel, an ``.npy`` table) under the run's work directory; the seed
changes values, never the shape of the work.  RATIONALE.md explains the
choice of each workload and size.
"""

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "grid")


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one run into ``work``; return its operation plan."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    (work / "out").mkdir(parents=True, exist_ok=True)
    plan = {"verify": _verify, "grid": _grid}[workload](rng, seed, work)
    (work / "ops.json").write_text(json.dumps(plan, indent=1))
    return plan


def _op(work: Path, op_id: str, command: str, config=None) -> dict:
    argv = [command]
    if config is not None:
        path = work / f"{op_id}.json"
        path.write_text(json.dumps({"command": command, **config}))
        argv += ["--config", str(path)]
    prefix = work / "out" / op_id
    argv += ["--out", str(prefix)]
    return {"id": op_id, "command": command, "argv": argv, "prefix": str(prefix), "check": {}}


# `verify --filter NAME` runs the criteria whose name contains NAME; each
# of these names matches exactly one criterion
VERIFY_CRITERIA = (
    "riccati-fixed-point", "riccati-decay", "psi-factorization", "gaussian-bridge-vs-sinkhorn",
    "improved-phi-rate", "entropic-map-identities", "ot-limit", "proximal-sampler",
    "discrete-sinkhorn-correctness", "discretization-consistency",
)


def _verify(rng, seed, work):
    base = ["verify", "--json", "--seed", str(seed)]
    # One round is one pass of the suite, a criterion per operation, so a
    # run repeats each criterion many times instead of timing three ~10 s
    # full verifies.  The determinism criterion (two more full passes) is
    # left out: the benchmark itself checks that repeats are byte-identical.
    round_ = [{"id": f"verify-{name}", "command": "verify", "argv": base + ["--filter", name],
               "prefix": None, "check": {"criteria": 1}} for name in VERIFY_CRITERIA]
    return {"warmup": round_[VERIFY_CRITERIA.index("ot-limit")], "round": round_}


def _quadratic(mean, cov):
    return {"kind": "quadratic", "params": {"mean": list(mean), "cov": np.asarray(cov).tolist()}}


def _grid(rng, seed, work):
    default = _op(work, "grid-default", "discrete")

    # The seed moves values, not sweep counts, so runs with different seeds
    # do the same work: seed-drawn parameters vary by a few parts per
    # thousand, and target means stay at 0 (an offset feeds the slowest
    # mode and moves the 2-d sweep counts by up to a third).
    sep = rng.uniform(1.99, 2.01)
    var = rng.uniform(0.499, 0.501)
    bimodal = _op(work, "grid-1d-512", "discrete", {"model": {
        "grid": {"dim": 1, "n": 512, "radius": 8.0},
        "U": _quadratic([0.0], [[1.0]]),
        "V": {"kind": "gaussian-mixture", "params": {
            "weights": [0.5, 0.5], "means": [[-sep], [sep]], "covs": [[[var]], [[var]]]}},
        "W": {"kind": "linear-gaussian", "alpha": [0.0], "beta": [[1.0]], "tau": [[0.25]]},
    }})

    diag = _op(work, "grid-2d-32-diagonal", "discrete", {"model": {
        "grid": {"dim": 2, "n": 32, "radius": 6.0},
        "U": _quadratic([0.0, 0.0], np.diag(rng.uniform(0.998, 1.002, 2))),
        "V": _quadratic([0.0, 0.0], np.diag(rng.uniform(0.998, 1.002, 2))),
        "W": {"kind": "linear-gaussian", "alpha": [0.0, 0.0],
              "beta": np.diag(rng.uniform(0.949, 0.951, 2)).tolist(),
              "tau": np.diag(rng.uniform(0.749, 0.751, 2)).tolist()},
    }})

    # a correlated linear-Gaussian channel, tabulated by the benchmark: the
    # program only sees the (576, 576) table
    n, radius = 24, 6.0
    h = 2.0 * radius / n
    axis = -radius + h * (np.arange(n) + 0.5)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    rho = rng.uniform(0.399, 0.401)
    prec = np.linalg.inv(0.8 * np.array([[1.0, rho], [rho, 1.0]]))
    diff = pts[None, :, :] - 0.9 * pts[:, None, :]
    table = work / "grid-2d-24-table.npy"
    np.save(table, 0.5 * np.einsum("ijk,kl,ijl->ij", diff, prec, diff))
    tabulated = _op(work, "grid-2d-24-tabulated", "discrete", {"model": {
        "grid": {"dim": 2, "n": n, "radius": radius},
        "U": _quadratic([0.0, 0.0], np.eye(2)),
        "V": _quadratic([0.0, 0.0], [[1.2, 0.3], [0.3, 0.9]]),
        "W": {"kind": "tabulated", "path": str(table)},
    }})
    return {"warmup": _op(work, "grid-warmup", "discrete"), "round": [default, bimodal, diag, tabulated]}

