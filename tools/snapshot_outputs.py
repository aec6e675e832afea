"""Write every byte-stable output of this checkout into one directory, for ``diff -r`` against another checkout's.

Run:  python3 tools/snapshot_outputs.py OUT

OUT receives, one subdirectory per case:

- the ``riccati``, ``gaussian``, ``discrete`` and ``bounds`` commands at
  their defaults and at the configs listed in ``CONFIGS`` below: each
  output file, with the command's stdout, stderr and exit code;
- the benchmark's four ``grid`` operations at seed 0 (a 1-d N = 512
  dense channel, a 2-d factored channel and a tabulated table among
  them), as ``grid-<operation>/``: their configs and table are written by
  ``perfbench.workloads.generate`` into a scratch directory, so only the
  outputs are compared;
- ``verify --json`` at seeds 0-4, as ``verify-seed<S>/stdout``;
- the stdout of every script under ``demos/``.

Each case runs in a fresh process with ``OPENBLAS_NUM_THREADS=1`` against
the ``src/`` of the checkout this script sits in, so copying the script
into another checkout snapshots that one.  The output directory in each
``wrote`` line is stripped, so two snapshots made into different OUTs
compare equal when the outputs are.  Comparing two checkouts is then

    python3 tools/snapshot_outputs.py /tmp/new
    mkdir -p OLD/tools && cp tools/snapshot_outputs.py OLD/tools/ && python3 OLD/tools/snapshot_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import generate  # noqa: E402

_KERNEL_3D = {"alpha": [0.0, 0.1, -0.2], "beta": [[1.0, 0.2, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 1.1]],
              "tau": [[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.9]]}

# (case name, command, model object or None for the defaults)
CONFIGS = [
    ("riccati-default", "riccati", None),
    ("riccati-infinite", "riccati", {"varpi": "infinite"}),
    ("riccati-d2", "riccati", {"varpi": [[2.0, 0.5], [0.5, 3.0]], "r0": [[0.5, 0.0], [0.0, 0.2]]}),
    ("gaussian-default", "gaussian", None),
    ("gaussian-sharp-kernel", "gaussian", {"kernel": {"alpha": [0.0], "beta": [[1.0]], "tau": [[1e-6]]}}),
    ("gaussian-d2", "gaussian", {
        "mu": {"mean": [0.5, -0.2], "cov": [[2.0, 0.3], [0.3, 1.0]]},
        "eta": {"mean": [-1.0, 0.4], "cov": [[0.8, -0.1], [-0.1, 1.5]]},
        "kernel": {"alpha": [0.1, 0.0], "beta": [[1.0, 0.2], [0.0, 0.9]], "tau": [[0.7, 0.1], [0.1, 0.5]]},
        "n_max": 12}),
    ("discrete-default", "discrete", None),
    ("bounds-default", "bounds", None),
    ("bounds-p3", "bounds", {"p": 3}),
    ("bounds-d3-four-factors", "bounds", {"kernel": _KERNEL_3D, "p": 2, "spec": {
        "u_plus": [[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.8]],
        "v_plus": [[1.6, -0.2, 0.1], [-0.2, 2.2, 0.0], [0.1, 0.0, 1.4]],
        "u_minus": [[0.9, 0.1, 0.0], [0.1, 0.7, 0.05], [0.0, 0.05, 0.8]],
        "v_minus": [[0.6, 0.0, 0.1], [0.0, 0.8, -0.1], [0.1, -0.1, 0.7]]}}),
    ("bounds-zero-minus", "bounds", {"spec": {"u_plus": [[2.0]], "v_plus": [[1.5]], "u_minus": None,
                                              "v_minus": None}}),
]
SEEDS = range(5)


def _run(argv, case: Path) -> None:
    """Run argv in a fresh process and keep its stdout, stderr and exit code under ``case``."""
    case.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=case, env=env, capture_output=True, text=True)
    (case / "stdout").write_text(proc.stdout.replace(f"{case}{os.sep}", ""))
    (case / "stderr").write_text(proc.stderr)
    (case / "exit").write_text(f"{proc.returncode}\n")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    for name, command, model in CONFIGS:
        case = out / name
        case.mkdir(parents=True, exist_ok=True)
        cli = ["-m", "sinkbridge.cli", command, "--out", str(case / command)]
        if model is not None:
            (case / "config.json").write_text(json.dumps({"command": command, "model": model}))
            cli += ["--config", str(case / "config.json")]
        _run(cli, case)
    with tempfile.TemporaryDirectory() as work:
        for op in generate("grid", 0, Path(work))["round"]:
            case = out / op["id"]
            # the operation's own --out prefix, last on its command line, is moved into the case
            _run(["-m", "sinkbridge.cli", *op["argv"][:-1], str(case / op["command"])], case)
    for seed in SEEDS:
        _run(["-m", "sinkbridge.cli", "verify", "--json", "--seed", str(seed)], out / f"verify-seed{seed}")
    for script in sorted((ROOT / "demos").glob("*.py")):
        _run([str(script)], out / f"demo-{script.stem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
