"""sinkbridge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Inputs are generated from the seed under
``.perfbench/`` at the checkout root, operations run in fresh worker
processes (``worker.py``), and the last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (solves_per_s,
success_frac, peak_rss_mb, setup_s); with ``--trace 1`` they are the
per-layer ones, and the spans are kept in
``.perfbench/trace-<workload>-seed<seed>.npz``.  Every result, with the
environment it was measured in, is appended to
``.perfbench/results.jsonl``.  RATIONALE.md explains the design.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# set-up time is the median over this many fresh processes (the measuring
# worker is one of them)
SETUP_SAMPLES = 9
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def worker(mode, work, seconds, deadline, trace_file=None):
    result = work / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--plan", str(work / "ops.json"),
           "--mode", mode, "--seconds", str(seconds), "--result", str(result)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["SINKBRIDGE_THREADS"] = "1"
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def end_to_end(main, setups):
    # The host's speed drifts by ~1.5x over tens of seconds, so the rate
    # over the whole run is steadier than per-operation medians of a few
    # samples each (RATIONALE.md, "Measured steadiness").
    samples = [sample for reps in main["samples"] for sample in reps]
    return {
        "solves_per_s": {"value": sum(ok for _, ok in samples) / sum(s for s, _ in samples), "unit": "1/s"},
        "success_frac": {"value": 1.0 - main["failed"] / main["attempted"], "unit": "ratio"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(main):
    values = main["layer_metrics"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "sinkbridge" / "cli.py").is_file():
        print(f"perfbench: no sinkbridge sources at {SRC}; run inside a repository checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "sinkbridge", quiet=1)
    work = STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.generate(args.workload, args.seed, work)
        if args.trace:
            trace_file = STATE / f"trace-{args.workload}-seed{args.seed}.npz"
            main_run = worker("trace", work, args.seconds, deadline, trace_file)
            metrics = per_layer(main_run)
        else:
            # set-up samples before and after the measuring process, so they
            # see the host over the same stretch of time as the measurement
            setups = [worker("setup", work, 0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
            main_run = worker("measure", work, args.seconds, deadline)
            setups += [main_run["setup_s"]]
            setups += [worker("setup", work, 0, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
            main_run["setups"] = setups
            metrics = end_to_end(main_run, setups)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": main_run["env"], "failures": main_run["failures"]}
    for key in ("samples", "setups", "rounds"):
        if key in main_run:
            record[key] = main_run[key]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(main_run["env"], sort_keys=True))
    if main_run["attempted"]:
        print(f"  {'failed_frac':<40} {main_run['failed'] / main_run['attempted']:.6g} ratio "
              f"({main_run['failed']} of {main_run['attempted']} operations)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for failure in main_run["failures"]:
        print(f"  failed {failure['op']}: {'; '.join(failure['reasons'])}")
    with open(STATE / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**record, "metrics": metrics}) + "\n")
    print(json.dumps({
        "correct": main_run["correct"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
