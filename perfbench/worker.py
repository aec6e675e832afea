"""One fresh process running one workload through ``sinkbridge.cli.main``.

Modes:
  setup    import the package and run the warm-up operation; report the time.
  measure  setup, then repeat the workload's round of operations, closed
           loop, for ``--seconds`` of wall time (at least one round); each
           operation's durations are kept.  Only ``cli.main`` is timed;
           output checks are not.
  trace    setup, two untraced rounds, then one round with every layer
           function wrapped by the tracer; the spans go to ``--trace-file``.

The result is written as JSON to ``--result``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


class Runner:
    """Runs operations in-process and classifies each outcome."""

    def __init__(self, cli, checks):
        self.cli = cli
        self.checks = checks
        self.digests = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cpu_s = 0.0
        self.minflt = 0

    def execute(self, op, count=True):
        """Run one operation; return (seconds inside cli.main, failure reasons)."""
        for path in self.checks.output_paths(op):
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"crash ({type(exc).__name__}: {exc})"
        elapsed = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_s += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.minflt += after.ru_minflt - before.ru_minflt

        failures = self.checks.check(op, rc, out.getvalue())
        digest = hashlib.sha256(out.getvalue().encode())
        for path in self.checks.output_paths(op):
            if path.exists():
                digest.update(path.read_bytes())
        first = self.digests.setdefault(tuple(op["argv"]), digest.hexdigest())
        if first != digest.hexdigest():
            failures.append("output differs from the first run of the same input")
            self.correct = False
        if count:
            self.attempted += 1
            self.failed += bool(failures)
        if failures:
            self.failures.append({"op": op["id"], "reasons": failures[:5], "stderr": err.getvalue()[-300:]})
        return elapsed, failures

    def round(self, ops):
        op_s = []
        ok = 0
        for op in ops:
            elapsed, failures = self.execute(op)
            op_s.append(elapsed)
            ok += not failures
        return {"timed_s": sum(op_s), "ok": ok, "ops": len(ops), "op_s": op_s}


def environment(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    from sinkbridge import cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"imported sinkbridge from {cli.__file__}, not from {args.src}")
    import checks

    runner = Runner(cli, checks)
    warmup_s, warmup_failures = runner.execute(plan["warmup"], count=False)
    if warmup_failures:
        runner.correct = False

    result = {"setup_s": import_s + warmup_s, "env": environment(os.environ.get("OPENBLAS_NUM_THREADS"))}
    if args.mode == "measure":
        # Cycle through the round one operation at a time.  Every operation
        # runs at least once; after that, an operation starts only if its
        # last duration still fits in --seconds, so a run ends on time.
        ops = plan["round"]
        samples = [[] for _ in ops]
        begin = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - begin + samples[i % len(ops)][-1][0] <= args.seconds:
            elapsed, failures = runner.execute(ops[i % len(ops)])
            samples[i % len(ops)].append([elapsed, not failures])
            i += 1
        result["samples"] = samples
    elif args.mode == "trace":
        import tracer

        # the first round in a process pays for fresh heap pages (large
        # temporaries); compare two rounds that both run on a warm heap
        warm = runner.round(plan["round"])
        untraced = runner.round(plan["round"])
        rec = tracer.Tracer()
        rec.install()
        cpu0, minflt0 = runner.cpu_s, runner.minflt
        try:
            traced = runner.round(plan["round"])
        finally:
            rec.uninstall()
        metrics = rec.metrics()
        metrics["process.cpu_s"] = runner.cpu_s - cpu0
        metrics["process.minflt"] = runner.minflt - minflt0
        metrics["trace.overhead_frac"] = traced["timed_s"] / untraced["timed_s"] - 1.0
        rec.save(args.trace_file)
        result["rounds"] = [warm, untraced, traced]
        result["layer_metrics"] = metrics
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        correct=runner.correct,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
    )
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
