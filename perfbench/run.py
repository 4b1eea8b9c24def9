"""Benchmark of the rmse_elm package: CPU-timed fit, predict and bench matrix.

    python3 perfbench/run.py --workload bh-rmse --seed 1 --seconds 25 --trace 0

Runs one workload in this single process, closed loop, with BLAS pinned
to one thread, importing the package from ./src of the checkout. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 a separate traced run reports the per-layer ones.
"""

import os

# must precede the first numpy import, here and in the set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9  # this process plus eight set-up-only children


def declared_metrics():
    """{end_to_end name: unit} and {per_layer name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_package():
    """Import rmse_elm from ./src of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    try:
        import rmse_elm
        import rmse_elm.cli  # noqa: F401  (the package does not import its CLI)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rmse_elm from {src}: {exc}")
    import_s = time.process_time() - t0
    if not Path(rmse_elm.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: rmse_elm resolved to {rmse_elm.__file__}, not under {src}")
    return rmse_elm, import_s


def child_setup_s(args):
    """CPU seconds to set-up in a fresh interpreter, from its process start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(args, R, wl):
    import workloads

    problems = []
    first, rounds, failed, attempted = None, [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, t, f = wl.run_round(R)
        rounds.append(t)
        failed += f
        attempted += wl.ops_per_round()
        if first is None:
            first = out
        elif not wl.same_outputs(first, out):
            problems.append(f"round {len(rounds) - 1} outputs differ from round 0")
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    more, rels = wl.check(first)
    problems += more
    metrics = wl.round_metrics(rounds)
    metrics["test_mse_rel.mean"] = statistics.fmean(rels) if rels else float("nan")
    try:
        metrics["fit_peak_mb"] = workloads.peak_fit_mb(wl, R)
    except Exception as exc:  # a program that fails every fit fails this one too
        print(f"perfbench: untimed peak fit failed: {exc!r}", file=sys.stderr)
        metrics["fit_peak_mb"] = float("nan")
        if failed < attempted:
            problems.append(f"untimed peak fit failed while timed calls passed: {exc!r}")
    setups = [args.setup_own]
    for _ in range(SETUP_REPEATS - 1):
        try:
            setups.append(child_setup_s(args))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(f"set-up repeat failed: {exc}")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: {len(rounds)} rounds, set-ups {setups}", file=sys.stderr)
    return problems, attempted, failed, {k: (metrics[k], u) for k, u in declared_metrics()[0].items()}


def traced_run(R, wl, tracer, import_s):
    import layers

    problems = []
    plain_cpu = time.process_time()
    plain, _, f1 = wl.run_round(R)
    plain_cpu = time.process_time() - plain_cpu
    tracer.install()
    try:
        traced_cpu = time.process_time()
        traced, _, f2 = wl.run_round(R, tracer)
        traced_cpu = time.process_time() - traced_cpu
    finally:
        tracer.uninstall()
    if not wl.same_outputs(plain, traced):
        problems.append("program outputs differ with tracing on and off")
    more, rels = wl.check(plain)
    problems += more
    more, values = layers.layer_metrics(tracer, import_s, rels)
    problems += more
    print(f"perfbench: round CPU untraced {plain_cpu:.4f} s, traced {traced_cpu:.4f} s, "
          f"tracing overhead {traced_cpu - plain_cpu:+.4f} s over {len(tracer.spans)} spans",
          file=sys.stderr)
    attempted = 2 * wl.ops_per_round()
    return problems, attempted, f1 + f2, {k: (values[k], u) for k, u in declared_metrics()[1].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bh-rmse", "wav-simple", "aba-matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        R, import_s = import_package()
        import spans
        import workloads

        wl = workloads.WORKLOADS[args.workload]()
        tracer = spans.Tracer(R, keep_results=workloads.KEEP) if args.trace else None
        if tracer:
            tracer.install()
            tracer.request("setup")
        try:
            wl.setup(R, workdir, args.seed)
        finally:
            if tracer:
                tracer.uninstall()
        args.setup_own = time.process_time()  # CPU seconds since process start
        if args.setup_only:
            print(repr(args.setup_own))
            return 0
        if tracer:
            problems, attempted, failed, metrics = traced_run(R, wl, tracer, import_s)
        else:
            problems, attempted, failed, metrics = timed_run(args, R, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
