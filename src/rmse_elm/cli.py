"""Command-line front end: train, bench, blend, report.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure. Every command prints the master seed it resolved so any run can
be reproduced from its output.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    METHODS,
    canonical_method,
    fit,
    load_experiment_config,
    make_report,
    mse,
    parse_column,
    parse_list,
    read_records,
    run_experiment,
    write_report,
)
from .data import (
    DataError,
    NoiseSpec,
    SplitSpec,
    _check_blended_split,
    blend_noise,
    load_csv,
    make_blended_split,
    save_csv,
)
from .recursive import EnsembleConfig
from .selective import DegenerateEnsembleError
from .synth import benchmark_task

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_SEED = 20240501  # fixed so bare invocations reproduce


class _Parser(argparse.ArgumentParser):
    """argparse under the one-line error contract: a flag it rejects raises
    ValueError, which `main` prints as one `error:` line with exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="rmse-elm",
        description="Extreme learning machine ensembles and the blended-data benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one method on a dataset, print test MSE")
    train.add_argument("--dataset", required=True,
                       help="CSV path, or task:<housing|abalone|redwine|waveform>")
    train.add_argument("--target-col", default=None,
                       help="target column name or 0-based index (CSV datasets; "
                            "default: target)")
    train.add_argument("--no-header", action="store_true",
                       help="CSV has no header row (CSV datasets)")
    train.add_argument("--method", default="elm",
                       help=f"{' | '.join(METHODS)} (any case)")
    train.add_argument("--groups", type=int, default=EnsembleConfig.groups)
    train.add_argument("--group-size", type=int, default=EnsembleConfig.group_size)
    train.add_argument("--hidden", type=int, default=EnsembleConfig.n_hidden)
    train.add_argument("--activation", default=EnsembleConfig.activation)
    train.add_argument("--lambda", dest="threshold", type=float, default=EnsembleConfig.threshold1,
                       help="per-group selection threshold (default: 1/group-size; "
                            "the pool threshold stays 1/pool size)")
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--noise", action="append", default=[],
                       help="comma-separated noise variances to blend in (repeatable)")
    train.add_argument("--noise-seed", type=int, default=0)
    train.add_argument("--n-train", type=int, default=None,
                       help="training rows (default: 75%% of the dataset)")

    bench = sub.add_parser("bench", help="run the benchmark matrix from a config file")
    bench.add_argument("--config", required=True)
    bench.add_argument("--runs", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--jobs", type=int, default=None)
    bench.add_argument("--out", default=None, help="report directory (overrides config)")

    blend = sub.add_parser("blend", help="write a noise-blended copy of a dataset")
    blend.add_argument("--dataset", required=True)
    blend.add_argument("--target-col", default="target")
    blend.add_argument("--no-header", action="store_true")
    blend.add_argument("--noise", action="append", required=True,
                       help="comma-separated noise variances (repeatable)")
    blend.add_argument("--seed", type=int, default=DEFAULT_SEED)
    blend.add_argument("--out", required=True, help="output CSV path")

    report = sub.add_parser("report", help="rebuild bench's tables and summary from its records")
    report.add_argument("--records", required=True, help="runrecords.csv from a bench run")
    report.add_argument("--out", required=True, help="report directory")
    return parser


def _load_csv_dataset(args):
    target = "target" if args.target_col is None else args.target_col
    return load_csv(args.dataset, parse_column(target), has_header=not args.no_header)


def _load_train_dataset(args):
    spec = args.dataset
    if spec.startswith("task:"):
        if args.target_col is not None or args.no_header:
            raise ValueError(f"--target-col and --no-header apply to CSV datasets, not {spec}")
        task = benchmark_task(spec.split(":", 1)[1])  # the table bench's `task = <name>` reads
        return task.dataset, task.split.n_train
    return _load_csv_dataset(args), None


def _noise_spec(noise, seed, seed_flag):
    """The NoiseSpec of the --noise lists (none: clean), or a ValueError naming the flags."""
    flags = f"--noise {','.join(noise)} {seed_flag}" if noise else seed_flag
    try:
        variances = parse_list(",".join(noise))
        if noise and not variances:
            raise ValueError("no variance listed")
        return NoiseSpec(variances=variances, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{flags} {seed}: {exc}") from None


def _cmd_train(args):
    # a bad method or setting fails here, before any data is read
    method = canonical_method(args.method)
    config = EnsembleConfig(
        groups=args.groups, group_size=args.group_size,
        n_hidden=args.hidden, activation=args.activation,
        threshold1=args.threshold, seed=args.seed,
    )
    noise = _noise_spec(args.noise, args.noise_seed, "--noise-seed")
    print(f"master seed: {args.seed}")
    ds, default_n_train = _load_train_dataset(args)
    n_train = args.n_train if args.n_train is not None else default_n_train
    if n_train is None:
        n_train = max(1, int(round(0.75 * ds.n_samples)))
    _check_blended_split(ds, n_train, name="--n-train")  # before SplitSpec rejects 0
    train_ds, test_ds, _ = make_blended_split(ds, noise, SplitSpec(n_train=n_train))

    t0 = time.perf_counter()
    fitted = fit(method, train_ds.X, train_ds.y, config)
    wall = time.perf_counter() - t0
    pred = fitted.predict(test_ds.X)

    print(f"method: {method}")
    print(f"train rows: {train_ds.n_samples}  test rows: {test_ds.n_samples}  "
          f"features: {train_ds.n_features}")
    print(f"training time: {wall:.4f} s")
    if method in ("RMSE-ELM", "E-GASEN"):
        print(f"layer-1 pool size: {fitted.pool_size}")
        print(f"layer-2 survivors: {fitted.n_members}")
    elif method != "ELM":
        print(f"survivors: {fitted.n_members}")
    print(f"test MSE: {mse(pred, test_ds.y):.6g}")
    return EXIT_OK


def _make_out_dir(path):
    """Create the report directory, or fail with one line naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write the report to {path}: {exc.strerror}") from None


def _cmd_bench(args):
    flags = {"runs": args.runs, "master_seed": args.seed, "jobs": args.jobs, "out_dir": args.out}
    cfg = replace(load_experiment_config(args.config),
                  **{name: value for name, value in flags.items() if value is not None})
    _make_out_dir(cfg.out_dir)  # before any cell runs, so a bad path costs no training
    print(f"master seed: {cfg.master_seed}")
    if cfg.jobs > 1:
        print("note: jobs > 1; wall-time (CC) numbers are not authoritative")
    report = run_experiment(cfg)
    out = write_report(report, cfg.out_dir)
    for key, message in sorted(report.errors.items()):
        print(f"cell failed {key}: {message}", file=sys.stderr)
    print(f"report written to {out}")
    if report.errors and not report.records:
        return EXIT_NUMERIC  # every cell failed
    return EXIT_OK


def _cmd_blend(args):
    noise = _noise_spec(args.noise, args.seed, "--seed")  # before any data is read
    print(f"master seed: {args.seed}")
    ds = _load_csv_dataset(args)
    blended = blend_noise(ds, noise)
    manifest = {
        "source": args.dataset,
        "noise_variances": ", ".join(repr(v) for v in noise.variances),
        "noise_seed": noise.seed,
    }
    path = save_csv(blended, args.out, manifest=manifest)
    print(f"blended dataset written to {path} "
          f"({blended.n_samples} rows, {blended.n_features} features)")
    return EXIT_OK


def _cmd_report(args):
    records = read_records(args.records)
    if not records:
        raise DataError(f"{args.records}: contains no run records")
    _make_out_dir(args.out)  # after the records are read, so unreadable ones make no directory
    keys = [(r.dataset, r.noise_id, r.method) for r in records]
    report = make_report(records, keys, {}, sorted({r.master_seed for r in records}))
    print(f"master seed: {', '.join(map(str, report.master_seeds))}")
    out = write_report(report, args.out)
    print(f"report written to {out}")
    return EXIT_OK


_HANDLERS = {
    "train": _cmd_train,
    "bench": _cmd_bench,
    "blend": _cmd_blend,
    "report": _cmd_report,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateEnsembleError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
