"""Command-line front end: train, bench, blend, report.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure. Every command prints the master seed it resolved so any run can
be reproduced from its output.
"""

import argparse
import sys
import time

import numpy as np

from .bench import (
    METHODS,
    canonical_method,
    fit,
    load_experiment_config,
    mse,
    parse_column,
    parse_list,
    read_records,
    run_experiment,
    summarize_records,
    write_report,
    ExperimentReport,
)
from .data import (
    DataError,
    NoiseSpec,
    SplitSpec,
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


def _build_parser():
    parser = argparse.ArgumentParser(
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
    train.add_argument("--noise", action="append", default=None,
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

    report = sub.add_parser("report", help="rebuild summary tables from saved run records")
    report.add_argument("--records", required=True, help="runrecords.csv from a bench run")
    report.add_argument("--out", required=True, help="report directory")
    report.add_argument("--seed", type=int, default=None,
                        help="master seed to stamp into the summary (informational)")
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


def _cmd_train(args):
    print(f"master seed: {args.seed}")
    ds, default_n_train = _load_train_dataset(args)
    n_train = args.n_train if args.n_train is not None else default_n_train
    if n_train is None:
        n_train = max(1, int(round(0.75 * ds.n_samples)))
    noise = None
    if args.noise:
        noise = NoiseSpec(variances=parse_list(",".join(args.noise)), seed=args.noise_seed)
    train_ds, test_ds, _ = make_blended_split(ds, noise, SplitSpec(n_train=n_train))

    method = canonical_method(args.method)
    config = EnsembleConfig(
        groups=args.groups, group_size=args.group_size,
        n_hidden=args.hidden, activation=args.activation,
        threshold1=args.threshold, seed=args.seed,
    )
    t0 = time.perf_counter()
    fitted = fit(method, train_ds.X, train_ds.y, config)
    wall = time.perf_counter() - t0
    pred = fitted.predict(test_ds.X)

    print(f"method: {method}")
    print(f"train rows: {train_ds.n_samples}  test rows: {test_ds.n_samples}  "
          f"features: {train_ds.n_features}")
    print(f"training time: {wall:.4f} s")
    if hasattr(fitted, "pool_size"):
        print(f"layer-1 pool size: {fitted.pool_size}")
        print(f"layer-2 survivors: {fitted.n_members}")
    elif hasattr(fitted, "n_members"):
        print(f"survivors: {fitted.n_members}")
    print(f"test MSE: {mse(pred, test_ds.y):.6g}")
    return EXIT_OK


def _cmd_bench(args):
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = load_experiment_config(args.config, overrides=overrides)
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
    print(f"master seed: {args.seed}")
    ds = _load_csv_dataset(args)
    noise = NoiseSpec(variances=parse_list(",".join(args.noise)), seed=args.seed)
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
    seed = args.seed if args.seed is not None else -1
    print(f"master seed: {seed if seed >= 0 else 'unknown (not stored in records)'}")
    methods = tuple(dict.fromkeys(r.method for r in records))
    dataset_ids = tuple(dict.fromkeys(r.dataset for r in records))
    noise_ids = tuple(dict.fromkeys(r.noise_id for r in records))
    report = ExperimentReport(
        records=tuple(records),
        cells=summarize_records(records),
        errors={},
        master_seed=seed,
        methods=methods,
        dataset_ids=dataset_ids,
        noise_ids=noise_ids,
    )
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
