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
    canonical_method,
    load_experiment_config,
    mse,
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
    apply_normalization,
    blend_noise,
    fit_normalization,
    load_csv,
    make_blended_split,
    save_csv,
    split,
)
from .elm import predict, train_elm, warm_up
from .recursive import EnsembleConfig, train_e_gasen, train_gasen_elm, train_rmse_elm, train_simple_ensemble
from .selective import DegenerateEnsembleError, GaConfig
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
    train.add_argument("--target-col", default="target",
                       help="target column name or 0-based index (CSV datasets)")
    train.add_argument("--no-header", action="store_true", help="CSV has no header row")
    train.add_argument("--method", default="elm",
                       help="elm | simple | gasen-elm | e-gasen | rmse-elm")
    train.add_argument("--groups", type=int, default=4)
    train.add_argument("--group-size", type=int, default=20)
    train.add_argument("--hidden", type=int, default=50)
    train.add_argument("--activation", default="sigmoid")
    train.add_argument("--lambda", dest="threshold", type=float, default=None,
                       help="selection threshold (default: reciprocal of the pool)")
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--noise", action="append", default=None,
                       help="comma-separated noise variances to blend in (repeatable)")
    train.add_argument("--noise-seed", type=int, default=0)
    train.add_argument("--n-train", type=int, default=None,
                       help="training rows (default: 75%% of the dataset)")
    train.add_argument("--jobs", type=int, default=1, help="accepted for symmetry; training is one run")

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


def _parse_variances(chunks):
    out = []
    for chunk in chunks:
        out.extend(float(tok) for tok in chunk.replace(",", " ").split())
    return tuple(out)


def _load_train_dataset(args):
    spec = args.dataset
    if spec.startswith("task:"):
        task = benchmark_task(spec.split(":", 1)[1], seed=args.seed)
        return task.dataset, task.split.n_train
    target = args.target_col
    if isinstance(target, str) and target.lstrip("-").isdigit():
        target = int(target)
    ds = load_csv(spec, target, has_header=not args.no_header)
    return ds, None


def _cmd_train(args):
    print(f"master seed: {args.seed}")
    ds, default_n_train = _load_train_dataset(args)
    n_train = args.n_train if args.n_train is not None else default_n_train
    if n_train is None:
        n_train = max(1, int(round(0.75 * ds.n_samples)))
    split_spec = SplitSpec(n_train=n_train)
    if args.noise:
        noise = NoiseSpec(variances=_parse_variances(args.noise), seed=args.noise_seed)
        train_ds, test_ds, _ = make_blended_split(ds, noise, split_spec)
    else:
        train_ds, test_ds = split(ds, split_spec)
        params = fit_normalization(train_ds)
        train_ds = apply_normalization(train_ds, params)
        test_ds = apply_normalization(test_ds, params)

    method = canonical_method(args.method)
    ga = GaConfig()
    warm_up(args.activation)
    t0 = time.perf_counter()
    if method == "ELM":
        fitted = train_elm(train_ds.X, train_ds.y, args.hidden, args.activation, seed=args.seed)
        pred = predict(fitted, test_ds.X)
        survivors = None
    else:
        if method == "SimpleEnsemble":
            fitted = train_simple_ensemble(
                train_ds.X, train_ds.y, args.groups * args.group_size,
                args.hidden, args.activation, seed=args.seed,
            )
        elif method == "GASEN-ELM":
            fitted = train_gasen_elm(
                train_ds.X, train_ds.y, n_learners=args.group_size,
                n_hidden=args.hidden, activation=args.activation,
                threshold=args.threshold, ga=ga, seed=args.seed,
            )
        else:
            cfg = EnsembleConfig(
                groups=args.groups, group_size=args.group_size,
                n_hidden=args.hidden, activation=args.activation,
                threshold1=args.threshold, ga=ga, seed=args.seed,
            )
            fitted = train_e_gasen(train_ds.X, train_ds.y, cfg) if method == "E-GASEN" \
                else train_rmse_elm(train_ds.X, train_ds.y, cfg)
        pred = fitted.predict(test_ds.X)
        survivors = fitted
    wall = time.perf_counter() - t0

    print(f"method: {method}")
    print(f"train rows: {train_ds.n_samples}  test rows: {test_ds.n_samples}  "
          f"features: {train_ds.n_features}")
    print(f"training time: {wall:.4f} s")
    if survivors is not None:
        if hasattr(survivors, "pool_size"):
            print(f"layer-1 pool size: {survivors.pool_size}")
            print(f"layer-2 survivors: {survivors.n_members}")
        else:
            print(f"survivors: {survivors.n_members}")
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
    target = args.target_col
    if isinstance(target, str) and target.lstrip("-").isdigit():
        target = int(target)
    ds = load_csv(args.dataset, target, has_header=not args.no_header)
    noise = NoiseSpec(variances=_parse_variances(args.noise), seed=args.seed)
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
