"""Experiment harness: methods x datasets x noise specs x repeated runs.

Each cell of the matrix retrains its method `runs` times with derived
seeds on a fixed blended train/test split and records test MSE plus the
training wall time. Reports aggregate to mean MSE, the std of MSE across
runs, mean cost, and percentage comparisons against the recursive model.
"""

import configparser
import csv
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import DataError, NoiseSpec, SplitSpec, load_csv, make_blended_split
from .elm import predict, train_elm
from .recursive import (
    EnsembleConfig,
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
from .selective import GaConfig
from .synth import benchmark_task

# canonical method name -> (extra spellings, trainer): five readings of one
# EnsembleConfig. Each trainer looks its function up in this module when
# called, so a wrapper put under e.g. `bench.train_elm` sees every cell's call.
_METHOD_TABLE = {
    "ELM": ((), lambda X, y, c: train_elm(X, y, c.n_hidden, c.activation, seed=c.seed)),
    "SimpleEnsemble": (("simple", "simple-ensemble"), lambda X, y, c: train_simple_ensemble(
        X, y, c.groups * c.group_size, c.n_hidden, c.activation, seed=c.seed)),
    "GASEN-ELM": (("gasen",), lambda X, y, c: train_gasen_elm(X, y, c)),
    "E-GASEN": ((), lambda X, y, c: train_e_gasen(X, y, c)),
    "RMSE-ELM": (("rmse",), lambda X, y, c: train_rmse_elm(X, y, c)),
}
METHODS = tuple(_METHOD_TABLE)
# any case, with or without hyphens, plus each method's extra spellings
_METHOD_ALIASES = {
    alias: name
    for name, (extra, _) in _METHOD_TABLE.items()
    for alias in (name.lower(), name.lower().replace("-", "")) + extra
}


def canonical_method(name):
    key = str(name).strip().lower()
    if key not in _METHOD_ALIASES:
        raise ValueError(f"unknown method {name!r}; choose from {METHODS}")
    return _METHOD_ALIASES[key]


def fit(method, X, y, config):
    """Train `method` on (X, y) with the settings of one EnsembleConfig."""
    return _METHOD_TABLE[canonical_method(method)][1](X, y, config)


def mse(pred, target):
    """Mean squared error between two equal-length vectors."""
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(target, dtype=float).ravel()
    if p.size != t.size or p.size < 1:
        raise ValueError("pred and target must be non-empty and equally long")
    return float(np.mean((p - t) ** 2))


def std_over_runs(values):
    """Sample standard deviation (n-1 denominator) across repeated runs."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise ValueError("std needs at least two values")
    return float(np.std(v, ddof=1))


def comparison_pct(other, ours):
    """(other - ours) / other * 100; positive means `ours` is lower."""
    other = float(other)
    if other <= 0.0:
        raise ValueError("comparison baseline must be positive")
    return (other - float(ours)) / other * 100.0


@dataclass(frozen=True)
class RunRecord:
    method: str
    dataset: str
    noise_id: str
    run_index: int
    test_mse: float
    wall_time_s: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.test_mse) and self.test_mse >= 0.0):
            raise ValueError("test_mse must be finite and nonnegative")
        if self.wall_time_s < 0.0:
            raise ValueError("wall_time_s must be nonnegative")


@dataclass(frozen=True)
class CellStats:
    mean_mse: float
    std_mse: float  # nan when fewer than two runs
    mean_cc_s: float
    n_runs: int


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple
    cells: dict  # (method, dataset, noise_id) -> CellStats
    errors: dict  # (method, dataset, noise_id) -> message
    master_seed: int
    methods: tuple
    dataset_ids: tuple
    noise_ids: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs, with datasets already loaded."""

    datasets: dict  # id -> (Dataset, SplitSpec)
    noise_specs: dict  # id -> NoiseSpec
    methods: tuple = METHODS
    runs: int = 5
    master_seed: int = 0
    # the settings of every method; ensemble.seed is replaced by each run's derived seed
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    jobs: int = 1
    out_dir: str | None = None
    dataset_errors: dict = field(default_factory=dict)  # id -> load failure message

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        object.__setattr__(self, "methods", tuple(canonical_method(m) for m in self.methods))


def _run_seed(master_seed, dataset_id, noise_id, method, run_index):
    key = zlib.crc32(f"{dataset_id}|{noise_id}|{method}".encode())
    ss = np.random.SeedSequence(master_seed, spawn_key=(key, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _predict_fitted(fitted, X):
    if hasattr(fitted, "members"):
        return fitted.predict(X)
    return predict(fitted, X)


def _run_cell(cfg, dataset_id, noise_id, method):
    ds, split_spec = cfg.datasets[dataset_id]
    train, test, _ = make_blended_split(ds, cfg.noise_specs[noise_id], split_spec)
    records = []
    for run in range(cfg.runs):
        seed = _run_seed(cfg.master_seed, dataset_id, noise_id, method, run)
        run_config = replace(cfg.ensemble, seed=seed)
        t0 = time.perf_counter()
        fitted = fit(method, train.X, train.y, run_config)
        wall = time.perf_counter() - t0
        pred = _predict_fitted(fitted, test.X)
        records.append(
            RunRecord(
                method=method,
                dataset=dataset_id,
                noise_id=noise_id,
                run_index=run,
                test_mse=mse(pred, test.y),
                wall_time_s=wall,
                seed=seed,
            )
        )
    return records


def _cell_task(args):
    cfg, dataset_id, noise_id, method = args
    try:
        return (dataset_id, noise_id, method), _run_cell(cfg, dataset_id, noise_id, method), None
    except Exception as exc:  # a failed cell must not sink the matrix
        return (dataset_id, noise_id, method), [], f"{type(exc).__name__}: {exc}"


def summarize_records(records):
    """Pure fold of run records into per-cell statistics."""
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.method, rec.dataset, rec.noise_id), []).append(rec)
    cells = {}
    for key, recs in by_cell.items():
        recs = sorted(recs, key=lambda r: r.run_index)
        mses = [r.test_mse for r in recs]
        cells[key] = CellStats(
            mean_mse=float(np.mean(mses)),
            std_mse=std_over_runs(mses) if len(mses) >= 2 else float("nan"),
            mean_cc_s=float(np.mean([r.wall_time_s for r in recs])),
            n_runs=len(recs),
        )
    return cells


def run_experiment(cfg):
    """Execute the full matrix and aggregate a report.

    Cells run independently (in `jobs` processes when jobs > 1); results
    are identical regardless of parallelism because every run's seed is
    derived from (master seed, dataset, noise, method, run). A failing
    cell is recorded as an error without aborting the rest.
    """
    tasks = [
        (cfg, ds_id, noise_id, method)
        for ds_id in cfg.datasets
        for noise_id in cfg.noise_specs
        for method in cfg.methods
    ]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_cell_task, tasks))
    else:
        results = [_cell_task(t) for t in tasks]

    records = []
    errors = {}
    for key, recs, err in results:
        records.extend(recs)
        if err is not None:
            errors[key] = err
    for ds_id, message in cfg.dataset_errors.items():
        for noise_id in cfg.noise_specs:
            for method in cfg.methods:
                errors[(ds_id, noise_id, method)] = f"dataset load failed: {message}"
    records.sort(key=lambda r: (r.dataset, r.noise_id, r.method, r.run_index))
    return ExperimentReport(
        records=tuple(records),
        cells=summarize_records(records),
        errors=errors,
        master_seed=cfg.master_seed,
        methods=tuple(cfg.methods),
        dataset_ids=tuple(cfg.datasets) + tuple(cfg.dataset_errors),
        noise_ids=tuple(cfg.noise_specs),
    )


# ---------------------------------------------------------------- reports

_RECORD_FIELDS = ("method", "dataset", "noise_id", "run_index", "test_mse", "wall_time_s", "seed")


def write_records(records, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for r in records:
            writer.writerow(
                [r.method, r.dataset, r.noise_id, r.run_index,
                 repr(r.test_mse), repr(r.wall_time_s), r.seed]
            )
    return path


def read_records(path):
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(_RECORD_FIELDS):
            raise ValueError(f"{path}: not a run-record file")
        out = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(_RECORD_FIELDS):
                raise ValueError(f"{where}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}")
            method, dataset, noise_id, run_index, test_mse, wall_time_s, seed = row
            try:
                out.append(RunRecord(method, dataset, noise_id, int(run_index), float(test_mse),
                                     float(wall_time_s), int(seed)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return out


def _metric_table(report, metric):
    lines = [["dataset", "noise"] + list(report.methods)]
    for ds_id in report.dataset_ids:
        for noise_id in report.noise_ids:
            row = [ds_id, noise_id]
            for method in report.methods:
                stats = report.cells.get((method, ds_id, noise_id))
                row.append("" if stats is None else repr(getattr(stats, metric)))
            lines.append(row)
    return lines


def _comparison_table(report, metric, ours="RMSE-ELM"):
    others = [m for m in report.methods if m != ours]
    lines = [["dataset", "noise"] + others]
    for ds_id in report.dataset_ids:
        for noise_id in report.noise_ids:
            our_stats = report.cells.get((ours, ds_id, noise_id))
            row = [ds_id, noise_id]
            for method in others:
                stats = report.cells.get((method, ds_id, noise_id))
                value = ""
                if stats is not None and our_stats is not None:
                    other_val = getattr(stats, metric)
                    our_val = getattr(our_stats, metric)
                    if np.isfinite(other_val) and np.isfinite(our_val) and other_val > 0:
                        value = f"{comparison_pct(other_val, our_val):.4f}"
                row.append(value)
            lines.append(row)
    return lines


def _write_table(lines, path):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)


def write_report(report, out_dir):
    """Persist run records, per-metric tables, comparisons and a summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(report.records, out / "runrecords.csv")
    _write_table(_metric_table(report, "mean_mse"), out / "mse.csv")
    _write_table(_metric_table(report, "std_mse"), out / "std.csv")
    _write_table(_metric_table(report, "mean_cc_s"), out / "cc.csv")
    if "RMSE-ELM" in report.methods:
        _write_table(_comparison_table(report, "mean_mse"), out / "mse_comparison.csv")
        _write_table(_comparison_table(report, "std_mse"), out / "std_comparison.csv")

    lines = [
        "benchmark summary",
        f"master seed: {report.master_seed}",
        f"methods: {', '.join(report.methods)}",
        "",
    ]
    for ds_id in report.dataset_ids:
        for noise_id in report.noise_ids:
            lines.append(f"[{ds_id} / {noise_id}]")
            for method in report.methods:
                stats = report.cells.get((method, ds_id, noise_id))
                err = report.errors.get((ds_id, noise_id, method))
                if err is not None:
                    lines.append(f"  {method:>15}: FAILED ({err})")
                elif stats is None:
                    lines.append(f"  {method:>15}: (no runs)")
                else:
                    std_txt = (
                        f"{stats.std_mse:.6g}"
                        if np.isfinite(stats.std_mse)
                        else "undefined (single run)"
                    )
                    lines.append(
                        f"  {method:>15}: MSE {stats.mean_mse:.6g}  STD {std_txt}  "
                        f"CC {stats.mean_cc_s:.4g}s  ({stats.n_runs} runs)"
                    )
            lines.append("")
    (out / "summary.txt").write_text("\n".join(lines))
    return out


# ---------------------------------------------------------------- config files

def _parse_float_list(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_categorical(text):
    # "Sex: M=1, F=-1, I=0" (multiple columns separated by ';')
    out = {}
    for block in text.split(";"):
        block = block.strip()
        if not block:
            continue
        col, _, pairs = block.partition(":")
        mapping = {}
        for pair in pairs.replace(",", " ").split():
            key, _, value = pair.partition("=")
            mapping[key.strip()] = float(value)
        out[col.strip()] = mapping
    return out


# every key load_experiment_config reads, per section; "noise:" and
# "dataset:" stand for every [noise:<id>] and [dataset:<id>]
_CONFIG_KEYS = {
    "experiment": {"methods", "runs", "seed", "jobs", "out_dir", "data_dir"},
    "ensemble": {"groups", "group_size", "hidden", "activation", "lambda1", "lambda2",
                 "validation_fraction"},
    "ga": {"population", "generations", "crossover", "mutation", "mutation_scale", "elitism"},
    "noise:": {"variances", "seed"},
    "dataset:": {"task", "seed", "n_train", "shuffle_seed", "path", "target", "has_header",
                 "categorical"},
}


def load_experiment_config(path, overrides=None):
    """Build an ExperimentConfig from a plain-text INI file.

    Sections and the keys each may hold (see `_CONFIG_KEYS`):
    - [experiment]: methods, runs, seed, jobs, out_dir, data_dir;
    - [ensemble]: groups, group_size, hidden, activation, lambda1,
      lambda2, validation_fraction;
    - [ga]: population, generations, crossover, mutation,
      mutation_scale, elitism;
    - one [noise:<id>] per noise spec: variances, seed;
    - one [dataset:<id>] per dataset: either a built-in `task` (housing,
      abalone, redwine, waveform; real files in data_dir take
      precedence) with its generator `seed`, or a `path` with `target`
      column, `has_header` and an optional `categorical` encoding; plus
      `n_train` and `shuffle_seed` for the split.

    An unknown section or key fails the load, so a misspelt or retired
    setting cannot quietly fall back to its default. The [ensemble] and
    [ga] keys map onto the one EnsembleConfig every method reads, which
    validates them here, and an `n_train` outside [1, rows - 1] fails
    too: a bad setting fails the load, not every cell. `overrides` may
    replace runs, seed, jobs, out_dir.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path)
    for section in cp.sections():
        kind = section.split(":")[0] + ":" if ":" in section else section
        if kind not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]")
        unknown = [key for key in cp[section] if key not in _CONFIG_KEYS[kind]]
        if unknown:
            raise ValueError(f"{path}: [{section}] has unknown keys: {', '.join(unknown)}")
    if "experiment" not in cp:
        raise ValueError(f"{path}: missing [experiment] section")
    exp = cp["experiment"]

    ens = cp["ensemble"] if "ensemble" in cp else {}
    ga = cp["ga"] if "ga" in cp else {}
    thr1 = ens.get("lambda1", "").strip()
    thr2 = ens.get("lambda2", "").strip()
    ensemble = EnsembleConfig(
        groups=int(ens.get("groups", 4)),
        group_size=int(ens.get("group_size", 20)),
        n_hidden=int(ens.get("hidden", 50)),
        activation=ens.get("activation", "sigmoid"),
        threshold1=float(thr1) if thr1 else None,
        threshold2=float(thr2) if thr2 else None,
        ga=GaConfig(
            population_size=int(ga.get("population", 50)),
            generations=int(ga.get("generations", 100)),
            crossover_prob=float(ga.get("crossover", 0.8)),
            mutation_prob=float(ga.get("mutation", 0.1)),
            mutation_scale=float(ga.get("mutation_scale", 0.1)),
            elitism_count=int(ga.get("elitism", 2)),
        ),
        validation_fraction=float(ens.get("validation_fraction", 0.0)),
    )

    noise_specs = {}
    datasets = {}
    dataset_errors = {}
    data_dir = exp.get("data_dir", "data")
    for section in cp.sections():
        if section.startswith("noise:"):
            sec = cp[section]
            noise_specs[section.split(":", 1)[1]] = NoiseSpec(
                variances=_parse_float_list(sec["variances"]),
                seed=int(sec.get("seed", 0)),
            )
        elif section.startswith("dataset:"):
            sec = cp[section]
            ds_id = section.split(":", 1)[1]
            shuffle = sec.get("shuffle_seed", "none").strip().lower()
            shuffle_seed = None if shuffle == "none" else int(shuffle)
            try:
                if "task" in sec:
                    task = benchmark_task(
                        sec["task"], data_dir=data_dir, seed=int(sec.get("seed", 0))
                    )
                    ds = task.dataset
                    n_train = int(sec.get("n_train", task.split.n_train))
                else:
                    target = sec.get("target", "target")
                    if target.lstrip("-").isdigit():
                        target = int(target)
                    categorical = (
                        _parse_categorical(sec["categorical"]) if "categorical" in sec else None
                    )
                    ds = load_csv(
                        sec["path"],
                        target,
                        has_header=sec.getboolean("has_header", True),
                        categorical=categorical,
                        name=ds_id,
                    )
                    if "n_train" not in sec:
                        raise ValueError(f"{path}: [dataset:{ds_id}] needs n_train")
                    n_train = int(sec["n_train"])
            except DataError as exc:
                # a broken dataset loses its cells, not the whole matrix
                dataset_errors[ds_id] = str(exc)
                continue
            if not 1 <= n_train < ds.n_samples:
                raise ValueError(
                    f"{path}: [dataset:{ds_id}] n_train must be in "
                    f"[1, {ds.n_samples - 1}], got {n_train}"
                )
            datasets[ds_id] = (ds, SplitSpec(n_train=n_train, shuffle_seed=shuffle_seed))

    if not datasets and not dataset_errors:
        raise ValueError(f"{path}: no [dataset:<id>] sections")
    if not noise_specs:
        raise ValueError(f"{path}: no [noise:<id>] sections")

    overrides = overrides or {}
    return ExperimentConfig(
        datasets=datasets,
        noise_specs=noise_specs,
        methods=tuple(exp.get("methods", "elm,rmse").replace(",", " ").split()),
        runs=int(overrides.get("runs", exp.get("runs", 5))),
        master_seed=int(overrides.get("seed", exp.get("seed", 0))),
        ensemble=ensemble,
        jobs=int(overrides.get("jobs", exp.get("jobs", 1))),
        out_dir=str(overrides.get("out_dir", exp.get("out_dir", "reports"))),
        dataset_errors=dataset_errors,
    )
