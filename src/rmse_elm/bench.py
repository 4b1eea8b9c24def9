"""Experiment harness: methods x datasets x noise specs x repeated runs.

Each (dataset, noise) is blended once into a train/test split, on which
every method retrains `runs` times, recording test MSE and training wall
time. Every method of a run draws each hidden layer as member_seed(run
seed, group, index), one seed per (dataset, noise, run): ELM draws
layer-1 member (0, 0) of the nested GASEN-ELM, E-GASEN and RMSE-ELM (see
`recursive`), which share one fit per run, each charged the stages it
uses, and share each member's test prediction within the run: every pool
member is predicted once, though each method still makes its own
ensemble predict call. Reports aggregate to mean MSE, its std across
runs, mean cost, and comparisons against the recursive model.
"""

import configparser
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (DataError, NoiseSpec, SplitSpec, _check_blended_split, _csv_rows, _write_csv,
                   load_csv, make_blended_split)
from .elm import predict, train_elm
from .recursive import (
    EnsembleConfig,
    layer1_reading,
    member_seed,
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
    "ELM": ((), lambda X, y, c: train_elm(
        X, y, c.n_hidden, c.activation, seed=member_seed(c.seed, 0, 0))),
    "SimpleEnsemble": (("simple", "simple-ensemble"), lambda X, y, c: train_simple_ensemble(
        X, y, c.groups * c.group_size, c.n_hidden, c.activation, seed=c.seed)),
    "GASEN-ELM": (("gasen",), lambda X, y, c: train_gasen_elm(X, y, c)),
    "E-GASEN": ((), lambda X, y, c: train_e_gasen(X, y, c)),
    "RMSE-ELM": (("rmse",), lambda X, y, c: train_rmse_elm(X, y, c)),
}
METHODS = tuple(_METHOD_TABLE)
# the nested methods, narrowest first: at one seed each one's fit is a prefix
# of the next one's, so `bench` reads the narrower ones from the widest's fit
_NESTED = ("GASEN-ELM", "E-GASEN", "RMSE-ELM")
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
    master_seed: int

    def __post_init__(self):
        if self.method not in METHODS:  # `bench` writes canonical names only
            raise ValueError(f"method {self.method!r} is not one of {METHODS}")
        for name in ("run_index", "seed", "master_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not (np.isfinite(self.test_mse) and self.test_mse >= 0.0):
            raise ValueError("test_mse must be finite and nonnegative")
        if not (np.isfinite(self.wall_time_s) and self.wall_time_s >= 0.0):
            raise ValueError("wall_time_s must be finite and nonnegative")


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
    master_seeds: tuple  # the distinct master seeds of its runs, ascending
    methods: tuple
    dataset_ids: tuple
    noise_ids: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs, with datasets already loaded."""

    datasets: dict  # id -> (Dataset, SplitSpec), or (DataError, None) if it failed to load
    noise_specs: dict  # id -> NoiseSpec; NoiseSpec(()) is the clean column
    methods: tuple = ("ELM", "RMSE-ELM")
    runs: int = 5
    master_seed: int = 0
    # the settings of every method; ensemble.seed is replaced by each run's derived seed
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    jobs: int = 1
    out_dir: str = "reports"

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if not (isinstance(self.master_seed, (int, np.integer)) and self.master_seed >= 0):
            raise ValueError("master seed must be a non-negative integer")
        methods = tuple(canonical_method(m) for m in self.methods)
        if not methods:  # its tables would have no method column
            raise ValueError("methods must name at least one method")
        twice = [m for i, m in enumerate(methods) if m in methods[:i]]
        if twice:  # its cells would run twice and fold into one cell of repeated runs
            raise ValueError(f"methods lists {twice[0]} twice")
        object.__setattr__(self, "methods", methods)


def _run_seed(master_seed, dataset_id, noise_id, run_index):
    # keyed by RMSE-ELM: the stream its runs have always used, on which every method trains
    key = zlib.crc32(f"{dataset_id}|{noise_id}|RMSE-ELM".encode())
    ss = np.random.SeedSequence(master_seed, spawn_key=(key, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _fit_unit(methods, X, y, config):
    """[(method, fitted, wall seconds)] for a unit's methods, from one training call.

    The last, widest method trains through its `bench` name; the narrower
    ones are read from its pool, narrowest first, and each reading redraws
    only the layers of its members that are still dropped. Each method is
    charged the stages it uses: GASEN-ELM the fit's group 0, E-GASEN its
    layer 1 and its redraw (of RMSE-ELM's members, all in the pool), each
    plus the readings taken so far, and the widest its whole call and
    every reading. So the charges never fall from narrowest to widest.
    """
    t0 = time.perf_counter()
    widest = fit(methods[-1], X, y, config)
    call_s = time.perf_counter() - t0
    fitted, wall, read_s = {}, {}, 0.0
    for method in methods[:-1]:
        t0 = time.perf_counter()
        one_group = method == "GASEN-ELM"
        fitted[method] = layer1_reading(widest, X, config, groups=1 if one_group else None)
        read_s += time.perf_counter() - t0
        stages = widest.stage_s
        used = stages["groups"][:1] if one_group else stages["groups"] + (stages["redraw"],)
        wall[method] = sum(used) + read_s
    fitted[methods[-1]], wall[methods[-1]] = widest, call_s + read_s
    return [(m, fitted[m], wall[m]) for m in methods]


def _run_unit(cfg, dataset_id, noise_id, methods, train, test):
    """{method: its records, in run order} for a unit's methods on one split."""
    records = {method: [] for method in methods}
    for run in range(cfg.runs):
        seed = _run_seed(cfg.master_seed, dataset_id, noise_id, run)
        run_config = replace(cfg.ensemble, seed=seed)
        # the nested methods' readings share the fit's models: each member's
        # test prediction is made once per run, and freed with the run
        memo = {} if len(methods) > 1 else None
        for method, fitted, wall in _fit_unit(methods, train.X, train.y, run_config):
            pred = (fitted.predict(test.X, memo=memo) if hasattr(fitted, "members")
                    else predict(fitted, test.X))
            records[method].append(RunRecord(
                method=method, dataset=dataset_id, noise_id=noise_id, run_index=run,
                test_mse=mse(pred, test.y), wall_time_s=wall, seed=seed,
                master_seed=cfg.master_seed))
    return records


def _run_task(args):
    """One (dataset, noise)'s records, in method-then-run order, and
    {method: message} of its failed cells.

    It blends the split once, then runs each unit on it: one method, or
    the listed nested methods together where the first is listed. A unit
    that fails keeps none of its records; a failed load or split fails all.
    """
    cfg, dataset_id, noise_id = args
    ds, split_spec = cfg.datasets[dataset_id]
    if isinstance(ds, DataError):
        return [], dict.fromkeys(cfg.methods, f"dataset load failed: {ds}")
    try:
        train, test, _ = make_blended_split(ds, cfg.noise_specs[noise_id], split_spec)
    except Exception as exc:  # a failed split must not sink the matrix
        return [], dict.fromkeys(cfg.methods, f"{type(exc).__name__}: {exc}")
    nested = tuple(m for m in _NESTED if m in cfg.methods)
    records, failed = {}, {}
    for unit in dict.fromkeys(nested if m in _NESTED else (m,) for m in cfg.methods):
        try:
            records.update(_run_unit(cfg, dataset_id, noise_id, unit, train, test))
        except Exception as exc:  # a failed unit fails only its own cells
            failed.update(dict.fromkeys(unit, f"{type(exc).__name__}: {exc}"))
    return [rec for method in cfg.methods for rec in records.get(method, ())], failed


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


def make_report(records, keys, errors, master_seeds):
    """The one ExperimentReport of `records`, which `bench` writes and `report` rebuilds.

    Cells come from summarize_records, and the summary names `master_seeds`.
    The tables' datasets, noise ids and methods are those of `keys`,
    (dataset, noise_id, method) triples, in order of first appearance.
    """
    return ExperimentReport(
        records=tuple(records),
        cells=summarize_records(records),
        errors=errors,
        master_seeds=tuple(master_seeds),
        methods=tuple(dict.fromkeys(method for _, _, method in keys)),
        dataset_ids=tuple(dict.fromkeys(ds_id for ds_id, _, _ in keys)),
        noise_ids=tuple(dict.fromkeys(noise_id for _, noise_id, _ in keys)),
    )


def run_experiment(cfg):
    """Execute the full matrix and aggregate a report.

    Work runs in tasks of one (dataset, noise), in `jobs` processes when
    jobs > 1. A task blends its split once and runs each method on it;
    the nested methods listed share one fit per run (see `_run_task`).
    Results do not depend on parallelism: every method of a run trains
    on its one seed, derived from (master seed, dataset, noise, run), and
    records keep matrix order: dataset, noise, method, run, as configured.
    A failure records its error for each cell it fails without aborting the rest.
    """
    keys = [
        (ds_id, noise_id, method)
        for ds_id in cfg.datasets
        for noise_id in cfg.noise_specs
        for method in cfg.methods
    ]
    tasks = [(cfg, ds_id, noise_id) for ds_id in cfg.datasets for noise_id in cfg.noise_specs]
    if cfg.jobs > 1 and len(tasks) > 1:
        # imported here: concurrent.futures.process costs ~15 ms and 1.3 MB at import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]

    failed = {(ds_id, noise_id, method): err
              for (_, ds_id, noise_id), (_, errs) in zip(tasks, results)
              for method, err in errs.items()}
    records = [rec for recs, _ in results for rec in recs]
    errors = {key: failed[key] for key in keys if key in failed}
    return make_report(records, keys, errors, (cfg.master_seed,))


# ---------------------------------------------------------------- reports

# the run-record columns, in order, each with the type that parses its text
_RECORD_COLUMNS = tuple((f.name, f.type) for f in fields(RunRecord))
_RECORD_FIELDS = tuple(name for name, _ in _RECORD_COLUMNS)


def write_records(records, path):
    # a float is written as its repr, which reads back to the same float
    rows = ([getattr(r, name) for name in _RECORD_FIELDS] for r in records)
    return _write_csv(path, [_RECORD_FIELDS, *rows])


def read_records(path):
    path = Path(path)
    rows = _csv_rows(path, ValueError)
    _, header = next(rows, (None, None))
    if header != list(_RECORD_FIELDS):
        raise ValueError(f"{path}: not a run-record file")
    out = []
    for line, row in rows:
        where = f"{path}, line {line}"
        if len(row) != len(_RECORD_FIELDS):
            raise ValueError(f"{where}: expected {len(_RECORD_FIELDS)} fields, got {len(row)}")
        try:
            parsed = (parse(text) for (_, parse), text in zip(_RECORD_COLUMNS, row))
            out.append(RunRecord(*parsed))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out


def _table(report, metric, ours=None):
    """A row per (dataset, noise) and a column per method: each cell's `metric`,
    or with `ours` given, each other method's comparison_pct against `ours`,
    empty where either side is missing or not finite, or the other is not positive."""
    others = [m for m in report.methods if m != ours]
    lines = [["dataset", "noise"] + others]
    for ds_id in report.dataset_ids:
        for noise_id in report.noise_ids:
            value = {m: getattr(report.cells[m, ds_id, noise_id], metric)
                     for m in report.methods if (m, ds_id, noise_id) in report.cells}
            row = [ds_id, noise_id]
            for method in others:
                v, base = value.get(method), value.get(ours)
                if ours is None:
                    row.append("" if v is None else repr(v))
                elif v is not None and base is not None and np.isfinite([v, base]).all() and v > 0:
                    row.append(f"{comparison_pct(v, base):.4f}")
                else:
                    row.append("")
            lines.append(row)
    return lines


def write_report(report, out_dir):
    """Persist run records, per-metric tables, comparisons and a summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(report.records, out / "runrecords.csv")
    _write_csv(out / "mse.csv", _table(report, "mean_mse"))
    _write_csv(out / "std.csv", _table(report, "std_mse"))
    _write_csv(out / "cc.csv", _table(report, "mean_cc_s"))
    if "RMSE-ELM" in report.methods:
        _write_csv(out / "mse_comparison.csv", _table(report, "mean_mse", ours="RMSE-ELM"))
        _write_csv(out / "std_comparison.csv", _table(report, "std_mse", ours="RMSE-ELM"))

    lines = [
        "benchmark summary",
        f"master seed: {', '.join(map(str, report.master_seeds))}",
        f"methods: {', '.join(report.methods)}",
    ]
    shared = [m for m in report.methods if m in _NESTED]
    if len(shared) > 1:
        lines.append(f"CC is attributed: {', '.join(shared)} share one fit per run, "
                     "and each is charged the stages of it that it uses")
    lines.append("")
    for ds_id in report.dataset_ids:
        for noise_id in report.noise_ids:
            lines.append(f"[{ds_id} / {noise_id}]")
            for method in report.methods:
                # every listed cell has runs or a failure
                err = report.errors.get((ds_id, noise_id, method))
                if err is not None:
                    lines.append(f"  {method:>15}: FAILED ({err})")
                else:
                    stats = report.cells[method, ds_id, noise_id]
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
    (out / "summary.txt").write_text("\n".join(lines), encoding="utf-8")
    return out


# ---------------------------------------------------------------- config files

def parse_list(text, item=float):
    """Parse each entry of a comma- or space-separated list, e.g. '2, 1 0.5'."""
    return tuple(item(tok) for tok in text.replace(",", " ").split())


def parse_column(text):
    """A CSV column as given by a user: a 0-based index, or else a header name."""
    return int(text) if text.lstrip("-").isdigit() else text


def _threshold(text):
    return float(text) if text.strip() else None  # empty keeps the reciprocal-size rule


# section -> {INI key: (keyword, parser)}; "noise:" and "dataset:" stand for
# every [noise:<id>] and [dataset:<id>]. A key the file leaves out is left out
# of the call its section builds, so every default is the one declared there.
_CONFIG_KEYS = {
    "experiment": {  # -> ExperimentConfig; data_dir -> benchmark_task
        "methods": ("methods", lambda text: parse_list(text, str)),
        "runs": ("runs", int),
        "seed": ("master_seed", int),
        "jobs": ("jobs", int),
        "out_dir": ("out_dir", str),
        "data_dir": ("data_dir", str),
    },
    "ensemble": {  # -> EnsembleConfig
        "groups": ("groups", int),
        "group_size": ("group_size", int),
        "hidden": ("n_hidden", int),
        "activation": ("activation", str),
        "lambda1": ("threshold1", _threshold),
        "lambda2": ("threshold2", _threshold),
        "validation_fraction": ("validation_fraction", float),
    },
    "ga": {  # -> GaConfig
        "population": ("population_size", int),
        "generations": ("generations", int),
        "crossover": ("crossover_prob", float),
        "mutation": ("mutation_prob", float),
        "mutation_scale": ("mutation_scale", float),
        "elitism": ("elitism_count", int),
    },
    "noise:": {"variances": ("variances", parse_list), "seed": ("seed", int)},  # -> NoiseSpec
    "dataset:": {  # task and seed -> benchmark_task, or path and target -> load_csv
        "task": ("task", str),
        "seed": ("seed", int),
        "path": ("path", str),
        "target": ("target", parse_column),
        "n_train": ("n_train", int),
    },
}


def _read_section(path, section, values):
    """Parse one section's keys into {keyword: value}, naming the key that fails."""
    kind, colon, ident = section.partition(":")
    kind += colon
    if kind not in _CONFIG_KEYS:
        raise ValueError(f"{path}: unknown section [{section}]")
    if colon and not ident.strip():  # its label would be blank in every table
        raise ValueError(f"{path}: [{section}] needs an id, as in [{kind}<id>]")
    table = _CONFIG_KEYS[kind]
    unknown = [key for key in values if key not in table]
    if unknown:
        raise ValueError(f"{path}: [{section}] has unknown keys: {', '.join(unknown)}")
    out = {}
    for key, text in values.items():
        keyword, parse = table[key]
        try:
            out[keyword] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {key} = {text!r}: {exc}") from None
    return out


def _build(path, section, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError's message naming the file and section."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}] {exc}") from None


def load_experiment_config(path):
    """Build an ExperimentConfig from a plain-text INI file.

    `_CONFIG_KEYS` lists each section's keys with the field or argument
    each one sets: [experiment], [ensemble] and [ga], one [noise:<id>]
    per noise spec and one [dataset:<id>] per dataset. A dataset is
    either a built-in `task` (housing, abalone, redwine, waveform; real
    files in data_dir take precedence) with its generator `seed`, or a
    CSV `path` with its `target` column; `n_train` sets the split and
    is required for a `path`. A relative `data_dir` or `path` is taken
    from the config file's directory. A key left out keeps the default
    of the dataclass or function it feeds.

    An unknown section or key fails the load, so a misspelt or retired
    setting cannot quietly fall back to its default; so does a `path` or
    `target` next to a `task`, a `seed` next to a `path`, a [dataset:]
    or [noise:] with no id, and a value that does not parse, naming its
    file, section and key. The [ensemble] and [ga] keys build the one
    EnsembleConfig every method reads, which validates them here, and an
    `n_train` that breaks the blended split's rule, [2, rows - 1], fails
    too: a bad setting fails the load, not every cell. A value that the
    config it feeds rejects (`runs = 0`, `lambda1 = 2`, `methods =`)
    fails with that config's message, prefixed with the file and section.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    # no interpolation: a "%" in a path is a literal character
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as f:
            cp.read_file(f, source=path.name)
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    sections = {section: _read_section(path, section, dict(cp[section]))
                for section in cp.sections()}
    if "experiment" not in sections:
        raise ValueError(f"{path}: missing [experiment] section")
    exp = sections["experiment"]
    data_dir = {"data_dir": path.parent / exp.pop("data_dir")} if "data_dir" in exp else {}
    ga = _build(path, "ga", GaConfig, **sections.get("ga", {}))
    ensemble = _build(path, "ensemble", EnsembleConfig, **sections.get("ensemble", {}), ga=ga)

    noise_specs = {}
    datasets = {}
    for section, values in sections.items():
        kind, _, ident = section.partition(":")
        if kind == "noise":
            if "variances" not in values:
                raise ValueError(f"{path}: [{section}] needs variances")
            noise_specs[ident] = _build(path, section, NoiseSpec, **values)
        elif kind == "dataset":
            if "task" not in values and "path" not in values:
                raise ValueError(f"{path}: [{section}] needs task or path")
            if "task" not in values and "n_train" not in values:
                raise ValueError(f"{path}: [{section}] needs n_train")
            source = "task" if "task" in values else "path"
            other = ("path", "target") if source == "task" else ("seed",)
            stray = ", ".join(key for key in other if key in values)
            if stray:
                raise ValueError(f"{path}: [{section}] {stray} cannot be set with {source}")
            try:
                if "task" in values:
                    seed = {"seed": values["seed"]} if "seed" in values else {}
                    task = _build(path, section, benchmark_task, values["task"], **data_dir, **seed)
                    ds = task.dataset
                    n_train = values.get("n_train", task.split.n_train)
                else:
                    ds = load_csv(path.parent / values["path"], values.get("target", "target"),
                                  name=ident)
                    n_train = values["n_train"]
            except DataError as exc:
                # a broken dataset loses its cells, not the whole matrix (a copy: no traceback)
                datasets[ident] = (DataError(str(exc)), None)
                continue
            _build(path, section, _check_blended_split, ds, n_train)
            datasets[ident] = (ds, SplitSpec(n_train=n_train))

    if not datasets:
        raise ValueError(f"{path}: no [dataset:<id>] sections")
    if not noise_specs:
        raise ValueError(f"{path}: no [noise:<id>] sections")
    return _build(
        path, "experiment", ExperimentConfig,
        datasets=datasets,
        noise_specs=noise_specs,
        ensemble=ensemble,
        **exp,
    )
