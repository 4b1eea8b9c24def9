"""Dataset loading, normalization, noise blending and splitting.

"Blended" data is a regression table augmented with irrelevant Gaussian
noise columns of prescribed variances, used to stress-test robustness.
Every operation here is deterministic given its seeds, so a (file,
noise spec, split spec) triple pins the train/test matrices exactly.
"""

import csv
import math
from array import array
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised when a dataset file cannot be parsed or is inconsistent."""


def _csv_rows(path, error):
    """(line number, row) for each row of the CSV file `path`, read as UTF-8
    with or without a BOM; the file closes when the rows end or are dropped.
    A fault raises `error` with one line naming the file: an OSError's text,
    "<path>: not UTF-8 text", or "<path>, line N: <reason>" for a row the csv
    module refuses, such as one with a field over 131072 characters."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                yield reader.line_num, row
    except OSError as exc:
        raise error(str(exc)) from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise error(f"{path}, line {reader.line_num}: {exc}") from None


def _write_csv(path, rows):
    """Write `rows` to the CSV file `path` as UTF-8, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple
    name: str

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] < 1:
            raise DataError("X must be 2-D with one y entry per row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != X.shape[1]:
            raise DataError("feature_names must list one name per column")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Variances of the irrelevant Gaussian columns to append (none: clean data), plus a seed."""

    variances: tuple
    seed: int = 0

    def __post_init__(self):
        v = tuple(float(x) for x in self.variances)
        if not all(0.0 < x < math.inf for x in v):
            raise ValueError("variances must be positive finite numbers")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if not v and self.seed != 0:  # a seed that draws nothing is a setting with no effect
            raise ValueError("empty variances draw no noise, so seed must be left at 0")
        object.__setattr__(self, "variances", v)


@dataclass(frozen=True)
class SplitSpec:
    """The first n_train rows, in file order, go to train."""

    n_train: int

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be positive")


def load_csv(path, target_column, has_header=True, categorical=None, name=None):
    """Load a comma-separated regression table.

    Parameters
    ----------
    path : str or Path
    target_column : str or int
        Column holding the target, by header name or 0-based index.
    has_header : bool
    categorical : dict, optional
        Per-column encodings for non-numeric cells, keyed by column name
        or index: {"sex": {"M": 1.0, "F": -1.0, "I": 0.0}}.
    name : str, optional
        Dataset name; defaults to the file stem.

    The file is read as a stream: each row's cells are parsed straight into
    one float buffer, so the working set is the parsed values, the returned
    X and y, and one row, never the file's text. The file closes on any exit.

    Raises DataError naming the file's line (blank lines counted) on any parse
    failure. The header, the column layout, the target and the categorical
    columns are checked on the first data row; then the first faulty line in
    file order is reported, be it a bad cell, a ragged row or a row the csv
    module refuses. Text that is not UTF-8 is named when the decoder reaches
    it, a chunk of the file at a time, so it may be reported before a bad cell
    on an earlier line of that chunk.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with closing(_csv_rows(path, DataError)) as lines:
        rows = ((line, row) for line, row in lines if any(cell.strip() for cell in row))
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        header = None
        if has_header:
            header = [cell.strip() for cell in first[1]]
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: no data rows below the header")
        n_cols = len(first[1])
        if header is not None and len(header) != n_cols:
            raise DataError(
                f"{path}: header has {len(header)} columns, line {first[0]} has {n_cols}")
        names = header if header is not None else [f"col{i}" for i in range(n_cols)]

        def column_index(key):
            if isinstance(key, int):
                if not 0 <= key < n_cols:
                    raise DataError(f"{path}: column index {key} out of range (0..{n_cols - 1})")
                return key
            if header is None:
                raise DataError(f"{path}: column named {key!r} needs a header row")
            try:
                return header.index(key)
            except ValueError:
                raise DataError(f"{path}: no column named {key!r} in header") from None

        target_idx = column_index(target_column)
        encodings = {}
        for key, mapping in (categorical or {}).items():
            encodings[column_index(key)] = {str(k): float(v) for k, v in mapping.items()}

        values = array("d")
        for line, row in chain((first,), rows):
            if len(row) != n_cols:
                raise DataError(
                    f"{path}, line {line}: {len(row)} columns, expected {n_cols}"
                )
            for c, cell in enumerate(row):
                cell = cell.strip()
                if c in encodings:
                    if cell in encodings[c]:
                        values.append(encodings[c][cell])
                        continue
                    raise DataError(
                        f"{path}, line {line}, column {names[c]!r}: "
                        f"unknown category {cell!r}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}, line {line}, column {names[c]!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}, line {line}, column {names[c]!r}: non-finite value"
                    )
                values.append(value)

    data = np.frombuffer(values).reshape(-1, n_cols)
    keep = [i for i in range(n_cols) if i != target_idx]
    return Dataset(
        X=data[:, keep],
        y=data[:, target_idx],
        feature_names=tuple(names[i] for i in keep),
        name=name if name is not None else path.stem,
    )


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column z-score statistics fitted on the training rows."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # columns with zero range map to zero


def _require_finite(values, name, columns, what):
    """Raise DataError naming `name` and the first of `columns`, one per column
    of the 2-D `values`, that holds a value that is not finite."""
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        column = columns[int(np.argmin(finite))]
        raise DataError(f"{name}: column {column!r} is too large to z-score: {what} overflows")


def _fit_columns(X, name, columns):
    """The z-score statistics of X's columns, named `columns`; a mean or std
    that overflows raises DataError naming `name` and the column."""
    constant = X.max(axis=0) == X.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = X.mean(axis=0)
        std = X.std(axis=0)  # population convention
    std = np.where(constant | (std == 0.0), 1.0, std)
    _require_finite(np.stack([mean, std]), name, columns, "its training mean or std")
    return NormalizationParams(mean=mean, std=std, constant=constant)


def _z_score(Z, params, name, columns):
    """Z-score the columns of Z, named `columns`, in place; a z-score that
    overflows raises DataError naming `name` and the column."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        Z -= params.mean
        Z /= params.std
    Z[:, params.constant] = 0.0
    _require_finite(Z, name, columns, "a z-score")


def fit_normalization(ds):
    if ds.n_samples < 2:
        raise ValueError("normalization needs at least two rows")
    return _fit_columns(ds.X, ds.name, ds.feature_names)


def apply_normalization(ds, params):
    Z = ds.X.copy()
    _z_score(Z, params, ds.name, ds.feature_names)
    return Dataset(X=Z, y=ds.y, feature_names=ds.feature_names, name=ds.name)


def _write_noise(spec, parts):
    """Draw spec's noise columns into the last len(spec.variances) columns of
    `parts`, row blocks that stack to the blended table; return their names.

    Each N(0, variance) column is drawn over all rows, one at a time in the
    spec's order, from one stream seeded by spec.seed, so a blend is
    reproducible and holds one column beyond its output.
    """
    rng = np.random.default_rng(spec.seed)
    k = len(spec.variances)
    n = sum(part.shape[0] for part in parts)
    for j, v in enumerate(spec.variances):
        column = rng.normal(0.0, np.sqrt(v), size=n)
        start = 0
        for part in parts:
            part[:, j - k] = column[start:start + part.shape[0]]
            start += part.shape[0]
        del column  # the next column is drawn with this one freed
    return tuple(f"noise{j + 1}_var{v:g}" for j, v in enumerate(spec.variances))


def blend_noise(ds, spec):
    """Append one irrelevant N(0, variance) column per entry of the spec.

    Columns are drawn one at a time from a stream seeded by spec.seed, so
    the blend is reproducible; the original columns are untouched.
    """
    X = np.empty((ds.n_samples, ds.n_features + len(spec.variances)))
    X[:, :ds.n_features] = ds.X
    names = ds.feature_names + _write_noise(spec, (X,))
    return Dataset(X=X, y=ds.y, feature_names=names, name=ds.name)


def split(ds, spec):
    """Deterministic train/test split: the first n_train rows train, the rest test.

    Both parts are C-ordered copies, so they never alias the caller's arrays.
    """
    n = ds.n_samples
    if n < 2:
        raise ValueError(f"{ds.name}: a train/test split needs at least 2 rows, got {n}")
    if not 1 <= spec.n_train < n:
        raise ValueError(f"n_train must be in [1, {n - 1}], got {spec.n_train}")
    return tuple(
        Dataset(X=ds.X[rows].copy(), y=ds.y[rows].copy(), feature_names=ds.feature_names,
                name=f"{ds.name}/{suffix}")
        for rows, suffix in ((slice(spec.n_train), "train"), (slice(spec.n_train, None), "test"))
    )


def _check_blended_split(ds, n_train, name="n_train"):
    """The blended split's rule: z-scoring takes two training rows and the
    test part one row, so n_train (`name` in the message) is in [2, rows - 1]."""
    n = ds.n_samples
    if n < 3:
        raise ValueError(f"{ds.name}: a blended train/test split needs at least 3 rows, got {n}")
    if not 2 <= n_train < n:
        raise ValueError(f"{name} must be in [2, {n - 1}], got {n_train}")


def make_blended_split(ds, noise_spec, split_spec):
    """Canonical blended-benchmark pipeline.

    Blend the full dataset (one noise draw across all rows), split, then
    z-score the original feature columns with training-row statistics.
    The appended noise columns stay raw, keeping the deliberate variance
    spread that makes them distinguishable from the real features. The
    empty `NoiseSpec(())` blends no columns: split, then z-score them all.
    Every value equals `blend_noise`, `split` and `apply_normalization` in
    turn, but the blended table is never made: each noise column, drawn as
    `blend_noise` draws it, and the feature rows go straight into one train
    and one test array, where the features are z-scored in place. The
    working set is the two parts plus one noise column or, while the
    statistics are fitted, the training features' deviations from their
    means (n_train x n_features). A training mean, std or z-score that
    overflows raises DataError naming the part and the column.

    Returns (train, test, params); params is the identity on the noise columns.
    """
    _check_blended_split(ds, split_spec.n_train)
    n_train, d, k = split_spec.n_train, ds.n_features, len(noise_spec.variances)
    train = np.empty((n_train, d + k))
    test = np.empty((ds.n_samples - n_train, d + k))
    names = ds.feature_names + _write_noise(noise_spec, (train, test))
    train[:, :d] = ds.X[:n_train]
    test[:, :d] = ds.X[n_train:]
    # the blended training rows' statistics: each column is summed row by row,
    # as over the whole table, unless the view is one column (summed pairwise)
    fitted = _fit_columns(train[:, :max(d, min(2, d + k))], f"{ds.name}/train", names)
    features = NormalizationParams(fitted.mean[:d], fitted.std[:d], fitted.constant[:d])
    for part, suffix in ((train, "train"), (test, "test")):
        _z_score(part[:, :d], features, f"{ds.name}/{suffix}", names)
    params = NormalizationParams(
        mean=np.concatenate([features.mean, np.zeros(k)]),
        std=np.concatenate([features.std, np.ones(k)]),
        constant=np.concatenate([features.constant, np.zeros(k, dtype=bool)]),
    )
    return (
        Dataset(X=train, y=ds.y[:n_train].copy(), feature_names=names, name=f"{ds.name}/train"),
        Dataset(X=test, y=ds.y[n_train:].copy(), feature_names=names, name=f"{ds.name}/test"),
        params,
    )


_SAVE_BLOCK_ROWS = 256  # rows save_csv formats at a time


def save_csv(ds, path, manifest=None):
    """Persist a dataset as CSV (features then a final `target` column).

    When `manifest` is given (a flat dict), a plain-text sidecar
    `<path>.manifest.txt` records it together with the dataset shape so
    the file can be reproduced exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + ["target"])
        # the rows csv.writer would write: a float's repr never needs quoting;
        # one block of rows at a time is held as Python floats, never the table
        for start in range(0, ds.n_samples, _SAVE_BLOCK_ROWS):
            block = slice(start, start + _SAVE_BLOCK_ROWS)
            fh.writelines(",".join(map(repr, row)) + "\r\n"
                          for row in np.column_stack([ds.X[block], ds.y[block]]).tolist())
    if manifest is not None:
        lines = [f"dataset: {ds.name}", f"rows: {ds.n_samples}", f"features: {ds.n_features}"]
        lines += [f"{k}: {v}" for k, v in manifest.items()]
        Path(f"{path}.manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
