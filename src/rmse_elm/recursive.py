"""Two-layer recursive selective ensembles of ELMs, plus the flat baselines.

Layer 1 trains several independent groups of ELMs and runs GA-based
selective ensembling (GASEN) inside each group; the survivors of all
groups are pooled. Layer 2 applies the same selection once more to the
pool and averages the final survivors. One routine, `_gasen`, trains
every ensemble: E-GASEN is it at threshold2 = 0, GASEN-ELM one group of
that, and the simple average one group at both thresholds 0. A zero
threshold selects nothing: no correlation matrix, no GA, and with both
at 0 no estimation-row predictions. Every ensemble carries its layer-1
pool, so `layer1_reading` reads GASEN-ELM and E-GASEN from one RMSE-ELM fit.

A fit keeps each member it has not yet chosen as its readout and its
predictions on the estimation rows: the hidden layer is a pure function
of the member's seed, so `_train_group` sets the member's `hidden` to
None as soon as its predictions are taken, and `_redraw` draws it again
with `make_hidden_layer` only for the members a trainer returns, which
are the very models `train_elm` made. A group's non-survivors are
freed as soon as its survivors join the pool, so a layer-1 fit holds the
pool's and one group's readouts and predictions and one member's readout
working set (see `train_elm`); the returned members add their layers. A
hold-out copies no part of X: each member gathers its fit rows one row
block at a time as it projects them, and its estimation rows once, for
its predictions.
"""

import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .elm import _canonical_activation, _finite, make_hidden_layer, predict, train_elm
from .selective import GaConfig, correlation_matrix, ga_evolve, select_by_threshold

# spawn-key streams so every random draw in a training run has its own
# deterministic, non-overlapping seed derived from the master seed; the
# unused _RETRAIN slot stays so that _VAL_SPLIT, and every hold-out split, keeps its key
_MEMBER, _GROUP_GA, _POOL_GA, _RETRAIN, _VAL_SPLIT = range(5)


def member_seed(master_seed, group, index):
    """Deterministic per-model seed stream; distinct for every (group, index)."""
    return np.random.SeedSequence(master_seed, spawn_key=(_MEMBER, group, index))


def _ga_seed(master_seed, stream, group=0):
    return np.random.SeedSequence(master_seed, spawn_key=(stream, group))


@dataclass(frozen=True)
class EnsembleConfig:
    """Settings for the two-layer recursive model.

    `threshold1`/`threshold2` of None mean the reciprocal of the group
    size / realized pool size; 0 selects nothing. `validation_fraction` > 0
    holds out that share of the training rows for correlation estimation;
    0 estimates on the training set itself. A `seed` of None is drawn here.
    """

    groups: int = 4
    group_size: int = 20
    n_hidden: int = 50
    activation: str = "sigmoid"
    threshold1: float | None = None
    threshold2: float | None = None
    ga: GaConfig = field(default_factory=GaConfig)
    seed: int = 0
    validation_fraction: float = 0.0

    def __post_init__(self):
        if self.groups < 1 or self.group_size < 1 or self.n_hidden < 1:
            raise ValueError("groups, group_size and n_hidden must be positive")
        _canonical_activation(self.activation)  # an unknown name fails here, not in a fit
        for t in (self.threshold1, self.threshold2):
            if t is not None and not 0.0 <= t <= 1.0:
                raise ValueError("thresholds must lie in [0, 1]")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.seed is None:  # once, so that each member's layer can be redrawn from it
            object.__setattr__(self, "seed", int(np.random.SeedSequence().entropy))
        elif not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ElmEnsemble:
    """A set of trained ELMs combined by simple averaging.

    `provenance` records each member's (group, within-group) origin, and
    `pool_provenance` the layer-1 pool they were chosen from, with
    `pool_members` its models in the same order; left out, the pool is the
    members themselves. A fit keeps the layers of the pool models it does
    not return dropped. `stage_s` holds a fit's wall seconds per stage:
    "groups", one entry per group (training and selection, the first with
    the set-up), "pool" (the pool stage) and "redraw" (the members' layers).
    """

    members: tuple
    provenance: tuple
    pool_provenance: tuple | None = None
    pool_members: tuple | None = field(default=None, repr=False, compare=False)
    stage_s: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("an ensemble needs at least one member")
        if len(self.provenance) != len(self.members):
            raise ValueError("provenance must list one entry per member")
        pool = self.provenance if self.pool_provenance is None else self.pool_provenance
        pool_members = self.members if self.pool_members is None else self.pool_members
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "provenance", tuple(tuple(p) for p in self.provenance))
        object.__setattr__(self, "pool_provenance", tuple(tuple(p) for p in pool))
        object.__setattr__(self, "pool_members", tuple(pool_members))

    @property
    def n_members(self):
        return len(self.members)

    def predict(self, X, *, memo=None):
        """The members' mean prediction on X.

        With a dict `memo`, each member's prediction is read from it, keyed
        by `id(member)`, or made once and stored there with the member, which
        the memo so keeps alive and its id unique: ensembles that share members
        predict each one once. A memo serves one X. The result equals the one
        without a memo bit for bit and shares no memory with an entry.
        """
        # a running sum in member order, divided by M: what np.mean over the
        # stacked member predictions computes whenever it sums across members
        # one by one (any output of more than one entry), without holding all M
        if memo is None:
            total = predict(self.members[0], X)
            for m in self.members[1:]:
                total += predict(m, X)
        else:
            for m in self.members:
                if id(m) not in memo:
                    memo[id(m)] = (m, predict(m, X))
            total = memo[id(self.members[0])][1].copy()
            for m in self.members[1:]:
                total += memo[id(m)][1]
        total /= len(self.members)
        return total

    @property
    def pool_size(self):
        return len(self.pool_provenance)

    @property
    def group_survivor_counts(self):
        """Layer-1 survivors per group, counted from the pool in group order;
        selection never keeps nobody, so every group is in the pool."""
        return tuple(Counter(g for g, _ in self.pool_provenance).values())


def _estimation_split(X, y, validation_fraction, master_seed):
    """Row indices used for fitting vs rows used to estimate correlations.

    Returns (fit_rows, est_rows); both are None when the correlations are
    estimated on the training rows themselves (validation_fraction 0).
    A hold-out must be finite in X and y: `train_elm` checks only the fit rows.
    """
    if X.shape[0] < 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X and y must be non-empty with matching row counts")
    if validation_fraction <= 0.0:
        return None, None
    n = X.shape[0]
    n_val = max(1, int(round(validation_fraction * n)))
    if n_val >= n:
        raise ValueError("validation_fraction leaves no training rows")
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(_VAL_SPLIT,)))
    order = rng.permutation(n)
    fit_rows, est_rows = order[n_val:], order[:n_val]
    if not _finite(X, est_rows):
        raise ValueError("X contains non-finite entries in the hold-out rows")
    if not _finite(y, est_rows):
        raise ValueError("the targets contain non-finite entries in the hold-out rows")
    return fit_rows, est_rows


def _train_group(X, y, fit_rows, est_rows, n_models, config, group):
    """Train a group's members and their predictions on the estimation rows.

    Members train on the rows `fit_rows` of X and y and are judged on the
    rows `est_rows`; None is every row, and an `est_rows` of None, which
    estimates on the fit rows, needs a `fit_rows` of None. No copy of X is
    made beyond one member's gathered rows. Each member's hidden layer is
    dropped as soon as its predictions are taken, so the group holds
    readouts, not layers; `_redraw` gives the members a trainer returns
    their layers back. Estimating on the fit rows, each member's
    predictions come from its own fit (`train_elm(..., fitted=)`); only a
    hold-out is projected anew, its rows gathered for each member. When
    both thresholds of `config` are 0 nothing reads them: each is None.
    """
    models = []
    preds = []
    estimate = config.threshold1 != 0 or config.threshold2 != 0
    for i in range(n_models):
        fitted = np.empty(y.shape) if estimate and est_rows is None else None
        m = train_elm(
            X,
            y,
            config.n_hidden,
            config.activation,
            seed=member_seed(config.seed, group, i),
            rows=fit_rows,
            fitted=fitted,
        )
        preds.append(None if not estimate else np.ravel(
            fitted if est_rows is None else predict(m, np.take(X, est_rows, axis=0))))
        m.hidden = None
        models.append(m)
    return models, preds


def _redraw(X, config, models, provenance):
    """The members `_train_group` trained at `provenance`, each given back its layer
    unless it has one: the draw `train_elm` made from the member's seed over X's columns."""
    for m, (g, i) in zip(models, provenance):
        if m.hidden is None:
            m.hidden = make_hidden_layer(np.shape(X)[1], config.n_hidden, config.activation,
                                         member_seed(config.seed, g, i))
    return tuple(models)


def _select(preds, y_est, config, stream, group, threshold):
    """One GASEN stage: evolve weights on GA stream (stream, group), keep by threshold."""
    if threshold == 0:  # every GA weight would pass, and no other draw uses this GA's stream
        return range(len(preds))
    corr = correlation_matrix(preds, np.ravel(y_est))
    weights = ga_evolve(corr, config.ga, seed=_ga_seed(config.seed, stream, group))
    return select_by_threshold(weights, threshold)


def _gasen(X, y, config):
    """The one ensemble trainer: GASEN selection per group, then over the pool.

    Trains each group, keeps the members whose group GA weight reaches
    threshold1 (default 1/group_size) and pools them; only the pool
    outlives a group, whose other members and estimation-row predictions
    are released before the next group trains. A GA over the pool then
    keeps the members at threshold2 (default 1/pool size). A stage at
    threshold 0 keeps every member without a GA. Returns the ensemble of
    the chosen members, their layers redrawn, with the pool, its other
    models' layers dropped, and the stage times.
    """
    marks = [time.perf_counter()]
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    fit_rows, est_rows = _estimation_split(X, y, config.validation_fraction, config.seed)
    y_est = y if est_rows is None else y[est_rows]
    threshold1 = config.threshold1 if config.threshold1 is not None else 1.0 / config.group_size
    models, preds, pool = [], [], []
    for g in range(config.groups):
        group, group_preds = _train_group(X, y, fit_rows, est_rows, config.group_size, config, g)
        for i in _select(group_preds, y_est, config, _GROUP_GA, g, threshold1):
            models.append(group[i])
            preds.append(group_preds[i])
            pool.append((g, int(i)))
        del group, group_preds  # free the non-survivors before the next group trains
        marks.append(time.perf_counter())
    threshold2 = config.threshold2 if config.threshold2 is not None else 1.0 / len(pool)
    chosen = _select(preds, y_est, config, _POOL_GA, 0, threshold2)
    marks.append(time.perf_counter())
    provenance = [pool[i] for i in chosen]
    members = _redraw(X, config, [models[i] for i in chosen], provenance)
    marks.append(time.perf_counter())
    spans = [b - a for a, b in zip(marks, marks[1:])]
    stage_s = {"groups": tuple(spans[:-2]), "pool": spans[-2], "redraw": spans[-1]}
    return ElmEnsemble(members, provenance, pool, models, stage_s)


def layer1_reading(ensemble, X, config, groups=None):
    """The layer-1 ensemble of a selective fit's first `groups` groups (by default all).

    It averages the pool's survivors of those groups. From a fit of
    `train_rmse_elm` or `train_e_gasen` on X at `config`, every group gives
    what `train_e_gasen` returns there and one group what
    `train_gasen_elm` returns, bit for bit: the groups draw the same
    members, GAs and estimation rows in every trainer. The members are the
    fit's own models; only those whose layer was dropped get it redrawn,
    in place.
    """
    pool = [(m, p) for m, p in zip(ensemble.pool_members, ensemble.pool_provenance)
            if groups is None or p[0] < groups]
    provenance = [p for _, p in pool]
    return ElmEnsemble(_redraw(X, config, [m for m, _ in pool], provenance), provenance)


def train_rmse_elm(X, y, config=None):
    """Train the two-layer recursive selective ensemble: `_gasen` at `config`.

    Layer 1: per group, train `group_size` ELMs on distinct derived
    seeds, evolve weights on the group's correlation matrix, keep models
    whose weight reaches threshold1 (default 1/group_size). Layer 2: pool
    all survivors, evolve weights once more over the pool, keep models at
    threshold2 (default 1/pool_size), and average the final survivors.
    """
    return _gasen(X, y, config or EnsembleConfig())


def train_e_gasen(X, y, config=None):
    """Two-layer variant whose second layer is a plain simple average.

    `_gasen` at threshold2 = 0: layer 1 is identical to train_rmse_elm,
    and the pooled survivors are averaged with no second selection.
    """
    return _gasen(X, y, replace(config or EnsembleConfig(), threshold2=0.0))


def train_gasen_elm(X, y, config=None):
    """One-layer selective ensemble (GASEN-ELM): train, evolve weights, select, average.

    `_gasen` at groups = 1 and threshold2 = 0: `config.group_size` ELMs,
    kept at `threshold1` (default 1/group_size). Every other
    EnsembleConfig field applies.
    """
    return _gasen(X, y, replace(config or EnsembleConfig(), groups=1, threshold2=0.0))


def train_simple_ensemble(X, y, n_learners=20, n_hidden=50, activation="sigmoid", seed=0):
    """Simple average of `n_learners` seeded ELMs: `_gasen`, one group, both thresholds 0."""
    if n_learners < 1:
        raise ValueError("n_learners must be positive")
    return _gasen(X, y, EnsembleConfig(groups=1, group_size=n_learners, n_hidden=n_hidden,
                                       activation=activation, threshold1=0.0,
                                       threshold2=0.0, seed=seed))
