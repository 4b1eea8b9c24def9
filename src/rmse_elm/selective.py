"""Selective ensembling of regressors.

The generalization error of a weighted-average ensemble is the quadratic
form w' C w, where C is the matrix of pairwise error correlations between
base learners estimated on a shared evaluation set. Everything here flows
from that identity: the Lagrange-optimal weights under the sum-to-one
constraint, the closed-form benefit of omitting one learner from a simple
average, a real-coded genetic algorithm that evolves the weight vector,
and threshold-based selection of the surviving learners.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateEnsembleError(RuntimeError):
    """The learner set is too degenerate to weight (singular correlations)."""


@dataclass(frozen=True)
class CorrelationMatrix:
    """Empirical error-correlation matrix of a set of learners.

    Entry (i, j) is the mean over the estimation set of the product of
    learner i's and learner j's errors; the diagonal holds each learner's
    empirical MSE. Exactly symmetric by construction, and positive
    semidefinite up to rounding (it is a Gram matrix of error vectors).
    """

    c: np.ndarray
    n_samples: int

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
            raise ValueError("correlation matrix must be square and non-empty")
        if not np.all(np.isfinite(c)):
            raise ValueError("correlation matrix contains non-finite entries")
        if not np.array_equal(c, c.T):
            raise ValueError("correlation matrix must be exactly symmetric")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        object.__setattr__(self, "c", c)

    @property
    def n_learners(self):
        return self.c.shape[0]


@dataclass(frozen=True)
class EnsembleWeights:
    """Simplex-constrained combination weights: entries in [0, 1], sum 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty vector")
        if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN lies outside too
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "w", w)

    def __len__(self):
        return self.w.size


@dataclass(frozen=True)
class OptimalWeights:
    """Lagrange solution of the constrained quadratic error.

    Minimizing w' C w subject only to sum(w) = 1 gives
    w_k proportional to the k-th row sum of C^-1; nothing forces the
    components into [0, 1], so `raw` may leave the simplex, and
    `in_simplex` flags whether it did. Off the simplex, `raw` is not the
    optimum over nonnegative weights; `ga_evolve` searches that.
    """

    raw: np.ndarray
    in_simplex: bool


@dataclass(frozen=True)
class GaConfig:
    """Real-coded GA settings (population of nonnegative weight vectors).

    The random stream is not a setting: `ga_evolve` takes its seed as an
    argument, and the ensemble trainers derive one per selection.
    """

    population_size: int = 50
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob: float = 0.1
    mutation_scale: float = 0.1
    elitism_count: int = 2

    def __post_init__(self):
        if self.population_size < 1 or self.generations < 1:
            raise ValueError("population_size and generations must be positive")
        for p in (self.crossover_prob, self.mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 < self.mutation_scale < np.inf:
            raise ValueError("mutation_scale must be positive and finite")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("need 0 <= elitism_count < population_size")


def _weight_array(weights, n):
    w = weights.w if isinstance(weights, EnsembleWeights) else np.asarray(weights, float)
    if w.shape != (n,):
        raise ValueError(f"expected a weight vector of length {n}, got shape {w.shape}")
    return w


def correlation_matrix(predictions, targets):
    """Estimate the error-correlation matrix on a shared evaluation set.

    `predictions` holds one vector per learner (list of 1-D arrays or a
    2-D array with one row per learner); `targets` is the matching truth.
    Entry (i, j) is mean_s[(f_i(x_s) - d(x_s)) (f_j(x_s) - d(x_s))].
    """
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim == 1:
        preds = preds[None, :]
    t = np.asarray(targets, dtype=float).ravel()
    if preds.ndim != 2 or preds.shape[0] < 1:
        raise ValueError("predictions must form a (n_learners, n_samples) array")
    if t.size < 1:
        raise ValueError("targets are empty")
    if preds.shape[1] != t.size:
        raise ValueError(
            f"predictions have {preds.shape[1]} samples, targets {t.size}"
        )
    err = preds - t
    c = (err @ err.T) / t.size
    c = (c + c.T) / 2.0  # exact symmetry; gemm output is only symmetric in math
    return CorrelationMatrix(c=c, n_samples=int(t.size))


def ensemble_error(weights, corr):
    """Quadratic-form generalization error w' C w of the weighted average."""
    w = _weight_array(weights, corr.n_learners)
    return float(w @ corr.c @ w)


def optimal_weights(corr):
    """Sum-constrained minimizer of w' C w via the Lagrange conditions.

    w_k = (row sum k of C^-1) / (total sum of C^-1). Singular or
    near-singular C (duplicate learners) is ridge-regularized with an
    escalating delta * trace(C)/n * I, delta from 1e-10 up to 1e-4; if no
    level yields a usable solve the learner set is reported degenerate.
    """
    c = corr.c
    n = corr.n_learners
    if n == 1:
        return OptimalWeights(raw=np.ones(1), in_simplex=True)
    scale = float(np.trace(c)) / n
    if scale <= 0.0:
        scale = 1.0
    ones = np.ones(n)
    deltas = [0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
    for delta in deltas:
        reg = c if delta == 0.0 else c + (delta * scale) * np.eye(n)
        try:
            x = np.linalg.solve(reg, ones)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        residual = float(np.max(np.abs(reg @ x - ones)))
        if residual > 1e-6 * max(1.0, float(np.max(np.abs(x)))):
            continue
        total = float(x.sum())
        if total == 0.0 or not np.isfinite(total):
            continue
        raw = x / total
        return OptimalWeights(raw=raw, in_simplex=bool(np.all(raw >= 0.0)))
    raise DegenerateEnsembleError(
        "correlation matrix is singular even after ridge escalation; "
        "the learner set is degenerate (e.g. all learners identical)"
    )


def omission_gain(corr, k):
    """Error change of the simple average when learner k is dropped.

    Returns E - E_hat, where E is the uniform-weight ensemble error over
    all n learners and E_hat the same over the n-1 learners left after
    removing k, via the closed form
    (2 * sum_{i != k} C_ik + C_kk - (2n - 1) E) / (n - 1)^2.
    Positive means omitting learner k improves the ensemble.
    """
    c = corr.c
    n = corr.n_learners
    if n < 2:
        raise ValueError("omission analysis needs at least two learners")
    if not 0 <= k < n:
        raise IndexError(f"learner index {k} out of range for {n} learners")
    e_all = float(c.sum()) / n**2
    cross = float(c[:, k].sum()) - float(c[k, k])
    return (2.0 * cross + float(c[k, k]) - (2 * n - 1) * e_all) / (n - 1) ** 2


def should_omit(corr, k):
    """Whether dropping learner k strictly improves the simple average.

    Evaluates the constraint inequality
    (2n-1) * sum_{i,j != k} C_ij  <  2 (n-1)^2 * sum_{i != k} C_ik
                                      + (n-1)^2 * C_kk,
    which is algebraically equivalent to omission_gain > 0. Exact
    mathematical ties (e.g. identical learners) resolve to False: a zero
    gain is no reason to drop anything.
    """
    c = corr.c
    n = corr.n_learners
    if n < 2:
        raise ValueError("omission analysis needs at least two learners")
    if not 0 <= k < n:
        raise IndexError(f"learner index {k} out of range for {n} learners")
    keep = np.arange(n) != k
    sub = float(c[np.ix_(keep, keep)].sum())
    cross = float(c[keep, k].sum())
    lhs = (2 * n - 1) * sub
    rhs = 2 * (n - 1) ** 2 * cross + (n - 1) ** 2 * float(c[k, k])
    if np.isclose(lhs, rhs, rtol=1e-12, atol=1e-300):
        return False
    return lhs < rhs


def _normalize_rows(pop):
    totals = pop.sum(axis=1, keepdims=True)
    if totals.min() > 0.0:  # the usual case: no all-zero row to replace
        return pop / totals
    out = pop / np.where(totals > 0.0, totals, 1.0)
    out[totals[:, 0] <= 0.0] = 1.0 / pop.shape[1]
    return out


def ga_evolve(corr, config=None, seed=0, with_history=False):
    """Evolve ensemble weights by a real-coded GA.

    Chromosomes are nonnegative length-n vectors, normalized onto the
    simplex before each fitness evaluation; fitness is -w' C w. Selection
    is roulette on linear rank, crossover is arithmetic blending,
    mutation adds clipped Gaussian noise per gene, and the elite carry
    over unchanged, so the best-ever fitness never decreases. The uniform
    vector is injected into the initial population, which guarantees the
    result is never worse than simple averaging.

    Random stream: after the initial population, each generation takes,
    in this order, `rng.random((n_pairs, 4))` -- per mating two parent
    uniforms, a crossover coin and a blend alpha, used only when the coin
    falls below `crossover_prob` (otherwise alpha = 1 and the children copy
    their parents) -- then `rng.random((pop_size, n)) < mutation_prob` as
    the mutation mask with the elite rows cleared, then one
    `rng.normal(0, mutation_scale)` per mutated gene in row-major order.
    Parents are drawn by roulette on rank through the normalized cumulative
    rank probabilities. A seed therefore pins the weights bit for bit.

    Parameters
    ----------
    corr : CorrelationMatrix
    config : GaConfig, optional
    seed : int, SeedSequence or Generator; None draws fresh entropy
    with_history : bool
        When True also return the best-ever fitness after initialization
        and after each generation (length generations + 1).

    Returns
    -------
    EnsembleWeights, or (EnsembleWeights, ndarray) with history.
    """
    if config is None:
        config = GaConfig()
    n = corr.n_learners
    rng = np.random.default_rng(seed)
    c = corr.c
    pop_size = config.population_size

    pop = rng.random((pop_size, n))
    pop[0] = 1.0 / n  # uniform individual: result never worse than simple average

    def fitness_of(population):
        w = _normalize_rows(population)
        return -((w @ c) * w).sum(axis=1), w

    fitness, norm = fitness_of(pop)
    best_fitness = float(fitness[0])  # start at the uniform individual
    best_w = norm[0].copy()

    def improved(candidate):
        # require a real improvement, not ulp noise, so exact ties (e.g.
        # identical learners) keep the earlier best -- the uniform vector
        return candidate > best_fitness + 1e-12 * max(1.0, abs(best_fitness))

    init_best = int(np.argmax(fitness))
    if improved(float(fitness[init_best])):
        best_fitness = float(fitness[init_best])
        best_w = norm[init_best].copy()
    history = [best_fitness]

    n_elite = config.elitism_count
    n_children = pop_size - n_elite
    n_pairs = (n_children + 1) // 2
    rank_values = np.arange(1.0, pop_size + 1)
    rank_total = rank_values.sum()
    for _ in range(config.generations):
        order = np.argsort(fitness)  # ascending: worst first
        ranks = np.empty(pop_size)
        ranks[order] = rank_values
        probs = ranks / rank_total

        # the matings' draws and the mutation mask, as one block of doubles
        draws = rng.random(4 * n_pairs + pop_size * n)
        mating = draws[: 4 * n_pairs].reshape(n_pairs, 4)
        mutate = draws[4 * n_pairs :].reshape(pop_size, n) < config.mutation_prob
        mutate[:n_elite] = False
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        parents = pop[cdf.searchsorted(mating[:, :2], side="right")]
        # blend weights (alpha, 1 - alpha) of each pair's two children; alpha 1
        # copies the parents exactly (all genes are finite and nonnegative)
        coef = np.empty((n_pairs, 2, 1))
        coef[:, 0, 0] = np.where(mating[:, 2] < config.crossover_prob, mating[:, 3], 1.0)
        coef[:, 1] = 1.0 - coef[:, 0]
        children = coef * parents[:, :1] + coef[:, ::-1] * parents[:, 1:]
        # the elite, best first, then the children in breeding order
        pop = np.concatenate([pop[order[::-1][:n_elite]], children.reshape(-1, n)[:n_children]])

        genes = pop[mutate]
        pop[mutate] = np.maximum(genes + rng.normal(0.0, config.mutation_scale, genes.size), 0.0)

        fitness, norm = fitness_of(pop)
        gen_best = int(np.argmax(fitness))
        if improved(float(fitness[gen_best])):
            best_fitness = float(fitness[gen_best])
            best_w = norm[gen_best].copy()
        history.append(best_fitness)

    result = EnsembleWeights(np.clip(best_w, 0.0, 1.0))
    if with_history:
        return result, np.asarray(history)
    return result


def select_by_threshold(weights, threshold):
    """Indices of learners whose weight is not below the threshold.

    Keeps every i with w[i] >= threshold (a weight exactly at the
    threshold survives). If nothing survives, falls back to the single
    argmax learner so the selection is never empty. threshold = 0 keeps
    everyone, which disables selection.
    """
    w = weights.w if isinstance(weights, EnsembleWeights) else np.asarray(weights, float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty vector")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    idx = np.flatnonzero(w >= threshold)
    if idx.size == 0:
        idx = np.array([int(np.argmax(w))])
    return idx
