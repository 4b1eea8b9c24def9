import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmse_elm.selective import (
    _normalize_rows,
    CorrelationMatrix,
    DegenerateEnsembleError,
    EnsembleWeights,
    GaConfig,
    correlation_matrix,
    ensemble_error,
    ga_evolve,
    omission_gain,
    optimal_weights,
    select_by_threshold,
    should_omit,
)


def brute_force_correlation(preds, targets):
    """Naive double loop over samples, independent of the vectorized path."""
    n, s = len(preds), len(targets)
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(s):
                acc += (preds[i][k] - targets[k]) * (preds[j][k] - targets[k])
            c[i, j] = acc / s
    return c


def random_psd_corr(rng, n, s=None):
    s = s if s is not None else n + 3
    err = rng.normal(size=(n, s))
    c = err @ err.T / s
    return CorrelationMatrix((c + c.T) / 2.0, n_samples=s)


class TestCorrelationMatrix:
    def test_perfect_single_learner(self):
        t = np.array([1.0, 2.0, 3.0])
        corr = correlation_matrix([t.copy()], t)
        assert corr.c.shape == (1, 1)
        assert corr.c[0, 0] == 0.0

    def test_identical_learners_share_entries(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=10)
        t = rng.normal(size=10)
        corr = correlation_matrix([p, p.copy()], t)
        assert corr.c[0, 0] == corr.c[1, 1] == corr.c[0, 1] == corr.c[1, 0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        preds = rng.normal(size=(3, 10))
        t = rng.normal(size=10)
        corr = correlation_matrix(preds, t)
        assert np.max(np.abs(corr.c - brute_force_correlation(preds, t))) < 1e-12

    def test_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(6)
        corr = correlation_matrix(rng.normal(size=(7, 40)), rng.normal(size=40))
        assert np.array_equal(corr.c, corr.c.T)
        assert np.linalg.eigvalsh(corr.c).min() >= -1e-10

    def test_diagonal_is_learner_mse(self):
        rng = np.random.default_rng(7)
        preds = rng.normal(size=(4, 25))
        t = rng.normal(size=25)
        corr = correlation_matrix(preds, t)
        for i in range(4):
            assert corr.c[i, i] == pytest.approx(np.mean((preds[i] - t) ** 2), rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.ones((2, 5)), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.ones((2, 0)), np.ones(0))

    def test_constructor_requires_exact_symmetry(self):
        c = np.array([[1.0, 0.1], [0.1000001, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(c, n_samples=5)


class TestEnsembleError:
    def test_uniform_weights_match_direct_sum(self):
        rng = np.random.default_rng(1)
        corr = random_psd_corr(rng, 5)
        n = 5
        uniform = np.full(n, 1.0 / n)
        expected = corr.c.sum() / n**2
        assert ensemble_error(uniform, corr) == pytest.approx(expected, rel=1e-12)

    def test_one_hot_returns_learner_mse(self):
        rng = np.random.default_rng(2)
        corr = random_psd_corr(rng, 4)
        for k in range(4):
            w = np.zeros(4)
            w[k] = 1.0
            assert ensemble_error(w, corr) == pytest.approx(corr.c[k, k], rel=1e-14)

    def test_quadratic_form_identity(self):
        # the central consistency: MSE of the weighted average equals w'Cw
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, s = rng.integers(2, 9), rng.integers(5, 40)
            preds = rng.normal(size=(n, s))
            t = rng.normal(size=s)
            w = rng.random(n)
            w /= w.sum()
            direct = np.mean((w @ preds - t) ** 2)
            corr = correlation_matrix(preds, t)
            assert abs(ensemble_error(w, corr) - direct) < 1e-10

    def test_dimension_mismatch(self):
        corr = random_psd_corr(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            ensemble_error(np.ones(4) / 4, corr)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 10), s=st.integers(2, 30), seed=st.integers(0, 2**31))
    def test_quadratic_form_identity_property(self, n, s, seed):
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=(n, s))
        t = rng.normal(size=s)
        w = rng.random(n)
        w /= w.sum()
        corr = correlation_matrix(preds, t)
        assert abs(ensemble_error(w, corr) - np.mean((w @ preds - t) ** 2)) < 1e-10


class TestOptimalWeights:
    def test_identity_gives_uniform(self):
        corr = CorrelationMatrix(np.eye(4), n_samples=10)
        res = optimal_weights(corr)
        assert res.in_simplex
        assert np.allclose(res.raw, 0.25, atol=1e-14)

    def test_scaled_identity_gives_exactly_uniform(self):
        for sigma2 in (0.3, 1.0, 17.5):
            corr = CorrelationMatrix(sigma2 * np.eye(6), n_samples=10)
            res = optimal_weights(corr)
            assert np.all(res.raw == res.raw[0])
            assert res.raw[0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_diagonal_two_learner_solution(self):
        # hand-solved: w_k proportional to row sums of inv(diag(1,4)) -> (1, 1/4)
        corr = CorrelationMatrix(np.diag([1.0, 4.0]), n_samples=10)
        res = optimal_weights(corr)
        assert res.in_simplex
        assert np.allclose(res.raw, [0.8, 0.2], atol=1e-12)

    def test_out_of_simplex_flagged(self):
        # hand-solved: inv([[1, .9], [.9, .85]]) row sums -> raw (-1, 2)
        corr = CorrelationMatrix(np.array([[1.0, 0.9], [0.9, 0.85]]), n_samples=10)
        res = optimal_weights(corr)
        assert not res.in_simplex
        assert np.allclose(res.raw, [-1.0, 2.0], atol=1e-9)

    def test_interior_solution_beats_simplex_grid(self):
        rng = np.random.default_rng(4)
        grid = simplex_grid_3(0.05)
        found = 0
        while found < 10:
            corr = random_psd_corr(rng, 3, s=8)
            res = optimal_weights(corr)
            if not res.in_simplex:
                continue
            found += 1
            best = ensemble_error(res.raw, corr)
            grid_vals = np.einsum("ni,ij,nj->n", grid, corr.c, grid)
            assert best <= grid_vals.min() + 1e-12

    def test_single_learner(self):
        corr = CorrelationMatrix(np.array([[0.5]]), n_samples=3)
        res = optimal_weights(corr)
        assert res.raw.tolist() == [1.0]

    def test_duplicate_learners_survive_via_ridge(self):
        # two identical learners make C exactly singular
        rng = np.random.default_rng(8)
        p = rng.normal(size=20)
        t = rng.normal(size=20)
        corr = correlation_matrix([p, p.copy(), rng.normal(size=20)], t)
        res = optimal_weights(corr)
        assert np.isfinite(res.raw).all()
        assert res.raw.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_rejected_upstream(self):
        c = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            CorrelationMatrix(c, n_samples=2)

    def test_degenerate_set_raises_after_ridge_escalation(self, monkeypatch):
        corr = CorrelationMatrix(np.eye(3), n_samples=5)

        def always_singular(a, b):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", always_singular)
        with pytest.raises(DegenerateEnsembleError, match="degenerate"):
            optimal_weights(corr)


def simplex_grid_3(step):
    """All weight triples on the simplex with the given resolution."""
    k = int(round(1.0 / step))
    pts = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            pts.append((i * step, j * step, 1.0 - (i + j) * step))
    return np.asarray(pts)


class TestOmission:
    def direct_gain(self, c, k):
        """Oracle: uniform-ensemble error with and without learner k, by definition."""
        n = c.shape[0]
        e_all = c.sum() / n**2
        keep = [i for i in range(n) if i != k]
        e_without = c[np.ix_(keep, keep)].sum() / (n - 1) ** 2
        return e_all - e_without

    def test_identical_learners_zero_gain(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=15)
        t = rng.normal(size=15)
        corr = correlation_matrix([p.copy() for _ in range(5)], t)
        for k in range(5):
            assert abs(omission_gain(corr, k)) < 1e-12 * max(1.0, abs(corr.c[0, 0]))
            assert should_omit(corr, k) is False

    def test_two_learner_hand_value(self):
        corr = CorrelationMatrix(np.diag([1.0, 100.0]), n_samples=10)
        # E = 101/4, omitting the bad learner leaves E_hat = 1
        assert omission_gain(corr, 1) == pytest.approx(101.0 / 4.0 - 1.0, rel=1e-14)
        assert omission_gain(corr, 0) == pytest.approx(101.0 / 4.0 - 100.0, rel=1e-14)
        assert should_omit(corr, 1) is True
        assert should_omit(corr, 0) is False

    def test_closed_form_matches_direct_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            corr = random_psd_corr(rng, n)
            for k in range(n):
                assert abs(omission_gain(corr, k) - self.direct_gain(corr.c, k)) < 1e-12

    def test_should_omit_agrees_with_gain_sign(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            corr = random_psd_corr(rng, n)
            for k in range(n):
                gain = omission_gain(corr, k)
                if abs(gain) > 1e-12:  # ties are resolved to "keep" by design
                    assert should_omit(corr, k) == (gain > 0)

    def test_single_learner_rejected(self):
        corr = CorrelationMatrix(np.array([[1.0]]), n_samples=5)
        with pytest.raises(ValueError):
            omission_gain(corr, 0)
        with pytest.raises(ValueError):
            should_omit(corr, 0)

    def test_index_out_of_range(self):
        corr = CorrelationMatrix(np.eye(3), n_samples=5)
        with pytest.raises(IndexError):
            omission_gain(corr, 3)


class TestGaEvolve:
    def test_single_learner_shortcut(self):
        corr = CorrelationMatrix(np.array([[2.0]]), n_samples=4)
        w = ga_evolve(corr, GaConfig(population_size=4, generations=3))
        assert w.w.tolist() == [1.0]

    def test_mass_moves_to_low_error_learner(self):
        corr = CorrelationMatrix(np.diag([1.0, 100.0]), n_samples=10)
        w = ga_evolve(corr, GaConfig(), seed=0)
        assert w.w[0] > 0.9

    def test_never_worse_than_uniform(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            corr = random_psd_corr(rng, n)
            cfg = GaConfig(population_size=20, generations=15)
            w = ga_evolve(corr, cfg, seed=trial)
            uniform = np.full(n, 1.0 / n)
            assert ensemble_error(w, corr) <= ensemble_error(uniform, corr) + 1e-12

    def test_best_fitness_monotone(self):
        corr = random_psd_corr(np.random.default_rng(12), 5)
        _, history = ga_evolve(corr, GaConfig(), seed=3, with_history=True)
        assert len(history) == GaConfig().generations + 1
        assert np.all(np.diff(history) >= 0.0)

    def test_deterministic_per_seed(self):
        corr = random_psd_corr(np.random.default_rng(13), 4)
        cfg = GaConfig(population_size=12, generations=10)
        a = ga_evolve(corr, cfg, seed=21)
        b = ga_evolve(corr, cfg, seed=21)
        assert np.array_equal(a.w, b.w)
        c = ga_evolve(corr, cfg, seed=22)
        assert not np.array_equal(a.w, c.w)

    def test_seed_is_an_argument(self):
        corr = random_psd_corr(np.random.default_rng(13), 4)
        cfg = GaConfig(population_size=12, generations=10)
        assert np.array_equal(ga_evolve(corr, cfg).w, ga_evolve(corr, cfg, seed=0).w)
        # None draws fresh entropy, as make_hidden_layer does
        assert not np.array_equal(ga_evolve(corr, cfg, seed=None).w,
                                  ga_evolve(corr, cfg, seed=None).w)

    def test_result_is_valid_weights(self):
        corr = random_psd_corr(np.random.default_rng(14), 6)
        w = ga_evolve(corr, GaConfig(population_size=10, generations=5), seed=0)
        assert isinstance(w, EnsembleWeights)


class TestSelectByThreshold:
    def test_uniform_boundary_keeps_everyone(self):
        n = 8
        w = np.full(n, 1.0 / n)
        assert select_by_threshold(w, 1.0 / n).tolist() == list(range(n))

    def test_threshold_cases(self):
        w = np.array([0.9, 0.05, 0.05])
        assert select_by_threshold(w, 0.05).tolist() == [0, 1, 2]
        assert select_by_threshold(w, 0.06).tolist() == [0]

    def test_empty_selection_falls_back_to_argmax(self):
        w = np.array([0.04, 0.03, 0.02, 0.91])
        # force emptiness with a threshold above every weight
        assert select_by_threshold(w, 0.95).tolist() == [3]

    def test_zero_threshold_disables_selection(self):
        w = np.array([0.5, 0.5, 0.0])
        assert select_by_threshold(w, 0.0).tolist() == [0, 1, 2]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            select_by_threshold(np.array([1.0]), 1.5)
        with pytest.raises(ValueError):
            select_by_threshold(np.array([1.0]), -0.1)


class TestValidation:
    def test_ensemble_weights_validation(self):
        with pytest.raises(ValueError):
            EnsembleWeights(np.array([0.5, 0.6]))  # sums to 1.1
        with pytest.raises(ValueError):
            EnsembleWeights(np.array([-0.1, 1.1]))
        # abs(nan - 1) > 1e-12 is False, so the sum check alone lets NaN through
        for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="weights must lie in"):
                EnsembleWeights(np.array(bad))
        EnsembleWeights(np.array([0.25, 0.75]))

    @pytest.mark.parametrize("population", [-1, 0, 1, 2])
    def test_population_must_outnumber_the_elite(self, population):
        # the two elite fill a population of two: no child would ever be bred
        with pytest.raises(ValueError, match=r"^population_size must be at least 3: "
                                             r"the 2 elite and a child$"):
            GaConfig(population_size=population)
        GaConfig(population_size=3)  # the smallest that breeds a child

    def test_generations_must_be_positive(self):
        with pytest.raises(ValueError, match="^generations must be positive$"):
            GaConfig(generations=0)


# ---------------------------------------------------------------------------
# Reference for the random-stream contract of ga_evolve: the GA breeding one
# pair of children, and mutating one gene, at a time. Per generation it takes
# the documented draws -- rng.random((n_pairs, 4)) for the matings (two parent
# uniforms, a crossover coin, a blend alpha), rng.random((pop_size, n)) for
# the mutation mask, then one rng.normal per mutated gene in row-major order --
# so the vectorised breeding in selective.py must return bit-identical weights
# and histories and leave the generator in the same state. It spells out the
# fixed breeding settings itself, so a changed constant in selective.py fails.
CROSSOVER_PROB, MUTATION_PROB, MUTATION_SCALE, N_ELITE = 0.8, 0.1, 0.1, 2


def scalar_ga_evolve(corr, config=None, seed=0, with_history=False):
    if config is None:
        config = GaConfig()
    n = corr.n_learners
    if n == 1:
        best = EnsembleWeights(np.ones(1))
        if with_history:
            hist = np.full(config.generations + 1, -float(corr.c[0, 0]))
            return best, hist
        return best
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

    n_elite = N_ELITE
    for _ in range(config.generations):
        order = np.argsort(fitness)  # ascending: worst first
        ranks = np.empty(pop_size)
        ranks[order] = np.arange(1, pop_size + 1)
        probs = ranks / ranks.sum()

        n_pairs = (pop_size - n_elite + 1) // 2
        matings = rng.random((n_pairs, 4))
        mutate = rng.random((pop_size, n)) < MUTATION_PROB
        cdf = probs.cumsum()
        cdf /= cdf[-1]

        def roulette(u):
            return next(i for i in range(pop_size) if u < cdf[i])

        children = [row.copy() for row in pop[order[::-1][:n_elite]]]
        for u1, u2, coin, alpha in matings:
            p1, p2 = pop[roulette(u1)], pop[roulette(u2)]
            if coin < CROSSOVER_PROB:
                c1 = alpha * p1 + (1.0 - alpha) * p2
                c2 = (1.0 - alpha) * p1 + alpha * p2
            else:
                c1, c2 = p1.copy(), p2.copy()
            children.append(c1)
            if len(children) < pop_size:
                children.append(c2)
        pop = np.asarray(children)

        for r in range(n_elite, pop_size):
            for g in range(n):
                if mutate[r, g]:
                    pop[r, g] = max(pop[r, g] + rng.normal(0.0, MUTATION_SCALE), 0.0)

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


def _stream_cases():
    base = dict(population_size=12, generations=15)
    configs = [
        {},  # an even child count
        dict(population_size=11),  # an odd child count: the last pair's second child is dropped
        dict(population_size=3),  # the smallest population: one child a generation
        dict(population_size=4),
        dict(population_size=5),  # an odd child count from more than one pair
        dict(population_size=50, generations=8),
        dict(generations=1),  # one generation: the initial best against one bred population
        dict(population_size=50, generations=100),  # GaConfig's defaults, which every config uses
    ]
    cases = []
    for n in (2, 3, 5, 20, 37):
        for k, cfg in enumerate(configs):
            cases.append((n, {**base, **cfg}, 100 * n + k))
    return cases


class TestGaStreamContract:
    @pytest.mark.parametrize("n, cfg, seed", _stream_cases())
    def test_matches_scalar_breeding(self, n, cfg, seed):
        corr = random_psd_corr(np.random.default_rng(seed), n)
        config = GaConfig(**cfg)
        w, hist = ga_evolve(corr, config, seed=seed, with_history=True)
        w_ref, hist_ref = scalar_ga_evolve(corr, config, seed=seed, with_history=True)
        assert np.array_equal(w.w, w_ref.w)
        assert np.array_equal(hist, hist_ref)

    @pytest.mark.parametrize("population", [3, 15])  # one child a generation, and 13
    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_generator_left_in_same_state(self, bit_generator, population):
        corr = random_psd_corr(np.random.default_rng(7), 6)
        config = GaConfig(population_size=population, generations=12)
        ours, ref = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
        w = ga_evolve(corr, config, seed=ours)
        w_ref = scalar_ga_evolve(corr, config, seed=ref)
        assert np.array_equal(w.w, w_ref.w)
        assert ours.random() == ref.random()

    def test_seed_sequence_override(self):
        corr = random_psd_corr(np.random.default_rng(8), 5)
        config = GaConfig(population_size=20, generations=10)
        seed = np.random.SeedSequence(4, spawn_key=(1, 2))
        w = ga_evolve(corr, config, seed=seed)
        w_ref = scalar_ga_evolve(corr, config, seed=np.random.SeedSequence(4, spawn_key=(1, 2)))
        assert np.array_equal(w.w, w_ref.w)
