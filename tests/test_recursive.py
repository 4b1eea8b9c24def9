import itertools
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmse_elm.bench as bench
import rmse_elm.elm
import rmse_elm.recursive as recursive
from rmse_elm.elm import predict, train_elm
from rmse_elm.bench import mse
from rmse_elm.recursive import (
    ElmEnsemble,
    EnsembleConfig,
    layer1_reading,
    member_seed,
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
from rmse_elm.selective import GaConfig, correlation_matrix, ensemble_error
from rmse_elm.synth import make_synthetic_regression


SMALL_GA = GaConfig(population_size=12, generations=10)


def small_config(**kw):
    base = dict(groups=2, group_size=4, n_hidden=6, activation="sigmoid",
                ga=SMALL_GA, seed=7)
    base.update(kw)
    return EnsembleConfig(**base)


@pytest.fixture(scope="module")
def task():
    ds = make_synthetic_regression(n_samples=80, n_features=3, seed=1, noise_std=0.2)
    return ds.X, ds.y


class TestTrainRmseElm:
    def test_single_model_degenerates_to_plain_elm(self, task):
        X, y = task
        cfg = small_config(groups=1, group_size=1)
        ens = train_rmse_elm(X, y, cfg)
        assert ens.n_members == 1
        solo = train_elm(X, y, cfg.n_hidden, cfg.activation,
                         seed=member_seed(cfg.seed, 0, 0))
        assert np.array_equal(ens.predict(X), predict(solo, X))

    def test_subset_chain(self, task):
        X, y = task
        ens = train_rmse_elm(X, y, small_config())
        all_models = {(g, i) for g in range(2) for i in range(4)}
        pool = set(ens.pool_provenance)
        final = set(ens.provenance)
        assert final <= pool <= all_models
        assert len(final) == ens.n_members >= 1

    def test_zero_threshold_equals_all_model_simple_average(self, task):
        X, y = task
        cfg = small_config(threshold1=0.0, threshold2=0.0)
        ens = train_rmse_elm(X, y, cfg)
        assert ens.n_members == cfg.groups * cfg.group_size
        manual = [
            predict(train_elm(X, y, cfg.n_hidden, cfg.activation,
                              seed=member_seed(cfg.seed, g, i)), X)
            for g in range(cfg.groups)
            for i in range(cfg.group_size)
        ]
        assert np.max(np.abs(ens.predict(X) - np.mean(manual, axis=0))) < 1e-10

    def test_deterministic(self, task):
        X, y = task
        a = train_rmse_elm(X, y, small_config())
        b = train_rmse_elm(X, y, small_config())
        assert a.provenance == b.provenance
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_seed_changes_result(self, task):
        X, y = task
        a = train_rmse_elm(X, y, small_config(seed=1))
        b = train_rmse_elm(X, y, small_config(seed=2))
        assert not np.array_equal(a.predict(X), b.predict(X))

    def test_members_have_distinct_layers(self, task):
        X, y = task
        cfg = small_config(threshold1=0.0, threshold2=0.0)
        ens = train_rmse_elm(X, y, cfg)
        weights = [m.hidden.input_weights for m in ens.members]
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                assert not np.array_equal(weights[i], weights[j])

    def test_identical_learners_keep_whole_group(self, task, monkeypatch):
        # force every member of every group onto the same seed
        X, y = task
        monkeypatch.setattr(recursive, "member_seed", lambda s, g, i: 1234)
        cfg = small_config(groups=1, group_size=5)
        ens = train_rmse_elm(X, y, cfg)
        # uniform chromosome wins all ties, so the full group survives both layers
        assert ens.pool_size == 5
        assert ens.n_members == 5
        single = predict(ens.members[0], X)
        assert np.allclose(ens.predict(X), single, rtol=1e-12, atol=1e-12)

    def test_validation_fraction_smoke(self, task):
        X, y = task
        ens = train_rmse_elm(X, y, small_config(validation_fraction=0.25))
        assert np.isfinite(ens.predict(X)).all()

    @pytest.mark.parametrize("fraction, rows", [(0.0, [80]), (0.25, [60, 20])])
    def test_members_project_their_fit_rows_once(self, task, monkeypatch, fraction, rows):
        # one block holds every fit row, so a member's predictions on them come
        # from its readout's H; a hold-out of 20 rows is still projected for them
        X, y = task
        projected = []
        hidden_output = rmse_elm.elm.hidden_output

        def spy(layer, part):
            projected.append(part.shape[0])
            return hidden_output(layer, part)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        cfg = small_config(validation_fraction=fraction)
        train_rmse_elm(X, y, cfg)
        assert projected == rows * (cfg.groups * cfg.group_size)

    def test_group_predictions_on_fit_rows_are_the_members_predict(self, task):
        # a group holds its members without their layers: a member whose layer
        # is redrawn predicts bit for bit what selection saw, on the fit rows
        # or a hold-out
        X, y = task
        cfg = small_config()
        for est_rows in (None, np.arange(20)):
            X_est = X if est_rows is None else X[est_rows]
            models, preds = recursive._train_group(X, y, None, est_rows, 4, cfg, 1)
            assert all(m.hidden is None for m in models)
            members = recursive._redraw(X, cfg, models, [(1, i) for i in range(4)])
            assert all(a is b for a, b in zip(members, models))
            for m, p in zip(members, preds):
                assert np.array_equal(p, predict(m, X_est))


class TestEGasen:
    def test_single_group_matches_gasen(self, task):
        X, y = task
        a = train_e_gasen(X, y, small_config(groups=1, group_size=6))
        # GASEN-ELM is one group: `groups` and `threshold2` do not apply
        b = train_gasen_elm(X, y, small_config(groups=3, group_size=6, threshold2=0.5))
        assert a.provenance == b.provenance
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_pool_is_averaged_without_second_selection(self, task):
        X, y = task
        ens = train_e_gasen(X, y, small_config())
        assert set(ens.provenance) == set(ens.pool_provenance)


class TestGasenElm:
    def test_single_learner_is_plain_elm(self, task):
        X, y = task
        ens = train_gasen_elm(X, y, small_config(group_size=1, seed=3))
        solo = train_elm(X, y, 6, "sigmoid", seed=member_seed(3, 0, 0))
        assert np.array_equal(ens.predict(X), predict(solo, X))

    def test_survivors_subset_of_group(self, task):
        X, y = task
        ens = train_gasen_elm(X, y, small_config(group_size=8, seed=4))
        assert 1 <= ens.n_members <= 8
        assert set(ens.provenance) <= {(0, i) for i in range(8)}


SELECTIVE = [train_rmse_elm, train_e_gasen, train_gasen_elm]


class TestRedrawnMembers:
    """A selective fit returns the models `train_elm` made, their layers
    redrawn from their seeds: each equals the ELM `train_elm` trains on the
    fit rows at its seed."""

    @pytest.mark.parametrize("column", [False, True], ids=["1d", "n1"])
    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    @pytest.mark.parametrize("train", SELECTIVE)
    def test_member_is_the_elm_trained_at_its_seed(self, task, train, fraction, column):
        X, y = task
        y = y[:, None] if column else y
        cfg = small_config(validation_fraction=fraction)
        fit_rows, _ = recursive._estimation_split(X, y, fraction, cfg.seed)
        X_fit, y_fit = (X, y) if fit_rows is None else (X[fit_rows], y[fit_rows])
        ens = train(X, y, cfg)
        for m, (g, i) in zip(ens.members, ens.provenance):
            solo = train_elm(X_fit, y_fit, cfg.n_hidden, cfg.activation,
                             seed=member_seed(cfg.seed, g, i))
            assert np.array_equal(m.hidden.input_weights, solo.hidden.input_weights)
            assert np.array_equal(m.hidden.biases, solo.hidden.biases)
            assert np.array_equal(m.output_weights, solo.output_weights)
            assert m.squeeze_output is solo.squeeze_output is not column
            assert predict(m, X).shape == y.shape
        assert ens.predict(X).shape == y.shape


def degenerate_columns(rng, n, kinds):
    """One column per kind: random, constant, or a copy of the first column."""
    first = rng.normal(size=n)
    cols = {"random": lambda: rng.normal(size=n), "constant": lambda: np.full(n, 0.7),
            "duplicate": lambda: first}
    return np.column_stack([first] + [cols[k]() for k in kinds])


class TestDegenerateInputs:
    """Fewer rows than nodes (the readout and the fit-row predictions come
    from gelsd's H), constant and duplicate columns, one-member groups."""

    @settings(max_examples=40, deadline=None)
    @given(
        train=st.sampled_from(SELECTIVE),
        n=st.integers(2, 12),
        kinds=st.lists(st.sampled_from(["random", "constant", "duplicate"]), max_size=3),
        n_hidden=st.integers(1, 16),
        group_size=st.integers(1, 3),
        fraction=st.sampled_from([0.0, 0.25]),
        activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)),
        column=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_fit_is_finite_deterministic_and_redrawn_exactly(
        self, train, n, kinds, n_hidden, group_size, fraction, activation, column, seed
    ):
        rng = np.random.default_rng(seed)
        X = degenerate_columns(rng, n, kinds)
        y = rng.normal(size=(n, 1) if column else n)
        cfg = small_config(groups=2, group_size=group_size, n_hidden=n_hidden,
                           activation=activation, validation_fraction=fraction, seed=seed)
        seen = {}  # (group, index) -> the estimation rows and the predictions selection saw
        train_group = recursive._train_group

        def spy(X, y, fit_rows, est_rows, n_models, config, group):
            models, preds = train_group(X, y, fit_rows, est_rows, n_models, config, group)
            X_est = X if est_rows is None else X[est_rows]
            seen.update({(group, i): (X_est, p) for i, p in enumerate(preds)})
            return models, preds

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recursive, "_train_group", spy)
            ens = train(X, y, cfg)
        again = train(X, y, cfg)
        out = ens.predict(X)
        assert out.shape == y.shape and np.isfinite(out).all()
        assert np.array_equal(out, again.predict(X))
        assert ens.provenance == again.provenance
        assert set(ens.provenance) <= set(ens.pool_provenance)
        assert set(ens.provenance) <= set(seen)
        for m, prov in zip(ens.members, ens.provenance):
            X_est, p = seen[prov]
            assert np.array_equal(np.ravel(predict(m, X_est)), p)

    @settings(max_examples=20, deadline=None)
    @given(
        method=st.sampled_from(["ELM", "SimpleEnsemble"]),
        n=st.integers(2, 12),
        kinds=st.lists(st.sampled_from(["random", "constant", "duplicate"]), max_size=3),
        distinct=st.sampled_from([None, 1, 2, 3]),
        n_hidden=st.integers(1, 16),
        activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)),
        column=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_elm_and_simple_average_are_finite_and_deterministic(
        self, method, n, kinds, distinct, n_hidden, activation, column, seed
    ):
        # through bench's method table; `distinct` repeats the rows from that
        # many distinct ones, so a sigmoid layer of more nodes has that exact rank
        rng = np.random.default_rng(seed)
        X = degenerate_columns(rng, n, kinds)
        if distinct is not None:
            X = X[np.arange(n) % distinct]
        y = rng.normal(size=(n, 1) if column else n)
        cfg = small_config(n_hidden=n_hidden, activation=activation, seed=seed)
        out = bench.fit(method, X, y, cfg).predict(X)
        assert out.shape == y.shape and np.isfinite(out).all()
        assert np.array_equal(out, bench.fit(method, X, y, cfg).predict(X))


class TestSurvivorCounts:
    """Every ensemble counts each group's survivors from its pool provenance."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    @pytest.mark.parametrize("train", [train_rmse_elm, train_e_gasen, train_gasen_elm])
    def test_counts_are_the_sizes_of_the_group_selections(self, task, monkeypatch, train,
                                                          fraction):
        X, y = task
        cfg = small_config(groups=3, group_size=6, validation_fraction=fraction)
        sizes = []  # the size of each selection, in call order
        select_by_threshold = recursive.select_by_threshold

        def spy(weights, threshold):
            chosen = select_by_threshold(weights, threshold)
            sizes.append(chosen.size)
            return chosen

        monkeypatch.setattr(recursive, "select_by_threshold", spy)
        ens = train(X, y, cfg)
        pool_stage = train is train_rmse_elm
        groups = 1 if train is train_gasen_elm else cfg.groups
        assert len(sizes) == groups + pool_stage
        assert ens.group_survivor_counts == tuple(sizes[:groups])
        assert ens.pool_size == sum(ens.group_survivor_counts)
        assert ens.n_members == (sizes[-1] if pool_stage else ens.pool_size)

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    @pytest.mark.parametrize("method", ["RMSE-ELM", "E-GASEN", "GASEN-ELM", "SimpleEnsemble"])
    def test_members_are_chosen_from_the_pool(self, task, method, fraction):
        # the subset chain for every ensemble: trained models >= pool >= members;
        # without a pool stage the pool is the members
        X, y = task
        cfg = small_config(groups=3, group_size=6, validation_fraction=fraction)
        ens = bench.fit(method, X, y, cfg)
        trained = {
            "GASEN-ELM": {(0, i) for i in range(cfg.group_size)},
            "SimpleEnsemble": {(0, i) for i in range(cfg.groups * cfg.group_size)},
        }.get(method, {(g, i) for g in range(cfg.groups) for i in range(cfg.group_size)})
        assert set(ens.provenance) <= set(ens.pool_provenance) <= trained
        assert len(set(ens.provenance)) == ens.n_members >= 1
        assert len(set(ens.pool_provenance)) == ens.pool_size
        if method != "RMSE-ELM":
            assert ens.pool_provenance == ens.provenance
        assert sum(ens.group_survivor_counts) == ens.pool_size
        if method == "SimpleEnsemble":  # nothing is selected
            assert ens.group_survivor_counts == (cfg.groups * cfg.group_size,)

    def test_pool_defaults_to_the_members(self, task):
        X, y = task
        members = tuple(train_elm(X, y, 6, seed=s) for s in range(3))
        ens = ElmEnsemble(members, [[1, 0], [0, 2], [1, 1]])
        assert ens.pool_provenance == ens.provenance == ((1, 0), (0, 2), (1, 1))
        assert ens.pool_size == 3
        assert ens.group_survivor_counts == (2, 1)
        pooled = ElmEnsemble(members, ens.provenance, [(0, 2), (1, 0), (1, 1), (1, 3)])
        assert pooled.pool_provenance == ((0, 2), (1, 0), (1, 1), (1, 3))
        assert pooled.group_survivor_counts == (1, 3)


class TestIdenticalMembers:
    """Learners that are all one model tie at every weight vector, so each
    GA keeps its uniform start and every selection keeps the whole group."""

    @pytest.mark.parametrize("train, groups", [(train_e_gasen, 2), (train_gasen_elm, 1)])
    def test_uniform_weights_keep_every_member(self, task, monkeypatch, train, groups):
        X, y = task
        monkeypatch.setattr(recursive, "member_seed", lambda s, g, i: 1234)
        weights = []
        ga_evolve = recursive.ga_evolve

        def spy(*args, **kwargs):
            evolved = ga_evolve(*args, **kwargs)
            weights.append(evolved.w)
            return evolved

        monkeypatch.setattr(recursive, "ga_evolve", spy)
        cfg = small_config(groups=2, group_size=5)
        ens = train(X, y, cfg)
        assert len(weights) == groups
        for w in weights:
            assert np.all(w == w[0]) and np.isclose(w[0], 1.0 / cfg.group_size)
        group = {(g, i) for g in range(groups) for i in range(cfg.group_size)}
        assert set(ens.provenance) == set(ens.pool_provenance) == group
        assert ens.n_members == ens.pool_size == len(group)
        single = predict(ens.members[0], X)
        assert np.allclose(ens.predict(X), single, rtol=1e-12, atol=1e-12)


class TestWorkingSet:
    """Layer 1 holds the pool and one group: a group's non-survivors are
    freed once its survivors are in the pool, before the next group trains.
    A member held by the fit has no hidden layer until it is returned."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    @pytest.mark.parametrize("train", [train_rmse_elm, train_e_gasen])
    def test_the_next_group_starts_with_only_the_survivors_alive(
        self, monkeypatch, train, fraction
    ):
        ds = make_synthetic_regression(n_samples=120, n_features=4, seed=1, noise_std=0.2)
        cfg = small_config(groups=3, group_size=8, n_hidden=10, validation_fraction=fraction)
        trained = {}  # (group, index) -> weak reference to the member
        alive = []  # live members of group g when group g + 1's first one trains

        def spy(*args, seed, **kwargs):
            _, group, index = seed.spawn_key
            if group > 0 and index == 0:
                previous = (trained[(group - 1, i)] for i in range(cfg.group_size))
                alive.append(sum(ref() is not None for ref in previous))
            model = train_elm(*args, seed=seed, **kwargs)
            trained[(group, index)] = weakref.ref(model)
            return model

        monkeypatch.setattr(recursive, "train_elm", spy)
        ens = train(ds.X, ds.y, cfg)
        assert alive == list(ens.group_survivor_counts[:-1])
        assert sum(alive) < len(alive) * cfg.group_size  # some member was dropped

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    @pytest.mark.parametrize("train", SELECTIVE)
    def test_no_trained_layer_is_alive_when_the_next_member_trains(
        self, monkeypatch, train, fraction
    ):
        ds = make_synthetic_regression(n_samples=120, n_features=4, seed=1, noise_std=0.2)
        cfg = small_config(groups=3, group_size=8, n_hidden=10, validation_fraction=fraction)
        models, layers = [], []  # every model train_elm made, and weak references to its layer
        alive = []  # live layers when each member starts training

        def spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in layers))
            model = train_elm(*args, **kwargs)
            models.append(model)
            layers.append(weakref.ref(model.hidden))
            return model

        monkeypatch.setattr(recursive, "train_elm", spy)
        ens = train(ds.X, ds.y, cfg)
        assert alive == [0] * len(models)
        assert all(ref() is None for ref in layers)  # the returned members' layers are redrawn
        # the members are models train_elm made, and only they have a layer again
        returned = {id(m) for m in ens.members}
        assert returned <= {id(m) for m in models}
        assert all((m.hidden is not None) == (id(m) in returned) for m in models)

    @pytest.mark.parametrize("n, d, fraction", [(400, 20, 0.0), (2000, 40, 0.25)],
                             ids=["on-fit-rows", "hold-out"])
    def test_fit_peak_is_pool_one_group_and_one_readout(self, n, d, fraction):
        # bh-rmse's shape at the default config, and a hold-out over several
        # row blocks: while the last group trains, the fit holds the earlier
        # groups' survivors and the group's members, each as its readout and
        # estimation-row predictions, and one member's working set; the
        # members it returns add their redrawn layers. On the fit rows that
        # working set is its readout's (H, and H'H with its shifted copy and
        # Cholesky factor). A hold-out copies no part of X: a member gathers
        # one block of its fit rows at a time for its readout, then its
        # estimation rows and their H for its predictions, and the fit keeps
        # the targets of both row sets. At 40 inputs a copy of the 1500 fit
        # rows (469 KiB) cannot hide in the bound. 128 KiB covers the Python
        # objects and numpy's ufunc buffers
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, d))
        y = X[:, 0] + np.sin(X[:, 1]) + 0.1 * rng.normal(size=n)
        cfg = EnsembleConfig(validation_fraction=fraction)
        tracemalloc.start()
        try:
            ens = train_rmse_elm(X, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        L = cfg.n_hidden
        n_est = round(fraction * n) if fraction else n
        m = ens.members[0]
        kept = m.output_weights.nbytes + n_est * 8
        layer = m.hidden.input_weights.nbytes + m.hidden.biases.nbytes
        held = sum(ens.group_survivor_counts[:-1]) + cfg.group_size
        if fraction:
            block = rmse_elm.elm._BLOCK // L
            assert n - n_est > block  # the fit rows span several blocks
            readout = block * (L + d) + 3 * L * L
            member = max(readout, n_est * (L + d)) + n
        else:
            member = n * L + 3 * L * L
        assert peak <= held * kept + ens.n_members * layer + member * 8 + 128 * 1024


def assert_same_ensemble(a, b, X):
    """Bit for bit the same fit: predictions, provenance, pool, readouts and layers."""
    assert np.array_equal(a.predict(X), b.predict(X))
    assert a.provenance == b.provenance
    assert a.pool_provenance == b.pool_provenance
    assert a.n_members == b.n_members
    for m, n in zip(a.members, b.members):
        assert np.array_equal(m.output_weights, n.output_weights)
        assert np.array_equal(m.hidden.input_weights, n.hidden.input_weights)
        assert np.array_equal(m.hidden.biases, n.hidden.biases)


class TestLayer1Readings:
    """At one config GASEN-ELM's members are the pool's group-0 entries and
    E-GASEN's the whole pool, so both are readings of one RMSE-ELM fit."""

    @pytest.mark.parametrize("threshold1", [None, 0.0, 1.0])
    @pytest.mark.parametrize("groups, group_size", [(4, 20), (2, 1), (1, 5)])
    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_readings_are_the_standalone_fits(self, task, monkeypatch, fraction, groups,
                                              group_size, threshold1):
        X, y = task
        X_test = X[::-1] + 0.5  # rows no fit saw
        cfg = small_config(groups=groups, group_size=group_size, threshold1=threshold1,
                           validation_fraction=fraction)
        gasen, e_gasen = train_gasen_elm(X, y, cfg), train_e_gasen(X, y, cfg)
        trained = []  # every model the pass's train_elm made

        def spy(*args, **kwargs):
            trained.append(train_elm(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(recursive, "train_elm", spy)
        rmse = train_rmse_elm(X, y, cfg)
        before = rmse.predict(X_test)

        def read(groups=None):
            """The reading, and the pool models it gave a layer; it must touch no other."""
            layers = {id(m): m.hidden for m in rmse.pool_members}
            reading = layer1_reading(rmse, X, cfg, groups)
            assigned = {id(m) for m in rmse.pool_members if m.hidden is not layers[id(m)]}
            assert assigned <= {i for i, layer in layers.items() if layer is None}
            return reading, assigned

        # narrowest first, as bench takes them: each redraws only the layers still dropped
        first, assigned = read(groups=1)
        assert assigned == {id(m) for m in first.members} - {id(m) for m in rmse.members}
        whole, assigned = read()
        assert assigned == {id(m) for m in whole.members} - {
            id(m) for m in rmse.members + first.members}
        assert_same_ensemble(first, gasen, X_test)
        assert_same_ensemble(whole, e_gasen, X_test)
        assert np.array_equal(rmse.predict(X_test), before)  # the pass is left as it was
        made = {id(m) for m in trained}
        pool = {id(m) for m in rmse.pool_members}
        assert len(rmse.pool_members) == rmse.pool_size
        assert pool <= made
        for reading in (first, whole):
            assert {id(m) for m in reading.members} <= pool

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_one_group_read_from_an_e_gasen_fit(self, task, fraction):
        X, y = task
        cfg = small_config(groups=3, group_size=5, validation_fraction=fraction)
        e_gasen = train_e_gasen(X, y, cfg)
        assert_same_ensemble(layer1_reading(e_gasen, X, cfg, groups=1),
                             train_gasen_elm(X, y, cfg), X)
        assert_same_ensemble(layer1_reading(e_gasen, X, cfg), e_gasen, X)

    @pytest.mark.parametrize("train", SELECTIVE)
    def test_stage_times_cover_the_fit(self, task, train):
        X, y = task
        cfg = small_config(groups=3)
        t0 = time.perf_counter()
        ens = train(X, y, cfg)
        elapsed = time.perf_counter() - t0
        stages = ens.stage_s
        assert len(stages["groups"]) == (1 if train is train_gasen_elm else cfg.groups)
        spans = stages["groups"] + (stages["pool"], stages["redraw"])
        assert all(s >= 0.0 for s in spans)
        assert sum(spans) <= elapsed


class TestSharedPredictions:
    """`ElmEnsemble.predict(X, memo=)`: the readings of one fit share its
    models, so one memo predicts each member once for all of them."""

    @staticmethod
    def readings(X, y, fraction):
        """GASEN-ELM, E-GASEN and RMSE-ELM of one fit, as `bench` reads them."""
        cfg = small_config(groups=3, group_size=5, validation_fraction=fraction)
        rmse = train_rmse_elm(X, y, cfg)
        return (layer1_reading(rmse, X, cfg, groups=1), layer1_reading(rmse, X, cfg), rmse)

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_every_order_equals_predicting_alone_from_one_call_per_member(
            self, task, monkeypatch, fraction):
        X, y = task
        X_test = X[::-1] + 0.5
        readings = self.readings(X, y, fraction)
        alone = [r.predict(X_test) for r in readings]
        distinct = {id(m) for r in readings for m in r.members}
        assert len(distinct) < sum(r.n_members for r in readings)  # the readings overlap
        predicted = []

        def spy(model, X):
            predicted.append(id(model))
            return predict(model, X)

        monkeypatch.setattr(recursive, "predict", spy)
        for order in itertools.permutations(range(len(readings))):
            predicted.clear()
            memo = {}
            for i in order:
                assert np.array_equal(readings[i].predict(X_test, memo=memo), alone[i]), order
            assert sorted(predicted) == sorted(distinct), order

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_a_returned_prediction_shares_no_memory_with_the_memo(self, task, fraction):
        X, y = task
        X_test = X[::-1] + 0.5
        fit = self.readings(X, y, fraction)
        rmse = fit[-1]
        # one member: its result is the memo's vector divided by 1, so it must be a copy
        readings = (ElmEnsemble(rmse.members[:1], rmse.provenance[:1]),) + fit
        alone = [r.predict(X_test) for r in readings]
        for order in itertools.permutations(range(len(readings))):
            memo = {}
            for i in order:
                out = readings[i].predict(X_test, memo=memo)
                assert np.array_equal(out, alone[i]), order
                out[:] = np.nan  # a caller may reuse what it was given


def simple_average(X, y, cfg):
    """The simple average of the config's `groups * group_size` members, as bench fits it."""
    return train_simple_ensemble(X, y, cfg.groups * cfg.group_size, cfg.n_hidden,
                                 cfg.activation, seed=cfg.seed)


class TestZeroThresholds:
    """A threshold of 0 selects nothing: its stage builds no correlation
    matrix and runs no GA, and when both thresholds are 0 no member takes
    estimation-row predictions. So every ensemble is `_gasen` at a config:
    the simple average is one group at both thresholds 0."""

    @pytest.mark.parametrize("train, streams", [
        (lambda X, y, c: train_rmse_elm(X, y, replace(c, threshold1=0.0)),
         [(recursive._POOL_GA, 0)]),
        (train_e_gasen, [(recursive._GROUP_GA, g) for g in range(3)]),
        (simple_average, []),
    ], ids=["rmse-elm-threshold1-0", "e-gasen", "simple-average"])
    def test_a_zero_threshold_stage_runs_no_ga(self, task, monkeypatch, train, streams):
        X, y = task
        seen = []  # the GA stream of each ga_evolve call
        ga_evolve = recursive.ga_evolve

        def spy(corr, config, seed):
            seen.append(seed.spawn_key)
            return ga_evolve(corr, config, seed=seed)

        monkeypatch.setattr(recursive, "ga_evolve", spy)
        train(X, y, small_config(groups=3))
        assert seen == streams

    @pytest.mark.parametrize("train, fraction", [
        (simple_average, 0.0),
        (train_rmse_elm, 0.0),
        (train_rmse_elm, 0.25),
    ], ids=["simple-average", "rmse-elm", "rmse-elm-hold-out"])
    def test_nothing_selected_takes_no_estimation_predictions(self, task, monkeypatch, train,
                                                              fraction):
        X, y = task
        cfg = small_config(threshold1=0.0, threshold2=0.0, validation_fraction=fraction)
        fitted, predicted = [], []

        def train_spy(*args, **kwargs):
            fitted.append(kwargs.get("fitted", "left out"))
            return train_elm(*args, **kwargs)

        def predict_spy(model, X):
            predicted.append(np.shape(X))
            return predict(model, X)

        monkeypatch.setattr(recursive, "train_elm", train_spy)
        monkeypatch.setattr(recursive, "predict", predict_spy)
        ens = train(X, y, cfg)
        assert fitted == [None] * (cfg.groups * cfg.group_size)
        assert predicted == []
        assert ens.n_members == cfg.groups * cfg.group_size

    def test_the_simple_average_holds_no_layer_while_a_later_member_trains(
        self, task, monkeypatch
    ):
        X, y = task
        models, layers = [], []  # every model train_elm made, and weak references to its layer
        alive = []  # live layers when each member starts training

        def spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in layers))
            model = train_elm(*args, **kwargs)
            models.append(model)
            layers.append(weakref.ref(model.hidden))
            return model

        monkeypatch.setattr(recursive, "train_elm", spy)
        ens = train_simple_ensemble(X, y, n_learners=6, n_hidden=5, activation="gaussian", seed=2)
        assert alive == [0] * 6
        assert all(ref() is None for ref in layers)  # the members' layers are redrawn
        assert [id(m) for m in ens.members] == [id(m) for m in models]
        assert ens.provenance == tuple((0, i) for i in range(6))
        for m, (g, i) in zip(ens.members, ens.provenance):
            solo = train_elm(X, y, 5, "gaussian", seed=member_seed(2, g, i))
            assert np.array_equal(m.hidden.input_weights, solo.hidden.input_weights)
            assert np.array_equal(m.hidden.biases, solo.hidden.biases)
            assert np.array_equal(m.output_weights, solo.output_weights)

    @pytest.mark.parametrize("fraction", [0.0, 0.25])
    def test_rmse_elm_at_threshold2_0_is_e_gasen(self, task, fraction):
        X, y = task
        cfg = small_config(groups=3, group_size=5, validation_fraction=fraction)
        rmse = train_rmse_elm(X, y, replace(cfg, threshold2=0.0))
        e_gasen = train_e_gasen(X, y, cfg)
        assert_same_ensemble(rmse, e_gasen, X[::-1] + 0.5)
        assert rmse.pool_provenance == rmse.provenance


class TestSimpleEnsemble:
    def test_prediction_is_member_mean(self, task):
        X, y = task
        ens = train_simple_ensemble(X, y, n_learners=5, n_hidden=6, seed=2)
        member_preds = [predict(m, X) for m in ens.members]
        assert np.array_equal(ens.predict(X), np.mean(member_preds, axis=0))

    @pytest.mark.parametrize("outputs", [None, 3])
    def test_prediction_is_member_mean_bit_for_bit(self, task, outputs):
        # more members than numpy's eight partial sums, and 1-D and 2-D outputs
        X, y = task
        Y = y if outputs is None else np.column_stack([y, -2.0 * y, np.sin(y)])
        members = tuple(train_elm(X, Y, 6, seed=s) for s in range(12))
        ens = ElmEnsemble(members=members, provenance=tuple((0, i) for i in range(12)))
        expected = np.mean([predict(m, X) for m in members], axis=0)
        assert ens.predict(X).shape == expected.shape
        assert np.array_equal(ens.predict(X), expected)

    def test_single_learner_is_plain_elm(self, task):
        X, y = task
        ens = train_simple_ensemble(X, y, n_learners=1, n_hidden=6, seed=2)
        solo = train_elm(X, y, 6, "sigmoid", seed=member_seed(2, 0, 0))
        assert np.array_equal(ens.predict(X), predict(solo, X))

    def test_training_mse_matches_uniform_quadratic_form(self, task):
        # simple-average MSE on the estimation set == sum(C)/N^2
        X, y = task
        ens = train_simple_ensemble(X, y, n_learners=6, n_hidden=6, seed=5)
        preds = [np.ravel(predict(m, X)) for m in ens.members]
        corr = correlation_matrix(preds, y)
        uniform = np.full(6, 1.0 / 6.0)
        direct = mse(ens.predict(X), y)
        assert abs(ensemble_error(uniform, corr) - direct) < 1e-10


class TestPlumbing:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_targets_rejected(self, task, bad):
        X, y = task
        y = y.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="train_elm: Y contains non-finite"):
            train_rmse_elm(X, y, small_config())

    @pytest.mark.parametrize("train", [
        train_rmse_elm,
        train_e_gasen,
        lambda X, y, c: train_rmse_elm(X, y, replace(c, threshold1=0.0, threshold2=0.0)),
    ], ids=["rmse-elm", "e-gasen", "thresholds-0"])
    @pytest.mark.parametrize("where, bad, message", [
        ("X", np.inf, "X contains non-finite entries in the hold-out rows"),
        ("X", np.nan, "X contains non-finite entries in the hold-out rows"),
        ("y", np.nan, "the targets contain non-finite entries in the hold-out rows"),
    ], ids=["X-inf", "X-nan", "y-nan"])
    def test_non_finite_hold_out_rows_rejected_before_training(self, task, monkeypatch, train,
                                                              where, bad, message):
        # train_elm checks only the fit rows, so the hold-out is checked where it is drawn
        X, y = task[0].copy(), task[1].copy()
        cfg = small_config(validation_fraction=0.25)
        _, est_rows = recursive._estimation_split(X, y, cfg.validation_fraction, cfg.seed)
        if where == "X":
            X[est_rows[0], 1] = bad
        else:
            y[est_rows[0]] = bad
        trained = []

        def spy(*args, **kwargs):
            trained.append(args)
            return train_elm(*args, **kwargs)

        monkeypatch.setattr(recursive, "train_elm", spy)
        with pytest.raises(ValueError, match=message):
            train(X, y, cfg)
        assert trained == []

    def test_a_pool_model_left_out_cannot_predict(self, task):
        # the fit keeps the pool models it does not return as readouts alone
        X, y = task
        ens = train_rmse_elm(X, y, small_config(groups=3, group_size=6))
        members = {id(m) for m in ens.members}
        left_out = [m for m in ens.pool_members if id(m) not in members]
        assert left_out
        for m in left_out:
            with pytest.raises(ValueError, match="predict: the model has no hidden layer"):
                predict(m, X)

    def test_member_seeds_distinct(self):
        keys = {member_seed(0, g, i).spawn_key for g in range(4) for i in range(20)}
        assert len(keys) == 80

    @pytest.mark.parametrize("train", [
        train_rmse_elm,
        lambda X, y, c: train_simple_ensemble(X, y, 8, c.n_hidden, seed=None),
    ], ids=["rmse-elm", "simple-average"])
    def test_a_seed_of_none_is_drawn_once_so_every_layer_redraws_exactly(
        self, task, monkeypatch, train
    ):
        X, y = task
        trained = {}  # id of each model train_elm made -> its layer's arrays

        def spy(*args, **kwargs):
            model = train_elm(*args, **kwargs)
            trained[id(model)] = (model.hidden.input_weights, model.hidden.biases)
            return model

        monkeypatch.setattr(recursive, "train_elm", spy)
        cfg = small_config(seed=None)
        assert isinstance(cfg.seed, int)
        ens = train(X, y, cfg)
        for m in ens.members:
            weights, biases = trained[id(m)]
            assert np.array_equal(m.hidden.input_weights, weights)
            assert np.array_equal(m.hidden.biases, biases)

    def test_ensemble_requires_members(self):
        with pytest.raises(ValueError):
            ElmEnsemble(members=(), provenance=())

    def test_config_validation(self, task):
        X, y = task
        with pytest.raises(ValueError):
            EnsembleConfig(groups=0)
        with pytest.raises(ValueError):
            EnsembleConfig(threshold1=1.5)
        with pytest.raises(ValueError):
            EnsembleConfig(validation_fraction=1.0)
        with pytest.raises(ValueError, match="unknown activation"):
            EnsembleConfig(activation="relu")
        for seed in (-1, 1.5, "3"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                EnsembleConfig(seed=seed)
        assert EnsembleConfig(seed=np.int64(3)).seed == 3
        assert EnsembleConfig(seed=None).seed >= 0  # None draws one
        # a hold-out of one row takes the only row
        with pytest.raises(ValueError, match="validation_fraction leaves no training rows"):
            train_rmse_elm(X[:1], y[:1], small_config(validation_fraction=0.25))
        with pytest.raises(ValueError, match="n_learners must be positive"):
            train_simple_ensemble(X, y, n_learners=0)
