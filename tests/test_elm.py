import contextlib
import dataclasses
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rmse_elm
from rmse_elm.elm import (
    DimensionError,
    ElmModel,
    HiddenLayer,
    hidden_output,
    make_hidden_layer,
    predict,
    pseudoinverse,
    train_elm,
)


def penrose_residuals(a, pinv):
    """Independent oracle: Frobenius residuals of the four Penrose conditions."""
    return (
        np.linalg.norm(a @ pinv @ a - a),
        np.linalg.norm(pinv @ a @ pinv - pinv),
        np.linalg.norm((a @ pinv).T - a @ pinv),
        np.linalg.norm((pinv @ a).T - pinv @ a),
    )


class TestMakeHiddenLayer:
    def test_minimal_shape_and_range(self):
        layer = make_hidden_layer(1, 1, "sigmoid", seed=7)
        assert layer.input_weights.shape == (1, 1)
        assert layer.biases.shape == (1,)
        assert -1.0 < layer.input_weights[0, 0] < 1.0
        assert -1.0 < layer.biases[0] < 1.0

    def test_deterministic_per_seed(self):
        a = make_hidden_layer(5, 9, "sigmoid", seed=123)
        b = make_hidden_layer(5, 9, "sigmoid", seed=123)
        assert np.array_equal(a.input_weights, b.input_weights)
        assert np.array_equal(a.biases, b.biases)
        c = make_hidden_layer(5, 9, "sigmoid", seed=124)
        assert not np.array_equal(a.input_weights, c.input_weights)

    def test_benchmark_shape(self):
        layer = make_hidden_layer(13, 50, "sigmoid", seed=0)
        assert layer.input_weights.shape == (50, 13)
        assert np.all(np.abs(layer.input_weights) < 1.0)

    @pytest.mark.parametrize("d,L", [(0, 5), (5, 0), (0, 0)])
    def test_rejects_empty_dimensions(self, d, L):
        with pytest.raises(DimensionError):
            make_hidden_layer(d, L, "sigmoid", seed=0)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            make_hidden_layer(2, 2, "relu6", seed=0)

    @pytest.mark.parametrize("name", ["hardlim", "hardlimit", "logistic"])
    def test_removed_names_are_unknown(self, name):
        with pytest.raises(ValueError, match=rf"unknown activation '{name}'; choose one of "
                                             r"\['gaussian', 'multiquadric', 'sigmoid'\]"):
            make_hidden_layer(2, 3, name, seed=0)

    @pytest.mark.parametrize("name, kind", [("Sigmoid", "sigmoid"), (" GAUSSIAN ", "gaussian"),
                                            ("multi-quadric", "multiquadric"),
                                            ("multi_Quadric", "multiquadric")])
    def test_case_dash_and_underscore_are_folded(self, name, kind):
        assert make_hidden_layer(2, 3, name, seed=0).activation == kind


class TestHiddenOutput:
    def test_sigmoid_at_zero_is_half(self):
        # weights (1, 1), bias chosen so w.x + b = 0
        layer = HiddenLayer(np.array([[0.5]]), np.array([-1.0]), "sigmoid")
        out = hidden_output(layer, np.array([[2.0]]))
        assert out[0, 0] == pytest.approx(0.5, abs=0)

    def test_sigmoid_limits_are_exact_and_silent(self):
        layer = HiddenLayer(np.array([[1.0]]), np.array([0.0]), "sigmoid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hidden_output(layer, np.array([[-800.0], [800.0]]))
        assert out.ravel().tolist() == [0.0, 1.0]

    def test_gaussian_at_centre_is_one(self):
        centre = np.array([[0.4, -0.2, 0.9]])
        for b in (0.01, 0.5, 5.0):
            layer = HiddenLayer(centre, np.array([b]), "gaussian")
            out = hidden_output(layer, centre.copy())
            assert out[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_multiquadric_formula(self):
        layer = HiddenLayer(np.array([[1.0, 0.0]]), np.array([2.0]), "multiquadric")
        out = hidden_output(layer, np.array([[4.0, 4.0]]))
        # sqrt(|x - w|^2 + b^2) = sqrt(9 + 16 + 4)
        assert out[0, 0] == pytest.approx(np.sqrt(29.0), rel=1e-14)

    @pytest.mark.parametrize("activation", ["gaussian", "multiquadric"])
    def test_distance_nodes_match_a_double_loop(self, activation):
        # column t belongs to centre t, for every row
        rng = np.random.default_rng(3)
        layer = make_hidden_layer(4, 6, activation, seed=2)
        X = rng.normal(size=(5, 4))
        expected = np.empty((5, 6))
        for i, x in enumerate(X):
            for t, (w, b) in enumerate(zip(layer.input_weights, layer.biases)):
                sq = sum((xk - wk) ** 2 for xk, wk in zip(x, w))
                if activation == "gaussian":
                    expected[i, t] = np.exp(-(b**2) * sq)
                else:
                    expected[i, t] = np.sqrt(sq + b**2)
        assert np.allclose(hidden_output(layer, X), expected, rtol=1e-14, atol=0)

    def test_dimension_mismatch(self):
        layer = make_hidden_layer(3, 4, "sigmoid", seed=0)
        with pytest.raises(DimensionError):
            hidden_output(layer, np.zeros((5, 2)))


class TestPseudoinverse:
    def test_identity(self):
        for k in (1, 3, 8):
            assert np.allclose(pseudoinverse(np.eye(k)), np.eye(k), atol=1e-14)

    def test_zero_matrix(self):
        out = pseudoinverse(np.zeros((4, 6)))
        assert out.shape == (6, 4)
        assert np.all(out == 0.0)

    def test_penrose_on_full_rank(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(20, 5))
        residuals = penrose_residuals(a, pseudoinverse(a))
        assert max(residuals) < 1e-8

    def test_penrose_on_rank_deficient(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 9))  # rank 3 in 12x9
        residuals = penrose_residuals(a, pseudoinverse(a))
        assert max(residuals) < 1e-8

    def test_rejects_non_finite(self):
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pseudoinverse(a)
        a[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            pseudoinverse(a)

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            pseudoinverse(np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**31),
        scale=st.floats(1e-3, 1e3),
    )
    def test_penrose_property(self, n, m, seed, scale):
        a = np.random.default_rng(seed).normal(size=(n, m)) * scale
        residuals = penrose_residuals(a, pseudoinverse(a))
        assert max(residuals) < 1e-8 * max(1.0, scale)


class TestTrainElm:
    def test_interpolation_at_n_equals_l(self):
        # with as many hidden nodes as samples the fit is exact up to conditioning
        rng = np.random.default_rng(3)
        n = 12
        X = rng.uniform(-1, 1, size=(n, 2))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2
        model = train_elm(X, y, n_hidden=n, activation="sigmoid", seed=5)
        residual = np.linalg.norm(predict(model, X) - y) / np.linalg.norm(y)
        assert residual < 1e-4

    def test_zero_targets_give_zero_model(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 3))
        model = train_elm(X, np.zeros(15), n_hidden=8, seed=2)
        assert np.all(model.output_weights == 0.0)
        assert np.all(predict(model, X) == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X, y = rng.normal(size=(25, 4)), rng.normal(size=25)
        a = train_elm(X, y, 10, "sigmoid", seed=77)
        b = train_elm(X, y, 10, "sigmoid", seed=77)
        assert np.array_equal(a.output_weights, b.output_weights)
        assert np.array_equal(predict(a, X), predict(b, X))

    @pytest.mark.parametrize("activation", ["sigmoid", "gaussian", "multiquadric"])
    @pytest.mark.parametrize("outputs", [None, 2])
    def test_dropped_layer_is_redrawn_bit_for_bit(self, activation, outputs):
        # train_elm's layer is the draw make_hidden_layer makes at its seed, so an
        # ensemble can drop it and swap that draw back in
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30 if outputs is None else (30, outputs))
        seed = np.random.SeedSequence(3, spawn_key=(0, 1, 2))
        model = train_elm(X, y, 7, activation, seed=seed)
        layer, expected = model.hidden, predict(model, X)
        model.hidden = make_hidden_layer(X.shape[1], 7, activation, seed)
        assert model.hidden is not layer
        assert np.array_equal(model.hidden.input_weights, layer.input_weights)
        assert np.array_equal(model.hidden.biases, layer.biases)
        assert model.hidden.activation == layer.activation
        assert np.array_equal(predict(model, X), expected)

    def test_model_without_a_layer_builds_and_cannot_predict(self):
        # an ensemble fit holds a member as its readout alone: the model must
        # build without a layer, and only predicting needs one
        model = train_elm(np.eye(4), np.arange(4.0), 3, seed=0)
        beta = model.output_weights
        for bare in (ElmModel(hidden=None, output_weights=beta, squeeze_output=True),
                     dataclasses.replace(model, hidden=None)):
            assert bare.hidden is None
            assert np.array_equal(bare.output_weights, beta)
            with pytest.raises(ValueError, match="^predict: the model has no hidden layer$"):
                predict(bare, np.eye(4))
        with pytest.raises(DimensionError, match="one row per hidden node"):
            ElmModel(hidden=model.hidden, output_weights=np.ones((4, 1)))
        with pytest.raises(DimensionError, match="one row per hidden node"):
            ElmModel(hidden=None, output_weights=np.ones(3))

    def test_multi_output_shapes(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        model = train_elm(X, Y, 6, seed=0)
        assert model.output_weights.shape == (6, 2)
        assert predict(model, X).shape == (20, 2)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            train_elm(np.zeros((5, 2)), np.zeros(4), 3, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            train_elm(np.zeros((0, 2)), np.zeros(0), 3, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("outputs", [None, 2])
    def test_non_finite_targets_rejected(self, bad, outputs):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20 if outputs is None else (20, outputs))
        y[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train_elm(X, y, 5, seed=0)

    @pytest.mark.parametrize("activation", ["sigmoid", "gaussian", "multiquadric"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, activation, bad):
        # one inf leaves a sigmoid H finite (0 or 1), so X is checked too
        X = np.random.default_rng(5).normal(size=(20, 3))
        X[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train_elm(X, np.ones(20), 5, activation, seed=0)

    def test_non_finite_hidden_output_rejected(self):
        # finite inputs whose squared distances overflow
        X = np.full((6, 2), 1e200)
        with pytest.raises(ValueError, match="hidden layer output contains non-finite"):
            train_elm(X, np.ones(6), 4, "multiquadric", seed=0)

    def test_benchmark_shape_trains_fast(self):
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(400, 13)), rng.normal(size=400)
        # untimed: a fresh process pays for its first LAPACK call here
        train_elm(X, y, 50, "sigmoid", seed=0)
        t0 = time.perf_counter()
        train_elm(X, y, 50, "sigmoid", seed=0)
        assert time.perf_counter() - t0 < 0.1


DEGENERATE_INPUTS = ["random", "constant column", "duplicate column", "identical rows"]


def degenerate_problem(data, tall=False):
    """Draw (X, Y, n_hidden, kind, layer seed) with the input defects of real tables.

    `tall` draws at most as many hidden nodes as rows (n >= L).
    """
    n = data.draw(st.integers(1, 30), label="n")
    n_hidden = data.draw(st.integers(1, n if tall else 40), label="n_hidden")
    d = data.draw(st.integers(1, 4), label="d")
    kind = data.draw(st.sampled_from(DEGENERATE_INPUTS), label="kind")
    outputs = data.draw(st.sampled_from([None, 1, 3]), label="outputs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="data seed"))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    if kind == "constant column":
        X[:, 0] = 0.3
    elif kind == "duplicate column":
        X[:, -1] = X[:, 0]
    elif kind == "identical rows":
        X[:] = X[0]
    Y = rng.normal(size=n if outputs is None else (n, outputs))
    return X, Y, n_hidden, kind, data.draw(st.integers(0, 2**31), label="layer seed")


def repeated_rows(n=40, d=2, distinct=5):
    """n rows repeated from `distinct` Uniform(-1, 1) rows: a sigmoid layer of
    more nodes than that has rank exactly `distinct`."""
    x = np.random.default_rng(2).uniform(-1, 1, size=(distinct, d))
    return x[np.arange(n) % distinct]


class TestReadoutContract:
    """The gelsd readout is the minimum-norm least-squares solution pinv(H) @ Y.

    Elementwise equality is asserted where H's rank is exact: sigmoid
    layers over rows repeated from fewer distinct rows than nodes, and
    identical rows (rank 1) for every node kind. A smooth layer over
    near-duplicate inputs has singular values all the way down to the
    cutoff, and two SVDs may place one of them on different sides of it;
    there the solution is checked by the normal equations instead.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_pseudoinverse_solution(self, data):
        X, Y, n_hidden, kind, seed = degenerate_problem(data)
        activation = "sigmoid"
        if kind == "identical rows":
            activation = data.draw(st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
        else:
            # fewer distinct rows than nodes (or one node): rank exactly `distinct`.
            # At 3 the solves agree to about 1e-11; at 5 a sigmoid H's smallest
            # kept singular value can fall low enough that they differ by 3e-9
            distinct = data.draw(st.integers(1, max(1, min(3, n_hidden - 1))), label="distinct")
            X = X[np.arange(X.shape[0]) % distinct]
        beta = train_elm(X, Y, n_hidden, activation, seed=seed).output_weights
        h = hidden_output(make_hidden_layer(X.shape[1], n_hidden, activation, seed), X)
        expected = pseudoinverse(h) @ (Y[:, None] if Y.ndim == 1 else Y)
        assert beta.shape == expected.shape
        assert np.linalg.norm(beta - expected) <= 1e-10 * np.linalg.norm(beta)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
    def test_solves_normal_equations(self, data, activation):
        X, Y, n_hidden, _, seed = degenerate_problem(data)
        beta = train_elm(X, Y, n_hidden, activation, seed=seed).output_weights
        h = hidden_output(make_hidden_layer(X.shape[1], n_hidden, activation, seed), X)
        Y2 = Y[:, None] if Y.ndim == 1 else Y
        # a dropped singular value s <= cutoff leaves s * |u'y| in H'r
        h_norm = np.linalg.norm(h, 2)
        cutoff = np.finfo(float).eps * max(h.shape) * h_norm
        bound = 16 * cutoff * (np.linalg.norm(Y2) + h_norm * np.linalg.norm(beta))
        assert np.linalg.norm(h.T @ (h @ beta - Y2)) <= bound

    def test_all_zero_hidden_output_gives_zero_readout(self):
        # every node's weight is positive, so inputs far below zero switch all
        # sigmoids off: exp(-(w x + b)) overflows to inf and each output is exactly 0
        seed = next(s for s in range(1000)
                    if np.all(make_hidden_layer(1, 4, "sigmoid", s).input_weights > 0.1))
        X = np.full((9, 1), -1e4)
        assert np.all(hidden_output(make_hidden_layer(1, 4, "sigmoid", seed), X) == 0.0)
        Y = np.random.default_rng(0).normal(size=(9, 2))
        beta = train_elm(X, Y, 4, "sigmoid", seed=seed).output_weights
        assert beta.shape == (4, 2)
        assert np.all(beta == 0.0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 entries of H: every fit of more than a few rows spans several."""
    monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)


def rerun(test, max_examples=150, **strategies):
    """The body of a Hypothesis test, as a new test of its own for a subclass."""
    fresh = given(**strategies)(test.hypothesis.inner_test)
    return settings(max_examples=max_examples, deadline=None)(fresh)


@pytest.mark.usefixtures("small_blocks")
class TestReadoutContractInRowBlocks(TestReadoutContract):
    """The same contract when H'H and H'Y are summed over many row blocks."""

    test_equals_pseudoinverse_solution = rerun(
        TestReadoutContract.test_equals_pseudoinverse_solution, data=st.data())
    test_solves_normal_equations = rerun(
        TestReadoutContract.test_solves_normal_equations,
        data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))


def passes_gram_guard(h):
    """Whether the readout takes the normal equations for this H, given n >= L:
    H'H - _GRAM_RCOND * trace(H'H) * I has a Cholesky factor."""
    g = h.T @ h
    try:
        np.linalg.cholesky(g - rmse_elm.elm._GRAM_RCOND * np.trace(g) * np.eye(len(g)))
    except np.linalg.LinAlgError:
        return False
    return True


def passes_eigenvalue_guard(h):
    """The guard before the Cholesky certificate: lambda_min > 1e-8 lambda_max of H'H."""
    lam = np.linalg.eigvalsh(h.T @ h)
    return lam[0] > rmse_elm.elm._GRAM_RCOND * lam[-1]


@contextlib.contextmanager
def counting_lstsq():
    """Record the shape of H at every gelsd call made inside the block."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    with mock.patch.object(np.linalg, "lstsq", spy):
        yield calls


class TestReadoutPaths:
    """Two solvers, chosen by H: normal equations when H is safely full column
    rank, gelsd everywhere else."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
    def test_normal_equations_agree_with_gelsd(self, data, activation):
        X, Y, n_hidden, _, seed = degenerate_problem(data, tall=True)
        h = hidden_output(make_hidden_layer(X.shape[1], n_hidden, activation, seed), X)
        assume(passes_gram_guard(h))
        Y2 = Y[:, None] if Y.ndim == 1 else Y
        beta = train_elm(X, Y, n_hidden, activation, seed=seed).output_weights
        eps = np.finfo(float).eps
        expected = np.linalg.lstsq(h, Y2, rcond=eps * max(h.shape))[0]
        # forming H'H and H'Y perturbs beta by about cond(H)^2 * eps times
        # |beta| + |Y| / |H|; the second term matters when Y is nearly
        # orthogonal to H's columns and beta is small
        h_norm = np.linalg.norm(h, 2)
        scale = np.linalg.norm(beta) + np.linalg.norm(Y2) / h_norm
        bound = 10 * max(h.shape) * np.linalg.cond(h) ** 2 * eps * scale
        assert np.linalg.norm(beta - expected) <= bound

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
    def test_normal_equation_layers_pass_the_eigenvalue_test(self, data, activation):
        # trace(H'H) >= lambda_max(H'H): the Cholesky guard is never looser than before
        X, Y, n_hidden, _, seed = degenerate_problem(data, tall=True)
        with counting_lstsq() as calls:
            train_elm(X, Y, n_hidden, activation, seed=seed)
        if not calls:
            h = hidden_output(make_hidden_layer(X.shape[1], n_hidden, activation, seed), X)
            assert passes_eigenvalue_guard(h)

    @pytest.fixture
    def gelsd_calls(self):
        with counting_lstsq() as calls:
            yield calls

    def test_fewer_rows_than_nodes_use_gelsd(self, gelsd_calls):
        X = np.random.default_rng(1).normal(size=(10, 3))
        train_elm(X, np.ones(10), 20, "sigmoid", seed=0)
        assert gelsd_calls == [(10, 20)]

    def test_rank_deficient_sigmoid_uses_gelsd(self, gelsd_calls):
        # 40 rows repeated from 5: H has 5 distinct rows, so rank 5 < 30 nodes
        X = repeated_rows()
        h = hidden_output(make_hidden_layer(2, 30, "sigmoid", seed=4), X)
        assert np.linalg.matrix_rank(h) == 5
        beta = train_elm(X, X[:, 0], 30, "sigmoid", seed=4).output_weights
        assert gelsd_calls == [(40, 30)]
        expected = pseudoinverse(h) @ X[:, :1]
        assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(beta)

    def test_ill_conditioned_gaussian_uses_gelsd(self, gelsd_calls):
        # wide RBF nodes over few inputs overlap almost entirely
        X = np.random.default_rng(3).uniform(-1, 1, size=(400, 5))
        h = hidden_output(make_hidden_layer(5, 50, "gaussian", seed=0), X)
        assert np.linalg.cond(h) >= 1e6
        train_elm(X, X[:, 0], 50, "gaussian", seed=0)
        assert gelsd_calls == [(400, 50)]

    def test_benchmark_shape_uses_normal_equations(self, gelsd_calls):
        # the layer of TestTrainElm.test_benchmark_shape_trains_fast
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(400, 13)), rng.normal(size=400)
        train_elm(X, y, 50, "sigmoid", seed=0)
        assert gelsd_calls == []

    def test_two_equal_top_singular_values_near_the_bound_use_gelsd(self, gelsd_calls,
                                                                     monkeypatch):
        # cond(H'H) = 5e7 passed the eigenvalue guard; with two equal top singular
        # values trace(H'H) = 2.25 lambda_max, so lambda_min = 0.89e-8 trace(H'H)
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.normal(size=(60, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        h = (u * [1.0, 1.0, 0.5, np.sqrt(2e-8)]) @ v.T
        assert np.linalg.cond(h.T @ h) == pytest.approx(5e7, rel=1e-4)
        assert passes_eigenvalue_guard(h) and not passes_gram_guard(h)
        # an identity node: H is X itself
        monkeypatch.setattr(rmse_elm.elm, "hidden_output", lambda layer, rows: rows.copy())
        y = rng.normal(size=60)
        beta = train_elm(h, y, 4, seed=0).output_weights
        assert gelsd_calls == [(60, 4)]
        rcond = np.finfo(float).eps * 60
        assert np.array_equal(beta, np.linalg.lstsq(h, y[:, None], rcond=rcond)[0])

    @pytest.mark.parametrize("n, d, n_hidden, activation, gelsd", [
        (400, 13, 50, "sigmoid", False),  # normal equations
        (10, 3, 20, "sigmoid", True),  # fewer rows than nodes
        (40, 2, 30, "sigmoid", True),  # 40 rows repeated from 5: rank 5, refused by the guard
        (400, 5, 50, "gaussian", True),  # ill-conditioned, refused by the guard
    ])
    def test_no_eigenvalue_decomposition(self, gelsd_calls, monkeypatch,
                                         n, d, n_hidden, activation, gelsd):
        def refuse(*args, **kwargs):
            raise AssertionError("train_elm called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        x = np.random.default_rng(2).uniform(-1, 1, size=(n, d))
        if (n, n_hidden) == (40, 30):
            x = repeated_rows(n, d)
        train_elm(x, x[:, 0], n_hidden, activation, seed=0)
        assert bool(gelsd_calls) == gelsd


@pytest.mark.usefixtures("small_blocks")
class TestReadoutPathsInRowBlocks(TestReadoutPaths):
    """The same paths over many row blocks; a refused layer is projected once more
    and makes one gelsd call on the whole H."""

    def test_refused_layer_of_several_blocks_is_projected_once_more(self, gelsd_calls,
                                                                    monkeypatch):
        # the rank-deficient layer of test_rank_deficient_sigmoid_uses_gelsd,
        # summed over 20 blocks of 2 rows
        X = repeated_rows()
        shapes = []

        def spy(layer, rows):
            shapes.append(rows.shape)
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        train_elm(X, X[:, 0], 30, "sigmoid", seed=4)
        assert gelsd_calls == [(40, 30)]
        assert shapes == [(2, 2)] * 20 + [(40, 2)]

    test_normal_equations_agree_with_gelsd = rerun(
        TestReadoutPaths.test_normal_equations_agree_with_gelsd,
        data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
    test_normal_equation_layers_pass_the_eigenvalue_test = rerun(
        TestReadoutPaths.test_normal_equation_layers_pass_the_eigenvalue_test,
        data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))


class TestRowBlocks:
    def test_one_block_is_exactly_the_whole_gram_matrix(self):
        # the bh-rmse shape: 400 rows of 50 nodes fit in one block
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(400, 13)), rng.normal(size=400)
        assert 400 * 50 <= rmse_elm.elm._BLOCK
        h = hidden_output(make_hidden_layer(13, 50, "sigmoid", seed=0), X)
        beta = train_elm(X, y, 50, "sigmoid", seed=0).output_weights
        assert np.array_equal(beta, np.linalg.solve(h.T @ h, h.T @ y[:, None]))

    def test_refused_layer_in_one_block_is_projected_once(self, monkeypatch):
        # the rank-deficient layer of test_rank_deficient_sigmoid_uses_gelsd:
        # gelsd reuses the block's H
        X = repeated_rows()
        h = hidden_output(make_hidden_layer(2, 30, "sigmoid", seed=4), X)
        shapes = []

        def spy(layer, rows):
            shapes.append(rows.shape)
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        beta = train_elm(X, X[:, 0], 30, "sigmoid", seed=4).output_weights
        assert shapes == [(40, 2)]
        rcond = np.finfo(float).eps * 40
        assert np.array_equal(beta, np.linalg.lstsq(h, X[:, :1], rcond=rcond)[0])

    @pytest.mark.parametrize("outputs", [1, 3])
    @pytest.mark.parametrize("n", [16, 17, 33])  # rows, rows + 1, 2 rows + 1 at 4 nodes
    def test_block_boundaries_agree_with_one_block(self, monkeypatch, n, outputs):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=n if outputs == 1 else (n, outputs))
        whole = train_elm(X, Y, 4, "sigmoid", seed=1).output_weights
        monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)
        shapes = []

        def spy(layer, rows):
            shapes.append(rows.shape)
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        blocked = train_elm(X, Y, 4, "sigmoid", seed=1).output_weights
        assert shapes == [(16, 3)] * (n // 16) + [(n % 16, 3)] * (n % 16 > 0)
        h = hidden_output(make_hidden_layer(3, 4, "sigmoid", seed=1), X)
        assert passes_gram_guard(h)
        Y2 = Y[:, None] if Y.ndim == 1 else Y
        # the bound of TestReadoutPaths.test_normal_equations_agree_with_gelsd
        eps = np.finfo(float).eps
        scale = np.linalg.norm(whole) + np.linalg.norm(Y2) / np.linalg.norm(h, 2)
        bound = 10 * max(h.shape) * np.linalg.cond(h) ** 2 * eps * scale
        assert blocked.shape == whole.shape
        assert np.linalg.norm(blocked - whole) <= bound


def reference_hidden_output(layer, X):
    """H from each node kind's plain expression, every step in a fresh array."""
    w, b = layer.input_weights, layer.biases
    with np.errstate(over="ignore"):
        if layer.activation == "sigmoid":
            return 1.0 / (1.0 + np.exp(-b - X @ w.T))
        sq = np.stack([((X - c) ** 2).sum(axis=1) for c in w], axis=1)
        if layer.activation == "gaussian":
            return np.exp(-(b**2) * sq)
        return np.sqrt(sq + b**2)


class TestDegenerateInputs:
    """Degenerate tables (constant or duplicate columns, one feature, identical
    rows, fewer rows than nodes) through every node kind."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
    def test_finite_deterministic_and_equal_to_the_plain_kernels(self, data, activation):
        X, Y, n_hidden, _, seed = degenerate_problem(data)
        layer = make_hidden_layer(X.shape[1], n_hidden, activation, seed)
        h = hidden_output(layer, X)
        assert np.array_equal(h, reference_hidden_output(layer, X))
        assert np.array_equal(h, hidden_output(layer, X))
        beta = train_elm(X, Y, n_hidden, activation, seed=seed).output_weights
        assert beta.shape == (n_hidden, 1 if Y.ndim == 1 else Y.shape[1])
        assert np.all(np.isfinite(beta))
        assert np.array_equal(beta, train_elm(X, Y, n_hidden, activation, seed=seed).output_weights)

    @pytest.mark.parametrize("activation", sorted(rmse_elm.elm.ACTIVATIONS))
    def test_overflowing_input_equals_the_plain_kernels(self, activation):
        # the input of TestTrainElm.test_non_finite_hidden_output_rejected
        X = np.full((6, 2), 1e200)
        layer = make_hidden_layer(2, 4, activation, seed=0)
        assert np.array_equal(hidden_output(layer, X), reference_hidden_output(layer, X))


@pytest.mark.usefixtures("small_blocks")
class TestDegenerateInputsInRowBlocks(TestDegenerateInputs):
    """The same properties when the readout sums H'H and H'Y over many row blocks."""

    test_finite_deterministic_and_equal_to_the_plain_kernels = rerun(
        TestDegenerateInputs.test_finite_deterministic_and_equal_to_the_plain_kernels, 40,
        data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))


def traced_peak(fn, *args, **kwargs):
    """Peak bytes numpy and Python allocate during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """A fit holds one row block of H at a time, and every node kind builds
    its block in one array: at most one block of H, one block of X rows (the
    distance kernels' difference buffer) and 128 KiB for the L x L matrices
    and numpy's ufunc buffers."""

    L = 50
    ROWS = rmse_elm.elm._BLOCK // L

    def bound(self, n_inputs):
        return rmse_elm.elm._BLOCK * 8 + self.ROWS * n_inputs * 8 + 128 * 1024

    # gaussian layers over 31 inputs fail the Cholesky guard and go to gelsd,
    # which holds H whole
    @pytest.mark.parametrize("activation", ["multiquadric", "sigmoid"])
    def test_fit_of_several_blocks_holds_one(self, activation):
        X = np.random.default_rng(0).normal(size=(3000, 31))
        y = X[:, 0] + 0.1
        with counting_lstsq() as calls:
            train_elm(X, y, self.L, activation, seed=0)
        assert calls == []  # the normal equations, over 5 blocks
        assert traced_peak(train_elm, X, y, self.L, activation, seed=0) <= self.bound(31)

    @pytest.mark.parametrize("activation", ["multiquadric", "sigmoid"])
    def test_fit_on_rows_holds_one_block_of_them(self, activation):
        # 3000 of 4000 rows: no copy of them is made, only one block of
        # gathered rows and the gathered targets join the fit's working set
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4000, 31))
        rows = rng.permutation(4000)[:3000]
        y = X[:, 0] + 0.1
        with counting_lstsq() as calls:
            train_elm(X, y, self.L, activation, seed=0, rows=rows)
        assert calls == []
        peak = traced_peak(train_elm, X, y, self.L, activation, seed=0, rows=rows)
        assert peak <= self.bound(31) + self.ROWS * 31 * 8 + rows.size * 8

    @pytest.mark.parametrize("activation", sorted(rmse_elm.elm.ACTIVATIONS))
    def test_projection_of_one_block_builds_one_array(self, activation):
        # few inputs, so a second n x L array cannot hide in the X-block allowance
        X = np.random.default_rng(0).normal(size=(self.ROWS, 3))
        layer = make_hidden_layer(3, self.L, activation, seed=0)
        assert traced_peak(hidden_output, layer, X) <= self.bound(3)


class TestFittedOutputs:
    """`train_elm(..., fitted=)` receives exactly predict(model, X)."""

    # (rows, inputs, nodes, identical rows, gelsd expected): normal equations, a
    # rank-one layer refused by the guard, and fewer rows than nodes
    PATHS = {
        "normal-equations": (120, 3, 8, False, False),
        "refused-rank-one": (120, 3, 8, True, True),
        "fewer-rows": (6, 3, 8, False, True),
    }

    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("outputs", [None, 2])
    @pytest.mark.parametrize("activation", sorted(rmse_elm.elm.ACTIVATIONS))
    def test_equals_predict_bit_for_bit(self, monkeypatch, activation, outputs, path, blocks):
        n, d, n_hidden, identical, gelsd = self.PATHS[path]
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(n, d))
        if identical:
            X[:] = X[0]
        Y = rng.normal(size=n if outputs is None else (n, outputs))
        if blocks == "several":
            monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)  # 8 rows of 8 nodes
        projected = []

        def spy(layer, rows):
            projected.append(rows.shape[0])
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        fitted = np.full(Y.shape, np.nan)
        with counting_lstsq() as calls:
            model = train_elm(X, Y, n_hidden, activation, seed=0, fitted=fitted)
        assert bool(calls) == gelsd
        if blocks == "several" and n >= n_hidden:
            # the blocks, then one whole projection (for gelsd or for fitted)
            assert projected == [8] * (n // 8) + [n]
        else:
            assert projected == [n]  # the readout's own H
        expected = predict(model, X)
        assert fitted.shape == expected.shape
        assert np.array_equal(fitted, expected)

    @pytest.mark.parametrize("fitted", [np.empty((20, 1)), np.empty(19), np.empty((20, 2)),
                                        [0.0] * 20], ids=["20x1", "19", "20x2", "list"])
    def test_not_an_array_of_y_shape_rejected(self, fitted):
        X = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(DimensionError, match="fitted"):
            train_elm(X, X[:, 0], 5, seed=0, fitted=fitted)


class TestTrainingRows:
    """`train_elm(X, Y, rows=r)` trains bit for bit as `train_elm(X[r], Y[r])`,
    gathering each row block of X only as it is projected."""

    @pytest.mark.parametrize("blocks", ["one", "several"])
    @pytest.mark.parametrize("path", sorted(TestFittedOutputs.PATHS))
    @pytest.mark.parametrize("column", [False, True], ids=["1d", "n1"])
    @pytest.mark.parametrize("activation", sorted(rmse_elm.elm.ACTIVATIONS))
    def test_equals_training_on_the_gathered_rows(self, monkeypatch, activation, column, path,
                                                  blocks):
        n, d, n_hidden, identical, gelsd = TestFittedOutputs.PATHS[path]
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(n + 30, d))
        if identical:
            X[:] = X[0]
        Y = rng.normal(size=(n + 30, 1) if column else n + 30)
        rows = rng.permutation(n + 30)[:n]  # out of order, and not every row
        if blocks == "several":
            monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)  # 8 rows of 8 nodes
        fitted, expected_fitted = np.full(Y[rows].shape, np.nan), np.full(Y[rows].shape, np.nan)
        with counting_lstsq() as calls:
            model = train_elm(X, Y, n_hidden, activation, seed=0, rows=rows, fitted=fitted)
        assert bool(calls) == gelsd
        expected = train_elm(X[rows], Y[rows], n_hidden, activation, seed=0,
                             fitted=expected_fitted)
        assert np.array_equal(model.hidden.input_weights, expected.hidden.input_weights)
        assert np.array_equal(model.hidden.biases, expected.hidden.biases)
        assert np.array_equal(model.output_weights, expected.output_weights)
        assert model.squeeze_output is expected.squeeze_output is not column
        assert np.array_equal(fitted, expected_fitted)

    def test_blocks_are_gathered_as_they_are_projected(self, monkeypatch):
        monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)  # 16 rows of 4 nodes
        X = np.random.default_rng(6).normal(size=(50, 3))
        rows = np.arange(49, 9, -1)  # 40 rows: blocks of 16, 16 and 8
        parts = []

        def spy(layer, part):
            parts.append(part.copy())
            return hidden_output(layer, part)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        train_elm(X, X[:, 0], 4, seed=1, rows=rows)
        assert [p.shape for p in parts] == [(16, 3), (16, 3), (8, 3)]
        assert np.array_equal(np.concatenate(parts), X[rows])

    def test_non_finite_rows_outside_the_selection_are_not_read(self):
        X = np.random.default_rng(7).normal(size=(30, 3))
        X[0, 1], X[1, 0] = np.nan, np.inf
        model = train_elm(X, X[:, 2], 5, seed=0, rows=np.arange(2, 30))
        assert np.array_equal(model.output_weights,
                              train_elm(X[2:], X[2:, 2], 5, seed=0).output_weights)
        with pytest.raises(ValueError, match="X contains non-finite"):
            train_elm(X, X[:, 2], 5, seed=0, rows=np.arange(1, 30))
        Y = X[:, 2].copy()
        Y[0] = np.nan
        with pytest.raises(ValueError, match="Y contains non-finite"):
            train_elm(X[:, 2:], Y, 5, seed=0, rows=[0, 3, 4])

    @pytest.mark.parametrize("rows, match", [
        (np.zeros((2, 2), dtype=int), "1-D array of integer"),
        (np.array([0.0, 1.0]), "1-D array of integer"),
        (np.array([True, False]), "1-D array of integer"),
        (np.array([], dtype=int), "training set is empty"),
    ], ids=["2-d", "float", "bool", "empty"])
    def test_bad_rows_rejected(self, rows, match):
        X = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(DimensionError, match=match):
            train_elm(X, X[:, 0], 5, seed=0, rows=rows)

    def test_rows_index_as_numpy_does(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        rows = np.array([-1, 3, -20, 7, 7, 0])  # negative and repeated indices select as X[rows]
        model = train_elm(X, X[:, 0], 5, seed=0, rows=rows)
        expected = train_elm(X[rows], X[rows, 0], 5, seed=0)
        assert np.array_equal(model.output_weights, expected.output_weights)
        for bad in ([0, 20], [-21, 3]):
            with pytest.raises(IndexError):
                train_elm(X, X[:, 0], 5, seed=0, rows=np.array(bad))

    def test_fitted_takes_the_shape_of_the_selected_rows(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(DimensionError, match="fitted"):
            train_elm(X, X[:, 0], 5, seed=0, rows=np.arange(10), fitted=np.empty(20))


class TestPredict:
    def test_training_fit_is_reproducible(self):
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(30, 3)), rng.normal(size=30)
        model = train_elm(X, y, 10, seed=1)
        h = hidden_output(model.hidden, X)
        assert np.array_equal(predict(model, X), (h @ model.output_weights)[:, 0])

    def test_linear_in_output_weights(self):
        from dataclasses import replace

        rng = np.random.default_rng(12)
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        model = train_elm(X, y, 7, seed=3)
        scaled = replace(model, output_weights=3.0 * model.output_weights)
        assert np.allclose(predict(scaled, X), 3.0 * predict(model, X), rtol=1e-12)

    def test_dimension_mismatch(self):
        model = train_elm(np.zeros((4, 3)) + np.eye(4, 3), np.ones(4), 2, seed=0)
        with pytest.raises(DimensionError):
            predict(model, np.zeros((2, 5)))


def test_no_scipy_import():
    # numpy is the only dependency: importing, the CLI and a fit of every node kind load no scipy
    code = (
        "import sys, numpy as np, rmse_elm, rmse_elm.cli\n"
        "X = np.random.default_rng(0).normal(size=(40, 3))\n"
        "for activation in ('sigmoid', 'gaussian', 'multiquadric'):\n"
        "    rmse_elm.elm.train_elm(X, X[:, 0], 8, activation, seed=0)\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    src = str(Path(rmse_elm.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        # no bytecode: a __pycache__ left in the checkout would speed up later imports
        env={"PATH": "", "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.stdout.strip() == "[]"
