import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rmse_elm
from rmse_elm.elm import (
    DimensionError,
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

    def test_hardlim_sign_cases(self):
        layer = HiddenLayer(np.array([[1.0]]), np.array([-0.3]), "hardlim")
        out = hidden_output(layer, np.array([[0.0], [0.3], [1.0]]))
        assert out.ravel().tolist() == [0.0, 1.0, 1.0]

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

    @pytest.mark.parametrize("activation", ["sigmoid", "hardlim", "gaussian", "multiquadric"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, activation, bad):
        # one inf leaves a sigmoid or hardlim H finite (0 or 1), so X is checked too
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


class TestReadoutContract:
    """The gelsd readout is the minimum-norm least-squares solution pinv(H) @ Y.

    Elementwise equality is asserted where H's rank is exact: hard-limit
    layers (0/1 entries) and identical rows (rank 1). A smooth layer over
    near-duplicate inputs has singular values all the way down to the
    cutoff, and two SVDs may place one of them on different sides of it;
    there the solution is checked by the normal equations instead.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_pseudoinverse_solution(self, data):
        X, Y, n_hidden, kind, seed = degenerate_problem(data)
        activation = "hardlim"
        if kind == "identical rows":
            activation = data.draw(st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))
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
        # every node's weight is positive, so inputs far below zero switch all off
        seed = next(s for s in range(1000)
                    if np.all(make_hidden_layer(1, 4, "hardlim", s).input_weights > 0.1))
        X = np.full((9, 1), -20.0)
        assert np.all(hidden_output(make_hidden_layer(1, 4, "hardlim", seed), X) == 0.0)
        Y = np.random.default_rng(0).normal(size=(9, 2))
        beta = train_elm(X, Y, 4, "hardlim", seed=seed).output_weights
        assert beta.shape == (4, 2)
        assert np.all(beta == 0.0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 entries of H: every fit of more than a few rows spans several."""
    monkeypatch.setattr(rmse_elm.elm, "_BLOCK", 64)


def rerun(test, **strategies):
    """The body of a Hypothesis test, as a new test of its own for a subclass."""
    fresh = given(**strategies)(test.hypothesis.inner_test)
    return settings(max_examples=150, deadline=None)(fresh)


@pytest.mark.usefixtures("small_blocks")
class TestReadoutContractInRowBlocks(TestReadoutContract):
    """The same contract when H'H and H'Y are summed over many row blocks."""

    test_equals_pseudoinverse_solution = rerun(
        TestReadoutContract.test_equals_pseudoinverse_solution, data=st.data())
    test_solves_normal_equations = rerun(
        TestReadoutContract.test_solves_normal_equations,
        data=st.data(), activation=st.sampled_from(sorted(rmse_elm.elm.ACTIVATIONS)))


def passes_gram_guard(h):
    """Whether the readout takes the normal equations for this H, given n >= L."""
    lam = np.linalg.eigvalsh(h.T @ h)
    return lam[0] > rmse_elm.elm._GRAM_RCOND * lam[-1]


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

    @pytest.fixture
    def gelsd_calls(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        return calls

    def test_fewer_rows_than_nodes_use_gelsd(self, gelsd_calls):
        X = np.random.default_rng(1).normal(size=(10, 3))
        train_elm(X, np.ones(10), 20, "sigmoid", seed=0)
        assert gelsd_calls == [(10, 20)]

    def test_rank_deficient_hardlim_uses_gelsd(self, gelsd_calls):
        # one input repeated: every node is a step along that one direction
        x = np.random.default_rng(2).uniform(-1, 1, size=40)
        X = np.column_stack([x, x])
        h = hidden_output(make_hidden_layer(2, 30, "hardlim", seed=4), X)
        assert np.linalg.matrix_rank(h) < 30
        train_elm(X, x, 30, "hardlim", seed=4)
        assert gelsd_calls == [(40, 30)]

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


@pytest.mark.usefixtures("small_blocks")
class TestReadoutPathsInRowBlocks(TestReadoutPaths):
    """The same paths over many row blocks; a refused layer is projected once more
    and makes one gelsd call on the whole H."""

    def test_refused_layer_of_several_blocks_is_projected_once_more(self, gelsd_calls,
                                                                    monkeypatch):
        # the rank-deficient layer of test_rank_deficient_hardlim_uses_gelsd,
        # summed over 20 blocks of 2 rows
        x = np.random.default_rng(2).uniform(-1, 1, size=40)
        X = np.column_stack([x, x])
        shapes = []

        def spy(layer, rows):
            shapes.append(rows.shape)
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        train_elm(X, x, 30, "hardlim", seed=4)
        assert gelsd_calls == [(40, 30)]
        assert shapes == [(2, 2)] * 20 + [(40, 2)]

    test_normal_equations_agree_with_gelsd = rerun(
        TestReadoutPaths.test_normal_equations_agree_with_gelsd,
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
        # the rank-deficient layer of test_rank_deficient_hardlim_uses_gelsd:
        # gelsd reuses the block's H
        x = np.random.default_rng(2).uniform(-1, 1, size=40)
        X = np.column_stack([x, x])
        h = hidden_output(make_hidden_layer(2, 30, "hardlim", seed=4), X)
        shapes = []

        def spy(layer, rows):
            shapes.append(rows.shape)
            return hidden_output(layer, rows)

        monkeypatch.setattr(rmse_elm.elm, "hidden_output", spy)
        beta = train_elm(X, x, 30, "hardlim", seed=4).output_weights
        assert shapes == [(40, 2)]
        rcond = np.finfo(float).eps * 40
        assert np.array_equal(beta, np.linalg.lstsq(h, x[:, None], rcond=rcond)[0])

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
        "for activation in ('sigmoid', 'hardlim', 'gaussian', 'multiquadric'):\n"
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
