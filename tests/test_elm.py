import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_benchmark_shape_trains_fast(self):
        rng = np.random.default_rng(8)
        X, y = rng.normal(size=(400, 13)), rng.normal(size=400)
        t0 = time.perf_counter()
        train_elm(X, y, 50, "sigmoid", seed=0)
        assert time.perf_counter() - t0 < 0.1


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


def test_scipy_loads_on_first_projection_only():
    # report, --help and argument errors must not pay for scipy's import;
    # warm_up pays it before a timed fit
    code = (
        "import sys, rmse_elm, rmse_elm.cli\n"
        "loaded = lambda: [m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules]\n"
        "print(loaded())\n"
        "rmse_elm.elm.warm_up('sigmoid')\n"
        "rmse_elm.elm.warm_up('gaussian')\n"
        "print(loaded())\n"
    )
    src = str(Path(rmse_elm.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PATH": "", "PYTHONPATH": src},
    )
    assert proc.stdout.split("\n")[:2] == ["[]", "['scipy.special', 'scipy.spatial']"]
