"""A walk through a single extreme learning machine.

Training is: draw a random hidden layer, push the inputs through it, and
solve one least-squares problem for the minimum-norm readout pinv(H) @ y.
`pseudoinverse` forms pinv(H) by SVD and is the reference; `train_elm`
gets the same readout without forming pinv(H): from the normal equations
H'H beta = H'y when H is safely full column rank, otherwise from one
LAPACK gelsd solve. Nothing is iterated, which is why the whole fit
takes milliseconds.
"""

import time

import numpy as np

from rmse_elm import hidden_output, make_hidden_layer, predict, pseudoinverse, train_elm
from rmse_elm.synth import make_synthetic_regression

rng = np.random.default_rng(0)

# --- the pseudoinverse honours the four Penrose conditions ----------------
a = rng.normal(size=(40, 12))
p = pseudoinverse(a)
print("Penrose residuals (should all be ~1e-13):")
print("  A A+ A - A :", np.linalg.norm(a @ p @ a - a))
print("  A+ A A+- A+:", np.linalg.norm(p @ a @ p - p))
print("  symmetry   :", np.linalg.norm((a @ p).T - a @ p), np.linalg.norm((p @ a).T - p @ a))

# --- a hidden layer is just random weights plus a named activation --------
layer = make_hidden_layer(n_inputs=2, n_hidden=5, activation="sigmoid", seed=42)
print("\nhidden layer weights (5 nodes x 2 inputs), all Uniform(-1, 1):")
print(layer.input_weights.round(3))
X_demo = rng.uniform(-1, 1, size=(3, 2))
print("sigmoid node outputs on 3 samples:")
print(hidden_output(layer, X_demo).round(3))

# --- train/test on a smooth task ------------------------------------------
ds = make_synthetic_regression(n_samples=300, n_features=4, seed=1, noise_std=0.1)
X_train, y_train = ds.X[:200], ds.y[:200]
X_test, y_test = ds.X[200:], ds.y[200:]

for activation in ("sigmoid", "gaussian", "multiquadric"):
    t0 = time.perf_counter()
    model = train_elm(X_train, y_train, n_hidden=50, activation=activation, seed=7)
    wall = time.perf_counter() - t0
    test_mse = np.mean((predict(model, X_test) - y_test) ** 2)
    print(f"{activation:>12}: test MSE {test_mse:.4f}  (trained in {wall * 1e3:.1f} ms)")

# --- the readout is the pseudoinverse solution, without forming pinv(H) --
# 40 rows repeated from 5 distinct ones give a 30-node sigmoid H of exact
# rank 5: the guard refuses it, gelsd solves it, and the two readouts can
# only differ by rounding
rows = np.arange(40) % 5
model = train_elm(X_train[rows], y_train[rows], n_hidden=30, activation="sigmoid", seed=7)
h = hidden_output(model.hidden, X_train[rows])
gap = np.linalg.norm(model.output_weights[:, 0] - pseudoinverse(h) @ y_train[rows])
print(f"\n|beta - pinv(H) y| / |beta| for a rank-{np.linalg.matrix_rank(h)} sigmoid readout: "
      f"{gap / np.linalg.norm(model.output_weights):.1e}")

# --- with as many hidden nodes as samples, the fit interpolates -----------
n = 20
X_small = rng.uniform(-3, 3, size=(n, 3))
y_small = rng.normal(size=n)
model = train_elm(X_small, y_small, n_hidden=n, activation="sigmoid", seed=3)
residual = np.linalg.norm(predict(model, X_small) - y_small) / np.linalg.norm(y_small)
print(f"\ninterpolation residual with n_hidden = n_samples = {n}: {residual:.2e}")
