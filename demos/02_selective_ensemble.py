"""The machinery behind selective ensembling, on real trained ELMs.

The error-correlation matrix C of a set of learners fully determines the
generalization error of any weighted average of them: it is the quadratic
form w' C w. Everything else follows - the closed-form optimal weights,
the benefit of omitting a learner from a simple average, and the GA that
evolves weights when some learners deserve to be dropped.
"""

import numpy as np

from rmse_elm import (
    correlation_matrix,
    ensemble_error,
    ga_evolve,
    omission_gain,
    optimal_weights,
    predict,
    select_by_threshold,
    should_omit,
    train_elm,
)
from rmse_elm.selective import GaConfig
from rmse_elm.synth import make_synthetic_regression

rng = np.random.default_rng(5)
ds = make_synthetic_regression(n_samples=240, n_features=3, seed=2, noise_std=0.3)
X_fit, y_fit = ds.X[:160], ds.y[:160]
X_val, y_val = ds.X[160:], ds.y[160:]

# train a small mixed-quality crew: a few good models and two weak ones
models = [train_elm(X_fit, y_fit, n_hidden=30, seed=s) for s in range(6)]
models += [train_elm(X_fit, y_fit, n_hidden=2, seed=s) for s in (90, 91)]  # weak
preds = [np.ravel(predict(m, X_val)) for m in models]
corr = correlation_matrix(preds, y_val)
n = len(models)

print("per-learner validation MSE (the diagonal of C):")
print(np.diag(corr.c).round(4))

# --- the quadratic form IS the ensemble's MSE ------------------------------
w = rng.dirichlet(np.ones(n))
direct = np.mean((w @ np.asarray(preds) - y_val) ** 2)
print(f"\nrandom weights: w'Cw = {ensemble_error(w, corr):.6f}, "
      f"directly computed MSE = {direct:.6f}")

uniform = np.full(n, 1.0 / n)
print(f"uniform average of all {n}: {ensemble_error(uniform, corr):.6f}")

# --- who should be dropped from the simple average? ------------------------
print("\nomission analysis (positive gain = dropping helps):")
for k in range(n):
    print(f"  learner {k}: gain {omission_gain(corr, k):+.6f}  drop? {should_omit(corr, k)}")

# --- closed-form weights vs evolved weights --------------------------------
lagrange = optimal_weights(corr)
print(f"\nLagrange solution inside the simplex: {lagrange.in_simplex}")
print("  raw:", lagrange.raw.round(3))

evolved = ga_evolve(corr, GaConfig(), seed=0)
print("GA-evolved weights:", evolved.w.round(3))
print(f"  error: GA {ensemble_error(evolved, corr):.6f} vs "
      f"uniform {ensemble_error(uniform, corr):.6f}")

kept = select_by_threshold(evolved, 1.0 / n)
print(f"\nselected by threshold 1/{n}: learners {kept.tolist()}")
subset = np.asarray(preds)[kept].mean(axis=0)
print(f"simple average of the selected subset: MSE {np.mean((subset - y_val) ** 2):.6f}")
