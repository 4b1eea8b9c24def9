"""The two-layer recursive selective ensemble on blended housing data.

Layer 1 trains four groups of twenty ELMs and selects inside each group;
layer 2 selects again over the pooled survivors and averages what is
left. The same blended split is scored by the flat baselines for
comparison.
"""

import time

import numpy as np

from rmse_elm import (
    EnsembleConfig,
    NoiseSpec,
    make_blended_split,
    mse,
    predict,
    train_elm,
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
from rmse_elm.synth import benchmark_task

SEVEN_NOISE = (2.0, 1.0, 0.5, 0.1, 0.005, 0.001, 0.0005)

task = benchmark_task("BH")
print(f"housing data source: {task.source}")
train, test, _ = make_blended_split(task.dataset, NoiseSpec(SEVEN_NOISE, seed=101), task.split)
print(f"train {train.n_samples} x {train.n_features} (13 original + 7 noise), "
      f"test {test.n_samples}")

config = EnsembleConfig(groups=4, group_size=20, n_hidden=50, seed=11)

t0 = time.perf_counter()
ens = train_rmse_elm(train.X, train.y, config)
wall = time.perf_counter() - t0
print(f"\ntwo-layer ensemble trained in {wall:.2f}s")
print(f"per-group survivors: {ens.group_survivor_counts} -> pool of {ens.pool_size}")
print(f"layer-2 survivors: {ens.n_members}")
for g in range(4):
    members = [i for (grp, i) in ens.provenance if grp == g]
    print(f"  group {g} contributes members {members}")

print(f"\ntest MSE, one run each on the same blended split:")
rows = [("RMSE-ELM", ens.predict(test.X), wall)]

t0 = time.perf_counter()
single = train_elm(train.X, train.y, 50, seed=11)
rows.append(("ELM", predict(single, test.X), time.perf_counter() - t0))

t0 = time.perf_counter()
simple = train_simple_ensemble(train.X, train.y, n_learners=80, n_hidden=50, seed=11)
rows.append(("SimpleEnsemble(80)", simple.predict(test.X), time.perf_counter() - t0))

t0 = time.perf_counter()
gasen = train_gasen_elm(train.X, train.y, config)  # one group of the same config
rows.append((f"GASEN-ELM ({gasen.n_members} kept)", gasen.predict(test.X), time.perf_counter() - t0))

t0 = time.perf_counter()
egasen = train_e_gasen(train.X, train.y, config)
rows.append((f"E-GASEN (pool {egasen.pool_size})", egasen.predict(test.X), time.perf_counter() - t0))

for name, pred, cc in rows:
    print(f"  {name:>22}: MSE {mse(pred, test.y):.4f}  (training {cc:.2f}s)")
