"""Extreme learning machine ensembles with GA-based selective pruning.

Layers: `elm` (single random-hidden-layer regressors), `selective`
(error-correlation theory and GA weight evolution), `recursive` (the
two-layer selective ensemble and flat baselines), `data` (loading,
normalization, noise blending, splits), `synth` (benchmark tasks),
`bench` (the experiment matrix), `cli` (command-line front end).
"""

from .elm import (
    ACTIVATIONS,
    DimensionError,
    ElmModel,
    HiddenLayer,
    hidden_output,
    make_hidden_layer,
    predict,
    pseudoinverse,
    train_elm,
)
from .selective import (
    CorrelationMatrix,
    DegenerateEnsembleError,
    EnsembleWeights,
    GaConfig,
    OptimalWeights,
    correlation_matrix,
    ensemble_error,
    ga_evolve,
    omission_gain,
    optimal_weights,
    select_by_threshold,
    should_omit,
)
from .recursive import (
    ElmEnsemble,
    EnsembleConfig,
    member_seed,
    train_e_gasen,
    train_gasen_elm,
    train_rmse_elm,
    train_simple_ensemble,
)
from .data import (
    DataError,
    Dataset,
    NoiseSpec,
    NormalizationParams,
    SplitSpec,
    apply_normalization,
    blend_noise,
    fit_normalization,
    load_csv,
    make_blended_split,
    save_csv,
    split,
)
from .synth import (
    BenchmarkTask,
    benchmark_task,
    make_abalone_task,
    make_housing_task,
    make_synthetic_regression,
    make_waveform,
    make_wine_task,
)
from .bench import (
    CellStats,
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    canonical_method,
    comparison_pct,
    fit,
    load_experiment_config,
    mse,
    read_records,
    run_experiment,
    std_over_runs,
    summarize_records,
    write_records,
    write_report,
)

__version__ = "0.1.0"
