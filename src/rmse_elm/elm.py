"""Single extreme learning machines.

An ELM is a one-hidden-layer feedforward network whose hidden parameters
are drawn at random and never tuned; only the linear readout is solved,
through the Moore-Penrose pseudoinverse of the hidden layer output matrix.
Training is therefore a single linear solve, not an iterative fit.
"""

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raised for empty or incompatible matrix shapes."""


def _linear_part(layer, X):
    z = X @ layer.input_weights.T
    z += layer.biases  # in place: one (n_samples, n_hidden) array per projection
    return z


# scipy is imported inside the nodes that use it: scipy.special and
# scipy.spatial are most of the package's import time, which commands that
# project nothing (report, --help) need not pay.


def _sigmoid(layer, X):
    # expit, not 1 / (1 + exp(-z)): the two differ in the last ulps
    from scipy.special import expit

    z = _linear_part(layer, X)
    return expit(z, out=z)


def _hardlim(layer, X):
    return (_linear_part(layer, X) >= 0.0).astype(float)


def _gaussian(layer, X):
    from scipy.spatial.distance import cdist

    # RBF node: rows of input_weights act as centres, biases as widths
    sq = cdist(X, layer.input_weights, "sqeuclidean")
    return np.exp(-(layer.biases**2) * sq)


def _multiquadric(layer, X):
    from scipy.spatial.distance import cdist

    sq = cdist(X, layer.input_weights, "sqeuclidean")
    return np.sqrt(sq + layer.biases**2)


ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "hardlim": _hardlim,
    "gaussian": _gaussian,
    "multiquadric": _multiquadric,
}


def _canonical_activation(name):
    key = str(name).strip().lower().replace("-", "").replace("_", "")
    aliases = {"hardlimit": "hardlim", "logistic": "sigmoid"}
    key = aliases.get(key, key)
    if key not in ACTIVATIONS:
        raise ValueError(
            f"unknown activation {name!r}; choose one of {sorted(ACTIVATIONS)}"
        )
    return key


@dataclass(frozen=True)
class HiddenLayer:
    """Random hidden layer: weights (n_hidden, n_inputs), biases (n_hidden,).

    Immutable after construction; safe to share across workers.
    """

    input_weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.input_weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DimensionError("input_weights must be a non-empty 2-D matrix")
        if b.shape != (w.shape[0],):
            raise DimensionError("biases must have one entry per hidden node")
        object.__setattr__(self, "input_weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "activation", _canonical_activation(self.activation))

    @property
    def n_hidden(self):
        return self.input_weights.shape[0]

    @property
    def n_inputs(self):
        return self.input_weights.shape[1]


@dataclass(frozen=True)
class ElmModel:
    """A trained ELM: frozen random hidden layer plus solved readout.

    `output_weights` has shape (n_hidden, n_outputs). `squeeze_output`
    records whether the model was trained on 1-D targets, in which case
    predictions are returned 1-D as well.
    """

    hidden: HiddenLayer
    output_weights: np.ndarray
    input_dim: int
    output_dim: int
    squeeze_output: bool = False

    def __post_init__(self):
        beta = np.asarray(self.output_weights, dtype=float)
        if beta.ndim != 2 or beta.shape[0] != self.hidden.n_hidden:
            raise DimensionError(
                "output_weights must have one row per hidden node"
            )
        if beta.shape[1] != self.output_dim:
            raise DimensionError("output_weights column count != output_dim")
        if self.input_dim != self.hidden.n_inputs:
            raise DimensionError("input_dim does not match the hidden layer")
        object.__setattr__(self, "output_weights", beta)

    def predict(self, X):
        return predict(self, X)


def make_hidden_layer(n_inputs, n_hidden, activation="sigmoid", seed=None):
    """Draw a random hidden layer.

    Weights and biases are sampled i.i.d. Uniform(-1, 1) from a stream
    seeded by `seed` (weights first, then biases), so identical arguments
    reproduce the layer bit for bit.

    Parameters
    ----------
    n_inputs : int
        Input dimension, >= 1.
    n_hidden : int
        Number of hidden nodes, >= 1.
    activation : str
        'sigmoid', 'hardlim', 'gaussian' or 'multiquadric'.
    seed : int, SeedSequence, Generator or None
        Seed for the random stream. None draws fresh entropy.
    """
    if n_inputs < 1 or n_hidden < 1:
        raise DimensionError("n_inputs and n_hidden must both be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_hidden, n_inputs))
    biases = rng.uniform(-1.0, 1.0, size=n_hidden)
    return HiddenLayer(weights, biases, activation)


def hidden_output(layer, X):
    """Hidden layer output matrix: entry (i, t) is node t applied to row i.

    Shape (n_samples, n_hidden). Sigmoid and hardlim nodes act on the
    affine projection w_t . x + b_t; gaussian and multiquadric nodes act
    on the distance between x and the node's weight row, with the bias
    reinterpreted as a width.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be 2-D (n_samples, n_inputs)")
    if X.shape[1] != layer.n_inputs:
        raise DimensionError(
            f"X has {X.shape[1]} columns, layer expects {layer.n_inputs}"
        )
    return ACTIVATIONS[layer.activation](layer, X)


def warm_up(activation="sigmoid"):
    """Project one row through a one-node layer of this activation.

    A node kind's first projection imports what it needs (scipy); timed
    runs call this first so that no timed fit includes that import.
    """
    hidden_output(make_hidden_layer(1, 1, activation, seed=0), np.zeros((1, 1)))


def pseudoinverse(a):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below eps * max(n, m) * s_max are treated as zero,
    the standard numerically-stable truncation. The result satisfies the
    four Penrose conditions up to that truncation tolerance.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError("pseudoinverse expects a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("pseudoinverse: matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cutoff = np.finfo(float).eps * max(a.shape) * s[0]
    keep = s > cutoff
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vt.T * inv_s) @ u.T


def train_elm(X, Y, n_hidden, activation="sigmoid", seed=None):
    """Train an ELM: draw the hidden layer, then solve the readout.

    The readout is `pseudoinverse(H) @ Y`, the minimum-norm least-squares
    solution; no iteration is involved. Deterministic given
    (X, Y, n_hidden, activation, seed).

    Parameters
    ----------
    X : array (n_samples, n_inputs)
    Y : array (n_samples,) or (n_samples, n_outputs)
    n_hidden : int
        Hidden node count.
    activation : str
    seed : int, SeedSequence, Generator or None

    Returns
    -------
    ElmModel
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be 2-D (n_samples, n_inputs)")
    squeeze = Y.ndim == 1
    Y2 = Y[:, None] if squeeze else Y
    if Y2.ndim != 2 or X.shape[0] != Y2.shape[0]:
        raise DimensionError("X and Y must have the same number of rows")
    if X.shape[0] < 1:
        raise DimensionError("training set is empty")
    layer = make_hidden_layer(X.shape[1], n_hidden, activation, seed)
    h = hidden_output(layer, X)
    beta = pseudoinverse(h) @ Y2
    return ElmModel(
        hidden=layer,
        output_weights=beta,
        input_dim=X.shape[1],
        output_dim=Y2.shape[1],
        squeeze_output=squeeze,
    )


def predict(model, X):
    """Model output H(X) @ beta; 1-D if the model was trained on 1-D targets."""
    out = hidden_output(model.hidden, np.asarray(X, dtype=float)) @ model.output_weights
    return out[:, 0] if model.squeeze_output else out
