"""Single-hidden-layer perceptron trained by online backpropagation.

Inputs are the numeric features min-max scaled to [0, 1] (ranges learned
from the training set) plus a 3-bit one-hot for the game site.  The network
is  input(d) -> logistic hidden(ceil((d + 2)/2)) -> logistic output(1),
where the hidden width counts the site categorical as one attribute and the
two classes, mirroring a classic toolkit default.  Training minimizes
squared error with per-instance weight updates, learning rate 0.3 and
momentum 0.2, for 500 passes over the data in a fixed order — fully
deterministic given the seed that draws the initial weights.

The single logistic output is read directly as p(win), so p(win) + p(loss)
is 1 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from courtcast.features import SITE_ORDER, Label, MatchInstance
from courtcast.models.base import (
    ModelError,
    ModelKind,
    POSITIVE,
    Range,
    TrainedModel,
)

HYPER = {  # name -> (default, allowed values)
    # None -> ceil((inputs + 2) / 2), site counted once
    "hidden": (None, Range(int, 1, 10_000)),
    "learning_rate": (0.3, POSITIVE),
    "momentum": (0.2, Range(float, 0.0, 1.0)),
    "epochs": (500, Range(int, 0, 1_000_000)),
}


@dataclass
class MlpParams:
    mins: np.ndarray         # (d_numeric,)
    ranges: np.ndarray       # (d_numeric,) max - min, 0 where constant
    W1: np.ndarray           # (hidden, d_in)
    b1: np.ndarray           # (hidden,)
    w2: np.ndarray           # (d_in -> scalar) shape (hidden,)
    b2: float


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) = inf saturates the output to 0.0
        return 1.0 / (1.0 + np.exp(-z))


def _normalize(X: np.ndarray, mins: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    out = X - mins
    nz = ranges > 0
    out[:, nz] /= ranges[nz]
    out[:, ~nz] = 0.0
    return out


def _inputs(X: np.ndarray, site: np.ndarray, mins: np.ndarray,
            ranges: np.ndarray) -> np.ndarray:
    Xn = _normalize(X.astype(float).copy(), mins, ranges)
    onehot = np.zeros((len(site), 3))
    onehot[np.arange(len(site)), site] = 1.0
    return np.concatenate([Xn, onehot], axis=1)


def _forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, float]:
    hidden = _sigmoid(p.W1 @ x + p.b1)
    out = float(_sigmoid(np.dot(p.w2, hidden) + p.b2))
    return hidden, out


def _gradients(p: MlpParams, x: np.ndarray, target: float):
    """Backprop for E = 0.5 * (out - target)^2 at a single instance."""
    hidden, out = _forward(p, x)
    delta_out = (out - target) * out * (1.0 - out)
    grad_w2 = delta_out * hidden
    grad_b2 = delta_out
    delta_hidden = delta_out * p.w2 * hidden * (1.0 - hidden)
    grad_W1 = np.outer(delta_hidden, x)
    grad_b1 = delta_hidden
    return grad_W1, grad_b1, grad_w2, grad_b2


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> MlpParams:
    mins = np.min(X, axis=0)
    ranges = np.max(X, axis=0) - mins
    Xin = _inputs(X, site, mins, ranges)
    n, d_in = Xin.shape
    # attribute count = numeric features + 1 site categorical; classes = 2
    n_attr = X.shape[1] + 1
    hidden = hp["hidden"] if hp["hidden"] is not None else math.ceil((n_attr + 2) / 2)

    rng = np.random.default_rng(seed)
    p = MlpParams(
        mins=mins, ranges=ranges,
        W1=rng.uniform(-0.5, 0.5, size=(hidden, d_in)),
        b1=rng.uniform(-0.5, 0.5, size=hidden),
        w2=rng.uniform(-0.5, 0.5, size=hidden),
        b2=float(rng.uniform(-0.5, 0.5)),
    )

    lr, mom = hp["learning_rate"], hp["momentum"]
    vel_W1 = np.zeros_like(p.W1)
    vel_b1 = np.zeros_like(p.b1)
    vel_w2 = np.zeros_like(p.w2)
    vel_b2 = 0.0
    targets = y.astype(float)
    for _ in range(hp["epochs"]):
        for i in range(n):
            g_W1, g_b1, g_w2, g_b2 = _gradients(p, Xin[i], targets[i])
            vel_W1 = mom * vel_W1 - lr * g_W1
            vel_b1 = mom * vel_b1 - lr * g_b1
            vel_w2 = mom * vel_w2 - lr * g_w2
            vel_b2 = mom * vel_b2 - lr * g_b2
            p.W1 += vel_W1
            p.b1 += vel_b1
            p.w2 += vel_w2
            p.b2 += vel_b2

    return p


def p_win(p: MlpParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """The network's output for each row, one forward pass per row."""
    return np.array([_forward(p, x)[1] for x in _inputs(X, site, p.mins, p.ranges)])


def gradient_check(model: TrainedModel, instance: MatchInstance,
                   epsilon: float = 1e-5) -> float:
    """Max per-weight discrepancy between backprop and central differences.

    Relative error |ga - gn| / max(|ga|, |gn|), falling back to the absolute
    difference when both gradients are smaller than 1e-8.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ModelError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    if model.kind is not ModelKind.MLP:
        raise ModelError("gradient_check applies to MLP models only")
    p: MlpParams = model.params
    x = np.asarray(instance.features, dtype=float)
    if x.shape != p.mins.shape or not np.all(np.isfinite(x)):
        raise ModelError(f"gradient_check needs {len(p.mins)} finite feature values")
    x = _inputs(x[None], np.array([SITE_ORDER.index(instance.location)]), p.mins, p.ranges)[0]
    target = 1.0 if instance.label is None else float(instance.label is Label.WIN)

    g_W1, g_b1, g_w2, g_b2 = _gradients(p, x, target)
    analytic = np.concatenate([g_W1.ravel(), g_b1, g_w2, [g_b2]])

    def loss() -> float:
        _, out = _forward(p, x)
        return 0.5 * (out - target) ** 2

    arrays = [p.W1, p.b1, p.w2]
    numeric = []
    for arr in arrays:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss()
            flat[i] = orig - epsilon
            down = loss()
            flat[i] = orig
            numeric.append((up - down) / (2.0 * epsilon))
    orig = p.b2
    p.b2 = orig + epsilon
    up = loss()
    p.b2 = orig - epsilon
    down = loss()
    p.b2 = orig
    numeric.append((up - down) / (2.0 * epsilon))
    numeric = np.asarray(numeric)

    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = max(abs(ga), abs(gn))
        err = abs(ga - gn) if denom < 1e-8 else abs(ga - gn) / denom
        worst = max(worst, err)
    return worst


def encode_params(p: MlpParams) -> dict:
    return {
        "mins": p.mins.tolist(), "ranges": p.ranges.tolist(),
        "W1": p.W1.tolist(), "b1": p.b1.tolist(),
        "w2": p.w2.tolist(), "b2": p.b2,
    }


def decode_params(doc: dict, n_features: int) -> MlpParams:
    p = MlpParams(
        mins=np.asarray(doc["mins"], dtype=float),
        ranges=np.asarray(doc["ranges"], dtype=float),
        W1=np.asarray(doc["W1"], dtype=float),
        b1=np.asarray(doc["b1"], dtype=float),
        w2=np.asarray(doc["w2"], dtype=float),
        b2=float(doc["b2"]),
    )
    hidden = len(p.b1)
    shapes = (p.mins.shape, p.ranges.shape, p.W1.shape, p.b1.shape, p.w2.shape)
    if shapes != ((n_features,), (n_features,), (hidden, n_features + 3), (hidden,), (hidden,)):
        raise ModelError("MLP weight shapes do not match the feature count")
    return p
