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

All weights live in one float64 vector ``theta``: ``W1`` (hidden x inputs,
row-major), ``b1``, ``w2``, then the output bias ``b2`` as ``theta[-1]``;
``W1``, ``b1`` and ``w2`` are views into it.  The gradient buffer shares the
layout, so a momentum step ``vel = mom * vel - lr * grad; theta += vel`` does
elementwise what updating each array on its own would, bit for bit.

``exp(-z)`` overflows to inf for a very negative ``z``, which saturates the
logistic to 0.0 as it should.  ``fit``, ``p_win`` and ``gradient_check`` each
enter ``np.errstate(over="ignore")`` once around their loops: entered per
logistic call, it would cost as much as the arithmetic it guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(slots=True)
class MlpParams:
    mins: np.ndarray         # (d_numeric,)
    ranges: np.ndarray       # (d_numeric,) max - min, 0 where constant
    theta: np.ndarray        # W1 (row-major), b1, w2, b2
    W1: np.ndarray = field(init=False, repr=False)   # (hidden, d_in) view of theta
    b1: np.ndarray = field(init=False, repr=False)   # (hidden,) view of theta
    w2: np.ndarray = field(init=False, repr=False)   # (hidden,) view of theta

    def __post_init__(self):
        d_in = len(self.mins) + 3
        hidden = (len(self.theta) - 1) // (d_in + 2)
        n_w1 = hidden * d_in
        self.W1 = self.theta[:n_w1].reshape(hidden, d_in)
        self.b1 = self.theta[n_w1:n_w1 + hidden]
        self.w2 = self.theta[n_w1 + hidden:-1]


def _sigmoid(z):   # exp(-z) may overflow: callers hold np.errstate(over="ignore")
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
    out = float(_sigmoid(np.dot(p.w2, hidden) + p.theta[-1]))
    return hidden, out


def _gradients(p: MlpParams, x: np.ndarray, target: float, grad: MlpParams) -> None:
    """Backprop for E = 0.5 * (out - target)^2 at a single instance, written
    into ``grad.theta`` (a buffer in the parameter layout)."""
    hidden, out = _forward(p, x)
    delta_out = (out - target) * out * (1.0 - out)
    np.multiply(delta_out, hidden, out=grad.w2)
    grad.theta[-1] = delta_out
    grad.b1[:] = delta_out * p.w2 * hidden * (1.0 - hidden)
    np.outer(grad.b1, x, out=grad.W1)


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> MlpParams:
    mins = np.min(X, axis=0)
    ranges = np.max(X, axis=0) - mins
    Xin = _inputs(X, site, mins, ranges)
    n, d_in = Xin.shape
    # attribute count = numeric features + 1 site categorical; classes = 2
    n_attr = X.shape[1] + 1
    hidden = hp["hidden"] if hp["hidden"] is not None else math.ceil((n_attr + 2) / 2)

    rng = np.random.default_rng(seed)
    p = MlpParams(mins, ranges, rng.uniform(-0.5, 0.5, size=hidden * (d_in + 2) + 1))
    grad = MlpParams(mins, ranges, np.zeros_like(p.theta))
    vel = np.zeros_like(p.theta)
    lr, mom = hp["learning_rate"], hp["momentum"]
    targets = y.astype(float)
    with np.errstate(over="ignore"):
        for _ in range(hp["epochs"]):
            for i in range(n):
                _gradients(p, Xin[i], targets[i], grad)
                vel = mom * vel - lr * grad.theta
                p.theta += vel
    return p


def p_win(p: MlpParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """The network's output for each row, one forward pass per row."""
    rows = _inputs(X, site, p.mins, p.ranges)
    with np.errstate(over="ignore"):
        return np.array([_forward(p, x)[1] for x in rows])


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

    def loss() -> float:
        _, out = _forward(p, x)
        return 0.5 * (out - target) ** 2

    grad = MlpParams(p.mins, p.ranges, np.empty_like(p.theta))
    numeric = np.empty_like(p.theta)
    with np.errstate(over="ignore"):
        _gradients(p, x, target, grad)
        for i, orig in enumerate(p.theta.tolist()):
            p.theta[i] = orig + epsilon
            up = loss()
            p.theta[i] = orig - epsilon
            down = loss()
            p.theta[i] = orig
            numeric[i] = (up - down) / (2.0 * epsilon)

    worst = 0.0
    for ga, gn in zip(grad.theta, numeric):
        denom = max(abs(ga), abs(gn))
        err = abs(ga - gn) if denom < 1e-8 else abs(ga - gn) / denom
        worst = max(worst, err)
    return worst


def encode_params(p: MlpParams) -> dict:
    return {
        "mins": p.mins.tolist(), "ranges": p.ranges.tolist(),
        "W1": p.W1.tolist(), "b1": p.b1.tolist(),
        "w2": p.w2.tolist(), "b2": float(p.theta[-1]),
    }


def decode_params(doc: dict, n_features: int) -> MlpParams:
    mins = np.asarray(doc["mins"], dtype=float)
    ranges = np.asarray(doc["ranges"], dtype=float)
    W1, b1, w2 = (np.asarray(doc[k], dtype=float) for k in ("W1", "b1", "w2"))
    hidden = len(b1)
    shapes = (mins.shape, ranges.shape, W1.shape, b1.shape, w2.shape)
    if shapes != ((n_features,), (n_features,), (hidden, n_features + 3), (hidden,), (hidden,)):
        raise ModelError("MLP weight shapes do not match the feature count")
    theta = np.concatenate([W1.ravel(), b1, w2, [float(doc["b2"])]])
    if not all(np.all(np.isfinite(v)) for v in (mins, ranges, theta)):
        raise ModelError("MLP scaling values and weights must be finite")
    if np.any(ranges < 0):
        raise ModelError("MLP feature ranges must not be negative")
    return MlpParams(mins, ranges, theta)
