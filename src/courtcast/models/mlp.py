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

All weights of one network live in one float64 vector ``theta``: ``W1``
(hidden x inputs, row-major), ``b1``, ``w2``, then the output bias ``b2`` as
``theta[-1]``; ``W1``, ``b1`` and ``w2`` are views into it.

``fit_group`` trains several networks in lockstep: the ceiling grid's MLP
cells see the same rows in the same order, with the same labels and
hyperparameters, and differ only in input width.  ``fit`` is its group of
one.  A group keeps every network's ``W1``, then every ``b1``, every ``w2``
and every ``b2`` in one vector, and its gradient and velocity buffers share
that layout; for one network it is exactly ``theta``.  In each online
update only the reductions run per network, on that network's own arrays:
``W1_k @ x_k``, ``w2_k . h_k`` and the outer product ``delta_k x_k``, so
BLAS sees the shapes and summation order of a separate fit.  Every
elementwise step runs once for the whole group, as one ufunc call over all
networks' values laid end to end: the bias adds, both logistics, the output
and hidden deltas, and the momentum step ``vel = mom * vel - lr * grad;
theta += vel``.  An IEEE elementwise operation gives each element the same
bits whatever sits beside it, so each network's weights equal those of its
own fit, bit for bit, and an update costs 24 + 3K numpy calls for K
networks instead of about 25 per network.  ``p_win`` and ``gradient_check``
run the same forward pass and backprop on a group of one.

``exp(-z)`` overflows to inf for a very negative ``z``, which saturates the
logistic to 0.0 as it should.  ``fit_group``, ``p_win`` and
``gradient_check`` each enter ``np.errstate(over="ignore")`` once around
their loops: entered per logistic call, it would cost as much as the
arithmetic it guards.  A learning rate and momentum large enough can also
drive the weights themselves to inf and then NaN, so ``fit_group`` ignores
invalid values in its loop too, and checks once, after it, that every
weight is finite: a network that diverged is refused, never returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


class _Group:
    """A copy of networks' weights in group layout, each network's views
    into it, and the activations of the last :func:`_forward`."""

    def __init__(self, nets: list[MlpParams]):
        self.theta = np.concatenate([p.W1.ravel() for p in nets] + [p.b1 for p in nets]
                                    + [p.w2 for p in nets] + [p.theta[-1:] for p in nets])
        shapes = [p.W1.shape for p in nets]
        w1_ends = np.cumsum([0] + [h * d for h, d in shapes]).tolist()
        h_ends = np.cumsum([0] + [h for h, _ in shapes]).tolist()
        n_w1, n_h = w1_ends[-1], h_ends[-1]
        self.W1 = self.theta[:n_w1]
        self.b1 = self.theta[n_w1:n_w1 + n_h]
        self.w2 = self.theta[n_w1 + n_h:n_w1 + 2 * n_h]
        self.b2 = self.theta[n_w1 + 2 * n_h:]
        spans = [slice(a, b) for a, b in zip(h_ends, h_ends[1:])]
        self.W1s = [self.W1[a:b].reshape(shape)
                    for a, b, shape in zip(w1_ends, w1_ends[1:], shapes)]
        self.b1s = [self.b1[s] for s in spans]
        self.w2s = [self.w2[s] for s in spans]
        self.hidden = np.empty(n_h)
        self.hiddens = [self.hidden[s] for s in spans]
        self.out = np.empty(len(nets))
        # 0-d views, so that np.dot writes each network's output in place
        self.outs = [self.out[k:k + 1].reshape(()) for k in range(len(nets))]
        # the network of each hidden unit, and scratch for 1 - activation
        self.owner = np.repeat(np.arange(len(nets)), np.diff(h_ends))
        self.spare_h, self.spare_out = np.empty(n_h), np.empty(len(nets))


# The step below passes each ufunc its output positionally, and its
# constants as 0-d arrays: on arrays of a few dozen values, parsing an out=
# keyword or converting a Python float each cost about a tenth of the call.
_ONE = np.array(1.0)
_ONE.setflags(write=False)


def _sigmoid(z: np.ndarray) -> None:
    """The logistic, in place.  exp(-z) may overflow: callers hold
    np.errstate(over="ignore")."""
    np.negative(z, z)
    np.exp(z, z)
    z += _ONE
    np.divide(_ONE, z, z)


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


def _forward(g: _Group, xs) -> np.ndarray:
    """Each network's hidden layer and output at its input in ``xs``,
    written into ``g.hidden`` and ``g.out``; returns ``g.out``."""
    for W1, x, h in zip(g.W1s, xs, g.hiddens):
        np.matmul(W1, x, h)
    g.hidden += g.b1
    _sigmoid(g.hidden)
    for w2, h, out in zip(g.w2s, g.hiddens, g.outs):
        np.dot(w2, h, out)
    g.out += g.b2
    _sigmoid(g.out)
    return g.out


def _gradients(g: _Group, xs, target: float | np.ndarray, grad: _Group) -> None:
    """Backprop for E = 0.5 * (out - target)^2 of each network at its input
    in ``xs``, written over all of ``grad.theta``, a second group.  The
    networks share the ``target``: a float, or a 1-element array."""
    out, hidden = _forward(g, xs), g.hidden
    delta_out = grad.b2
    np.subtract(out, target, delta_out)
    delta_out *= out
    np.subtract(_ONE, out, g.spare_out)
    delta_out *= g.spare_out
    delta_out.take(g.owner, None, grad.w2, "clip")   # delta_out per hidden unit
    np.multiply(grad.w2, g.w2, grad.b1)
    grad.b1 *= hidden
    np.subtract(_ONE, hidden, g.spare_h)
    grad.b1 *= g.spare_h
    grad.w2 *= hidden
    for W1, delta_hidden, x in zip(grad.W1s, grad.b1s, xs):
        np.multiply(delta_hidden[:, None], x, W1)     # the outer product


def fit_group(Xs: list[np.ndarray], site: np.ndarray, y: np.ndarray, hp: dict,
              seed: int) -> list[MlpParams]:
    """One network per feature matrix in ``Xs``, whose rows are the same
    games at sites ``site`` with labels ``y``.  Each network equals
    :func:`fit` of its own matrix, bit for bit."""
    nets, inputs = [], []
    for X in Xs:
        mins = np.min(X, axis=0)
        ranges = np.max(X, axis=0) - mins
        inputs.append(_inputs(X, site, mins, ranges))
        d_in = inputs[-1].shape[1]
        # attribute count = numeric features + 1 site categorical; classes = 2
        n_attr = X.shape[1] + 1
        hidden = hp["hidden"] if hp["hidden"] is not None else math.ceil((n_attr + 2) / 2)
        rng = np.random.default_rng(seed)
        nets.append(MlpParams(mins, ranges,
                              rng.uniform(-0.5, 0.5, size=hidden * (d_in + 2) + 1)))

    g, grad = _Group(nets), _Group(nets)
    vel, step = np.zeros_like(g.theta), np.empty_like(g.theta)
    lr, mom = np.array(float(hp["learning_rate"])), np.array(float(hp["momentum"]))
    targets = y.astype(float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp["epochs"]):
            # each game's input row of every network, and its label
            for xs, target in zip(zip(*inputs), targets):
                _gradients(g, xs, target, grad)
                np.multiply(grad.theta, lr, step)
                vel *= mom
                vel -= step
                g.theta += vel
    if not np.isfinite(g.theta).all():
        raise ModelError(f"MLP training diverged: its weights left the float range at "
                         f"learning_rate {hp['learning_rate']} and momentum "
                         f"{hp['momentum']}; lower either")

    for k, p in enumerate(nets):
        p.W1[:], p.b1[:], p.w2[:] = g.W1s[k], g.b1s[k], g.w2s[k]
        p.theta[-1] = g.b2[k]
    return nets


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> MlpParams:
    return fit_group([X], site, y, hp, seed)[0]


def p_win(p: MlpParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """The network's output for each row, one forward pass per row."""
    rows = _inputs(X, site, p.mins, p.ranges)
    g = _Group([p])
    with np.errstate(over="ignore"):
        return np.array([_forward(g, (x,))[0] for x in rows])


def gradient_check(model: TrainedModel, x: np.ndarray, site: int, label: int,
                   epsilon: float = 1e-5) -> float:
    """Max per-weight discrepancy between backprop and central differences at
    features ``x``, site code ``site`` (0-2) and ``label`` (1: a first-team win).

    Relative error |ga - gn| / max(|ga|, |gn|), falling back to the absolute
    difference when both gradients are smaller than 1e-8.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ModelError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    if model.kind is not ModelKind.MLP:
        raise ModelError("gradient_check applies to MLP models only")
    p: MlpParams = model.params
    x = np.asarray(x, dtype=float)
    if x.shape != p.mins.shape or not np.all(np.isfinite(x)):
        raise ModelError(f"gradient_check needs {len(p.mins)} finite feature values")
    if np.ndim(site) or site not in (0, 1, 2) or np.ndim(label) or label not in (0, 1):
        raise ModelError(f"gradient_check needs site 0-2 and label 0 or 1, got {site!r}, {label!r}")
    xs = _inputs(x[None], np.array([int(site)]), p.mins, p.ranges)  # 1 row
    target = float(label)
    g, grad = _Group([p]), _Group([p])

    def loss() -> float:
        out = float(_forward(g, xs)[0])
        return 0.5 * (out - target) ** 2

    numeric = np.empty_like(g.theta)
    with np.errstate(over="ignore"):
        _gradients(g, xs, target, grad)
        for i, orig in enumerate(g.theta.tolist()):
            g.theta[i] = orig + epsilon
            up = loss()
            g.theta[i] = orig - epsilon
            down = loss()
            g.theta[i] = orig
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
