"""Naive Bayes with per-feature Gaussian kernel density estimates.

Instead of fitting one Gaussian per (feature, class), the class-conditional
density of each numeric feature is a kernel estimate over the training
points themselves:

    p(x | class) = mean_i N(x; x_i, h)          h = sigma_hat * n^(-1/5)

with a floor of 1e-6 on the bandwidth so constant features degrade into
near-point masses instead of dividing by zero.  The game-site categorical
is handled as a nominal feature with add-one smoothing.  All likelihood
work happens in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from courtcast.models.base import POSITIVE, ModelError

HYPER = {  # name -> (default, allowed values)
    # None -> per-feature-per-class data-driven bandwidth; a float forces
    # that bandwidth everywhere (useful for closed-form verification).
    "bandwidth": (None, POSITIVE),
    "bandwidth_floor": (1e-6, POSITIVE),
}

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KdeParams:
    # per class (0 = loss, 1 = win): training columns and bandwidths
    points: tuple[np.ndarray, np.ndarray]       # each (n_class, d)
    bandwidths: tuple[np.ndarray, np.ndarray]   # each (d,)
    site_counts: tuple[np.ndarray, np.ndarray]  # each (3,)
    log_priors: tuple[float, float]


def _bandwidths(Xc: np.ndarray, forced: float | None, floor: float) -> np.ndarray:
    n, d = Xc.shape
    if forced is not None:
        return np.full(d, float(forced))
    if n < 2:
        return np.full(d, floor)
    sigma = np.std(Xc, axis=0, ddof=1)
    h = sigma * n ** (-1.0 / 5.0)
    return np.maximum(h, floor)


def fit(X: np.ndarray, site: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> KdeParams:
    points, bands, site_counts, log_priors = [], [], [], []
    n = len(y)
    for cls in (0, 1):
        Xc = X[y == cls]
        points.append(Xc)
        bands.append(_bandwidths(Xc, hp["bandwidth"], hp["bandwidth_floor"]))
        counts = np.bincount(site[y == cls], minlength=3).astype(float)
        site_counts.append(counts)
        log_priors.append(math.log(len(Xc) / n))

    params = KdeParams(points=(points[0], points[1]),
                       bandwidths=(bands[0], bands[1]),
                       site_counts=(site_counts[0], site_counts[1]),
                       log_priors=(log_priors[0], log_priors[1]))
    return params


def _log_kde(x: np.ndarray, pts: np.ndarray, h: np.ndarray) -> float:
    """Sum over features of log mean_i N(x_f; pts[i,f], h_f)."""
    z = (x[None, :] - pts) / h[None, :]                      # (n, d)
    log_kernel = -0.5 * z * z - np.log(h)[None, :] - _LOG_SQRT_2PI
    # logsumexp over training points, per feature
    m = np.max(log_kernel, axis=0)
    log_density = m + np.log(np.sum(np.exp(log_kernel - m[None, :]), axis=0))
    log_density -= math.log(pts.shape[0])
    return float(np.sum(log_density))


def p_win(p: KdeParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Posterior p(win) of each row, one row at a time: every row evaluates
    all training points, so a batch would save no work."""
    out = np.empty(len(X))
    for row, (x, site_code) in enumerate(zip(X, site)):
        log_post = []
        for cls in (0, 1):
            ll = p.log_priors[cls] + _log_kde(x, p.points[cls], p.bandwidths[cls])
            counts = p.site_counts[cls]
            ll += math.log((counts[site_code] + 1.0) / (counts.sum() + 3.0))
            log_post.append(ll)
        # normalize in log space
        m = max(log_post)
        w = [math.exp(v - m) for v in log_post]
        out[row] = w[1] / (w[0] + w[1])
    return out


def encode_params(p: KdeParams) -> dict:
    return {
        "points": [p.points[0].tolist(), p.points[1].tolist()],
        "bandwidths": [p.bandwidths[0].tolist(), p.bandwidths[1].tolist()],
        "site_counts": [p.site_counts[0].tolist(), p.site_counts[1].tolist()],
        "log_priors": list(p.log_priors),
    }


def decode_params(doc: dict, n_features: int) -> KdeParams:
    p = KdeParams(
        points=tuple(np.asarray(v, dtype=float) for v in doc["points"]),
        bandwidths=tuple(np.asarray(v, dtype=float) for v in doc["bandwidths"]),
        site_counts=tuple(np.asarray(v, dtype=float) for v in doc["site_counts"]),
        log_priors=tuple(float(v) for v in doc["log_priors"]),
    )
    if (any(len(part) != 2 for part in (p.points, p.bandwidths, p.site_counts, p.log_priors))
            or any(pts.shape[1:] != (n_features,) or not len(pts) for pts in p.points)
            or any(h.shape != (n_features,) for h in p.bandwidths)
            or any(c.shape != (3,) or not np.all(c >= 0) for c in p.site_counts)):
        raise ModelError(f"naive Bayes parameters do not fit {n_features} features")
    return p
