"""Naive Bayes with per-feature Gaussian kernel density estimates.

Instead of fitting one Gaussian per (feature, class), the class-conditional
density of each numeric feature is a kernel estimate over the training
points themselves:

    p(x | class) = mean_i N(x; x_i, h)          h = sigma_hat * n^(-1/5)

with a floor of 1e-6 on the bandwidth so constant features degrade into
near-point masses instead of dividing by zero.  The game-site categorical
is handled as a nominal feature with add-one smoothing.  All likelihood
work happens in log space.

A feature's density depends on that feature's value alone, so a batch
scores each column's distinct values once: a ranking, whose columns each
hold one team's values, costs about one row per team, not one per pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from courtcast.models.base import ModelError, Range

# A training point is at most LIMIT in magnitude and a bandwidth at least
# 1 / LIMIT, so every standardized distance, and its square, stays finite.
LIMIT = 1e50

HYPER = {  # name -> (default, allowed values)
    # None -> per-feature-per-class data-driven bandwidth; a float forces
    # that bandwidth everywhere (useful for closed-form verification).
    "bandwidth": (None, Range(float, 1 / LIMIT)),
    "bandwidth_floor": (1e-6, Range(float, 1 / LIMIT)),
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


def _log_densities(x: np.ndarray, pts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per feature f, log mean_i N(x_f; pts[i,f], h_f): a (d,) array."""
    z = (x[None, :] - pts) / h[None, :]                      # (n, d)
    log_kernel = -0.5 * z * z - np.log(h)[None, :] - _LOG_SQRT_2PI
    # logsumexp over training points, per feature
    m = np.max(log_kernel, axis=0)
    log_density = m + np.log(np.sum(np.exp(log_kernel - m[None, :]), axis=0))
    log_density -= math.log(pts.shape[0])
    return log_density


def p_win(p: KdeParams, X: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Posterior p(win) of each row, scoring each column's distinct values once.

    Row r of ``V`` holds the r-th distinct value of every column (shorter
    columns repeat their own values to fill).  Each row of ``V`` is scored
    on the full-width training array, as one row of ``X`` would be, and the
    per-feature densities are gathered back to the rows of ``X`` and summed,
    so a row's probability does not depend on what else shares its batch.
    """
    uniques, inverse = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    k = max(map(len, uniques))
    V = np.stack([np.resize(u, k) for u in uniques], axis=1)       # (k, d)
    at = np.stack(inverse, axis=1), np.arange(X.shape[1])  # X == V[at]
    log_lik = []
    for cls in (0, 1):
        dens = np.empty(V.shape)
        for r, v in enumerate(V):
            dens[r] = _log_densities(v, p.points[cls], p.bandwidths[cls])
        log_lik.append(np.sum(dens[at], axis=1).tolist())
    site_terms = [[math.log((counts[s] + 1.0) / (counts.sum() + 3.0)) for s in range(3)]
                  for counts in p.site_counts]
    out = np.empty(len(X))
    for row, site_code in enumerate(site.tolist()):
        log_post = [p.log_priors[cls] + log_lik[cls][row] + site_terms[cls][site_code]
                    for cls in (0, 1)]
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
    if not all(np.all(np.abs(pts) <= LIMIT) for pts in p.points):
        raise ModelError(f"naive Bayes training points must be finite, at most {LIMIT:g} "
                         "in magnitude")
    if not all(np.all(np.isfinite(c)) for c in p.site_counts):
        raise ModelError("naive Bayes site counts must be finite")
    if not all(np.all(np.isfinite(h) & (h >= 1 / LIMIT)) for h in p.bandwidths):
        raise ModelError(f"naive Bayes bandwidths must be finite and positive, "
                         f"at least {1 / LIMIT:g}")
    if not all(math.isfinite(v) and v <= 0 for v in p.log_priors):
        raise ModelError("naive Bayes log priors must be finite and at most 0")
    return p
