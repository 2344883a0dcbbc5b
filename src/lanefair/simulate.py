"""Synthetic paired-run events and Monte Carlo calibration of the estimator.

All randomness flows through numpy's Generator (PCG64) seeded explicitly,
so repeated runs with the same seed are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Pairs, fit_ml

_X_MEAN, _X_SD = 10.1, 0.2      # 100 m passing times, seconds
_A1, _A2, _B = 17.0, 17.0, 2.0  # day intercepts and passing-time slope


def simulate_event(rng: np.random.Generator, n: int, d: float = 0.05,
                   sigma: float = 0.25, kappa: float = 0.30) -> Pairs:
    """Draw one event: normal passing times, balanced shuffled lane draw,
    shared per-skater ability effect, independent per-run noise."""
    x1 = rng.normal(_X_MEAN, _X_SD, n)
    x2 = rng.normal(_X_MEAN, _X_SD, n)
    w = np.where(rng.permutation(n) < n // 2, 0.5, -0.5)
    c = rng.normal(0.0, kappa, n)
    y1 = _A1 + _B * x1 + c + d * w + rng.normal(0.0, sigma, n)
    y2 = _A2 + _B * x2 + c - d * w + rng.normal(0.0, sigma, n)
    return Pairs(map("s{:04d}".format, range(n)), x1, y1, x2, y2, w)


@dataclass(frozen=True)
class McReport:
    n: int
    reps: int
    seed: int
    d_true: float
    sigma_true: float
    kappa_true: float
    d_mean: float
    d_var: float
    d_var_theory: float         # 2 sigma^2 / n
    var_ratio: float
    sigma2_un_mean: float
    rho_mean: float


def mc_calibration(n: int = 30, reps: int = 2000, seed: int = 7,
                   d: float = 0.05, sigma: float = 0.25,
                   kappa: float = 0.30) -> McReport:
    """Fit ``reps`` simulated events and compare the spread of the
    lane-difference estimate with its large-sample variance 2 sigma^2/n."""
    if reps < 2:
        raise ValueError(f"need at least 2 replicates for a variance, got {reps}")
    if not sigma > 0.0:
        raise ValueError(f"need sigma > 0 for the variance ratio, got {sigma:g}")
    rng = np.random.default_rng(seed)
    ds = np.empty(reps)
    s2 = np.empty(reps)
    rhos = np.empty(reps)
    for r in range(reps):
        fit = fit_ml(simulate_event(rng, n, d=d, sigma=sigma, kappa=kappa))
        ds[r] = fit.d
        s2[r] = fit.sigma_un ** 2
        rhos[r] = fit.rho
    d_var = float(ds.var(ddof=1))
    theory = 2.0 * sigma ** 2 / n
    if not (theory > 0.0 and math.isfinite(d_var / theory)):
        raise ValueError(f"2 sigma^2/n = {theory:g} gives no finite variance ratio")
    return McReport(
        n=n, reps=reps, seed=seed, d_true=d, sigma_true=sigma, kappa_true=kappa,
        d_mean=float(ds.mean()), d_var=d_var,
        d_var_theory=theory, var_ratio=d_var / theory,
        sigma2_un_mean=float(s2.mean()), rho_mean=float(rhos.mean()))
