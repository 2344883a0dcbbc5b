"""Outlier screening and model validation for fitted events.

Screening standardizes each run against its fitted mean (t1, t2) and the
two runs against each other (t3).  A case is flagged when a statistic is
outside normal bounds in magnitude; the default threshold is 2.75.  The
magnitude rule is deliberate: a run can be anomalous in either direction
(a skater whose finishing times are far better than his passing times
predict is as suspect a data point as the reverse), and the historical
removal rosters for the bundled championships require it.  Each report keeps per-skater
values as read-only columns beside the names, in the order of the pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import DEFAULT_THRESHOLD
from .model import FitResult, Pairs, day_residuals, fit_ml

_KDE_GRIDSIZE = 512
_KDE_BLOCK = 16384      # kernel terms per block of grid rows, which bounds the memory
# The tags of flag code T1 + 2 T2 + 4 T3, in T1, T2, T3 order.
_FLAG_TAGS = [tuple(t for bit, t in enumerate(("T1", "T2", "T3")) if code >> bit & 1)
              for code in range(8)]


class OutlierReport(NamedTuple):
    names: tuple[str, ...]
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    codes: np.ndarray           # flag code T1 + 2 T2 + 4 T3 per skater
    threshold: float

    @property
    def flagged_by(self) -> list[tuple[str, ...]]:
        """Per skater, the tags of the statistics that flagged it, in T1, T2, T3 order."""
        return [_FLAG_TAGS[c] for c in self.codes.tolist()]

    @property
    def flagged_names(self) -> list[str]:
        return [self.names[i] for i in np.flatnonzero(self.codes).tolist()]


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def outlier_scan(pairs: Pairs, fit: FitResult,
                 threshold: float = DEFAULT_THRESHOLD) -> OutlierReport:
    """Screen every pair against the fit.

    t1 and t2 standardize the single-run residuals by the marginal scale
    sqrt(sigma_un^2 + kappa_un^2); t3 standardizes the difference of the
    two residuals (in which the skater's ability effect cancels) by
    sqrt(2) sigma_un.  Flags: |t1| > threshold, |t2| > threshold,
    |t3| >= threshold.
    """
    r1, r2 = day_residuals(pairs, fit.beta)
    marginal = math.hypot(fit.sigma_un, fit.kappa_un)
    t1, t2 = r1 / marginal, r2 / marginal
    t3 = (r2 - r1) / (math.sqrt(2.0) * fit.sigma_un)
    codes = ((np.abs(t1) > threshold) + 2 * (np.abs(t2) > threshold)
             + 4 * (np.abs(t3) >= threshold))
    _read_only(t1, t2, t3, codes)
    return OutlierReport(pairs.names, t1, t2, t3, codes, threshold)


class CleanedFit(NamedTuple):
    """Outcome of the screen-and-refit pipeline."""

    first_fit: FitResult
    report: OutlierReport
    removed: tuple[str, ...]
    pairs_clean: Pairs
    fit: FitResult
    warnings: tuple[str, ...]   # the event's data warnings, passed through


def clean_and_refit(pairs: Pairs, threshold: float = DEFAULT_THRESHOLD,
                    warnings: Sequence[str] = ()) -> CleanedFit:
    """Fit on all usable pairs, scan once, drop flagged skaters, refit.

    A single screening pass keeps the procedure stable: rescanning after
    removal would drag in borderline cases whose statistics only exceed
    the threshold once the variance estimate tightens.
    """
    first = fit_ml(pairs)
    report = outlier_scan(pairs, first, threshold)
    removed = tuple(report.flagged_names)
    kept = pairs.take(report.codes == 0)
    final = fit_ml(kept) if removed else first
    return CleanedFit(first, report, removed, kept, final, tuple(warnings))


class KdeCurve(NamedTuple):
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _kde_bandwidth(v: np.ndarray) -> float:
    """Silverman's rule of thumb for the kernel width of values v: 1.06 s n^(-1/5)."""
    h = 1.06 * float(np.std(v, ddof=1)) * v.size ** (-0.2)
    if not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return h


def gaussian_kde_curve(values: Sequence[float], h: float) -> KdeCurve:
    """Gaussian-kernel density of kernel width h on a regular grid spanning the data +-3h."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    v = np.asarray(values, dtype=float)
    grid = np.linspace(v.min() - 3.0 * h, v.max() + 3.0 * h, _KDE_GRIDSIZE)
    rows = min(_KDE_GRIDSIZE, max(1, _KDE_BLOCK // v.size))
    with np.errstate(over="ignore"):                 # z^2 = inf for a tiny h; exp gives 0
        density = np.concatenate([np.exp(-0.5 * np.square((grid[lo:lo + rows, None] - v) / h))
                                  .sum(axis=1) for lo in range(0, _KDE_GRIDSIZE, rows)])
    density /= v.size * h * math.sqrt(2.0 * math.pi)
    return KdeCurve(grid, density, h)


class ValidationReport(NamedTuple):
    """Standardized averages/differences, their normality summaries and lazy density curves."""

    names: tuple[str, ...]
    ave_star: np.ndarray
    diff_star: np.ndarray
    skew_diff: float
    skew_ave: float
    kurt_diff: float            # excess
    kurt_ave: float
    corr: float
    band_skew: float            # 90% normal band: 1.645 sqrt(6/n)
    band_kurt: float            # 1.645 sqrt(24/n)
    band_corr: float            # 1.645 / sqrt(n)
    bandwidth_diff: float       # Silverman's kernel widths; each kde_* read evaluates its curve
    bandwidth_ave: float
    n: int

    @property
    def kde_diff(self) -> KdeCurve:
        return gaussian_kde_curve(self.diff_star, self.bandwidth_diff)

    @property
    def kde_ave(self) -> KdeCurve:
        return gaussian_kde_curve(self.ave_star, self.bandwidth_ave)


def _skew_kurt(v: np.ndarray) -> tuple[float, float]:
    """Skewness and excess kurtosis, from products: c ** 4 calls libm pow per element."""
    c = v - v.mean()
    c2 = c * c
    m2 = float(c2.mean())
    return float((c2 * c).mean()) / m2 ** 1.5, float((c2 * c2).mean()) / m2 ** 2 - 3.0


def validate_model(pairs: Pairs, fit: FitResult) -> ValidationReport:
    """Check the bivariate normal structure on the cleaned pairs.

    The pair (Y1, Y2) is equivalent to an independent (average, difference)
    pair; both are standardized against the fit and should each look
    standard normal and mutually uncorrelated.  Moment statistics use the
    plain moment estimators matched to the quoted 90% normal bands.
    """
    n = len(pairs)
    if n < 8:
        raise ValueError(f"need at least 8 pairs for moment statistics, got {n}")
    r1, r2 = day_residuals(pairs, fit.beta)
    ave_v = 0.5 * (r1 + r2) / math.sqrt(fit.kappa_un ** 2 + fit.sigma_un ** 2 / 2.0)
    diff_v = (r2 - r1) / (math.sqrt(2.0) * fit.sigma_un)
    _read_only(ave_v, diff_v)
    (skew_diff, kurt_diff), (skew_ave, kurt_ave) = map(_skew_kurt, (diff_v, ave_v))
    return ValidationReport(
        names=pairs.names, ave_star=ave_v, diff_star=diff_v,
        skew_diff=skew_diff, skew_ave=skew_ave, kurt_diff=kurt_diff, kurt_ave=kurt_ave,
        corr=float(np.corrcoef(ave_v, diff_v)[0, 1]),
        band_skew=1.645 * math.sqrt(6.0 / n),
        band_kurt=1.645 * math.sqrt(24.0 / n),
        band_corr=1.645 / math.sqrt(n),
        bandwidth_diff=_kde_bandwidth(diff_v), bandwidth_ave=_kde_bandwidth(ave_v),
        n=n)


class AdjustedDiffs(NamedTuple):
    names: tuple[str, ...]
    w: np.ndarray
    D: np.ndarray               # seconds
    D_star: np.ndarray          # D / (sqrt(2) sigma_un), d=0 refit scale
    fit_zero_d: FitResult


def adjusted_differences(pairs: Pairs) -> AdjustedDiffs:
    """Condition-adjusted lap-time differences under the no-lane-effect refit.

    D = (Y2 - a2 - b x2) - (Y1 - a1 - b x1) with coefficients re-estimated
    under d = 0, so any lane effect is left inside D: the outer-start-first
    group should sit near -d and the inner-start-first group near +d.
    """
    fit0 = fit_ml(pairs, constraint="d_equals_zero")
    r1, r2 = day_residuals(pairs, fit0.beta)
    D = r2 - r1
    star = D / (math.sqrt(2.0) * fit0.sigma_un)
    _read_only(D, star)
    return AdjustedDiffs(pairs.names, pairs.w, D, star, fit0)
