"""Maximum-likelihood fitting of the paired two-run mixed-effects model.

Each skater i contributes a bivariate response (Y1, Y2) with means
a1 + b*x1 + d*w and a2 + b*x2 - d*w, where x is the 100 m passing time
and w = +-1/2 encodes the lane draw.  A shared random ability effect with
standard deviation kappa induces correlation rho = kappa^2/(sigma^2+kappa^2)
between the two days; sigma is the per-run noise level.

Estimation profiles the likelihood over rho: for fixed rho the coefficient
vector beta = (a1, a2, b, d) has a closed-form generalized-least-squares
solution, leaving a one-dimensional search.  The profile is evaluated on a
whole rho grid with one stacked solve; in the bracket around the best grid
point the maximizer is the root of the stationarity equation
rho (Q1 + Q2) = 2 Q3, where Q1, Q2 and Q3 are the residual sums of squares
and cross products at the GLS solution.  A maximum at the rho = 0 boundary
is taken when the profile falls from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .dataset import PairObs

RHO_MAX = 1.0 - 1e-6
_RHO_XTOL = 1e-12


class FitError(RuntimeError):
    """Base class for estimation failures."""


class InsufficientDataError(FitError):
    pass


class DegenerateDesignError(FitError):
    pass


def _arrays(pairs: Sequence[PairObs]):
    x1 = np.array([p.x1 for p in pairs], dtype=float)
    y1 = np.array([p.y1 for p in pairs], dtype=float)
    x2 = np.array([p.x2 for p in pairs], dtype=float)
    y2 = np.array([p.y2 for p in pairs], dtype=float)
    w = np.array([p.w for p in pairs], dtype=float)
    return x1, y1, x2, y2, w


def design_rows(pairs: Sequence[PairObs], with_lane: bool = True):
    """Covariate matrices X1, X2 and responses y1, y2.

    Row i of X1 is (1, 0, x1_i, w_i) and of X2 is (0, 1, x2_i, -w_i);
    the lane column is dropped when ``with_lane`` is false.
    """
    x1, y1, x2, y2, w = _arrays(pairs)
    n = len(pairs)
    cols1 = [np.ones(n), np.zeros(n), x1]
    cols2 = [np.zeros(n), np.ones(n), x2]
    if with_lane:
        cols1.append(w)
        cols2.append(-w)
    return np.column_stack(cols1), np.column_stack(cols2), y1, y2


@dataclass(frozen=True)
class MomentMatrices:
    """Per-pair averages of all cross products needed by the profile search.

    M[u][v] = ave(x_u x_v'), S[u][v] = ave(x_u Y_v); the scalar response
    moments T make the quadratic forms Q1, Q2, Q3 computable in O(1) for
    any beta without revisiting the data.
    """

    M11: np.ndarray
    M12: np.ndarray
    M21: np.ndarray
    M22: np.ndarray
    S11: np.ndarray
    S12: np.ndarray
    S21: np.ndarray
    S22: np.ndarray
    T11: float
    T22: float
    T12: float
    n: int

    @property
    def p(self) -> int:
        return self.M11.shape[0]

    @cached_property
    def augmented(self) -> np.ndarray:
        """A_1, A_2, A_3 stacked as (3, p+1, p+1), with b = (beta, -1) and
        Q_k = n b' A_k b: A_1 = [[M11, S11], [S11', T11]], A_2 likewise for
        day 2, and A_3 = [[M12, S12], [S21', T12]]."""
        def block(M, S_row, S_col, T):
            return np.block([[M, S_col[:, None]], [S_row[None, :], np.array([[T]])]])

        return np.stack([block(self.M11, self.S11, self.S11, self.T11),
                         block(self.M22, self.S22, self.S22, self.T22),
                         block(self.M12, self.S21, self.S12, self.T12)])


def build_moments(pairs: Sequence[PairObs], with_lane: bool = True) -> MomentMatrices:
    """Average cross-product matrices over the usable pairs."""
    if not pairs:
        raise InsufficientDataError("no usable pairs")
    X1, X2, y1, y2 = design_rows(pairs, with_lane)
    n = len(pairs)
    return MomentMatrices(
        M11=X1.T @ X1 / n, M12=X1.T @ X2 / n, M21=X2.T @ X1 / n, M22=X2.T @ X2 / n,
        S11=X1.T @ y1 / n, S12=X1.T @ y2 / n, S21=X2.T @ y1 / n, S22=X2.T @ y2 / n,
        T11=float(y1 @ y1) / n, T22=float(y2 @ y2) / n, T12=float(y1 @ y2) / n,
        n=n)


def _m_rho(m: MomentMatrices, rho):
    """GLS matrix at rho; a (G, 1, 1) array of rhos gives the (G, p, p) stack."""
    return m.M11 + m.M22 - rho * (m.M12 + m.M21)


def _s_rho(m: MomentMatrices, rho):
    """GLS right-hand side at rho; a (G, 1) array of rhos gives (G, p)."""
    return m.S11 + m.S22 - rho * (m.S12 + m.S21)


def gls_beta(m: MomentMatrices, rho: float) -> np.ndarray:
    """Closed-form minimizer of Q(beta) at fixed rho."""
    try:
        return np.linalg.solve(_m_rho(m, rho), _s_rho(m, rho))
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError(f"singular design at rho={rho:g}: {exc}") from None


def q_components(m: MomentMatrices | Sequence[PairObs], beta: np.ndarray,
                 ) -> tuple[float, float, float]:
    """Residual sums Q1 = sum r1^2, Q2 = sum r2^2, Q3 = sum r1*r2.

    Accepts either raw pairs (residuals formed directly, exact for a
    perfect fit) or precomputed moments (O(1), used inside the profile
    search where Q is bounded away from zero).
    """
    beta = np.asarray(beta, dtype=float)
    if not isinstance(m, MomentMatrices):
        X1, X2, y1, y2 = design_rows(m, with_lane=len(beta) == 4)
        r1 = y1 - X1 @ beta
        r2 = y2 - X2 @ beta
        return float(r1 @ r1), float(r2 @ r2), float(r1 @ r2)
    q1, q2, q3 = _q_moments(m, beta)
    return float(q1), float(q2), float(q3)


def _q_moments(m: MomentMatrices, beta: np.ndarray):
    """Q1, Q2, Q3 from the moments, for one beta (p,) or a stack (G, p).

    The grid and the single-rho path share this one formula, so a grid row
    reproduces the single-rho value rather than one summed in another order.
    """
    b = np.concatenate([beta, np.full(beta.shape[:-1] + (1,), -1.0)], axis=-1)
    q = m.n * np.einsum("...i,kij,...j->...k", b, m.augmented, b)
    return np.maximum(q[..., 0], 0.0), np.maximum(q[..., 1], 0.0), q[..., 2]


def profile_loglik(m: MomentMatrices | Sequence[PairObs], rho: float) -> float:
    """Log-likelihood profiled over beta and sigma at fixed rho.

    Additive constants not involving the parameters are dropped.
    """
    if not isinstance(m, MomentMatrices):
        m = build_moments(m)
    if not 0.0 <= rho <= RHO_MAX:
        raise ValueError(f"rho={rho:g} outside [0, {RHO_MAX}]")
    beta = gls_beta(m, rho)
    q1, q2, q3 = q_components(m, beta)
    q = q1 + q2 - 2.0 * rho * q3
    n = m.n
    if q <= 0.0:
        return math.inf
    return n * (0.5 * math.log1p(-rho * rho) - math.log(q / (2.0 * n)) - 1.0)


@dataclass
class FitResult:
    """Estimates and precision for one event fit."""

    beta: np.ndarray            # (a1, a2, b, d); d is 0.0 under the d=0 constraint
    rho: float
    sigma_ml: float
    sigma_un: float             # sample-size corrected, used downstream
    kappa_ml: float
    kappa_un: float
    cov_beta: np.ndarray        # 4x4, from sigma_un^2 (1+rho) M_rho^{-1} / n
    loglik: float
    n: int
    p: int
    condition_number: float
    fixed_point_residual: float
    warnings: list[str] = field(default_factory=list)

    @property
    def a1(self) -> float:
        return float(self.beta[0])

    @property
    def a2(self) -> float:
        return float(self.beta[1])

    @property
    def b(self) -> float:
        return float(self.beta[2])

    @property
    def d(self) -> float:
        return float(self.beta[3])

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov_beta))

    @property
    def se_d(self) -> float:
        return float(self.se[3])

    def predicted(self, pair: PairObs) -> tuple[float, float]:
        """Model means for the pair's two runs."""
        mu1 = self.a1 + self.b * pair.x1 + self.d * pair.w
        mu2 = self.a2 + self.b * pair.x2 - self.d * pair.w
        return mu1, mu2

    def to_json_dict(self) -> dict:
        sig = _six_significant
        return {
            "a1": sig(self.a1), "a2": sig(self.a2), "b": sig(self.b), "d": sig(self.d),
            "rho": sig(self.rho),
            "sigma_un": sig(self.sigma_un), "kappa_un": sig(self.kappa_un),
            "se": {"a1": sig(self.se[0]), "a2": sig(self.se[1]),
                   "b": sig(self.se[2]), "d": sig(self.se[3])},
            "loglik": sig(self.loglik),
            "n": self.n,
            "warnings": list(self.warnings),
        }


def _six_significant(x: float) -> float:
    return float(f"{x:.6g}")


def profile_grid(m: MomentMatrices, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Profile log-likelihood and stationarity residual at every rho of ``rhos``.

    The GLS systems of all rhos are stacked into one (G, p, p) array and
    solved together.  Returns ``(loglik, g)`` with g = rho (Q1 + Q2) - 2 Q3:
    the profile's slope is a positive multiple of -g, so g vanishes at an
    interior stationary point.  As in ``profile_loglik``, a nonpositive
    GLS objective gives an infinite log-likelihood.
    """
    rhos = np.asarray(rhos, dtype=float)
    if not (rhos.min() >= 0.0 and rhos.max() <= RHO_MAX):
        raise ValueError(f"rho grid outside [0, {RHO_MAX}]")
    r = rhos[:, None]
    try:
        beta = np.linalg.solve(_m_rho(m, r[:, :, None]), _s_rho(m, r)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError(f"singular design on the rho grid: {exc}") from None
    q1, q2, q3 = _q_moments(m, beta)
    q = q1 + q2 - 2.0 * rhos * q3
    n = m.n
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = n * (0.5 * np.log1p(-rhos * rhos) - np.log(q / (2.0 * n)) - 1.0)
    return np.where(q > 0.0, loglik, math.inf), rhos * (q1 + q2) - 2.0 * q3


def _stationarity(m: MomentMatrices, rho: float) -> float:
    """g(rho) = rho (Q1 + Q2) - 2 Q3 at the GLS solution for rho."""
    q1, q2, q3 = q_components(m, gls_beta(m, rho))
    return rho * (q1 + q2) - 2.0 * q3


def _stationary_rho(m: MomentMatrices, lo: float, hi: float,
                    g_lo: float, g_hi: float) -> float:
    """Maximizer of the profile in [lo, hi] from the root of g.

    g < 0 where the profile rises, so g(lo) >= 0 puts the maximum at lo
    (the rho = 0 boundary among others) and g(hi) <= 0 puts it at hi.
    Otherwise the sign change is closed in by Illinois steps: secant steps
    that halve the stale end's g when the same end is kept twice, so both
    ends converge.  Q carries ~1e-12 of cancellation noise, which g cannot
    resolve rho beyond, so the loop ends once the bracket is that narrow or
    stops shrinking.
    """
    if g_lo >= 0.0:
        return lo
    if g_hi <= 0.0:
        return hi
    kept = 0
    while hi - lo > _RHO_XTOL:
        rho = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < rho < hi:
            break
        g = _stationarity(m, rho)
        if g < 0.0:
            lo, g_lo = rho, g
            if kept < 0:
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi = rho, g
            if kept > 0:
                g_lo *= 0.5
            kept = 1
    return lo if -g_lo <= g_hi else hi


def fit_ml(pairs: Sequence[PairObs], constraint: str = "free_d",
           grid_step: float = 0.005, warnings: Sequence[str] = ()) -> FitResult:
    """Maximum-likelihood fit: a stacked grid of the rho profile, then the
    root of its stationarity equation in the best grid point's bracket.

    ``constraint='d_equals_zero'`` drops the lane column (p = 3) and
    reports d as exactly zero with a zeroed row/column in ``cov_beta``.
    rho is restricted to [0, 1) since kappa^2 = sigma^2 rho/(1-rho) must
    be nonnegative; a maximum at the lower boundary reports kappa = 0.
    """
    if constraint not in ("free_d", "d_equals_zero"):
        raise ValueError(f"unknown constraint {constraint!r}")
    n = len(pairs)
    if n < 5:
        raise InsufficientDataError(f"need at least 5 usable pairs, got {n}")
    with_lane = constraint == "free_d"
    if with_lane:
        groups = {p.w > 0 for p in pairs}
        if len(groups) < 2:
            raise DegenerateDesignError(
                "all skaters started in the same lane; d is not identifiable")

    m = build_moments(pairs, with_lane)
    grid = np.arange(0.0, RHO_MAX, grid_step)
    values, g = profile_grid(m, grid)
    k = int(np.argmax(values))
    if not math.isfinite(values[k]):
        raise FitError("profile likelihood is unbounded (degenerate responses)")
    # The maximum lies within a grid step of grid[k]; g's sign there says on
    # which side, so [grid[j], grid[j + 1]] is the half of the bracket to search.
    j = k if g[k] < 0.0 else max(k - 1, 0)
    if j + 1 < len(grid):
        hi, g_hi = float(grid[j + 1]), float(g[j + 1])
    else:
        hi, g_hi = RHO_MAX, _stationarity(m, RHO_MAX)
    rho = _stationary_rho(m, float(grid[j]), hi, float(g[j]), g_hi)
    loglik = profile_loglik(m, rho)
    loglik0 = profile_loglik(m, 0.0)
    if loglik0 >= loglik:
        rho, loglik = 0.0, loglik0

    beta = gls_beta(m, rho)
    q1, q2, q3 = q_components(m, beta)
    q = q1 + q2 - 2.0 * rho * q3
    p = m.p
    sigma2_ml = q / (2.0 * n * (1.0 + rho))
    sigma2_un = q / ((2.0 * n - p) * (1.0 + rho))
    shrink = rho / (1.0 - rho)
    mrho = _m_rho(m, rho)
    cov = sigma2_un * (1.0 + rho) * np.linalg.inv(mrho) / n
    fixed_point = abs(rho - 2.0 * q3 / (q1 + q2)) if q1 + q2 > 0 else 0.0

    if not with_lane:
        beta = np.append(beta, 0.0)
        full = np.zeros((4, 4))
        full[:3, :3] = cov
        cov = full

    return FitResult(
        beta=beta, rho=rho,
        sigma_ml=math.sqrt(sigma2_ml), sigma_un=math.sqrt(sigma2_un),
        kappa_ml=math.sqrt(sigma2_ml * shrink), kappa_un=math.sqrt(sigma2_un * shrink),
        cov_beta=cov, loglik=loglik, n=n, p=p,
        condition_number=float(np.linalg.cond(mrho)),
        fixed_point_residual=fixed_point,
        warnings=list(warnings))


@dataclass(frozen=True)
class SimpleFit:
    """Ordinary least squares on the day-to-day differences."""

    a0: float                   # a2 - a1
    b: float
    d: float
    sigma: float                # per-run scale: residual variance estimates 2 sigma^2
    se_d: float
    n: int


def fit_simple(pairs: Sequence[PairObs]) -> SimpleFit:
    """Regress Y2 - Y1 on an intercept, x2 - x1 and -2w."""
    n = len(pairs)
    if n < 4:
        raise InsufficientDataError(f"need at least 4 usable pairs, got {n}")
    x1, y1, x2, y2, w = _arrays(pairs)
    X = np.column_stack([np.ones(n), x2 - x1, -2.0 * w])
    if np.linalg.matrix_rank(X) < 3:
        raise DegenerateDesignError("collinear difference design")
    coef, *_ = np.linalg.lstsq(X, y2 - y1, rcond=None)
    resid = y2 - y1 - X @ coef
    s2 = float(resid @ resid) / (n - 3)
    cov = s2 * np.linalg.inv(X.T @ X)
    return SimpleFit(a0=float(coef[0]), b=float(coef[1]), d=float(coef[2]),
                     sigma=math.sqrt(s2 / 2.0), se_d=math.sqrt(float(cov[2, 2])), n=n)


@dataclass(frozen=True)
class VarianceReport:
    """Precision summary for the lane-difference estimate."""

    se_d_exact: float           # from the coefficient covariance
    se_d_balanced: float        # sqrt(2 sigma_un^2 / n), balanced-lane approximation
    var_sigma: float            # kurtosis-corrected variance of sigma-hat
    kurtosis_diff: float        # excess kurtosis of the day-difference residuals
    b_var_ratio: float          # Var(b_simple) / Var(b_mixed) = 2/(1+rho)


def variance_report(fit: FitResult, pairs: Sequence[PairObs]) -> VarianceReport:
    """Exact and approximate standard errors, with a normality check on sigma.

    The variance of sigma-hat under non-normal errors is
    sigma^2 (1/2 + kurt/4) / n with kurt the excess kurtosis of the
    day-to-day residual differences (zero under normality).
    """
    x1, y1, x2, y2, w = _arrays(pairs)
    resid = (y2 - y1) - (fit.a2 - fit.a1 + fit.b * (x2 - x1) - 2.0 * fit.d * w)
    centered = resid - resid.mean()
    m2 = float((centered ** 2).mean())
    kurt = float((centered ** 4).mean()) / m2 ** 2 - 3.0 if m2 > 0 else 0.0
    var_sigma = fit.sigma_un ** 2 * (0.5 + 0.25 * kurt) / fit.n
    return VarianceReport(
        se_d_exact=fit.se_d,
        se_d_balanced=math.sqrt(2.0 * fit.sigma_un ** 2 / fit.n),
        var_sigma=var_sigma,
        kurtosis_diff=kurt,
        b_var_ratio=2.0 / (1.0 + fit.rho))
