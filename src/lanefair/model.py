"""Maximum-likelihood fitting of the paired two-run mixed-effects model.

Each skater i contributes a bivariate response (Y1, Y2) with means
a1 + b*x1 + d*w and a2 + b*x2 - d*w, where x is the 100 m passing time
and w = +-1/2 encodes the lane draw.  A shared random ability effect with
standard deviation kappa induces correlation rho = kappa^2/(sigma^2+kappa^2)
between the two days; sigma is the per-run noise level.

A pair's average (Y1 + Y2)/2, with variance kappa^2 + sigma^2/2, and its
difference Y1 - Y2, with variance 2 sigma^2, are independent, so the
likelihood factorizes into two regressions that share only the slope b
(Yates' recovery of inter-block information).  With U(b) and V(b) their
residual sums of squares, each minimized over its own intercepts and d,
the likelihood is largest where U*V is smallest, at
rho = (4U - V)/(4U + V).  U and V are quadratics in b, so an interior
maximum lies at a real root of the cubic (U*V)'.  For fixed rho, beta =
(a1, a2, b, d) has a closed-form generalized-least-squares solution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

RHO_MAX = 1.0 - 1e-6

# Coordinates of the slope b and of the nuisance coefficients each rotated
# regression identifies: a2's column repeats a1's in the average rows and
# negates it in the difference rows, and d's column is zero in the average.
_SLOPE = 2
_AVE_NUISANCE = [0]
_DIFF_NUISANCE = {4: [0, 3], 3: [0]}


class FitError(RuntimeError):
    """Base class for estimation failures."""


class InsufficientDataError(FitError):
    pass


class DegenerateDesignError(FitError):
    pass


class Pairs:
    """Usable pairs as columns: the names and read-only float64 columns x1, y1, x2,
    y2 and w, the lane indicator: +1/2 for an outer start on day 1, -1/2 for an inner."""

    __slots__ = ("names", "x1", "y1", "x2", "y2", "w")

    def __init__(self, names, x1, y1, x2, y2, w):
        names, data = tuple(names), np.array([x1, y1, x2, y2, w], dtype=float)
        if data.shape != (5, len(names)):
            raise ValueError(f"{len(names)} names need five columns of that length")
        data.flags.writeable = False
        for field, value in zip(self.__slots__, (names, *data)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Pairs is read-only: cannot set {name!r}")

    def __reduce__(self):           # copy and pickle rebuild through __init__
        return Pairs, tuple(getattr(self, field) for field in self.__slots__)

    def __len__(self) -> int:
        return len(self.names)

    def take(self, index) -> Pairs:
        """The pairs at ``index``, an integer array or a boolean mask, in its order."""
        return Pairs(map(self.names.__getitem__, np.arange(len(self))[index].tolist()),
                     *(getattr(self, field)[index] for field in self.__slots__[1:]))


class MomentMatrices(NamedTuple):
    """Augmented Gram matrices of the rotated rows, averaged over the pairs.

    A comes from the average rows and D from the difference rows of
    ``build_moments``, both in (a1, a2, b, d | y) coordinates.  With
    b = (beta, -1) the GLS objective at rho is
    Q1 + Q2 - 2 rho Q3 = n b' [2 (1 - rho) A + (1 + rho)/2 D] b.
    """

    A: np.ndarray
    D: np.ndarray
    n: int

    @property
    def p(self) -> int:
        return self.A.shape[0] - 1


def build_moments(pairs: Pairs, with_lane: bool = True) -> MomentMatrices:
    """Average and difference Gram matrices over the usable pairs.

    Row i of the average is [1/2, 1/2, (x1 + x2)/2, 0 | (y1 + y2)/2] and of
    the difference [1, -1, x1 - x2, 2 w | y1 - y2]; the lane column is
    dropped when ``with_lane`` is false.
    """
    n = len(pairs)
    if not n:
        raise InsufficientDataError("no usable pairs")
    x1, y1, x2, y2, w = pairs.x1, pairs.y1, pairs.x2, pairs.y2, pairs.w
    ave = [np.full(n, 0.5), np.full(n, 0.5), (x1 + x2) / 2.0, np.zeros(n), (y1 + y2) / 2.0]
    diff = [np.ones(n), np.full(n, -1.0), x1 - x2, w + w, y1 - y2]
    if not with_lane:
        del ave[3], diff[3]
    ave, diff = np.column_stack(ave), np.column_stack(diff)
    return MomentMatrices(A=ave.T @ ave / n, D=diff.T @ diff / n, n=n)


def _weighted(m: MomentMatrices, rho: float) -> np.ndarray:
    """The augmented GLS matrix 2 (1 - rho) A + (1 + rho)/2 D."""
    return 2.0 * (1.0 - rho) * m.A + 0.5 * (1.0 + rho) * m.D


def gls_beta(m: MomentMatrices, rho: float) -> np.ndarray:
    """Closed-form minimizer of Q(beta) at fixed rho."""
    g = _weighted(m, rho)
    p = m.p
    try:
        return np.linalg.solve(g[:p, :p], g[:p, p])
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError(f"singular design at rho={rho:g}: {exc}") from None


def _residual_sums(m: MomentMatrices, beta: np.ndarray) -> tuple[float, float]:
    """Residual sums of squares of the average and the difference rows."""
    b = np.append(beta, -1.0)
    return max(m.n * float(b @ m.A @ b), 0.0), max(m.n * float(b @ m.D @ b), 0.0)


def day_residuals(pairs: Pairs, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair residuals r1 = y1 - (a1 + b x1 + d w) and
    r2 = y2 - (a2 + b x2 - d w), for beta = (a1, a2, b, d)."""
    a1, a2, b, d = beta
    return (pairs.y1 - (a1 + b * pairs.x1 + d * pairs.w),
            pairs.y2 - (a2 + b * pairs.x2 - d * pairs.w))


def profile_loglik(m: MomentMatrices, rho: float) -> float:
    """Log-likelihood profiled over beta and sigma at fixed rho.

    Additive constants not involving the parameters are dropped.
    """
    if not 0.0 <= rho <= RHO_MAX:
        raise ValueError(f"rho={rho:g} outside [0, {RHO_MAX}]")
    ave, diff = _residual_sums(m, gls_beta(m, rho))
    q = 2.0 * (1.0 - rho) * ave + 0.5 * (1.0 + rho) * diff
    n = m.n
    if q <= 0.0:
        return math.inf
    return n * (0.5 * math.log1p(-rho * rho) - math.log(q / (2.0 * n)) - 1.0)


def _slope_profile(g: np.ndarray, nuisance: list[int]) -> np.ndarray:
    """Coefficients, highest power first, of min b'gb over the nuisance
    coordinates as a quadratic in the slope: the Schur complement of the
    nuisance block in the slope and response rows of g."""
    kept = [_SLOPE, g.shape[0] - 1]
    cross = g[np.ix_(nuisance, kept)]
    inner = np.linalg.solve(g[np.ix_(nuisance, nuisance)], cross)
    s = g[np.ix_(kept, kept)] - cross.T @ inner
    return np.array([s[0, 0], -2.0 * s[0, 1], s[1, 1]])


class FitResult(NamedTuple):
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


def fit_ml(pairs: Pairs, constraint: str = "free_d") -> FitResult:
    """Maximum-likelihood fit with rho in [0, RHO_MAX].

    The profile likelihood is compared at rho = 0, at RHO_MAX and at the
    rho of each real root of (U*V)' between them; rho = 0 wins a tie.
    ``constraint='d_equals_zero'`` drops the lane column (p = 3) and
    reports d as exactly zero with a zeroed row/column in ``cov_beta``.
    rho cannot be negative since kappa^2 = sigma^2 rho/(1-rho) must be
    nonnegative; a maximum at rho = 0 reports kappa = 0.
    """
    if constraint not in ("free_d", "d_equals_zero"):
        raise ValueError(f"unknown constraint {constraint!r}")
    n = len(pairs)
    if n < 5:
        raise InsufficientDataError(f"need at least 5 usable pairs, got {n}")
    with_lane = constraint == "free_d"
    if with_lane and not 0 < np.count_nonzero(pairs.w > 0) < n:
        raise DegenerateDesignError("all skaters started in the same lane; d is not identifiable")

    try:
        with np.errstate(over="raise", invalid="raise"):
            m = build_moments(pairs, with_lane)
            u = _slope_profile(m.A, _AVE_NUISANCE)
            v = _slope_profile(m.D, _DIFF_NUISANCE[m.p])
            roots = np.roots(np.polyder(np.polymul(u, v)))
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError(f"singular design: {exc}") from None
    except FloatingPointError as exc:
        raise FitError(f"the moments leave the float range ({exc})") from None
    candidates = [0.0, RHO_MAX]
    for slope in roots[roots.imag == 0.0].real:
        ave, diff = float(np.polyval(u, slope)), float(np.polyval(v, slope))
        if 4.0 * ave + diff > 0.0:
            rho = (4.0 * ave - diff) / (4.0 * ave + diff)
            if 0.0 < rho < RHO_MAX:
                candidates.append(rho)
    values = [profile_loglik(m, r) for r in candidates]
    k = int(np.argmax(values))
    if not math.isfinite(values[k]):
        raise FitError("profile likelihood is unbounded (degenerate responses)")
    rho, loglik = candidates[k], values[k]

    beta = gls_beta(m, rho)
    ave, diff = _residual_sums(m, beta)
    q = 2.0 * (1.0 - rho) * ave + 0.5 * (1.0 + rho) * diff
    p = m.p
    sigma2_ml = q / (2.0 * n * (1.0 + rho))
    sigma2_un = q / ((2.0 * n - p) * (1.0 + rho))
    shrink = rho / (1.0 - rho)
    mrho = _weighted(m, rho)[:p, :p]
    cov = sigma2_un * (1.0 + rho) * np.linalg.inv(mrho) / n
    # rho = 2 Q3/(Q1 + Q2) at an interior maximum; in rotated form that is
    # (4U - V)/(4U + V) at the final beta.
    fixed_point = (abs(rho - (4.0 * ave - diff) / (4.0 * ave + diff))
                   if ave + diff > 0.0 else 0.0)

    return FitResult(
        beta=np.append(beta, np.zeros(4 - p)), rho=rho,
        sigma_ml=math.sqrt(sigma2_ml), sigma_un=math.sqrt(sigma2_un),
        kappa_ml=math.sqrt(sigma2_ml * shrink), kappa_un=math.sqrt(sigma2_un * shrink),
        cov_beta=np.pad(cov, (0, 4 - p)), loglik=loglik, n=n, p=p,
        condition_number=float(np.linalg.cond(mrho)),
        fixed_point_residual=fixed_point)
