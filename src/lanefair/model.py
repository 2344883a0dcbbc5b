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
from operator import itemgetter
from typing import Iterable, NamedTuple

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
        rows = np.arange(len(self))[index].tolist()     # itemgetter needs two rows for a tuple
        names = itemgetter(*rows)(self.names) if len(rows) > 1 else [self.names[i] for i in rows]
        return Pairs(names, *(getattr(self, field)[index] for field in self.__slots__[1:]))


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
        return self.A.shape[-1] - 1


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


# From here on the functions broadcast over the leading axes of stacked moments and rho.
def _weighted(m: MomentMatrices, rho: float | np.ndarray) -> np.ndarray:
    """The augmented GLS matrix 2 (1 - rho) A + (1 + rho)/2 D."""
    rho = np.asarray(rho)[..., None, None]
    return 2.0 * (1.0 - rho) * m.A + 0.5 * (1.0 + rho) * m.D


def gls_beta(m: MomentMatrices, rho: float | np.ndarray) -> np.ndarray:
    """Closed-form minimizer of Q(beta) at fixed rho."""
    g = _weighted(m, rho)
    p = m.p
    try:
        return np.linalg.solve(g[..., :p, :p], g[..., :p, p:])[..., 0]
    except np.linalg.LinAlgError as exc:
        rhos = ", ".join(f"{r:g}" for r in np.ravel(rho))
        raise DegenerateDesignError(f"singular design at rho={rhos}: {exc}") from None


def _residual_sums(m: MomentMatrices, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual sums of squares of the average and the difference rows."""
    b = np.concatenate([beta, np.full_like(beta[..., :1], -1.0)], axis=-1)
    return tuple(np.maximum(m.n * (b[..., None, :] @ g @ b[..., None])[..., 0, 0], 0.0)
                 for g in (m.A, m.D))


def day_residuals(pairs: Pairs, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair residuals r1 = y1 - (a1 + b x1 + d w) and
    r2 = y2 - (a2 + b x2 - d w), for beta = (a1, a2, b, d)."""
    a1, a2, b, d = beta
    return (pairs.y1 - (a1 + b * pairs.x1 + d * pairs.w),
            pairs.y2 - (a2 + b * pairs.x2 - d * pairs.w))


def profile_loglik(m: MomentMatrices, rho: float | np.ndarray) -> float | np.ndarray:
    """Log-likelihood profiled over beta and sigma at fixed rho.

    Additive constants not involving the parameters are dropped.
    """
    if not np.all((0.0 <= rho) & (rho <= RHO_MAX)):
        raise ValueError(f"rho={rho} outside [0, {RHO_MAX}]")
    ave, diff = _residual_sums(m, gls_beta(m, rho))
    q = 2.0 * (1.0 - rho) * ave + 0.5 * (1.0 + rho) * diff
    with np.errstate(divide="ignore", invalid="ignore"):        # q <= 0 reads as +inf
        value = m.n * (0.5 * np.log1p(-rho * rho) - np.log(q / (2.0 * m.n)) - 1.0)
    return np.where(q <= 0.0, math.inf, value)[()]


def _slope_profile(g: np.ndarray, nuisance: list[int]) -> np.ndarray:
    """Coefficients, highest power first, of min b'gb over the nuisance
    coordinates as a quadratic in the slope: the Schur complement of the
    nuisance block in the slope and response rows of g."""
    k, order = len(nuisance), np.array([*nuisance, _SLOPE, g.shape[-1] - 1])
    h = g[..., order[:, None], order]       # the nuisance block first, then slope and response
    inner = np.linalg.solve(h[..., :k, :k], h[..., :k, k:])
    s = h[..., k:, k:] - np.swapaxes(h[..., :k, k:], -1, -2) @ inner
    return s.reshape(*s.shape[:-2], 4)[..., [0, 1, 3]] * [1.0, -2.0, 1.0]


def _cubic_roots(cubics: list[np.ndarray]) -> list[np.ndarray]:
    """np.roots of each polynomial, through one stack of companion matrices when it can."""
    full = [len(c) == 4 and c[0] != 0.0 != c[3] for c in cubics]
    c = np.array([c if ok else [1.0, 0.0, 0.0, 0.0] for c, ok in zip(cubics, full)])
    companion = np.zeros((len(c), 3, 3))
    companion[:, 0], companion[:, 1, 0], companion[:, 2, 1] = -c[:, 1:] / c[:, :1], 1.0, 1.0
    return [roots if ok else np.roots(c)            # np.roots trims zero end coefficients
            for roots, c, ok in zip(np.linalg.eigvals(companion), cubics, full)]


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
    (fit,) = fit_many([pairs], constraint)
    if isinstance(fit, FitError):
        raise fit
    return fit


def fit_many(pairs_seq: Iterable[Pairs], constraint: str = "free_d") -> list[FitResult | FitError]:
    """``fit_ml`` of each event, with the events' moments stacked: a FitResult, or
    the FitError that ``fit_ml`` raises, per event in input order."""
    if constraint not in ("free_d", "d_equals_zero"):
        raise ValueError(f"unknown constraint {constraint!r}")
    events = list(pairs_seq)
    try:
        return _fit_stacked(events, constraint == "free_d") if events else []
    except FitError as exc:     # one event fails a stacked call as a whole: fit each alone
        return [exc] if len(events) == 1 else [fit_many([p], constraint)[0] for p in events]


def _fit_stacked(events: list[Pairs], with_lane: bool) -> list[FitResult | FitError]:
    """The events' fits, an unbounded profile as a FitError; any other FitError raises."""
    for pairs in events:
        if (n := len(pairs)) < 5:
            raise InsufficientDataError(f"need at least 5 usable pairs, got {n}")
        if with_lane and not 0 < np.count_nonzero(pairs.w > 0) < n:
            raise DegenerateDesignError(
                "all skaters started in the same lane; d is not identifiable")
    try:
        with np.errstate(over="raise", invalid="raise"):
            m = MomentMatrices(*map(np.array, zip(*(build_moments(p, with_lane) for p in events))))
            u, v = _slope_profile(m.A, _AVE_NUISANCE), _slope_profile(m.D, _DIFF_NUISANCE[m.p])
            roots = _cubic_roots([np.polyder(np.polymul(a, b)) for a, b in zip(u, v)])
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesignError(f"singular design: {exc}") from None
    except FloatingPointError as exc:
        raise FitError(f"the moments leave the float range ({exc})") from None
    # Candidates [0, RHO_MAX, roots...]: rho = 0 wins ties, and pads rows (a repeat never wins).
    rhos = np.tile([0.0, RHO_MAX, 0.0, 0.0, 0.0], (len(events), 1))
    for (u0, u1, u2), (v0, v1, v2), slopes, row in zip(u.tolist(), v.tolist(), roots, rhos):
        k = 2
        for slope in (r.real for r in slopes.tolist() if r.imag == 0.0):
            ave, diff = (u0 * slope + u1) * slope + u2, (v0 * slope + v1) * slope + v2
            rho = (4.0 * ave - diff) / (4.0 * ave + diff) if 4.0 * ave + diff > 0.0 else 0.0
            if 0.0 < rho < RHO_MAX:
                row[k], k = rho, k + 1
    try:
        values = profile_loglik(MomentMatrices(m.A[:, None], m.D[:, None], m.n[:, None]), rhos)
    except DegenerateDesignError:
        for rho in rhos[0] if len(events) == 1 else ():     # the first singular one raises
            profile_loglik(m, rho)
        raise
    best = np.arange(len(events)), np.argmax(values, axis=1)
    beta, p, fits = gls_beta(m, rhos[best]), m.p, []
    mrho = _weighted(m, rhos[best])[..., :p, :p]
    covs = np.zeros((len(events), 4, 4))            # M_rho^{-1}, padded for the d = 0 fits
    covs[:, :p, :p] = np.linalg.inv(mrho)
    for b, rho, loglik, ave, diff, n, cov, cond in zip(
            beta, rhos[best].tolist(), values[best].tolist(),
            *(s.tolist() for s in _residual_sums(m, beta)), m.n.tolist(), covs,
            np.linalg.cond(mrho).tolist()):
        if not math.isfinite(loglik):
            fits.append(FitError("profile likelihood is unbounded (degenerate responses)"))
            continue
        q = 2.0 * (1.0 - rho) * ave + 0.5 * (1.0 + rho) * diff
        sigma2_ml, sigma2_un = q / (2.0 * n * (1.0 + rho)), q / ((2.0 * n - p) * (1.0 + rho))
        shrink = rho / (1.0 - rho)
        # rho = 2 Q3/(Q1 + Q2) at an interior maximum: (4U - V)/(4U + V) at the final beta.
        fixed_point = (abs(rho - (4.0 * ave - diff) / (4.0 * ave + diff))
                       if ave + diff > 0.0 else 0.0)
        fits.append(FitResult(      # in FitResult's field order
            np.append(b, np.zeros(4 - p)), rho, math.sqrt(sigma2_ml), math.sqrt(sigma2_un),
            math.sqrt(sigma2_ml * shrink), math.sqrt(sigma2_un * shrink),
            sigma2_un * (1.0 + rho) * cov / n, loglik, n, p, cond, fixed_point))
    return fits
