"""Combining per-event lane-difference estimates across championships.

Inverse-variance weighting gives the optimal fixed-effects combination;
a moment estimator quantifies how much the true per-event difference
wanders between events, and a split-half contrast compares the top half
of each field with the rest.  Combining published summaries and power
planning are plain float arithmetic: they load neither numpy nor the fitter.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:       # the fitter's pair columns; importing model loads numpy
    from .model import Pairs

_MIN_HALF = 5            # smallest half split_half fits


def _upper_tail(z: float) -> float:
    """Standard-normal P(Z > z), accurate far into the tail (1 - cdf is not)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class MetaError(ValueError):
    pass


class EventSummary(NamedTuple("EventSummary", [("label", str), ("d", float), ("se", float),
                                               ("n", int | None)])):
    __slots__ = ()

    def __new__(cls, label: str, d: float, se: float, n: int | None = None):
        if not math.isfinite(d):
            raise MetaError(f"{label}: non-finite estimate")
        if not se > 0.0:
            raise MetaError(f"{label}: standard error must be positive")
        if not 1e-154 < se < 1e154:     # where 1/se^2 is a positive finite float
            raise MetaError(f"{label}: standard error {se:g} has no finite weight")
        return super().__new__(cls, label, d, se, n)


class MetaResult(NamedTuple):
    grand_d: float
    grand_se: float
    z: float
    p_one_sided: float
    p_two_sided: float
    ci95: tuple[float, float]
    omega0: float
    K: int


def _fsum(values: Iterable[float], what: str) -> float:
    """Correctly rounded sum; MetaError when it, or a term, leaves the float range."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):     # a term's power overflows, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise MetaError(f"cannot combine the estimates: {what} overflows")
    return total


def combine(summaries: Sequence[EventSummary]) -> MetaResult:
    """Inverse-variance weighted mean with normal-tail tests.

    With a single summary the combination is that summary itself and the
    between-event spread is reported as zero.
    Raises MetaError when a sum, the mean or the spread overflows.
    """
    if not summaries:
        raise MetaError("no event summaries to combine")
    w = [1.0 / s.se ** 2 for s in summaries]       # finite: EventSummary bounds se
    w_sum = _fsum(w, "the weight sum")
    grand = _fsum((wj * s.d for wj, s in zip(w, summaries)), "the weighted sum") / w_sum
    se = w_sum ** -0.5
    omega0 = heterogeneity(summaries, grand) if len(summaries) >= 2 else 0.0
    if not (math.isfinite(grand) and math.isfinite(omega0)):
        raise MetaError("cannot combine the estimates: the mean or omega0 overflows")
    z = grand / se
    return MetaResult(
        grand_d=grand, grand_se=se, z=z,
        p_one_sided=_upper_tail(z),
        p_two_sided=2.0 * _upper_tail(abs(z)),
        ci95=(grand - 1.96 * se, grand + 1.96 * se),
        omega0=omega0, K=len(summaries))


def heterogeneity(summaries: Sequence[EventSummary], grand_d: float) -> float:
    """Moment estimate of the between-event standard deviation.

    The weighted dispersion sum_j (d_j - d)^2 / se_j^2 has null mean K-1;
    its excess over that, scaled by A2 - A4/A2 with A_q = sum se_j^{-q},
    estimates omega0^2.  Truncated at zero.  The scale is sum_j w_j (A2 - w_j)/A2
    with w_j = se_j^-2 and each A2 - w_j summed from the other weights, so
    that it does not cancel when one weight dwarfs the rest.
    """
    if len(summaries) < 2:
        raise MetaError("heterogeneity needs at least 2 events")
    t = _fsum((((s.d - grand_d) / s.se) ** 2 for s in summaries), "the dispersion")
    w = [s.se ** -2 for s in summaries]
    a2 = _fsum(w, "the sum of se^-2")
    before = accumulate(w[:-1], initial=0.0)                    # w_0 + ... + w_{j-1}
    after = [*accumulate(reversed(w[1:]), initial=0.0)][::-1]   # w_{j+1} + ... + w_{K-1}
    denom = _fsum((wj * ((b + a) / a2) for wj, b, a in zip(w, before, after)), "the scale")
    if denom <= 0.0:
        raise MetaError("degenerate weights: all precision on one event")
    return math.sqrt(max(0.0, (t - (len(summaries) - 1)) / denom))


def predict_range(grand_d: float, omega0: float, coverage: float = 0.90,
                  ) -> tuple[float, float]:
    """Central range for the event-specific true difference."""
    if omega0 < 0.0:
        raise MetaError("omega0 must be nonnegative")
    from statistics import NormalDist

    half = NormalDist().inv_cdf(0.5 + coverage / 2.0) * omega0
    return (grand_d - half, grand_d + half)


def cross_group_correlation(a: Sequence[EventSummary], b: Sequence[EventSummary]) -> float:
    """Pearson correlation of two aligned per-event estimate sequences."""
    if len(a) != len(b) or len(a) < 3:
        raise MetaError("need two equally long lists with at least 3 events")
    import numpy as np

    for sa, sb in zip(a, b):
        if sa.label != sb.label:
            raise MetaError(f"label mismatch: {sa.label!r} vs {sb.label!r}")
    return float(np.corrcoef([s.d for s in a], [s.d for s in b])[0, 1])


class PowerSpec(NamedTuple):
    sigma: float
    target_se: float
    true_d: float
    alpha: float
    N_required: int             # total paired runs for the target precision
    power: float


def power_plan(sigma: float, target_se: float, true_d: float,
               alpha: float = 0.05) -> PowerSpec:
    """Sample-size and one-sided detection probability at the target precision.

    A combined estimate over N paired runs has variance about 2 sigma^2 / N,
    so N = ceil(2 sigma^2 / se^2); power is Phi(d/se - z_{1-alpha}).
    """
    if min(sigma, target_se) <= 0.0 or not 0.0 < alpha < 0.5:
        raise MetaError("need sigma, target_se > 0 and alpha in (0, 0.5)")
    try:
        n_req = math.ceil(2.0 * sigma ** 2 / target_se ** 2)
    except (OverflowError, ZeroDivisionError):
        raise MetaError("the required number of runs is not a finite number") from None
    from statistics import NormalDist

    power = NormalDist().cdf(true_d / target_se - NormalDist().inv_cdf(1.0 - alpha))
    return PowerSpec(sigma, target_se, true_d, alpha, n_req, power)


class SplitEntry(NamedTuple):
    label: str
    d_best: float
    se_best: float
    d_rest: float
    se_rest: float


class SplitContrast(NamedTuple):
    per_event: tuple[SplitEntry, ...]
    combined_delta: float
    combined_se: float
    warnings: tuple[str, ...]


def split_half(events: Iterable[tuple[str, Pairs]]) -> SplitContrast:
    """Best-half vs rest-half contrast of the lane difference.

    Each cleaned event is ranked by the skater's average finishing time
    (day-1 time, then entry order, break ties); the best floor(n/2)
    skaters form one group and the remainder the other; one ``fit_many`` call fits
    every half.  Per-event contrasts d_best - d_rest are combined by inverse variance.
    """
    import numpy as np

    from .model import FitError, fit_many

    split = []                      # (label, (best, rest)), or (label, ()) when too small
    for label, pairs in events:
        # lexsort is stable, so a tie in both keys keeps entry order.
        order = np.lexsort((pairs.y1, 0.5 * (pairs.y1 + pairs.y2)))
        n_best = len(pairs) // 2
        halves = pairs.take(order[:n_best]), pairs.take(order[n_best:])
        split.append((label, halves if min(map(len, halves)) >= _MIN_HALF else ()))
    fits = iter(fit_many([half for _, halves in split for half in halves]))
    entries: list[SplitEntry] = []
    warnings: list[str] = []
    for label, halves in split:
        if not halves:
            warnings.append(f"{label}: field too small to halve, skipped")
            continue
        fb, fr = next(fits), next(fits)
        if failed := [fit for fit in (fb, fr) if isinstance(fit, FitError)]:
            warnings.append(f"{label}: {failed[0]}; skipped")
            continue
        entries.append(SplitEntry(label, fb.d, fb.se_d, fr.d, fr.se_d))
    if not entries:
        raise MetaError("no event could be split")
    deltas = [EventSummary(e.label, e.d_best - e.d_rest,
                           math.hypot(e.se_best, e.se_rest)) for e in entries]
    pooled = combine(deltas)
    return SplitContrast(tuple(entries), pooled.grand_d, pooled.grand_se,
                         tuple(warnings))


def summaries_from_events(cleaned: Iterable[tuple[str, Pairs]]) -> list[EventSummary]:
    """Fit each cleaned event and collect (d, se) summaries."""
    from .model import fit_ml

    out = []
    for label, pairs in cleaned:
        fit = fit_ml(pairs)
        out.append(EventSummary(label, fit.d, fit.se_d, fit.n))
    return out


def read_summaries(text: str) -> list[EventSummary]:
    """Parse a summary CSV: ``label,d,se`` rows (or bare ``d,se``).

    Only the first row that is not blank or a comment may be a header (non-numeric d/se).
    """
    out, first = [], True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header, first = first, False
        fields = [f.strip() for f in line.split(",")]
        if len(fields) == 2:
            fields = [f"event {lineno}", *fields]
        if len(fields) != 3:
            raise MetaError(f"line {lineno}: expected 'label,d,se'")
        try:
            d, se = float(fields[1]), float(fields[2])
        except ValueError:
            if header:
                continue
            raise MetaError(f"line {lineno}: non-numeric d/se") from None
        out.append(EventSummary(fields[0], d, se))
    if not out:
        raise MetaError("no summaries found")
    return out

