from __future__ import annotations

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import DATA, make_pairs, pair_rows, serialize_event
from lanefair import DEFAULT_THRESHOLD, diagnostics
from lanefair.cli import main
from lanefair.dataset import Lane, RunStatus, load_event, parse_event, usable_pairs
from lanefair.diagnostics import (adjusted_differences, clean_and_refit,
                                  gaussian_kde_curve, outlier_scan,
                                  validate_model)
from lanefair.model import FitResult, day_residuals, fit_ml
from lanefair.simulate import simulate_event

# What the screening pass flags on each championship, fit on all usable pairs.
PIPELINE_ROSTERS = {
    1984: ["G.Kuiper"],
    1985: ["K.-T.Bae", "E.Henriksen"],
    1986: ["G.Boucher"],
    1987: [],
    1988: [],
    1989: ["R.Sighel"],
    1990: [],
    1991: ["T.Kuroiwa", "I.Dolp"],
    1992: ["I.Dolp"],
    1993: [],
    1994: ["T.Hamamichi", "P.Tahmindjis"],
}

CLEAN_COUNTS = {1984: 26, 1985: 29, 1986: 30, 1987: 33, 1988: 28, 1989: 29,
                1990: 28, 1991: 32, 1992: 26, 1993: 30, 1994: 28}


def _exact_fit(pairs):
    """A FitResult whose means interpolate the data exactly."""
    return FitResult(beta=np.array([17.0, 17.2, 2.0, 0.04]), rho=0.5,
                     sigma_ml=0.2, sigma_un=0.2, kappa_ml=0.2, kappa_un=0.2,
                     cov_beta=np.eye(4), loglik=0.0, n=len(pairs), p=4,
                     condition_number=1.0, fixed_point_residual=0.0)


def test_zero_residuals_give_zero_statistics():
    fit = _exact_fit([])
    pairs = []
    for i in range(6):
        w = 0.5 if i % 2 else -0.5
        x1, x2 = 10.0 + 0.1 * i, 10.05 + 0.1 * i
        pairs.append((str(i), x1, 17.0 + 2.0 * x1 + 0.04 * w,
                      x2, 17.2 + 2.0 * x2 - 0.04 * w, w))
    report = outlier_scan(make_pairs(pairs), fit)
    for column in (report.t1, report.t2, report.t3):
        assert column.tolist() == [0.0] * 6
    assert report.flagged_by == [()] * 6
    assert report.flagged_names == []


# (t1, t2) on the scale of _exact_fit, where t3 = t2 - t1, for each flag code.
FLAG_CASES = {
    (0.0, 0.0): (), (3.0, 1.0): ("T1",), (1.0, 3.0): ("T2",), (3.0, 3.0): ("T1", "T2"),
    (-1.5, 1.5): ("T3",), (3.0, -1.0): ("T1", "T3"), (-1.0, 3.0): ("T2", "T3"),
    (3.0, -3.0): ("T1", "T2", "T3"),
}


def test_every_flag_combination_is_tagged_in_order():
    fit = _exact_fit([])
    scale = math.hypot(fit.sigma_un, fit.kappa_un)
    assert scale == pytest.approx(math.sqrt(2.0) * fit.sigma_un)
    pairs = []
    for i, (t1, t2) in enumerate(FLAG_CASES):
        w = 0.5 if i % 2 else -0.5
        x1, x2 = 10.0 + 0.1 * i, 10.05 + 0.1 * i
        pairs.append((f"{t1},{t2}", x1, 17.0 + 2.0 * x1 + 0.04 * w + t1 * scale,
                      x2, 17.2 + 2.0 * x2 - 0.04 * w + t2 * scale, w))
    report = outlier_scan(make_pairs(pairs), fit)
    assert report.flagged_by == list(FLAG_CASES.values())
    assert report.flagged_names == [p[0] for p in pairs][1:]


def _reports(cleaned):
    return (cleaned.report, validate_model(cleaned.pairs_clean, cleaned.fit),
            adjusted_differences(cleaned.pairs_clean))


def test_records_cannot_be_assigned(usable, pipeline):
    """No report field can be assigned and every column is read-only.  Holding
    arrays, two equal reports neither compare with == nor hash; their columns
    compare with np.array_equal."""
    pairs, warns = usable[1994]
    twins = _reports(clean_and_refit(pairs, warnings=warns))
    for report, twin, n_columns in zip(_reports(pipeline[1994]), twins, (4, 2, 3)):
        for name in report._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, getattr(report, name))
        columns = [v for v in report if isinstance(v, np.ndarray)]
        assert len(columns) == n_columns
        for column, same in zip(columns, [v for v in twin if isinstance(v, np.ndarray)]):
            assert np.array_equal(column, same)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        with pytest.raises(ValueError, match="ambiguous"):
            report == twin
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)


def _large_field_text(n=2500, seed=5):
    """A canonical event file of n skaters with non-finishers, repeated
    lanes and a few runs slowed by 3 s."""
    rng = np.random.default_rng(seed)
    x = rng.normal(10.1, 0.2, (n, 2))
    y = 17.0 + 2.0 * x + rng.normal(0.0, 0.3, (n, 1)) + rng.normal(0.0, 0.25, (n, 2))
    y[rng.choice(n, n // 100, replace=False), rng.integers(0, 2, n // 100)] += 3.0
    lines = ["#event,Synthetic,2001"]
    for i in range(n):
        lanes = ("o", "i") if i % 2 else ("i", "o")
        if i % 97 == 0:
            lanes = (lanes[0], lanes[0])
        runs = [[lanes[k], f"{x[i, k]:.2f}", f"{y[i, k]:.2f}", "ok"] for k in (0, 1)]
        if i % 53 == 0:
            runs[i % 2][2:] = ["", ("fell", "dnf", "dq", "wd")[i % 4]]
        if i % 211 == 0:
            runs[1] = [lanes[1], "", "", "dns"]
        note = ["note"] if i % 89 == 0 else []
        lines.append(",".join([f"S{i:04d}", *runs[0], *runs[1], *note]))
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class _FrozenRun:
    """The frozen-dataclass form of a run that the reference pipeline reads."""

    lane: Lane
    t100_cs: int | None
    t500_cs: int | None
    status: RunStatus

    @property
    def complete(self):
        return (self.status is RunStatus.OK and self.t100_cs is not None
                and self.t500_cs is not None)


def _reference_usable_pairs(ds):
    out, warnings = [], []
    for s in ds.skaters:
        day1, day2 = (_FrozenRun(r.lane, r.t100_cs, r.t500_cs, r.status)
                      for r in (s.day1, s.day2))
        if not (day1.complete and day2.complete):
            continue
        if day1.lane is day2.lane:
            warnings.append(f"{s.name}: same starting lane on both days (kept, w from day 1)")
        out.append((s.name, day1.t100_cs / 100.0, day1.t500_cs / 100.0,
                    day2.t100_cs / 100.0, day2.t500_cs / 100.0,
                    0.5 if day1.lane is Lane.OUTER_START else -0.5))
    return out, warnings


def _reference_flags(pairs, fit, threshold=2.75):
    r1, r2 = day_residuals(pairs, fit.beta)
    marginal = math.hypot(fit.sigma_un, fit.kappa_un)
    t1, t2 = r1 / marginal, r2 / marginal
    t3 = (r2 - r1) / (math.sqrt(2.0) * fit.sigma_un)
    return [(name, a, b, c, tuple(tag for tag, hit in zip(
        ("T1", "T2", "T3"), (abs(a) > threshold, abs(b) > threshold, abs(c) >= threshold))
        if hit)) for name, a, b, c in zip(pairs.names, t1.tolist(), t2.tolist(), t3.tolist())]


def _reference_validation(pairs, fit):
    r1, r2 = day_residuals(pairs, fit.beta)
    ave = 0.5 * (r1 + r2) / math.sqrt(fit.kappa_un ** 2 + fit.sigma_un ** 2 / 2.0)
    diff = (r2 - r1) / (math.sqrt(2.0) * fit.sigma_un)
    return list(zip(pairs.names, ave.tolist(), diff.tolist()))


def _reference_adjusted(pairs):
    fit0 = fit_ml(pairs, constraint="d_equals_zero")
    r1, r2 = day_residuals(pairs, fit0.beta)
    D = r2 - r1
    star = D / (math.sqrt(2.0) * fit0.sigma_un)
    return list(zip(pairs.names, pairs.w.tolist(), D.tolist(), star.tolist()))


def _rows(names, *columns):
    """Per-skater rows of a report's names and columns, as Python values."""
    return list(zip(names, *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _fit_fields(fit):
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in fit]


def _check_against_the_row_by_row_reference(ds):
    """The columns of usable_pairs equal the row-by-row arithmetic of the
    reference, and every fit, flag, removal, kept set and report column of the
    pipeline equals the one built from the reference rows, bit for bit."""
    pairs, warnings = usable_pairs(ds)
    rows, reference_warnings = _reference_usable_pairs(ds)
    assert (pair_rows(pairs), warnings) == (rows, reference_warnings)

    cleaned = clean_and_refit(pairs, warnings=warnings)
    first = fit_ml(make_pairs(rows))
    flags = _reference_flags(pairs, first)
    removed = tuple(name for name, *_, tags in flags if tags)
    kept = make_pairs(row for row in rows if row[0] not in removed)
    assert _fit_fields(cleaned.first_fit) == _fit_fields(first)
    report = cleaned.report
    assert _rows(report.names, report.t1, report.t2, report.t3, report.flagged_by) == flags
    assert cleaned.removed == removed
    assert pair_rows(cleaned.pairs_clean) == pair_rows(kept)
    assert _fit_fields(cleaned.fit) == _fit_fields(fit_ml(kept))

    rep = validate_model(kept, cleaned.fit)
    assert _rows(rep.names, rep.ave_star, rep.diff_star) == (
        _reference_validation(kept, cleaned.fit))
    adjusted = adjusted_differences(kept)
    assert _rows(adjusted.names, adjusted.w, adjusted.D, adjusted.D_star) == (
        _reference_adjusted(kept))
    assert _fit_fields(adjusted.fit_zero_d) == _fit_fields(
        fit_ml(make_pairs(pair_rows(kept)), constraint="d_equals_zero"))
    return pairs, warnings, removed


def test_large_field_matches_the_frozen_dataclass_reference():
    text = _large_field_text()
    ds = parse_event(text)
    assert len(ds.skaters) == 2500 and serialize_event(ds) == text
    pairs, warnings, removed = _check_against_the_row_by_row_reference(ds)
    assert 2300 < len(pairs) < 2500 and warnings and len(removed) >= 20


def test_swc_events_match_the_row_by_row_reference(events):
    for ds in events.values():
        _check_against_the_row_by_row_reference(ds)


@pytest.mark.parametrize("source", ["swc", "large field"])
def test_records_and_curves_built_on_read_match_the_eager_build(usable, source):
    """The rows of each report's columns, the flagged names and the curves built
    on read equal those built eagerly from the names and the tolist() of
    independently recomputed residual statistics."""
    events = (usable.values() if source == "swc"
              else [usable_pairs(parse_event(_large_field_text()))])
    for pairs, warnings in events:
        cleaned = clean_and_refit(pairs, warnings=warnings)
        flags = _reference_flags(pairs, fit_ml(pairs))
        report = cleaned.report
        assert _rows(report.names, report.t1, report.t2, report.t3, report.flagged_by) == flags
        assert report.flagged_names == [name for name, *_, tags in flags if tags]
        kept = cleaned.pairs_clean
        rep = validate_model(kept, cleaned.fit)
        eager = _reference_validation(kept, cleaned.fit)
        assert _rows(rep.names, rep.ave_star, rep.diff_star) == eager
        _, ave, diff = zip(*eager)
        for curve, values in ((rep.kde_ave, ave), (rep.kde_diff, diff)):
            direct = gaussian_kde_curve(list(values), _silverman(values))
            assert curve.bandwidth == direct.bandwidth
            assert np.array_equal(curve.grid, direct.grid)
            assert np.array_equal(curve.density, direct.density)
        adjusted = adjusted_differences(kept)
        assert _rows(adjusted.names, adjusted.w, adjusted.D, adjusted.D_star) == (
            _reference_adjusted(kept))


def test_screening_rosters_per_event(pipeline):
    for year, cleaned in pipeline.items():
        assert list(cleaned.removed) == PIPELINE_ROSTERS[year], year
        assert cleaned.fit.n == CLEAN_COUNTS[year], year


def test_extreme_statistics_drive_the_flags(pipeline):
    report = pipeline[1994].report
    tahmindjis, hamamichi = map(report.names.index, ("P.Tahmindjis", "T.Hamamichi"))
    assert report.t1[tahmindjis] > 5.0
    assert abs(report.t3[tahmindjis]) > 4.0
    assert report.t1[hamamichi] < -2.75
    assert "T1" in report.flagged_by[hamamichi]


def test_no_flags_refit_is_first_fit(pipeline):
    cleaned = pipeline[1987]
    assert cleaned.removed == ()
    assert cleaned.fit is cleaned.first_fit


def test_threshold_is_configurable(usable):
    pairs, _ = usable[1993]
    fit = fit_ml(pairs)
    strict = outlier_scan(pairs, fit, threshold=1.5)
    assert len(strict.flagged_names) > len(outlier_scan(pairs, fit).flagged_names)


def test_later_screen_leaves_earlier_result_unchanged():
    # Both calls screen the same Pairs; the second, stricter screen must
    # not alter what the first one returned.
    pairs, _ = usable_pairs(load_event(DATA / "swc1988.csv"))
    first = clean_and_refit(pairs)
    before = copy.deepcopy(first.pairs_clean)
    second = clean_and_refit(pairs, threshold=2.5)
    assert first.removed == () and second.removed == ("Y.Mitani",)
    assert pair_rows(first.pairs_clean) == pair_rows(before)


def null_flag_rates(events: int = 200, n: int = 250, seed: int = 11,
                    threshold: float = DEFAULT_THRESHOLD, sigma: float = 0.25,
                    kappa: float = 0.30) -> dict[str, float]:
    """Empirical flag rates of the outlier statistics under the null model."""
    rng = np.random.default_rng(seed)
    counts = {"T1": 0, "T2": 0, "T3": 0}
    total = 0
    for _ in range(events):
        pairs = simulate_event(rng, n, d=0.0, sigma=sigma, kappa=kappa)
        report = outlier_scan(pairs, fit_ml(pairs), threshold)
        for tags in report.flagged_by:
            for tag in tags:
                counts[tag] += 1
        total += n
    return {k: v / total for k, v in counts.items()} | {"runs": float(total)}


def expected_flag_rate(threshold: float = DEFAULT_THRESHOLD) -> float:
    """Two-sided standard-normal tail mass at the threshold."""
    return math.erfc(threshold / math.sqrt(2.0))


def test_null_flag_rates_near_two_sided_tail():
    rates = null_flag_rates(events=200, n=500, seed=11)
    assert rates["runs"] == 100000
    nominal = expected_flag_rate(2.75)
    for key in ("T1", "T2", "T3"):
        assert nominal / 2 <= rates[key] <= nominal * 2, (key, rates)


def test_validation_statistics_calgary(pipeline):
    cleaned = pipeline[1994]
    rep = validate_model(cleaned.pairs_clean, cleaned.fit)
    assert rep.n == 28
    assert rep.skew_diff == pytest.approx(0.3436, abs=5e-4)
    assert rep.skew_ave == pytest.approx(0.4899, abs=5e-4)
    assert rep.kurt_diff == pytest.approx(0.0675, abs=5e-4)
    assert rep.kurt_ave == pytest.approx(0.0240, abs=5e-4)
    assert rep.corr == pytest.approx(0.2490, abs=5e-4)
    assert rep.band_skew == pytest.approx(0.7615, abs=5e-4)
    assert rep.band_kurt == pytest.approx(1.5230, abs=5e-4)
    assert rep.band_corr == pytest.approx(0.3109, abs=5e-4)


def test_standardized_sets_centered_and_scaled(pipeline):
    for year, cleaned in pipeline.items():
        rep = validate_model(cleaned.pairs_clean, cleaned.fit)
        ave, diff = rep.ave_star, rep.diff_star
        assert abs(ave.mean()) <= 1e-6, year
        assert abs(diff.mean()) <= 1e-6, year
        assert abs(ave.var() - 1.0) <= 0.15, year
        assert abs(diff.var() - 1.0) <= 0.15, year


def test_validation_needs_eight_pairs(pipeline):
    cleaned = pipeline[1994]
    with pytest.raises(ValueError, match="at least 8"):
        validate_model(cleaned.pairs_clean.take(np.arange(7)), cleaned.fit)


def test_moment_bands_cover_normal_samples():
    rng = np.random.default_rng(17)
    n = 28
    band_skew = 1.645 * np.sqrt(6 / n)
    band_kurt = 1.645 * np.sqrt(24 / n)
    hits_skew = hits_kurt = 0
    for _ in range(1000):
        v = rng.standard_normal(n)
        c = v - v.mean()
        m2 = (c ** 2).mean()
        if abs((c ** 3).mean() / m2 ** 1.5) <= band_skew:
            hits_skew += 1
        if abs((c ** 4).mean() / m2 ** 2 - 3) <= band_kurt:
            hits_kurt += 1
    assert hits_skew >= 850
    assert hits_kurt >= 850


def test_kde_integrates_to_one(pipeline):
    rep = validate_model(pipeline[1994].pairs_clean, pipeline[1994].fit)
    for curve in (rep.kde_diff, rep.kde_ave):
        assert curve.bandwidth > 0
        assert len(curve.grid) == 512
        assert abs(np.trapezoid(curve.density, curve.grid) - 1.0) <= 1e-3


def test_kde_permutation_invariant():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(40)
    r = v[::-1].copy()
    a, b = gaussian_kde_curve(v, _silverman(v)), gaussian_kde_curve(r, _silverman(r))
    assert np.array_equal(a.grid, b.grid)
    assert np.allclose(a.density, b.density, atol=1e-12)


def test_kde_fixed_bandwidth():
    v = np.linspace(-1, 1, 20)
    curve = gaussian_kde_curve(v, 0.5)
    assert curve.bandwidth == 0.5
    with pytest.raises(ValueError):
        gaussian_kde_curve(v, 0.0)


def _silverman(values):
    """Silverman's rule, 1.06 s n^(-1/5), the width validate_model uses by default."""
    v = np.asarray(values, dtype=float)
    return 1.06 * float(np.std(v, ddof=1)) * v.size ** (-0.2)


def _one_shot_kde(v, h):
    """Grid and density of the Gaussian KDE from one n-by-grid array."""
    grid = np.linspace(v.min() - 3.0 * h, v.max() + 3.0 * h, 512)
    with np.errstate(over="ignore"):
        z = (grid[:, None] - v[None, :]) / h
        density = np.exp(-0.5 * z * z).sum(axis=1) / (v.size * h * math.sqrt(2.0 * math.pi))
    return grid, density


@pytest.mark.parametrize("n", [2, 28, 250, 2500, 20_000])
@pytest.mark.parametrize("bandwidth", ["silverman", 0.4])
def test_kde_equals_one_shot_evaluation(n, bandwidth):
    """The blocked evaluation gives the same bits as one n-by-grid array."""
    v = np.random.default_rng(n).standard_normal(n) * 0.3 + 1.0
    h = _silverman(v) if bandwidth == "silverman" else bandwidth
    curve = gaussian_kde_curve(v, h)
    grid, reference = _one_shot_kde(v, h)
    assert curve.bandwidth == h
    assert np.array_equal(curve.grid, grid)
    assert np.array_equal(curve.density, reference)


def test_kde_tiny_bandwidth_warns_nothing():
    """z^2 overflows to inf at h = 1e-160; exp(-inf) = 0 is the right kernel value."""
    v = np.random.default_rng(7).standard_normal(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = gaussian_kde_curve(v, 1e-160)
    grid, reference = _one_shot_kde(v, 1e-160)
    assert np.array_equal(curve.grid, grid)
    assert np.array_equal(curve.density, reference)


def test_validate_model_evaluates_curves_only_when_read(pipeline, monkeypatch):
    calls = []
    real = diagnostics.gaussian_kde_curve
    monkeypatch.setattr(diagnostics, "gaussian_kde_curve",
                        lambda *args: calls.append(args) or real(*args))
    rep = validate_model(pipeline[1994].pairs_clean, pipeline[1994].fit)
    assert calls == []
    rep.kde_diff
    assert len(calls) == 1


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf])
def test_validate_model_rejects_bandwidth_at_the_call(capsys, bandwidth):
    """validate_model records Silverman's widths; a fixed --bandwidth replaces them and
    is checked at the call, so a bad width exits 5 even when no curve is written."""
    assert main(["validate", str(DATA / "swc1994.csv"), "--bandwidth", str(bandwidth)]) == 5
    assert capsys.readouterr().err == (
        f"lanefair: 1994 Calgary: bandwidth must be positive and finite, got {bandwidth}\n")


@pytest.mark.parametrize("bandwidth", ["silverman", 0.4])
def test_report_curves_equal_the_star_values_curves(pipeline, bandwidth):
    rep = validate_model(pipeline[1994].pairs_clean, pipeline[1994].fit)
    if bandwidth != "silverman":
        rep = rep._replace(bandwidth_diff=bandwidth, bandwidth_ave=bandwidth)
    for curve, values in ((rep.kde_diff, rep.diff_star.tolist()),
                          (rep.kde_ave, rep.ave_star.tolist())):
        direct = gaussian_kde_curve(values, _silverman(values) if bandwidth == "silverman"
                                    else bandwidth)
        assert curve.bandwidth == direct.bandwidth
        assert np.array_equal(curve.grid, direct.grid)
        assert np.array_equal(curve.density, direct.density)


def test_adjusted_differences_counts(pipeline):
    per_event = {}
    pooled = {0.5: 0, -0.5: 0}
    for year, cleaned in pipeline.items():
        ad = adjusted_differences(cleaned.pairs_clean)
        per_event[year] = len(ad.names)
        for w in ad.w.tolist():
            pooled[w] += 1
    assert per_event == CLEAN_COUNTS
    assert pooled == {0.5: 160, -0.5: 159}


def test_adjusted_differences_use_zero_d_refit(pipeline):
    ad = adjusted_differences(pipeline[1994].pairs_clean)
    assert ad.fit_zero_d.d == 0.0
    assert ad.fit_zero_d.p == 3
    scale = np.sqrt(2) * ad.fit_zero_d.sigma_un
    for D, star in zip(ad.D.tolist(), ad.D_star.tolist()):
        assert star == pytest.approx(D / scale, rel=1e-12)


def test_identical_days_zero_adjusted_differences():
    pairs = []
    for i in range(10):
        x = 10.0 + 0.1 * i
        y = 17.0 + 2.0 * x + 0.07 * (i % 3)
        pairs.append((str(i), x, y, x, y, 0.5 if i % 2 else -0.5))
    ad = adjusted_differences(make_pairs(pairs))
    for D in ad.D.tolist():
        assert abs(D) <= 1e-9


def test_group_means_track_minus_two_d():
    rng = np.random.default_rng(23)
    d = 0.08
    pairs = simulate_event(rng, 400, d=d, sigma=0.2, kappa=0.3)
    ad = adjusted_differences(pairs)
    plus = np.mean(ad.D[ad.w > 0])
    minus = np.mean(ad.D[ad.w < 0])
    # each group mean has sd ~ sigma*sqrt(2)/sqrt(n/2); allow 4 sigma on the contrast
    tol = 4 * 0.2 * 2 / np.sqrt(200)
    assert abs((plus - minus) - (-2 * d)) <= tol
