from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from lanefair import model
from lanefair.cli import main
from lanefair.meta import (EventSummary, MetaError, SplitContrast, SplitEntry,
                           combine, cross_group_correlation, heterogeneity,
                           power_plan, predict_range, read_summaries, split_half,
                           summaries_from_events)
from lanefair.model import fit_ml
from lanefair.simulate import simulate_event

from conftest import DATA, make_pairs, pair_rows

MEN = [
    ("1984 Trondheim", 0.131, 0.038), ("1985 Heerenveen", 0.090, 0.058),
    ("1986 Karuizawa", 0.035, 0.066), ("1987 Sainte Foy", -0.151, 0.080),
    ("1988 West Allis", -0.147, 0.090), ("1989 Heerenveen", 0.128, 0.047),
    ("1990 Tromso", 0.096, 0.087), ("1991 Inzell", 0.023, 0.040),
    ("1992 Oslo", -0.019, 0.086), ("1993 Ikaho", 0.032, 0.041),
    ("1994 Calgary", 0.010, 0.043),
]
WOMEN = [
    ("1984 Trondheim", 0.071, 0.081), ("1985 Heerenveen", 0.021, 0.079),
    ("1986 Karuizawa", 0.106, 0.095), ("1987 Sainte Foy", -0.157, 0.159),
    ("1988 West Allis", -0.159, 0.086), ("1989 Heerenveen", 0.010, 0.046),
    ("1990 Tromso", 0.080, 0.063), ("1991 Inzell", -0.022, 0.079),
    ("1992 Oslo", -0.189, 0.090), ("1993 Ikaho", -0.072, 0.067),
    ("1994 Calgary", -0.027, 0.039),
]


def _summ(rows):
    return [EventSummary(*r) for r in rows]


def test_combine_matches_direct_weighting():
    res = combine(_summ(MEN))
    w = np.array([1 / s[2] ** 2 for s in MEN])
    d = np.array([s[1] for s in MEN])
    assert res.grand_d == pytest.approx(float((w * d).sum() / w.sum()), rel=1e-12)
    assert res.grand_se == pytest.approx(float(w.sum() ** -0.5), rel=1e-12)
    assert res.grand_d == pytest.approx(0.048, abs=0.002)
    assert res.grand_se == pytest.approx(0.016, abs=0.001)
    assert res.p_one_sided == pytest.approx(0.001, abs=0.0005)
    assert res.ci95 == pytest.approx((res.grand_d - 1.96 * res.grand_se,
                                      res.grand_d + 1.96 * res.grand_se))


def test_combine_seven_stable_events():
    drop = ("1987", "1988", "1990", "1992")
    res = combine(_summ([r for r in MEN if not r[0].startswith(drop)]))
    assert res.grand_d == pytest.approx(0.065, abs=0.002)
    assert res.grand_se == pytest.approx(0.017, abs=0.001)


def test_combine_women():
    res = combine(_summ(WOMEN))
    assert res.grand_d == pytest.approx(-0.015, abs=0.001)
    assert res.grand_se == pytest.approx(0.020, abs=0.001)


def test_combine_equal_weights_is_mean():
    res = combine(_summ([("a", 0.1, 0.1), ("b", 0.0, 0.1)]))
    assert res.grand_d == pytest.approx(0.05)
    assert res.grand_se == pytest.approx(0.1 / math.sqrt(2))


def test_combine_single_summary_identity():
    res = combine([EventSummary("only", 0.07, 0.03)])
    assert (res.grand_d, res.grand_se) == (0.07, 0.03)
    assert res.z == pytest.approx(0.07 / 0.03)
    assert res.omega0 == 0.0
    assert res.K == 1


def test_combine_scale_equivariance():
    base = combine(_summ(MEN))
    scaled = combine([EventSummary(l, 3.0 * d, 3.0 * se) for l, d, se in MEN])
    assert scaled.grand_d == pytest.approx(3.0 * base.grand_d, rel=1e-12)
    assert scaled.grand_se == pytest.approx(3.0 * base.grand_se, rel=1e-12)
    assert scaled.z == pytest.approx(base.z, rel=1e-12)
    assert scaled.p_one_sided == pytest.approx(base.p_one_sided, rel=1e-9)


def test_combine_rejects_bad_input():
    with pytest.raises(MetaError):
        combine([])
    with pytest.raises(MetaError):
        EventSummary("x", 0.1, 0.0)


def test_heterogeneity_reference_values():
    men = combine(_summ(MEN))
    women = combine(_summ(WOMEN))
    assert men.omega0 == pytest.approx(0.057, abs=0.002)
    assert women.omega0 == pytest.approx(0.042, abs=0.002)


def test_heterogeneity_zero_when_estimates_identical():
    rows = [EventSummary(str(i), 0.05, 0.03 + 0.01 * i) for i in range(5)]
    assert heterogeneity(rows, combine(rows).grand_d) == 0.0


def test_heterogeneity_needs_two_events():
    with pytest.raises(MetaError):
        heterogeneity([EventSummary("a", 0.1, 0.1)], 0.1)


def test_heterogeneity_when_one_weight_dwarfs_the_rest(capsys, tmp_path):
    """The scale A2 - A4/A2 is 2 w1 w2/(w1 + w2) = 2.0 here; as a difference
    of the sums it cancels to zero."""
    rows = [EventSummary("A", 0.0, 1e-9), EventSummary("B", 3.0, 1.0)]
    # Dispersion 9 over K - 1 = 1, so omega0^2 = 8 / 2.0.
    assert heterogeneity(rows, combine(rows).grand_d) == pytest.approx(2.0, rel=1e-12)
    summary = tmp_path / "summary.csv"
    for text in ("A,0.05,1e-9\nB,0.04,1\n", "A,0.05,1e-78\nB,0.04,0.02\n"):
        summary.write_text(text)
        assert math.isfinite(combine(read_summaries(text)).omega0)
        assert main(["meta", "--summary", str(summary)]) == 0
        assert capsys.readouterr().err == ""


def test_heterogeneity_moment_estimator_consistent():
    rng = np.random.default_rng(31)
    se = np.array([r[2] for r in MEN])
    omega0 = 0.06
    est = np.empty(10000)
    for i in range(10000):
        d = rng.normal(0.05, np.sqrt(omega0 ** 2 + se ** 2))
        rows = [EventSummary(str(j), float(d[j]), float(se[j]))
                for j in range(len(se))]
        est[i] = heterogeneity(rows, combine(rows).grand_d) ** 2
    assert abs(est.mean() - omega0 ** 2) <= 0.1 * omega0 ** 2


def test_predict_range_reference_values():
    lo, hi = predict_range(0.048, 0.057)
    assert (lo, hi) == pytest.approx((-0.046, 0.142), abs=0.002)
    lo, hi = predict_range(-0.015, 0.042)
    assert (lo, hi) == pytest.approx((-0.084, 0.054), abs=0.002)
    assert predict_range(0.048, 0.0) == (0.048, 0.048)


def test_cross_group_correlation_reference():
    corr = cross_group_correlation(_summ(MEN), _summ(WOMEN))
    assert corr == pytest.approx(0.792, abs=0.002)


def test_cross_group_correlation_self_and_mirror():
    men = _summ(MEN)
    assert cross_group_correlation(men, men) == pytest.approx(1.0)
    mirrored = [EventSummary(l, -d, se) for l, d, se in MEN]
    assert cross_group_correlation(men, mirrored) == pytest.approx(-1.0)


def test_cross_group_correlation_errors():
    men = _summ(MEN)
    with pytest.raises(MetaError, match="label"):
        cross_group_correlation(men, list(reversed(men)))
    with pytest.raises(MetaError):
        cross_group_correlation(men[:2], men[:2])


def test_power_plan_reference_values():
    spec = power_plan(sigma=0.25, target_se=0.02, true_d=0.05)
    assert spec.N_required == 313
    assert spec.power == pytest.approx(0.80, abs=0.01)
    assert power_plan(0.25, 0.02, 0.06).power == pytest.approx(0.91, abs=0.01)


def test_power_equals_alpha_at_zero_effect():
    spec = power_plan(0.25, 0.02, 0.0, alpha=0.05)
    assert spec.power == pytest.approx(0.05, rel=1e-9)


def test_power_monotonicity():
    powers = [power_plan(0.25, 0.02, d).power for d in np.linspace(0.0, 0.1, 11)]
    assert all(a < b for a, b in zip(powers, powers[1:]))
    powers_se = [power_plan(0.25, se, 0.05).power for se in (0.01, 0.02, 0.04)]
    assert all(a > b for a, b in zip(powers_se, powers_se[1:]))


def test_power_rejects_bad_arguments():
    with pytest.raises(MetaError):
        power_plan(0.0, 0.02, 0.05)
    with pytest.raises(MetaError):
        power_plan(0.25, 0.02, 0.05, alpha=0.7)


def test_split_half_reference_value(pipeline):
    contrast = split_half((str(y), c.pairs_clean) for y, c in pipeline.items())
    assert len(contrast.per_event) == 11
    assert contrast.combined_delta == pytest.approx(-0.0425, abs=0.001)
    assert contrast.combined_se == pytest.approx(0.0290, abs=0.001)


def test_split_half_identical_halves_gives_zero_contrast():
    rng = np.random.default_rng(13)
    fast = simulate_event(rng, 12)
    slow = [(name + "s", x1, y1 + 10.0, x2, y2 + 10.0, w)
            for name, x1, y1, x2, y2, w in pair_rows(fast)]
    contrast = split_half([("dup", make_pairs(pair_rows(fast) + slow))])
    assert contrast.combined_delta == pytest.approx(0.0, abs=1e-9)


def test_split_half_recovers_injected_contrast():
    rng = np.random.default_rng(37)
    events = []
    for k in range(8):
        best = simulate_event(rng, 15, d=0.0)
        rest = [(name + "r", x1, y1 + 3.0, x2, y2 + 3.0, w) for name, x1, y1, x2, y2, w
                in pair_rows(simulate_event(rng, 15, d=0.1))]
        events.append((str(k), make_pairs(pair_rows(best) + rest)))
    contrast = split_half(events)
    assert abs(contrast.combined_delta - (-0.1)) <= 3.0 * contrast.combined_se


def _halves_by_sort_key(pairs):
    """Best and rest halves, as rows, ranked by sorted() on (average, day-1 time,
    entry index)."""
    ranked = sorted(enumerate(pair_rows(pairs)),
                    key=lambda ir: (0.5 * (ir[1][2] + ir[1][4]), ir[1][2], ir[0]))
    ordered = [r for _, r in ranked]
    return ordered[:len(ordered) // 2], ordered[len(ordered) // 2:]


def test_split_half_ranks_ties_like_the_sort_key(monkeypatch):
    rng = np.random.default_rng(19)
    times = rng.choice([39.0, 39.5, 40.0, 40.5, 41.0], size=(16, 2))   # ties in both keys
    pairs = make_pairs((f"S{i}", 10.0, y1, 10.1, y2, 0.5 - i % 2) for i, (y1, y2) in
                       enumerate(times.tolist()))
    fitted = []
    monkeypatch.setattr(model, "fit_many", lambda seq: [fitted.append(pair_rows(ps))
                                                        or SimpleNamespace(d=0.0, se_d=1.0)
                                                        for ps in seq])
    split_half([("ties", pairs)])
    assert fitted == [*_halves_by_sort_key(pairs)]


def test_split_half_on_bundled_events_matches_the_sort_key(pipeline):
    events = [(str(y), c.pairs_clean) for y, c in pipeline.items()]
    entries = []
    for label, pairs in events:
        best, rest = (fit_ml(make_pairs(half)) for half in _halves_by_sort_key(pairs))
        entries.append(SplitEntry(label, best.d, best.se_d, rest.d, rest.se_d))
    pooled = combine([EventSummary(e.label, e.d_best - e.d_rest, math.hypot(e.se_best, e.se_rest))
                      for e in entries])
    assert split_half(events) == SplitContrast(tuple(entries), pooled.grand_d,
                                               pooled.grand_se, ())


def test_split_half_skips_tiny_events(pipeline):
    small = pipeline[1994].pairs_clean.take(np.arange(8))
    contrast = split_half([("small", small), ("full", pipeline[1994].pairs_clean)])
    assert len(contrast.per_event) == 1
    assert any("small" in w for w in contrast.warnings)
    with pytest.raises(MetaError):
        split_half([("small", small)])


def test_summaries_from_events_match_fits(pipeline):
    summs = summaries_from_events([("1994", pipeline[1994].pairs_clean)])
    assert summs[0].d == pytest.approx(pipeline[1994].fit.d)
    assert summs[0].se == pytest.approx(pipeline[1994].fit.se_d)
    assert summs[0].n == 28


def test_read_summaries_formats():
    rows = read_summaries("label,d,se\nx,0.1,0.05\ny,-0.2,0.08\n")
    assert [(s.label, s.d, s.se) for s in rows] == [("x", 0.1, 0.05), ("y", -0.2, 0.08)]
    bare = read_summaries("0.1,0.05\n-0.2,0.08\n")
    assert [s.d for s in bare] == [0.1, -0.2]
    with pytest.raises(MetaError):
        read_summaries("x,0.1\n")
    with pytest.raises(MetaError):
        read_summaries("")


def test_women_summary_file_combines():
    rows = read_summaries((DATA / "summaries_women.csv").read_text())
    res = combine(rows)
    assert res.grand_d == pytest.approx(-0.015, abs=0.001)
    assert res.grand_se == pytest.approx(0.020, abs=0.001)
