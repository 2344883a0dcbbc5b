"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Each reference value is checked against
the estimation set it was computed on: the screen-and-refit pipeline
(``pipeline``) for what the documented screen produces, and the
historical sets of ``REFERENCE_REMOVALS`` (``reference_sets``) for values
that the original analyses computed after their own removals.

Two published references are not reproducible by any program and are
carried as checked exceptions: ``NOT_SCREENABLE`` (criteria 1, 2) and
``SPECULATIVE_ERRATA`` in ``test_counterfactual`` (criterion 6).  Each
exception fails its criterion if the data or the program stop bearing it
out.  Three validation moments of criterion 7 come out of no estimation
set of the bundled data; they are asserted as stated and fail honestly
rather than being loosened.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from lanefair.counterfactual import speculate
from lanefair.dataset import parse_olympic
from lanefair.diagnostics import (adjusted_differences, clean_and_refit, outlier_scan,
                                  validate_model)
from lanefair.meta import EventSummary, combine, cross_group_correlation, power_plan, predict_range, split_half
from lanefair.model import Pairs, build_moments, fit_ml, gls_beta
from lanefair.simulate import mc_calibration

from conftest import DATA, REFERENCE_REMOVALS, YEARS, design_rows, profile_oracle, round_trip
from test_counterfactual import computed_multiset, corrected_multiset
from test_meta import MEN, WOMEN

TABLE_D_SE = {int(label[:4]): (d, se) for label, d, se in MEN}
# Historically removed skaters whom the documented screen cannot flag.
# 1994, Koninckx: his largest |t| is 1.48 under the first fit (30 pairs)
# and 2.54 under the refit on the 28 pairs that hold him, both below the
# 2.75 threshold.  Leave-one-out fits, screening iterated to convergence
# and an added average-residual statistic do not flag him either.
NOT_SCREENABLE = {1994: {"P.H.Koninckx"}}
FIG3_COUNTS = {1984: 26, 1985: 29, 1986: 30, 1987: 33, 1988: 28, 1989: 29,
               1990: 28, 1991: 32, 1992: 26, 1993: 30, 1994: 27}


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _finish(num, name, failures):
    print(f"ACCEPTANCE {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num} ({name}):\n  " + "\n  ".join(failures)


def _check_roster(failures, year, cleaned):
    """The screen's roster is the historical one minus ``NOT_SCREENABLE``.

    Each exception must stay below the threshold both in the first scan
    and in a scan of the refit, so the exception fails as soon as the
    screen reaches that skater.
    """
    unscreenable = NOT_SCREENABLE.get(year, set())
    expected = REFERENCE_REMOVALS[year] - unscreenable
    _check(failures, set(cleaned.removed) == expected,
           f"{year}: roster {sorted(cleaned.removed)} != {sorted(expected)}")
    rescan = outlier_scan(cleaned.pairs_clean, cleaned.fit, cleaned.report.threshold)
    for tag, report in (("first scan", cleaned.report), ("refit scan", rescan)):
        peaks = {name: max(abs(t1), abs(t2), abs(t3)) for name, t1, t2, t3
                 in zip(report.names, report.t1.tolist(), report.t2.tolist(),
                        report.t3.tolist())}
        for name in sorted(unscreenable):
            peak = peaks.get(name, float("inf"))
            _check(failures, peak < report.threshold,
                   f"{year}: {name} is no longer unscreenable ({tag}: "
                   f"max |t| {peak:.3f} vs {report.threshold})")


def test_criterion_01_calgary_reproduction(usable, reference_sets):
    failures = []
    pairs, warns = usable[1994]
    start = time.perf_counter()
    cleaned = clean_and_refit(pairs, warnings=warns)
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    # the pipeline removes Hamamichi and Tahmindjis from the 30 usable
    # pairs; Koninckx stays (NOT_SCREENABLE), so the refit holds 28
    _check_roster(failures, 1994, cleaned)
    _check(failures, cleaned.fit.n == 28, f"n {cleaned.fit.n} != 28")
    # the reference coefficients belong to the 27-pair historical set
    # without Koninckx; on the 28-pair refit a1/a2/b/rho/kappa sit
    # outside 0.02 (a1 17.51, a2 17.47, b 1.96, rho 0.88, kappa 0.42)
    f = fit_ml(reference_sets[1994])
    got = (f.a1, f.a2, f.b, f.d, f.rho, f.sigma_un, f.kappa_un)
    expected = (16.984, 16.938, 2.007, 0.010, 0.838, 0.156, 0.355)
    for name, g, e in zip(("a1", "a2", "b", "d", "rho", "sigma", "kappa"),
                          got, expected):
        _check(failures, abs(g - e) <= 0.02, f"{name}: {g:.4f} vs {e} (>0.02)")
    _check(failures, abs(f.se_d - 0.043) <= 0.006,
           f"se(d) {f.se_d:.4f} vs 0.043 (>0.006)")
    _finish(1, "Calgary 1994 reproduction", failures)


def test_criterion_02_all_events_table(pipeline):
    failures = []
    for year in YEARS:
        # d and se are the pipeline's fits; the 1994 roster misses
        # Koninckx (NOT_SCREENABLE, see criterion 1)
        cleaned = pipeline[year]
        d_ref, se_ref = TABLE_D_SE[year]
        _check(failures, abs(cleaned.fit.d - d_ref) <= 0.01,
               f"{year}: d {cleaned.fit.d:.4f} vs {d_ref} (>0.01)")
        _check(failures, abs(cleaned.fit.se_d - se_ref) <= 0.01,
               f"{year}: se {cleaned.fit.se_d:.4f} vs {se_ref} (>0.01)")
        _check_roster(failures, year, cleaned)
    _finish(2, "per-event estimates and rosters", failures)


def test_criterion_03_grand_combination(pipeline):
    failures = []
    summaries = [EventSummary(str(y), pipeline[y].fit.d, pipeline[y].fit.se_d)
                 for y in YEARS]
    grand = combine(summaries)
    _check(failures, abs(grand.grand_d - 0.048) <= 0.005,
           f"grand d {grand.grand_d:.4f} vs 0.048 (>0.005)")
    _check(failures, abs(grand.grand_se - 0.016) <= 0.003,
           f"grand se {grand.grand_se:.4f} vs 0.016 (>0.003)")
    _check(failures, 0.0005 <= grand.p_one_sided <= 0.002,
           f"one-sided p {grand.p_one_sided:.5f} not within factor 2 of 0.001")
    seven = combine([s for s in summaries
                     if int(s.label) not in (1987, 1988, 1990, 1992)])
    _check(failures, abs(seven.grand_d - 0.065) <= 0.005,
           f"7-event d {seven.grand_d:.4f} vs 0.065 (>0.005)")
    _check(failures, abs(seven.grand_se - 0.017) <= 0.003,
           f"7-event se {seven.grand_se:.4f} vs 0.017 (>0.003)")
    _finish(3, "grand combination", failures)


def test_criterion_04_heterogeneity():
    failures = []
    men = combine([EventSummary(*r) for r in MEN])
    women = combine([EventSummary(*r) for r in WOMEN])
    _check(failures, abs(men.omega0 - 0.057) <= 0.002,
           f"men omega0 {men.omega0:.4f} vs 0.057 (>0.002)")
    _check(failures, abs(women.omega0 - 0.042) <= 0.002,
           f"women omega0 {women.omega0:.4f} vs 0.042 (>0.002)")
    lo, hi = predict_range(men.grand_d, men.omega0)
    _check(failures, abs(lo - (-0.05)) <= 0.01 and abs(hi - 0.14) <= 0.01,
           f"men 90% range ({lo:.3f}, {hi:.3f}) vs (-0.05, 0.14) (>0.01)")
    lo, hi = predict_range(women.grand_d, women.omega0)
    _check(failures, abs(lo - (-0.08)) <= 0.01 and abs(hi - 0.05) <= 0.01,
           f"women 90% range ({lo:.3f}, {hi:.3f}) vs (-0.08, 0.05) (>0.01)")
    _finish(4, "between-event heterogeneity", failures)


def test_criterion_05_cross_sex_correlation():
    failures = []
    corr = cross_group_correlation([EventSummary(*r) for r in MEN],
                                   [EventSummary(*r) for r in WOMEN])
    _check(failures, abs(corr - 0.792) <= 0.002,
           f"correlation {corr:.4f} vs 0.792 (>0.002)")
    _finish(5, "cross-sex correlation", failures)


def test_criterion_06_counterfactual_lists():
    failures = []
    for year in (1994, 1992, 1988):
        _, entries = parse_olympic((DATA / f"oly{year}.csv").read_text())
        spec = speculate(entries, 0.05)
        got = computed_multiset(spec)
        # the published list with its errata applied: for 1994 Klepinin's
        # printed 38.02 becomes his bundled real time minus 5 cs (outer
        # start), 38.04 at rank 33; the golden file keeps the printed list
        exp = corrected_multiset(year, spec.d_cs)
        diff = (got - exp) + (exp - got)
        _check(failures, got == exp,
               f"{year}: speculative list differs: {sorted(diff)}")
    _finish(6, "counterfactual result lists", failures)


def test_criterion_07_validation_statistics(pipeline, reference_sets):
    failures = []
    # the moments use the pipeline's 28-pair refit: the quoted bands
    # 0.76/1.52/0.31 are 1.645 sqrt(6/n) and its siblings at n = 28 (at
    # n = 27 they would be 0.775/1.551/0.317), and corr and skew(diff*)
    # reproduce there
    cleaned = pipeline[1994]
    rep = validate_model(cleaned.pairs_clean, cleaned.fit)
    # not attainable: skew(ave*), kurt(diff*) and kurt(ave*) come out of
    # no estimation set of the bundled data.  The pipeline set gives
    # 0.490/0.067/0.024; the 27-pair historical set gives 0.030/-0.067/
    # -0.948; all 435 subsets of 28 of the 30 usable pairs, each fitted on
    # itself, miss too.  Skewness and kurtosis do not depend on location
    # or scale, so no choice of sigma estimator changes them
    _check(failures, abs(rep.skew_diff - 0.324) <= 0.02,
           f"skew(diff*) {rep.skew_diff:.4f} vs 0.324 (>0.02)")
    _check(failures, abs(rep.skew_ave - 0.269) <= 0.02,
           f"skew(ave*) {rep.skew_ave:.4f} vs 0.269 (>0.02)")
    _check(failures, abs(rep.kurt_diff - (-0.149)) <= 0.02,
           f"kurt(diff*) {rep.kurt_diff:.4f} vs -0.149 (>0.02)")
    _check(failures, abs(rep.kurt_ave - (-0.703)) <= 0.02,
           f"kurt(ave*) {rep.kurt_ave:.4f} vs -0.703 (>0.02)")
    _check(failures, abs(rep.corr - 0.249) <= 0.02,
           f"corr {rep.corr:.4f} vs 0.249 (>0.02)")
    for got, ref, tag in ((rep.band_skew, 0.76, "skew"),
                          (rep.band_kurt, 1.52, "kurt"),
                          (rep.band_corr, 0.31, "corr")):
        _check(failures, abs(got - ref) <= 0.01,
               f"{tag} band {got:.4f} vs {ref} (>0.01)")
    # the Figure-3 counts were made on the historical sets (27 pairs in
    # 1994); the pipeline sets give 28 and pooled 160/159
    counts = {}
    pooled = Counter()
    for year in YEARS:
        ad = adjusted_differences(reference_sets[year])
        counts[year] = len(ad.names)
        pooled.update(ad.w.tolist())
    _check(failures, pooled[0.5] == 159 and pooled[-0.5] == 159,
           f"pooled groups {pooled[0.5]}/{pooled[-0.5]} != 159/159")
    _check(failures, counts == FIG3_COUNTS,
           f"per-event counts {counts} != {FIG3_COUNTS}")
    _finish(7, "validation statistics", failures)


def test_criterion_08_power_planning():
    failures = []
    spec = power_plan(sigma=0.25, target_se=0.02, true_d=0.05)
    _check(failures, 300 <= spec.N_required <= 320,
           f"N {spec.N_required} outside [300, 320]")
    _check(failures, abs(spec.power - 0.80) <= 0.03,
           f"power(d=0.05) {spec.power:.3f} vs 0.80 (>0.03)")
    power06 = power_plan(0.25, 0.02, 0.06).power
    _check(failures, abs(power06 - 0.90) <= 0.03,
           f"power(d=0.06) {power06:.3f} vs 0.90 (>0.03)")
    _finish(8, "power planning", failures)


def test_criterion_09_split_half(pipeline):
    failures = []
    contrast = split_half((str(y), pipeline[y].pairs_clean) for y in YEARS)
    _check(failures, abs(contrast.combined_delta - (-0.044)) <= 0.015,
           f"combined delta {contrast.combined_delta:.4f} vs -0.044 (>0.015)")
    _check(failures, abs(contrast.combined_se - 0.029) <= 0.008,
           f"combined se {contrast.combined_se:.4f} vs 0.029 (>0.008)")
    _finish(9, "split-half contrast", failures)


def test_criterion_10_property_suite(pipeline):
    failures = []
    start = time.perf_counter()

    for year in YEARS:
        for fit in (pipeline[year].first_fit, pipeline[year].fit):
            _check(failures, fit.fixed_point_residual <= 1e-6,
                   f"{year}: fixed-point residual {fit.fixed_point_residual:.2e}")

    for year in YEARS:
        pairs = pipeline[year].pairs_clean
        m = build_moments(pairs)
        beta0 = gls_beta(m, 0.0)
        X1, X2, y1, y2 = design_rows(pairs)
        stacked, *_ = np.linalg.lstsq(np.vstack([X1, X2]),
                                      np.concatenate([y1, y2]), rcond=None)
        rel = np.max(np.abs(beta0 - stacked)) / np.max(np.abs(stacked))
        _check(failures, rel <= 1e-10, f"{year}: rho=0 vs stacked OLS rel {rel:.1e}")

    for year in YEARS:
        pairs = pipeline[year].pairs_clean
        grid = np.arange(0.0, 1.0 - 1e-6, 1e-4)
        best = grid[int(np.argmax(profile_oracle(pairs, grid)))]
        _check(failures, abs(best - pipeline[year].fit.rho) <= 1e-4,
               f"{year}: grid argmax {best:.5f} vs rho {pipeline[year].fit.rho:.5f}")

    pairs = pipeline[1984].pairs_clean
    base = fit_ml(pairs)
    flipped = fit_ml(Pairs(pairs.names, pairs.x1, pairs.y1, pairs.x2, pairs.y2, -pairs.w))
    _check(failures, abs(flipped.d + base.d) <= 1e-9,
           f"lane relabel: {flipped.d:.6f} vs {-base.d:.6f}")

    for year in (1994, 1992, 1988):
        _, entries = parse_olympic((DATA / f"oly{year}.csv").read_text())
        restored = round_trip(entries, 0.05)
        _check(failures,
               [(e.name, e.time_cs) for e in restored]
               == [(e.name, e.time_cs) for e in entries],
               f"{year}: double swap is not the identity")

    mc = mc_calibration(n=30, reps=2000, seed=7, d=0.05, sigma=0.25, kappa=0.30)
    _check(failures, 0.9 <= mc.var_ratio <= 1.1,
           f"MC var ratio {mc.var_ratio:.3f} outside [0.9, 1.1]")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"property suite took {elapsed:.1f}s >= 30s")
    _finish(10, "property suite", failures)
