from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanefair.model import (RHO_MAX, DegenerateDesignError, FitError,
                            InsufficientDataError, Pairs, build_moments,
                            day_residuals, fit_many, fit_ml, gls_beta, profile_loglik)
from lanefair.simulate import simulate_event

from conftest import design_rows, make_pairs, pair_rows, profile_oracle

# Reference per-event estimates (a1, a2, b, d, rho, sigma, kappa) and se(d)
# from the original championship analyses; reproduced on the matching
# estimation sets to 0.02 (0.01 for se).
REFERENCE_FITS = {
    1994: ((16.984, 16.938, 2.007, 0.010, 0.838, 0.156, 0.355), 0.043),
    1993: ((18.861, 18.998, 1.892, 0.032, 0.799, 0.158, 0.315), 0.041),
    1992: ((13.541, 13.369, 2.494, -0.019, 0.538, 0.308, 0.332), 0.086),
    1991: ((13.184, 13.060, 2.462, 0.023, 0.800, 0.155, 0.309), 0.040),
    1990: ((15.137, 14.552, 2.371, 0.096, 0.338, 0.327, 0.234), 0.087),
    1989: ((3.595, 3.475, 3.385, 0.128, 0.720, 0.177, 0.284), 0.047),
    1988: ((22.810, 22.469, 1.670, -0.147, 0.701, 0.335, 0.513), 0.090),
    1987: ((18.461, 17.823, 2.056, -0.151, 0.553, 0.326, 0.362), 0.080),
    1986: ((16.950, 17.009, 2.101, 0.035, 0.519, 0.256, 0.266), 0.066),
    1985: ((13.093, 12.803, 2.537, 0.090, 0.517, 0.219, 0.227), 0.058),
    1984: ((17.507, 17.136, 2.088, 0.131, 0.847, 0.134, 0.314), 0.038),
}


def _pair(name, x1, y1, x2, y2, w):
    return name, x1, y1, x2, y2, w


def q_components(pairs, beta):
    """Residual sums Q1 = sum r1^2, Q2 = sum r2^2, Q3 = sum r1*r2, formed
    directly from the pairs (exact for a perfect fit)."""
    r1, r2 = day_residuals(pairs, beta)
    return float(r1 @ r1), float(r2 @ r2), float(r1 @ r2)


def test_reference_fits_reproduced(reference_sets):
    for year, (expected, se_d) in REFERENCE_FITS.items():
        fit = fit_ml(reference_sets[year])
        got = (fit.a1, fit.a2, fit.b, fit.d, fit.rho, fit.sigma_un, fit.kappa_un)
        for g, e in zip(got, expected):
            assert abs(g - e) <= 0.02, (year, got, expected)
        assert abs(fit.se_d - se_d) <= 0.01, (year, fit.se_d, se_d)


def test_moments_balanced_two_pairs():
    # The difference rows carry 2w in the d column, so D[3, 3] = ave(4 w^2)
    # and D[0, 3] = ave(2w); the lane term cancels from the average rows.
    pairs = make_pairs([_pair("a", 10.0, 37.0, 10.0, 37.0, 0.5),
                        _pair("b", 10.0, 37.0, 10.0, 37.0, -0.5)])
    m = build_moments(pairs)
    assert m.D[3, 3] == pytest.approx(1.0)
    assert m.D[0, 3] == pytest.approx(0.0)
    assert np.all(m.A[3, :] == 0.0) and np.all(m.A[:, 3] == 0.0)


def test_moments_single_pair():
    m = build_moments(make_pairs([_pair("a", 10.0, 37.0, 10.0, 37.0, 0.5)]))
    assert m.D[0, 3] == pytest.approx(1.0)


def test_moments_calgary_lane_split(pipeline):
    kept = pipeline[1994].pairs_clean
    assert len(kept) == 28
    assert np.count_nonzero(kept.w == 0.5) == 13
    assert np.count_nonzero(kept.w == -0.5) == 15
    m = build_moments(kept)
    assert m.D[0, 3] == pytest.approx(2 * -1.0 / 28)


def test_moment_symmetry(reference_sets):
    # r1^2 + r2^2 = 2 ave^2 + diff^2/2 and 2 r1 r2 = 2 ave^2 - diff^2/2, so
    # the rotated Grams recombine into the day-wise cross products.
    pairs = reference_sets[1990]
    m = build_moments(pairs)
    assert np.allclose(m.A, m.A.T)
    assert np.allclose(m.D, m.D.T)
    X1, X2, y1, y2 = design_rows(pairs)
    Z1, Z2 = np.column_stack([X1, y1]), np.column_stack([X2, y2])
    n = len(pairs)
    assert np.allclose(m.A + m.D / 4, (Z1.T @ Z1 + Z2.T @ Z2) / (2 * n))
    assert np.allclose(m.A - m.D / 4, (Z1.T @ Z2 + Z2.T @ Z1) / (2 * n))


def test_gls_at_rho_zero_is_stacked_ols(reference_sets):
    pairs = reference_sets[1994]
    m = build_moments(pairs)
    beta0 = gls_beta(m, 0.0)
    X1, X2, y1, y2 = design_rows(pairs)
    stacked, *_ = np.linalg.lstsq(np.vstack([X1, X2]), np.concatenate([y1, y2]),
                                  rcond=None)
    assert np.max(np.abs(beta0 - stacked)) <= 1e-10 * max(1.0, np.abs(stacked).max())


def test_gls_recovers_truth_on_synthetic():
    rng = np.random.default_rng(42)
    pairs = simulate_event(rng, 200, d=0.05, sigma=0.15, kappa=0.35)
    rho_true = 0.35 ** 2 / (0.15 ** 2 + 0.35 ** 2)
    fit = fit_ml(pairs)
    beta_rho = gls_beta(build_moments(pairs), rho_true)
    for est, true, se in zip(beta_rho, (17.0, 17.0, 2.0, 0.05), fit.se):
        assert abs(est - true) <= 3.0 * se


def test_gls_calgary_at_reference_rho(reference_sets):
    beta = gls_beta(build_moments(reference_sets[1994]), 0.838)
    assert np.allclose(beta, (16.984, 16.938, 2.007, 0.010), atol=0.02)


def test_q_components_zero_residuals():
    pairs = make_pairs(_pair(str(i), 10.0 + i, 17.0 + 2 * (10.0 + i), 10.5 + i,
                             17.0 + 2 * (10.5 + i), 0.5 if i % 2 else -0.5)
                       for i in range(6))
    beta = np.array([17.0, 17.0, 2.0, 0.0])
    assert q_components(pairs, beta) == (0.0, 0.0, 0.0)


def test_q_components_single_pair_direct():
    pairs = make_pairs([_pair("a", 3.0, 1.0, 4.0, 2.0, 0.5)])
    q1, q2, q3 = q_components(pairs, np.zeros(4))
    assert (q1, q2, q3) == pytest.approx((1.0, 4.0, 2.0))


def test_fixed_point_identity_on_reference_sets(reference_sets):
    for year, pairs in reference_sets.items():
        fit = fit_ml(pairs)
        assert fit.fixed_point_residual <= 1e-6, year
        q1, q2, q3 = q_components(pairs, fit.beta)
        assert fit.rho == pytest.approx(2 * q3 / (q1 + q2), abs=1e-6)


def test_calgary_rho_from_q_ratio(reference_sets):
    fit = fit_ml(reference_sets[1994])
    assert fit.rho == pytest.approx(0.838, abs=0.02)


def test_sigma_estimating_equations_agree(reference_sets):
    for year, pairs in reference_sets.items():
        fit = fit_ml(pairs)
        q1, q2, q3 = q_components(pairs, fit.beta)
        n = fit.n
        s2_a = (q1 + q2 - 2 * fit.rho * q3) / (2 * n * (1 + fit.rho))
        s2_b = (1 - fit.rho) / (1 + fit.rho) * (q1 + q2 + 2 * q3) / (2 * n)
        assert abs(s2_a - s2_b) <= 1e-5 * s2_a, year


def _repeated_days():
    return make_pairs(_pair(str(i), 10.0 + 0.1 * i, 36.0 + 0.25 * i + 0.07 * (i % 3),
                            10.0 + 0.1 * i, 36.0 + 0.25 * i + 0.07 * (i % 3),
                            0.5 if i % 2 else -0.5) for i in range(10))


def test_profile_increases_with_perfectly_repeated_days():
    m = build_moments(_repeated_days())
    values = [profile_loglik(m, r) for r in (0.1, 0.5, 0.9, 0.999)]
    assert values == sorted(values)


def test_perfectly_repeated_days_fit_at_rho_max():
    # The difference rows fit exactly, so V = 0 for every slope: the cubic
    # has no roots and the maximum is the rho = RHO_MAX boundary.
    fit = fit_ml(_repeated_days())
    assert fit.rho == RHO_MAX
    assert math.isfinite(fit.loglik)


def test_profile_maximizer_near_zero_without_shared_effect():
    rng = np.random.default_rng(3)
    pairs = simulate_event(rng, 500, kappa=0.0, d=0.0)
    assert fit_ml(pairs).rho <= 0.1


def test_profile_rejects_rho_outside_range(reference_sets):
    m = build_moments(reference_sets[1994])
    with pytest.raises(ValueError):
        profile_loglik(m, -0.2)
    with pytest.raises(ValueError):
        profile_loglik(m, 1.0)


def test_grid_oracle_agrees_with_search(reference_sets):
    grid = np.arange(0.0, 1.0 - 1e-6, 1e-4)
    for year, pairs in reference_sets.items():
        fit = fit_ml(pairs)
        values = profile_oracle(pairs, grid)
        assert abs(grid[int(np.argmax(values))] - fit.rho) <= 1e-4, year


def test_profile_loglik_matches_direct_residuals(reference_sets):
    # The rotated Grams give the same objective Q1 + Q2 - 2 rho Q3 as the
    # day-wise residuals formed directly from the pairs.
    grid = np.arange(0.0, RHO_MAX, 0.005)
    for year, pairs in reference_sets.items():
        n = len(pairs)
        for with_lane in (True, False):
            m = build_moments(pairs, with_lane)
            for r in grid:
                beta = np.pad(gls_beta(m, r), (0, 4 - m.p))     # d = 0 without the lane
                q1, q2, q3 = q_components(pairs, beta)
                q = q1 + q2 - 2 * r * q3
                direct = n * (0.5 * math.log1p(-r * r) - math.log(q / (2 * n)) - 1)
                assert abs(profile_loglik(m, r) - direct) <= 1e-9, (year, with_lane, r)


def test_search_finds_stationary_point_or_boundary():
    # Half the replicates have no shared ability effect, so many of their
    # maxima sit on the rho = 0 boundary.
    rng = np.random.default_rng(2026)
    grid = np.arange(0.0, RHO_MAX, 0.005)
    boundary = interior = 0
    for i in range(200):
        pairs = simulate_event(rng, 30, kappa=0.0 if i % 2 else 0.30)
        for constraint, with_lane in (("free_d", True), ("d_equals_zero", False)):
            fit = fit_ml(pairs, constraint)
            if fit.rho == 0.0:
                boundary += 1
                at_zero, beyond = profile_oracle(pairs, [0.0, 1e-3], with_lane)
                assert at_zero >= beyond, i
            else:
                interior += 1
                q1, q2, q3 = q_components(pairs, fit.beta)
                assert abs(fit.rho - 2 * q3 / (q1 + q2)) <= 1e-9, i
            # Both sides from the oracle: it and profile_loglik differ by up to 1e-9.
            best = profile_oracle(pairs, grid, with_lane).max()
            assert profile_oracle(pairs, [fit.rho], with_lane)[0] >= best - 1e-9, i
    assert boundary and interior


def test_complex_roots_are_not_candidates():
    # This replicate's cubic (U*V)' has a complex root pair; the rho of its
    # real part profiles within rounding of the maximum but is not stationary.
    pairs = simulate_event(np.random.default_rng(1), 30, kappa=0.0)
    fit = fit_ml(pairs)
    q1, q2, q3 = q_components(pairs, fit.beta)
    assert fit.rho > 0.0
    assert abs(fit.rho - 2 * q3 / (q1 + q2)) <= 1e-9


def test_design_singular_at_every_rho_is_degenerate():
    # x = 0 throughout: the slope column is zero, so M_rho is singular for all rho.
    pairs = make_pairs(_pair(str(i), 0.0, 37.0 + 0.1 * i, 0.0, 37.2 - 0.05 * i,
                             (-1) ** i * 0.5) for i in range(8))
    with pytest.raises(DegenerateDesignError, match="^singular design at rho=0: Singular matrix$"):
        fit_ml(pairs)
    m = build_moments(pairs)
    for r in (0.0, 0.5, RHO_MAX):
        with pytest.raises(DegenerateDesignError):
            gls_beta(m, r)


def test_fit_requires_five_pairs():
    pairs = make_pairs(_pair(str(i), 10.0, 37.0 + i * 0.1, 10.0, 37.0, (-1) ** i * 0.5)
                       for i in range(4))
    with pytest.raises(InsufficientDataError):
        fit_ml(pairs)


def test_fit_requires_both_lane_groups():
    for w in (0.5, -0.5):
        pairs = make_pairs(_pair(str(i), 10.0 + 0.1 * i, 37.0 + 0.2 * i + 0.05 * (i % 3),
                                 10.1 + 0.1 * i, 37.1 + 0.2 * i - 0.05 * (i % 2), w)
                           for i in range(8))
        with pytest.raises(DegenerateDesignError, match="same lane"):
            fit_ml(pairs)
        fit_ml(pairs, constraint="d_equals_zero")  # identifiable without the lane column


def test_mirror_symmetric_data_gives_exactly_zero_d():
    rng = np.random.default_rng(5)
    half = simulate_event(rng, 10, d=0.2)
    mirrored = Pairs(half.names + tuple(n + "'" for n in half.names),
                     *(np.concatenate([c, c]) for c in (half.x1, half.y1, half.x2, half.y2)),
                     np.concatenate([half.w, -half.w]))
    assert abs(fit_ml(mirrored).d) <= 1e-10


def test_shift_invariance(reference_sets):
    pairs = reference_sets[1989]
    base = fit_ml(pairs)
    shifted = fit_ml(Pairs(pairs.names, pairs.x1, pairs.y1 + 5.0, pairs.x2, pairs.y2 + 5.0,
                           pairs.w))
    assert shifted.a1 == pytest.approx(base.a1 + 5.0, abs=1e-9)
    assert shifted.a2 == pytest.approx(base.a2 + 5.0, abs=1e-9)
    for attr in ("b", "d", "rho", "sigma_un", "kappa_un"):
        assert getattr(shifted, attr) == pytest.approx(getattr(base, attr), abs=1e-9)


def test_lane_relabel_negates_d(reference_sets):
    pairs = reference_sets[1984]
    base = fit_ml(pairs)
    flipped = fit_ml(Pairs(pairs.names, pairs.x1, pairs.y1, pairs.x2, pairs.y2, -pairs.w))
    assert flipped.d == pytest.approx(-base.d, abs=1e-9)
    for attr in ("a1", "a2", "b", "rho", "sigma_un", "kappa_un"):
        assert getattr(flipped, attr) == pytest.approx(getattr(base, attr), abs=1e-9)


def test_sample_size_correction_links_sigma_versions(pipeline):
    for cleaned in pipeline.values():
        f = cleaned.fit
        assert f.sigma_un ** 2 == pytest.approx(
            2 * f.n / (2 * f.n - f.p) * f.sigma_ml ** 2, rel=1e-12)
        assert f.kappa_un ** 2 == pytest.approx(
            f.sigma_un ** 2 * f.rho / (1 - f.rho), rel=1e-12)


def test_cov_beta_matches_closed_form(reference_sets):
    pairs = reference_sets[1994]
    fit = fit_ml(pairs)
    X1, X2, _, _ = design_rows(pairs)
    mrho = (X1.T @ X1 + X2.T @ X2 - fit.rho * (X1.T @ X2 + X2.T @ X1)) / fit.n
    expected = fit.sigma_un ** 2 * (1 + fit.rho) * np.linalg.inv(mrho) / fit.n
    assert np.allclose(fit.cov_beta, expected, rtol=1e-12)
    assert np.allclose(fit.cov_beta, fit.cov_beta.T)
    assert np.all(np.linalg.eigvalsh(fit.cov_beta) >= -1e-12)


def test_zero_d_constraint_reports_zero(reference_sets):
    fit = fit_ml(reference_sets[1994], constraint="d_equals_zero")
    assert fit.d == 0.0
    assert fit.p == 3
    assert np.all(fit.cov_beta[3, :] == 0.0) and np.all(fit.cov_beta[:, 3] == 0.0)


def test_boundary_rho_reports_zero_kappa():
    # perfectly anticorrelated day residuals push the maximizer to rho = 0
    pairs = []
    for i in range(12):
        x = 10.0 + 0.1 * i
        e = 0.1 if i % 2 else -0.1
        pairs.append(_pair(str(i), x, 17.0 + 2 * x + e, x, 17.0 + 2 * x - e,
                           0.5 if i < 6 else -0.5))
    fit = fit_ml(make_pairs(pairs))
    assert fit.rho == 0.0
    assert fit.kappa_un == 0.0


def test_fit_ml_tracks_difference_ols_on_synthetic():
    """Least squares on the day differences alone estimates the same d."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        pairs = simulate_event(rng, 40)
        full = fit_ml(pairs)
        X = np.column_stack([np.ones(len(pairs)),
                             pairs.x2 - pairs.x1, -2 * pairs.w])
        y = pairs.y2 - pairs.y1
        coef, rss, *_ = np.linalg.lstsq(X, y, rcond=None)
        cov = float(rss[0]) / (len(pairs) - 3) * np.linalg.inv(X.T @ X)
        joint = math.hypot(full.se_d, math.sqrt(cov[2, 2]))
        assert abs(coef[2] - full.d) <= 3.0 * joint


def test_pairs_are_read_only_columns(usable):
    pairs, _ = usable[1994]
    assert len(pairs) == len(pairs.names) == 30 and isinstance(pairs.names, tuple)
    for column in (pairs.x1, pairs.y1, pairs.x2, pairs.y2, pairs.w):
        assert column.dtype == np.float64 and column.shape == (30,)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    for field in ("names", "x1", "w", "extra"):
        with pytest.raises(AttributeError):
            setattr(pairs, field, None)
    for twin in (copy.deepcopy(pairs), pickle.loads(pickle.dumps(pairs))):
        assert pair_rows(twin) == pair_rows(pairs)
    with pytest.raises(ValueError, match="five columns"):
        Pairs(["a", "b"], [1.0], [2.0], [3.0], [4.0], [0.5])


def test_pairs_copy_their_columns_and_take_rows_in_index_order():
    x1 = np.array([10.0, 10.1, 10.2])
    pairs = Pairs("abc", x1, x1 + 27.0, x1 + 0.05, x1 + 27.1, [0.5, -0.5, 0.5])
    x1[0] = 0.0
    rows = pair_rows(pairs)
    assert rows[0] == ("a", 10.0, 37.0, 10.05, 37.1, 0.5)
    assert pair_rows(pairs.take(np.array([2, 0]))) == [rows[2], rows[0]]
    assert pair_rows(pairs.take(pairs.w > 0)) == [rows[0], rows[2]]
    assert len(pairs.take(np.zeros(3, dtype=bool))) == 0


PERMUTATION = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PERMUTATION
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 60), st.data())
def test_row_permutation_leaves_the_fit_unchanged(seed, n, data):
    """Row order moves only the summation order, so the last bits at most."""
    pairs = simulate_event(np.random.default_rng(seed), n)
    order = np.array(data.draw(st.permutations(range(n))))
    base, permuted = fit_ml(pairs), fit_ml(pairs.take(order))
    for attr in ("d", "se_d", "rho"):
        assert getattr(permuted, attr) == pytest.approx(getattr(base, attr), rel=1e-10), attr


@PERMUTATION
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 60))
def test_day_swap_with_the_signs_flipped_leaves_the_fit_unchanged(seed, n):
    """Swapping the days and negating w swaps a1 and a2 and keeps b, d, se(d), rho
    and sigma.  Coefficients can sit near zero, so they move by at most 1e-10 of
    their standard errors rather than of themselves."""
    pairs = simulate_event(np.random.default_rng(seed), n)
    swapped = Pairs(pairs.names, pairs.x2, pairs.y2, pairs.x1, pairs.y1, -pairs.w)
    for constraint in ("free_d", "d_equals_zero"):
        base, other = fit_ml(pairs, constraint), fit_ml(swapped, constraint)
        for attr in ("se_d", "rho", "sigma_un"):
            assert getattr(other, attr) == pytest.approx(getattr(base, attr), rel=1e-10), attr
        moved = np.abs(other.beta[[1, 0, 2, 3]] - base.beta)
        assert np.all(moved <= 1e-10 * base.se), (constraint, moved / base.se)


def _shift_out_d(pairs, d):
    return Pairs(pairs.names, pairs.x1, pairs.y1 - d * pairs.w, pairs.x2, pairs.y2 + d * pairs.w,
                 pairs.w)


def test_d_equals_zero_refit_of_shifted_days_gives_the_free_loglik(pipeline):
    """With d-hat w moved out of the responses, d = 0 is optimal at the fitted rho, so
    the d = 0 fit of y1 - d-hat w and y2 + d-hat w reaches the free log-likelihood.
    This checks d by a path that never estimates it."""
    for year, cleaned in pipeline.items():
        free = cleaned.fit
        refit = fit_ml(_shift_out_d(cleaned.pairs_clean, free.d), "d_equals_zero")
        assert abs(refit.loglik - free.loglik) <= 1e-10 * abs(free.loglik), year


@PERMUTATION
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 60), st.sampled_from([0.0, 0.30]))
def test_d_refit_identity_holds_on_random_events(seed, n, kappa):
    pairs = simulate_event(np.random.default_rng(seed), n, kappa=kappa)
    free = fit_ml(pairs)
    refit = fit_ml(_shift_out_d(pairs, free.d), "d_equals_zero")
    assert abs(refit.loglik - free.loglik) <= 1e-10 * max(1.0, abs(free.loglik))


@st.composite
def _events(draw):
    """A valid event, or one that cannot be fitted: fewer than 5 pairs, every
    skater in one lane, or constant passing times."""
    kind = draw(st.sampled_from(["valid", "small", "one lane", "constant x"]))
    n = draw(st.integers(1, 4) if kind == "small" else st.integers(5, 40))
    pairs = simulate_event(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n,
                           kappa=draw(st.sampled_from([0.0, 0.30])))
    if kind == "one lane":
        return Pairs(pairs.names, pairs.x1, pairs.y1, pairs.x2, pairs.y2, np.full(n, 0.5))
    if kind == "constant x":
        x = np.full(n, 10.0)
        return Pairs(pairs.names, x, pairs.y1, x, pairs.y2, pairs.w)
    return pairs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_events(), min_size=1, max_size=8),
       st.sampled_from(["free_d", "d_equals_zero"]))
def test_each_fit_many_item_equals_its_own_fit(events, constraint):
    """One stacked call gives every event the fit, or the error, that it gets alone."""
    for pairs, got in zip(events, fit_many(events, constraint), strict=True):
        try:
            alone = fit_ml(pairs, constraint)
        except FitError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            continue
        assert not isinstance(got, FitError), got
        for field, a, b in zip(got._fields, got, alone):
            assert np.array_equal(a, b, equal_nan=True), field
