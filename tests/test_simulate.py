from __future__ import annotations

import dataclasses
import math

import numpy as np

from lanefair.simulate import mc_calibration, simulate_event

from conftest import pair_rows


def test_simulated_event_shape_and_balance():
    rng = np.random.default_rng(0)
    pairs = simulate_event(rng, 30)
    assert len(pairs) == 30
    assert sum(1 for w in pairs.w if w == 0.5) == 15
    assert set(pairs.w.tolist()) == {0.5, -0.5}


def test_simulation_is_seed_deterministic():
    a = simulate_event(np.random.default_rng(9), 12)
    b = simulate_event(np.random.default_rng(9), 12)
    assert pair_rows(a) == pair_rows(b)


def test_mc_calibration_repeatable_and_centered():
    a = mc_calibration(n=25, reps=60, seed=5)
    b = mc_calibration(n=25, reps=60, seed=5)
    assert a == b
    assert abs(a.d_mean - a.d_true) <= 4 * np.sqrt(a.d_var_theory / a.reps)


def test_mc_report_vars_are_its_finite_fields():
    """The benchmark reads a report's values through vars()."""
    rep = mc_calibration(n=6, reps=3)
    values = vars(rep)
    assert list(values) == [f.name for f in dataclasses.fields(rep)]
    assert all(math.isfinite(v) for v in values.values())
