from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from lanefair.counterfactual import speculate
from lanefair.dataset import Lane, OlympicEntry, format_time, load_event, usable_pairs
from lanefair.diagnostics import clean_and_refit
from lanefair.model import Pairs

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
EXPECTED = Path(__file__).resolve().parent / "data"

YEARS = list(range(1984, 1995))

# Removal rosters of the original championship analyses, used to rebuild the
# exact estimation sets behind the reference parameter values.
REFERENCE_REMOVALS = {
    1984: {"G.Kuiper"},
    1985: {"K.-T.Bae", "E.Henriksen"},
    1986: {"G.Boucher"},
    1987: set(),
    1988: set(),
    1989: {"R.Sighel"},
    1990: set(),
    1991: {"T.Kuroiwa", "I.Dolp"},
    1992: {"I.Dolp"},
    1993: set(),
    1994: {"T.Hamamichi", "P.H.Koninckx", "P.Tahmindjis"},
}


@pytest.fixture(scope="session")
def events():
    return {y: load_event(DATA / f"swc{y}.csv") for y in YEARS}


@pytest.fixture(scope="session")
def usable(events):
    out = {}
    for y, ds in events.items():
        pairs, warns = usable_pairs(ds)
        out[y] = (pairs, warns)
    return out


@pytest.fixture(scope="session")
def pipeline(usable):
    """Screen-and-refit outcome for every championship."""
    return {y: clean_and_refit(pairs, warnings=warns)
            for y, (pairs, warns) in usable.items()}


@pytest.fixture(scope="session")
def reference_sets(usable):
    """Estimation sets with the originally removed skaters taken out."""
    return {y: pairs.take(np.array([n not in REFERENCE_REMOVALS[y] for n in pairs.names]))
            for y, (pairs, _) in usable.items()}


def make_pairs(rows):
    """Pairs from (name, x1, y1, x2, y2, w) rows."""
    rows = list(rows)
    return Pairs([r[0] for r in rows], *(np.array([r[k] for r in rows], dtype=float)
                                         for k in range(1, 6)))


def pair_rows(pairs):
    """The (name, x1, y1, x2, y2, w) rows of Pairs, as Python floats."""
    return list(zip(pairs.names, pairs.x1.tolist(), pairs.y1.tolist(), pairs.x2.tolist(),
                    pairs.y2.tolist(), pairs.w.tolist()))


def serialize_event(ds):
    """Inverse of parse_event (byte-exact round trip for canonical files)."""
    lines = [f"#event,{ds.venue},{ds.year}"]
    for name, lane1, x1, y1, status1, lane2, x2, y2, status2, note in zip(
            ds.names, *ds.day1, *ds.day2, ds.notes):
        lines.append(",".join([name, lane1.value, format_time(x1), format_time(y1),
                               status1.value, lane2.value, format_time(x2), format_time(y2),
                               status2.value] + ([note] if note else [])))
    return "\n".join(lines) + "\n"


_OPPOSITE = {Lane.INNER_START: Lane.OUTER_START, Lane.OUTER_START: Lane.INNER_START}


def round_trip(entries, d):
    """Apply the swap, flip the lanes, apply it again; restores the input.

    The double application is the exact identity on centisecond times.
    """
    once = speculate(entries, d)
    by_name = {e.name: e.time_cs for e in once.entries}
    flipped = [OlympicEntry(e.name, _OPPOSITE[e.lane], by_name[e.name], e.status)
               for e in entries]
    twice = speculate(flipped, d)
    back = {e.name: e.time_cs for e in twice.entries}
    return [OlympicEntry(e.name, e.lane, back[e.name], e.status) for e in entries]


def design_rows(pairs):
    """Day-wise covariate matrices X1, X2 and responses y1, y2.

    Row i of X1 is (1, 0, x1_i, w_i) and of X2 is (0, 1, x2_i, -w_i).
    """
    x1, y1, x2, y2, w = pairs.x1, pairs.y1, pairs.x2, pairs.y2, pairs.w
    ones, zeros = np.ones(len(pairs)), np.zeros(len(pairs))
    return (np.column_stack([ones, zeros, x1, w]), np.column_stack([zeros, ones, x2, -w]),
            y1, y2)
