from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lanefair.counterfactual import speculate
from lanefair.dataset import (EventDataset, Lane, OlympicEntry, ParseError, Run, RunStatus,
                              SkaterPair, format_time, load_event, usable_pairs)
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


def event_from_skaters(venue, year, skaters):
    """An EventDataset of SkaterPair rows, through the column constructor; like any
    event built by hand, it is not checked."""
    cols = list(zip(*[(s.name, *s.day1, *s.day2, s.note) for s in skaters])) or [()] * 10
    return EventDataset(venue, year, cols[0], tuple(cols[1:5]), tuple(cols[5:9]), cols[9])


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


def profile_oracle(pairs, rhos, with_lane=True):
    """The profile log-likelihood at each rho of ``rhos``, built from the day-wise
    objective Q1 + Q2 - 2 rho Q3 = b'S b with S = Z1'Z1 + Z2'Z2 - rho (Z1'Z2 + Z2'Z1),
    Z = [X | y] per day and b = (beta, -1), by one stacked solve over all rhos.  It
    shares no code with the fitter's rotated moments, gls_beta or _residual_sums."""
    X1, X2, y1, y2 = design_rows(pairs)
    p = 4 if with_lane else 3
    Z1, Z2 = np.column_stack([X1[:, :p], y1]), np.column_stack([X2[:, :p], y2])
    rho = np.asarray(rhos, dtype=float)
    S = Z1.T @ Z1 + Z2.T @ Z2 - rho[:, None, None] * (Z1.T @ Z2 + Z2.T @ Z1)
    beta = np.linalg.solve(S[:, :p, :p], S[:, :p, p:])          # (G, p, p) systems
    q = S[:, p, p] - (S[:, p:, :p] @ beta)[:, 0, 0]
    n = len(pairs)
    return n * (0.5 * np.log1p(-rho * rho) - np.log(q / (2.0 * n)) - 1.0)


_REFERENCE_LANES = {lane.value: lane for lane in Lane}
_REFERENCE_STATUSES = {status.value: status for status in RunStatus}


def _reference_header(line):
    head = line.split(",")
    if len(head) != 3:
        raise ParseError("header must be '#event,<venue>,<year>'", 1)
    try:
        year = int(head[2])
    except ValueError:
        year = None
    if year is None or str(year) != head[2]:
        raise ParseError(f"year {head[2]!r} is not an integer", 1)
    return head[1], year


def _reference_lane_status(lane_tok, status_tok, line):
    lane = _REFERENCE_LANES.get(lane_tok.strip())
    if lane is None:
        raise ParseError(f"lane token {lane_tok!r} outside {{i, o}}", line)
    status = _REFERENCE_STATUSES.get(status_tok.strip())
    if status is None:
        raise ParseError(f"unknown status {status_tok!r}", line)
    return lane, status


def _reference_time(token, line):
    token = token.strip()
    if not token:
        return None
    whole, dot, frac = token.partition(".")
    if not (dot and len(frac) == 2 and token.isascii() and whole.isdigit() and frac.isdigit()):
        raise ParseError(f"time {token!r} is not a centisecond multiple", line)
    whole = whole.lstrip("0")
    if len(whole) > 14 or (cs := int(whole or 0) * 100 + int(frac)) >= 2 ** 53:
        raise ParseError("time of 2**53 centiseconds or more", line)
    return cs


def reference_parse_event(text):
    """The row-by-row event parser that the column parser replaced: each row is
    checked in file order, field by field, and the first failed check raises."""
    lines = text.splitlines()
    if not (lines and lines[0].startswith("#event,")):
        raise ParseError("missing '#event,<venue>,<year>' header", 1)
    venue, year = _reference_header(lines[0])
    skaters = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if (n := len(fields)) not in (9, 10):
            raise ParseError(f"expected 9 or 10 comma-separated fields, got {n}", lineno)
        name = fields[0].strip()
        if not name:
            raise ParseError("empty skater name", lineno)
        runs = []
        for lane_tok, t100_tok, t500_tok, status_tok in (fields[1:5], fields[5:9]):
            lane, status = _reference_lane_status(lane_tok, status_tok, lineno)
            t100 = _reference_time(t100_tok, lineno)
            t500 = _reference_time(t500_tok, lineno)
            if status is RunStatus.OK:
                if t100 is None or t500 is None:
                    raise ParseError("status ok requires both times", lineno)
                if t500 <= t100:
                    raise ParseError("500 m time must exceed 100 m time", lineno)
            elif t500 is not None:
                raise ParseError(f"status {status.value!r} cannot carry a 500 m time", lineno)
            runs.append(Run(lane, t100, t500, status))
        skaters.append(SkaterPair(name, *runs, fields[9].strip() if n == 10 else ""))
    if dupes := sorted(n for n, k in Counter(s.name for s in skaters).items() if k > 1):
        raise ParseError(f"duplicate skater names: {dupes}")
    return event_from_skaters(venue, year, skaters)
