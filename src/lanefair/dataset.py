"""Parsing, validation and filtering of the two result-file formats.

A two-day championship file is a line-oriented CSV, one skater per line::

    #event,<venue>,<year>
    name,lane1,t100_1,t500_1,status1,lane2,t100_2,t500_2,status2[,note]

An Olympic single-run list has ``name,lane,time,status`` rows under the same
header, which it may omit.  The year is an integer in canonical decimal form,
lane is in {i, o}, times are seconds with exactly two fractional digits, below
2**53 centiseconds (or empty when missing), and status is one of ok, fell, dq,
dnf, dns, wd.  Times are stored as integer centiseconds so ingestion is exact;
estimation code converts to float.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from itertools import compress, repeat
from operator import and_, is_, is_not
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:       # importing model loads numpy; usable_pairs does so when called
    from .model import Pairs


class ParseError(ValueError):
    """Raised for malformed input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RunStatus(enum.Enum):
    OK = "ok"
    FELL = "fell"
    DISQUALIFIED = "dq"
    DID_NOT_FINISH = "dnf"
    DID_NOT_START = "dns"
    WITHDRAWN = "wd"


class Lane(enum.Enum):
    """Starting lane; an inner start means the last lap is skated outer."""

    INNER_START = "i"
    OUTER_START = "o"


class Run(NamedTuple):
    """One 500 m run: starting lane, 100 m passing time, finishing time."""

    lane: Lane
    t100_cs: int | None
    t500_cs: int | None
    status: RunStatus


class SkaterPair(NamedTuple):
    """One skater's two-day record."""

    name: str
    day1: Run
    day2: Run
    note: str = ""


class EventDataset(namedtuple("EventDataset", "venue year names day1 day2 notes")):
    """One championship as columns, in entry order.  Each day is a (lane, t100_cs,
    t500_cs, status) tuple of columns.  ``parse_event`` checks what it builds; an event
    built by hand is taken as given.  ``skaters`` builds row records on each read."""

    __slots__ = ()

    @property
    def skaters(self) -> list[SkaterPair]:
        return list(map(SkaterPair, self.names, map(Run, *self.day1), map(Run, *self.day2),
                        self.notes))

    @property
    def label(self) -> str:
        return f"{self.year} {self.venue}"


class OlympicEntry(NamedTuple):
    name: str
    lane: Lane
    time_cs: int | None
    status: RunStatus

    @property
    def finished(self) -> bool:
        return self.status is _OK and self.time_cs is not None


_LANES = {l.value: l for l in Lane}
_STATUSES = {s.value: s for s in RunStatus}
_OK, _OUTER = RunStatus.OK, Lane.OUTER_START    # read once: an enum member read costs ~200 ns


def _parse_header(lines: list[str]) -> tuple[str, int] | None:
    """Venue and year of the ``#event,<venue>,<year>`` header, None without
    one; only a canonical header, whose year prints back as written, is accepted."""
    if not (lines and lines[0].startswith("#event,")):
        return None
    head = lines[0].split(",")
    if len(head) != 3:
        raise ParseError("header must be '#event,<venue>,<year>'", 1)
    try:
        year = int(head[2])
    except ValueError:
        year = None
    if year is None or str(year) != head[2]:
        raise ParseError(f"year {head[2]!r} is not an integer", 1)
    return head[1], year


def _lane(token: str, line: int | None = None) -> Lane:
    if (lane := _LANES.get(token.strip())) is None:
        raise ParseError(f"lane token {token!r} outside {{i, o}}", line)
    return lane


def _status(token: str, line: int | None = None) -> RunStatus:
    if (status := _STATUSES.get(token.strip())) is None:
        raise ParseError(f"unknown status {token!r}", line)
    return status


def _parse_time(token: str, line: int | None = None) -> int | None:
    token = token.strip()
    if not token:
        return None
    whole, dot, frac = token.partition(".")
    if not (dot and len(frac) == 2 and token.isascii() and whole.isdigit() and frac.isdigit()):
        raise ParseError(f"time {token!r} is not a centisecond multiple", line)
    whole = whole.lstrip("0")       # int() refuses 4,301 digits; 15 already pass 2**53 cs
    if len(whole) > 14 or (cs := int(whole or 0) * 100 + int(frac)) >= 2 ** 53:
        raise ParseError("time of 2**53 centiseconds or more", line)
    return cs


def format_time(cs: int | None) -> str:
    """Inverse of ``_parse_time``: seconds with two decimals, '' for no time."""
    return "" if cs is None else f"{cs // 100}.{cs % 100:02d}"


def _decode(columns: list[list[str]], check, ranks, errors: list) -> list[tuple]:
    """Each column's values, checking each distinct token once; a bad token reads
    as None, and each column's first bad row joins ``errors`` as (row, rank, message)."""
    memo, bad = {}, {}
    for token in set().union(*columns):
        try:
            memo[token] = check(token)
        except ParseError as err:
            memo[token], bad[token] = None, str(err)
    for column, rank in zip(columns, ranks) if bad else ():     # one pass over a column
        errors += [(row, rank, bad[t]) for row, t in enumerate(column) if t in bad][:1]
    return [tuple(map(memo.__getitem__, column)) for column in columns]


def parse_event(text: str) -> EventDataset:
    """Parse a championship result file into an EventDataset; row order, lanes,
    statuses and times are preserved exactly.  Each column is checked at once, and
    the error raised is the first bad row's first failed check, in the order field
    count, name, then per day lane, status, 100 m time, 500 m time and time rules."""
    lines = text.splitlines()
    header = _parse_header(lines)
    if header is None:
        raise ParseError("missing '#event,<venue>,<year>' header", 1)
    rows = list(filter(str.strip, lines[1:]))
    commas, errors = [row.count(",") for row in rows], []   # (row, rank in that order, message)
    if not {8, 9}.issuperset(commas):       # rows after the first bad count go unread
        n = next(i for i, k in enumerate(commas) if k not in (8, 9))
        errors.append((n, 0, f"expected 9 or 10 comma-separated fields, got {commas[n] + 1}"))
        rows, commas = rows[:n], commas[:n]
    width = 10 if 9 in commas else 9
    if width == 10:
        rows = [row if k == 9 else row + "," for row, k in zip(rows, commas)]
    fields = ",".join(rows).split(",") if rows else []
    cols = [fields[k::width] for k in range(width)]
    names = tuple(map(str.strip, cols[0]))
    if "" in names:
        errors.append((names.index(""), 1, "empty skater name"))
    lanes = _decode([cols[1], cols[5]], _lane, (2, 7), errors)
    statuses = _decode([cols[4], cols[8]], _status, (3, 8), errors)
    times = _decode([cols[2], cols[3], cols[6], cols[7]], _parse_time, (4, 5, 9, 10), errors)
    days = [(lanes[d], *times[2 * d:2 * d + 2], statuses[d]) for d in (0, 1)]
    for rank, (_, t100s, t500s, day_statuses) in zip((6, 11), days):
        for row, (status, t100, t500) in enumerate(zip(day_statuses, t100s, t500s)):
            if status is _OK:
                if t100 is None or t500 is None:
                    message = "status ok requires both times"
                elif t500 <= t100:
                    message = "500 m time must exceed 100 m time"
                else:
                    continue
            elif t500 is None or status is None:    # a bad status has a lower rank
                continue
            else:
                message = f"status {status.value!r} cannot carry a 500 m time"
            errors.append((row, rank, message))
            break
    if errors:
        row, _, message = min(errors)
        raise ParseError(message, [k for k, raw in enumerate(lines, 1) if raw.strip()][row + 1])
    if dupes := sorted(n for n, k in Counter(names).items() if k > 1):
        raise ParseError(f"duplicate skater names: {dupes}")
    notes = tuple(map(str.strip, cols[9])) if width == 10 else ("",) * len(names)
    return EventDataset(*header, names, *days, notes)


def parse_olympic(text: str) -> tuple[str, list[OlympicEntry]]:
    """Parse an Olympic single-run list: ``name,lane,time,status`` rows.

    An optional ``#event,<venue>,<year>`` header is allowed; its venue and
    year become the returned label.  Finishers come first, in non-decreasing
    time order; non-finishers follow them.
    """
    lines = text.splitlines()
    header = _parse_header(lines)
    label = "olympic 500 m" if header is None else f"{header[0]} {header[1]}".strip()
    start = 0 if header is None else 1
    entries = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) != 4:
            raise ParseError("expected 'name,lane,time,status'", lineno)
        name, lane_tok, time_tok, status_tok = fields
        lane, status = _lane(lane_tok, lineno), _status(status_tok, lineno)
        time_cs = _parse_time(time_tok, lineno)
        if status is _OK and time_cs is None:
            raise ParseError("finisher without a time", lineno)
        if status is not _OK and time_cs is not None:
            raise ParseError("non-finisher with a time", lineno)
        if time_cs is not None and entries and not entries[-1].finished:
            raise ParseError("finisher listed after a non-finisher", lineno)
        if time_cs is not None and entries and time_cs < entries[-1].time_cs:
            raise ParseError(f"time {format_time(time_cs)} is faster than the"
                             f" {format_time(entries[-1].time_cs)} listed before it", lineno)
        entries.append(OlympicEntry(name, lane, time_cs, status))
    return label, entries


def usable_pairs(ds: EventDataset, lane_policy: str = "warn_day1",
                 ) -> tuple[Pairs, list[str]]:
    """Filter to pairs with both runs complete, attaching lane indicators.

    Rows where the skater did not alternate lanes are handled per
    ``lane_policy``: under ``warn_day1`` they are kept with ``w`` taken
    from the day-1 lane, under ``strict`` they are dropped.  Either way a
    warning is recorded.
    """
    import numpy as np

    from .model import Pairs

    if lane_policy not in ("strict", "warn_day1"):
        raise ValueError(f"unknown lane policy {lane_policy!r}")
    (lanes1, *times1, status1), (lanes2, *times2, status2) = ds.day1, ds.day2
    # C-level column passes; None times too, as a hand-built EventDataset skips the checks.
    usable = list(map(all, zip(map(is_, status1, repeat(_OK)), map(is_, status2, repeat(_OK)),
                               *(map(is_not, t, repeat(None)) for t in (*times1, *times2)))))
    same = list(map(and_, usable, map(is_, lanes1, lanes2)))
    suffix = " (kept, w from day 1)" if lane_policy == "warn_day1" else " (dropped)"
    warnings = [f"{name}: same starting lane on both days{suffix}"
                for name in compress(ds.names, same)]
    if lane_policy == "strict":
        usable = [u and not s for u, s in zip(usable, same)]
    n = sum(usable)
    return Pairs(compress(ds.names, usable),
                 *(np.fromiter(compress(t, usable), float, n) / 100.0 for t in (*times1, *times2)),
                 [0.5 if lane is _OUTER else -0.5 for lane in compress(lanes1, usable)]), warnings


def load_event(path) -> EventDataset:
    """Read and parse an event file from disk."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_event(fh.read())
