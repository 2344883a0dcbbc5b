"""Speculative single-run result lists under a swapped lane draw.

Swapping every starting lane removes the last-outer-lane advantage from
those who had it and confers it on those who did not: inner starters get
d added to their time, outer starters get d subtracted.  Arithmetic is
done in integer centiseconds so published lists reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dataset import (_LANE_TOKENS, _STATUS_TOKENS, Lane, ParseError, RunStatus,
                      _parse_time, format_time)


@dataclass(frozen=True)
class OlympicEntry:
    name: str
    lane: Lane
    time_cs: int | None
    status: RunStatus

    @property
    def finished(self) -> bool:
        return self.status is RunStatus.OK and self.time_cs is not None


@dataclass(frozen=True)
class SpeculativeEntry:
    rank: int | None            # None for non-finishers
    name: str
    time_cs: int | None

    @property
    def time_text(self) -> str:
        return "---" if self.time_cs is None else format_time(self.time_cs)


@dataclass(frozen=True)
class SpeculativeList:
    entries: tuple[SpeculativeEntry, ...]
    d_cs: int


def parse_olympic(text: str) -> tuple[str, list[OlympicEntry]]:
    """Parse an Olympic single-run list: ``name,lane,time,status`` rows.

    An optional ``#event,<venue>,<year>`` header is allowed; its venue and
    year become the returned label.
    """
    lines = text.splitlines()
    label = "olympic 500 m"
    start = 0
    if lines and lines[0].startswith("#event,"):
        head = lines[0].split(",")
        label = " ".join(head[1:3]).strip()
        start = 1
    entries = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) != 4:
            raise ParseError("expected 'name,lane,time,status'", lineno)
        name, lane_tok, time_tok, status_tok = fields
        lane = _LANE_TOKENS.get(lane_tok)
        if lane is None:
            raise ParseError(f"lane token {lane_tok!r} outside {{i, o}}", lineno)
        status = _STATUS_TOKENS.get(status_tok)
        if status is None:
            raise ParseError(f"unknown status {status_tok!r}", lineno)
        time_cs = _parse_time(time_tok, lineno)
        if status is RunStatus.OK and time_cs is None:
            raise ParseError("finisher without a time", lineno)
        if status is not RunStatus.OK and time_cs is not None:
            raise ParseError("non-finisher with a time", lineno)
        entries.append(OlympicEntry(name, lane, time_cs, status))
    return label, entries


def speculate(entries: Sequence[OlympicEntry], d: float) -> SpeculativeList:
    """Re-rank the list as if every lane draw had gone the other way.

    d is rounded to the nearest centisecond before applying.  Ties share a
    rank (competition ranking); the order within a tie follows the input
    list.  Non-finishers are carried through unranked at the end.
    """
    d_cs = round(d * 100)
    adjusted = []
    excluded = []
    for idx, e in enumerate(entries):
        if e.finished:
            shift = d_cs if e.lane is Lane.INNER_START else -d_cs
            adjusted.append((e.time_cs + shift, idx, e.name))
        else:
            excluded.append(e.name)
    adjusted.sort(key=lambda t: (t[0], t[1]))
    out = []
    prev_time = None
    prev_rank = 0
    for pos, (t, _, name) in enumerate(adjusted, start=1):
        rank = prev_rank if t == prev_time else pos
        out.append(SpeculativeEntry(rank, name, t))
        prev_time, prev_rank = t, rank
    out.extend(SpeculativeEntry(None, name, None) for name in excluded)
    return SpeculativeList(tuple(out), d_cs)


def round_trip(entries: Sequence[OlympicEntry], d: float) -> list[OlympicEntry]:
    """Apply the swap, flip the lanes, apply it again; restores the input.

    Verification helper: the double application is the exact identity on
    centisecond times.
    """
    once = speculate(entries, d)
    by_name = {e.name: e.time_cs for e in once.entries}
    flipped = [OlympicEntry(e.name, e.lane.opposite, by_name[e.name], e.status)
               for e in entries]
    twice = speculate(flipped, d)
    back = {e.name: e.time_cs for e in twice.entries}
    return [OlympicEntry(e.name, e.lane, back[e.name], e.status) for e in entries]
