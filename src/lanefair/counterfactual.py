"""Speculative single-run result lists under a swapped lane draw.

Swapping every starting lane removes the last-outer-lane advantage from
those who had it and confers it on those who did not: inner starters get
d added to their time, outer starters get d subtracted.  Arithmetic is
done in integer centiseconds so published lists reproduce exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .dataset import Lane, OlympicEntry, format_time


class SpeculativeEntry(NamedTuple):
    rank: int | None            # None for non-finishers
    name: str
    time_cs: int | None

    @property
    def time_text(self) -> str:
        return "---" if self.time_cs is None else format_time(self.time_cs)


class SpeculativeList(NamedTuple):
    entries: tuple[SpeculativeEntry, ...]
    d_cs: int


def competition_ranks(times: Sequence[int]) -> list[int]:
    """Ranks of times listed in finishing order: a time equal to the one
    before it shares that one's rank, any other takes its position."""
    ranks: list[int] = []
    for pos, t in enumerate(times):
        ranks.append(ranks[-1] if pos and t == times[pos - 1] else pos + 1)
    return ranks


def speculate(entries: Sequence[OlympicEntry], d: float) -> SpeculativeList:
    """Re-rank the list as if every lane draw had gone the other way.

    d is rounded to the nearest centisecond before applying.  Ties share a
    rank (``competition_ranks``); the order within a tie follows the input
    list.  Non-finishers are carried through unranked at the end.
    """
    d_cs = round(d * 100)
    shifted = sorted((e.time_cs + (d_cs if e.lane is Lane.INNER_START else -d_cs), i, e.name)
                     for i, e in enumerate(entries) if e.finished)
    ranks = competition_ranks([t for t, _, _ in shifted])
    out = [SpeculativeEntry(r, name, t) for r, (t, _, name) in zip(ranks, shifted)]
    out += [SpeculativeEntry(None, e.name, None) for e in entries if not e.finished]
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
