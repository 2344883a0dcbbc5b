"""Speculative single-run result lists under a swapped lane draw.

Swapping every starting lane removes the last-outer-lane advantage from
those who had it and confers it on those who did not: inner starters get
d added to their time, outer starters get d subtracted.  Arithmetic is
done in integer centiseconds so published lists reproduce exactly.
"""

from __future__ import annotations

import math
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
    list.  Non-finishers are carried through unranked at the end.  Raises
    ValueError when d is not a finite number of centiseconds or when a
    shifted time would not be positive or would reach 2**53 cs.
    """
    if not math.isfinite(d * 100):
        raise ValueError(f"d = {d:g} s is not a finite number of centiseconds")
    d_cs = round(d * 100)
    shifted = sorted((e.time_cs + (d_cs if e.lane is Lane.INNER_START else -d_cs), i, e.name)
                     for i, e in enumerate(entries) if e.finished)
    if shifted and shifted[0][0] <= 0:
        raise ValueError(f"d = {d:g} s leaves {shifted[0][2]} with a time of"
                         f" {shifted[0][0] / 100:.2f} s; shifted times must be positive")
    if shifted and shifted[-1][0] >= 2 ** 53:     # JSON floats hold every cs below it
        raise ValueError(f"d = {d:g} s gives {shifted[-1][2]} a time of"
                         f" {shifted[-1][0] / 100:g} s; shifted times must stay below 2**53 cs")
    ranks = competition_ranks([t for t, _, _ in shifted])
    out = [SpeculativeEntry(r, name, t) for r, (t, _, name) in zip(ranks, shifted)]
    out += [SpeculativeEntry(None, e.name, None) for e in entries if not e.finished]
    return SpeculativeList(tuple(out), d_cs)
