from __future__ import annotations

from collections import Counter

import pytest

from lanefair import report
from lanefair.counterfactual import competition_ranks, speculate
from lanefair.dataset import Lane, OlympicEntry, ParseError, RunStatus, parse_olympic

from conftest import DATA, EXPECTED, round_trip

OLYMPIC_YEARS = (1988, 1992, 1994)

# Entries of the published speculative lists that break the stated rule
# (outer starters get d subtracted, inner starters get d added), as
# year -> name -> (rank, real time, speculative time), all as printed.
# Lillehammer 1994: Klepinin started outer at 38.09 and 38.09 - 0.05 is
# 38.04, but the list prints 38.02.  The rule holds for the other 39
# entries of 1994 and for every entry of 1988 and 1992.  The golden files
# keep the printed values.
SPECULATIVE_ERRATA = {
    1994: {"Vladimir Klepinin": (33, "38.09", "38.02")},
}


def load_oly(year):
    return parse_olympic((DATA / f"oly{year}.csv").read_text())


def cs_text(cs):
    return f"{cs // 100}.{cs % 100:02d}"


def expected_multiset(year):
    """Expected speculative list as a multiset of (rank, name, time).

    The stored file renders shared ranks the way the published lists do
    (first tied entry numbered, the rest blank); blank ranks inherit the
    previous entry's rank so that the comparison is order-free within a
    tie group.
    """
    rows = []
    last_rank = None
    for line in (EXPECTED / f"oly{year}_speculative.csv").read_text().splitlines():
        rank_s, name, time = line.split(",")
        if time == "---":
            rows.append((None, name, "---"))
            continue
        rank = int(rank_s) if rank_s else last_rank
        last_rank = rank
        rows.append((rank, name, time))
    return Counter(rows)


def corrected_multiset(year, d_cs):
    """Expected speculative list with the year's errata applied.

    Each printed erratum entry is replaced by the time the stated rule
    gives from the bundled real list.  The correction is made only while
    the bundled real time is the printed one the erratum was found
    against; if that time, the rank or the golden entry changes, the
    printed entry stays or the count goes negative, and the comparison
    fails.
    """
    rows = expected_multiset(year)
    real = {e.name: e for e in load_oly(year)[1]}
    for name, (rank, real_text, printed) in SPECULATIVE_ERRATA.get(year, {}).items():
        entry = real[name]
        if cs_text(entry.time_cs) != real_text:
            continue
        shift = -d_cs if entry.lane is Lane.OUTER_START else d_cs
        rows[(rank, name, printed)] -= 1
        rows[(rank, name, cs_text(entry.time_cs + shift))] += 1
    return rows


def computed_multiset(spec):
    return Counter((e.rank, e.name, e.time_text) for e in spec.entries)


def test_albertville_and_calgary_lists_reproduce():
    for year in (1992, 1988):
        label, entries = load_oly(year)
        spec = speculate(entries, 0.05)
        assert computed_multiset(spec) == expected_multiset(year), year


def test_lillehammer_reproduces_except_known_source_discrepancy():
    # the published 1994 pair prints 38.09 real vs 38.02 speculative, an
    # arithmetic mismatch (38.09 - 0.05 = 38.04); everything else agrees
    label, entries = load_oly(1994)
    got = computed_multiset(speculate(entries, 0.05))
    exp = expected_multiset(1994)
    assert got - exp == Counter({(33, "Vladimir Klepinin", "38.04"): 1})
    assert exp - got == Counter({(33, "Vladimir Klepinin", "38.02"): 1})


def test_golubyev_and_horii_adjustments():
    _, entries = load_oly(1994)
    spec = speculate(entries, 0.05)
    by_name = {e.name: e for e in spec.entries}
    assert by_name["Aleksandr Golubyev"].time_text == "36.38"
    assert by_name["Aleksandr Golubyev"].rank == 1
    assert by_name["Manabu Horii"].time_text == "36.48"
    assert by_name["Manabu Horii"].rank == 3


def test_zero_shift_is_identity():
    _, entries = load_oly(1994)
    spec = speculate(entries, 0.0)
    finishers = [e for e in entries if e.finished]
    assert [(e.name, e.time_cs) for e in spec.entries[:len(finishers)]] == \
        [(e.name, e.time_cs) for e in finishers]


def test_shared_ranks_skip_following_positions():
    _, entries = load_oly(1994)
    spec = speculate(entries, 0.05)
    ranked = {e.name: e.rank for e in spec.entries}
    assert ranked["Junichi Inoue"] == 8
    assert ranked["Igor Zhelezovsky"] == 8
    assert ranked["Dan Jansen"] == 10


def test_non_finishers_carried_through_unranked():
    _, entries = load_oly(1988)
    spec = speculate(entries, 0.05)
    tail = spec.entries[-3:]
    assert [(e.name, e.rank, e.time_text) for e in tail] == [
        ("Behudin Merdovic", None, "---"),
        ("Nikolai Gulyayev", None, "---"),
        ("Dan Jansen", None, "---"),
    ]


def test_round_trip_restores_times_exactly():
    for year in OLYMPIC_YEARS:
        _, entries = load_oly(year)
        restored = round_trip(entries, 0.05)
        assert [(e.name, e.time_cs) for e in restored] == \
            [(e.name, e.time_cs) for e in entries], year


def test_adjustment_preserves_time_multiset():
    _, entries = load_oly(1992)
    spec = speculate(entries, 0.05)
    back = Counter()
    lane_by_name = {e.name: e.lane for e in entries}
    for e in spec.entries:
        if e.time_cs is not None:
            shift = 5 if lane_by_name[e.name] is Lane.INNER_START else -5
            back[e.time_cs - shift] += 1
    assert back == Counter(e.time_cs for e in entries if e.finished)


def test_d_rounded_to_centiseconds():
    entries = [OlympicEntry("a", Lane.INNER_START, 3600, RunStatus.OK),
               OlympicEntry("b", Lane.OUTER_START, 3610, RunStatus.OK)]
    spec = speculate(entries, 0.054)
    assert spec.d_cs == 5
    assert [e.time_cs for e in spec.entries] == [3605, 3605]
    assert [e.rank for e in spec.entries] == [1, 1]


@pytest.mark.parametrize("d,fragment", [
    (1e307, "not a finite number of centiseconds"),
    (40.0, "Manabu Horii with a time of -3.47 s"),
    (-40.0, "Aleksandr Golubyev with a time of -3.67 s"),
    (-36.33, "Aleksandr Golubyev with a time of 0.00 s"),     # zero is not a time either
])
def test_shift_out_of_range_is_rejected(d, fragment):
    _, entries = load_oly(1994)
    with pytest.raises(ValueError, match=fragment):
        speculate(entries, d)


def test_shifted_time_of_two_to_the_53_cs_is_rejected():
    """JSON prints a time as a float, which holds every centisecond only below 2**53."""
    _, entries = parse_olympic("A,i,36.40,ok\nB,i,36.50,ok\n")
    with pytest.raises(ValueError, match=r"B a time of 1.7e\+306 s; .* below 2\*\*53 cs"):
        speculate(entries, 1.7e306)
    last = [OlympicEntry("A", Lane.OUTER_START, 2 ** 53 - 1, RunStatus.OK)]
    assert speculate(last, 0.0).entries[0].time_cs == 2 ** 53 - 1
    with pytest.raises(ValueError, match="below 2"):
        speculate([last[0]._replace(time_cs=2 ** 53)], 0.0)


def test_competition_ranks_share_the_first_rank_of_a_tie():
    assert competition_ranks([3600, 3600, 3610, 3610, 3610, 3620]) == [1, 1, 3, 3, 3, 6]
    assert competition_ranks([]) == []


def test_text_rendering_marks_each_rank_once_in_both_columns():
    label, entries = parse_olympic("A,i,36.40,ok\nB,o,36.40,ok\nC,o,36.50,ok\nD,i,,dnf\n")
    spec = speculate(entries, 0.05)
    assert [(e.rank, e.name) for e in spec.entries] == [(1, "B"), (2, "A"), (2, "C"),
                                                        (None, "D")]
    assert report.render("speculate", "text", label, entries, spec).splitlines() == [
        "olympic 500 m",
        "real list:    speculative list:",
        "  1. A i  36.40      1. B  36.35",
        "     B o  36.40      2. A  36.45",
        "  3. C o  36.50         C  36.45",
        "     D i    dnf         D    ---",
    ]


def test_csv_rendering():
    label, entries = load_oly(1994)
    text = report.render("speculate", "csv", label, entries, speculate(entries, 0.05))
    lines = text.splitlines()
    assert lines[0] == "rank,name,time"
    assert lines[1] == "1,Aleksandr Golubyev,36.38"
    assert lines[-1] == ",Roger Strom,---"


@pytest.mark.parametrize("row,fragment", [
    ("A,x,36.33,ok", "lane"),
    ("A,i,36.331,ok", "centisecond"),
    ("A,i,36.33,flew", "status"),
    ("A,i,,ok", "without a time"),
    ("A,i,36.33,dnf", "with a time"),
    ("#event,Calgary\nA,i,36.33,ok", "line 1: header"),
    ("#event,Calgary,1988,extra\nA,i,36.33,ok", "line 1: header"),
    ("A,i,36.33,ok\nB,o,36.33,ok\nC,i,36.20,ok",
     "line 3: time 36.20 is faster than the 36.33 listed before it"),
    ("A,i,36.33,ok\nB,o,,dnf\nC,i,36.40,ok", "line 3: finisher listed after a non-finisher"),
])
def test_parse_olympic_errors(row, fragment):
    with pytest.raises(ParseError) as err:
        parse_olympic(f"{row}\n")
    assert fragment in str(err.value)


def test_parse_olympic_accepts_ties_and_trailing_non_finishers():
    _, entries = parse_olympic("A,i,36.33,ok\nB,o,36.33,ok\nC,i,36.40,ok\n"
                               "D,o,,fell\nE,i,,dnf\n")
    assert [e.name for e in entries] == list("ABCDE")
