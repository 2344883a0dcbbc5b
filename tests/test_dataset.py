from __future__ import annotations

import copy
import gc
import pickle
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lanefair.dataset import (EventDataset, Lane, ParseError, Run, RunStatus,
                              SkaterPair, load_event, parse_event, parse_olympic,
                              usable_pairs)

from conftest import (DATA, event_from_skaters, pair_rows, reference_parse_event,
                      serialize_event)


def test_round_trip_all_fixtures():
    for path in sorted(DATA.glob("swc*.csv")):
        text = path.read_text(encoding="utf-8")
        assert serialize_event(parse_event(text)) == text


def test_jansen_row_parses_exactly():
    ds = parse_event("#event,Calgary,1994\nD.Jansen,o,9.82,35.96,ok,i,9.75,35.76,ok\n")
    s = ds.skaters[0]
    assert s.name == "D.Jansen"
    assert s.day1.lane is Lane.OUTER_START and s.day2.lane is Lane.INNER_START
    assert (s.day1.t100_cs, s.day1.t500_cs) == (982, 3596)
    assert (s.day2.t100_cs, s.day2.t500_cs) == (975, 3576)
    assert s.day1.status is RunStatus.OK and s.day2.status is RunStatus.OK
    assert usable_pairs(ds)[0].w[0] == 0.5


def test_inner_start_day1_gives_negative_w():
    ds = parse_event("#event,Calgary,1994\nR.Strom,i,9.99,37.07,ok,o,10.03,36.87,ok\n")
    assert usable_pairs(ds)[0].w[0] == -0.5


@pytest.mark.parametrize("row,fragment", [
    ("X,x,9.82,35.96,ok,i,9.75,35.76,ok", "lane token"),
    ("X,o,9.821,35.96,ok,i,9.75,35.76,ok", "centisecond"),
    ("X,o,9.82,35.96,ok,i,9.75,35.76,great", "status"),
    ("X,o,9.82,35.96,ok,i,9.75,35.76", "fields"),
    ("X,o,,35.96,ok,i,9.75,35.76,ok", "both times"),
    ("X,o,9.82,35.96,fell,i,9.75,35.76,ok", "cannot carry"),
    ("X,o,35.96,9.82,ok,i,9.75,35.76,ok", "exceed"),
    ("X,o,9.7\u00b2,35.96,ok,i,9.75,35.76,ok", "centisecond"),
    ("X,o,\u0669.78,35.96,ok,i,9.75,35.76,ok", "centisecond"),
    ("X,o,9.82,\uff13\uff15.96,ok,i,9.75,35.76,ok", "centisecond"),
    ("X,o,9.82,90071992547409.92,ok,i,9.75,35.76,ok", "2**53"),
    pytest.param(f"X,o,9.82,{'1' * 307}.00,ok,i,9.75,35.76,ok", "2**53", id="307-digit-time"),
    pytest.param(f"X,o,9.82,35.96,ok,i,{'9' * 4301}.75,35.76,ok", "2**53",
                 id="4301-digit-time"),
])
def test_malformed_rows_report_line_two(row, fragment):
    with pytest.raises(ParseError) as err:
        parse_event(f"#event,V,1990\n{row}\n")
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


def test_times_below_2_to_the_53_centiseconds_parse():
    ds = parse_event(f"#event,V,1990\nX,o,{'0' * 5000}9.82,90071992547409.91,ok,i,9.75,35.76,ok\n")
    assert (ds.day1[1], ds.day1[2]) == ((982,), (2 ** 53 - 1,))


def test_repeated_bad_time_fails_at_its_first_line():
    good = "A,o,9.82,35.96,ok,i,9.75,35.76,ok"
    rows = [good.replace("A", name) for name in "ABCDEF"]
    rows[1] = rows[1].replace("35.96", "35.9x")
    rows[5] = rows[5].replace("9.75", "35.9x")
    with pytest.raises(ParseError) as err:
        parse_event("#event,V,1990\n" + "\n".join(rows) + "\n")
    assert str(err.value) == "line 3: time '35.9x' is not a centisecond multiple"
    assert err.value.line == 3


def test_a_seen_time_is_still_checked_against_its_status():
    text = ("#event,V,1990\n"
            "A,o,9.82,35.96,ok,i,9.75,35.76,ok\n"
            "B,o,9.90,35.96,dnf,i,9.75,35.76,ok\n")
    with pytest.raises(ParseError) as err:
        parse_event(text)
    assert str(err.value) == "line 3: status 'dnf' cannot carry a 500 m time"


# Rows that fill both memos (times and (lane, status) token pairs) before the
# malformed row, which is line 6 after the header, three rows and a blank line.
WARM_ROWS = ("A,o,9.82,35.96,ok,i,9.75,35.76,ok\n"
             "B,i,9.90,36.10,ok,o,9.82,35.96,ok\n"
             "\n"
             "C,o,9.75,,fell,i,,,dns\n")


@pytest.mark.parametrize("row,message", [
    ("X,x,9.82,35.96,ok,i,9.75,35.76,ok", "lane token 'x' outside {i, o}"),
    ("X,o,9.82,35.96,ok, x,9.75,35.76,ok", "lane token ' x' outside {i, o}"),
    ("X,o,9.82,35.96,ok,i,9.75,35.76,great", "unknown status 'great'"),
    ("X,x,9.82,35.96,great,i,9.75,35.76,ok", "lane token 'x' outside {i, o}"),
    ("X,o,,35.96,ok,i,9.75,35.76,ok", "status ok requires both times"),
    ("X,o,9.82,35.96,ok,i,9.75,,ok", "status ok requires both times"),
    ("X,o,35.96,9.82,ok,i,9.75,35.76,ok", "500 m time must exceed 100 m time"),
    ("X,o,9.82,9.82,ok,i,9.75,35.76,ok", "500 m time must exceed 100 m time"),
    ("X,o,9.82,35.96,fell,i,9.75,35.76,ok", "status 'fell' cannot carry a 500 m time"),
    ("X,o,9.82,35.96,ok,i,,35.76,dns", "status 'dns' cannot carry a 500 m time"),
    ("X,o,9.82,35.96,ok,i,9.75,35.76", "expected 9 or 10 comma-separated fields, got 8"),
    ("X,o,9.82,35.96,ok,i,9.75,35.76,ok,n,x",
     "expected 9 or 10 comma-separated fields, got 11"),
    (" ,o,9.82,35.96,ok,i,9.75,35.76,ok", "empty skater name"),
])
def test_malformed_row_after_warm_memos(row, message):
    with pytest.raises(ParseError) as err:
        parse_event(f"#event,V,1990\n{WARM_ROWS}{row}\nD,o,9.82,35.96,ok,i,9.75,35.76,ok\n")
    assert str(err.value) == f"line 6: {message}"
    assert err.value.line == 6


def test_padded_lane_and_duplicate_name_after_warm_memos():
    padded = parse_event(f"#event,V,1990\n{WARM_ROWS}X, o,9.82,35.96,ok,i ,9.75,35.76,ok\n")
    assert padded.skaters[-1].day1.lane is Lane.OUTER_START
    assert padded.skaters[-1].day2.lane is Lane.INNER_START
    with pytest.raises(ParseError) as err:
        parse_event(f"#event,V,1990\n{WARM_ROWS}B,o,9.82,35.96,ok,i,9.75,35.76,ok\n")
    assert str(err.value) == "duplicate skater names: ['B']"
    assert err.value.line is None


def test_run_fields_cannot_be_assigned():
    run = parse_event("#event,V,1990\nA,o,9.82,35.96,ok,i,9.75,35.76,ok\n").skaters[0].day1
    for name in ("lane", "t100_cs", "t500_cs", "status"):
        with pytest.raises(AttributeError):
            setattr(run, name, getattr(run, name))
    assert (run.t100_cs, run.t500_cs, run.status) == (982, 3596, RunStatus.OK)


def test_duplicate_names_rejected():
    text = ("#event,V,1990\n"
            "A,o,9.82,35.96,ok,i,9.75,35.76,ok\n"
            "A,i,9.82,35.96,ok,o,9.75,35.76,ok\n")
    with pytest.raises(ParseError) as parsed:
        parse_event(text)
    assert str(parsed.value) == "duplicate skater names: ['A']"


def test_duplicates_listed_once_each_in_a_large_field():
    rows = [f"S{i},o,9.82,35.96,ok,i,9.75,35.76,ok" for i in range(20_000)]
    for i, name in ((17, "S3"), (9_000, "S12"), (19_999, "S12"), (4, "S19998")):
        rows[i] = name + rows[i][rows[i].index(","):]
    with pytest.raises(ParseError) as err:
        parse_event("#event,V,1990\n" + "\n".join(rows) + "\n")
    assert str(err.value) == "duplicate skater names: ['S12', 'S19998', 'S3']"


def test_missing_header_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_event("A,o,9.82,35.96,ok,i,9.75,35.76,ok\n")


# Years int() reads but serialize_event would write differently.
@pytest.mark.parametrize("year", ["\uff11\uff19\uff19\uff10", "1_990", "+1990", " 1990",
                                  "01990", "1990 ", "-0", "None", ""])
def test_non_canonical_year_is_rejected_in_both_formats(year):
    with pytest.raises(ParseError, match="line 1: year"):
        parse_event(f"#event,V,{year}\nA,o,9.82,35.96,ok,i,9.75,35.76,ok\n")
    with pytest.raises(ParseError, match="line 1: year"):
        parse_olympic(f"#event,V,{year}\nA,i,36.33,ok\n")


def test_note_field_preserved(events):
    hamamichi = next(s for s in events[1994].skaters if s.name == "T.Hamamichi")
    assert hamamichi.note == "fall noted on first 100 m"
    # the noted fall does not void the pair
    assert "T.Hamamichi" in usable_pairs(events[1994])[0].names


def test_usable_counts_per_event(usable):
    counts = {y: len(pairs) for y, (pairs, _) in usable.items()}
    assert counts == {1984: 27, 1985: 31, 1986: 31, 1987: 33, 1988: 28,
                      1989: 30, 1990: 28, 1991: 34, 1992: 27, 1993: 30, 1994: 30}


def test_same_lane_row_kept_under_warn_day1(events):
    pairs, warns = usable_pairs(events[1993], "warn_day1")
    miyabe = pairs.names.index("Yuk.Miyabe")
    assert pairs.w[miyabe] == 0.5
    assert len(warns) == 1 and "Yuk.Miyabe" in warns[0]


def test_same_lane_row_dropped_under_strict(events):
    pairs, warns = usable_pairs(events[1993], "strict")
    assert all(name != "Yuk.Miyabe" for name in pairs.names)
    assert len(pairs) == 29
    assert len(warns) == 1


def test_unknown_lane_policy_rejected(events):
    with pytest.raises(ValueError):
        usable_pairs(events[1993], "lenient")


def test_lane_groups_partition_usable_pairs(usable):
    for pairs, _ in usable.values():
        plus = sum(1 for w in pairs.w if w == 0.5)
        minus = sum(1 for w in pairs.w if w == -0.5)
        assert plus + minus == len(pairs)


def test_filtering_idempotent(events):
    pairs, _ = usable_pairs(events[1994])
    names = set(pairs.names)
    kept = event_from_skaters("Calgary", 1994,
                              [s for s in events[1994].skaters if s.name in names])
    again, warns = usable_pairs(kept)
    assert list(zip(again.names, again.w)) == list(zip(pairs.names, pairs.w))
    assert not warns


def test_load_event_ignores_byte_order_mark(tmp_path):
    source = DATA / "swc1994.csv"
    bom = tmp_path / "swc1994.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert load_event(bom) == load_event(source)


def test_event_with_no_usable_pairs():
    text = ("#event,V,1990\n"
            "A,o,9.82,35.96,ok,i,9.75,,fell\n"
            "B,i,9.92,36.96,ok,o,9.85,,fell\n")
    pairs, _ = usable_pairs(parse_event(text))
    assert len(pairs) == 0 and pairs.names == ()


def test_statuses_without_times(events):
    yen = next(s for s in events[1986].skaters if s.name == "T.-S.Yen")
    assert yen.day1.status is RunStatus.WITHDRAWN
    assert yen.day1.t100_cs is None and yen.day1.t500_cs is None
    assert "T.-S.Yen" not in usable_pairs(events[1986])[0].names
    boucher = next(s for s in events[1988].skaters if s.name == "G.Boucher")
    assert boucher.day1.status is RunStatus.DISQUALIFIED


def _row_loop_usable_pairs(ds, lane_policy):
    """The row-by-row loop that usable_pairs' column passes replaced, as the reference."""
    rows, warnings = [], []
    for name, lane1, x1, y1, status1, lane2, x2, y2, status2 in zip(
            ds.names, *ds.day1, *ds.day2):
        if not (status1 is status2 is RunStatus.OK and None not in (x1, y1, x2, y2)):
            continue
        if lane1 is lane2:
            warnings.append(f"{name}: same starting lane on both days"
                            + (" (kept, w from day 1)" if lane_policy == "warn_day1"
                               else " (dropped)"))
            if lane_policy == "strict":
                continue
        rows.append((name, x1 / 100.0, y1 / 100.0, x2 / 100.0, y2 / 100.0,
                     0.5 if lane1 is Lane.OUTER_START else -0.5))
    return rows, warnings


@st.composite
def unchecked_runs(draw):
    """A run as a record may hold it without the parser's checks: an ok run may
    lack a time, and a time may come with any status."""
    status = draw(st.sampled_from([RunStatus.OK] * 5 + list(RunStatus)))
    times = st.none() | st.integers(0, 2 * 10**6)
    return Run(draw(st.sampled_from(Lane)), draw(times), draw(times), status)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(unchecked_runs(), unchecked_runs()), max_size=12),
       st.sampled_from(["warn_day1", "strict"]))
def test_usable_pairs_equal_the_row_loop(days, lane_policy):
    ds = event_from_skaters("V", 1990,
                            [SkaterPair(f"S{i}", *runs) for i, runs in enumerate(days)])
    pairs, warnings = usable_pairs(ds, lane_policy)
    assert (pair_rows(pairs), warnings) == _row_loop_usable_pairs(ds, lane_policy)


# Canonical field text: no comma or line break, nothing for strip() to remove.
FIELD = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                              exclude_characters=","), max_size=8).map(str.strip)
CENTISECONDS = st.integers(0, 10**6)
NON_ASCII_DIGITS = [c for c in map(chr, range(128, sys.maxunicode + 1)) if c.isdigit()]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def runs(draw):
    lane, status = draw(st.sampled_from(Lane)), draw(st.sampled_from(RunStatus))
    if status is RunStatus.OK:
        t100 = draw(CENTISECONDS)
        return Run(lane, t100, draw(st.integers(t100 + 1, 2 * 10**6)), status)
    return Run(lane, draw(st.none() | CENTISECONDS), None, status)


@st.composite
def canonical_events(draw):
    names = draw(st.lists(FIELD.filter(bool), min_size=1, max_size=6, unique=True))
    skaters = [SkaterPair(name, draw(runs()), draw(runs()), draw(FIELD)) for name in names]
    return event_from_skaters(draw(FIELD), draw(st.integers(-10**4, 10**4)), skaters)


@PROPERTY
@given(canonical_events())
def test_canonical_events_round_trip(ds):
    text = serialize_event(ds)
    assert parse_event(text) == ds
    assert serialize_event(parse_event(text)) == text


@PROPERTY
@given(canonical_events(), st.data())
def test_time_with_a_non_ascii_digit_is_rejected(ds, data):
    lines = serialize_event(ds).splitlines()
    times = [(row, col) for row in range(1, len(lines)) for col in (2, 3, 6, 7)
             if lines[row].split(",")[col]]
    assume(times)
    row, col = data.draw(st.sampled_from(times))
    fields = lines[row].split(",")
    token = fields[col]
    at = data.draw(st.sampled_from([i for i, c in enumerate(token) if c != "."]))
    fields[col] = token[:at] + data.draw(st.sampled_from(NON_ASCII_DIGITS)) + token[at + 1:]
    lines[row] = ",".join(fields)
    with pytest.raises(ParseError, match=f"line {row + 1}: time"):
        parse_event("\n".join(lines) + "\n")


# Field values a mutation writes: valid and invalid lanes, statuses and times,
# padded and non-canonical forms, and text that fails every check.
MUTANT_FIELDS = st.sampled_from([
    "", " ", "i", "o", " o", "i ", "x", "ok", "fell", "dq", "dnf", "dns", "wd", " ok",
    "great", "9.82", "35.96", "09.82", " 35.96", "9.821", "9.8", "9.7\u00b2", "\u0669.78",
    "35.9x", "-1.00", "90071992547409.91", "90071992547409.92", f"{'9' * 320}.00", "S1",
]) | FIELD


def _mutate(data, lines):
    """Apply one mutation to the lines of a file, in place."""
    kind = data.draw(st.sampled_from(["replace", "blank", "add", "drop", "duplicate"]))
    row = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(",")
    if kind == "blank":
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(["", "  "])))
    elif kind == "duplicate":
        lines.insert(data.draw(st.integers(1, len(lines))), lines[row])
    elif kind == "drop" and len(fields) > 1:
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif kind == "add":
        fields.insert(data.draw(st.integers(0, len(fields))), data.draw(MUTANT_FIELDS))
    else:
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(MUTANT_FIELDS)
    if kind in ("replace", "add", "drop"):
        lines[row] = ",".join(fields)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DATA.glob("swc*.csv"))) | canonical_events(), st.data())
def test_mutated_files_parse_as_the_row_by_row_reference(source, data):
    text = (serialize_event(source) if isinstance(source, EventDataset)
            else source.read_text(encoding="utf-8"))
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, lines)
    text = "\n".join(lines) + "\n"
    assert _parse_outcome(parse_event, text) == _parse_outcome(reference_parse_event, text)


def test_distinct_bad_times_fail_at_the_first_row():
    rows = [f"S{i},o,{i}.x,35.96,ok,i,9.75,35.76,ok" for i in range(20_000)]
    with pytest.raises(ParseError) as err:
        parse_event("#event,V,1990\n" + "\n".join(rows) + "\n")
    assert str(err.value) == "line 2: time '0.x' is not a centisecond multiple"
    assert err.value.line == 2


def _eager_reference_parse(text):
    """SkaterPair records built row by row from a canonical event file."""
    def cs(token):
        return None if not token else round(float(token) * 100)

    def run(lane, t100, t500, status):
        return Run(Lane(lane), cs(t100), cs(t500), RunStatus(status))

    skaters = []
    for raw in text.splitlines()[1:]:
        fields = raw.split(",")
        skaters.append(SkaterPair(fields[0], run(*fields[1:5]), run(*fields[5:9]),
                                  fields[9] if len(fields) == 10 else ""))
    return skaters


@pytest.mark.parametrize("source", [*(p.name for p in sorted(DATA.glob("swc*.csv"))),
                                    "large field"])
def test_skaters_built_on_read_match_an_eager_parse(source):
    from test_diagnostics import _large_field_text

    text = (_large_field_text() if source == "large field"
            else (DATA / source).read_text(encoding="utf-8"))
    ds = parse_event(text)
    assert ds.skaters == _eager_reference_parse(text)
    assert event_from_skaters(ds.venue, ds.year, ds.skaters) == ds
    assert copy.copy(ds) == pickle.loads(pickle.dumps(ds)) == ds


def test_header_only_event_has_empty_columns():
    ds = parse_event("#event,V,1990\n")
    assert ds == event_from_skaters("V", 1990, []) and ds.skaters == []
    pairs, warnings = usable_pairs(ds)
    assert serialize_event(ds) == "#event,V,1990\n" and (pairs.names, warnings) == ((), [])
    assert all(column.shape == (0,) for column in (pairs.x1, pairs.y1, pairs.x2, pairs.y2,
                                                   pairs.w))


def test_event_fields_are_the_columns():
    ds = parse_event("#event,V,1990\nA,o,9.82,35.96,ok,i,9.75,35.76,ok\n")
    assert ds._fields == ("venue", "year", "names", "day1", "day2", "notes")
    assert len(ds) == 6
    assert ds.day1 == ((Lane.OUTER_START,), (982,), (3596,), (RunStatus.OK,))
    with pytest.raises(ValueError):
        ds._replace(skaters=ds.skaters)
    ds.skaters.clear()
    assert len(ds.skaters) == 1


def test_parse_allocates_no_record_per_row():
    from test_diagnostics import _large_field_text

    text = _large_field_text()
    parse_event(text)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        ds = parse_event(text)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added < 100, f"{added} objects kept by one parse"
    assert len(ds.skaters) == 2500


def test_usable_pairs_allocates_no_record_per_pair():
    from test_diagnostics import _large_field_text

    ds = parse_event(_large_field_text())
    usable_pairs(ds)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        pairs, _ = usable_pairs(ds)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added < 100, f"{added} objects kept by one usable_pairs"
    assert len(pairs) > 2300
