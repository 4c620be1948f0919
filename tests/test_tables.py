"""Cohomology tables: the rows behind column reads agree with a
brute-force scan of the stored entries, and two tables are equal exactly
when their windows and their nonzero entries are."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import parse_sheaf, proj_space, sheaf_table
from ulrich_kit.cohomology import _piece_tables
from ulrich_kit.complexes import (
    CERT_EXACT,
    CERT_EXACT_BY_VANISHING,
    CERT_UPPER_BOUND_ONLY,
    HyperTableResult,
)
from ulrich_kit.errors import IncompleteTable, OracleDefect
from ulrich_kit.tables import CohomologyTable, shifted_sum


def scan_column(table, t):
    return {i: h for (i, tt), h in table.entries.items() if tt == t}


def scan_first_nonzero(table, twists, degrees=None):
    for t in twists:
        for i, h in sorted(scan_column(table, t).items()):
            if (degrees is None or i in degrees) and h != 0:
                return (i, t, h)
    return None


def scan_euler(table, t):
    return sum((-1) ** abs(i) * h for i, h in scan_column(table, t).items())


def scan_same_entries(a, b):
    lo = max(a.window[0], b.window[0])
    hi = min(a.window[1], b.window[1])
    return all(scan_column(a, t) == scan_column(b, t) for t in range(lo, hi + 1))


@st.composite
def tables(draw, window=None):
    if window is None:
        lo = draw(st.integers(-6, 3))
        window = (lo, lo + draw(st.integers(0, 8)))
    lo, hi = window
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(-3, 4), st.integers(lo - 2, hi + 2)),
            st.integers(-3, 5),
            max_size=20,
        )
    )
    return CohomologyTable(window=window, entries=entries)


@settings(max_examples=300, deadline=None)
@given(table=tables(), data=st.data())
def test_column_reads_match_a_scan_of_the_entries(table, data):
    assert all(h != 0 for h in table.entries.values())
    lo, hi = table.window
    for t in range(lo, hi + 1):
        assert table.column(t) == scan_column(table, t)
        euler = table.euler(t)
        assert type(euler) is int and euler == scan_euler(table, t)
    twists = data.draw(st.lists(st.integers(lo, hi), max_size=12))
    degrees = data.draw(st.none() | st.sets(st.integers(-3, 4)))
    assert table.first_nonzero(twists) == scan_first_nonzero(table, twists)
    assert table.first_nonzero(twists, degrees) == scan_first_nonzero(
        table, twists, degrees
    )
    copy = CohomologyTable(window=table.window, entries=dict(table.entries))
    other = data.draw(st.sampled_from((table, copy)) | tables(table.window) | tables())
    assert table.same_entries(other) == scan_same_entries(table, other)
    assert other.same_entries(table) == scan_same_entries(other, table)


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_reads_outside_the_window_are_refused(table):
    lo, hi = table.window
    for t in (lo - 1, hi + 1):
        with pytest.raises(IncompleteTable):
            table.column(t)
        with pytest.raises(IncompleteTable):
            table.euler(t)
        with pytest.raises(IncompleteTable):
            table.first_nonzero([t])


@settings(max_examples=200, deadline=None)
@given(table=tables(), data=st.data())
def test_euler_sums_are_the_euler_reads_of_the_held_twists(table, data):
    lo, hi = table.window
    ends = data.draw(st.sets(st.integers(lo, hi), min_size=1, max_size=6).map(sorted))
    ends += ends[-1:] if len(ends) % 2 else []
    spans = tuple(zip(ends[::2], ends[1::2]))  # sorted, disjoint
    held = [t for a, b in spans for t in range(a, b + 1)]
    rows = {i: [table.entries.get((i, t), 0) for t in held] for i in range(-3, 5)}
    piece = CohomologyTable(table.window, rows=rows, spans=spans)
    for read in (table, piece):
        a = data.draw(st.integers(lo - 2, hi + 2))
        b = data.draw(st.integers(a - 1, hi + 2))
        sums = read.euler_sums(a, b)
        assert sums == [read.euler(t) if read.covers(t) else None for t in range(a, b + 1)]
        assert all(type(chi) is int for chi in sums if chi is not None)


def test_column_is_a_copy():
    table = CohomologyTable(window=(0, 1), entries={(0, 0): 2, (1, 0): 3})
    table.column(0)[0] = 7
    assert table.column(0) == {0: 2, 1: 3}
    assert table.euler(0) == -1


def test_first_nonzero_reads_the_lowest_degree_of_descending_insertions():
    # a hyper sum adds the table of a sheaf in complex degree q at
    # degree i + q, so degrees at one twist can arrive in descending order
    table = CohomologyTable(window=(-1, 1), entries={(3, 0): 1, (2, 0): 4, (0, 0): 5, (2, 1): 6})
    assert table.first_nonzero([0]) == (0, 0, 5)
    assert table.first_nonzero([0], degrees={2, 3}) == (2, 0, 4)
    assert table.first_nonzero([-1, 1, 0]) == (2, 1, 6)
    assert list(table.column(0)) == [0, 2, 3]


@settings(max_examples=300, deadline=None)
@given(window=st.tuples(st.integers(-4, 2), st.integers(0, 6)), data=st.data())
def test_entries_keep_the_nonzero_values_inside_the_window(window, data):
    lo, hi = window[0], window[0] + window[1]
    given_entries = data.draw(
        st.dictionaries(
            st.tuples(st.integers(-3, 4), st.integers(lo - 2, hi + 2)),
            st.integers(-3, 5),
            max_size=20,
        )
    )
    table = CohomologyTable(window=(lo, hi), entries=dict(given_entries))
    assert table.entries == {
        (i, t): h for (i, t), h in given_entries.items() if h != 0 and lo <= t <= hi
    }
    assert table == CohomologyTable((lo, hi), table.entries)


@settings(max_examples=300, deadline=None)
@given(table=tables(), glued=st.booleans())
def test_overall_certificate_agrees_with_a_scan_of_the_window(table, glued):
    lo, hi = table.window
    result = HyperTableResult(table=table, glued=glued)
    nonzero = scan_first_nonzero(table, range(lo, hi + 1)) is not None
    if not glued:
        want = CERT_EXACT
    else:
        want = CERT_UPPER_BOUND_ONLY if nonzero else CERT_EXACT_BY_VANISHING
    assert result.overall == want


@settings(max_examples=300, deadline=None)
@given(table=tables(), data=st.data())
def test_tables_are_equal_exactly_when_their_entries_are(table, data):
    # a table rebuilt from its entries, or from any mapping that adds
    # zeros or twists outside the window, is the same table
    lo, hi = table.window
    padding = data.draw(
        st.dictionaries(st.tuples(st.integers(-3, 4), st.integers(lo - 3, hi + 3)), st.just(0))
    )
    outside = data.draw(
        st.dictionaries(
            st.tuples(st.integers(-3, 4), st.integers(hi + 1, hi + 3) | st.integers(lo - 3, lo - 1)),
            st.integers(-3, 5),
        )
    )
    rebuilt = CohomologyTable(table.window, {**padding, **outside, **table.entries})
    assert rebuilt == table and rebuilt.entries == table.entries
    other = data.draw(tables(table.window) | tables())
    same = other.window == table.window and other.entries == table.entries
    assert (other == table) == same == (table == other)
    assert (table == 3) is False
    assert table.rows() == sorted(
        ((i, t, h) for (i, t), h in table.entries.items()), key=lambda row: (row[1], row[0])
    )
    assert [(t, i) for i, t, _ in table.rows()] == sorted((t, i) for i, t in table.entries)
    # rows that cancel to zero everywhere are dropped, so the sum of a
    # table and its negative is the empty table
    q = data.draw(st.integers(-2, 2))
    shifted = shifted_sum(table.window, [(q, table)])
    assert shifted.entries == {(i + q, t): h for (i, t), h in table.entries.items()}
    negated = CohomologyTable(table.window, {key: -h for key, h in table.entries.items()})
    assert shifted_sum(table.window, [(q, table), (q, negated)]) == CohomologyTable(table.window)


def test_entries_are_derived_once_and_kept():
    table = shifted_sum((0, 2), [(0, CohomologyTable((0, 2), {(0, 1): 2, (1, 2): 3}))])
    assert table.entries is table.entries
    assert table.entries == {(0, 1): 2, (1, 2): 3}
    assert repr(table) == "CohomologyTable(window=(0, 2), entries={(0, 1): 2, (1, 2): 3})"


def pn4_tables():
    """O(0) + O(3) on pn:4 over (-100, 100), as a whole table and as the
    piece table the verdicts read; only h^0 and h^4 have rows."""
    model = proj_space(4)
    desc, window = parse_sheaf("O(0) + O(3)", model), (-100, 100)
    (piece,) = _piece_tables((desc,), model, window, (0, -4, -13))
    return {"whole": sheaf_table(desc, model, window), "piece": piece}


@pytest.mark.parametrize("layout", ["whole", "piece"])
def test_a_walk_over_degrees_with_no_row_finds_nothing_inside_the_window(layout, monkeypatch):
    table = pn4_tables()[layout]
    assert (table.spans is None) == (layout == "whole")
    walks = [range(-100, 101), range(100, -101, -1), range(-99, 101, 7), range(3, 3)]
    walks += [tuple(range(-100, 101)), (5, -3, 100), ()]
    for degrees in ({1, 2, 3}, set()):
        for walk in walks:
            assert table.first_nonzero(walk, degrees) is None, walk
    # a range with both ends in the window is not walked at all
    monkeypatch.setattr(CohomologyTable, "_held", None)
    assert table.first_nonzero(range(-100, 101), {1, 2, 3}) is None


@pytest.mark.parametrize("layout", ["whole", "piece"])
def test_a_walk_over_degrees_with_no_row_is_refused_where_it_leaves_the_window(layout):
    table = pn4_tables()[layout]
    for walk, twist in (
        (range(90, 106), 101),
        (range(-95, -106, -1), -101),
        (range(105, 90, -1), 105),
        (range(-105, 50), -105),
        (range(200, 300), 200),
        ((0, 101, 102), 101),
        ((-100, 100, -101), -101),
    ):
        for degrees in ({1, 2, 3}, set()):
            with pytest.raises(IncompleteTable, match=rf"^twist {twist} outside window \(-100, 100\)$"):
                table.first_nonzero(walk, degrees)


def test_a_shifted_sum_refuses_parts_on_another_layout():
    # rows add position by position, so every part must hold the sum's
    # window on the same spans: all whole, or one piece layout
    whole, piece = pn4_tables()["whole"], pn4_tables()["piece"]
    assert shifted_sum((-100, 100), [(0, piece), (1, piece)]).spans == piece.spans
    assert shifted_sum((-100, 100), [(0, whole), (1, whole)]).spans is None
    for window, parts in (
        ((-100, 100), [(0, whole), (1, piece)]),
        ((-100, 100), [(0, piece), (1, whole)]),
        ((-100, 99), [(0, whole)]),
    ):
        with pytest.raises(OracleDefect) as caught:
            shifted_sum(window, parts)
        assert str(caught.value) == f"a shifted sum over {window} needs its parts on one layout"
