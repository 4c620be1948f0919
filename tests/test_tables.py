"""Cohomology tables: the per-twist index behind column reads agrees
with a brute-force scan of the stored entries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit.complexes import (
    CERT_EXACT,
    CERT_EXACT_BY_VANISHING,
    CERT_UPPER_BOUND_ONLY,
    HyperTableResult,
)
from ulrich_kit.errors import IncompleteTable
from ulrich_kit.tables import CohomologyTable


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
