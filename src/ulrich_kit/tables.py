"""Exact cohomology tables, one row per degree over a twist window.

A table stores h^i(E(t)) as rows: for each degree i, its values at the
held twists in ascending order, 0 where nothing is stored.  All-zero rows
are dropped and the rest kept in ascending degree, so two tables are
equal exactly when their windows, held twists and nonzero entries are.
The rules of ``cohomology`` fill slices of the rows, which never change
afterwards; ``entries``, the (i, t) -> h mapping of the nonzero values,
is derived on its first read and kept.  A table holds every twist of its
window, or, given ``spans``, those of the sorted closed spans only, laid
out span after span (``placed``), so it never allocates the twists it
skips: the piece tables the Ulrich verdicts and the decompositions read.
The spans are laid out once per set of tables built on them
(``layout``), and those tables share their map of row positions.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain
from operator import add, sub

from .errors import IncompleteTable, OracleDefect

Rows = dict[int, list[int]]
Spans = tuple[tuple[int, int], ...]


def alternating_sum(column: dict[int, int]) -> int:
    """Sum of (-1)^i h^i over a column, with an integer sign for every
    degree, negative ones included."""
    return sum(-h if i % 2 else h for i, h in column.items())


def outside_window(t: int, window: tuple[int, int]) -> IncompleteTable:
    """The error of a read at twist t outside the window."""
    return IncompleteTable(f"twist {t} outside window {window}")


def zero_rows(size: int) -> Rows:
    """Rows of the given length to fill: a new degree reads as zeros."""
    return defaultdict(([0] * size).copy)


def placed(spans: Spans) -> tuple[tuple[int, int, int], ...]:
    """The closed spans (a, b) laid out one after the other, as (a, b,
    base): twist t of the span sits at row position t - base."""
    sizes = accumulate((b - a + 1 for a, b in spans), initial=0)
    return tuple((a, b, a - size) for (a, b), size in zip(spans, sizes))


def layout(spans: Spans) -> tuple[tuple[tuple[int, int, int], ...], dict[int, int]]:
    """The spans ``placed``, and the row position of each held twist:
    what every table held on the spans shares, since neither changes."""
    held = placed(spans)
    return held, {t: t - base for a, b, base in held for t in range(a, b + 1)}


class CohomologyTable:
    """Dimensions h^i(E(t)) at the held twists of a closed twist window.

    Built from ``entries``, a mapping (i, t) -> h of which the nonzero
    values inside the window are kept, or from ``rows`` as ``zero_rows``
    makes them, laid out over ``spans`` when given; ``at``, the row
    positions of a ``layout`` of the spans, is laid out here when not
    given.  Every build passes through ``__post_init__``.  A read at a
    twist the table does not hold is refused as one outside the window is.
    """

    def __init__(
        self, window, entries=None, *, rows: Rows | None = None, spans=None, at=None
    ) -> None:
        self.window, self.spans, self._at = window, spans, at
        self._entries, self._rows = entries, rows
        self.__post_init__()

    def __post_init__(self) -> None:
        lo, hi = self.window
        if lo > hi:
            raise IncompleteTable(f"empty window {self.window}")
        # the row position of each held twist; None when all are held
        if self.spans and self._at is None:
            self._at = layout(self.spans)[1]
        rows = self._rows
        if rows is None:
            rows, kept = zero_rows(hi - lo + 1), {}
            for (i, t), h in (self._entries or {}).items():
                if h and lo <= t <= hi:
                    rows[i][t - lo] = kept[(i, t)] = h
            self._entries = kept
        self._rows = {i: rows[i] for i in sorted(rows) if any(rows[i])}

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero values as (i, t) -> h, derived once."""
        if self._entries is None:
            ts = range(self.window[0], self.window[1] + 1) if self._at is None else self._at
            self._entries = {(i, t): h for i, r in self._rows.items() for t, h in zip(ts, r) if h}
        return self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        return (self.window, self._at, self._rows) == (other.window, other._at, other._rows)

    def __repr__(self) -> str:
        return f"CohomologyTable(window={self.window!r}, entries={self.entries!r})"

    def covers(self, t: int) -> bool:
        lo, hi = self.window
        return lo <= t <= hi if self._at is None else t in self._at

    def _position(self, t: int) -> int:
        lo, hi = self.window
        j = (t - lo if lo <= t <= hi else None) if self._at is None else self._at.get(t)
        if j is None:
            raise outside_window(t, self.window)
        return j

    def h(self, i: int, t: int) -> int:
        j = self._position(t)
        row = self._rows.get(i)
        return row[j] if row else 0

    def column(self, t: int) -> dict[int, int]:
        j = self._position(t)
        return {i: row[j] for i, row in self._rows.items() if row[j]}

    def euler(self, t: int) -> int:
        return alternating_sum(self.column(t))

    def euler_sums(self, lo: int, hi: int) -> list[int | None]:
        """``euler(t)`` at each twist t = lo..hi the table holds, None at
        any other; a table holding all of them is read in one pass over
        its rows."""
        first, last = self.window
        if self._at is not None or lo < first or last < hi:
            return [self.euler(t) if self.covers(t) else None for t in range(lo, hi + 1)]
        cut = slice(lo - first, hi - first + 1)
        sums = [0] * (hi - lo + 1)
        for i, row in self._rows.items():
            sums = list(map(sub if i % 2 else add, sums, row[cut]))
        return sums

    def first_nonzero(self, twists, degrees=None):
        """Witness (i, t, h) for the first nonzero entry over the given
        twists, or None when everything vanishes there; the lowest degree
        of a twist comes first, as the rows are kept in degree order.  A
        piece table walks its held twists only, which finds what the
        whole table finds on a walk over whole pieces.  A range with both
        ends in the window, over degrees with no row, is not walked: it
        has nothing to find and no twist to refuse."""
        lo, hi = self.window
        at = self._at
        rows = [(i, row) for i, row in self._rows.items() if degrees is None or i in degrees]
        if not rows and isinstance(twists, range) and twists:
            if lo <= twists[0] <= hi and lo <= twists[-1] <= hi:
                return None
        for t in twists if at is None else self._held(twists):
            # positions found inline, not through _position: a method call
            # per twist cost the wide-window workload about 5% of its ops/s
            j = (t - lo if lo <= t <= hi else None) if at is None else at.get(t)
            if j is None:
                raise outside_window(t, self.window)
            for i, row in rows:
                if row[j]:
                    return (i, t, row[j])
        return None

    def rows(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as (i, t, h), sorted by twist then degree."""
        return sorted(((i, t, h) for (i, t), h in self.entries.items()), key=lambda r: (r[1], r[0]))

    def same_entries(self, other: "CohomologyTable") -> bool:
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        return all(self.column(t) == other.column(t) for t in range(lo, hi + 1))

    def _held(self, twists):
        """The held twists of a walk, in its order, then its first twist
        outside the window, where the read raises; a unit-step range is
        cut against the spans, not walked."""
        lo, hi = self.window
        if not (isinstance(twists, range) and twists and twists.step in (1, -1)):
            return [t for t in twists if self.covers(t) or not lo <= t <= hi]
        first, last = twists[0], twists[-1]
        if not lo <= first <= hi:
            return [first]
        if twists.step == 1:
            held = (range(max(a, first), min(b, last) + 1) for a, b in self.spans)
            beyond = hi + 1
        else:
            held = (range(min(b, first), max(a, last) - 1, -1) for a, b in reversed(self.spans))
            beyond = lo - 1
        walk = chain.from_iterable(held)
        return walk if lo <= last <= hi else chain(walk, (beyond,))


def shifted_sum(window: tuple[int, int], parts) -> CohomologyTable:
    """The table over the window whose row i + q sums row i of each
    (q, table) of parts.  The tables hold the window on one layout, all
    whole or all on the same spans, so their rows add position by
    position, and the sum keeps that layout; parts held otherwise are
    refused."""
    parts = list(parts)
    spans = parts[0][1].spans if parts else None
    rows: Rows = {}
    for q, table in parts:
        if table.window != window or table.spans != spans:
            raise OracleDefect(f"a shifted sum over {window} needs its parts on one layout")
        for i, row in table._rows.items():
            held = rows.get(i + q)
            rows[i + q] = row if held is None else [x + y for x, y in zip(held, row)]
    return CohomologyTable(window, rows=rows, spans=spans, at=parts[0][1]._at if parts else None)
