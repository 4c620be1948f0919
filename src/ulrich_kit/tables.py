"""Exact cohomology tables indexed by (degree, twist)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import IncompleteTable


def alternating_sum(column: dict[int, int]) -> int:
    """Sum of (-1)^i h^i over a column, with an integer sign for every
    degree, negative ones included."""
    return sum(-h if i % 2 else h for i, h in column.items())


def outside_window(t: int, window: tuple[int, int]) -> IncompleteTable:
    """The error of a read at twist t outside the window."""
    return IncompleteTable(f"twist {t} outside window {window}")


@dataclass
class CohomologyTable:
    """Dimensions h^i(E(t)) for t inside a closed twist window.

    ``entries`` maps (i, t) to h and stores only nonzero values at twists
    inside the window; construction drops the others.  It is
    fixed at construction: the per-twist index that column reads go
    through is built from it once, so the mapping must not be mutated
    afterwards.  The index holds only the degrees stored at each twist,
    as a sorted tuple; the values stay in ``entries``.
    """

    window: tuple[int, int]
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    _degrees: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lo, hi = self.window
        if lo > hi:
            raise IncompleteTable(f"empty window {self.window}")
        entries: dict[tuple[int, int], int] = {}
        degrees: dict[int, tuple[int, ...]] = {}
        # few distinct degree tuples occur, so columns share them; the
        # tuple of a twist's first degree i is kept under the key i.  A
        # tuple stays sorted: a degree above its last is appended, any
        # other (a hyper sum adds shifted degrees in any order) re-sorts
        shared: dict[int | tuple[int, ...], tuple[int, ...]] = {}
        for key, h in self.entries.items():
            i, t = key
            if h != 0 and lo <= t <= hi:
                entries[key] = h
                d = degrees.get(t)
                if d is None:
                    d = shared.get(i) or shared.setdefault(i, (i,))
                else:
                    d = d + (i,) if i > d[-1] else tuple(sorted(d + (i,)))
                    d = shared.setdefault(d, d)
                degrees[t] = d
        self.entries = entries
        self._degrees = degrees

    def covers(self, t: int) -> bool:
        lo, hi = self.window
        return lo <= t <= hi

    def _degrees_at(self, t: int) -> tuple[int, ...]:
        if not self.covers(t):
            raise outside_window(t, self.window)
        return self._degrees.get(t, ())

    def h(self, i: int, t: int) -> int:
        if not self.covers(t):
            raise outside_window(t, self.window)
        return self.entries.get((i, t), 0)

    def column(self, t: int) -> dict[int, int]:
        return {i: self.entries[(i, t)] for i in self._degrees_at(t)}

    def euler(self, t: int) -> int:
        return alternating_sum(self.column(t))

    def first_nonzero(self, twists, degrees=None):
        """Witness (i, t, h) for the first nonzero entry over the given
        twists, or None when everything vanishes there; the lowest degree
        of a twist comes first, as the index keeps its degrees sorted."""
        lo, hi = self.window
        for t in twists:
            # checked inline, not through _degrees_at: a method call per
            # twist cost the wide-window workload about 5% of its ops/s
            if not lo <= t <= hi:
                raise outside_window(t, self.window)
            for i in self._degrees.get(t, ()):
                if degrees is None or i in degrees:
                    return (i, t, self.entries[(i, t)])
        return None

    def rows(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as (i, t, h), sorted by twist then degree."""
        return sorted(
            ((i, t, h) for (i, t), h in self.entries.items()),
            key=lambda row: (row[1], row[0]),
        )

    def same_entries(self, other: "CohomologyTable") -> bool:
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        return all(self.column(t) == other.column(t) for t in range(lo, hi + 1))


@dataclass
class PieceTable(CohomologyTable):
    """A table holding its window's entries at the twists of ``spans``
    only: sorted closed spans, the first and the last dim + 1 twists of
    each piece of ``cohomology._piece_table``.  A read at any other twist
    is refused as one outside the window is, and ``first_nonzero`` walks
    the held twists only, which finds what the whole table finds on a
    walk over whole pieces.  The Ulrich verdicts read it; no public
    result carries it."""

    spans: tuple[tuple[int, int], ...] = ()

    def covers(self, t: int) -> bool:
        return any(a <= t <= b for a, b in self.spans)

    def first_nonzero(self, twists, degrees=None):
        return super().first_nonzero(self._held(twists), degrees)

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
