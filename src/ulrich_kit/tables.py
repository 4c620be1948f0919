"""Exact cohomology tables indexed by (degree, twist)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IncompleteTable


def alternating_sum(column: dict[int, int]) -> int:
    """Sum of (-1)^i h^i over a column, with an integer sign for every
    degree, negative ones included."""
    return sum(-h if i % 2 else h for i, h in column.items())


@dataclass
class CohomologyTable:
    """Dimensions h^i(E(t)) for t inside a closed twist window.

    Only nonzero entries are stored.  ``complete`` records whether every
    nonzero entry with t in the window is present; oracle outputs are
    complete by construction, abstract passthrough data may not be.
    ``num_class`` optionally carries truncated Chern data so alternating
    sums can be cross-checked against Riemann-Roch.

    ``entries`` maps (i, t) to h and is fixed at construction: the
    per-twist index that column reads go through is built from it once,
    so the mapping must not be mutated afterwards.  Derive a new table
    (``added``, ``scaled``, ``degree_shifted``, ``restricted``) instead.
    The index holds only the degrees stored at each twist; the values
    stay in ``entries``.
    """

    window: tuple[int, int]
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    complete: bool = True
    num_class: object | None = None
    _degrees: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lo, hi = self.window
        if lo > hi:
            raise IncompleteTable(f"empty window {self.window}")
        self.entries = {key: h for key, h in self.entries.items() if h != 0}
        by_twist: dict[int, tuple[int, ...]] = {}
        for i, t in self.entries:
            by_twist[t] = by_twist.get(t, ()) + (i,)
        # few distinct degree tuples occur, so columns share them
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._degrees = {t: shared.setdefault(d, d) for t, d in by_twist.items()}

    def covers(self, t: int) -> bool:
        lo, hi = self.window
        return lo <= t <= hi

    def _degrees_at(self, t: int) -> tuple[int, ...]:
        if not self.covers(t):
            raise IncompleteTable(f"twist {t} outside window {self.window}")
        return self._degrees.get(t, ())

    def h(self, i: int, t: int) -> int:
        if not self.covers(t):
            raise IncompleteTable(f"twist {t} outside window {self.window}")
        return self.entries.get((i, t), 0)

    def column(self, t: int) -> dict[int, int]:
        return {i: self.entries[(i, t)] for i in self._degrees_at(t)}

    def euler(self, t: int) -> int:
        return alternating_sum(self.column(t))

    def degrees(self) -> list[int]:
        return sorted({i for (i, _t) in self.entries})

    def first_nonzero(self, twists, degrees=None):
        """Witness (i, t, h) for the first nonzero entry over the given
        twists, or None when everything vanishes there."""
        for t in twists:
            for i in sorted(self._degrees_at(t)):
                if degrees is None or i in degrees:
                    return (i, t, self.entries[(i, t)])
        return None

    def added(self, other: "CohomologyTable", mult: int = 1) -> "CohomologyTable":
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        merged: dict[tuple[int, int], int] = {}
        for table, m in ((self, 1), (other, mult)):
            for (i, t), h in table.entries.items():
                if lo <= t <= hi:
                    merged[(i, t)] = merged.get((i, t), 0) + m * h
        return CohomologyTable(
            window=(lo, hi),
            entries=merged,
            complete=self.complete and other.complete,
        )

    def scaled(self, mult: int) -> "CohomologyTable":
        return CohomologyTable(
            window=self.window,
            entries={key: mult * h for key, h in self.entries.items()},
            complete=self.complete,
            num_class=None,
        )

    def degree_shifted(self, k: int) -> "CohomologyTable":
        """Table of E[k]: entry (i, t) becomes the old entry (i + k, t)."""
        return CohomologyTable(
            window=self.window,
            entries={(i - k, t): h for (i, t), h in self.entries.items()},
            complete=self.complete,
            num_class=None,
        )

    def restricted(self, window: tuple[int, int]) -> "CohomologyTable":
        lo, hi = window
        inside = self.window[0] <= lo and hi <= self.window[1]
        slo, shi = max(lo, self.window[0]), min(hi, self.window[1])
        if slo > shi:
            raise IncompleteTable(
                f"window {window} does not meet stored window {self.window}"
            )
        return CohomologyTable(
            window=(slo, shi),
            entries={
                (i, t): h for (i, t), h in self.entries.items() if slo <= t <= shi
            },
            complete=self.complete and inside,
            num_class=self.num_class,
        )

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
