"""One record for every worst-excess check, and its one renderer.

A check compares two sides of an inequality (or the two sides of an
equality, by their absolute deviation) over sampled points or along an
orbit, and keeps the worst excess of the left side over the right: a
``Row``.  A ``Section`` holds the rows of one check function and the
tolerance they are read against.  It passes when every row's worst excess
is at or below ``tol``; a NaN excess compares False, so it fails.

Every record a run's report reads (a ``Section``, a ``CertificationReport``,
a ``ScheduleValidation``) answers ``status`` and ``summary()``, its text.
The scans over a whole sequence, ``worst_row`` and ``settle_indices``, read
it in ``blocks``, so no temporary is as long as the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Rows per block of every scan over a whole sequence or orbit.
BLOCK_ROWS = 4096


def blocks(count: int):
    """The slices of consecutive ``BLOCK_ROWS`` rows that cover range(count)."""
    return (slice(s, min(s + BLOCK_ROWS, count)) for s in range(0, count, BLOCK_ROWS))


def settle_indices(values, levels) -> list:
    """For each level, the least n from which ``values`` stays at or below
    it: one past the last entry not at or below it (a NaN is not), or 0
    when there is none.  One forward pass compares each block with every
    level at once, so its temporaries are (levels x block) long."""
    values, column = np.asarray(values, dtype=float), np.asarray(levels, dtype=float)[:, None]
    settle = np.zeros(len(column), dtype=int)
    for rows in blocks(len(values)):
        above = ~(values[rows] <= column)
        hit = above.any(axis=1)
        # the first entry above in a reversed row is the last one above
        settle[hit] = rows.stop - np.argmax(above[:, ::-1], axis=1)[hit]
    return settle.tolist()


@dataclass(frozen=True)
class Row:
    """The worst excess of one check and where it happened: the step index
    n (an int, shown in the report), the worst sample, or None.  A sample
    with named fields, such as (n, x, y), is shown when the row fails."""

    name: str
    worst_excess: float
    at: Any = None

    def line(self, width: int) -> str:
        where = f" (at n={self.at})" if isinstance(self.at, int) else ""
        return f"{self.name:<{width}} worst excess {self.worst_excess: .3e}{where}"


def worst_row(name: str, blocks, at: Callable[[int], Any] = lambda i: i) -> Row:
    """The row of the largest entry of the non-empty arrays that ``blocks``
    yields, read one block at a time and never joined: the first NaN if
    there is one, else the first largest.  ``at(i)`` says where entry i of
    the whole sequence happened (by default, step i).  Raises ValueError,
    naming the check, when ``blocks`` yields nothing."""
    worst, where, start = None, None, 0
    for excess in blocks:
        i = int(np.argmax(excess))
        value = float(excess[i])
        # a later block wins only with a larger entry or the first NaN
        if worst is None or (worst == worst and not value <= worst):
            worst, where = value, start + i
        start += len(excess)
    if worst is None:
        raise ValueError(f"check {name!r} needs at least one sequence entry")
    return Row(name, worst, at(where))


@dataclass(frozen=True)
class Section:
    """The rows of one check, read against ``tol``."""

    title: str
    checks: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(row.worst_excess <= self.tol for row in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def summary(self) -> str:
        width = max(len(row.name) for row in self.checks) + 1
        lines = [self.title]
        for row in self.checks:
            if row.worst_excess <= self.tol:
                lines.append(f"  {row.line(width)}  ok")
            else:
                lines.append(f"  {row.line(width)}{_sample(row.at)}  VIOLATED")
        return "\n".join(lines)


def _sample(at) -> str:
    """The text of a sample with named fields, or '' for any other place."""
    names = getattr(at, "_fields", ())
    return f" (at {', '.join(f'{k}={v}' for k, v in zip(names, at))})" if names else ""
