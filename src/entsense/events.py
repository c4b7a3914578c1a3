"""Event taxonomy and tallies.

Every pulse yields a 4-bit click pattern (see :mod:`entsense.model` for the
bit layout).  The sixteen patterns are classified into one no-click outcome
and fifteen detection-event types: four singles, six twofolds, four
threefolds, and one fourfold.  Nine of them are informative for phase
sensing (both nodes clicked); their total is the normalization ``C_sum``
used by all downstream estimation, so no event is post-selected away.

A :class:`Tally` is the sufficient statistic of a run at one phase setting:
counts per event type plus derived totals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, EmptyStatisticsError
from .model import (
    CHANNELS,
    COINCIDENCE_PATTERNS,
    INFORMATIVE_PATTERNS,
    N_PATTERNS,
)

__all__ = [
    "EventType",
    "INFORMATIVE_TYPES",
    "COINCIDENCE_TYPES",
    "Tally",
    "coincidence_fractions",
    "write_tally_csv",
]


class EventType(IntEnum):
    """The sixteen detection outcomes, valued by their 4-bit click mask.

    Member names are the exact serialization tokens (``A1``, ``A1B2``,
    ``A1A2B1B2``, ...), so ``EventType[token]`` parses a CSV cell and
    ``.name`` writes one.  ``int(event) == pattern mask`` by construction,
    so ``EventType(p)`` names the outcome of click mask ``p``.
    """

    NoClick = 0b0000
    A1 = 0b0001
    A2 = 0b0010
    A1A2 = 0b0011
    B1 = 0b0100
    A1B1 = 0b0101
    A2B1 = 0b0110
    A1A2B1 = 0b0111
    B2 = 0b1000
    A1B2 = 0b1001
    A2B2 = 0b1010
    A1A2B2 = 0b1011
    B1B2 = 0b1100
    A1B1B2 = 0b1101
    A2B1B2 = 0b1110
    A1A2B1B2 = 0b1111

    @property
    def multiplicity(self) -> int:
        """Number of channels that clicked."""
        return int(self).bit_count()

    @property
    def category(self) -> str:
        """Coarse class: NoClick, Single, Twofold, Threefold, or Fourfold."""
        return _CATEGORY_BY_MULTIPLICITY[self.multiplicity]


_CATEGORY_BY_MULTIPLICITY = ("NoClick", "Single", "Twofold", "Threefold", "Fourfold")

# The nine event types usable for sensing, ascending by mask.
INFORMATIVE_TYPES: tuple[EventType, ...] = tuple(
    EventType(p) for p in INFORMATIVE_PATTERNS
)

# The four cross-node twofolds, ordered to match model.COINCIDENCE_CHANNELS.
COINCIDENCE_TYPES: tuple[EventType, ...] = tuple(
    EventType(p) for p in COINCIDENCE_PATTERNS
)

_INFORMATIVE_MASKS = np.array(INFORMATIVE_PATTERNS, dtype=np.intp)
# _CHANNEL_MEMBERSHIP[c, p] is 1 when pattern p contains channel c's click.
_CHANNEL_MEMBERSHIP = np.array(
    [[(p >> b) & 1 for p in range(N_PATTERNS)] for b in range(4)], dtype=np.int64
)


def _as_count_array(counts) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.shape != (N_PATTERNS,):
        raise ConfigurationError(
            f"tally counts must have shape ({N_PATTERNS},), got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ConfigurationError("tally counts must be integers")
    arr = arr.astype(np.int64, copy=True)
    if np.any(arr < 0):
        raise ConfigurationError("tally counts must be nonnegative")
    return arr


@dataclass
class Tally:
    """Event-type counts for one phase setting.

    ``counts[p]`` is the number of pulses whose click mask was ``p``.  The
    sum over all sixteen entries is the number of pulses processed; nothing
    is discarded.
    """

    counts: np.ndarray = field(default_factory=lambda: np.zeros(N_PATTERNS, np.int64))
    setting_index: int = 0

    def __post_init__(self) -> None:
        self.counts = _as_count_array(self.counts)
        self.setting_index = int(self.setting_index)
        if self.setting_index < 0:
            raise ConfigurationError("setting_index must be nonnegative")

    @property
    def c_sum(self) -> int:
        """Total count of the nine informative event types."""
        return int(self.counts[_INFORMATIVE_MASKS].sum())

    def channel_clicks(self) -> dict[str, int]:
        """Singles-inclusive per-channel totals.

        Every pattern containing channel ``i`` contributes, so these mirror
        what a per-detector counter would report.
        """
        totals = _CHANNEL_MEMBERSHIP @ self.counts
        return {ch: int(totals[i]) for i, ch in enumerate(CHANNELS)}

    def coincidence_counts(self) -> tuple[int, ...]:
        """Counts of the four cross-node twofolds, (A1B1, A1B2, A2B1, A2B2)."""
        return tuple(int(self.counts[int(t)]) for t in COINCIDENCE_TYPES)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tally):
            return NotImplemented
        return self.setting_index == other.setting_index and bool(
            np.array_equal(self.counts, other.counts)
        )


def coincidence_fractions(tally: Tally) -> tuple[float, float, float, float]:
    """Fractions C(A_iB_j) / C_sum in (A1B1, A1B2, A2B1, A2B2) order.

    The denominator counts all nine informative types, so the four
    fractions sum to less than 1 whenever threefold or fourfold events
    occurred; that deficit is real signal about multi-pair emission, not an
    accounting error.
    """
    c_sum = tally.c_sum
    if c_sum == 0:
        raise EmptyStatisticsError(
            "no informative events in tally; coincidence fractions undefined"
        )
    return tuple(c / c_sum for c in tally.coincidence_counts())


_TALLY_HEADER = ("setting_index", "event_type", "count")


def write_tally_csv(tallies: Iterable[Tally], path) -> None:
    """Write tallies as CSV rows ``setting_index,event_type,count``.

    One row per event type per tally, event types in ascending mask order,
    spelled by their serialization token (``NoClick``, ``A1``, ...,
    ``A1A2B1B2``).
    """
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TALLY_HEADER)
        for tally in tallies:
            for p in range(N_PATTERNS):
                writer.writerow(
                    (tally.setting_index, EventType(p).name, int(tally.counts[p]))
                )

