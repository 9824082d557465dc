"""Time utilities shared across the simulation.

All simulation timestamps are Unix epoch seconds (UTC).  The experiments in
the paper run from November 15th to November 28th, 2019; we anchor the
simulated clock at midnight UTC on November 15th and bucket observations
into hours and days relative to that anchor.
"""

from __future__ import annotations

import datetime as _dt

#: Midnight UTC, November 15th 2019 — the first day of the paper's study.
STUDY_START = int(
    _dt.datetime(2019, 11, 15, tzinfo=_dt.timezone.utc).timestamp()
)

#: Midnight UTC, November 29th 2019 — end of the two-week study window
#: (November 15th through 28th, inclusive).
STUDY_END = int(
    _dt.datetime(2019, 11, 29, tzinfo=_dt.timezone.utc).timestamp()
)

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR

#: Number of whole days in the study window.
STUDY_DAYS = (STUDY_END - STUDY_START) // SECONDS_PER_DAY

#: Active ground-truth experiment window (November 15th-18th, 2019).
ACTIVE_START = STUDY_START
ACTIVE_END = STUDY_START + 4 * SECONDS_PER_DAY

#: Idle ground-truth experiment window (November 23th-25th, 2019).
IDLE_START = int(
    _dt.datetime(2019, 11, 23, tzinfo=_dt.timezone.utc).timestamp()
)
IDLE_END = IDLE_START + 3 * SECONDS_PER_DAY


def hour_index(timestamp: int, origin: int = STUDY_START) -> int:
    """Return the zero-based hour bucket of ``timestamp`` relative to
    ``origin``.  Timestamps before the origin yield negative indices.
    """
    return (timestamp - origin) // SECONDS_PER_HOUR


def day_index(timestamp: int, origin: int = STUDY_START) -> int:
    """Return the zero-based day bucket of ``timestamp`` relative to
    ``origin``.
    """
    return (timestamp - origin) // SECONDS_PER_DAY


def hour_of_day(timestamp: int) -> int:
    """Return the hour-of-day (0-23, UTC) of an epoch timestamp."""
    return (timestamp % SECONDS_PER_DAY) // SECONDS_PER_HOUR


def hour_start(index: int, origin: int = STUDY_START) -> int:
    """Return the epoch timestamp at which hour bucket ``index`` begins."""
    return origin + index * SECONDS_PER_HOUR

def day_start(index: int, origin: int = STUDY_START) -> int:
    """Return the epoch timestamp at which day bucket ``index`` begins."""
    return origin + index * SECONDS_PER_DAY
