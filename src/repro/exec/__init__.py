"""Resilient execution primitives: supervision, deadlines, journaling.

This package is deliberately campaign-agnostic — it moves tasks through
worker processes and durable journals without knowing what a fault or a
report is.  ``repro.fault.campaign`` composes the three pieces:
:class:`SupervisedPool` for crash-tolerant parallel shards,
:func:`time_limit` for per-task wall-clock deadlines, and
:class:`CampaignJournal` for crash-safe checkpoint/resume.
"""

from repro.exec.deadline import DeadlineExceeded, can_enforce, time_limit
from repro.exec.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalError,
    fault_key,
)
from repro.exec.pool import (
    CHAOS_ENV,
    MetaMismatchError,
    PoolError,
    PoolOutcome,
    SupervisedPool,
    TaskCancelled,
    TaskPickleError,
)

__all__ = [
    "CHAOS_ENV",
    "JOURNAL_SCHEMA",
    "CampaignJournal",
    "DeadlineExceeded",
    "JournalError",
    "MetaMismatchError",
    "PoolError",
    "PoolOutcome",
    "SupervisedPool",
    "TaskCancelled",
    "TaskPickleError",
    "can_enforce",
    "fault_key",
    "time_limit",
]
