"""Durable job state: one JSON file per job under the daemon's state dir.

The daemon must survive restarts with its queue, results and snapshots
intact — a paused job snapshotted before a restart resumes afterwards and
still produces byte-identical results.  The store is therefore
write-through: every state transition persists the full
:class:`~repro.daemon.jobs.JobRecord` before the transition is visible to
clients.  Writes are atomic (tmp file + ``os.replace``), the same
discipline as the result cache, so a crash mid-write leaves the previous
record rather than a torn one.

Layout::

    <state_dir>/jobs/<job_id>.json

:meth:`JobStore.recover` is the restart path: it loads every record,
re-marks jobs that were mid-flight when the process died (``running`` /
``pausing``) back to ``queued`` — their snapshot, if any, rides along so
completed work is not repriced — and returns the records in submission
order so the caller can rebuild the queue deterministically.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import List, Optional, Union

from repro.daemon.jobs import JobRecord, job_sort_key

logger = logging.getLogger(__name__)


class JobStore:
    """Directory-backed persistence for job records."""

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.root = Path(state_dir)
        self.jobs_dir = self.root / "jobs"
        self._lock = threading.Lock()
        #: Unreadable records the last :meth:`load_all` skipped.
        self.skipped = 0

    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    # ------------------------------------------------------------------
    def save(self, record: JobRecord) -> Path:
        """Persist ``record`` atomically (write-through on every change)."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(record.id)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with self._lock:
            tmp.write_text(json.dumps(record.to_dict(), indent=2, sort_keys=True))
            os.replace(tmp, path)
        return path

    def load(self, job_id: str) -> Optional[JobRecord]:
        path = self._path(job_id)
        try:
            return JobRecord.from_dict(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            return None

    def load_all(self) -> List[JobRecord]:
        """Every readable record, in submission order; unreadable files
        are skipped with a warning naming the file (a torn tmp file must
        not wedge startup)."""
        self.skipped = 0
        if not self.jobs_dir.is_dir():
            return []
        records = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                records.append(JobRecord.from_dict(json.loads(path.read_text())))
            except (OSError, json.JSONDecodeError, KeyError, ValueError) as error:
                self.skipped += 1
                logger.warning(
                    "skipping unreadable job record %s (%s)", path, type(error).__name__
                )
        records.sort(key=job_sort_key)
        return records

    def delete(self, job_id: str) -> bool:
        try:
            self._path(job_id).unlink()
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    def recover(self) -> List[JobRecord]:
        """Restart path: load everything, requeue interrupted jobs.

        Jobs that were ``running`` or ``pausing`` when the daemon died go
        back to ``queued`` (write-through, so the repair is durable too);
        ``paused`` jobs stay paused — resuming is the owner's call.
        """
        records = self.load_all()
        for record in records:
            if record.state in ("running", "pausing"):
                record.state = "queued"
                self.save(record)
        return records

    def max_seq(self) -> int:
        records = self.load_all()
        return max((record.seq for record in records), default=0)
