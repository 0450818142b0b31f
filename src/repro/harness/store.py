"""Content-addressed on-disk result store.

PR 1's run cache memoizes simulations within one process; this module
persists the same records across runs.  Each record is keyed by the
*structural fingerprint* of the cell that produced it — the SHA-256 of
the canonical JSON of a descriptor dict covering the workload spec,
compiler mode, full machine configuration, engine, and the report
schema version — so two processes (or two machines) that simulate the
same configuration address the same object, and any change to any
field of the configuration addresses a different one.

Layout (``ResultStore(root)``)::

    root/
      STORE_FORMAT            # format marker, for forward compatibility
      objects/ab/abcdef....json     # one record per fingerprint
      quarantine/ab/abcdef....json  # one failure record per poisoned cell

Records are written atomically (temp file + ``fsync`` + ``os.replace``)
so concurrent writers — e.g. two sweep processes sharing a store —
cannot corrupt each other, and a process killed mid-``put`` (a worker
OOM, Ctrl-C, a machine crash) can never leave a truncated record: the
old bytes survive until the new bytes are durably on disk.

The ``quarantine/`` tree holds :class:`~repro.harness.failures.CellFailure`
records for cells that failed permanently: resume skips them instead of
re-running a known-poisonous cell endlessly, until the caller clears
them (``repro sweep --retry-quarantined``).  A successful run of a
quarantined cell clears its record automatically.

A record stores its own descriptor next to the report, which lets
:meth:`ResultStore.get` *verify* the match instead of trusting the
file name: a schema bump, a hash collision, or a hand-edited file is
detected, counted as an invalidation, and dropped from disk so it is
recomputed rather than silently served stale.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.uarch.config import canonical_json, fingerprint  # noqa: F401

# Bump whenever SimulationReport (or anything feeding it) changes shape
# or semantics: old records become invalidations, not wrong answers.
#
# v2: cell descriptors carry the defense name and the defense's
# structural fingerprint (the protection-scheme registry).  Pre-refactor
# records address different fingerprints entirely, so they age out as
# clean misses; a v1 record that somehow lands on a v2 fingerprint is
# invalidated by the schema check below.
#
# v3: the machine configuration grew the ``speculation`` sub-config
# (the transient-execution window), so every descriptor with a config
# changed shape — and cells whose reports can now *depend* on the
# window (observation traces carry a transient digest, verify cells a
# speculative site class) must not be served from pre-speculation
# records even where the descriptor happened to stay stable
# (``config: None`` cells).  The version bump rekeys everything.
SCHEMA_VERSION = 3

STORE_FORMAT = "repro-result-store-v1"


@dataclass
class StoreStats:
    """Counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    quarantines: int = 0      # failure records written
    quarantine_hits: int = 0  # cells skipped because a record existed


@dataclass
class ResultStore:
    """A directory of simulation reports keyed by config fingerprint."""

    root: str
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        # Validate before mutating: a directory claiming another format
        # is rejected untouched.
        self.root = os.path.abspath(self.root)
        marker = os.path.join(self.root, "STORE_FORMAT")
        if os.path.exists(marker):
            with open(marker, "r", encoding="utf-8") as handle:
                found = handle.read().strip()
            if found != STORE_FORMAT:
                raise ValueError(
                    f"{self.root} is a {found or 'unrecognized'} store, "
                    f"not {STORE_FORMAT}; point --store elsewhere or "
                    "delete the directory")
            os.makedirs(self._objects_dir, exist_ok=True)
        else:
            os.makedirs(self._objects_dir, exist_ok=True)
            self._atomic_write(marker, STORE_FORMAT + "\n")

    # -- paths ------------------------------------------------------------

    @property
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    @property
    def _quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    def path_for(self, fp: str) -> str:
        """On-disk location of the record for fingerprint *fp*."""
        return os.path.join(self._objects_dir, fp[:2], fp + ".json")

    def failure_path_for(self, fp: str) -> str:
        """On-disk location of the quarantine record for *fp*."""
        return os.path.join(self._quarantine_dir, fp[:2], fp + ".json")

    # -- record access ----------------------------------------------------

    def contains(self, fp: str) -> bool:
        """Whether a record file exists (no validation, no stat change)."""
        return os.path.exists(self.path_for(fp))

    def get(self, fp: str, descriptor: dict) -> dict | None:
        """Load the report for *fp*, or ``None`` on miss/invalidation.

        The stored descriptor must equal *descriptor* and the stored
        schema must match :data:`SCHEMA_VERSION`.  Any unreadable record
        — truncated JSON, binary garbage, a non-object top level, an
        undecodable file — and any mismatch is treated as a *miss* and
        an *invalidation*: the file is removed so the caller recomputes
        and re-stores it.  ``get`` never raises on record content; a
        corrupt store degrades to recomputation, not a crashed sweep.
        """
        path = self.path_for(fp)
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            # ValueError covers json.JSONDecodeError and
            # UnicodeDecodeError (truncated or binary records).
            self._invalidate(path)
            return None
        if (not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("key") != descriptor
                or "report" not in record):
            self._invalidate(path)
            return None
        self.stats.hits += 1
        return record["report"]

    def put(self, fp: str, descriptor: dict, report: dict) -> None:
        """Persist *report* under *fp* (atomic, last-writer-wins)."""
        record = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fp,
            "key": descriptor,
            "report": report,
        }
        path = self.path_for(fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, canonical_json(record) + "\n")
        self.stats.stores += 1

    # -- quarantine records -----------------------------------------------

    def contains_failure(self, fp: str) -> bool:
        """Whether a quarantine record exists (no validation)."""
        return os.path.exists(self.failure_path_for(fp))

    def get_failure(self, fp: str, descriptor: dict) -> dict | None:
        """Load the quarantine record for *fp*, or ``None``.

        Validated like :meth:`get`: a corrupt record, a schema bump, or
        a descriptor mismatch removes the file and reports no record —
        a stale poison marker degrades to re-running the cell, never to
        skipping a cell it doesn't actually describe.
        """
        path = self.failure_path_for(fp)
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._remove(path)
            return None
        if (not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("key") != descriptor
                or not isinstance(record.get("failure"), dict)):
            self._remove(path)
            return None
        self.stats.quarantine_hits += 1
        return record["failure"]

    def put_failure(self, fp: str, descriptor: dict,
                    failure: dict) -> None:
        """Quarantine *fp*: persist its failure record (atomic)."""
        record = {
            "schema": SCHEMA_VERSION,
            "fingerprint": fp,
            "key": descriptor,
            "failure": failure,
        }
        path = self.failure_path_for(fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, canonical_json(record) + "\n")
        self.stats.quarantines += 1

    def clear_failure(self, fp: str) -> bool:
        """Remove *fp*'s quarantine record; True if one existed."""
        try:
            os.remove(self.failure_path_for(fp))
            return True
        except OSError:
            return False

    def failure_count(self) -> int:
        """Number of quarantine records on disk."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self._quarantine_dir):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    def _remove(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _invalidate(self, path: str) -> None:
        # An invalidated record is also a miss: the caller recomputes,
        # so hit/miss totals keep accounting for every lookup.
        self.stats.misses += 1
        self.stats.invalidations += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # -- maintenance ------------------------------------------------------

    def __len__(self) -> int:
        """Number of records on disk (walks the objects directory)."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self._objects_dir):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    def _atomic_write(self, path: str, text: str) -> None:
        # Write-to-temp + fsync + replace: a reader never sees partial
        # bytes (replace is atomic), and a crash at any point leaves
        # either the old record or the new one — fsync before replace
        # keeps the rename from being durably ordered ahead of the data.
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=os.path.dirname(path),
            prefix=".tmp-", delete=False)
        try:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.remove(handle.name)
            except OSError:
                pass
            raise
