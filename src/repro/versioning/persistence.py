"""Persistence of the version store (and run history) to the workspace.

The demo keeps workflow versions across sessions so users can browse and roll
back later.  This module persists :class:`~repro.versioning.version_store.VersionStore`
records and the measured cost history inside a workspace directory, and
restores them when a :class:`~repro.core.session.HelixSession` reopens that
workspace.  Attached ``Workflow`` objects are *not* serialized (operators may
close over arbitrary UDFs); a restored version therefore supports browsing,
diffing, and metric queries, but not ``checkout``.

Both files are append-only JSON-lines logs, so one iteration writes what it
changed — one version record and the cost records it re-measured — instead
of rewriting the whole history:

* ``versions.jsonl`` — one line per version; ``cost_history.jsonl`` — one
  line per (re-)measured signature.  On load the last record for a version
  id or signature wins.
* Each save is a single ``write()`` of whole lines.  A crash mid-write
  leaves at most a torn final line (no newline, does not parse): readers
  drop it, and the next append truncates the file back to the last complete
  line first.  A malformed line *before* the end is real corruption and
  raises :class:`~repro.errors.VersioningError`.
* Opening a cost log that holds more than twice as many lines as distinct
  signatures rewrites it compacted (tmp file + ``os.replace``).
* Workspaces written before the logs (``versions.json`` /
  ``cost_history.json``) are converted once, the same crash-safe way.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, Iterable, List, Tuple

from repro.errors import VersioningError
from repro.execution.stats import RunHistory
from repro.optimizer.cost_model import CostRecord
from repro.versioning.version_store import VersionStore, WorkflowVersion

VERSIONS_FILENAME = "versions.jsonl"
HISTORY_FILENAME = "cost_history.jsonl"
#: Whole-file JSON formats of workspaces written before the append-only logs.
LEGACY_VERSIONS_FILENAME = "versions.json"
LEGACY_HISTORY_FILENAME = "cost_history.json"

#: A cost log with more lines than this many times its distinct signatures
#: is compacted when opened.
COMPACTION_RATIO = 2


# ---------------------------------------------------------------------------
# JSON-lines log primitives
# ---------------------------------------------------------------------------
def _encode_lines(records: Iterable[Dict]) -> bytes:
    return "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records).encode()


def _parses(text: bytes) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _read_log(path: str) -> List[Dict]:
    """Every record of the log at ``path`` (empty when missing).

    A final line without a newline that does not parse is a torn write and
    is dropped; any other line that does not parse raises.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise VersioningError(f"cannot read {path}: {exc}") from exc
    lines = data.split(b"\n")
    tail = lines.pop()  # b"" when the file ends with a newline
    if tail.strip() and _parses(tail):
        lines.append(tail)
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise VersioningError(f"corrupt record on line {number} of {path}: {exc}") from exc
    return records


def _complete_length(fd: int, end: int) -> Tuple[int, bool]:
    """Where the log's complete lines end, and whether a newline must be added.

    The file at ``fd`` is ``end`` bytes long.  When its last byte is not a
    newline, the unterminated tail is either a whole record whose newline
    never made it (keep it, terminate it) or a torn one (cut it off).
    """
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return end, False
    start = end
    while start > 0:
        block = max(0, start - 65536)
        newline = os.pread(fd, start - block, block).rfind(b"\n")
        if newline >= 0:
            start = block + newline + 1
            break
        start = block
    if _parses(os.pread(fd, end - start, start)):
        return end, True
    return start, False


def _append_records(path: str, records: List[Dict]) -> None:
    """Append ``records`` to the log at ``path`` in one ``write()``."""
    if not records:
        return
    payload = _encode_lines(records)
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            end = os.fstat(fd).st_size
            length, terminate = _complete_length(fd, end)
            if length < end:
                os.ftruncate(fd, length)
            if terminate:
                payload = b"\n" + payload
            written = os.write(fd, payload)
        finally:
            os.close(fd)
    except OSError as exc:
        raise VersioningError(f"cannot append to {path}: {exc}") from exc
    if written != len(payload):
        raise VersioningError(f"short write to {path}: {written} of {len(payload)} bytes")


def _rewrite_log(path: str, records: Iterable[Dict]) -> None:
    """Replace the log at ``path`` with ``records``, crash-safely."""
    temp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(_encode_lines(records))
        os.replace(temp_path, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise VersioningError(f"cannot rewrite {path}: {exc}") from exc


def _open_log(workspace: str, filename: str, legacy_filename: str, from_legacy) -> List[Dict]:
    """The log's records, converting a legacy whole-file JSON once if needed.

    ``from_legacy`` turns the legacy file's parsed payload into log records.
    A legacy file that does not parse raises; a failed conversion write
    (read-only workspace) still returns the records.
    """
    path = os.path.join(workspace, filename)
    legacy_path = os.path.join(workspace, legacy_filename)
    if os.path.exists(path) or not os.path.exists(legacy_path):
        return _read_log(path)
    try:
        with open(legacy_path, "r") as handle:
            records = from_legacy(json.load(handle))
    except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
        raise VersioningError(f"cannot read {legacy_path}: {exc}") from exc
    try:
        _rewrite_log(path, records)
        os.remove(legacy_path)
    except (OSError, VersioningError):
        pass
    return records


# ---------------------------------------------------------------------------
# Version store
# ---------------------------------------------------------------------------
def version_to_dict(version: WorkflowVersion) -> Dict:
    """JSON-ready representation of one version (without the workflow object)."""
    return {
        "version_id": version.version_id,
        "workflow_name": version.workflow_name,
        "description": version.description,
        "change_category": version.change_category,
        "created_at": version.created_at,
        "signatures": version.signatures,
        "edges": [list(edge) for edge in version.edges],
        "outputs": version.outputs,
        "operator_summaries": version.operator_summaries,
        "categories": version.categories,
        "metrics": version.metrics,
        "runtime": version.runtime,
        "parent_id": version.parent_id,
        "dsl_text": version.dsl_text,
    }


def version_from_dict(payload: Dict) -> WorkflowVersion:
    return WorkflowVersion(
        version_id=payload["version_id"],
        workflow_name=payload["workflow_name"],
        description=payload.get("description", ""),
        change_category=payload.get("change_category", ""),
        created_at=payload.get("created_at", 0.0),
        signatures=dict(payload.get("signatures", {})),
        edges=[tuple(edge) for edge in payload.get("edges", [])],
        outputs=list(payload.get("outputs", [])),
        operator_summaries=dict(payload.get("operator_summaries", {})),
        categories=dict(payload.get("categories", {})),
        metrics=dict(payload.get("metrics", {})),
        runtime=payload.get("runtime", 0.0),
        parent_id=payload.get("parent_id"),
        dsl_text=payload.get("dsl_text", ""),
        workflow=None,
    )


def save_version_store(store: VersionStore, workspace: str) -> str:
    """Append the versions not yet on disk to ``<workspace>/versions.jsonl``;
    returns the path."""
    path = os.path.join(workspace, VERSIONS_FILENAME)
    pending = store.unpersisted()
    _append_records(path, [version_to_dict(version) for version in pending])
    store.mark_persisted(len(pending))
    return path


def load_version_store(workspace: str) -> VersionStore:
    """Load a version store previously saved in ``workspace`` (empty if none)."""
    records = _open_log(workspace, VERSIONS_FILENAME, LEGACY_VERSIONS_FILENAME, list)
    try:
        by_id = {record["version_id"]: record for record in records}
        # Re-insert in version-id order so new ids continue the sequence.
        versions = [version_from_dict(by_id[version_id]) for version_id in sorted(by_id)]
    except (KeyError, TypeError, AttributeError) as exc:
        raise VersioningError(f"malformed version record in {workspace}: {exc!r}") from exc
    store = VersionStore()
    store._versions.extend(versions)
    store.mark_persisted(len(versions))
    return store


# ---------------------------------------------------------------------------
# Cost history
# ---------------------------------------------------------------------------
def _cost_to_dict(signature: str, record: CostRecord) -> Dict:
    return {
        "signature": signature,
        "compute_cost": record.compute_cost,
        "output_size": record.output_size,
        "operator_type": record.operator_type,
    }


def _legacy_costs(payload: Dict) -> List[Dict]:
    return [{"signature": signature, **entry} for signature, entry in payload.items()]


def save_cost_history(history: RunHistory, workspace: str) -> str:
    """Append the cost records re-measured since the last save to
    ``<workspace>/cost_history.jsonl``; returns the path."""
    path = os.path.join(workspace, HISTORY_FILENAME)
    changed = history.unpersisted()
    _append_records(path, [_cost_to_dict(sig, record) for sig, record in changed.items()])
    history.mark_persisted(changed)
    return path


def load_cost_history(workspace: str) -> Dict[str, CostRecord]:
    """Load the persisted cost database (empty dict if none exists).

    Compacts the log first when it has grown past :data:`COMPACTION_RATIO`
    lines per distinct signature.
    """
    records = _open_log(workspace, HISTORY_FILENAME, LEGACY_HISTORY_FILENAME, _legacy_costs)
    try:
        latest = {record["signature"]: record for record in records}
        costs = {
            signature: CostRecord(
                compute_cost=entry.get("compute_cost", 0.0),
                output_size=entry.get("output_size", 0.0),
                operator_type=entry.get("operator_type", ""),
            )
            for signature, entry in latest.items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise VersioningError(f"malformed cost record in {workspace}: {exc!r}") from exc
    if len(records) > COMPACTION_RATIO * len(latest):
        try:
            _rewrite_log(os.path.join(workspace, HISTORY_FILENAME), latest.values())
        except VersioningError:
            pass  # compaction only saves space; the log stays valid as is
    return costs
