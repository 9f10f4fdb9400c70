"""The workspace metadata plane: one WAL-mode SQLite catalog per store root.

Before this module existed, a workspace's metadata lived in three JSON files
— the artifact catalog (``catalog.json``), the shared cache's ownership
sidecar (``cache_meta.json``), and the trace "index" (no index at all:
``repro trace ls`` re-parsed every run's full JSONL body).  Batched
``os.replace`` rewrites made each file crash-safe for one process, but a
rewrite-the-world file is a race and a bottleneck the moment several service
processes share one store: every writer serializes the entire catalog per
flush, and readers re-parse it whole.

:class:`CatalogDB` replaces all three with one SQLite database
(``catalog.sqlite``) next to the artifacts, configured for exactly this
sharing pattern:

==================  =========  ====================================
pragma              value      why
==================  =========  ====================================
``journal_mode``    WAL        readers never block the writer
``busy_timeout``    30000 ms   writers queue instead of erroring
``synchronous``     NORMAL     commits survive process crashes
``foreign_keys``    ON         chunk rows die with their artifact
==================  =========  ====================================

Mutations are row-level and transactional, so concurrent processes
interleave at the row rather than the file, a SIGKILLed writer loses at most
its uncommitted transaction (WAL recovery discards the torn tail on the next
open), and ``repro store ls`` / ``repro trace ls`` become indexed SQL queries
that stay fast at millions of artifacts.

The module also owns the metadata *schema* shared by both catalog formats:
:class:`ArtifactMeta` (one catalog entry) and the chunk-key helpers
(:func:`chunk_signature` / :func:`parse_chunk_signature`), which the
execution store re-exports for backward compatibility.  JSON workspaces keep
working untouched — :class:`~repro.execution.store.ArtifactStore` dual-reads
both formats and ``repro store migrate`` converts in place.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StorageError
from repro.obs.events import events_for
from repro.obs.registry import get_registry

#: Filename of the SQLite catalog, next to the artifacts in the store root.
SQLITE_CATALOG_FILENAME = "catalog.sqlite"
#: Filename of the legacy JSON artifact catalog (pre-migration workspaces).
JSON_CATALOG_FILENAME = "catalog.json"
#: Filename of the legacy JSON cache-ownership sidecar.
JSON_SIDECAR_FILENAME = "cache_meta.json"

#: Default codec recorded for catalogs written before the storage layer.
DEFAULT_CODEC_ID = "pickle"

#: Bump when the schema changes shape; newer files refuse to open under
#: older code rather than silently misreading.
SCHEMA_VERSION = 1

#: Separator between a parent signature and its chunk suffix.  Signatures are
#: hex SHA-256 digests, so the marker can never occur in a plain signature.
_CHUNK_MARKER = "#p"


def chunk_signature(signature: str, index: int, count: int) -> str:
    """Catalog key of chunk ``index`` of ``count`` for ``signature``.

    Chunked artifacts store one catalog entry per partition chunk; the chunk
    family is recovered by parsing keys, so old catalogs (and the shared
    service cache) need no schema change.
    """
    return f"{signature}{_CHUNK_MARKER}{index}.{count}"


def parse_chunk_signature(key: str) -> Optional[Tuple[str, int, int]]:
    """``(parent_signature, index, count)`` when ``key`` names a chunk, else ``None``."""
    if _CHUNK_MARKER not in key:
        return None
    parent, _, suffix = key.rpartition(_CHUNK_MARKER)
    index_text, _, count_text = suffix.partition(".")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        return None
    if not parent or count < 1 or not 0 <= index < count:
        return None
    return parent, index, count


@dataclass
class ArtifactMeta:
    """Catalog entry for one materialized artifact.

    ``last_load_time`` is the measured *duration* of the most recent read
    served by the durable tier (the cost model's measured load cost — memory
    tier hits deliberately do not overwrite it, so the estimate stays honest
    for a future process whose memory tier starts empty); ``last_access_at``
    is the wall clock *instant* of the most recent read or write, which is
    what LRU eviction orders by.  Both are updated under the store lock.
    ``codec`` names the :mod:`repro.storage.codecs` codec that encoded the
    payload; catalogs written before the storage layer default to pickle.
    """

    signature: str
    node_name: str
    size: float
    write_time: float
    created_at: float
    filename: str
    last_load_time: Optional[float] = None
    last_access_at: Optional[float] = None
    codec: str = DEFAULT_CODEC_ID

    def accessed_at(self) -> float:
        """Timestamp for recency ordering (creation time until first access)."""
        return self.last_access_at if self.last_access_at is not None else self.created_at

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ArtifactMeta":
        return cls(**payload)


#: Column order shared by every artifact statement below.
_ARTIFACT_COLUMNS = (
    "signature", "node_name", "size", "write_time", "created_at",
    "filename", "last_load_time", "last_access_at", "codec",
)

_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        signature       TEXT PRIMARY KEY,
        node_name       TEXT NOT NULL,
        size            REAL NOT NULL,
        write_time      REAL NOT NULL,
        created_at      REAL NOT NULL,
        filename        TEXT NOT NULL,
        last_load_time  REAL,
        last_access_at  REAL,
        codec           TEXT NOT NULL DEFAULT 'pickle'
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_artifacts_size ON artifacts(size DESC, signature)",
    """
    CREATE TABLE IF NOT EXISTS chunks (
        signature        TEXT PRIMARY KEY
                         REFERENCES artifacts(signature) ON DELETE CASCADE,
        parent_signature TEXT NOT NULL,
        chunk_index      INTEGER NOT NULL,
        chunk_count      INTEGER NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_chunks_parent ON chunks(parent_signature)",
    """
    CREATE TABLE IF NOT EXISTS owners (
        signature TEXT PRIMARY KEY,
        tenant    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS compute_costs (
        signature TEXT PRIMARY KEY,
        seconds   REAL NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS trace_runs (
        trace_dir    TEXT NOT NULL,
        iteration    INTEGER NOT NULL,
        workflow     TEXT NOT NULL DEFAULT '',
        description  TEXT NOT NULL DEFAULT '',
        system       TEXT NOT NULL DEFAULT '',
        tenant       TEXT NOT NULL DEFAULT '',
        computed     INTEGER NOT NULL DEFAULT 0,
        loaded       INTEGER NOT NULL DEFAULT 0,
        pruned       INTEGER NOT NULL DEFAULT 0,
        wall_seconds REAL NOT NULL DEFAULT 0.0,
        created_at   REAL NOT NULL DEFAULT 0.0,
        PRIMARY KEY (trace_dir, iteration)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS catalog_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    # Per-chunk input fingerprints for incremental (delta-driven) runs: one
    # row per chunk, keyed by workflow-scoped input key.  ``chunk_index`` -1
    # is the prefix row (the streaming digest over chunks 0..n-2 that powers
    # the append fast path).  Only the latest run's fingerprint is kept per
    # key — delta detection is one indexed range query.
    """
    CREATE TABLE IF NOT EXISTS input_deltas (
        input_key     TEXT NOT NULL,
        chunk_index   INTEGER NOT NULL,
        chunk_count   INTEGER NOT NULL,
        axis_counts   TEXT NOT NULL,
        digest        TEXT NOT NULL,
        signature     TEXT NOT NULL DEFAULT '',
        run_iteration INTEGER NOT NULL DEFAULT 0,
        recorded_at   REAL NOT NULL DEFAULT 0.0,
        PRIMARY KEY (input_key, chunk_index)
    )
    """,
)

#: Columns of one ``trace_runs`` row, in schema order.
TRACE_RUN_COLUMNS = (
    "trace_dir", "iteration", "workflow", "description", "system", "tenant",
    "computed", "loaded", "pruned", "wall_seconds", "created_at",
)


def sqlite_catalog_path(root: str) -> str:
    """Where a store root keeps its SQLite catalog."""
    return os.path.join(root, SQLITE_CATALOG_FILENAME)


def json_catalog_path(root: str) -> str:
    """Where a legacy store root keeps its JSON catalog."""
    return os.path.join(root, JSON_CATALOG_FILENAME)


class CatalogDB:
    """One workspace's SQLite metadata catalog.

    Thread-safe: a single connection guarded by an internal lock serializes
    in-process statements (the artifact store's background materializer and
    the main thread share one handle); *cross-process* serialization is
    SQLite's job — WAL mode plus the 30 s busy timeout make concurrent
    writers queue instead of failing.  Every public method maps SQLite
    errors to :class:`~repro.errors.StorageError` so callers recover through
    the storage layer's one error type.
    """

    def __init__(self, path: str, busy_timeout_ms: int = 30_000, registry=None) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        metrics = registry if registry is not None else get_registry()
        self._registry = metrics
        self._query_count = metrics.counter(
            "repro_catalog_ops_total",
            help="Catalog statements executed, by kind.",
            op="query",
        )
        self._txn_count = metrics.counter("repro_catalog_ops_total", op="transaction")
        self._query_seconds = metrics.histogram(
            "repro_catalog_op_seconds",
            help="Latency of catalog statements, by kind.",
            op="query",
        )
        self._txn_seconds = metrics.histogram("repro_catalog_op_seconds", op="transaction")
        self._busy_count = metrics.counter(
            "repro_catalog_busy_total",
            help="Catalog statements that failed with the database locked/busy.",
        )
        self._error_count = metrics.counter(
            "repro_catalog_errors_total",
            help="Catalog statements that raised any SQLite error.",
        )
        try:
            # ``timeout`` is the Python-side retry budget for locked
            # databases; ``busy_timeout`` the C-side one.  Autocommit
            # (isolation_level=None) + explicit BEGIN IMMEDIATE keeps
            # transaction boundaries visible in the code.
            self._conn = sqlite3.connect(
                path,
                timeout=busy_timeout_ms / 1000.0,
                check_same_thread=False,
                isolation_level=None,
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            for statement in _SCHEMA_STATEMENTS:
                self._conn.execute(statement)
            self._check_schema_version()
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open catalog database at {path}: {exc}") from exc

    def _check_schema_version(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM catalog_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR IGNORE INTO catalog_meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            return
        found = int(row["value"])
        if found > SCHEMA_VERSION:
            raise StorageError(
                f"catalog at {self.path} has schema version {found}, newer than this "
                f"build understands ({SCHEMA_VERSION}); upgrade before opening it"
            )

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    # ------------------------------------------------------------------
    # Statement plumbing
    # ------------------------------------------------------------------
    def _note_error(self, exc: sqlite3.Error) -> None:
        self._error_count.inc()
        if isinstance(exc, sqlite3.OperationalError) and "lock" in str(exc).lower():
            self._busy_count.inc()
            events_for(self._registry).emit("catalog_busy", error=str(exc))

    def _execute(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        start = time.perf_counter()
        with self._lock:
            try:
                return self._conn.execute(sql, params)
            except sqlite3.Error as exc:
                self._note_error(exc)
                raise StorageError(f"catalog query failed at {self.path}: {exc}") from exc
            finally:
                self._query_count.inc()
                self._query_seconds.observe(time.perf_counter() - start)

    def _transaction(self, work: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run ``work`` inside one IMMEDIATE transaction (write lock up front,
        so a multi-statement mutation never deadlocks against another writer
        that started as a reader)."""
        start = time.perf_counter()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                try:
                    result = work(self._conn)
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
                self._conn.execute("COMMIT")
                return result
            except sqlite3.Error as exc:
                self._note_error(exc)
                raise StorageError(f"catalog transaction failed at {self.path}: {exc}") from exc
            finally:
                self._txn_count.inc()
                self._txn_seconds.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    @staticmethod
    def _meta_params(meta: ArtifactMeta) -> Tuple:
        return (
            meta.signature, meta.node_name, float(meta.size), float(meta.write_time),
            float(meta.created_at), meta.filename, meta.last_load_time,
            meta.last_access_at, meta.codec,
        )

    _UPSERT_ARTIFACT = (
        f"INSERT OR REPLACE INTO artifacts ({', '.join(_ARTIFACT_COLUMNS)}) "
        f"VALUES ({', '.join('?' * len(_ARTIFACT_COLUMNS))})"
    )
    _UPSERT_CHUNK = (
        "INSERT OR REPLACE INTO chunks (signature, parent_signature, chunk_index, chunk_count) "
        "VALUES (?, ?, ?, ?)"
    )

    def upsert_artifact(self, meta: ArtifactMeta) -> None:
        """Insert or refresh one catalog row (committed before returning —
        an acknowledged put survives a crash)."""
        self.upsert_artifacts([meta])

    def upsert_artifacts(self, metas: Iterable[ArtifactMeta]) -> None:
        metas = list(metas)
        if not metas:
            return

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(self._UPSERT_ARTIFACT, [self._meta_params(meta) for meta in metas])
            chunk_rows = []
            for meta in metas:
                parsed = parse_chunk_signature(meta.signature)
                if parsed is not None:
                    chunk_rows.append((meta.signature, parsed[0], parsed[1], parsed[2]))
            if chunk_rows:
                conn.executemany(self._UPSERT_CHUNK, chunk_rows)

        self._transaction(work)

    @staticmethod
    def _row_to_meta(row: sqlite3.Row) -> ArtifactMeta:
        return ArtifactMeta(**{name: row[name] for name in _ARTIFACT_COLUMNS})

    def get_artifact(self, signature: str) -> Optional[ArtifactMeta]:
        row = self._execute(
            "SELECT * FROM artifacts WHERE signature = ?", (signature,)
        ).fetchone()
        return self._row_to_meta(row) if row is not None else None

    def has_artifact(self, signature: str) -> bool:
        row = self._execute(
            "SELECT 1 FROM artifacts WHERE signature = ?", (signature,)
        ).fetchone()
        return row is not None

    def all_artifacts(self) -> List[ArtifactMeta]:
        rows = self._execute("SELECT * FROM artifacts ORDER BY signature").fetchall()
        return [self._row_to_meta(row) for row in rows]

    #: Signatures bound per ``IN (...)`` statement (under SQLite's
    #: historical 999-variable limit).
    _IN_BATCH = 500

    def _select_in(self, sql: str, keys: Iterable[str]) -> List[sqlite3.Row]:
        """Run ``sql`` (one ``IN ({})`` placeholder) over ``keys`` in batches."""
        keys = list(keys)
        rows: List[sqlite3.Row] = []
        for start in range(0, len(keys), self._IN_BATCH):
            batch = tuple(keys[start:start + self._IN_BATCH])
            rows.extend(self._execute(sql.format(", ".join("?" * len(batch))), batch).fetchall())
        return rows

    def artifacts_for(self, signatures: Iterable[str]) -> List[ArtifactMeta]:
        """The rows of exactly ``signatures`` that exist (primary-key lookups)."""
        rows = self._select_in("SELECT * FROM artifacts WHERE signature IN ({})", signatures)
        return [self._row_to_meta(row) for row in rows]

    def chunk_members(
        self, parent_signatures: Iterable[str]
    ) -> List[Tuple[str, int, int, ArtifactMeta]]:
        """``(parent, index, count, meta)`` for every stored chunk of the
        given parents: the chunk index joined to the artifact rows."""
        rows = self._select_in(
            "SELECT c.parent_signature, c.chunk_index, c.chunk_count, a.* "
            "FROM chunks AS c JOIN artifacts AS a ON a.signature = c.signature "
            "WHERE c.parent_signature IN ({})",
            parent_signatures,
        )
        return [
            (row["parent_signature"], int(row["chunk_index"]), int(row["chunk_count"]),
             self._row_to_meta(row))
            for row in rows
        ]

    def artifact_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) AS n FROM artifacts").fetchone()["n"])

    def artifact_total_bytes(self) -> float:
        row = self._execute("SELECT COALESCE(SUM(size), 0.0) AS total FROM artifacts").fetchone()
        return float(row["total"])

    def top_artifacts_by_size(self, limit: int) -> List[ArtifactMeta]:
        """The ``repro store ls`` query: largest first, deterministic ties."""
        rows = self._execute(
            "SELECT * FROM artifacts ORDER BY size DESC, signature LIMIT ?", (int(limit),)
        ).fetchall()
        return [self._row_to_meta(row) for row in rows]

    def delete_artifact(self, signature: str) -> bool:
        """Remove one row; ``False`` when another process already removed it."""
        cursor = self._execute("DELETE FROM artifacts WHERE signature = ?", (signature,))
        return cursor.rowcount > 0

    def delete_artifacts(self, signatures: Iterable[str]) -> int:
        signatures = list(signatures)
        if not signatures:
            return 0

        def work(conn: sqlite3.Connection) -> int:
            cursor = conn.executemany(
                "DELETE FROM artifacts WHERE signature = ?",
                [(signature,) for signature in signatures],
            )
            return cursor.rowcount

        return int(self._transaction(work))

    def apply_touches(
        self, touches: Dict[str, Tuple[float, Optional[float]]]
    ) -> None:
        """Batch-apply deferred access metadata: ``{signature: (last_access_at,
        last_load_time or None)}``.  Rows deleted meanwhile are skipped —
        access metadata must never resurrect an evicted artifact."""
        if not touches:
            return

        def work(conn: sqlite3.Connection) -> None:
            conn.executemany(
                "UPDATE artifacts SET last_access_at = ? WHERE signature = ?",
                [(access_at, sig) for sig, (access_at, _load) in touches.items()],
            )
            load_updates = [
                (load, sig) for sig, (_access, load) in touches.items() if load is not None
            ]
            if load_updates:
                conn.executemany(
                    "UPDATE artifacts SET last_load_time = ? WHERE signature = ?", load_updates
                )

        self._transaction(work)

    # ------------------------------------------------------------------
    # Chunk inventory
    # ------------------------------------------------------------------
    def chunk_families(self, parent_signature: str) -> Dict[int, List[int]]:
        """``count -> sorted present chunk indices`` for one parent, indexed."""
        rows = self._execute(
            "SELECT chunk_count, chunk_index FROM chunks WHERE parent_signature = ? "
            "ORDER BY chunk_count, chunk_index",
            (parent_signature,),
        ).fetchall()
        families: Dict[int, List[int]] = {}
        for row in rows:
            families.setdefault(int(row["chunk_count"]), []).append(int(row["chunk_index"]))
        return families

    # ------------------------------------------------------------------
    # Cache ownership sidecar (owners + recompute costs)
    # ------------------------------------------------------------------
    def set_owner(self, signature: str, tenant: str) -> None:
        self._execute(
            "INSERT OR REPLACE INTO owners (signature, tenant) VALUES (?, ?)",
            (signature, tenant),
        )

    def delete_owners(self, signatures: Iterable[str]) -> None:
        signatures = list(signatures)
        if not signatures:
            return
        self._transaction(
            lambda conn: conn.executemany(
                "DELETE FROM owners WHERE signature = ?", [(sig,) for sig in signatures]
            )
        )

    def owners(self, known_only: bool = True) -> Dict[str, str]:
        """Signature → owning tenant; ``known_only`` filters to signatures
        still present in the artifact catalog (mirrors the JSON sidecar's
        load-time filtering of stale attribution hints)."""
        if known_only:
            sql = (
                "SELECT o.signature AS signature, o.tenant AS tenant FROM owners o "
                "JOIN artifacts a ON a.signature = o.signature"
            )
        else:
            sql = "SELECT signature, tenant FROM owners"
        return {row["signature"]: row["tenant"] for row in self._execute(sql).fetchall()}

    def set_compute_costs(self, costs_by_signature: Dict[str, float]) -> None:
        if not costs_by_signature:
            return
        self._transaction(
            lambda conn: conn.executemany(
                "INSERT OR REPLACE INTO compute_costs (signature, seconds) VALUES (?, ?)",
                [(sig, float(seconds)) for sig, seconds in costs_by_signature.items()],
            )
        )

    def compute_costs(self) -> Dict[str, float]:
        rows = self._execute("SELECT signature, seconds FROM compute_costs").fetchall()
        return {row["signature"]: float(row["seconds"]) for row in rows}

    # ------------------------------------------------------------------
    # Trace-run index
    # ------------------------------------------------------------------
    def upsert_trace_run(self, row: Dict[str, Any]) -> None:
        """Index one persisted run trace's header summary (keyed by
        ``(trace_dir, iteration)``; the JSONL file stays the full record)."""
        params = tuple(row[name] for name in TRACE_RUN_COLUMNS)
        self._execute(
            f"INSERT OR REPLACE INTO trace_runs ({', '.join(TRACE_RUN_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(TRACE_RUN_COLUMNS))})",
            params,
        )

    def trace_runs_for(self, trace_dir: str) -> Dict[int, Dict[str, Any]]:
        """Iteration → indexed summary row for one trace directory."""
        rows = self._execute(
            "SELECT * FROM trace_runs WHERE trace_dir = ? ORDER BY iteration", (trace_dir,)
        ).fetchall()
        return {int(row["iteration"]): {name: row[name] for name in TRACE_RUN_COLUMNS} for row in rows}

    # ------------------------------------------------------------------
    # Input fingerprints (incremental delta detection)
    # ------------------------------------------------------------------
    def record_input_fingerprint(
        self,
        input_key: str,
        signature: str,
        run_iteration: int,
        recorded_at: float,
        chunks: List[Tuple[Tuple[int, ...], str]],
        prefix_digest: str = "",
    ) -> None:
        """Replace the stored fingerprint of one input with this run's.

        ``chunks`` is ``[(axis_counts, digest), ...]`` in chunk order; the
        prefix digest is stored as the ``chunk_index = -1`` row.  Replacement
        is transactional so a reader never sees a half-written fingerprint.
        """
        chunk_count = len(chunks)
        rows = [
            (
                input_key, index, chunk_count, json.dumps(list(axis_counts)),
                digest, signature, int(run_iteration), float(recorded_at),
            )
            for index, (axis_counts, digest) in enumerate(chunks)
        ]
        if prefix_digest:
            rows.append(
                (input_key, -1, chunk_count, "[]", prefix_digest, signature,
                 int(run_iteration), float(recorded_at))
            )

        def work(conn: sqlite3.Connection) -> None:
            conn.execute("DELETE FROM input_deltas WHERE input_key = ?", (input_key,))
            conn.executemany(
                "INSERT INTO input_deltas (input_key, chunk_index, chunk_count, "
                "axis_counts, digest, signature, run_iteration, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

        self._transaction(work)

    def input_fingerprint(self, input_key: str) -> Optional[Dict[str, Any]]:
        """The stored fingerprint of one input, or ``None``.

        Returns ``{"signature", "run_iteration", "prefix_digest",
        "chunks": [(axis_counts, digest), ...]}`` — the detector's
        :class:`~repro.incremental.detector.InputFingerprint` wire shape,
        kept as plain tuples so the storage layer stays import-light.
        """
        rows = self._execute(
            "SELECT * FROM input_deltas WHERE input_key = ? ORDER BY chunk_index",
            (input_key,),
        ).fetchall()
        if not rows:
            return None
        prefix_digest = ""
        chunks: List[Tuple[Tuple[int, ...], str]] = []
        signature = ""
        run_iteration = 0
        for row in rows:
            signature = row["signature"]
            run_iteration = int(row["run_iteration"])
            if int(row["chunk_index"]) < 0:
                prefix_digest = row["digest"]
            else:
                try:
                    axis_counts = tuple(int(c) for c in json.loads(row["axis_counts"]))
                except (ValueError, TypeError):
                    return None  # unreadable fingerprint: treat as absent
                chunks.append((axis_counts, row["digest"]))
        if not chunks:
            return None
        return {
            "signature": signature,
            "run_iteration": run_iteration,
            "prefix_digest": prefix_digest,
            "chunks": chunks,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _database_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def vacuum(self) -> Dict[str, int]:
        """Checkpoint the WAL into the main file and rebuild the database.

        ``wal_checkpoint(TRUNCATE)`` folds every committed WAL frame into
        ``catalog.sqlite`` and truncates the ``-wal`` file to zero bytes —
        without it the WAL grows unbounded across long service runs, because
        a checkpoint never truncates while any reader holds the file open.
        ``VACUUM`` then rewrites the main file densely, reclaiming pages
        freed by evictions.  Both statements must run outside an explicit
        transaction.  Returns byte counts for reporting.
        """
        before = self._database_bytes()
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        self._execute("VACUUM")
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        after = self._database_bytes()
        return {
            "bytes_before": before,
            "bytes_after": after,
            "bytes_reclaimed": max(0, before - after),
        }

    def ping(self) -> bool:
        """Liveness probe: does the connection still answer a trivial query?

        Raises :class:`~repro.errors.StorageError` (via ``_execute``) when the
        connection is closed or the database is unreachable — the /healthz
        endpoint turns that into a failing check.
        """
        row = self._execute("SELECT 1 AS one").fetchone()
        return row is not None and int(row["one"]) == 1

    def integrity_ok(self) -> bool:
        """SQLite's own structural check — the crash-injection harness's
        first assertion after reopening a killed writer's catalog."""
        row = self._execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"


# ----------------------------------------------------------------------
# Catalog states: the dual-read layer the artifact store drives
# ----------------------------------------------------------------------
class JsonCatalogState:
    """The legacy metadata plane: an in-memory dict flushed to ``catalog.json``.

    Exactly the pre-SQLite behavior, preserved so un-migrated workspaces keep
    working: puts batch up to ``flush_every`` entries per crash-safe
    ``os.replace`` rewrite, access-metadata touches mark the catalog dirty
    without forcing a rewrite, deletes and evictions flush immediately.  All
    methods are called under the artifact store's lock.
    """

    format = "json"
    #: JSON catalogs have no SQLite handle; callers probe this for the
    #: indexed fast paths.
    db: Optional[CatalogDB] = None

    def __init__(self, root: str, flush_every: int = 8) -> None:
        self.root = root
        self._entries: Dict[str, ArtifactMeta] = {}
        self._dirty = False
        self._mutations = 0
        self._flush_every = max(1, int(flush_every))

    def path(self) -> str:
        return json_catalog_path(self.root)

    def load(self, contains: Callable[[str], bool]) -> None:
        path = self.path()
        if not os.path.exists(path):
            return
        try:
            with open(path, "r") as handle:
                entries = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StorageError(f"cannot read artifact catalog at {path}: {exc}") from exc
        for entry in entries:
            meta = ArtifactMeta.from_dict(entry)
            if contains(meta.filename):
                self._entries[meta.signature] = meta

    def _save(self) -> None:
        """Persist the catalog crash-safely: write a temp file, then rename.

        ``os.replace`` is atomic on POSIX and Windows, so a reader (another
        session sharing this root, or a crashed writer's successor) always
        sees either the previous complete catalog or the new complete catalog
        — never a torn write.  The JSON is compact: on a catalog of thousands
        of artifacts, pretty-printing tripled the bytes rewritten per flush.
        """
        entries = [meta.to_dict() for meta in self._entries.values()]
        path = self.path()
        temp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(temp_path, "w") as handle:
                json.dump(entries, handle, separators=(",", ":"))
            os.replace(temp_path, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(temp_path)
            raise StorageError(f"cannot write artifact catalog at {path}: {exc}") from exc
        self._dirty = False
        self._mutations = 0

    # -- queries --------------------------------------------------------
    def get(self, signature: str) -> Optional[ArtifactMeta]:
        return self._entries.get(signature)

    def contains(self, signature: str) -> bool:
        return signature in self._entries

    def snapshot(self) -> Dict[str, ArtifactMeta]:
        return dict(self._entries)

    def count(self) -> int:
        return len(self._entries)

    def used_bytes(self) -> float:
        return sum(meta.size for meta in self._entries.values())

    # -- mutations ------------------------------------------------------
    def put(self, meta: ArtifactMeta) -> None:
        """Record one artifact; batched flush accounting (one rewrite per
        ``flush_every`` puts)."""
        self._entries[meta.signature] = meta
        self._dirty = True
        self._mutations += 1
        if self._mutations >= self._flush_every:
            self._save()

    def touch(
        self, signature: str, last_access_at: float, last_load_time: Optional[float]
    ) -> None:
        current = self._entries.get(signature)
        if current is None:
            return
        if last_load_time is not None:
            current.last_load_time = last_load_time
        current.last_access_at = last_access_at
        self._dirty = True

    def delete(self, signature: str) -> None:
        del self._entries[signature]
        self._save()

    def delete_many(self, signatures: Iterable[str]) -> None:
        for signature in signatures:
            self._entries.pop(signature, None)
        self._save()

    def flush(self) -> None:
        if self._dirty:
            self._save()

    def close(self) -> None:
        self.flush()


class SqliteCatalogState:
    """The WAL-mode metadata plane: the database is the source of truth.

    No in-memory mirror — every query reads through to SQLite, so concurrent
    processes sharing one store root see each other's committed rows
    immediately.  Puts and deletes commit before returning (an acknowledged
    artifact survives a SIGKILL); access-metadata touches batch in memory
    (overlaid on reads) and flush every ``flush_every`` updates — a crash
    between flushes loses only recency metadata, never an artifact.
    """

    format = "sqlite"

    def __init__(self, root: str, flush_every: int = 8, registry=None) -> None:
        self.root = root
        self.db = CatalogDB(sqlite_catalog_path(root), registry=registry)
        self._flush_every = max(1, int(flush_every))
        #: signature → (last_access_at, last_load_time or None), not yet in the DB.
        self._touches: Dict[str, Tuple[float, Optional[float]]] = {}

    def load(self, contains: Callable[[str], bool]) -> None:
        """Reconcile rows against the byte store: entries whose payload is
        gone (wiped directory, memory backend from a previous process, a
        crash between a backend delete and its catalog delete) are purged so
        the planner never plans a LOAD that cannot succeed."""
        stale = [
            meta.signature for meta in self.db.all_artifacts() if not contains(meta.filename)
        ]
        if stale:
            self.db.delete_artifacts(stale)

    def _overlay(self, meta: ArtifactMeta) -> ArtifactMeta:
        pending = self._touches.get(meta.signature)
        if pending is not None:
            access_at, load_time = pending
            meta.last_access_at = access_at
            if load_time is not None:
                meta.last_load_time = load_time
        return meta

    # -- queries --------------------------------------------------------
    def get(self, signature: str) -> Optional[ArtifactMeta]:
        meta = self.db.get_artifact(signature)
        return self._overlay(meta) if meta is not None else None

    def contains(self, signature: str) -> bool:
        return self.db.has_artifact(signature)

    def snapshot(self) -> Dict[str, ArtifactMeta]:
        return {meta.signature: self._overlay(meta) for meta in self.db.all_artifacts()}

    def count(self) -> int:
        return self.db.artifact_count()

    def artifacts_for(self, signatures: Iterable[str]) -> List[ArtifactMeta]:
        return [self._overlay(meta) for meta in self.db.artifacts_for(signatures)]

    def chunks_for(self, parents: Iterable[str]) -> List[Tuple[str, int, int, ArtifactMeta]]:
        return [
            (parent, index, count, self._overlay(meta))
            for parent, index, count, meta in self.db.chunk_members(parents)
        ]

    def used_bytes(self) -> float:
        return self.db.artifact_total_bytes()

    # -- mutations ------------------------------------------------------
    def put(self, meta: ArtifactMeta) -> None:
        self._touches.pop(meta.signature, None)
        self.db.upsert_artifact(meta)

    def touch(
        self, signature: str, last_access_at: float, last_load_time: Optional[float]
    ) -> None:
        if not self.db.has_artifact(signature):
            return
        previous_load = self._touches.get(signature, (0.0, None))[1]
        self._touches[signature] = (
            last_access_at,
            last_load_time if last_load_time is not None else previous_load,
        )
        if len(self._touches) >= self._flush_every:
            self.flush()

    def delete(self, signature: str) -> None:
        self._touches.pop(signature, None)
        self.db.delete_artifact(signature)

    def delete_many(self, signatures: Iterable[str]) -> None:
        signatures = list(signatures)
        for signature in signatures:
            self._touches.pop(signature, None)
        self.db.delete_artifacts(signatures)

    def flush(self) -> None:
        if self._touches:
            self.db.apply_touches(self._touches)
            self._touches = {}

    def close(self) -> None:
        self.flush()
        self.db.close()


def open_catalog_state(root: str, catalog: str = "auto", flush_every: int = 8, registry=None):
    """Pick and open the catalog format for a store root.

    ``"auto"`` (the default) is the dual-read rule: an existing
    ``catalog.sqlite`` wins, an existing ``catalog.json`` without one keeps
    the legacy format (un-migrated workspaces work untouched), and a fresh
    directory gets SQLite.  ``"sqlite"`` / ``"json"`` force a format —
    tests and the migration tool use these.
    """
    if catalog == "auto":
        if os.path.exists(sqlite_catalog_path(root)):
            catalog = "sqlite"
        elif os.path.exists(json_catalog_path(root)):
            catalog = "json"
        else:
            catalog = "sqlite"
    if catalog == "sqlite":
        return SqliteCatalogState(root, flush_every=flush_every, registry=registry)
    if catalog == "json":
        return JsonCatalogState(root, flush_every=flush_every)
    raise StorageError(
        f"unknown catalog format {catalog!r}; expected 'auto', 'sqlite', or 'json'"
    )
