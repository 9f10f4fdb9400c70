"""Version store: one record per executed workflow iteration."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.codegen import CompiledWorkflow
from repro.dsl.workflow import Workflow
from repro.errors import VersioningError
from repro.execution.stats import IterationReport


@dataclass
class WorkflowVersion:
    """A snapshot of a workflow iteration: structure, provenance, and outcomes."""

    version_id: int
    workflow_name: str
    description: str
    change_category: str
    created_at: float
    signatures: Dict[str, str]
    edges: List[Tuple[str, str]]
    outputs: List[str]
    operator_summaries: Dict[str, str]
    categories: Dict[str, str]
    metrics: Dict[str, float] = field(default_factory=dict)
    runtime: float = 0.0
    parent_id: Optional[int] = None
    dsl_text: str = ""
    workflow: Optional[Workflow] = None  # kept in memory for instant checkout

    def label(self) -> str:
        return f"v{self.version_id}"


class VersionStore:
    """In-memory (session-scoped) store of workflow versions.

    Mirrors the paper's version browser: versions form a chain (or tree, when
    the user rolls back and branches), each carrying its metrics and runtime
    so the Metrics tab can plot trends and jump to the best version.
    """

    def __init__(self) -> None:
        self._versions: List[WorkflowVersion] = []
        #: How many leading versions are already in the workspace's log.
        self._persisted = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        compiled: CompiledWorkflow,
        report: Optional[IterationReport] = None,
        description: str = "",
        change_category: str = "",
        workflow: Optional[Workflow] = None,
        parent_id: Optional[int] = None,
    ) -> WorkflowVersion:
        """Create and store a new version from a compiled workflow and its report."""
        version = WorkflowVersion(
            version_id=len(self._versions) + 1,
            workflow_name=compiled.workflow_name,
            description=description,
            change_category=change_category,
            created_at=time.time(),
            signatures=dict(compiled.signatures),
            edges=list(compiled.dag.edges()),
            outputs=list(compiled.outputs),
            operator_summaries={name: compiled.operator(name).describe() for name in compiled.nodes()},
            categories={name: category.value for name, category in compiled.categories.items()},
            metrics=dict(report.metrics) if report else {},
            runtime=report.total_runtime if report else 0.0,
            parent_id=parent_id if parent_id is not None else (self._versions[-1].version_id if self._versions else None),
            dsl_text=workflow.describe() if workflow is not None else "",
            workflow=workflow,
        )
        self._versions.append(version)
        return version

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def get(self, version_id: int) -> WorkflowVersion:
        for version in self._versions:
            if version.version_id == version_id:
                return version
        raise VersioningError(f"unknown version id {version_id}")

    def latest(self) -> WorkflowVersion:
        if not self._versions:
            raise VersioningError("no versions recorded yet")
        return self._versions[-1]

    def all(self) -> List[WorkflowVersion]:
        return list(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def unpersisted(self) -> List[WorkflowVersion]:
        """Versions recorded since the last :meth:`mark_persisted`."""
        return self._versions[self._persisted:]

    def mark_persisted(self, count: int) -> None:
        """Note that the next ``count`` unpersisted versions are on disk."""
        self._persisted += count

    def best_version(self, metric: str, higher_is_better: bool = True) -> WorkflowVersion:
        """The version with the best value of ``metric`` (the UI's shortcut button)."""
        candidates = [version for version in self._versions if metric in version.metrics]
        if not candidates:
            raise VersioningError(f"no version has metric {metric!r}")
        key = lambda version: version.metrics[metric]
        return max(candidates, key=key) if higher_is_better else min(candidates, key=key)

    def checkout(self, version_id: int) -> Workflow:
        """Return the workflow object behind a version (for roll-back-and-branch)."""
        version = self.get(version_id)
        if version.workflow is None:
            raise VersioningError(f"version {version_id} has no attached workflow object")
        return version.workflow.copy()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def log(self) -> str:
        """A commit-log style listing, newest first."""
        lines = []
        for version in reversed(self._versions):
            metrics = ", ".join(f"{key}={value:.4f}" for key, value in sorted(version.metrics.items()))
            lines.append(
                f"{version.label()}  [{version.change_category or '-'}]  {version.description or '(no description)'}"
                f"  runtime={version.runtime:.3f}s  {metrics}"
            )
        return "\n".join(lines) if lines else "(no versions)"
