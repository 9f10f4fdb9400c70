"""Tests for version-store / cost-history persistence and cross-session restore."""

import json
import os
from dataclasses import replace

import pytest

from repro.core.session import HelixSession
from repro.errors import VersioningError
from repro.optimizer.cost_model import CostRecord
from repro.execution.stats import RunHistory
from repro.graph.dag import NodeState
from repro.versioning.persistence import (
    HISTORY_FILENAME,
    VERSIONS_FILENAME,
    load_cost_history,
    load_version_store,
    save_cost_history,
    save_version_store,
    version_from_dict,
    version_to_dict,
)
from repro.workloads.census_workload import CensusVariant, build_census_workflow


@pytest.fixture
def variant(tiny_census_config):
    return CensusVariant(data_config=tiny_census_config)


class TestRoundTrip:
    def test_version_store_roundtrip(self, tmp_path, variant):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        session.run(build_census_workflow(variant), description="v1")
        session.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")

        restored = load_version_store(workspace)
        assert len(restored) == 2
        assert restored.get(1).description == "v1"
        assert restored.get(2).signatures == session.versions.get(2).signatures
        assert restored.get(2).metrics == session.versions.get(2).metrics
        assert restored.get(2).parent_id == 1

    def test_version_dict_roundtrip_preserves_fields(self, tmp_path, variant):
        session = HelixSession(workspace=str(tmp_path))
        version = session.run(build_census_workflow(variant), description="v1").version
        payload = version_to_dict(version)
        clone = version_from_dict(json.loads(json.dumps(payload)))
        assert clone.signatures == version.signatures
        assert clone.edges == version.edges
        assert clone.runtime == version.runtime
        assert clone.workflow is None

    def test_restored_versions_cannot_checkout(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        restored = load_version_store(workspace)
        with pytest.raises(VersioningError):
            restored.checkout(1)

    def test_cost_history_roundtrip(self, tmp_path):
        history = RunHistory()
        history.record("sig-1", CostRecord(compute_cost=1.5, output_size=100.0, operator_type="Scan"))
        history.record("sig-2", CostRecord(compute_cost=0.5, output_size=10.0, operator_type="Learner"))
        save_cost_history(history, str(tmp_path))
        restored = load_cost_history(str(tmp_path))
        assert restored["sig-1"].compute_cost == 1.5
        assert restored["sig-2"].operator_type == "Learner"

    def test_loading_missing_files_returns_empty(self, tmp_path):
        assert len(load_version_store(str(tmp_path))) == 0
        assert load_cost_history(str(tmp_path)) == {}

    def test_corrupt_files_raise(self, tmp_path):
        (tmp_path / "versions.json").write_text("{broken")
        with pytest.raises(VersioningError):
            load_version_store(str(tmp_path))


class TestCrossSessionBehaviour:
    def test_new_session_continues_version_numbering(self, tmp_path, variant):
        workspace = str(tmp_path)
        first = HelixSession(workspace=workspace)
        first.run(build_census_workflow(variant), description="v1")

        second = HelixSession(workspace=workspace)
        assert len(second.versions) == 1
        result = second.run(build_census_workflow(replace(variant, reg_param=0.01)), description="v2")
        assert result.version.version_id == 2
        assert result.report.iteration == 1

    def test_new_session_reuses_costs_for_planning(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        second = HelixSession(workspace=workspace)
        plan = second.plan(build_census_workflow(variant))
        # With restored cost history and the artifact catalog, the plan avoids
        # recomputing the expensive upstream stages.
        from repro.graph.dag import NodeState

        assert plan.state_of("rows") in (NodeState.LOAD, NodeState.PRUNE)

    def test_files_written_next_to_artifacts(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        assert os.path.exists(os.path.join(workspace, "versions.jsonl"))
        assert os.path.exists(os.path.join(workspace, "cost_history.jsonl"))
        assert os.path.isdir(os.path.join(workspace, "artifacts"))


def _log_lines(path):
    with open(path, "rb") as handle:
        return handle.read().split(b"\n")


class TestAppendOnlyLogs:
    def test_each_run_appends_one_version_line(self, tmp_path, variant):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        path = os.path.join(workspace, VERSIONS_FILENAME)
        session.run(build_census_workflow(variant))
        first = os.path.getsize(path)
        session.run(build_census_workflow(replace(variant, reg_param=0.01)))
        lines = _log_lines(path)
        assert lines[-1] == b"" and len(lines) == 3
        # The first line was left alone: the second run only appended.
        with open(path, "rb") as handle:
            assert len(handle.read(first).split(b"\n")) == 2

    def test_cost_log_appends_only_changed_records(self, tmp_path):
        history = RunHistory()
        history.record("sig-1", CostRecord(compute_cost=1.0, output_size=10.0))
        history.record("sig-2", CostRecord(compute_cost=2.0, output_size=20.0))
        path = save_cost_history(history, str(tmp_path))
        assert len(_log_lines(path)) == 3
        history.record("sig-1", CostRecord(compute_cost=1.0, output_size=10.0))  # unchanged
        history.record("sig-2", CostRecord(compute_cost=3.0, output_size=20.0))
        save_cost_history(history, str(tmp_path))
        lines = _log_lines(path)
        assert len(lines) == 4 and json.loads(lines[2])["signature"] == "sig-2"
        # The last record for a signature wins.
        assert load_cost_history(str(tmp_path))["sig-2"].compute_cost == 3.0

    def test_cost_log_compacts_on_open(self, tmp_path):
        history = RunHistory()
        for attempt in range(5):
            history.record("sig", CostRecord(compute_cost=float(attempt), output_size=1.0))
            save_cost_history(history, str(tmp_path))
        path = os.path.join(str(tmp_path), HISTORY_FILENAME)
        assert len(_log_lines(path)) == 6
        assert load_cost_history(str(tmp_path))["sig"].compute_cost == 4.0
        assert len(_log_lines(path)) == 2
        assert load_cost_history(str(tmp_path))["sig"].compute_cost == 4.0

    def test_restored_costs_are_not_rewritten(self, tmp_path, variant):
        workspace = str(tmp_path)
        HelixSession(workspace=workspace).run(build_census_workflow(variant))
        path = os.path.join(workspace, HISTORY_FILENAME)
        before = len(_log_lines(path))
        # A rerun appends records only for the nodes it re-measured; the
        # restored records are not written again.
        result = HelixSession(workspace=workspace).run(build_census_workflow(variant))
        computed = result.report.n_in_state(NodeState.COMPUTE)
        assert computed < len(result.report.node_stats)
        assert len(_log_lines(path)) - before <= computed


class TestTornWrites:
    def test_torn_version_tail_is_dropped_then_repaired(self, tmp_path, variant):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        for reg_param in (0.1, 0.01, 0.001):
            session.run(build_census_workflow(replace(variant, reg_param=reg_param)))
        path = os.path.join(workspace, VERSIONS_FILENAME)
        lines = _log_lines(path)
        # Simulate a crash halfway through writing the third record.
        with open(path, "r+b") as handle:
            handle.truncate(len(lines[0]) + len(lines[1]) + 2 + len(lines[2]) // 2)

        reopened = HelixSession(workspace=workspace)
        assert len(reopened.versions) == 2
        assert reopened.versions.latest().signatures == session.versions.get(2).signatures
        result = reopened.run(build_census_workflow(replace(variant, reg_param=0.5)))
        assert result.version.version_id == 3

        restored = load_version_store(workspace)
        assert [version.version_id for version in restored.all()] == [1, 2, 3]
        assert restored.get(3).signatures == result.version.signatures
        assert _log_lines(path)[-1] == b""

    def test_unterminated_complete_record_is_kept(self, tmp_path):
        history = RunHistory()
        history.record("sig-1", CostRecord(compute_cost=1.0, output_size=1.0))
        path = save_cost_history(history, str(tmp_path))
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)  # lose only the newline
        assert load_cost_history(str(tmp_path))["sig-1"].compute_cost == 1.0
        history.record("sig-2", CostRecord(compute_cost=2.0, output_size=2.0))
        save_cost_history(history, str(tmp_path))
        assert set(load_cost_history(str(tmp_path))) == {"sig-1", "sig-2"}

    def test_corrupt_middle_line_raises(self, tmp_path):
        (tmp_path / VERSIONS_FILENAME).write_text('{"version_id": 1, "workflow_name": "w"}\n{oops\n')
        with pytest.raises(VersioningError):
            load_version_store(str(tmp_path))
        (tmp_path / HISTORY_FILENAME).write_text('{oops\n{"signature": "s"}\n')
        with pytest.raises(VersioningError):
            load_cost_history(str(tmp_path))

    def test_legacy_files_are_converted_once(self, tmp_path, variant):
        workspace = str(tmp_path)
        session = HelixSession(workspace=workspace)
        session.run(build_census_workflow(variant))
        versions = [version_to_dict(version) for version in session.versions.all()]
        costs = {
            signature: {"compute_cost": record.compute_cost, "output_size": record.output_size,
                        "operator_type": record.operator_type}
            for signature, record in session.history.cost_records().items()
        }
        os.remove(os.path.join(workspace, VERSIONS_FILENAME))
        os.remove(os.path.join(workspace, HISTORY_FILENAME))
        (tmp_path / "versions.json").write_text(json.dumps(versions, indent=2))
        (tmp_path / "cost_history.json").write_text(json.dumps(costs, indent=2))

        reopened = HelixSession(workspace=workspace)
        assert len(reopened.versions) == 1
        assert reopened.history.cost_records() == session.history.cost_records()
        assert not os.path.exists(os.path.join(workspace, "versions.json"))
        assert not os.path.exists(os.path.join(workspace, "cost_history.json"))
        assert os.path.exists(os.path.join(workspace, VERSIONS_FILENAME))
        assert reopened.run(build_census_workflow(variant)).version.version_id == 2
