"""Work counters for one iteration's fixed cost, independent of the host.

An iteration's bookkeeping — cost estimation and persistence — must grow
with the plan, not with the store or the version history.  These tests count
work (catalog rows decoded, log bytes appended) rather than time it, and
check that the plan-scoped cost query prices every node exactly as the
full-catalog snapshots did.
"""

import os
from dataclasses import replace

import pytest

import repro.versioning.persistence as persistence
from repro.core.session import HelixSession
from repro.storage.catalog import ArtifactMeta, CatalogDB, chunk_signature
from repro.workloads.census_workload import CensusVariant, build_census_workflow


@pytest.fixture
def variant(tiny_census_config):
    return CensusVariant(data_config=tiny_census_config)


def _plan_signatures(compiled):
    return [compiled.signature_of(name) for name in compiled.nodes()]


def _snapshot_estimate(session, compiled):
    """The estimate as computed from five full-catalog snapshots."""
    store = session.store
    return session.estimator.estimate(
        compiled,
        history=session.history.cost_records(),
        materialized_sizes=store.sizes_by_signature(),
        measured_load_costs=store.load_costs_by_signature(),
        chunk_inventory=store.chunk_inventory(),
        recoverable_partitions=session.partitions,
        codecs_by_signature=store.codecs_by_signature(),
        memory_resident=store.memory_resident_signatures(),
    )


def _seed_unrelated(store, count):
    """``count`` catalog rows no plan refers to, a fifth of them chunks."""
    metas = []
    for index in range(count):
        signature = f"{index:064x}"
        if index % 5 == 0:
            signature = chunk_signature(f"{index:063x}f", index % 4, 4)
        metas.append(ArtifactMeta(
            signature=signature, node_name=f"unrelated{index}", size=100.0 + index,
            write_time=0.001, created_at=1.0, filename=f"{index}.pkl",
        ))
    store.catalog_db.upsert_artifacts(metas)


class TestCostQueryReadsOnlyThePlan:
    def test_rows_decoded_bounded_by_plan(self, tmp_path, variant, monkeypatch):
        session = HelixSession(str(tmp_path), partitions=4)
        session.run(build_census_workflow(variant))
        _seed_unrelated(session.store, 1000)
        compiled = session._compile(build_census_workflow(replace(variant, reg_param=0.02)))
        plan = _plan_signatures(compiled)
        chunk_rows = sum(len(session.store.chunk_signatures(sig)) for sig in plan)
        assert chunk_rows > 0

        decoded = []
        original = CatalogDB._row_to_meta

        def counting(row):
            decoded.append(row["signature"])
            return original(row)

        monkeypatch.setattr(CatalogDB, "_row_to_meta", staticmethod(counting))
        session._estimate_costs(compiled)
        assert 0 < len(decoded) <= len(plan) + chunk_rows
        assert not any(signature.startswith("0000") for signature in decoded)

        decoded.clear()
        _snapshot_estimate(session, compiled)
        assert len(decoded) > 1000  # what the snapshots paid for the same answer


def _bytes_written():
    """Bytes this process has passed to write(2) so far (Linux accounting)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise AssertionError("no wchar line in /proc/self/io")


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs Linux per-process I/O accounting")
class TestPersistenceAppendsPerIteration:
    def test_bytes_written_do_not_grow_with_history(self, tmp_path, variant, monkeypatch):
        """What saving the version and cost logs writes at iteration 60 is
        within 2x of iteration 5 — a rewrite of the history would be ~10x."""
        written = []
        for name in ("save_version_store", "save_cost_history"):
            original = getattr(persistence, name)

            def counting(*args, _original=original, **kwargs):
                before = _bytes_written()
                path = _original(*args, **kwargs)
                written.append(_bytes_written() - before)
                return path

            monkeypatch.setattr(persistence, name, counting)
        session = HelixSession(str(tmp_path))
        per_iteration = []
        for iteration in range(61):
            edited = replace(variant, reg_param=round(0.1 * 0.97 ** iteration, 12))
            written.clear()
            session.run(build_census_workflow(edited), description=f"reg {iteration:03d}")
            assert len(written) == 2
            per_iteration.append(sum(written))
        assert per_iteration[5] > 0
        assert per_iteration[60] <= 2 * per_iteration[5]


def _trajectory(variant):
    """Census edits of every kind, with reruns that exercise measured loads."""
    yield variant
    yield replace(variant, use_marital_status=True)
    yield replace(variant, use_marital_status=True)
    yield replace(variant, use_marital_status=True, reg_param=0.01)
    yield replace(variant, use_marital_status=True, reg_param=0.01, metrics=("accuracy", "f1"))
    yield replace(variant, age_bins=6)
    yield variant


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"partitions": 4},
        {"store_backend": "tiered", "memory_tier_mb": 0.05},
    ],
    ids=["plain", "partitions4", "tiered"],
)
def test_plan_scoped_costs_equal_snapshot_costs(tmp_path, variant, options):
    """Every NodeCosts field from the plan-scoped query equals the old
    full-snapshot estimate, iteration after iteration — across a reopened
    session and a partially evicted chunk family too."""
    workspace = str(tmp_path)
    session = HelixSession(workspace, **options)
    compared = 0
    for step, edited in enumerate(_trajectory(variant)):
        if step == 4:
            session.store.flush()
            session = HelixSession(workspace, **options)
        if step == 5 and options.get("partitions"):
            chunks = [key for key in session.store.signatures() if "#p" in key]
            session.store.delete(chunks[0])
        compiled = session._compile(build_census_workflow(edited))
        if step == 3:
            # Reads whose access metadata is still pending (fewer than the
            # store's flush batch): both paths must overlay them.
            keys = [
                key
                for signature in _plan_signatures(compiled)
                for key in [signature, *session.store.chunk_signatures(signature)]
                if session.store.has(key)
            ]
            for key in keys[:7]:
                session.store.get(key)
        assert session._estimate_costs(compiled) == _snapshot_estimate(session, compiled)
        compared += 1
        session.run(build_census_workflow(edited))
    if options.get("store_backend") == "tiered":
        assert session.store.memory_resident_signatures()
    assert compared == 7
