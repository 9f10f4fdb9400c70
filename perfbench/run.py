#!/usr/bin/env python3
"""Edit-trajectory benchmark: iteration latency of HELIX by edit type.

Drives one of three edit trajectories (``ie_edits``, ``dense_feed``,
``long_history``; see ``perfbench/README.md``) through ``HelixSession.run``
with the default settings, times each iteration from outside the session,
and checks every sampled iteration's ``report.metrics`` against a cold run of
the same version in a fresh workspace.

    python3 perfbench/run.py                                 # dense_feed and long_history
    python3 perfbench/run.py --workload dense_feed --seed 7 --seconds 24
    python3 perfbench/run.py --workload long_history --trace 1   # per-layer metrics

``--trace 0`` reports the end-to-end metrics with tracing off, every timing
scaled to a reference host speed by a probe (``host_probe``); ``--trace 1``
makes a separate traced run that wraps the calls into each layer, reports the
per-layer metrics and writes its spans to ``.perfbench/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (timed
iterations and cold starts), ``failed`` (those that raised or disagreed with
the cold run) and ``metrics``.  The benchmark writes only under ``.perfbench/`` in the
repository root, and removes its workspaces when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Seed used when ``--seed`` is not given; a claim must also hold on another.
DEFAULT_SEED = 7
DEFAULT_SECONDS = 24
#: Cold starts per ``--trace 0`` run, spread evenly between the timed
#: iterations; ``setup_s`` and ``cold_iter_s`` are the ``fast_half`` of their
#: samples.  A ``--trace 1`` run makes one, for the correctness check only.
COLD_STARTS = 11
#: One cold start, run in a fresh interpreter by ``Bench.cold_start``: set
#: up a session, then run the trajectory's first version.  It prints when the
#: session was open (``time.monotonic`` is one clock for every process), the
#: run's wall, and the run's metrics or the error it raised.
SETUP_CODE = """
import json, sys, time
sys.path[:0] = {paths!r}
from repro.core.session import HelixSession
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}]({seed!r}, {inputs!r})
workload.make_inputs()
session = HelixSession({workspace!r}, **workload.session_kwargs())
opened = time.monotonic()
step = workload.trajectory()[0]
if step.prepare is not None:
    step.prepare()
workflow = step.build()
started = time.monotonic()
try:
    metrics = dict(session.run(workflow).report.metrics)
except Exception as exc:
    metrics = type(exc).__name__ + ": " + str(exc)
wall = time.monotonic() - started
session.close()
session.store.close()
close_backend = getattr(session.backend, "close", None)
if callable(close_backend):
    close_backend()
print(json.dumps([opened, wall, metrics]))
"""
#: What ``host_probe`` reads at the reference host speed.  Every timing
#: metric is scaled by this over the run's probe reading (see ``end_to_end``).
PROBE_REFERENCE_S = 0.002
#: Traced trajectories per ``--trace 1`` run; their work counters must agree.
TRACED_TRAJECTORIES = 2

#: End-to-end metrics that are timings, scaled to the reference host speed.
TIMINGS = (
    "setup_s", "cumulative_s", "cold_iter_s", "dataprep_iter_s", "model_iter_s",
    "postproc_iter_s", "rerun_iter_s", "append_iter_s", "iter_tail_s",
)

END_TO_END = (
    ("setup_s", "s"),
    ("cumulative_s", "s"),
    ("cold_iter_s", "s"),
    ("dataprep_iter_s", "s"),
    ("model_iter_s", "s"),
    ("postproc_iter_s", "s"),
    ("rerun_iter_s", "s"),
    ("append_iter_s", "s"),
    ("iter_tail_s", "s"),
    ("store_mb", "MB"),
    ("workspace_mb", "MB"),
    ("peak_rss_mb", "MB"),
)

#: Operator types of the benchmark's workloads (``dense_feed``, ``long_history``);
#: any other type, such as the IE operators, lands in ``op.other.s``.
OPERATOR_TYPES = (
    "FileSource", "SyntheticCensusSource", "CsvScanner", "DenseFeaturizer", "FieldExtractor",
    "Bucketizer", "InteractionFeature", "LabelExtractor", "FeatureAssembler", "Learner",
    "Predictor", "Evaluator",
)

#: Layer span name -> the metric that reports its self time.
SELF_TIME_METRICS = {
    "compiler": "compiler.s",
    "cost_model": "cost_model.s",
    "cost_model.snapshot": "cost_model.snapshot_s",
    "recomputation": "recomputation.s",
    "incremental": "incremental.s",
    "execution": "execution.self_s",
    "store.put": "store.put.s",
    "store.encode": "store.encode.s",
    "store.get": "store.get.s",
    "catalog": "catalog.s",
    "trace": "trace.s",
    "persistence": "persistence.s",
    "obs": "obs.s",
}

#: Work counts compared between the traced trajectories; a count supports a
#: claim only where it repeats exactly.
WORK_COUNTERS = (
    "compiler.calls", "cost_model.entries_read", "incremental.chunks_dirty",
    "incremental.chunks_reused", "execution.nodes_computed", "execution.nodes_loaded",
    "execution.nodes_pruned", "store.put.calls", "store.put.bytes", "store.get.calls",
    "store.get.bytes", "store.get.failed", "catalog.calls", "catalog.rows_returned",
    "obs.events",
)

PER_LAYER = (
    ("compiler.s", "s"), ("compiler.calls", "count"),
    ("cost_model.s", "s"), ("cost_model.snapshot_s", "s"),
    ("cost_model.entries_read", "count"), ("cost_model.entries_per_plan_node", "ratio"),
    ("recomputation.s", "s"),
    ("incremental.s", "s"), ("incremental.chunks_dirty", "count"),
    ("incremental.chunks_reused", "count"),
    ("execution.s", "s"), ("execution.self_s", "s"),
    ("execution.nodes_computed", "count"), ("execution.nodes_loaded", "count"),
    ("execution.nodes_pruned", "count"), ("execution.reuse_fraction", "ratio"),
    *((f"op.{name}.s", "s") for name in OPERATOR_TYPES + ("other",)),
    ("store.put.calls", "count"), ("store.put.bytes", "bytes"), ("store.put.s", "s"),
    ("store.encode.s", "s"), ("store.get.calls", "count"), ("store.get.bytes", "bytes"),
    ("store.get.s", "s"), ("store.get.failed", "count"),
    ("catalog.calls", "count"), ("catalog.rows_returned", "count"), ("catalog.s", "s"),
    ("trace.s", "s"), ("trace.bytes", "bytes"),
    ("persistence.s", "s"), ("persistence.bytes", "bytes"),
    ("obs.s", "s"), ("obs.events", "count"),
    ("session.other_s", "s"), ("session.other_share", "ratio"),
    ("iteration.wall_s", "s"),
    ("tracing.overhead", "ratio"),
    ("counters.varying", "count"),
)


@dataclass
class Iteration:
    """One timed iteration as seen from outside the session."""

    index: int
    kind: str
    wall: float
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    #: Tracer iteration id (traced trajectories only).
    trace_id: int = -1
    #: Per-iteration work read off the run's RunTrace and report.
    work: Dict[str, float] = field(default_factory=dict)


@dataclass
class Trajectory:
    iterations: List[Iteration]
    store_mb: float
    workspace_mb: float

    @property
    def cumulative(self) -> float:
        return sum(it.wall for it in self.iterations)


def _directory_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


def _run_work(result) -> Dict[str, float]:
    """Work counts and operator busy time of one run, from its RunTrace."""
    trace = result.trace
    work: Dict[str, float] = {
        "plan_nodes": len(trace.nodes),
        "execution.nodes_computed": len(trace.nodes_in_state("compute")),
        "execution.nodes_loaded": len(trace.nodes_in_state("load")),
        "execution.nodes_pruned": len(trace.nodes_in_state("prune")),
        "execution.reuse_fraction": result.report.reuse_fraction(),
        "incremental.chunks_dirty": 0,
        "incremental.chunks_reused": 0,
    }
    for entry in trace.nodes.values():
        if entry.delta_strategy == "delta":
            work["incremental.chunks_dirty"] += entry.delta_chunks_dirty
            work["incremental.chunks_reused"] += entry.delta_chunks_reused
        op = entry.operator_type if entry.operator_type in OPERATOR_TYPES else "other"
        work[f"op.{op}.s"] = work.get(f"op.{op}.s", 0.0) + entry.compute_time
    return work


class Bench:
    """Runs one workload's trajectories, references and set-up measurements."""

    def __init__(self, workload, run_root: str) -> None:
        from repro.core.session import HelixSession

        self.session_class = HelixSession
        self.workload = workload
        self.run_root = run_root
        self.steps = workload.trajectory()
        self._workspaces = 0
        #: Version key -> cold-run metrics (or the error the cold run raised).
        self.references: Dict[Tuple, object] = {}
        self.mismatches: List[str] = []
        #: Set-up times and cold-run walls of the cold starts made so far,
        #: and how many cold runs failed.
        self.setup_walls: List[float] = []
        self.cold_walls: List[float] = []
        self.cold_failed = 0
        #: ``host_probe`` readings, one before each timed iteration.
        self.probes: List[float] = []

    def _workspace(self, label: str) -> str:
        self._workspaces += 1
        return os.path.join(self.run_root, f"{label}-{self._workspaces}")

    def _open(self, workspace: str):
        return self.session_class(workspace, **self.workload.session_kwargs())

    @staticmethod
    def _close(session) -> None:
        session.close()
        session.store.close()
        close_backend = getattr(session.backend, "close", None)
        if callable(close_backend):
            close_backend()

    def cold_start(self) -> None:
        """Time what a user pays before and during the first iteration.

        A cold start is a fresh interpreter that imports HELIX, makes the
        inputs, opens a session on a fresh workspace (set-up) and runs the
        trajectory's first version (the cold run), whose metrics are checked
        against the correctness reference.
        """
        expected = self.reference(self.steps[0])
        workspace = self._workspace("coldstart")
        code = SETUP_CODE.format(
            paths=[SRC, os.path.dirname(os.path.abspath(__file__))],
            name=self.workload.name, seed=self.workload.seed,
            inputs=self.workload.root, workspace=workspace,
        )
        started = time.monotonic()
        completed = subprocess.run([sys.executable, "-c", code], check=True,
                                   stdout=subprocess.PIPE, text=True)
        opened, wall, metrics = json.loads(completed.stdout.strip().splitlines()[-1])
        shutil.rmtree(workspace, ignore_errors=True)
        self.setup_walls.append(opened - started)
        if metrics == expected:
            self.cold_walls.append(wall)
        else:
            self.cold_failed += 1
            self.mismatches.append(f"cold start: {metrics} != cold {expected}")

    def warm_up(self, steps: int) -> None:
        """Run the trajectory's first steps untimed, so lazy imports and caches settle."""
        workspace = self._workspace("warmup")
        session = self._open(workspace)
        try:
            for step in self.steps[:steps]:
                if step.prepare is not None:
                    step.prepare()
                session.run(step.build())
        finally:
            self._close(session)
            shutil.rmtree(workspace, ignore_errors=True)

    def trajectory(self, tracer=None, cold_starts_before: Collection[int] = ()) -> Trajectory:
        """One trajectory in a fresh workspace, timed per iteration.

        A cold start runs before each step whose index is in
        ``cold_starts_before``, outside the timed region.
        """
        workspace = self._workspace("trajectory")
        session = self._open(workspace)
        iterations: List[Iteration] = []
        try:
            for index, step in enumerate(self.steps):
                if index in cold_starts_before:
                    self.cold_start()
                self.probes.append(host_probe())
                if step.prepare is not None:
                    step.prepare()
                workflow = step.build()
                record = Iteration(index, step.kind, 0.0)
                if tracer is not None:
                    tracer.iteration += 1
                    record.trace_id = tracer.iteration
                    tracer.active = True
                started = time.perf_counter()
                try:
                    result = session.run(workflow, description=f"{step.kind} #{index}")
                except Exception as exc:  # counted as failed; the trajectory continues
                    result = None
                    record.error = f"{type(exc).__name__}: {exc}"
                record.wall = time.perf_counter() - started
                if tracer is not None:
                    tracer.active = False
                if result is not None:
                    record.metrics = dict(result.report.metrics)
                    record.work = _run_work(result)
                iterations.append(record)
            store_mb = session.storage_used() / 2**20
        finally:
            self._close(session)
        workspace_mb = _directory_bytes(workspace) / 2**20
        shutil.rmtree(workspace, ignore_errors=True)
        return Trajectory(iterations, store_mb, workspace_mb)

    def reference(self, step) -> object:
        """Cold-run metrics of ``step``'s version, computed once per run."""
        if step.key not in self.references:
            if step.prepare is not None:
                step.prepare()
            workflow = step.build()
            workspace = self._workspace("reference")
            session = self._open(workspace)
            try:
                self.references[step.key] = dict(session.run(workflow).report.metrics)
            except Exception as exc:
                self.references[step.key] = f"{type(exc).__name__}: {exc}"
            finally:
                self._close(session)
                shutil.rmtree(workspace, ignore_errors=True)
        return self.references[step.key]

    def check(self, trajectory: Trajectory) -> int:
        """Compare sampled iterations with cold runs; returns how many failed."""
        failed = 0
        last = len(trajectory.iterations) - 1
        every = self.workload.check_every
        for record in trajectory.iterations:
            if record.error:
                failed += 1
                self.mismatches.append(f"iteration {record.index} raised {record.error}")
                continue
            if record.index % every and record.index != last:
                continue
            expected = self.reference(self.steps[record.index])
            if expected != record.metrics:
                failed += 1
                self.mismatches.append(
                    f"iteration {record.index} ({record.kind}): {record.metrics} != cold {expected}"
                )
        return failed


def _probe_work() -> None:
    import numpy

    total = 0
    for i in range(20000):
        total += i * i
    matrix = numpy.ones((64, 64))
    for _ in range(5):
        matrix = matrix @ matrix / 64.0
    pickle.loads(pickle.dumps(list(range(3000))))


def host_probe() -> float:
    """Seconds a fixed mix of interpreter, NumPy and pickle work takes now.

    The host is shared, and its speed drifts by a third over minutes; the
    probe tracks that drift and none of the program's code.  The mix runs
    twice and only the second pass is timed, so caches the last iteration
    left cold do not count.
    """
    _probe_work()
    started = time.perf_counter()
    _probe_work()
    return time.perf_counter() - started


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fast_half(walls: List[float]) -> float:
    """Mean of the faster half of repeated walls (the minimum for up to three).

    Load from elsewhere on the host only ever adds delay, so the slower half
    of the repeats is dropped; averaging the rest is steadier than the
    minimum alone.
    """
    ordered = sorted(walls)
    return statistics.fmean(ordered[:max(1, len(ordered) // 2)]) if ordered else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    rank = len(ordered) - 10  # samples at or below; ten lie beyond it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(setup: List[float], cold: List[float], trajectories: List[Trajectory],
               probes: List[float]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metric values, and the sample counts behind them.

    Every step of the trajectory ran once per trajectory; its wall is the
    ``fast_half`` of those repeats.  A kind's metric is the mean over its
    steps: the steps sit at different points of a growing history, and a
    median would report the one step in the middle.

    Every timing is then scaled to the reference host speed: multiplied by
    ``PROBE_REFERENCE_S`` over the ``fast_half`` of the run's probe readings.
    The unscaled values are in the returned details.
    """
    steps = list(zip(*(t.iterations for t in trajectories)))
    best = [fast_half([record.wall for record in step]) for step in steps]
    by_kind: Dict[str, List[float]] = {}
    for step, wall in zip(steps, best):
        by_kind.setdefault(step[0].kind, []).append(wall)
    warm = [record.wall for step in steps for record in step if record.kind != "cold"]
    tail_value, tail_level = tail(warm)
    values = {
        "setup_s": fast_half(setup),
        "cumulative_s": sum(best),
        "cold_iter_s": fast_half(cold),
        "dataprep_iter_s": _mean(by_kind.get("dataprep", [])),
        "model_iter_s": _mean(by_kind.get("model", [])),
        "postproc_iter_s": _mean(by_kind.get("postproc", [])),
        "rerun_iter_s": _mean(by_kind.get("rerun", [])),
        "append_iter_s": _mean(by_kind.get("append", [])),
        "iter_tail_s": tail_value,
        "store_mb": _median([t.store_mb for t in trajectories]),
        "workspace_mb": _median([t.workspace_mb for t in trajectories]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probe = fast_half(probes)
    walls = {name: values[name] for name in TIMINGS}
    for name in TIMINGS:
        values[name] *= PROBE_REFERENCE_S / probe
    samples = {
        "repeats_per_step": len(trajectories),
        "steps": {kind: len(walls) for kind, walls in by_kind.items()},
        "cold_runs": len(cold),
        "warm_iterations": len(warm),
        "iter_tail_percentile": round(tail_level, 1),
        "setup_runs": len(setup),
        "setup_walls": [round(wall, 4) for wall in setup],
        "cold_walls": [round(wall, 4) for wall in cold],
        "host_probe_s": probe,
        "probes": len(probes),
        "unscaled_s": walls,
    }
    return values, samples


def _iteration_counters(tracer, record: Iteration) -> Dict[str, float]:
    return {
        name: record.work[name] if name in record.work
        else tracer.counts.get((record.trace_id, name), 0.0)
        for name in WORK_COUNTERS
    }


def per_layer(tracer, traced: List[Trajectory], plain: Trajectory) -> Tuple[Dict[str, float], List[str]]:
    """Per-iteration layer metrics from the traced trajectories, and varying counters."""
    from spans import self_times

    records = [record for trajectory in traced for record in trajectory.iterations]
    ids = {record.trace_id for record in records}
    n = float(len(records))
    spans = [span for span in tracer.spans if span[6] in ids]
    own = self_times(spans)
    main = threading.main_thread().ident

    self_s: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    top_level: Dict[int, float] = {}
    for span in spans:
        span_id, name, start, end, parent, thread, iteration = span
        self_s[name] = self_s.get(name, 0.0) + own[span_id]
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if parent is None and thread == main:
            top_level[iteration] = top_level.get(iteration, 0.0) + (end - start)

    def total(counter: str) -> float:
        return sum(value for (iteration, name), value in tracer.counts.items()
                   if name == counter and iteration in ids)

    def work(name: str) -> float:
        return sum(record.work.get(name, 0.0) for record in records)

    metrics: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_s.get(layer, 0.0) / n
    metrics["execution.s"] = inclusive.get("execution", 0.0) / n
    for counter in ("compiler.calls", "cost_model.entries_read", "store.put.calls",
                    "store.put.bytes", "store.get.calls", "store.get.bytes",
                    "store.get.failed", "catalog.calls", "catalog.rows_returned",
                    "trace.bytes", "persistence.bytes", "obs.events"):
        metrics[counter] = total(counter) / n
    plan_nodes = work("plan_nodes")
    metrics["cost_model.entries_per_plan_node"] = (
        total("cost_model.entries_read") / plan_nodes if plan_nodes else 0.0
    )
    for name in ("incremental.chunks_dirty", "incremental.chunks_reused",
                 "execution.nodes_computed", "execution.nodes_loaded",
                 "execution.nodes_pruned", "execution.reuse_fraction"):
        metrics[name] = work(name) / n
    for op in OPERATOR_TYPES + ("other",):
        metrics[f"op.{op}.s"] = work(f"op.{op}.s") / n
    walls = sum(record.wall for record in records)
    other = sum(record.wall - top_level.get(record.trace_id, 0.0) for record in records)
    metrics["session.other_s"] = other / n
    metrics["session.other_share"] = other / walls if walls else 0.0
    metrics["iteration.wall_s"] = walls / n
    metrics["tracing.overhead"] = (
        _median([t.cumulative for t in traced]) / plain.cumulative if plain.cumulative else 0.0
    )

    # Work counters of the traced trajectories, iteration by iteration.
    varying = []
    sequences = [[_iteration_counters(tracer, record) for record in t.iterations] for t in traced]
    for name in WORK_COUNTERS:
        series = [[counters[name] for counters in sequence] for sequence in sequences]
        if any(other_series != series[0] for other_series in series[1:]):
            varying.append(name)
    metrics["counters.varying"] = float(len(varying))
    return metrics, varying


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    from workloads import WORKLOADS

    run_root = os.path.join(OUT, f"run-{name}-{os.getpid()}")
    workload = WORKLOADS[name](seed, os.path.join(run_root, "inputs"))
    bench = Bench(workload, run_root)
    try:
        failed = 0
        workload.make_inputs()
        bench.warm_up(steps=min(len(bench.steps), 4))
        repeats = max(1, round(seconds / workload.nominal_trajectory_s))
        if not trace:
            # Cold starts are spread evenly between the timed iterations of
            # all trajectories, so they sample the host's slow and fast phases
            # as the iterations do.
            steps = len(bench.steps)
            positions = [int((j + 0.5) * repeats * steps / COLD_STARTS) for j in range(COLD_STARTS)]
            bench.reference(bench.steps[0])
            trajectories = []
            for repeat in range(repeats):
                before = {p - repeat * steps for p in positions if p // steps == repeat}
                trajectories.append(bench.trajectory(cold_starts_before=before))
                failed += bench.check(trajectories[-1])
            cold_starts = COLD_STARTS
            metrics, details = end_to_end(bench.setup_walls, bench.cold_walls, trajectories,
                                          bench.probes)
        else:
            from spans import LayerTracer

            cold_starts = 1
            bench.cold_start()
            plain = bench.trajectory()
            failed += bench.check(plain)
            tracer = LayerTracer()
            tracer.install()
            try:
                traced = [bench.trajectory(tracer) for _ in range(TRACED_TRAJECTORIES)]
            finally:
                tracer.uninstall()
            for trajectory in traced:
                failed += bench.check(trajectory)
            trajectories = [plain] + traced
            metrics, varying = per_layer(tracer, traced, plain)
            spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
            tracer.dump(spans_path)
            details = {"varying_counters": varying, "spans": os.path.relpath(spans_path, ROOT),
                       "spans_recorded": len(tracer.spans)}
        failed += bench.cold_failed
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    attempted = sum(len(t.iterations) for t in trajectories) + cold_starts
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
        "mismatches": bench.mismatches[:5],
    }


def _row(name: str, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    cells = " ".join(f"{metric}={value:.6g}{units.get(metric, '')}"
                     for metric, value in metrics.items())
    return f"{name:<13} {cells}"


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="dense_feed, long_history, ie_edits, or all (default: the first two)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="approximate measuring time; fixes the trajectory count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "repro", "core", "session.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import BENCHMARKED, WORKLOADS

    names = list(BENCHMARKED) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    units = dict(PER_LAYER if args.trace else END_TO_END)

    if len(names) == 1:
        result = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
        for mismatch in result["mismatches"]:
            print(f"MISMATCH {mismatch}", file=sys.stderr)
        print(f"details {json.dumps(result['details'], sort_keys=True)}")
        print(_row(names[0], result["metrics"], units))
        print(_result_line(result["correct"], result["attempted"], result["failed"],
                           result["metrics"], units))
        return 0

    # Every workload in its own process, so peak RSS and caches stay separate.
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {completed.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        metrics = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        print(_row(name, metrics, units))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{metric}": value for metric, value in metrics.items()})
    units = {f"{name}.{metric}": unit for name in names for metric, unit in units.items()}
    print(_result_line(correct, attempted, failed, combined, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
