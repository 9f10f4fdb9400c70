"""The three edit trajectories the benchmark drives through ``HelixSession.run``.

Each workload is a closed loop with one client: the data scientist makes an
edit, waits for the iteration to finish, and only then makes the next edit.
A trajectory is the ordered list of those edits; every step names its edit
kind (the paper's colour plus ``rerun`` and ``append``) and a key that
identifies the workflow version, so the correctness check runs each distinct
version cold once and compares every iteration of that version against it.

Inputs come only from the seed: the generators in :mod:`repro.datagen` take
it, and the session sees nothing but the generated data.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.datagen.census import CENSUS_FIELDS, CensusConfig, generate_census_dataset
from repro.datagen.news import NewsConfig
from repro.dsl.operators import (
    CsvScanner,
    DenseFeaturizer,
    Evaluator,
    FeatureAssembler,
    FileSource,
    LabelExtractor,
    Learner,
    Predictor,
)
from repro.dsl.workflow import Workflow
from repro.workloads.census_workload import NUMERIC_FIELDS, CensusVariant, build_census_workflow
from repro.workloads.ie_workload import ie_workload

#: The paper's colour names for the three edit types.
_COLOUR_KIND = {"initial": "cold", "purple": "dataprep", "orange": "model", "green": "postproc"}


@dataclass
class Step:
    """One iteration: the edit kind, the version it produces, and how to build it.

    ``prepare`` puts the inputs in the state this version reads (the dense
    feed file); it runs before the iteration, outside the timed region, and
    again before the version's cold reference run.
    """

    kind: str
    key: Tuple
    build: Callable[[], Workflow]
    prepare: Optional[Callable[[], None]] = None


class Workload:
    """A named trajectory plus the session settings it runs under."""

    name = ""
    #: Seconds one trajectory takes on a 2-CPU host; with ``--seconds`` it
    #: fixes how many trajectories a run makes, so both sides of a comparison
    #: do the same work.
    nominal_trajectory_s = 1.0
    #: Correctness check: compare every ``check_every``-th iteration (and the
    #: last) with a cold run of the same version.
    check_every = 1

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root

    def session_kwargs(self) -> Dict[str, object]:
        return {}

    def make_inputs(self) -> None:
        """Write whatever inputs the trajectory reads from disk."""

    def trajectory(self) -> List[Step]:
        raise NotImplementedError


class IEEdits(Workload):
    """The paper's IE application: the 10-iteration ``ie_workload`` sequence.

    Serial and unpartitioned; the trajectory ends with an identical rerun, a
    5% larger corpus and another rerun, so every edit kind has samples.  Operator compute and
    large pickled intermediates dominate, the fixed per-iteration cost is small.
    """

    name = "ie_edits"
    nominal_trajectory_s = 4.0
    TRAIN_DOCS = 40
    TEST_DOCS = 14

    def _config(self, train_docs: int) -> NewsConfig:
        return NewsConfig(n_train_docs=train_docs, n_test_docs=self.TEST_DOCS, seed=self.seed)

    def trajectory(self) -> List[Step]:
        spec = ie_workload(self._config(self.TRAIN_DOCS))
        steps = [
            Step(_COLOUR_KIND[it.category], ("ie", index), it.build)
            for index, it in enumerate(spec)
        ]
        steps.append(Step("rerun", steps[-1].key, steps[-1].build))
        grown = self.TRAIN_DOCS + max(1, self.TRAIN_DOCS // 20)
        final = ie_workload(self._config(grown)).iterations[-1]
        steps.append(Step("append", ("ie", "append"), final.build))
        steps.append(Step("rerun", steps[-1].key, steps[-1].build))
        return steps


class DenseFeed(Workload):
    """The file-backed dense census pipeline over a feed that grows by appends.

    32 partitions on 2 threads: the only workload where partitioning, chunk
    tasks, ``DenseFeaturizer`` and incremental delta detection all engage.
    """

    name = "dense_feed"
    nominal_trajectory_s = 3.8
    N_TRAIN = 1600
    N_TEST = 160
    PARTITIONS = 32
    WORKERS = 2
    PASSES = 3
    MAX_ITER = 15
    DENSE_FIELDS = ["age", "education_num", "capital_gain", "capital_loss", "hours_per_week"]
    #: The trajectory: three rounds of rerun, data-prep, model, post-proc and
    #: a 5% append, after the cold start.
    PLAN = ("cold",) + ("rerun", "dataprep", "model", "postproc", "append") * 3

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.train_path = os.path.join(root, "feed", "train.csv")
        self.test_path = os.path.join(root, "feed", "test.csv")
        self._train_lines: List[str] = []

    def session_kwargs(self) -> Dict[str, object]:
        return {"partitions": self.PARTITIONS, "backend": "thread", "parallelism": self.WORKERS}

    def make_inputs(self) -> None:
        appends = self.PLAN.count("append")
        step = self.N_TRAIN // 20
        dataset = generate_census_dataset(CensusConfig(
            n_train=self.N_TRAIN + appends * step, n_test=self.N_TEST, seed=self.seed,
        ))
        self._train_lines = [_csv_line(record) for record in dataset.train.records()]
        os.makedirs(os.path.dirname(self.train_path), exist_ok=True)
        with open(self.test_path, "w") as handle:
            handle.write("".join(_csv_line(record) + "\n" for record in dataset.test.records()))

    def _write_train(self, rows: int) -> str:
        body = "".join(line + "\n" for line in self._train_lines[:rows])
        with open(self.train_path, "w") as handle:
            handle.write(body)
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def _workflow(self, rows: int, embed_dim: int, reg_param: float, metrics: Tuple[str, ...]):
        # The content stamp is computed when the feed is written, so the
        # version string is known only after ``prepare`` ran.
        stamp = {}

        def prepare() -> None:
            stamp["version"] = self._write_train(rows)

        def build() -> Workflow:
            wf = Workflow("census_dense")
            data = wf.add("data", FileSource(
                train=self.train_path, test=self.test_path, version=stamp["version"],
            ))
            rows_node = wf.add("rows", CsvScanner(
                data, fields=CENSUS_FIELDS, numeric_fields=NUMERIC_FIELDS,
            ))
            dense = wf.add("dense", DenseFeaturizer(
                rows_node, fields=self.DENSE_FIELDS, embed_dim=embed_dim,
                passes=self.PASSES, out_features=6,
            ))
            target = wf.add("target", LabelExtractor(rows_node, field="target"))
            examples = wf.add("examples", FeatureAssembler(extractors=[dense], label=target))
            model = wf.add("model", Learner(
                examples, model_type="logistic_regression",
                reg_param=reg_param, max_iter=self.MAX_ITER,
            ))
            predictions = wf.add("predictions", Predictor(model, examples))
            checked = wf.add("checked", Evaluator(predictions, metrics=metrics))
            wf.mark_output(predictions, checked)
            return wf

        return prepare, build

    def trajectory(self) -> List[Step]:
        rows, embed_dim, reg_param = self.N_TRAIN, 384, 0.1
        metric_sets = (("accuracy", "f1"), ("accuracy", "f1", "precision"))
        metrics_index = 0
        steps: List[Step] = []
        for kind in self.PLAN:
            if kind == "dataprep":
                embed_dim += 8
            elif kind == "model":
                reg_param /= 2
            elif kind == "postproc":
                metrics_index = 1 - metrics_index
            elif kind == "append":
                rows += self.N_TRAIN // 20
            key = ("dense", rows, embed_dim, reg_param, metrics_index)
            prepare, build = self._workflow(rows, embed_dim, reg_param, metric_sets[metrics_index])
            steps.append(Step(kind, key, build, prepare))
        return steps


class LongHistory(Workload):
    """The paper's census pipeline on tiny data, swept for 200 iterations.

    Execution is small, so the fixed per-iteration cost dominates; it grows
    with the store and the version history.  Partitioning and incremental
    are bypassed.
    """

    name = "long_history"
    nominal_trajectory_s = 12.0
    #: Coprime with the 4-step cycle and the 20-step append period, so the
    #: checked iterations cover every edit kind.
    check_every = 7
    ITERATIONS = 200
    N_TRAIN = 300
    N_TEST = 100
    #: Edit cycle after the cold start; every 20th iteration is a 5% append
    #: instead (it lands on the cycle's rerun slot).
    CYCLE = ("dataprep", "model", "postproc", "rerun")
    APPEND_EVERY = 20
    AGE_BINS = (8, 12, 6, 14, 10)

    def trajectory(self) -> List[Step]:
        rows, bins_index, reg_param, metrics_index = self.N_TRAIN, 4, 0.1, 0
        metric_sets = (("accuracy",), ("accuracy", "f1"))
        steps: List[Step] = []
        for index in range(self.ITERATIONS):
            if index == 0:
                kind = "cold"
            elif index % self.APPEND_EVERY == 0:
                kind = "append"
            else:
                kind = self.CYCLE[(index - 1) % len(self.CYCLE)]
            if kind == "dataprep":
                bins_index = (bins_index + 1) % len(self.AGE_BINS)
            elif kind == "model":
                reg_param = round(reg_param * 0.97, 10)
            elif kind == "postproc":
                metrics_index = 1 - metrics_index
            elif kind == "append":
                rows += self.N_TRAIN // 20
            variant = CensusVariant(
                data_config=CensusConfig(n_train=rows, n_test=self.N_TEST, seed=self.seed),
                age_bins=self.AGE_BINS[bins_index],
                reg_param=reg_param,
                metrics=metric_sets[metrics_index],
            )
            key = ("census", rows, variant.age_bins, reg_param, metrics_index)
            steps.append(Step(kind, key, _census_workflow(variant)))
        return steps


def _census_workflow(variant: CensusVariant) -> Callable[[], Workflow]:
    return lambda: build_census_workflow(variant)


def _csv_line(record: Dict[str, object]) -> str:
    return ",".join(str(record[field]) for field in CENSUS_FIELDS)


WORKLOADS = {cls.name: cls for cls in (IEEdits, DenseFeed, LongHistory)}
#: The workloads ``BENCHMARK.json`` lists, and what ``--workload all`` runs;
#: ``ie_edits`` runs only by name.
BENCHMARKED = ("dense_feed", "long_history")
