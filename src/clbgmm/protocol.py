"""Class-incremental experiment driver.

Trains tasks strictly in sequence (training data of a finished task is
released and never re-read), fills the lower-triangular accuracy matrix
after each task, optionally records the joint reference for the
intransigence measure, and aggregates runs across seeds.

Each class model depends only on its own training rows, the frozen task-1
normalizer, its per-class seed and the config, so the model trained on
tasks 1..k jointly is the continual model after task k. The run therefore
takes the joint reference from the diagonal a_{k,k} of the accuracy
matrix; ``train_joint_reference`` is the independent refit that checks it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DataSplit, ExperimentManifest, TaskBatch, build_task_sequence, manifest_to_dict
from .ensemble import (
    ClassConditionalEnsemble,
    FusionPipeline,
    predict_batch,
    train_task,
)
from .errors import ValidationError
from .fusion import fit_normalizer
from .metrics import AccuracyMatrix, MetricsReport, compute_report


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    # per k: list of (sample_id, truth, predicted); a result file stores only
    # the final row (k = T), so a result loaded from one holds that row alone
    per_task_predictions: list
    per_task_test_sizes: list
    joint_reference_accuracies: list | None
    manifest_echo: dict
    seed: int
    ensemble: ClassConditionalEnsemble

    def to_dict(self) -> dict:
        return {
            "config": self.manifest_echo,
            "seed": self.seed,
            "task_names": list(self.matrix.task_names),
            "accuracy_matrix": self.matrix.to_list(),
            "per_task_predictions": [
                [[sid, truth, pred] for sid, truth, pred in self.per_task_predictions[-1]]
            ],
            "per_task_test_sizes": list(self.per_task_test_sizes),
            "joint_reference": self.joint_reference_accuracies,
            "ensembles": self.ensemble.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "RunResult":
        rows = [[(sid, truth, pred) for sid, truth, pred in row]
                for row in d["per_task_predictions"]]
        sizes = list(d["per_task_test_sizes"])
        if not rows or len(rows[-1]) != sum(sizes):
            raise ValueError(f"the final prediction row needs {sum(sizes)} entries")
        return RunResult(
            matrix=AccuracyMatrix.from_rows(d["accuracy_matrix"], d["task_names"]),
            per_task_predictions=rows,
            per_task_test_sizes=sizes,
            joint_reference_accuracies=d.get("joint_reference"),
            manifest_echo=dict(d["config"]),
            seed=int(d["seed"]),
            ensemble=ClassConditionalEnsemble.from_dict(d["ensembles"]),
        )

    def metrics(self) -> MetricsReport:
        return compute_report(self.matrix, self.per_task_test_sizes,
                              self.joint_reference_accuracies)

    def per_class_correct(self) -> dict:
        """Correct final-row predictions per true class (zero counts kept)."""
        final = self.per_task_predictions[-1]
        counts = dict.fromkeys((truth for _, truth, _ in final), 0)
        for _, truth, pred in final:
            counts[truth] += int(pred == truth)
        return counts


@dataclass
class AggregateResult:
    seeds: list
    metric_means: dict
    metric_stds: dict

    def to_dict(self) -> dict:
        return {"seeds": list(self.seeds),
                "mean": self.metric_means, "std": self.metric_stds}


def _build_fusion(manifest: ExperimentManifest, first_batch: TaskBatch) -> FusionPipeline:
    """Fit min-max statistics on task 1 training data, then freeze them."""
    features = first_batch.train.features
    return FusionPipeline(
        modality_order=tuple(spec.name for spec in manifest.modalities),
        normalizers={
            spec.name: fit_normalizer(features[spec.name], first_batch.name) if spec.normalize else None
            for spec in manifest.modalities
        },
    )


def _fused_test_set(fusion: FusionPipeline, batch: TaskBatch) -> tuple:
    test = batch.test
    if len(test.sample_ids) == 0:
        raise ValidationError(f"task {batch.name!r} has no test samples")
    return test.sample_ids, test.class_labels, fusion.transform(test.features)


def run_continual(manifest: ExperimentManifest, tables, seed: int,
                  compute_joint_reference: bool = True) -> RunResult:
    """One sequential class-incremental run producing the accuracy matrix."""
    batches = build_task_sequence(manifest, tables)
    fusion = _build_fusion(manifest, batches[0])
    ensemble = ClassConditionalEnsemble(
        fusion=fusion, use_class_priors=manifest.use_class_priors)

    # fused test data is retained, with its cached per-class score columns;
    # train data is released per task
    test_sets = []
    rows = []
    predictions = []
    for k, batch in enumerate(batches, start=1):
        train_task(ensemble, batch, manifest.bgmm_config, seed)
        test_sets.append((*_fused_test_set(fusion, batch), []))
        batches[k - 1] = None  # release training data: exemplar-free by construction

        row = []
        row_preds = []
        for ids, labels, matrix, columns in test_sets:
            preds = predict_batch(ensemble, matrix, columns)
            row.append(sum(p == t for p, t in zip(preds, labels)) / len(labels))
            row_preds.extend(zip(ids, labels, preds))
        rows.append(row)
        predictions.append(row_preds)

    task_names = tuple(t.name for t in manifest.tasks)
    acc_matrix = AccuracyMatrix.from_rows(rows, task_names)

    # the joint model for tasks 1..k is the continual model after task k
    joint_refs = [row[-1] for row in rows] if compute_joint_reference else None

    return RunResult(
        matrix=acc_matrix,
        per_task_predictions=predictions,
        per_task_test_sizes=[len(labels) for _, labels, _, _ in test_sets],
        joint_reference_accuracies=joint_refs,
        manifest_echo=manifest_to_dict(manifest),
        seed=seed,
        ensemble=ensemble,
    )


def train_joint_reference(manifest: ExperimentManifest, tables, k: int, seed: int) -> float:
    """Accuracy on task k's test set of a model trained on tasks 1..k jointly.

    This is an independent refit from the tables: it routes the data again
    and fits every class of tasks 1..k anew. It uses the same ensemble
    family and the same per-class seeds as the continual run, so the class
    models coincide exactly and the value equals the a_{k,k} that
    ``run_continual`` records as its joint reference; tests use it to
    check that identity.
    """
    batches = build_task_sequence(manifest, tables)
    if not (1 <= k <= len(batches)):
        raise ValidationError(f"k={k} out of range for {len(batches)} tasks")
    fusion = _build_fusion(manifest, batches[0])
    ensemble = ClassConditionalEnsemble(
        fusion=fusion, use_class_priors=manifest.use_class_priors)

    trains = [b.train for b in batches[:k]]
    joined = TaskBatch(
        name=f"joint_1..{k}",
        class_set=frozenset().union(*(b.class_set for b in batches[:k])),
        train=DataSplit(
            sample_ids=np.concatenate([t.sample_ids for t in trains]),
            class_labels=np.concatenate([t.class_labels for t in trains]),
            features={name: np.vstack([t.features[name] for t in trains])
                      for name in fusion.modality_order},
        ),
        test=batches[k - 1].test,
    )
    train_task(ensemble, joined, manifest.bgmm_config, seed)

    _, labels, matrix = _fused_test_set(fusion, batches[k - 1])
    preds = predict_batch(ensemble, matrix)
    return sum(p == t for p, t in zip(preds, labels)) / len(labels)


def oracle_union_accuracy(preds_a, preds_b, truth) -> float:
    """Fraction of samples either prediction list gets right."""
    preds_a, preds_b, truth = list(preds_a), list(preds_b), list(truth)
    if not truth:
        raise ValidationError("empty prediction lists")
    if len(preds_a) != len(truth) or len(preds_b) != len(truth):
        raise ValidationError("prediction/truth length mismatch")
    hits = sum(1 for a, b, t in zip(preds_a, preds_b, truth) if a == t or b == t)
    return hits / len(truth)


def multi_seed(manifest: ExperimentManifest, tables,
               compute_joint_reference: bool = True) -> tuple:
    """Run every manifest seed in turn; returns (list of RunResult, AggregateResult)."""
    results = [run_continual(manifest, tables, s, compute_joint_reference)
               for s in manifest.seeds]
    return results, aggregate(results)


def aggregate(results) -> AggregateResult:
    """Per-metric mean and sample standard deviation across seeds."""
    if not results:
        raise ValidationError("no results to aggregate")
    reports = [r.metrics() for r in results]
    t = results[0].matrix.n_tasks

    def stats(values):
        arr = np.asarray(values, dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.shape[0] > 1 else 0.0
        return float(arr.mean()), std

    means: dict = {}
    stds: dict = {}
    for name, extract in (
        ("AA", lambda rep, k: rep.aa[k]),
        ("AIA", lambda rep, k: rep.aia[k]),
        ("FM", lambda rep, k: rep.fm[k]),
        ("IM", lambda rep, k: rep.im[k] if rep.im is not None else None),
    ):
        mean_series, std_series = [], []
        for k in range(t):
            values = [extract(rep, k) for rep in reports]
            if any(v is None for v in values):
                mean_series.append(None)
                std_series.append(None)
            else:
                m, s = stats(values)
                mean_series.append(m)
                std_series.append(s)
        means[name] = mean_series
        stds[name] = std_series
    for name, attr in (("final_macro_accuracy", "final_macro_accuracy"),
                       ("final_micro_accuracy", "final_micro_accuracy")):
        m, s = stats([getattr(rep, attr) for rep in reports])
        means[name] = m
        stds[name] = s
    return AggregateResult(seeds=[r.seed for r in results],
                           metric_means=means, metric_stds=stds)


# ---------------------------------------------------------------------------
# results file I/O
# ---------------------------------------------------------------------------

def save_run_result(result: RunResult, path) -> None:
    Path(path).write_text(
        json.dumps(result.to_dict(), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def load_run_result(path) -> RunResult:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"results file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed results file {path}: {exc.msg}") from exc
    try:
        return RunResult.from_dict(doc)
    except KeyError as exc:
        raise ValidationError(f"malformed results file {path}: missing {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed results file {path}: wrong type: {exc}") from exc
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed results file {path}: {exc}") from exc
