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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (DataSplit, ExperimentManifest, TaskBatch, build_task_sequence,
                      manifest_from_dict, manifest_to_dict, read_utf8)
from .ensemble import ClassConditionalEnsemble, predict_batch, train_task
from .errors import ValidationError, is_integer, is_number
from .fusion import FusionPipeline
from .metrics import AccuracyMatrix, MetricsReport, accuracy, compute_report


def _list_of(values, n: int, valid) -> bool:
    """Whether values is a list of n entries that each pass valid."""
    return isinstance(values, list) and len(values) == n and all(map(valid, values))


@dataclass
class RunResult:
    """One seed's run of ``manifest``. ``sample_ids``, ``truth`` and
    ``predicted`` are parallel object arrays of str: the prediction after the
    final task for every test sample of tasks 1..T, in task order.

    The file's ``config`` is the manifest, checked on load as a manifest is.
    Each config fact is stated there alone: task names, classes and their
    task order, the modality order and ``use_class_priors``. The file stores
    truth and predicted as indices into the class labels of ``config.tasks``,
    in task order."""

    matrix: AccuracyMatrix
    sample_ids: np.ndarray
    truth: np.ndarray
    predicted: np.ndarray
    per_task_test_sizes: list
    joint_reference_accuracies: list | None
    manifest: ExperimentManifest
    seed: int
    ensemble: ClassConditionalEnsemble

    @property
    def per_task_predictions(self) -> list:
        """The predictions as the former attribute held them: one row of
        (sample_id, truth, predicted) triples."""
        return [list(zip(self.sample_ids, self.truth, self.predicted))]

    def to_dict(self) -> dict:
        index = {label: i for i, label in enumerate(self.manifest.class_tasks)}
        return {
            "config": manifest_to_dict(self.manifest),
            "seed": self.seed,
            "accuracy_matrix": self.matrix.to_list(),
            "predictions": {"sample_ids": self.sample_ids.tolist(),
                            "truth": [index[label] for label in self.truth],
                            "predicted": [index[label] for label in self.predicted]},
            "per_task_test_sizes": list(self.per_task_test_sizes),
            "joint_reference": self.joint_reference_accuracies,
            "ensembles": self.ensemble.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "RunResult":
        """Rebuild a result; a field of the wrong type or range raises
        ValueError, TypeError or ValidationError. The task names come from
        config; the task_names key of older files repeats them and is
        ignored."""
        try:
            manifest = manifest_from_dict(d["config"])
        except ValidationError as exc:
            raise ValidationError(f"config: {exc}") from exc
        seed = d["seed"]
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        entries = d["accuracy_matrix"]
        if not all(isinstance(row, list) and all(map(is_number, row)) for row in entries):
            raise ValueError("accuracy_matrix entries must be numbers")
        matrix = AccuracyMatrix.from_rows(entries, [task.name for task in manifest.tasks])
        t = matrix.n_tasks
        sizes = d["per_task_test_sizes"]
        if not _list_of(sizes, t, lambda s: is_integer(s) and s > 0):
            raise ValueError(f"per_task_test_sizes must be {t} positive integers")
        refs = d.get("joint_reference")
        if refs is not None and not _list_of(refs, t, lambda a: is_number(a) and 0.0 <= a <= 1.0):
            raise ValueError(f"joint_reference must be null or {t} numbers in [0, 1]")
        class_tasks = manifest.class_tasks
        if "predictions" in d or "per_task_predictions" not in d:
            columns = d["predictions"]
            ids, truth, predicted = columns["sample_ids"], columns["truth"], columns["predicted"]
        else:  # older files: rows of [sample_id, truth, predicted] labels, the final one kept
            index = {label: i for i, label in enumerate(class_tasks)}
            # a label of no class stays a label, which the index check refuses
            rows = [(sid, index.get(true_label, true_label), index.get(pred_label, pred_label))
                    for final in d["per_task_predictions"][-1:]
                    for sid, true_label, pred_label in final]
            ids, truth, predicted = map(list, zip(*rows)) if rows else ([], [], [])
        if not (isinstance(ids, list) and set(map(type, ids)) <= {str}):
            raise ValueError("prediction sample_ids must be a list of strings")
        n = len(class_tasks)
        # exact types: a bool or a float is no class index
        if not all(isinstance(column, list) and len(column) == len(ids)
                   and set(map(type, column)) <= {int}
                   and 0 <= min(column, default=0) and max(column, default=0) < n
                   for column in (truth, predicted)):
            raise ValueError(f"prediction truth and predicted must each hold {len(ids)} "
                             f"class indices in [0, {n}), one per sample id")
        if len(set(ids)) != len(ids):
            duplicate = next(sid for sid, count in Counter(ids).items() if count > 1)
            raise ValueError(f"sample id {duplicate!r} has two predictions")
        task_of_class = np.array(list(class_tasks.values()), dtype=np.intp)
        counts = np.bincount(task_of_class[truth], minlength=t).tolist()
        if counts != sizes:
            raise ValueError(f"the predictions hold {counts} test rows per task, "
                             f"but per_task_test_sizes is {sizes}")
        labels = np.array(list(class_tasks), dtype=object)
        return RunResult(
            matrix=matrix,
            sample_ids=np.array(ids, dtype=object),
            truth=labels[truth],
            predicted=labels[predicted],
            per_task_test_sizes=list(sizes),
            joint_reference_accuracies=refs,
            manifest=manifest,
            seed=seed,
            ensemble=ClassConditionalEnsemble.from_dict(d["ensembles"], manifest),
        )

    def metrics(self) -> MetricsReport:
        return compute_report(self.matrix, self.per_task_test_sizes,
                              self.joint_reference_accuracies)

    def task_of_rows(self) -> np.ndarray:
        """Index of the task that owns each row's true class."""
        class_tasks = self.manifest.class_tasks
        return np.array([class_tasks[label] for label in self.truth], dtype=np.intp)

    def per_class_correct(self) -> dict:
        """Correct final predictions per true class (zero counts kept)."""
        return {**dict.fromkeys(self.truth, 0),
                **Counter(self.truth[self.truth == self.predicted])}


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
    return FusionPipeline.fit(manifest.modalities, first_batch.train.features)


def run_continual(manifest: ExperimentManifest, tables, seed: int,
                  compute_joint_reference: bool = True) -> RunResult:
    """One sequential class-incremental run producing the accuracy matrix; the
    data is checked by ``build_task_sequence``, before the first fit."""
    batches = build_task_sequence(manifest, tables)
    fusion = _build_fusion(manifest, batches[0])
    ensemble = ClassConditionalEnsemble(
        fusion=fusion, use_class_priors=manifest.use_class_priors)

    # fused test data is retained, with its cached per-class score columns;
    # train data is released per task
    test_sets = []
    rows = []
    for k, batch in enumerate(batches, start=1):
        train_task(ensemble, batch, manifest.bgmm_config, seed)
        test = batch.test
        test_sets.append((test.sample_ids, test.class_labels, fusion.transform(test.features), []))
        batches[k - 1] = None  # release training data: exemplar-free by construction

        preds = [predict_batch(ensemble, matrix, columns) for _, _, matrix, columns in test_sets]
        rows.append([accuracy(task_preds, labels)
                     for task_preds, (_, labels, _, _) in zip(preds, test_sets)])

    acc_matrix = AccuracyMatrix.from_rows(rows, [t.name for t in manifest.tasks])

    # the joint model for tasks 1..k is the continual model after task k
    joint_refs = [row[-1] for row in rows] if compute_joint_reference else None

    # only the final predictions are kept: they are all a result file stores
    return RunResult(
        matrix=acc_matrix,
        sample_ids=np.concatenate([ids for ids, _, _, _ in test_sets]),
        truth=np.concatenate([labels for _, labels, _, _ in test_sets]),
        predicted=np.array([label for task_preds in preds for label in task_preds], dtype=object),
        per_task_test_sizes=[len(labels) for _, labels, _, _ in test_sets],
        joint_reference_accuracies=joint_refs,
        manifest=manifest,
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
                      for name in fusion.normalizers},
        ),
        test=batches[k - 1].test,
    )
    train_task(ensemble, joined, manifest.bgmm_config, seed)

    test = joined.test
    return accuracy(predict_batch(ensemble, fusion.transform(test.features)), test.class_labels)


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
    reports = [r.metrics().to_dict() for r in results]
    t = results[0].matrix.n_tasks

    def stats(values):
        if any(v is None for v in values):
            return None, None
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std(ddof=1)) if len(values) > 1 else 0.0

    means: dict = {}
    stds: dict = {}
    for name, value in reports[0].items():
        if isinstance(value, float):
            means[name], stds[name] = stats([rep[name] for rep in reports])
        else:  # a per-k series; IM is None without a joint reference
            series = [stats([None if rep[name] is None else rep[name][k] for rep in reports])
                      for k in range(t)]
            means[name] = [m for m, _ in series]
            stds[name] = [s for _, s in series]
    return AggregateResult(seeds=[r.seed for r in results],
                           metric_means=means, metric_stds=stds)


# ---------------------------------------------------------------------------
# results file I/O
# ---------------------------------------------------------------------------

def _write_json(doc: dict, path, indent: int | None) -> None:
    """Write doc with sorted keys and a final newline.

    With indent None the text is one line with "," and ":" separators, which
    json encodes in C; with an indent it uses json's default separators for
    an indented document and its pure-Python encoder.
    """
    separators = (",", ":") if indent is None else None
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=indent, separators=separators)
                          + "\n", encoding="utf-8")


def save_run_result(result: RunResult, path) -> None:
    """Write a per-seed results file as compact JSON (one line)."""
    _write_json(result.to_dict(), path, indent=None)


def save_aggregate(agg: AggregateResult, path) -> None:
    """Write the aggregate file at indent 1: the benchmark runner writes its own
    copy at indent 1 and compares it byte for byte with `clbgmm run`'s."""
    _write_json(agg.to_dict(), path, indent=1)


def load_run_result(path) -> RunResult:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"results file not found: {path}")
    try:
        doc = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed results file {path} line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
    try:
        return RunResult.from_dict(doc)
    except KeyError as exc:
        raise ValidationError(f"malformed results file {path}: missing {exc}") from exc
    except (TypeError, AttributeError) as exc:  # e.g. a list where an object belongs
        raise ValidationError(f"malformed results file {path}: wrong type: {exc}") from exc
    except (ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"malformed results file {path}: {exc}") from exc
