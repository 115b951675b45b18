"""Continual-learning metrics over a lower-triangular accuracy matrix.

Average Accuracy (AA), Average Incremental Accuracy (AIA), the Forgetting
Measure (FM, reported literally, negatives allowed) and the Intransigence
Measure (IM) relative to a jointly trained reference. All functions are
pure; indices are 1-based task numbers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class AccuracyMatrix:
    """a[k][j]: test accuracy on task j after training task k (j <= k)."""

    entries: tuple       # tuple of rows; row k-1 has k floats
    task_names: tuple

    def __post_init__(self):
        if len(self.entries) != len(self.task_names):
            raise ValidationError("one matrix row per task is required")
        for k, row in enumerate(self.entries, start=1):
            if len(row) != k:
                raise ValidationError(f"row {k} must have exactly {k} entries")
            for value in row:
                if not (0.0 <= value <= 1.0):
                    raise ValidationError("accuracy entries must lie in [0, 1]")

    @property
    def n_tasks(self) -> int:
        return len(self.entries)

    def get(self, k: int, j: int) -> float:
        if not (1 <= j <= k <= self.n_tasks):
            raise ValidationError(f"a[{k},{j}] is undefined (need 1 <= j <= k <= {self.n_tasks})")
        return self.entries[k - 1][j - 1]

    def to_list(self) -> list:
        return [list(row) for row in self.entries]

    @staticmethod
    def from_rows(rows, task_names) -> "AccuracyMatrix":
        return AccuracyMatrix(
            entries=tuple(tuple(float(v) for v in row) for row in rows),
            task_names=tuple(task_names),
        )


@dataclass
class MetricsReport:
    aa: list
    aia: list
    fm: list                       # fm[0] is None; defined for k >= 2
    im: list | None
    final_macro_accuracy: float
    final_micro_accuracy: float

    def to_dict(self) -> dict:
        return {
            "AA": self.aa,
            "AIA": self.aia,
            "FM": self.fm,
            "IM": self.im,
            "final_macro_accuracy": self.final_macro_accuracy,
            "final_micro_accuracy": self.final_micro_accuracy,
        }


def accuracy(preds, truth) -> float:
    """Fraction of positions where the prediction equals the truth."""
    if len(truth) == 0 or len(preds) != len(truth):
        raise ValidationError("need one prediction per truth value, and at least one value")
    return sum(p == t for p, t in zip(preds, truth)) / len(truth)


def average_accuracy(matrix: AccuracyMatrix, k: int) -> float:
    """AA_k: mean accuracy over tasks 1..k after training task k."""
    if not (1 <= k <= matrix.n_tasks):
        raise ValidationError(f"k={k} out of range")
    return sum(matrix.get(k, j) for j in range(1, k + 1)) / k


def average_incremental_accuracy(matrix: AccuracyMatrix, k: int) -> float:
    """AIA_k: running mean of AA_1..AA_k."""
    if not (1 <= k <= matrix.n_tasks):
        raise ValidationError(f"k={k} out of range")
    return sum(average_accuracy(matrix, i) for i in range(1, k + 1)) / k


def forgetting(matrix: AccuracyMatrix, j: int, k: int) -> float:
    """f_{j,k}: best past accuracy on task j minus current accuracy.

    The max runs over rows j..k-1, the rows where column j exists; the
    value may be negative when current accuracy beats all past ones.
    """
    if j >= k:
        raise ValidationError(f"forgetting needs j < k, got j={j}, k={k}")
    if not (1 <= j and k <= matrix.n_tasks):
        raise ValidationError(f"(j={j}, k={k}) out of range")
    best = max(matrix.get(i, j) for i in range(j, k))
    return best - matrix.get(k, j)


def forgetting_measure(matrix: AccuracyMatrix, k: int) -> float:
    """FM_k: mean forgetting over past tasks; undefined before task 2."""
    if k < 2:
        raise ValidationError("forgetting measure is undefined for k < 2")
    if k > matrix.n_tasks:
        raise ValidationError(f"k={k} out of range")
    return sum(forgetting(matrix, j, k) for j in range(1, k)) / (k - 1)


def intransigence(a_star_k: float, a_kk: float) -> float:
    """IM_k: joint-reference accuracy minus the continual learner's."""
    return a_star_k - a_kk


def relative_evolution(merged: float, baseline: float) -> float:
    """Relative accuracy change of the merged run over a baseline run."""
    if baseline <= 0:
        raise ValidationError("baseline accuracy must be positive")
    return (merged - baseline) / baseline


def final_accuracies(matrix: AccuracyMatrix, per_task_test_sizes) -> tuple:
    """(macro, micro) accuracy over the last matrix row.

    Macro is the unweighted mean over tasks; micro weights each task by
    its test-set size (pooled correct / N).
    """
    t = matrix.n_tasks
    sizes = list(per_task_test_sizes)
    if len(sizes) != t:
        raise ValidationError(f"need {t} test sizes, got {len(sizes)}")
    if any(s <= 0 for s in sizes):
        raise ValidationError("test sizes must be positive")
    last = [matrix.get(t, j) for j in range(1, t + 1)]
    macro = float(np.mean(last))
    micro = float(np.average(last, weights=sizes))
    return macro, micro


def compute_report(matrix: AccuracyMatrix, per_task_test_sizes,
                   joint_reference_accuracies=None) -> MetricsReport:
    """Full metric series for one run."""
    t = matrix.n_tasks
    aa = [average_accuracy(matrix, k) for k in range(1, t + 1)]
    aia = [average_incremental_accuracy(matrix, k) for k in range(1, t + 1)]
    fm = [None] + [forgetting_measure(matrix, k) for k in range(2, t + 1)]
    im = None
    if joint_reference_accuracies is not None:
        refs = list(joint_reference_accuracies)
        if len(refs) != t:
            raise ValidationError(f"need {t} joint-reference accuracies, got {len(refs)}")
        im = [intransigence(refs[k - 1], matrix.get(k, k)) for k in range(1, t + 1)]
    macro, micro = final_accuracies(matrix, per_task_test_sizes)
    return MetricsReport(aa=aa, aia=aia, fm=fm, im=im,
                         final_macro_accuracy=macro, final_micro_accuracy=micro)
