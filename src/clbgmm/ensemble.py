"""Class-conditional generative classifier: one fitted mixture per class.

Each class gets its own mixture, trained exactly once when its class
first appears; previously trained mixtures are never touched, so adding
tasks cannot interfere with old classes. Prediction is argmax of the
per-class log-likelihoods, ties broken by first-seen class order.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .bgmm import FIT_METADATA, BgmmConfig, FittedMixture, fit, log_likelihood_batch
from .dataset import ExperimentManifest, TaskBatch
from .errors import ValidationError, is_integer
from .fusion import FusionPipeline

logger = logging.getLogger("clbgmm")


def derive_class_seed(run_seed: int, class_label: str) -> int:
    """Stable per-class fit seed, decorrelated across classes."""
    digest = hashlib.sha256(f"{run_seed}:{class_label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ClassConditionalEnsemble:
    """Ordered class -> FittedMixture map plus the frozen fusion pipeline."""

    fusion: FusionPipeline
    models: dict = field(default_factory=dict)  # insertion order = first-seen order
    use_class_priors: bool = False
    class_train_counts: dict = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.models)

    def to_dict(self) -> dict:
        """The fusion normalizers, the models in first-seen order and the
        per-class training counts. The modality order and use_class_priors
        are the manifest's, which a results file holds as its config."""
        return {
            "fusion": self.fusion.to_dict(),
            "models": [[label, mix.to_dict()] for label, mix in self.models.items()],
            "class_train_counts": dict(self.class_train_counts),
        }

    @staticmethod
    def from_dict(d: dict, manifest: ExperimentManifest) -> "ClassConditionalEnsemble":
        """Rebuild the ensemble of a run of manifest, taking the modality
        order and use_class_priors from it; the copies of the two that
        older files hold are ignored. Raises ValidationError unless the
        fusion normalizers pass ``FusionPipeline.from_dict``, there is one
        model and one positive integer training count per configured class,
        and every model spans the fused dim and passes FIT_METADATA."""
        classes = manifest.class_tasks
        fusion = FusionPipeline.from_dict(d["fusion"], manifest.modalities)
        counts = d["class_train_counts"]
        if not (isinstance(counts, dict) and set(counts) == set(classes)
                and all(is_integer(n) and n > 0 for n in counts.values())):
            raise ValidationError("class_train_counts must give each configured class "
                                  "a positive integer")
        ens = ClassConditionalEnsemble(fusion=fusion, use_class_priors=manifest.use_class_priors,
                                       class_train_counts=dict(counts))
        fused_dim = sum(spec.dim for spec in manifest.modalities)
        for label, mix_dict in d["models"]:
            try:
                if label not in classes or label in ens.models:
                    raise ValidationError("not a configured class, or stored twice")
                mixture = ens.models[label] = FittedMixture.from_dict(mix_dict)
                meta = mixture.metadata
                for key, (valid, expected) in FIT_METADATA.items():
                    if key not in meta and key != "merges":  # older files have no merges
                        raise ValidationError(f"fit metadata missing {key!r}")
                    if key in meta and not valid(meta[key]):
                        raise ValidationError(f"fit metadata {key!r} must be {expected}, "
                                              f"got {meta[key]!r}")
                meta["final_elbo"] = float(meta["final_elbo"])
                if mixture.dim != fused_dim:
                    raise ValidationError(f"the model has dim {mixture.dim}, "
                                          f"the fused features {fused_dim}")
            except ValidationError as exc:
                raise ValidationError(f"class {label!r}: {exc}") from exc
        if len(ens.models) != len(classes):
            missing = next(label for label in classes if label not in ens.models)
            raise ValidationError(f"no model of class {missing!r}")
        return ens


def train_task(ensemble: ClassConditionalEnsemble, batch: TaskBatch,
               config: BgmmConfig, seed: int) -> ClassConditionalEnsemble:
    """Fit one fresh mixture per new class; existing models stay untouched."""
    overlap = batch.class_set.intersection(ensemble.models)
    if overlap:
        raise ValidationError(
            f"class-incremental violation: classes already trained: {sorted(overlap)}"
        )
    fused = ensemble.fusion.transform(batch.train.features)
    labels = batch.train.class_labels
    # insertion order: first seen in the training rows, then the rest sorted
    for label in dict.fromkeys([*labels, *sorted(batch.class_set)]):
        rows = fused[labels == label]
        if not len(rows):
            raise ValidationError(f"class {label!r} has no training samples")
        mixture, _ = fit(rows, config, derive_class_seed(seed, label))
        meta = mixture.metadata
        if not meta["converged"]:
            logger.warning("class %r: fit did not converge in %d iterations",
                           label, meta["iterations"])
        if meta["all_pruned_fallback"]:
            logger.warning("class %r: every component fell below prune_threshold after "
                           "%d iterations; kept only the heaviest", label, meta["iterations"])
        ensemble.models[label] = mixture
        ensemble.class_train_counts[label] = len(rows)
    return ensemble


def predict_batch(ensemble: ClassConditionalEnsemble, fused_matrix: np.ndarray,
                  columns: list | None = None) -> list:
    """Class label for each row of an (N, D) fused matrix.

    Argmax of the per-class log-likelihoods (plus log class priors when
    enabled); exact ties go to the first-seen class.

    ``columns`` is a caller-owned cache of raw (N,) log-likelihood columns
    of this matrix, one per class in model order. Mixtures are frozen once
    fitted, so only the classes past ``len(columns)`` are scored and their
    columns appended; the priors, which change as classes are added, are
    never cached.
    """
    if ensemble.class_count == 0:
        raise ValidationError("no trained classes")
    fused_matrix = np.asarray(fused_matrix, dtype=np.float64)
    if fused_matrix.ndim != 2 or fused_matrix.shape[0] == 0:
        raise ValidationError(f"need a non-empty (N, D) matrix, got shape {fused_matrix.shape}")
    labels = list(ensemble.models)
    n_rows = fused_matrix.shape[0]
    if columns is None:
        columns = []
    if len(columns) > len(labels) or any(len(column) != n_rows for column in columns):
        raise ValidationError(
            f"column cache does not fit {len(labels)} classes and {n_rows} rows")
    for label in labels[len(columns):]:
        columns.append(log_likelihood_batch(ensemble.models[label], fused_matrix))
    total = sum(ensemble.class_train_counts.values())
    score_matrix = np.column_stack(columns)
    if ensemble.use_class_priors and total > 0:
        for i, label in enumerate(labels):
            score_matrix[:, i] += np.log(ensemble.class_train_counts[label] / total)
    best = np.argmax(score_matrix, axis=1)  # argmax keeps the first index on ties
    return [labels[i] for i in best]
