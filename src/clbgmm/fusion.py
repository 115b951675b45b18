"""The fusion pipeline: per-modality min-max normalization and feature concatenation.

``FusionPipeline`` fits, applies, stores and checks the normalizers. They
are fitted once on the first task's training data and then frozen, so later
tasks may produce values outside the fitted range; those are clamped into
[0, 1]. Everything works on whole (N, D) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class MinMaxNormalizer:
    """Frozen componentwise min-max scaling statistics."""

    per_dim_min: np.ndarray
    per_dim_max: np.ndarray

    def to_dict(self) -> dict:
        return {
            "per_dim_min": self.per_dim_min.tolist(),
            "per_dim_max": self.per_dim_max.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "MinMaxNormalizer":
        """Rebuild a normalizer; the fitted_on key of older files is ignored."""
        return MinMaxNormalizer(
            per_dim_min=np.asarray(d["per_dim_min"], dtype=np.float64),
            per_dim_max=np.asarray(d["per_dim_max"], dtype=np.float64),
        )


def fit_normalizer(vectors) -> MinMaxNormalizer:
    """Compute componentwise min/max over the rows of a non-empty (N, D) matrix."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.size == 0 or arr.ndim != 2:
        raise ValidationError("fit_normalizer needs a non-empty (N, D) matrix")
    return MinMaxNormalizer(per_dim_min=arr.min(axis=0), per_dim_max=arr.max(axis=0))


def apply_normalizer(norm: MinMaxNormalizer, v) -> np.ndarray:
    """Scale the rows of an (N, D) matrix into [0, 1] with clamping;
    zero-range dimensions map to 0."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1:] != norm.per_dim_min.shape:
        raise ValidationError(
            f"dimension mismatch: input has {v.shape}, normalizer expects {norm.per_dim_min.shape}"
        )
    # masked, so a zero-range column is never subtracted from or divided
    span = norm.per_dim_max - norm.per_dim_min
    nonzero = span > 0
    out = np.subtract(v, norm.per_dim_min, out=np.zeros_like(v), where=nonzero)
    np.divide(out, span, out=out, where=nonzero)
    return np.clip(out, 0.0, 1.0, out=out)


def fuse(parts) -> np.ndarray:
    """Concatenate per-modality (N, D_m) matrices column-wise, in the given order."""
    return np.hstack([np.asarray(part, dtype=np.float64) for part in parts])


@dataclass(frozen=True)
class FusionPipeline:
    """Frozen per-modality normalizers in manifest order, the concatenation order."""

    normalizers: dict                     # name -> MinMaxNormalizer | None

    @staticmethod
    def fit(modalities, features: dict) -> "FusionPipeline":
        """Fit min-max statistics for each modality spec that sets normalize."""
        return FusionPipeline({
            spec.name: fit_normalizer(features[spec.name]) if spec.normalize else None
            for spec in modalities
        })

    def transform(self, features: dict) -> np.ndarray:
        """Normalize each modality's (N, D_m) matrix, then concatenate them
        column-wise in modality order."""
        return fuse([features[name] if norm is None else apply_normalizer(norm, features[name])
                     for name, norm in self.normalizers.items()])

    def to_dict(self) -> dict:
        """The normalizers; the modality order is the manifest's."""
        return {
            "normalizers": {
                name: (norm.to_dict() if norm is not None else None)
                for name, norm in self.normalizers.items()
            },
        }

    @staticmethod
    def from_dict(d: dict, modalities) -> "FusionPipeline":
        """Rebuild the pipeline of a run over the modality specs; raises
        ValidationError unless there is a normalizer exactly for each
        normalized modality, of the modality's dim."""
        normalizers = dict.fromkeys(spec.name for spec in modalities)
        stored = d["normalizers"]
        if not isinstance(stored, dict) or set(stored) != set(normalizers):
            raise ValidationError("fusion normalizers must be keyed by the configured modalities")
        for spec in modalities:
            if (stored[spec.name] is not None) != spec.normalize:
                raise ValidationError(f"modality {spec.name!r}: a normalizer must be stored "
                                      "exactly when normalize is true")
            if spec.normalize:
                norm = normalizers[spec.name] = MinMaxNormalizer.from_dict(stored[spec.name])
                if not norm.per_dim_min.shape == norm.per_dim_max.shape == (spec.dim,):
                    raise ValidationError(f"modality {spec.name!r}: the normalizer needs "
                                          f"{spec.dim} per_dim_min and per_dim_max values")
        return FusionPipeline(normalizers)
