"""Manifests, per-modality feature tables, task routing and synthetic data.

Feature files are one CSV per modality with columns
``sample_id,class,split,f_0,...,f_{D-1}``, joined on sample_id. Each is
held as one (N, D) matrix with parallel id, class and split arrays. The
manifest is a JSON document declaring the ordered task list, the modality
files, the fusion strategy, the mixture configuration, seeds and the
output path.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bgmm import BgmmConfig
from .errors import ValidationError


@dataclass(frozen=True)
class FeatureTable:
    """One modality: an (N, dim) float64 matrix with parallel per-row arrays.

    Row i of ``values`` belongs to ``sample_ids[i]``, ``class_labels[i]``
    and ``splits[i]``; the three label arrays are object arrays of str.
    """

    modality_name: str
    dim: int
    sample_ids: np.ndarray
    class_labels: np.ndarray
    splits: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("sample_ids", "class_labels", "splits"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=object))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        n = len(self.sample_ids)
        if self.values.shape != (n, self.dim) or not len(self.class_labels) == len(self.splits) == n:
            raise ValidationError(
                f"{self.modality_name}: {n} sample ids need {n} classes, {n} splits "
                f"and values of shape ({n}, {self.dim}), got values of shape {self.values.shape}"
            )
        seen = set()
        for sample_id, split in zip(self.sample_ids, self.splits):
            if sample_id in seen:
                raise ValidationError(f"duplicate sample_id {sample_id!r}")
            seen.add(sample_id)
            if split not in ("train", "test"):
                raise ValidationError(f"row {sample_id!r}: split must be train or test")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    class_labels: tuple

    def __post_init__(self):
        if not self.class_labels:
            raise ValidationError(f"task {self.name!r} has no classes")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValidationError(f"task {self.name!r} lists a class twice")


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    path: str
    dim: int
    normalize: bool


@dataclass(frozen=True)
class ExperimentManifest:
    tasks: tuple          # of TaskSpec
    modalities: tuple     # of ModalitySpec
    fusion_strategy: str
    bgmm_config: BgmmConfig
    seeds: tuple
    output_path: str
    use_class_priors: bool = False

    def __post_init__(self):
        if not self.tasks or not self.modalities:
            raise ValidationError("manifest needs at least one task and one modality")
        for kind, specs in (("task", self.tasks), ("modality", self.modalities)):
            names = [spec.name for spec in specs]
            for name in names:
                if names.count(name) > 1:
                    raise ValidationError(f"{kind} name {name!r} is declared more than once")
        owner: dict[str, str] = {}
        for task in self.tasks:
            for label in task.class_labels:
                if label in owner:
                    raise ValidationError(
                        f"class appears in multiple tasks: {label!r} in {owner[label]!r} and {task.name!r}"
                    )
                owner[label] = task.name
        if self.fusion_strategy != "concat":
            raise ValidationError(f"unsupported fusion strategy {self.fusion_strategy!r}")
        if not self.seeds:
            raise ValidationError("manifest needs at least one seed")
        for seed in self.seeds:
            if self.seeds.count(seed) > 1:
                raise ValidationError(f"seed {seed} is listed more than once")

    def class_to_task(self) -> dict:
        return {label: i for i, task in enumerate(self.tasks) for label in task.class_labels}


@dataclass(frozen=True)
class DataSplit:
    """One split of a task: parallel ids and labels, one matrix per modality."""

    sample_ids: np.ndarray
    class_labels: np.ndarray
    features: dict        # modality name -> (N, D_m) float64 matrix


@dataclass(frozen=True)
class TaskBatch:
    name: str
    class_set: frozenset
    train: DataSplit
    test: DataSplit


@dataclass(frozen=True)
class SyntheticConfig:
    n_basic_classes: int
    n_compound_classes: int
    dim_a: int = 2
    dim_b: int = 2
    samples_per_class_train: int = 30
    samples_per_class_test: int = 10
    cluster_spread: float = 1.0
    modality_bias: float = 1.0

    def __post_init__(self):
        if self.n_basic_classes < 1 or self.n_compound_classes < 0:
            raise ValidationError("class counts must be positive")
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValidationError("modality dimensions must be >= 1")
        if self.samples_per_class_train < 1 or self.samples_per_class_test < 1:
            raise ValidationError("per-class sample counts must be positive")
        if self.cluster_spread <= 0:
            raise ValidationError("cluster_spread must be positive")
        if not (0.0 <= self.modality_bias <= 1.0):
            raise ValidationError("modality_bias must lie in [0, 1]")
        n_pairs = self.n_basic_classes * (self.n_basic_classes - 1) // 2
        if self.n_compound_classes > n_pairs:
            raise ValidationError(
                f"too many compound classes: {self.n_compound_classes} > C({self.n_basic_classes},2) = {n_pairs}"
            )


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------

def _expect(value, kind, field: str, expected: str):
    """Return value if it is an instance of kind, else raise naming the field."""
    if not isinstance(value, kind):
        raise ValidationError(f"manifest field {field!r} must be {expected}, got {value!r}")
    return value


def _as_int(value, field: str) -> int:
    """A JSON integer; a float, string or boolean is not truncated or cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"manifest field {field!r} must be an integer, got {value!r}")
    return value


def parse_manifest(text: str) -> ExperimentManifest:
    """Parse and validate a JSON manifest; a field of the wrong shape raises
    ValidationError naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _expect(doc, dict, "manifest", "a JSON object")

    for key in ("tasks", "modalities", "seeds", "output"):
        if key not in doc:
            raise ValidationError(f"manifest missing required field {key!r}")

    tasks = []
    for i, entry in enumerate(_expect(doc["tasks"], list, "tasks", "a list")):
        _expect(entry, dict, f"tasks[{i}]", "an object")
        if "name" not in entry or "classes" not in entry:
            raise ValidationError(f"task {i}: missing required field 'name' or 'classes'")
        classes = entry["classes"]
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise ValidationError(
                f"manifest field 'tasks[{i}].classes' must be a list of class-label strings, got {classes!r}")
        tasks.append(TaskSpec(name=str(entry["name"]), class_labels=tuple(classes)))

    modalities = []
    for i, entry in enumerate(_expect(doc["modalities"], list, "modalities", "a list")):
        _expect(entry, dict, f"modalities[{i}]", "an object")
        for key in ("name", "path", "dim"):
            if key not in entry:
                raise ValidationError(f"modality {i}: missing required field {key!r}")
        dim = _as_int(entry["dim"], f"modalities[{i}].dim")
        if dim < 1:
            raise ValidationError(f"manifest field 'modalities[{i}].dim' must be >= 1, got {dim}")
        modalities.append(ModalitySpec(
            name=str(entry["name"]),
            path=str(entry["path"]),
            dim=dim,
            normalize=_expect(entry.get("normalize", False), bool, f"modalities[{i}].normalize", "true or false"),
        ))

    fusion = _expect(doc.get("fusion") or {}, dict, "fusion", "an object")
    bgmm = _expect(doc.get("bgmm") or {}, dict, "bgmm", "an object")
    seeds = _expect(doc["seeds"], list, "seeds", "a list of integers")
    return ExperimentManifest(
        tasks=tuple(tasks),
        modalities=tuple(modalities),
        fusion_strategy=fusion.get("strategy", "concat"),
        bgmm_config=BgmmConfig.from_dict(bgmm),
        seeds=tuple(_as_int(s, f"seeds[{i}]") for i, s in enumerate(seeds)),
        output_path=str(doc["output"]),
        use_class_priors=_expect(doc.get("use_class_priors", False), bool, "use_class_priors", "true or false"),
    )


def manifest_to_dict(manifest: ExperimentManifest) -> dict:
    return {
        "tasks": [{"name": t.name, "classes": list(t.class_labels)} for t in manifest.tasks],
        "modalities": [
            {"name": m.name, "path": m.path, "dim": m.dim, "normalize": m.normalize}
            for m in manifest.modalities
        ],
        "fusion": {"strategy": manifest.fusion_strategy},
        "bgmm": manifest.bgmm_config.to_dict(),
        "seeds": list(manifest.seeds),
        "output": manifest.output_path,
        "use_class_priors": manifest.use_class_priors,
    }


# ---------------------------------------------------------------------------
# CSV loading / writing
# ---------------------------------------------------------------------------

def load_feature_table(path, expected_dim: int, modality_name: str | None = None) -> FeatureTable:
    """Load one modality CSV, checking dimensions and sample_id uniqueness.

    The whole file is parsed in one numpy call. If that fails, or yields a
    non-finite value, the file is parsed again row by row, which accepts
    every cell Python's float() accepts and otherwise names the file, line
    and column of the bad cell.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"feature file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        first_row = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file")
    if header[:3] != ["sample_id", "class", "split"]:
        raise ValidationError(f"{path}: header must start with sample_id,class,split")
    n_features = len(header) - 3
    if n_features != expected_dim:
        raise ValidationError(
            f"{path}: header declares {n_features} feature columns, expected {expected_dim}"
        )
    if first_row is None:
        raise ValidationError(f"{path}: no data rows")
    dtype = np.dtype([("sample_id", object), ("class", object), ("split", object),
                      ("values", np.float64, (expected_dim,))])
    try:
        cells = np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                           skiprows=1, ndmin=1, encoding="utf-8")
    except ValueError:
        cells = None
    if cells is None or not np.isfinite(cells["values"]).all():
        cells = _parse_rows(path, dtype)
    return FeatureTable(
        modality_name=modality_name or path.stem,
        dim=expected_dim,
        sample_ids=cells["sample_id"],
        class_labels=cells["class"],
        splits=cells["split"],
        values=cells["values"],
    )


def _parse_rows(path: Path, dtype: np.dtype) -> np.ndarray:
    """Row-by-row parse with float(); raises the file/line/column error."""
    expected_dim = dtype["values"].shape[0]
    records = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue  # blank line, skipped as np.loadtxt skips it
            if len(record) - 3 != expected_dim:
                raise ValidationError(
                    f"{path} line {line_no}: {len(record) - 3} feature values, expected {expected_dim}"
                )
            try:
                vector = [float(v) for v in record[3:]]
            except ValueError:
                bad = next(i for i, v in enumerate(record[3:]) if not _is_number(v))
                raise ValidationError(
                    f"{path} line {line_no}, column f_{bad}: non-numeric value {record[3 + bad]!r}"
                ) from None
            bad = next((i for i, v in enumerate(vector) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValidationError(
                    f"{path} line {line_no}, column f_{bad}: non-finite value {record[3 + bad]!r}"
                )
            records.append((record[0], record[1], record[2], vector))
    return np.array(records, dtype=dtype)


def _is_number(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False


def write_feature_table(table: FeatureTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "class", "split"] + [f"f_{i}" for i in range(table.dim)])
        for sample_id, label, split, vector in zip(
                table.sample_ids, table.class_labels, table.splits, table.values.tolist()):
            writer.writerow([sample_id, label, split] + [repr(v) for v in vector])


# ---------------------------------------------------------------------------
# task routing
# ---------------------------------------------------------------------------

def build_task_sequence(manifest: ExperimentManifest, tables) -> list:
    """Join modality tables on sample_id and route samples to their tasks.

    Rows keep the first (primary) table's order within every task split.
    """
    if len(tables) != len(manifest.modalities):
        raise ValidationError("one table per declared modality is required")

    primary = tables[0]
    position = {sample_id: i for i, sample_id in enumerate(primary.sample_ids)}
    aligned = [primary.values]
    for table in tables[1:]:
        missing = set(position).symmetric_difference(table.sample_ids)
        if missing:
            example = sorted(missing)[0]
            raise ValidationError(
                f"alignment error: sample {example!r} is missing from some modality table"
            )
        rows = np.empty(len(position), dtype=np.intp)  # primary row i is table row rows[i]
        rows[[position[sample_id] for sample_id in table.sample_ids]] = np.arange(len(position))
        consistent = ((table.class_labels[rows] == primary.class_labels)
                      & (table.splits[rows] == primary.splits))
        if not consistent.all():
            example = primary.sample_ids[np.argmin(consistent)]
            raise ValidationError(
                f"alignment error: sample {example!r} has inconsistent class/split across modalities"
            )
        aligned.append(table.values[rows])

    owner = manifest.class_to_task()
    task_of = np.array([owner.get(label, -1) for label in primary.class_labels], dtype=np.intp)
    if (task_of < 0).any():
        label = primary.class_labels[np.argmin(task_of)]
        raise ValidationError(f"routing error: class {label!r} appears in no task")

    names = [spec.name for spec in manifest.modalities]
    is_train = primary.splits == "train"

    def select(mask):
        return DataSplit(
            sample_ids=primary.sample_ids[mask],
            class_labels=primary.class_labels[mask],
            features={name: values[mask] for name, values in zip(names, aligned)},
        )

    batches = []
    for i, task in enumerate(manifest.tasks):
        in_task = task_of == i
        batches.append(TaskBatch(
            name=task.name,
            class_set=frozenset(task.class_labels),
            train=select(in_task & is_train),
            test=select(in_task & ~is_train),
        ))
    return batches


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

_HYPERCUBE_SIDE = 10.0
_COMPOUND_TASK_SIZE = 3


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Seeded two-modality dataset where fusion provably helps.

    Basic classes get separated means in modality A and sit at the origin
    in modality B. Each compound class is the midpoint of two basic
    parents in modality A (ambiguous there) and gets its own separated
    modality-B mean scaled by modality_bias (discriminative there).
    Returns (table_a, table_b, task_specs).
    """
    if seed < 0:
        raise ValidationError(f"synthetic seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    n_basic = config.n_basic_classes
    n_compound = config.n_compound_classes

    basic_means_a = rng.uniform(0.0, _HYPERCUBE_SIDE, size=(n_basic, config.dim_a))
    basic_names = [f"basic_{i}" for i in range(n_basic)]

    pairs = list(itertools.combinations(range(n_basic), 2))
    order = rng.permutation(len(pairs))
    chosen = [pairs[i] for i in order[:n_compound]]
    compound_names = [f"compound_{i}" for i in range(n_compound)]
    compound_means_a = np.array([
        0.5 * (basic_means_a[p] + basic_means_a[q]) for p, q in chosen
    ]).reshape(n_compound, config.dim_a)
    compound_means_b = rng.uniform(0.0, _HYPERCUBE_SIDE, size=(n_compound, config.dim_b)) \
        * config.modality_bias

    names = basic_names + compound_names
    means_a = np.vstack([basic_means_a, compound_means_a]) if n_compound else basic_means_a
    means_b = np.vstack([np.zeros((n_basic, config.dim_b)), compound_means_b]) \
        if n_compound else np.zeros((n_basic, config.dim_b))

    ids, labels, splits, clouds_a, clouds_b = [], [], [], [], []
    for c, name in enumerate(names):
        for split, count in (("train", config.samples_per_class_train),
                             ("test", config.samples_per_class_test)):
            clouds_a.append(means_a[c] + rng.normal(0.0, config.cluster_spread, (count, config.dim_a)))
            clouds_b.append(means_b[c] + rng.normal(0.0, config.cluster_spread, (count, config.dim_b)))
            ids.extend(f"{name}_{split}_{i:04d}" for i in range(count))
            labels.extend([name] * count)
            splits.extend([split] * count)

    table_a = FeatureTable("mod_a", config.dim_a, ids, labels, splits, np.vstack(clouds_a))
    table_b = FeatureTable("mod_b", config.dim_b, ids, labels, splits, np.vstack(clouds_b))

    tasks = [TaskSpec(name="basics", class_labels=tuple(basic_names))]
    for t, start in enumerate(range(0, n_compound, _COMPOUND_TASK_SIZE)):
        chunk = compound_names[start:start + _COMPOUND_TASK_SIZE]
        tasks.append(TaskSpec(name=f"compounds_{t + 1}", class_labels=tuple(chunk)))
    return table_a, table_b, tasks
