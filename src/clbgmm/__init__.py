"""Exemplar-free class-incremental learning with class-conditional
Bayesian Gaussian mixtures over fused multimodal features."""

from .bgmm import (
    BgmmConfig,
    FittedMixture,
    VariationalState,
    fit,
    log_likelihood_batch,
)
from .dataset import (
    DataSplit,
    ExperimentManifest,
    FeatureTable,
    SyntheticConfig,
    TaskBatch,
    TaskSpec,
    build_task_sequence,
    generate_synthetic,
    load_feature_table,
    parse_manifest,
)
from .ensemble import (
    ClassConditionalEnsemble,
    FusionPipeline,
    predict_batch,
    train_task,
)
from .errors import ClbgmmError, NumericalError, ValidationError
from .fusion import MinMaxNormalizer, apply_normalizer, fit_normalizer, fuse
from .metrics import (
    AccuracyMatrix,
    MetricsReport,
    average_accuracy,
    average_incremental_accuracy,
    compute_report,
    final_accuracies,
    forgetting,
    forgetting_measure,
    intransigence,
    relative_evolution,
)
from .protocol import (
    AggregateResult,
    RunResult,
    multi_seed,
    oracle_union_accuracy,
    run_continual,
    train_joint_reference,
)

__version__ = "0.1.0"
