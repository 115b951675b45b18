import numpy as np
import pytest
from scipy.special import logsumexp

from clbgmm.bgmm import BgmmConfig, FittedMixture, log_likelihood_batch
from clbgmm.dataset import DataSplit, TaskBatch
from clbgmm.ensemble import (
    ClassConditionalEnsemble,
    FusionPipeline,
    derive_class_seed,
    predict_batch,
    train_task,
)
from clbgmm.errors import ValidationError


def plain_fusion(modalities=("m",)):
    return FusionPipeline(modality_order=tuple(modalities),
                          normalizers={m: None for m in modalities})


def unit_mixture(mean):
    return FittedMixture(
        weights=np.array([1.0]), means=np.array([[float(mean)]]),
        covariances=np.array([[1.0]]), covariance_type="diagonal", metadata={})


def make_split(ids, labels, matrix):
    return DataSplit(sample_ids=np.array(ids, dtype=object),
                     class_labels=np.array(labels, dtype=object),
                     features={"m": np.asarray(matrix, dtype=float)})


def make_batch(index, samples):
    ids = [sid for sid, _ in samples]
    labels = [cls for _, cls in samples]
    return TaskBatch(name=f"t{index}", class_set=frozenset(labels),
                     train=make_split(ids, labels, [[float(i)] for i in range(len(samples))]),
                     test=make_split([], [], np.empty((0, 1))))


def cluster_batch(index, classes, rng, n=40):
    ids, labels, vectors = [], [], []
    for cls, center in classes:
        for i in range(n):
            ids.append(f"{cls}_{i}")
            labels.append(cls)
            vectors.append(rng.normal(center, 0.3, size=2))
    return TaskBatch(name=f"t{index}",
                     class_set=frozenset(cls for cls, _ in classes),
                     train=make_split(ids, labels, vectors),
                     test=make_split([], [], np.empty((0, 2))))


def class_scores(ens, x):
    """Per-class log-likelihood of one point: the scores predict_batch ranks."""
    return {label: float(log_likelihood_batch(mix, np.atleast_2d(x))[0])
            for label, mix in ens.models.items()}


def predict_one(ens, x):
    return predict_batch(ens, np.atleast_2d(x))[0]


def accuracy(ens, samples):
    labels = [label for label, _ in samples]
    preds = predict_batch(ens, np.array([x for _, x in samples]))
    return sum(p == t for p, t in zip(preds, labels)) / len(labels)


class TestTrainTask:
    def test_first_task_adds_models(self):
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        train_task(ens, make_batch(1, [("a1", "A"), ("a2", "A"), ("b1", "B"), ("b2", "B")]),
                   BgmmConfig(max_components=2), seed=1)
        assert ens.class_count == 2
        assert set(ens.models) == {"A", "B"}

    def test_no_interference(self):
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        train_task(ens, make_batch(1, [("a1", "A"), ("a2", "A"), ("b1", "B"), ("b2", "B")]),
                   BgmmConfig(max_components=2), seed=1)
        before = {c: ens.models[c].to_bytes() for c in ens.models}
        train_task(ens, make_batch(2, [("c1", "C"), ("c2", "C")]),
                   BgmmConfig(max_components=2), seed=1)
        assert ens.class_count == 3
        for c, blob in before.items():
            assert ens.models[c].to_bytes() == blob

    def test_class_overlap_rejected(self):
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        train_task(ens, make_batch(1, [("a1", "A"), ("b1", "B")]),
                   BgmmConfig(max_components=2), seed=1)
        with pytest.raises(ValidationError, match="already trained"):
            train_task(ens, make_batch(2, [("b2", "B"), ("c1", "C")]),
                       BgmmConfig(max_components=2), seed=1)

    def test_models_inserted_in_first_seen_order(self):
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        train_task(ens, make_batch(1, [("b1", "B"), ("a1", "A"), ("b2", "B"), ("a2", "A")]),
                   BgmmConfig(max_components=1), seed=1)
        assert list(ens.models) == ["B", "A"]
        assert ens.class_train_counts == {"B": 2, "A": 2}

    def test_per_class_seeds_are_decorrelated(self):
        assert derive_class_seed(1, "A") != derive_class_seed(1, "B")
        assert derive_class_seed(1, "A") != derive_class_seed(2, "A")
        assert derive_class_seed(1, "A") == derive_class_seed(1, "A")


def two_class_ensemble():
    ens = ClassConditionalEnsemble(fusion=plain_fusion())
    ens.models["A"] = unit_mixture(0.0)
    ens.models["B"] = unit_mixture(10.0)
    ens.class_train_counts = {"A": 1, "B": 1}
    return ens


class TestPredict:
    def test_nearer_mean_wins(self):
        ens = two_class_ensemble()
        scores = class_scores(ens, np.array([1.0]))
        assert scores["A"] > scores["B"]
        assert predict_one(ens, np.array([1.0])) == "A"

    def test_exact_tie_goes_to_first_seen(self):
        ens = two_class_ensemble()
        scores = class_scores(ens, np.array([5.0]))
        assert scores["A"] == pytest.approx(scores["B"], abs=1e-12)
        assert predict_one(ens, np.array([5.0])) == "A"

    def test_empty_ensemble_rejected(self):
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        with pytest.raises(ValidationError, match="no trained classes"):
            predict_batch(ens, np.array([[0.0]]))

    def test_scores_match_manual_logsumexp(self):
        rng = np.random.default_rng(0)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        centers = [(f"c{i}", np.array([4.0 * i, 0.0])) for i in range(4)]
        train_task(ens, cluster_batch(1, centers, rng),
                   BgmmConfig(max_components=3), seed=5)
        points = rng.normal(2.0, 3.0, size=(200, 2))
        for x in points[:20]:
            scores = class_scores(ens, x)
            for label, mix in ens.models.items():
                manual = []
                for w, m, var in zip(mix.weights, mix.means, mix.covariances):
                    manual.append(np.log(w)
                                  - 0.5 * np.sum(np.log(2 * np.pi * var))
                                  - 0.5 * np.sum((x - m) ** 2 / var))
                assert scores[label] == pytest.approx(logsumexp(manual), abs=1e-9)
            assert predict_one(ens, x) == max(scores, key=scores.get)

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(1)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        centers = [("p", np.array([0.0, 0.0])), ("q", np.array([6.0, 6.0]))]
        train_task(ens, cluster_batch(1, centers, rng), BgmmConfig(max_components=3), seed=2)
        points = rng.normal(3.0, 4.0, size=(50, 2))
        assert predict_batch(ens, points) == [predict_one(ens, x) for x in points]

    def test_centers_classified_as_own_class(self):
        rng = np.random.default_rng(2)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        centers = [("p", np.array([0.0, 0.0])), ("q", np.array([10.0, 10.0]))]
        train_task(ens, cluster_batch(1, centers, rng), BgmmConfig(max_components=3), seed=2)
        assert predict_batch(ens, np.array([[0.0, 0.0], [10.0, 10.0]])) == ["p", "q"]

    def test_shift_invariance_of_argmax(self):
        ens = two_class_ensemble()
        x = np.array([2.0])
        scores = class_scores(ens, x)
        shifted = {c: s + 123.456 for c, s in scores.items()}
        assert max(scores, key=scores.get) == max(shifted, key=shifted.get)
        assert predict_one(ens, x) == max(scores, key=scores.get)


class TestEvaluate:
    def test_all_correct(self):
        ens = two_class_ensemble()
        assert accuracy(ens, [("A", np.array([0.0])), ("B", np.array([10.0]))]) == 1.0

    def test_adversarial_labels(self):
        ens = two_class_ensemble()
        assert accuracy(ens, [("B", np.array([0.0])), ("A", np.array([10.0]))]) == 0.0

    def test_empty_set_rejected(self):
        ens = two_class_ensemble()
        with pytest.raises(ValidationError):
            predict_batch(ens, np.empty((0, 1)))

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(3)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        centers = [(f"c{i}", rng.uniform(0, 10, size=2)) for i in range(4)]
        train_task(ens, cluster_batch(1, centers, rng), BgmmConfig(max_components=3), seed=9)
        samples = []
        for cls, center in centers:
            for _ in range(20):
                samples.append((cls, rng.normal(center, 1.0, size=2)))
        acc = accuracy(ens, samples)
        correct = sum(predict_one(ens, x) == cls for cls, x in samples)
        assert acc == correct / len(samples)


class TestClassPriors:
    def test_prior_flips_a_near_tie(self):
        ens = two_class_ensemble()
        x = np.array([[4.9]])  # A leads by 1.0 nat
        assert predict_batch(ens, x) == ["A"]
        ens.use_class_priors = True
        ens.class_train_counts = {"A": 1, "B": 3}  # B's prior adds log 3 > 1.0
        assert predict_batch(ens, x) == ["B"]


def counting_scorer(monkeypatch):
    """Replace the scorer predict_batch calls with a counting wrapper."""
    import clbgmm.ensemble as ensemble_module
    calls = []
    original = ensemble_module.log_likelihood_batch

    def counted(mix, X):
        calls.append(mix)
        return original(mix, X)

    monkeypatch.setattr(ensemble_module, "log_likelihood_batch", counted)
    return calls


class TestColumnCache:
    def three_class_ensemble(self):
        rng = np.random.default_rng(4)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        centers = [("p", np.array([0.0, 0.0])), ("q", np.array([3.0, 3.0])),
                   ("r", np.array([0.0, 3.0]))]
        train_task(ens, cluster_batch(1, centers, rng), BgmmConfig(max_components=3), seed=3)
        return ens, rng.normal(1.5, 2.0, size=(60, 2))

    def test_partial_cache_scores_only_missing_classes(self, monkeypatch):
        ens, points = self.three_class_ensemble()
        expected = predict_batch(ens, points)
        first = log_likelihood_batch(ens.models["p"], points)
        columns = [first]
        calls = counting_scorer(monkeypatch)
        assert predict_batch(ens, points, columns) == expected
        assert calls == [ens.models["q"], ens.models["r"]]
        assert len(columns) == 3 and columns[0] is first

    def test_full_cache_scores_nothing(self, monkeypatch):
        ens, points = self.three_class_ensemble()
        columns = []
        expected = predict_batch(ens, points, columns)
        calls = counting_scorer(monkeypatch)
        assert predict_batch(ens, points, columns) == expected
        assert calls == []

    def test_priors_are_not_cached(self):
        ens = two_class_ensemble()
        x = np.array([[4.9]])
        columns = []
        assert predict_batch(ens, x, columns) == ["A"]
        ens.use_class_priors = True
        ens.class_train_counts = {"A": 1, "B": 3}
        assert predict_batch(ens, x, columns) == ["B"]
        assert [c[0] for c in columns] == [float(log_likelihood_batch(ens.models[c], x)[0])
                                            for c in ("A", "B")]

    def test_too_many_columns_rejected(self):
        ens = two_class_ensemble()
        x = np.array([[1.0], [2.0]])
        with pytest.raises(ValidationError, match="column cache"):
            predict_batch(ens, x, [np.zeros(2)] * 3)

    def test_column_of_wrong_length_rejected(self):
        ens = two_class_ensemble()
        x = np.array([[1.0], [2.0]])
        with pytest.raises(ValidationError, match="column cache"):
            predict_batch(ens, x, [np.zeros(3)])


class TestFitWarnings:
    def warnings_for(self, caplog, config, batch=None):
        rng = np.random.default_rng(5)
        ens = ClassConditionalEnsemble(fusion=plain_fusion())
        if batch is None:
            batch = cluster_batch(1, [("p", np.array([0.0, 0.0])),
                                      ("q", np.array([6.0, 6.0]))], rng)
        with caplog.at_level("WARNING", logger="clbgmm"):
            train_task(ens, batch, config, seed=1)
        return [r for r in caplog.records if r.name == "clbgmm"]

    def test_unconverged_fit_warns_with_class_and_iterations(self, caplog):
        records = self.warnings_for(caplog, BgmmConfig(max_components=3, max_iterations=2))
        messages = [r.getMessage() for r in records]
        assert messages == [f"class {c!r}: fit did not converge in 2 iterations"
                            for c in ("p", "q")]
        assert all(r.levelname == "WARNING" for r in records)

    def test_all_pruned_fallback_warns(self, caplog):
        # class "b" has two equal clusters, so no component reaches weight 0.9
        rng = np.random.default_rng(6)
        vectors = np.vstack([rng.normal(0.0, 0.3, size=(40, 2)),
                             rng.normal(8.0, 0.3, size=(40, 2))])
        ids = [f"b{i}" for i in range(80)]
        batch = TaskBatch(name="t1", class_set=frozenset({"b"}),
                          train=make_split(ids, ["b"] * 80, vectors),
                          test=make_split([], [], np.empty((0, 2))))
        config = BgmmConfig(max_components=2, prune_threshold=0.9)
        messages = [r.getMessage() for r in self.warnings_for(caplog, config, batch)]
        assert len(messages) == 1
        assert messages[0].startswith("class 'b': every component fell below prune_threshold")

    def test_converged_fit_is_silent(self, caplog):
        assert self.warnings_for(caplog, BgmmConfig(max_components=3)) == []
