import json

import numpy as np
import pytest

from clbgmm.bgmm import BgmmConfig
from clbgmm.dataset import (
    ExperimentManifest,
    FeatureTable,
    ModalitySpec,
    SyntheticConfig,
    TaskSpec,
    build_task_sequence,
    generate_synthetic,
    manifest_to_dict,
)
from clbgmm.ensemble import ClassConditionalEnsemble, predict_batch
from clbgmm.errors import ValidationError
from clbgmm.protocol import (
    aggregate,
    load_run_result,
    multi_seed,
    oracle_union_accuracy,
    run_continual,
    save_aggregate,
    save_run_result,
    train_joint_reference,
)


def synthetic_setup(n_basic=4, n_compound=4, seed=5, spread=1.0, bias=1.0,
                    seeds=(1,), tasks=None, max_components=5):
    config = SyntheticConfig(
        n_basic_classes=n_basic, n_compound_classes=n_compound,
        dim_a=2, dim_b=2, samples_per_class_train=30, samples_per_class_test=10,
        cluster_spread=spread, modality_bias=bias)
    ta, tb, task_specs = generate_synthetic(config, seed)
    manifest = ExperimentManifest(
        tasks=tuple(tasks if tasks is not None else task_specs),
        modalities=(ModalitySpec("mod_a", "", 2, True),
                    ModalitySpec("mod_b", "", 2, False)),
        fusion_strategy="concat",
        bgmm_config=BgmmConfig(max_components=max_components),
        seeds=tuple(seeds),
        output_path="out")
    return manifest, [ta, tb]


class TestRunContinual:
    def test_single_task_matrix(self):
        manifest, tables = synthetic_setup(n_basic=3, n_compound=0)
        result = run_continual(manifest, tables, seed=1, compute_joint_reference=False)
        assert result.matrix.n_tasks == 1
        assert result.metrics().aa[0] == result.matrix.get(1, 1)

    def test_separable_clusters_high_accuracy(self):
        manifest, tables = synthetic_setup(n_basic=2, n_compound=1, spread=0.05)
        result = run_continual(manifest, tables, seed=1, compute_joint_reference=False)
        for row in result.matrix.to_list():
            assert all(v >= 0.95 for v in row)

    def test_six_task_triangle_shape(self):
        manifest, tables = synthetic_setup(n_basic=5, n_compound=10)
        assert len(manifest.tasks) == 5  # basics + 4 compound chunks of <=3
        manifest, tables = synthetic_setup(n_basic=6, n_compound=15)
        result = run_continual(manifest, tables, seed=2, compute_joint_reference=False)
        rows = result.matrix.to_list()
        assert len(rows) == 6
        assert sum(len(r) for r in rows) == 21

    def test_earlier_rows_unchanged_by_extra_tasks(self):
        manifest, tables = synthetic_setup(n_basic=4, n_compound=4)
        full = run_continual(manifest, tables, seed=3, compute_joint_reference=False)
        truncated = ExperimentManifest(
            tasks=manifest.tasks[:2], modalities=manifest.modalities,
            fusion_strategy="concat", bgmm_config=manifest.bgmm_config,
            seeds=manifest.seeds, output_path="out")
        # drop samples of the removed tasks so routing stays total
        kept = {c for t in truncated.tasks for c in t.class_labels}
        small = []
        for t in tables:
            keep = np.array([c in kept for c in t.class_labels])
            small.append(FeatureTable(t.modality_name, t.dim, t.sample_ids[keep],
                                      t.class_labels[keep], t.splits[keep], t.values[keep]))
        part = run_continual(truncated, small, seed=3, compute_joint_reference=False)
        assert part.matrix.to_list() == full.matrix.to_list()[:2]


def uneven_train_tables(tables, kept=lambda i: (30, 20, 10)[i % 3]):
    """Keep kept(i) training rows of class i (by default 30, 20, 10, 30,
    ...), so the class priors differ."""
    classes = list(dict.fromkeys(tables[0].class_labels))
    quota = {c: kept(i) for i, c in enumerate(classes)}
    seen = {c: 0 for c in classes}
    keep = []
    for label, split in zip(tables[0].class_labels, tables[0].splits):
        if split == "train":
            seen[label] += 1
            keep.append(seen[label] <= quota[label])
        else:
            keep.append(True)
    keep = np.array(keep)
    return [FeatureTable(t.modality_name, t.dim, t.sample_ids[keep], t.class_labels[keep],
                         t.splits[keep], t.values[keep]) for t in tables]


class TestCachedScoring:
    def test_each_class_scored_once_per_test_set(self, monkeypatch):
        import clbgmm.ensemble as ensemble_module
        calls = []
        original = ensemble_module.log_likelihood_batch
        monkeypatch.setattr(ensemble_module, "log_likelihood_batch",
                            lambda mix, X: calls.append(mix) or original(mix, X))
        manifest, tables = synthetic_setup(n_basic=4, n_compound=6)
        result = run_continual(manifest, tables, seed=2, compute_joint_reference=False)
        n_tasks = result.matrix.n_tasks
        n_classes = result.ensemble.class_count
        assert n_tasks == 3 and n_classes == 10
        assert len(calls) == n_tasks * n_classes

    def test_priors_match_uncached_truncated_ensembles(self):
        manifest, tables = synthetic_setup(n_basic=4, n_compound=6, spread=2.0)
        manifest = ExperimentManifest(
            tasks=manifest.tasks, modalities=manifest.modalities,
            fusion_strategy="concat", bgmm_config=manifest.bgmm_config,
            seeds=manifest.seeds, output_path="out", use_class_priors=True)
        tables = uneven_train_tables(tables)
        result = run_continual(manifest, tables, seed=3, compute_joint_reference=False)
        ens = result.ensemble
        assert ens.use_class_priors and len(set(ens.class_train_counts.values())) == 3
        batches = build_task_sequence(manifest, tables)
        test_sets = [(b.test.sample_ids, b.test.class_labels,
                      ens.fusion.transform(b.test.features)) for b in batches]
        seen = []
        for k, batch in enumerate(batches, start=1):
            seen += [c for c in ens.models if c in batch.class_set]
            truncated = ClassConditionalEnsemble(
                fusion=ens.fusion, use_class_priors=True,
                models={c: ens.models[c] for c in seen},
                class_train_counts={c: ens.class_train_counts[c] for c in seen})
            expected = []
            for j, (ids, labels, matrix) in enumerate(test_sets[:k], start=1):
                preds = predict_batch(truncated, matrix)
                accuracy = sum(p == t for p, t in zip(preds, labels)) / len(labels)
                assert result.matrix.get(k, j) == accuracy
                expected.extend(zip(ids, labels, preds))
        assert list(zip(result.sample_ids, result.truth, result.predicted)) == expected


class TestJointReference:
    @pytest.mark.parametrize("covariance_type", ["diagonal", "full"])
    @pytest.mark.parametrize("use_class_priors", [False, True])
    def test_independent_refit_equals_diagonal(self, covariance_type, use_class_priors):
        manifest, tables = synthetic_setup(spread=2.0)
        manifest = ExperimentManifest(
            tasks=manifest.tasks, modalities=manifest.modalities, fusion_strategy="concat",
            bgmm_config=BgmmConfig(max_components=5, covariance_type=covariance_type),
            seeds=manifest.seeds, output_path="out", use_class_priors=use_class_priors)
        tables = uneven_train_tables(tables, lambda i: 30 - 7 * i % 15)  # drop 0..14 rows
        result = run_continual(manifest, tables, seed=9, compute_joint_reference=False)
        assert len(set(result.ensemble.class_train_counts.values())) == 8
        for k in range(1, result.matrix.n_tasks + 1):
            assert train_joint_reference(manifest, tables, k, seed=9) == result.matrix.get(k, k)

    def test_no_refit_and_one_routing_pass(self, monkeypatch):
        import clbgmm.ensemble as ensemble_module
        import clbgmm.protocol as protocol_module
        fits, routes = [], []
        fit, route = ensemble_module.fit, protocol_module.build_task_sequence
        monkeypatch.setattr(ensemble_module, "fit",
                            lambda *a: fits.append(1) or fit(*a))
        monkeypatch.setattr(protocol_module, "build_task_sequence",
                            lambda *a: routes.append(1) or route(*a))
        manifest, tables = synthetic_setup()
        counts = {}
        for joint in (False, True):
            fits.clear()
            routes.clear()
            result = run_continual(manifest, tables, seed=4, compute_joint_reference=joint)
            counts[joint] = (len(fits), len(routes))
        assert result.matrix.n_tasks == 3
        assert counts[True] == counts[False] == (result.ensemble.class_count, 1)

    def test_k1_matches_continual_diagonal(self):
        manifest, tables = synthetic_setup()
        result = run_continual(manifest, tables, seed=4, compute_joint_reference=False)
        a_star = train_joint_reference(manifest, tables, 1, seed=4)
        assert a_star == result.matrix.get(1, 1)

    def test_im_zero_for_all_k(self):
        manifest, tables = synthetic_setup()
        result = run_continual(manifest, tables, seed=5)
        for k in range(1, result.matrix.n_tasks + 1):
            assert result.joint_reference_accuracies[k - 1] == result.matrix.get(k, k)
        assert all(v == 0.0 for v in result.metrics().im)

    def test_value_in_range(self):
        manifest, tables = synthetic_setup()
        a_star = train_joint_reference(manifest, tables, 3, seed=6)
        assert 0.0 <= a_star <= 1.0

    def test_k_out_of_range(self):
        manifest, tables = synthetic_setup()
        with pytest.raises(ValidationError):
            train_joint_reference(manifest, tables, 99, seed=1)


class TestOracleUnion:
    def test_overlapping_correctness(self):
        truth = ["a", "b", "c", "d"]
        preds_a = ["a", "b", "x", "x"]
        preds_b = ["x", "b", "c", "x"]
        assert oracle_union_accuracy(preds_a, preds_b, truth) == 0.75

    def test_absorption(self):
        truth = ["a", "b", "c"]
        assert oracle_union_accuracy(truth, ["x", "x", "x"], truth) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            oracle_union_accuracy(["a"], ["a", "b"], ["a", "b"])

    def test_empty_lists_rejected(self):
        with pytest.raises(ValidationError, match="^empty prediction lists$"):
            oracle_union_accuracy([], [], [])

    def test_dominates_individual_accuracies(self):
        manifest, tables = synthetic_setup()
        result = run_continual(manifest, tables, seed=7, compute_joint_reference=False)
        truth, preds = result.truth, result.predicted
        acc = sum(p == t for p, t in zip(preds, truth)) / len(truth)
        union = oracle_union_accuracy(preds, preds, truth)
        assert union == pytest.approx(acc)


class TestMultiSeed:
    def test_single_seed_zero_std(self):
        manifest, tables = synthetic_setup(seeds=(1,))
        _, agg = multi_seed(manifest, tables, compute_joint_reference=False)
        assert agg.metric_stds["final_micro_accuracy"] == 0.0

    def test_identical_seeds_zero_std(self):
        # a manifest cannot list a seed twice, so the two runs are made directly
        manifest, tables = synthetic_setup(seeds=(1,))
        results = [run_continual(manifest, tables, 1, compute_joint_reference=False)
                   for _ in range(2)]
        agg = aggregate(results)
        assert results[0].matrix.to_list() == results[1].matrix.to_list()
        assert all(s == 0.0 for s in agg.metric_stds["AA"])

    def test_mean_within_min_max(self):
        manifest, tables = synthetic_setup(seeds=(1, 2, 3, 4, 5))
        results, agg = multi_seed(manifest, tables, compute_joint_reference=False)
        finals = [r.metrics().final_micro_accuracy for r in results]
        assert min(finals) <= agg.metric_means["final_micro_accuracy"] <= max(finals)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        manifest, tables = synthetic_setup()
        result = run_continual(manifest, tables, seed=8)
        path = tmp_path / "run.json"
        save_run_result(result, path)
        back = load_run_result(path)
        doc = json.loads(path.read_text())
        assert "normalizer" not in doc
        # the run and its file hold the final predictions only, as columns,
        # and no per-class counts
        assert "per_class_correct" not in doc and "per_task_predictions" not in doc
        assert result.matrix.n_tasks > 1
        assert len(result.sample_ids) == len(result.truth) == len(result.predicted) \
            == sum(result.per_task_test_sizes)
        classes = [c for task in manifest.tasks for c in task.class_labels]
        assert doc["predictions"] == {
            "sample_ids": result.sample_ids.tolist(),
            "truth": [classes.index(label) for label in result.truth],
            "predicted": [classes.index(label) for label in result.predicted]}
        for name in ("sample_ids", "truth", "predicted"):
            assert getattr(back, name).dtype == object
            assert getattr(back, name).tolist() == getattr(result, name).tolist()
        assert back.per_class_correct() == result.per_class_correct()
        # the config is the manifest, stated once: the ensembles do not repeat it
        assert back.manifest == manifest
        assert back.to_dict()["config"] == doc["config"] == manifest_to_dict(manifest)
        assert "use_class_priors" not in doc["ensembles"]
        assert set(doc["ensembles"]["fusion"]) == {"normalizers"}
        assert back.ensemble.fusion.to_dict() == result.ensemble.fusion.to_dict()
        assert list(back.ensemble.fusion.normalizers) == list(result.ensemble.fusion.normalizers) \
            == [spec.name for spec in manifest.modalities]
        assert back.ensemble.use_class_priors == manifest.use_class_priors
        assert back.matrix.to_list() == result.matrix.to_list()
        assert back.metrics().to_dict() == result.metrics().to_dict()
        for label, mix in result.ensemble.models.items():
            assert back.ensemble.models[label].to_bytes() == mix.to_bytes()

    def test_multi_task_result_equals_its_reloaded_file(self, tmp_path):
        manifest, tables = synthetic_setup(n_basic=4, n_compound=6)
        result = run_continual(manifest, tables, seed=3)
        assert result.matrix.n_tasks > 1
        path = tmp_path / "run.json"
        save_run_result(result, path)
        assert load_run_result(path).to_dict() == result.to_dict()

    def test_per_class_correct_counts_final_row(self):
        manifest, tables = synthetic_setup(n_basic=3, n_compound=2, spread=3.0)
        result = run_continual(manifest, tables, seed=2, compute_joint_reference=False)
        counts = result.per_class_correct()
        final = list(zip(result.truth, result.predicted))
        assert list(counts) == list(dict.fromkeys(t for t, _ in final))
        for label, n_correct in counts.items():
            assert n_correct == sum(1 for t, p in final if t == label and p == t)
        assert 0 < sum(counts.values()) < len(final)  # some right, some wrong

    def test_run_file_compact_and_aggregate_indented(self, tmp_path):
        manifest, tables = synthetic_setup(seeds=(1, 2))
        results, agg = multi_seed(manifest, tables)
        save_run_result(results[0], tmp_path / "run.json")
        save_aggregate(agg, tmp_path / "agg.json")
        text = (tmp_path / "run.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        # the benchmark runner writes its aggregate with exactly this encoding
        assert (tmp_path / "agg.json").read_text(encoding="utf-8") == (
            json.dumps(agg.to_dict(), sort_keys=True, indent=1) + "\n")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed"):
            load_run_result(path)

    def test_decode_error_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,\n "task_names": [,]}', encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_run_result(path)
        assert str(info.value) == (f"malformed results file {path} line 2 column 17: "
                                   "Expecting value")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_run_result(tmp_path / "absent.json")


class TestAggregate:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])

    @pytest.mark.parametrize("joint", [False, True])
    def test_series_and_scalars_across_seeds(self, joint):
        manifest, tables = synthetic_setup(seeds=(1, 2, 3))
        results, agg = multi_seed(manifest, tables, compute_joint_reference=joint)
        reports = [r.metrics().to_dict() for r in results]
        t = results[0].matrix.n_tasks
        assert t > 1 and agg.seeds == [1, 2, 3]
        assert list(agg.metric_means) == list(agg.metric_stds) == list(reports[0])
        assert agg.metric_means["FM"][0] is None and agg.metric_stds["FM"][0] is None
        if not joint:
            assert agg.metric_means["IM"] == agg.metric_stds["IM"] == [None] * t
        for name in ("AA", "AIA", "FM", "IM"):
            assert len(agg.metric_means[name]) == len(agg.metric_stds[name]) == t
            for k in range(1 if name == "FM" else 0, t if joint or name != "IM" else 0):
                values = np.array([rep[name][k] for rep in reports])
                assert agg.metric_means[name][k] == float(values.mean())
                assert agg.metric_stds[name][k] == float(values.std(ddof=1))
        for name in ("final_macro_accuracy", "final_micro_accuracy"):
            values = np.array([rep[name] for rep in reports])
            assert agg.metric_means[name] == float(values.mean())
            assert agg.metric_stds[name] == float(values.std(ddof=1))
