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
    load_feature_table,
    parse_manifest,
    write_feature_table,
)
from clbgmm.errors import ValidationError

MINIMAL = {
    "tasks": [{"name": "t1", "classes": ["A"]}],
    "modalities": [{"name": "m", "path": "m.csv", "dim": 2, "normalize": True}],
    "fusion": {"strategy": "concat"},
    "seeds": [1],
    "output": "out",
}

CFEE_TASKS = [
    {"name": "basics", "classes": ["neutral", "happy", "sad", "fear", "angry", "surprise", "disgust"]},
    {"name": "compound_joy", "classes": ["happily_surprised", "happily_disgusted", "awed"]},
    {"name": "compound_sadness", "classes": ["sadly_fearful", "sadly_angry", "sadly_surprised", "sadly_disgusted"]},
    {"name": "compound_fear", "classes": ["fearfully_angry", "fearfully_surprised", "fearfully_disgusted"]},
    {"name": "compound_anger", "classes": ["angrily_surprised", "angrily_disgusted", "hatred"]},
    {"name": "compound_disgust", "classes": ["disgustedly_surprised", "appalled"]},
]


class TestParseManifest:
    def test_minimal_manifest(self):
        man = parse_manifest(json.dumps(MINIMAL))
        assert len(man.tasks) == 1
        assert man.tasks[0].class_labels == ("A",)
        assert man.modalities[0].normalize is True
        assert man.seeds == (1,)

    def test_duplicate_class_across_tasks(self):
        doc = dict(MINIMAL)
        doc["tasks"] = [
            {"name": "t1", "classes": ["awed"]},
            {"name": "t2", "classes": ["awed"]},
        ]
        with pytest.raises(ValidationError, match="class appears in multiple tasks.*awed"):
            parse_manifest(json.dumps(doc))

    def test_duplicate_seed_named(self):
        doc = dict(MINIMAL, seeds=[1, 2, 1])
        with pytest.raises(ValidationError, match="seed 1 is listed more than once"):
            parse_manifest(json.dumps(doc))

    def test_duplicate_task_name_named(self):
        doc = dict(MINIMAL, tasks=[{"name": "t1", "classes": ["A"]}, {"name": "t1", "classes": ["B"]}])
        with pytest.raises(ValidationError, match="task name 't1' is declared more than once"):
            parse_manifest(json.dumps(doc))

    def test_dim_below_one_named(self):
        doc = dict(MINIMAL, modalities=[dict(MINIMAL["modalities"][0], dim=0)])
        with pytest.raises(ValidationError, match=r"'modalities\[0\]\.dim' must be >= 1, got 0"):
            parse_manifest(json.dumps(doc))

    def test_cfee_task_grouping(self):
        doc = dict(MINIMAL)
        doc["tasks"] = CFEE_TASKS
        man = parse_manifest(json.dumps(doc))
        assert [t.name for t in man.tasks] == [t["name"] for t in CFEE_TASKS]
        assert [len(t.class_labels) for t in man.tasks] == [7, 3, 4, 3, 3, 2]

    def test_syntax_error_reports_position(self):
        with pytest.raises(ValidationError, match="line"):
            parse_manifest("{not json")

    def test_missing_field_named(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "seeds"}
        with pytest.raises(ValidationError, match="seeds"):
            parse_manifest(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("seeds", [1.5]), ("seeds", [True]), ("seeds", ["1"]), ("dim", 2.9), ("dim", "2"),
    ])
    def test_integer_field_is_not_truncated_or_cast(self, field, value):
        doc = json.loads(json.dumps(MINIMAL))
        if field == "seeds":
            doc["seeds"] = value
        else:
            doc["modalities"][0]["dim"] = value
        with pytest.raises(ValidationError, match=rf"{field}.*must be an integer"):
            parse_manifest(json.dumps(doc))


class TestLoadFeatureTable:
    def write_csv(self, tmp_path, lines):
        path = tmp_path / "feat.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_three_rows_two_features(self, tmp_path):
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0,f_1",
            "s1,A,train,0.5,1.5",
            "s2,A,test,0.1,0.2",
            "s3,B,train,1.0,2.0",
        ])
        table = load_feature_table(path, expected_dim=2)
        assert len(table.sample_ids) == 3
        assert table.values[0].tolist() == [0.5, 1.5]
        assert table.sample_ids.tolist() == ["s1", "s2", "s3"]
        assert table.class_labels.tolist() == ["A", "A", "B"]
        assert table.splits.tolist() == ["train", "test", "train"]

    def test_dimension_mismatch(self, tmp_path):
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0",
            "s1,A,train,0.5",
        ])
        with pytest.raises(ValidationError, match="expected 2"):
            load_feature_table(path, expected_dim=2)

    def test_au_shaped_header(self, tmp_path):
        header = "sample_id,class,split," + ",".join(f"f_{i}" for i in range(17))
        path = self.write_csv(tmp_path, [header, "s1,A,train," + ",".join(["0.1"] * 17)])
        table = load_feature_table(path, expected_dim=17)
        assert table.dim == 17

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0,f_1",
            "s1,A,train,0.5,oops",
        ])
        with pytest.raises(ValidationError, match="line 2.*f_1"):
            load_feature_table(path, expected_dim=2)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_rejected(self, tmp_path, split, cell):
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0,f_1",
            "s1,A,train,0.5,1.5",
            f"s2,A,{split},0.1,{cell}",
        ])
        with pytest.raises(ValidationError, match=f"line 3, column f_1: non-finite value '{cell}'"):
            load_feature_table(path, expected_dim=2)

    def test_cells_python_float_accepts(self, tmp_path):
        # quoted fields parse in one pass; 1_0 only through the row-by-row fallback
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0,f_1",
            '"s,1",A,train,"2.5",1_0',
        ])
        table = load_feature_table(path, expected_dim=2)
        assert table.sample_ids.tolist() == ["s,1"]
        assert table.values.tolist() == [[2.5, 10.0]]

    def test_header_only_file_rejected(self, tmp_path):
        path = self.write_csv(tmp_path, ["sample_id,class,split,f_0"])
        with pytest.raises(ValidationError, match="feat.csv: no data rows"):
            load_feature_table(path, expected_dim=1)

    def test_duplicate_sample_id(self, tmp_path):
        path = self.write_csv(tmp_path, [
            "sample_id,class,split,f_0",
            "s1,A,train,0.5",
            "s1,A,test,0.6",
        ])
        with pytest.raises(ValidationError, match="duplicate"):
            load_feature_table(path, expected_dim=1)

    def test_roundtrip_via_writer(self, tmp_path):
        table = FeatureTable("m", 2, [f"s{i}" for i in range(3)], ["A"] * 3, ["train"] * 3,
                             np.array([[0.125 * i, -1.5] for i in range(3)]))
        write_feature_table(table, tmp_path / "out.csv")
        back = load_feature_table(tmp_path / "out.csv", expected_dim=2, modality_name="m")
        assert np.array_equal(table.values, back.values)
        assert back.sample_ids.tolist() == table.sample_ids.tolist()


def make_manifest(tasks, modalities):
    return ExperimentManifest(
        tasks=tuple(tasks), modalities=tuple(modalities),
        fusion_strategy="concat", bgmm_config=BgmmConfig(),
        seeds=(1,), output_path="out")


def single_modality_table(samples):
    ids, classes, splits, vectors = zip(*samples)
    return FeatureTable("m", len(vectors[0]), ids, classes, splits, np.asarray(vectors, dtype=float))


class TestBuildTaskSequence:
    def test_direct_routing(self):
        table = single_modality_table([
            ("a1", "A", "train", [0.0]), ("a2", "A", "test", [0.1]),
            ("b1", "B", "train", [1.0]), ("b2", "B", "test", [1.1]),
            ("c1", "C", "train", [2.0]), ("c2", "C", "test", [2.1]),
        ])
        man = make_manifest(
            [TaskSpec("t1", ("A", "B")), TaskSpec("t2", ("C",))],
            [ModalitySpec("m", "", 1, False)])
        batches = build_task_sequence(man, [table])
        assert [len(b.train.sample_ids) for b in batches] == [2, 1]
        assert [len(b.test.sample_ids) for b in batches] == [2, 1]
        assert batches[0].test.sample_ids.tolist() == ["a2", "b2"]
        assert batches[0].test.features["m"].tolist() == [[0.1], [1.1]]

    def test_unrouted_class_is_error(self):
        table = single_modality_table([("d1", "D", "train", [0.0])])
        man = make_manifest([TaskSpec("t1", ("A",))], [ModalitySpec("m", "", 1, False)])
        with pytest.raises(ValidationError, match="routing error.*'D'"):
            build_task_sequence(man, [table])

    def test_misaligned_modalities(self):
        t1 = single_modality_table([("s1", "A", "train", [0.0])])
        t2 = single_modality_table([("s2", "A", "train", [0.0])])
        man = make_manifest([TaskSpec("t1", ("A",))],
                            [ModalitySpec("m1", "", 1, False), ModalitySpec("m2", "", 1, False)])
        with pytest.raises(ValidationError, match="alignment"):
            build_task_sequence(man, [t1, t2])

    def test_inconsistent_class_across_modalities(self):
        t1 = single_modality_table([("s1", "A", "train", [0.0])])
        t2 = single_modality_table([("s1", "B", "train", [0.0])])
        man = make_manifest([TaskSpec("t1", ("A", "B"))],
                            [ModalitySpec("m1", "", 1, False), ModalitySpec("m2", "", 1, False)])
        with pytest.raises(ValidationError, match="inconsistent"):
            build_task_sequence(man, [t1, t2])

    def test_cfee_shaped_counts(self):
        samples = []
        for spec in CFEE_TASKS:
            for cls in spec["classes"]:
                samples.append((f"{cls}_tr", cls, "train", [0.0]))
                samples.append((f"{cls}_te", cls, "test", [0.0]))
        table = single_modality_table(samples)
        man = make_manifest(
            [TaskSpec(t["name"], tuple(t["classes"])) for t in CFEE_TASKS],
            [ModalitySpec("m", "", 1, False)])
        batches = build_task_sequence(man, [table])
        assert [len(b.class_set) for b in batches] == [7, 3, 4, 3, 3, 2]

    def test_every_sample_routed_exactly_once(self):
        config = SyntheticConfig(n_basic_classes=3, n_compound_classes=2,
                                 samples_per_class_train=4, samples_per_class_test=2)
        ta, tb, tasks = generate_synthetic(config, seed=0)
        man = make_manifest(tasks, [ModalitySpec("mod_a", "", 2, False),
                                    ModalitySpec("mod_b", "", 2, False)])
        batches = build_task_sequence(man, [ta, tb])
        routed = [sid for b in batches for split in (b.train, b.test) for sid in split.sample_ids]
        assert sorted(routed) == sorted(ta.sample_ids)

    def test_modalities_joined_by_sample_id(self):
        t1 = single_modality_table([("s1", "A", "train", [1.0]), ("s2", "A", "test", [2.0])])
        t2 = single_modality_table([("s2", "A", "test", [20.0]), ("s1", "A", "train", [10.0])])
        man = make_manifest([TaskSpec("t1", ("A",))],
                            [ModalitySpec("m1", "", 1, False), ModalitySpec("m2", "", 1, False)])
        (batch,) = build_task_sequence(man, [t1, t2])
        assert batch.train.features["m2"].tolist() == [[10.0]]
        assert batch.test.features["m2"].tolist() == [[20.0]]


class TestGenerateSynthetic:
    def test_row_counts_and_single_task(self):
        config = SyntheticConfig(n_basic_classes=2, n_compound_classes=0,
                                 dim_a=2, dim_b=2,
                                 samples_per_class_train=5, samples_per_class_test=5)
        ta, tb, tasks = generate_synthetic(config, seed=7)
        assert ta.values.shape == tb.values.shape == (20, 2)
        assert len(tasks) == 1

    def test_determinism(self):
        config = SyntheticConfig(n_basic_classes=3, n_compound_classes=3)
        a1, b1, t1 = generate_synthetic(config, seed=7)
        a2, b2, t2 = generate_synthetic(config, seed=7)
        for x, y in ((a1, a2), (b1, b2)):
            assert x.sample_ids.tolist() == y.sample_ids.tolist()
            assert np.array_equal(x.values, y.values)
        assert t1 == t2

    def test_too_many_compounds(self):
        with pytest.raises(ValidationError, match="too many compound"):
            SyntheticConfig(n_basic_classes=3, n_compound_classes=100)

    def test_negative_seed_named(self):
        config = SyntheticConfig(n_basic_classes=2, n_compound_classes=0)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            generate_synthetic(config, seed=-1)

    def test_compound_means_are_parent_midpoints(self):
        config = SyntheticConfig(n_basic_classes=4, n_compound_classes=4,
                                 cluster_spread=0.01,
                                 samples_per_class_train=200, samples_per_class_test=10)
        ta, _, _ = generate_synthetic(config, seed=3)
        train = ta.splits == "train"
        means = {c: ta.values[train & (ta.class_labels == c)].mean(axis=0)
                 for c in set(ta.class_labels)}
        basics = [means[c] for c in sorted(means) if c.startswith("basic")]
        for c in sorted(means):
            if c.startswith("compound"):
                # empirical mean sits at the midpoint of some basic pair
                best = min(
                    np.linalg.norm(means[c] - 0.5 * (basics[i] + basics[j]))
                    for i in range(len(basics)) for j in range(i + 1, len(basics)))
                assert best < 0.05
