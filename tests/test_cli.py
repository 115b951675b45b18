import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import clbgmm
from clbgmm.cli import main
from clbgmm.dataset import load_feature_table, parse_manifest
from clbgmm.protocol import load_run_result, run_continual, save_run_result


def read(path):
    return Path(path).read_bytes()


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out), "--basic", "3", "--compound", "2",
                 "--per-class-train", "20", "--per-class-test", "8", "--seed", "1"])
    assert code == 0
    return out


class TestSynth:
    def test_creates_three_files_deterministically(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
        blobs = {p.name: read(p) for p in out.iterdir()}
        assert set(blobs) == {"mod_a.csv", "mod_b.csv", "manifest.json"}
        assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
        for p in out.iterdir():
            assert read(p) == blobs[p.name]

    def test_too_many_compounds_exits_2(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "d"),
                     "--basic", "3", "--compound", "100"])
        assert code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_cfee_shaped_class_count(self, tmp_path):
        out = tmp_path / "cfee"
        assert main(["synth", "--out", str(out), "--basic", "7", "--compound", "15",
                     "--seed", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        classes = [c for t in manifest["tasks"] for c in t["classes"]]
        assert len(classes) == 22


# field named in the error -> a change that gives it the wrong shape
MALFORMED_MANIFESTS = {
    "seeds": lambda m: m.__setitem__("seeds", ["x"]),
    "dim": lambda m: m["modalities"][0].__setitem__("dim", "x"),
    "tasks": lambda m: m.__setitem__("tasks", 5),
    "max_components": lambda m: m.__setitem__("bgmm", {"max_components": "x"}),
    "bogus": lambda m: m.__setitem__("bgmm", {"bogus": 1}),
    "fusion": lambda m: m.__setitem__("fusion", "concat"),
    "classes": lambda m: m["tasks"][0].__setitem__("classes", "basic_0"),
    "normalize": lambda m: m["modalities"][1].__setitem__("normalize", "false"),
    "use_class_priors": lambda m: m.__setitem__("use_class_priors", "false"),
    # dim 0 on a CSV without feature columns failed later, in the fit
    "modalities[0].dim": lambda m: m["modalities"][0].__setitem__("dim", 0),
    # a repeated task name wrote two columns under one name in `report`
    "task name": lambda m: m["tasks"][1].__setitem__("name", m["tasks"][0]["name"]),
}


class TestRun:
    def test_produces_triangle(self, synth_dir):
        assert main(["run", "--manifest", str(synth_dir / "manifest.json")]) == 0
        result = json.loads(Path(str(synth_dir / "results") + "_seed1.json").read_text())
        rows = result["accuracy_matrix"]
        assert [len(r) for r in rows] == list(range(1, len(rows) + 1))

    def test_missing_feature_file_exits_2(self, synth_dir, tmp_path):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["modalities"][0]["path"] = str(tmp_path / "nope.csv")
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(bad)]) == 2

    def write_dataset(self, tmp_path, rows):
        (tmp_path / "m.csv").write_text(
            "sample_id,class,split,f_0\n" + "".join(f"{r}\n" for r in rows))
        manifest = {
            "tasks": [{"name": "t1", "classes": ["A"]}, {"name": "t2", "classes": ["B"]}],
            "modalities": [{"name": "m", "path": str(tmp_path / "m.csv"), "dim": 1}],
            "seeds": [1], "output": str(tmp_path / "res"),
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return str(tmp_path / "manifest.json")

    def test_task_without_test_samples_exits_2(self, tmp_path, capsys):
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,0.0", "a2,A,train,0.5", "a3,A,test,0.2",
            "b1,B,train,5.0", "b2,B,train,5.5",
        ])
        assert main(["run", "--manifest", manifest]) == 2
        assert "task 't2' has no test samples" in capsys.readouterr().err

    def test_non_finite_feature_exits_2(self, tmp_path, capsys):
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,0.0", "a2,A,train,0.5", "a3,A,test,0.2",
            "b1,B,train,5.0", "b2,B,train,5.5", "b3,B,test,inf",
        ])
        assert main(["run", "--manifest", manifest]) == 2
        assert "line 7, column f_0: non-finite value 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_overflowing_features_exit_3(self, tmp_path, capsys, ct):
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,1e160", "a2,A,train,-2e160", "a3,A,train,3e160", "a4,A,test,0.0",
            "b1,B,train,-1e160", "b2,B,train,2e160", "b3,B,train,-3e160", "b4,B,test,0.0",
        ])
        doc = json.loads(Path(manifest).read_text())
        doc["modalities"][0]["normalize"] = False
        doc["bgmm"] = {"covariance_type": ct, "max_components": 2}
        Path(manifest).write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--manifest", manifest]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        # the failure is reported by its message alone, not by numpy warnings
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("field", list(MALFORMED_MANIFESTS))
    def test_malformed_manifest_field_exits_2(self, synth_dir, tmp_path, capsys, field):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        MALFORMED_MANIFESTS[field](manifest)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_duplicate_modality_name_exits_2(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["modalities"][1]["name"] = "mod_a"
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(bad), "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'mod_a'" in err
        assert not list(tmp_path.glob("res_*.json"))

    def test_duplicate_seed_exits_2(self, synth_dir, tmp_path, capsys):
        # a repeated seed would overwrite its own result file and enter the
        # aggregate twice
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["seeds"] = [1, 1]
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(bad), "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed 1" in err
        assert not list(tmp_path.glob("res_*.json"))

    def test_byte_identical_reruns(self, synth_dir, tmp_path):
        out1 = tmp_path / "r1" / "res"
        out2 = tmp_path / "r2" / "res"
        assert main(["run", "--manifest", str(synth_dir / "manifest.json"),
                     "--out", str(out1)]) == 0
        assert main(["run", "--manifest", str(synth_dir / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert read(f"{out1}_seed1.json") == read(f"{out2}_seed1.json")
        assert read(f"{out1}_aggregate.json") == read(f"{out2}_aggregate.json")

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_result_files_independent_of_blas_threads(self, tmp_path, ct):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--basic", "3", "--compound", "2",
                     "--dim-a", "32", "--dim-b", "32", "--per-class-train", "60",
                     "--per-class-test", "10", "--seed", "1"]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["bgmm"] = {"covariance_type": ct}
        (data / "manifest.json").write_text(json.dumps(manifest))
        src = str(Path(clbgmm.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}" / "res"
            subprocess.run([sys.executable, "-m", "clbgmm.cli", "run", "--manifest",
                            str(data / "manifest.json"), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs.append([read(f"{out}_seed1.json"), read(f"{out}_aggregate.json")])
        assert outputs[0] == outputs[1]


@pytest.fixture
def results_file(synth_dir):
    assert main(["run", "--manifest", str(synth_dir / "manifest.json")]) == 0
    return str(synth_dir / "results") + "_seed1.json"


class TestMetrics:
    def test_csv_header_and_rows(self, results_file, capsys):
        assert main(["metrics", "--results", results_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,AA,AIA,FM,IM"
        n_tasks = len(json.loads(Path(results_file).read_text())["accuracy_matrix"])
        assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == n_tasks

    def test_first_row_has_no_fm(self, results_file, capsys):
        assert main(["metrics", "--results", results_file]) == 0
        first = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert first[0] == "1" and first[3] == ""

    def test_recompute_is_stable(self, results_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["metrics", "--results", results_file, "--out", str(a)]) == 0
        assert main(["metrics", "--results", results_file, "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_malformed_results_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["metrics", "--results", str(bad)]) == 2

    def rewrite(self, results_file, tmp_path, change):
        doc = json.loads(Path(results_file).read_text())
        change(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return str(bad)

    def test_missing_field_is_named(self, results_file, tmp_path, capsys):
        bad = self.rewrite(results_file, tmp_path, lambda doc: doc.pop("seed"))
        assert main(["metrics", "--results", bad]) == 2
        assert f"malformed results file {bad}: missing 'seed'" in capsys.readouterr().err

    def test_list_at_top_level_is_a_wrong_type(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["metrics", "--results", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"malformed results file {bad}: wrong type" in err and "missing" not in err

    def test_two_field_prediction_row_exits_2(self, results_file, tmp_path, capsys):
        bad = self.rewrite(results_file, tmp_path,
                           lambda doc: doc["per_task_predictions"][0].__setitem__(0, ["s", "A"]))
        assert main(["metrics", "--results", bad]) == 2
        assert f"malformed results file {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("final_row", [None, slice(1, None)], ids=["missing", "short"])
    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_incomplete_final_prediction_row_exits_2(self, results_file, tmp_path, capsys,
                                                     final_row, command):
        def cut(doc):
            rows = doc["per_task_predictions"]
            rows[-1:] = [] if final_row is None else [rows[-1][final_row]]
        bad = self.rewrite(results_file, tmp_path, cut)
        args = (["oracle", "--results-a", bad, "--results-b", bad] if command == "oracle"
                else ["report", "--results", bad, "--out", str(tmp_path / "report")])
        assert main(args) == 2
        assert f"malformed results file {bad}" in capsys.readouterr().err

    def test_non_numeric_accuracy_exits_2(self, results_file, tmp_path, capsys):
        bad = self.rewrite(results_file, tmp_path,
                           lambda doc: doc["accuracy_matrix"][0].__setitem__(0, "high"))
        assert main(["metrics", "--results", bad]) == 2
        assert f"malformed results file {bad}" in capsys.readouterr().err

    def test_accuracy_out_of_range_exits_2(self, results_file, tmp_path, capsys):
        bad = self.rewrite(results_file, tmp_path,
                           lambda doc: doc["accuracy_matrix"][0].__setitem__(0, 1.5))
        assert main(["metrics", "--results", bad]) == 2
        err = capsys.readouterr().err
        assert f"malformed results file {bad}" in err and "[0, 1]" in err

    def test_truncated_task_names_exit_2(self, results_file, tmp_path, capsys):
        bad = self.rewrite(results_file, tmp_path, lambda doc: doc["task_names"].pop())
        assert main(["metrics", "--results", bad]) == 2
        err = capsys.readouterr().err
        assert f"malformed results file {bad}" in err and "one matrix row per task" in err


class TestOracle:
    def test_self_union_equals_individual(self, results_file, capsys):
        assert main(["oracle", "--results-a", results_file,
                     "--results-b", results_file]) == 0
        overall = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert overall[0] == "overall"
        assert overall[1] == overall[3]  # union == individual accuracy

    def test_mismatched_sample_ids_exit_2(self, results_file, tmp_path):
        doc = json.loads(Path(results_file).read_text())
        doc["per_task_predictions"][-1][0][0] = "someone_else"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        assert main(["oracle", "--results-a", results_file,
                     "--results-b", str(other)]) == 2


class TestReport:
    def test_single_results_file(self, results_file, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--results", results_file, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert any(n.endswith("_metrics.csv") for n in names)
        assert any(n.endswith("_task_accuracy.csv") for n in names)
        assert "per_class_correct.csv" in names

    def test_difference_column_for_multiple_files(self, results_file, tmp_path):
        deep = tmp_path / "deep.json"
        au = tmp_path / "au.json"
        deep.write_text(Path(results_file).read_text())
        au.write_text(Path(results_file).read_text())
        out = tmp_path / "report"
        assert main(["report", "--results", str(deep), str(au), results_file,
                     "--out", str(out)]) == 0
        header = (out / "per_class_correct.csv").read_text().splitlines()[0]
        assert "deep_minus_au" in header

    def test_empty_results_exit_2(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "r")]) == 2


class TestOldLayout:
    """Result files written before only the final prediction row was kept.

    They hold one prediction row per task k plus stored per-class counts;
    every command must read them exactly as it reads the current layout.
    """

    @pytest.fixture
    def layouts(self, synth_dir, tmp_path):
        manifest = parse_manifest((synth_dir / "manifest.json").read_text())
        tables = [load_feature_table(s.path, s.dim, s.name) for s in manifest.modalities]
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        for seed in (1, 2):
            result = run_continual(manifest, tables, seed)
            new = tmp_path / "new" / f"run_seed{seed}.json"
            save_run_result(result, new)
            doc = json.loads(new.read_text())
            doc["per_task_predictions"] = [[list(p) for p in row]
                                           for row in result.per_task_predictions]
            counts = {}
            for _, truth, pred in result.per_task_predictions[-1]:
                counts[truth] = counts.get(truth, 0) + int(pred == truth)
            doc["per_class_correct"] = counts
            (tmp_path / "old" / new.name).write_text(
                json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return tmp_path / "old", tmp_path / "new"

    def outputs(self, directory, tmp_path, capsys):
        a, b = str(directory / "run_seed1.json"), str(directory / "run_seed2.json")
        capsys.readouterr()
        out = {}
        for fmt in ("csv", "json"):
            assert main(["metrics", "--results", a, "--format", fmt]) == 0
            out[f"metrics_{fmt}"] = capsys.readouterr().out
        assert main(["oracle", "--results-a", a, "--results-b", b]) == 0
        out["oracle"] = capsys.readouterr().out
        report = tmp_path / f"report_{directory.name}"
        assert main(["report", "--results", a, b, "--out", str(report)]) == 0
        out.update({p.name: p.read_text() for p in report.iterdir()})
        return out

    def test_old_file_loads_every_row(self, layouts):
        old, _ = layouts
        doc = json.loads((old / "run_seed1.json").read_text())
        result = load_run_result(old / "run_seed1.json")
        assert len(result.per_task_predictions) == result.matrix.n_tasks > 1
        assert result.per_class_correct() == doc["per_class_correct"]

    def test_commands_give_identical_output(self, layouts, tmp_path, capsys):
        old, new = layouts
        old_out = self.outputs(old, tmp_path, capsys)
        new_out = self.outputs(new, tmp_path, capsys)
        assert set(old_out) == {"metrics_csv", "metrics_json", "oracle",
                                "run_seed1_task_accuracy.csv", "run_seed1_metrics.csv",
                                "run_seed2_task_accuracy.csv", "run_seed2_metrics.csv",
                                "per_class_correct.csv", "relative_evolution.csv"}
        assert old_out == new_out
        assert set(json.loads(new_out["metrics_json"])) == {
            "AA", "AIA", "FM", "IM", "final_macro_accuracy", "final_micro_accuracy"}
