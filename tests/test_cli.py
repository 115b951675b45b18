import codecs
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clbgmm
from clbgmm.bgmm import log_likelihood_batch
from clbgmm.cli import main
from clbgmm.dataset import build_task_sequence, load_feature_table, manifest_to_dict, parse_manifest
from clbgmm.ensemble import ClassConditionalEnsemble, predict_batch
from clbgmm.protocol import (
    load_run_result,
    multi_seed,
    run_continual,
    save_aggregate,
    save_run_result,
)


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

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_exits_2(self, tmp_path, capsys, spread):
        assert main(["synth", "--out", str(tmp_path / "d"), "--spread", spread]) == 2
        assert capsys.readouterr().err == \
            f"error: cluster_spread must be positive and finite, got {spread}\n"
        assert not (tmp_path / "d").exists()

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

    def test_relative_out_runs_from_a_child_directory(self, tmp_path, monkeypatch):
        # a relative --out once wrote cwd-relative paths into the manifest
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "data", "--basic", "3", "--compound", "2",
                     "--per-class-train", "20", "--per-class-test", "8", "--seed", "1"]) == 0
        (tmp_path / "child").mkdir()
        monkeypatch.chdir(tmp_path / "child")
        assert main(["run", "--manifest", "../data/manifest.json"]) == 0
        assert (tmp_path / "data" / "results_seed1.json").exists()

    def test_no_compound_classes_writes_the_known_bytes(self, tmp_path):
        # the digests of this command's files from when the generator skipped
        # stacking the empty (0, D) block of compound means
        assert main(["synth", "--out", str(tmp_path), "--basic", "3", "--compound", "0",
                     "--per-class-train", "4", "--per-class-test", "2", "--seed", "1"]) == 0
        assert {name: hashlib.sha256(read(tmp_path / name)).hexdigest()
                for name in ("mod_a.csv", "mod_b.csv")} == {
            "mod_a.csv": "42baf50781e38278244a70c595d3e880e7513ff73a748324a283a916d6c18f04",
            "mod_b.csv": "76c745bdef01fe83dc9a6cf9910964541f3d6540c66479a05711d29f6f49ee08"}

    def test_manifest_is_a_fixed_point_of_the_parser(self, synth_dir):
        text = (synth_dir / "manifest.json").read_text()
        assert manifest_to_dict(parse_manifest(text)) == json.loads(text)


# field or rule named in the error (the id up to any "=") -> a change that
# gives the manifest the wrong shape
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
    # string fields were coerced with str(): "output": null wrote None_seed1.json
    "tasks[0].name": lambda m: m["tasks"][0].__setitem__("name", 3),
    "modalities[0].name": lambda m: m["modalities"][0].__setitem__("name", 5),
    "modalities[0].path": lambda m: m["modalities"][0].__setitem__("path", 5),
    "output": lambda m: m.__setitem__("output", None),
    # unknown keys were ignored, so a misspelt setting ran with its default
    "bgm": lambda m: m.__setitem__("bgm", {"max_components": 3}),
    "normalise": lambda m: m["modalities"][0].__setitem__("normalise", False),
    # a falsy table was taken as absent and ran with the defaults
    "bgmm=0": lambda m: m.__setitem__("bgmm", 0),
    "bgmm=[]": lambda m: m.__setitem__("bgmm", []),
    "bgmm=null": lambda m: m.__setitem__("bgmm", None),
    "fusion=''": lambda m: m.__setitem__("fusion", ""),
    "fusion=null": lambda m: m.__setitem__("fusion", None),
    "at least one task=[]": lambda m: m.__setitem__("tasks", []),
    "at least one seed=[]": lambda m: m.__setitem__("seeds", []),
    "unsupported fusion strategy 'sum'": lambda m: m.__setitem__("fusion", {"strategy": "sum"}),
    "task 0: missing required field 'name' or 'classes'": lambda m: m["tasks"][0].pop("name"),
    "modality 1: missing required field 'path'": lambda m: m["modalities"][1].pop("path"),
    # JSON's NaN and Infinity passed the range checks: a NaN elbo_tolerance ran
    # every fit to max_iterations and wrote NaN, which is not JSON, into the
    # results file; the others ended in a numerical failure (exit 3)
    "elbo_tolerance=NaN": lambda m: m["bgmm"].__setitem__("elbo_tolerance", float("nan")),
    "mean_prior_strength=NaN": lambda m: m["bgmm"].__setitem__(
        "mean_prior_strength", float("nan")),
    "precision_prior_rate=NaN": lambda m: m["bgmm"].__setitem__(
        "precision_prior_rate", float("nan")),
    "precision_prior_shape=NaN": lambda m: m["bgmm"].__setitem__(
        "precision_prior_shape", float("nan")),
    "variance_floor=Infinity": lambda m: m["bgmm"].__setitem__("variance_floor", float("inf")),
    "weight_concentration_prior=Infinity": lambda m: m["bgmm"].__setitem__(
        "weight_concentration_prior", float("inf")),
    # integers that no float can hold ended in an OverflowError or a TypeError (exit 1)
    "max_components=10**400": lambda m: m["bgmm"].__setitem__("max_components", 10 ** 400),
    "mean_prior_strength=10**400": lambda m: m["bgmm"].__setitem__(
        "mean_prior_strength", 10 ** 400),
    "variance_floor=10**400": lambda m: m["bgmm"].__setitem__("variance_floor", 10 ** 400),
    "precision_prior_rate=10**400": lambda m: m["bgmm"].__setitem__(
        "precision_prior_rate", 10 ** 400),
    # seeds outside 64 bits ran every fit: the first two exited 0, the last
    # failed on a result-file name too long, naming no seed
    "seeds[0]=2**63": lambda m: m.__setitem__("seeds", [2 ** 63]),
    "seeds[0]=-(2**63)-1": lambda m: m.__setitem__("seeds", [-(2 ** 63) - 1]),
    "seeds[0]=10**400": lambda m: m.__setitem__("seeds", [10 ** 400]),
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

    def write_dataset(self, tmp_path, rows, classes=("A", "B")):
        """A one-modality dataset with one task per class, t1, t2, ..."""
        (tmp_path / "m.csv").write_text(
            "sample_id,class,split,f_0\n" + "".join(f"{r}\n" for r in rows))
        manifest = {
            "tasks": [{"name": f"t{i}", "classes": [c]} for i, c in enumerate(classes, start=1)],
            "modalities": [{"name": "m", "path": str(tmp_path / "m.csv"), "dim": 1}],
            "seeds": [1], "output": str(tmp_path / "res"),
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        return str(tmp_path / "manifest.json")

    @staticmethod
    def count_fits(monkeypatch):
        """The list of the rows of each class fit the run makes, in order."""
        fits, fit = [], clbgmm.ensemble.fit

        def counted(rows, *args):
            fits.append(rows)
            return fit(rows, *args)
        monkeypatch.setattr("clbgmm.ensemble.fit", counted)
        return fits

    def test_task_without_test_samples_exits_2(self, tmp_path, capsys, monkeypatch):
        fits = self.count_fits(monkeypatch)
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,0.0", "a2,A,train,0.5", "a3,A,test,0.2",
            "b1,B,train,5.0", "b2,B,train,5.5",
            "c1,C,train,9.0", "c2,C,train,9.5", "c3,C,test,9.2",
        ], classes=("A", "B", "C"))
        assert main(["run", "--manifest", manifest]) == 2
        assert capsys.readouterr().err == "error: task 't2' has no test samples\n"
        assert fits == []

    def test_class_without_training_samples_exits_2(self, tmp_path, capsys, monkeypatch):
        fits = self.count_fits(monkeypatch)
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,0.0", "a2,A,train,0.5", "a3,A,test,0.2", "b1,B,test,5.0",
        ])
        assert main(["run", "--manifest", manifest]) == 2
        assert capsys.readouterr().err == "error: class 'B' has no training samples\n"
        assert fits == []

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("id,class,split,f_0\na1,A,train,0.0\n", "header must start with sample_id,class,split"),
    ], ids=["empty", "header"])
    def test_bad_feature_file_exits_2(self, tmp_path, capsys, text, message):
        manifest = self.write_dataset(tmp_path, [])
        (tmp_path / "m.csv").write_text(text)
        assert main(["run", "--manifest", manifest]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'm.csv'}: {message}\n"

    def test_byte_order_marks_give_the_same_result_files(self, synth_dir, tmp_path):
        # spreadsheet tools save "CSV UTF-8" with a leading byte-order mark
        manifest = synth_dir / "manifest.json"
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "plain")]) == 0
        for path in (manifest, synth_dir / "mod_a.csv", synth_dir / "mod_b.csv"):
            path.write_bytes(codecs.BOM_UTF8 + read(path))
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "marked")]) == 0
        for name in ("seed1", "aggregate"):
            assert read(tmp_path / f"marked_{name}.json") == read(tmp_path / f"plain_{name}.json")

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
    def test_malformed_manifest_field_exits_2(self, synth_dir, tmp_path, capsys, monkeypatch, field):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        MALFORMED_MANIFESTS[field](manifest)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and field.split("=")[0] in err
        assert not list(tmp_path.glob("None_*.json"))

    def test_output_directory_is_made_before_the_first_fit(self, synth_dir, tmp_path, capsys,
                                                           monkeypatch):
        # an --out under a regular file failed only after every fit
        def fail(*args):
            raise AssertionError("multi_seed ran")
        monkeypatch.setattr("clbgmm.cli.multi_seed", fail)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub" / "run"
        assert main(["run", "--manifest", str(synth_dir / "manifest.json"),
                     "--out", str(out)]) == 2
        assert "Not a directory" in capsys.readouterr().err

    def test_parse_error_names_the_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad_manifest.json"
        bad.write_text('{"tasks": [,]}')
        assert main(["run", "--manifest", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: manifest parse error at line 1, column 12: Expecting value\n")

    def test_duplicate_modality_name_exits_2(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["modalities"][1]["name"] = "mod_a"
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(bad), "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "'mod_a'" in err
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
        assert err.startswith(f"error: {bad}: ") and "seed 1" in err
        assert not list(tmp_path.glob("res_*.json"))

    def test_non_utf8_manifest_exits_2(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad_manifest.json"
        bad.write_bytes(read(synth_dir / "manifest.json").replace(b'"seeds"', b'"seeds\xff"'))
        assert main(["run", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} line ") and "not UTF-8" in err

    def test_non_utf8_feature_row_exits_2(self, tmp_path, capsys):
        manifest = self.write_dataset(tmp_path, [
            "a1,A,train,0.0", "a2,A,train,0.5", "a3,A,test,0.2",
            "b1,B,train,5.0", "b\xff2,B,train,5.5", "b3,B,test,6.0",
        ])
        csv_path = tmp_path / "m.csv"
        csv_path.write_bytes(csv_path.read_text().encode("latin-1"))
        assert main(["run", "--manifest", manifest]) == 2
        assert f"error: {csv_path} line 6: not UTF-8" in capsys.readouterr().err

    def test_library_writes_the_same_bytes_as_the_cli(self, synth_dir, tmp_path):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        doc["seeds"] = [1, 2]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        assert main(["run", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "cli")]) == 0

        manifest = parse_manifest((tmp_path / "manifest.json").read_text())
        tables = [load_feature_table(s.path, s.dim, s.name) for s in manifest.modalities]
        results, agg = multi_seed(manifest, tables)
        for result in results:
            save_run_result(result, tmp_path / f"lib_seed{result.seed}.json")
        save_aggregate(agg, tmp_path / "lib_aggregate.json")
        for name in ("seed1", "seed2", "aggregate"):
            assert read(tmp_path / f"lib_{name}.json") == read(tmp_path / f"cli_{name}.json")

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


def _scipy_after(code):
    """The scipy modules that a fresh interpreter holds after running code."""
    src = str(Path(clbgmm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    listing = "import json, sys\n" \
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{listing}"], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy_after_run(synth_dir, tmp_path, covariance_type):
    """The scipy modules that `clbgmm run` leaves loaded, on the synthetic
    manifest with the given covariance type."""
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    manifest["bgmm"]["covariance_type"] = covariance_type
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "res"
    argv = ["run", "--manifest", str(path), "--out", str(out)]
    loaded = _scipy_after(f"from clbgmm.cli import main\nassert main({argv!r}) == 0")
    assert Path(f"{out}_seed1.json").is_file()
    return loaded


class TestScipyImports:
    """No command loads scipy: the special functions and the Cholesky
    factors are the package's own, in numpy."""

    def test_cli_import_loads_no_scipy(self):
        assert _scipy_after("import clbgmm.cli") == set()

    def test_diagonal_run_loads_no_scipy(self, synth_dir, tmp_path):
        assert _scipy_after_run(synth_dir, tmp_path, "diagonal") == set()

    def test_full_run_loads_no_scipy(self, synth_dir, tmp_path):
        assert _scipy_after_run(synth_dir, tmp_path, "full") == set()


@pytest.fixture
def results_file(synth_dir):
    assert main(["run", "--manifest", str(synth_dir / "manifest.json")]) == 0
    return str(synth_dir / "results") + "_seed1.json"


# a change that gives a results-file field the wrong shape
MALFORMED_RESULTS = {
    # a normalizer table that is not an object ended in an AttributeError
    "normalizers=[]": lambda doc: doc["ensembles"]["fusion"].__setitem__("normalizers", []),
    "normalizers='x'": lambda doc: doc["ensembles"]["fusion"].__setitem__("normalizers", "x"),
    # a joint reference or test sizes of the wrong type or range ended in a
    # TypeError, an IM outside [-1, 1], or an error that did not name the file
    "joint_reference=['x', ...]": lambda doc: doc.__setitem__(
        "joint_reference", ["x"] * len(doc["config"]["tasks"])),
    "joint_reference='ab'": lambda doc: doc.__setitem__("joint_reference", "ab"),
    "joint_reference=[[0.5], ...]": lambda doc: doc.__setitem__(
        "joint_reference", [[0.5]] * len(doc["config"]["tasks"])),
    "joint_reference=[2.5, ...]": lambda doc: doc.__setitem__(
        "joint_reference", [2.5] * len(doc["config"]["tasks"])),
    "joint_reference short": lambda doc: doc.__setitem__("joint_reference", [0.5]),
    # the sizes keep their sum; only their split over the tasks is wrong
    "per_task_test_sizes=[0, ...]": lambda doc: _move_test_sizes(doc, 0),
    "per_task_test_sizes=[0.5, ...]": lambda doc: _move_test_sizes(doc, 0.5),
    "per_task_test_sizes=[n]": lambda doc: doc.__setitem__(
        "per_task_test_sizes", [sum(doc["per_task_test_sizes"])]),
    # sizes that keep their sum but contradict the predictions' true classes
    # loaded, and metrics and oracle weighted the tasks by them
    "per_task_test_sizes one row moved": lambda doc: _move_test_sizes(
        doc, doc["per_task_test_sizes"][0] - 1),
    # prediction columns that are not one class index per sample id
    "truth=[n_classes, ...]": lambda doc: doc["predictions"]["truth"].__setitem__(
        0, sum(len(task["classes"]) for task in doc["config"]["tasks"])),
    "truth=[-1, ...]": lambda doc: doc["predictions"]["truth"].__setitem__(0, -1),
    "truth=[true, ...]": lambda doc: doc["predictions"]["truth"].__setitem__(0, True),
    "predicted=[1.0, ...]": lambda doc: doc["predictions"]["predicted"].__setitem__(0, 1.0),
    "predicted=['0', ...]": lambda doc: doc["predictions"]["predicted"].__setitem__(0, "0"),
    "predicted one short": lambda doc: doc["predictions"]["predicted"].pop(),
    "duplicate sample id": lambda doc: doc["predictions"]["sample_ids"].__setitem__(
        1, doc["predictions"]["sample_ids"][0]),
    "no predicted key": lambda doc: doc["predictions"].pop("predicted"),
    # an older layout without its final row
    "per_task_predictions=[]": lambda doc: _as_triples(doc)["per_task_predictions"].clear(),
    # a seed or an accuracy of another JSON type was coerced: 3.7 loaded as
    # 3, true as 1 and "1.0" as 1.0
    "seed=3.7": lambda doc: doc.__setitem__("seed", 3.7),
    "seed=true": lambda doc: doc.__setitem__("seed", True),
    "accuracy='1.0'": lambda doc: doc["accuracy_matrix"][0].__setitem__(0, "1.0"),
    "accuracy=true": lambda doc: doc["accuracy_matrix"][0].__setitem__(0, True),
    # a class model (diagonal, 4-dim) whose arrays do not fit one another
    # loaded, and scoring it would have broadcast
    "covariances=[[1.0]]": lambda doc: _first_model(doc).__setitem__("covariances", [[1.0]]),
    "covariance_type='banana'": lambda doc: _first_model(doc).__setitem__(
        "covariance_type", "banana"),
    "weights=[]": lambda doc: _first_model(doc).__setitem__("weights", []),
    "weights=[[...]]": lambda doc: _first_model(doc).__setitem__(
        "weights", [_first_model(doc)["weights"]]),
    "means one column short": lambda doc: [row.pop() for row in _first_model(doc)["means"]],
    "full, packed row one short": lambda doc: _make_full(
        doc, lambda d: [1.0] * (d * (d + 1) // 2 - 1)),
    "full, (J, D)": lambda doc: _make_full(doc, lambda d: [1.0] * d),
    "full, (J, D, D - 1)": lambda doc: _make_full(doc, lambda d: [[1.0] * (d - 1)] * d),
    # a model whose values are not a mixture loaded, and metrics exited 0 on it
    "weights=[-1.0, ...]": lambda doc: _first_model(doc).__setitem__(
        "weights", [-1.0] * len(_first_model(doc)["weights"])),
    "weights=[0.5]": lambda doc: _first_model(doc).__setitem__(
        "weights", [0.5 / len(_first_model(doc)["weights"])] * len(_first_model(doc)["weights"])),
    "variances=[-1.0, ...]": lambda doc: _first_model(doc)["covariances"].__setitem__(
        0, [-1.0] * len(_first_model(doc)["means"][0])),
    "spherical, variance 0": lambda doc: _first_model(doc).update(
        covariance_type="spherical", covariances=[0.0] * len(_first_model(doc)["weights"])),
    "means=[[nan, ...]]": lambda doc: _first_model(doc)["means"][0].__setitem__(0, float("nan")),
    "full, indefinite [1, 2, 1, ...]": lambda doc: _make_full(
        doc, lambda d: _packed(np.eye(d) + 2.0 * np.eye(d, k=-1))),
    "full, (J, D, D) not finite": lambda doc: _make_full(
        doc, lambda d: np.where(np.eye(d) > 0, np.inf, 0.0).tolist()),
    # config is checked as a manifest is; all but the first loaded
    "config class in two tasks": lambda doc: doc["config"]["tasks"][1]["classes"].append(
        doc["config"]["tasks"][0]["classes"][0]),
    "config repeated task name": lambda doc: doc["config"]["tasks"][1].__setitem__(
        "name", doc["config"]["tasks"][0]["name"]),
    # one character per class, so that every class index keeps its task
    "config classes='01'": lambda doc: doc["config"]["tasks"][-1].__setitem__(
        "classes", "".join(map(str, range(len(doc["config"]["tasks"][-1]["classes"]))))),
    "config task name=7": lambda doc: doc["config"]["tasks"][0].__setitem__("name", 7),
    "config covariance_type='banana'": lambda doc: doc["config"]["bgmm"].__setitem__(
        "covariance_type", "banana"),
    "config seeds='x'": lambda doc: doc["config"].__setitem__("seeds", "x"),
    "config elbo_tolerance=NaN": lambda doc: doc["config"]["bgmm"].__setitem__(
        "elbo_tolerance", float("nan")),
    # an ensemble that does not fit its config loaded
    "one class model deleted": lambda doc: doc["ensembles"]["models"].pop(),
    "model relabelled 'zzz'": lambda doc: doc["ensembles"]["models"][0].__setitem__(0, "zzz"),
    "model stored twice": lambda doc: doc["ensembles"]["models"][1].__setitem__(
        0, doc["ensembles"]["models"][0][0]),
    "model dim one short": lambda doc: [row.pop() for key in ("means", "covariances")
                                        for row in _first_model(doc)[key]],
    "class_train_counts={'basic_0': 'x'}": lambda doc: doc["ensembles"].__setitem__(
        "class_train_counts", {"basic_0": "x"}),
    "class_train_counts one 0": lambda doc: _first_count(doc, 0),
    "class_train_counts one 2.0": lambda doc: _first_count(doc, 2.0),
    "mod_a per_dim_min one short": lambda doc: _normalizers(doc)["mod_a"]["per_dim_min"].pop(),
    "mod_a normalizer null": lambda doc: _normalizers(doc).__setitem__("mod_a", None),
    "mod_b normalizer not null": lambda doc: _normalizers(doc).__setitem__(
        "mod_b", _normalizers(doc)["mod_a"]),
    "no mod_b normalizer": lambda doc: _normalizers(doc).pop("mod_b"),
    # integers that no float can hold ended in an OverflowError (exit 1)
    "accuracy=10**400": lambda doc: doc["accuracy_matrix"][0].__setitem__(0, 10 ** 400),
    "means=[[10**400, ...]]": lambda doc: _first_model(doc)["means"][0].__setitem__(0, 10 ** 400),
    "mod_a per_dim_max=[10**400, ...]": lambda doc: _normalizers(doc)["mod_a"][
        "per_dim_max"].__setitem__(0, 10 ** 400),
    # normalizer bounds that are not finite, or swapped, loaded, and the
    # reloaded ensemble scored task 1 below the run's own accuracy
    "mod_a per_dim_min=[NaN, ...]": lambda doc: _normalizers(doc)["mod_a"][
        "per_dim_min"].__setitem__(0, float("nan")),
    "mod_a per_dim_max=[Infinity, ...]": lambda doc: _normalizers(doc)["mod_a"][
        "per_dim_max"].__setitem__(0, float("inf")),
    "mod_a bounds swapped": lambda doc: _normalizers(doc).__setitem__("mod_a", {
        "per_dim_min": _normalizers(doc)["mod_a"]["per_dim_max"],
        "per_dim_max": _normalizers(doc)["mod_a"]["per_dim_min"]}),
    # fit metadata of the wrong type or range loaded, and inspect printed it
    "iterations='many'": lambda doc: _first_model(doc)["metadata"].__setitem__(
        "iterations", "many"),
    "converged='yes'": lambda doc: _first_model(doc)["metadata"].__setitem__("converged", "yes"),
    "final_elbo=NaN": lambda doc: _first_model(doc)["metadata"].__setitem__(
        "final_elbo", float("nan")),
    "components_pruned=-4": lambda doc: _first_model(doc)["metadata"].__setitem__(
        "components_pruned", -4),
    "merges=[1, 2]": lambda doc: _first_model(doc)["metadata"].__setitem__("merges", [1, 2]),
}


def _first_model(doc):
    return doc["ensembles"]["models"][0][1]


def _first_count(doc, value):
    counts = doc["ensembles"]["class_train_counts"]
    counts[next(iter(counts))] = value


def _normalizers(doc):
    return doc["ensembles"]["fusion"]["normalizers"]


def _make_full(doc, covariance):
    """Make the first class model a full one; covariance(D) gives each
    component's covariance."""
    model = _first_model(doc)
    model["covariance_type"] = "full"
    model["covariances"] = [covariance(len(model["means"][0])) for _ in model["weights"]]


def _packed(matrix):
    """The packed lower triangle of a square matrix, as a result file holds it."""
    return matrix[np.tri(len(matrix), dtype=bool)].tolist()


def _as_triples(doc):
    """doc in the prediction layout files had before class-index columns: a
    one-element per_task_predictions list holding [sample_id, truth,
    predicted] label triples."""
    columns = doc.pop("predictions")
    classes = [c for task in doc["config"]["tasks"] for c in task["classes"]]
    doc["per_task_predictions"] = [[
        [sid, classes[truth], classes[pred]]
        for sid, truth, pred in zip(columns["sample_ids"], columns["truth"], columns["predicted"])]]
    return doc


def _move_test_sizes(doc, first):
    """Set the first test size to first and give the rest to the last."""
    sizes = doc["per_task_test_sizes"]
    sizes[-1] += sizes[0] - first
    sizes[0] = first


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

    @pytest.mark.parametrize("command", ["metrics", "oracle", "report", "inspect"])
    def test_non_utf8_results_exit_2(self, results_file, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(read(results_file).replace(b'"seed"', b'"se\xffed"'))
        args = {"metrics": ["metrics", "--results", str(bad)],
                "oracle": ["oracle", "--results-a", results_file, "--results-b", str(bad)],
                "report": ["report", "--results", str(bad), "--out", str(tmp_path / "r")],
                "inspect": ["inspect", "--results", str(bad)]}
        assert main(args[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} line ") and "not UTF-8" in err

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
                           lambda doc: _as_triples(doc)["per_task_predictions"][0].__setitem__(
                               0, ["s", "A"]))
        assert main(["metrics", "--results", bad]) == 2
        assert f"malformed results file {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("final_row", [None, slice(1, None)], ids=["missing", "short"])
    @pytest.mark.parametrize("command", ["oracle", "report"])
    def test_incomplete_final_prediction_row_exits_2(self, results_file, tmp_path, capsys,
                                                     final_row, command):
        def cut(doc):
            if final_row is None:
                del doc["predictions"]
            else:
                for column in doc["predictions"].values():
                    column[:] = column[final_row]
        bad = self.rewrite(results_file, tmp_path, cut)
        args = (["oracle", "--results-a", bad, "--results-b", bad] if command == "oracle"
                else ["report", "--results", bad, "--out", str(tmp_path / "report")])
        assert main(args) == 2
        assert f"malformed results file {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", list(MALFORMED_RESULTS))
    def test_malformed_results_field_exits_2(self, results_file, tmp_path, capsys, field):
        bad = self.rewrite(results_file, tmp_path, MALFORMED_RESULTS[field])
        assert main(["metrics", "--results", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed results file {bad}: ")

    def test_indefinite_covariance_names_the_class_and_exits_2(self, results_file, tmp_path,
                                                               capsys):
        bad = self.rewrite(results_file, tmp_path,
                           MALFORMED_RESULTS["full, indefinite [1, 2, 1, ...]"])
        label = json.loads(Path(bad).read_text())["ensembles"]["models"][0][0]
        assert main(["metrics", "--results", bad]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed results file {bad}: class {label!r}: "
            "covariance of component 0 is not positive definite\n")

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
        bad = self.rewrite(results_file, tmp_path, lambda doc: doc["config"]["tasks"].pop())
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

    def test_lines_match_final_rows_of_two_runs(self, synth_dir, tmp_path, capsys):
        files = []
        for name, seed, ct in (("a", 1, "diagonal"), ("b", 2, "spherical")):
            manifest = json.loads((synth_dir / "manifest.json").read_text())
            manifest.update(seeds=[seed], bgmm={"covariance_type": ct, "max_components": 2})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(manifest))
            assert main(["run", "--manifest", str(path), "--out", str(tmp_path / name)]) == 0
            files.append(tmp_path / f"{name}_seed{seed}.json")
        capsys.readouterr()
        assert main(["oracle", "--results-a", str(files[0]), "--results-b", str(files[1])]) == 0
        lines = capsys.readouterr().out.splitlines()

        # independent computation: each row's task from the manifest's class lists
        doc_a, doc_b = (json.loads(f.read_text()) for f in files)
        task_of = {c: t["name"] for t in doc_a["config"]["tasks"] for c in t["classes"]}
        classes = list(task_of)
        pred_b = {sid: classes[pred] for sid, pred in zip(
            doc_b["predictions"]["sample_ids"], doc_b["predictions"]["predicted"])}
        hits = {t["name"]: [] for t in doc_a["config"]["tasks"] + [{"name": "overall"}]}
        columns = doc_a["predictions"]
        for sid, truth, pred in zip(columns["sample_ids"],
                                    [classes[i] for i in columns["truth"]],
                                    [classes[i] for i in columns["predicted"]]):
            row = (pred == truth, pred_b[sid] == truth, truth in (pred, pred_b[sid]))
            hits[task_of[truth]].append(row)
            hits["overall"].append(row)
        assert any(a != b for a, b, _ in hits["overall"])  # the runs differ
        expected = ["task,acc_a,acc_b,union"] + [
            ",".join([key] + [f"{sum(col) / len(col):.6f}" for col in zip(*rows)])
            for key, rows in hits.items()]
        assert lines == expected

    def test_task_name_with_a_comma_is_quoted(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["tasks"][0]["name"] = "basics, all"
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "comma")]) == 0
        capsys.readouterr()
        results = str(tmp_path / "comma_seed1.json")
        assert main(["oracle", "--results-a", results, "--results-b", results]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [len(row) for row in rows] == [4] * (len(manifest["tasks"]) + 2)
        assert [row[0] for row in rows] == \
            ["task"] + [t["name"] for t in manifest["tasks"]] + ["overall"]

    def test_mismatched_sample_ids_exit_2(self, results_file, tmp_path):
        doc = json.loads(Path(results_file).read_text())
        doc["predictions"]["sample_ids"][0] = "someone_else"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        assert main(["oracle", "--results-a", results_file,
                     "--results-b", str(other)]) == 2

    def test_other_true_class_exits_2(self, results_file, tmp_path, capsys):
        # another class of the same task, so that run B's file loads
        doc = json.loads(Path(results_file).read_text())
        sid, truth = doc["predictions"]["sample_ids"][0], doc["predictions"]["truth"][0]
        classes = doc["config"]["tasks"][0]["classes"]
        other_truth = (truth + 1) % len(classes)
        assert other_truth != truth
        doc["predictions"]["truth"][0] = other_truth
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["oracle", "--results-a", results_file, "--results-b", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: sample {sid!r} has true class {classes[truth]!r} in "
                                f"{results_file} but {classes[other_truth]!r} in {other}\n")


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

    def test_repeated_stem_exits_2(self, results_file, tmp_path, capsys):
        # the second run would overwrite the first run's CSVs and columns
        other = tmp_path / "other" / Path(results_file).name
        other.parent.mkdir()
        other.write_text(Path(results_file).read_text())
        out = tmp_path / "report"
        assert main(["report", "--results", results_file, str(other), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{Path(results_file).stem}'" in err
        assert not out.exists()

    def test_empty_results_exit_2(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "r")]) == 2


INSPECT_HEADER = ("class,iterations,merges,converged,components_kept,components_pruned,"
                  "all_pruned_fallback,final_elbo")


class TestInspect:
    def inspect(self, path, capsys):
        capsys.readouterr()
        code = main(["inspect", "--results", str(path)])
        return code, capsys.readouterr()

    def test_rows_match_model_metadata(self, results_file, capsys):
        code, captured = self.inspect(results_file, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        models = json.loads(Path(results_file).read_text())["ensembles"]["models"]
        assert lines[0] == INSPECT_HEADER and len(lines) == len(models) + 1
        for line, (label, mixture) in zip(lines[1:], models):
            meta = mixture["metadata"]
            assert line.split(",") == [
                label, str(meta["iterations"]), str(meta["merges"]),
                "true" if meta["converged"] else "false", str(len(mixture["weights"])),
                str(meta["components_pruned"]),
                "true" if meta["all_pruned_fallback"] else "false", repr(meta["final_elbo"])]

    def rewrite(self, results_file, tmp_path, change):
        doc = json.loads(Path(results_file).read_text())
        for _, mixture in doc["ensembles"]["models"]:
            change(mixture["metadata"])
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(doc))
        return path

    def test_file_without_merges_leaves_the_column_empty(self, results_file, tmp_path, capsys):
        path = self.rewrite(results_file, tmp_path, lambda meta: meta.pop("merges"))
        code, captured = self.inspect(path, capsys)
        assert code == 0
        assert all(line.split(",")[2] == "" for line in captured.out.splitlines()[1:])

    def test_missing_metadata_key_exits_2(self, results_file, tmp_path, capsys):
        path = self.rewrite(results_file, tmp_path, lambda meta: meta.pop("iterations"))
        code, captured = self.inspect(path, capsys)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: malformed results file {path}: class ")
        assert "missing 'iterations'" in captured.err

    def test_final_elbo_beyond_a_float_exits_2(self, results_file, tmp_path, capsys):
        # it ended in an OverflowError (exit 1)
        path = self.rewrite(results_file, tmp_path,
                            lambda meta: meta.__setitem__("final_elbo", 10 ** 400))
        code, captured = self.inspect(path, capsys)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: malformed results file {path}: class ")

    def test_bad_converged_value_exits_2(self, results_file, tmp_path, capsys):
        # it was printed as "yes" with exit 0
        path = self.rewrite(results_file, tmp_path,
                            lambda meta: meta.__setitem__("converged", "yes"))
        label = json.loads(path.read_text())["ensembles"]["models"][0][0]
        code, captured = self.inspect(path, capsys)
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: malformed results file {path}: class {label!r}: "
                                "fit metadata 'converged' must be true or false, got 'yes'\n")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, captured = self.inspect(tmp_path / "absent.json", capsys)
        assert code == 2 and captured.out == ""
        assert "results file not found" in captured.err

    def test_truncated_file_exits_2(self, results_file, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_bytes(read(results_file)[:500])
        code, captured = self.inspect(path, capsys)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: malformed results file {path} line 1 column ")


def with_repeated_names(doc):
    """doc with the keys that files held before task names came from config
    alone: task_names, and fitted_on (the first task's name) on each
    normalizer."""
    names = [task["name"] for task in doc["config"]["tasks"]]
    for norm in doc["ensembles"]["fusion"]["normalizers"].values():
        if norm is not None:
            norm["fitted_on"] = names[0]
    return dict(doc, task_names=names)


def with_ensemble_echo(doc):
    """doc with the keys that files held before the modality order and
    use_class_priors came from config alone."""
    ensembles = doc["ensembles"]
    assert "use_class_priors" not in ensembles and set(ensembles["fusion"]) == {"normalizers"}
    ensembles["use_class_priors"] = doc["config"]["use_class_priors"]
    ensembles["fusion"]["modality_order"] = [m["name"] for m in doc["config"]["modalities"]]
    return doc


class TestOldLayout:
    """Result files written before only the final prediction row was kept,
    files written before predictions were class-index columns, files written
    at indent 1 before per-seed files were compact, files that repeat the
    task names, and files whose ensembles repeat the modality order and
    use_class_priors.

    Old-layout files hold one prediction row per task k plus stored
    per-class counts, and triple files hold the final row alone, as
    [sample_id, truth, predicted] label triples; every command must read
    them, the current layout at indent 1, and the current layout with
    task_names and fitted_on or with the ensembles' copies of config, exactly
    as it reads the current compact file.
    """

    @staticmethod
    def old_rows(manifest, tables, result):
        """The per-k prediction rows an old file stored. Row k is the
        prediction of the classes of tasks 1..k on the test sets of tasks
        1..k; each class model is the one the finished run holds."""
        ens = result.ensemble
        rows, tests, seen = [], [], []
        for batch in build_task_sequence(manifest, tables):
            seen += [c for c in ens.models if c in batch.class_set]
            tests.append(batch.test)
            truncated = ClassConditionalEnsemble(
                fusion=ens.fusion, use_class_priors=ens.use_class_priors,
                models={c: ens.models[c] for c in seen},
                class_train_counts={c: ens.class_train_counts[c] for c in seen})
            rows.append([[sid, truth, pred] for test in tests for sid, truth, pred in zip(
                test.sample_ids, test.class_labels,
                predict_batch(truncated, ens.fusion.transform(test.features)))])
        return rows

    @pytest.fixture
    def layouts(self, synth_dir, tmp_path):
        manifest = parse_manifest((synth_dir / "manifest.json").read_text())
        tables = [load_feature_table(s.path, s.dim, s.name) for s in manifest.modalities]
        names = ("old", "triples", "indented", "named", "echoed", "new")
        for name in names:
            (tmp_path / name).mkdir()
        for seed in (1, 2):
            result = run_continual(manifest, tables, seed)
            new = tmp_path / "new" / f"run_seed{seed}.json"
            save_run_result(result, new)
            text = new.read_text()
            assert text.count("\n") == 1
            doc = json.loads(text)
            (tmp_path / "indented" / new.name).write_text(
                json.dumps(doc, sort_keys=True, indent=1) + "\n")
            assert "task_names" not in doc and "fitted_on" not in text
            triples = _as_triples(json.loads(text))
            (tmp_path / "echoed" / new.name).write_text(
                json.dumps(with_ensemble_echo(json.loads(text)), sort_keys=True,
                           separators=(",", ":")) + "\n")
            (tmp_path / "triples" / new.name).write_text(
                json.dumps(triples, sort_keys=True, separators=(",", ":")) + "\n")
            doc = with_repeated_names(doc)
            (tmp_path / "named" / new.name).write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
            rows = self.old_rows(manifest, tables, result)
            assert len(rows) == result.matrix.n_tasks > 1
            assert [rows[-1]] == triples["per_task_predictions"]
            del doc["predictions"]
            doc["per_task_predictions"] = rows
            counts = {}
            for _, truth, pred in rows[-1]:
                counts[truth] = counts.get(truth, 0) + int(pred == truth)
            doc["per_class_correct"] = counts
            (tmp_path / "old" / new.name).write_text(
                json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return tuple(tmp_path / name for name in names)

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
        capsys.readouterr()  # report's line names its output directory
        assert main(["inspect", "--results", a]) == 0
        out["inspect"] = capsys.readouterr().out
        return out

    @pytest.fixture
    def full_layouts(self, synth_dir, tmp_path):
        """A full-covariance run as the current file holds it (packed lower
        triangles) and as older files held it: (J, D, D), with the upper
        triangle off the lower one by about 1e-12 relative."""
        manifest = parse_manifest((synth_dir / "manifest.json").read_text())
        manifest = dataclasses.replace(
            manifest, bgmm_config=dataclasses.replace(manifest.bgmm_config, covariance_type="full"))
        tables = [load_feature_table(s.path, s.dim, s.name) for s in manifest.modalities]
        rng = np.random.default_rng(0)
        for name in ("old_full", "new_full"):
            (tmp_path / name).mkdir()
        for seed in (1, 2):
            new = tmp_path / "new_full" / f"run_seed{seed}.json"
            save_run_result(run_continual(manifest, tables, seed), new)
            doc = json.loads(new.read_text())
            for _, model in doc["ensembles"]["models"]:
                d = len(model["means"][0])
                packed = np.array(model["covariances"])
                assert packed.shape == (len(model["weights"]), d * (d + 1) // 2)
                cov = np.zeros((len(packed), d, d))
                cov[:, np.tri(d, dtype=bool)] = packed
                upper = np.tril(cov, -1).transpose(0, 2, 1)
                cov += upper * (1.0 + rng.uniform(-1e-12, 1e-12, upper.shape))
                assert not np.array_equal(cov, cov.transpose(0, 2, 1))
                model["covariances"] = cov.tolist()
            (tmp_path / "old_full" / new.name).write_text(json.dumps(doc, sort_keys=True) + "\n")
        return manifest, tables, tmp_path / "old_full", tmp_path / "new_full"

    def test_old_full_covariance_file_scores_identically(self, full_layouts):
        manifest, tables, old, new = full_layouts
        old_models = load_run_result(old / "run_seed1.json").ensemble.models
        new_ens = load_run_result(new / "run_seed1.json").ensemble
        rows = np.vstack([new_ens.fusion.transform(b.test.features)
                          for b in build_task_sequence(manifest, tables)])
        assert list(old_models) == list(new_ens.models)
        for label, mix in new_ens.models.items():
            assert np.array_equal(old_models[label].covariances, mix.covariances)
            assert np.array_equal(log_likelihood_batch(old_models[label], rows),
                                  log_likelihood_batch(mix, rows))

    def test_old_full_covariance_file_gives_identical_output(self, full_layouts, tmp_path,
                                                             capsys):
        _, _, old, new = full_layouts
        assert self.outputs(old, tmp_path, capsys) == self.outputs(new, tmp_path, capsys)

    def test_old_file_loads_final_row(self, layouts):
        old, triples, _, named, echoed, new = layouts
        doc = json.loads((old / "run_seed1.json").read_text())
        result = load_run_result(old / "run_seed1.json")
        assert len(doc["per_task_predictions"]) == result.matrix.n_tasks > 1
        columns = [result.sample_ids, result.truth, result.predicted]
        assert all(column.dtype == object for column in columns)
        assert [list(row) for row in zip(*columns)] == doc["per_task_predictions"][-1]
        assert result.to_dict() == load_run_result(new / "run_seed1.json").to_dict()
        assert result.per_class_correct() == doc["per_class_correct"]
        for other in (triples, named, echoed):
            assert load_run_result(other / "run_seed1.json").to_dict() == result.to_dict()

    def test_commands_give_identical_output(self, layouts, tmp_path, capsys):
        old_out, triples_out, indented_out, named_out, echoed_out, new_out = (
            self.outputs(d, tmp_path, capsys) for d in layouts)
        assert set(old_out) == {"metrics_csv", "metrics_json", "oracle",
                                "run_seed1_task_accuracy.csv", "run_seed1_metrics.csv",
                                "run_seed2_task_accuracy.csv", "run_seed2_metrics.csv",
                                "per_class_correct.csv", "relative_evolution.csv", "inspect"}
        assert old_out == triples_out == indented_out == named_out == echoed_out == new_out
        assert new_out["inspect"].startswith(INSPECT_HEADER + "\n")
        assert set(json.loads(new_out["metrics_json"])) == {
            "AA", "AIA", "FM", "IM", "final_macro_accuracy", "final_micro_accuracy"}
