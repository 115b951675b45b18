"""clbgmm benchmark: one workload of the class-incremental protocol.

    python3 perfbench/run.py --workload fit_joint --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
./src). The workload seed goes only to generate_synthetic; data generation
and CSV writing happen before any timing. Each timed run is a fresh
process (perfbench/runner.py) doing what `clbgmm run` does; its outputs are
checked after it exits. --trace 0 reports the end-to-end metrics (medians
over the runs made in --seconds); --trace 1 alternates untraced and traced
runs and reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path(".bench_work")   # relative, so result files echo the same paths in every checkout
DEADLINE_S = 170.0           # every invocation ends well within 180 s
POOL_THREADS = 2             # CLBGMM_THREADS of the untimed thread-pool run
MIN_SETUP_SAMPLES = 4

# Shapes, protocol seeds and settings of each workload; why each was chosen
# is in README.md. Timed runs use one thread; with "pool_check", a traced
# invocation also makes one untimed run on the multi_seed thread pool.
# "tiny" exists for the smoke test only.
WORKLOADS = {
    "fit_joint": {
        "synth": dict(n_basic_classes=7, n_compound_classes=15, dim_a=2, dim_b=2,
                      samples_per_class_train=30, samples_per_class_test=10,
                      cluster_spread=1.0),
        "covariance": "diagonal", "seeds": [1, 2, 3, 4, 5, 6], "joint": True,
        "cli_check": True, "pool_check": False,
    },
    "score_wide": {
        "synth": dict(n_basic_classes=20, n_compound_classes=40, dim_a=32, dim_b=32,
                      samples_per_class_train=300, samples_per_class_test=100,
                      cluster_spread=6.0),
        "covariance": "diagonal", "seeds": [1], "joint": False,
        "cli_check": False, "pool_check": False,
    },
    "full_cov": {
        "synth": dict(n_basic_classes=16, n_compound_classes=32, dim_a=8, dim_b=8,
                      samples_per_class_train=60, samples_per_class_test=10,
                      cluster_spread=2.5),
        "covariance": "full", "seeds": [1, 2, 3, 4], "joint": False,
        "cli_check": False, "pool_check": True,
    },
    "tiny": {
        "synth": dict(n_basic_classes=3, n_compound_classes=2, dim_a=2, dim_b=2,
                      samples_per_class_train=12, samples_per_class_test=6,
                      cluster_spread=1.0),
        "covariance": "diagonal", "seeds": [1, 2], "joint": True,
        "cli_check": True, "pool_check": True,
    },
}

# name -> unit; every metric is a median over the invocation's timed runs
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "result_bytes": "bytes",
    "final_aa": "fraction",
}


class Bench:
    """One invocation: the generated workload and its tally of runs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = WORKLOADS[name]
        self.dir = WORK / name
        self.attempted = 0
        self.failed = 0
        self.reference = None     # {file name: sha256} of the first checked run
        self.t_start = time.perf_counter()
        self._generate(seed)

    def _generate(self, seed: int) -> None:
        from clbgmm.dataset import SyntheticConfig, generate_synthetic, write_feature_table

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        table_a, table_b, tasks = generate_synthetic(SyntheticConfig(**self.spec["synth"]), seed)
        modalities = []
        for table, normalize in ((table_a, True), (table_b, False)):
            path = self.dir / f"{table.modality_name}.csv"
            write_feature_table(table, path)
            modalities.append({"name": table.modality_name, "path": str(path),
                               "dim": table.dim, "normalize": normalize})
        manifest = {
            "tasks": [{"name": t.name, "classes": list(t.class_labels)} for t in tasks],
            "modalities": modalities,
            "fusion": {"strategy": "concat"},
            "bgmm": {"max_components": 10, "covariance_type": self.spec["covariance"]},
            "seeds": self.spec["seeds"],
            "output": str(self.dir / "results" / "run"),
        }
        self.manifest = self.dir / "manifest.json"
        self.manifest.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def _env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["CLBGMM_THREADS"] = str(threads)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"   # the only threads are the seed pool's
        return env

    def _launch(self, out: str, argv: list, threads: int):
        """Run one process writing under `out`; None (a failure) unless it exits 0."""
        shutil.rmtree(self.dir / out, ignore_errors=True)
        self.attempted += 1
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self._env(threads), capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return self._fail(f"{out}: timed out")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return self._fail(f"{out}: exit {proc.returncode}: {tail[0]}")
        return proc

    def child(self, out: str, threads=1, setup_only=False, spans=None, fail=False):
        """Run runner.py once; returns its JSON document, or None if it failed."""
        argv = [sys.executable, str(HERE / "runner.py"),
                "--manifest", str(self.manifest), "--out", str(self.dir / out / "run")]
        if not self.spec["joint"]:
            argv.append("--no-joint")
        if setup_only:
            argv.append("--setup-only")
        if spans:
            argv += ["--spans", str(spans)]
        if fail:
            argv.append("--fail")
        proc = self._launch(out, argv, threads)
        if proc is None:
            return None
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(f"{out}: no result document on stdout")
        if setup_only:
            return doc
        problem = self._check(doc)
        return self._fail(f"{out}: {problem}") if problem else doc

    def _fail(self, message: str):
        self.failed += 1
        print(f"FAILED {self.name} {message}", file=sys.stderr)
        return None

    def _digests(self, paths) -> dict:
        return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}

    def _check(self, doc: dict):
        """Output checks of one run; returns a problem description or None."""
        if not doc["readback_ok"]:
            return "load_run_result(...).metrics() differs from the in-memory report"
        if not doc["final_aa"] > 1.0 / doc["n_classes"]:
            return f"final AA {doc['final_aa']} is not above chance 1/{doc['n_classes']}"
        digests = self._digests(doc["files"] + [doc["aggregate"]])
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            return "result files differ from the first run of this invocation"
        doc["result_bytes"] = sum(Path(p).stat().st_size for p in doc["files"])
        return None

    def cli_check(self) -> None:
        """Untimed: `clbgmm run --manifest` must write the same files."""
        argv = [sys.executable, "-m", "clbgmm.cli", "run", "--manifest", str(self.manifest),
                "--out", str(self.dir / "cli" / "run")]
        if self._launch("cli", argv, 1) is None:
            return
        paths = sorted((self.dir / "cli").glob("run_*.json"))
        if self.reference is not None and self._digests(paths) != self.reference:
            self._fail("cli: `clbgmm run` wrote other result files than the timed runs")


def median(values):
    return statistics.median(values) if values else None


def timed_loop(bench: Bench, seconds: float, step) -> None:
    """Call step() until another one would overrun `seconds`, once it has
    produced a sample (or failed three times)."""
    start = time.perf_counter()
    durations = []
    samples = 0
    while True:
        t = time.perf_counter()
        samples += step()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        typical = median(durations)
        if typical * 3 > bench.remaining():
            return
        if elapsed + typical > seconds and (samples or len(durations) >= 3):
            return


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 inject_failure: bool = False) -> dict:
    bench = Bench(name, seed)
    runs, traced, setups = [], [], []
    state = {"fail": inject_failure}

    def untraced():
        doc = bench.child("timed", fail=state.pop("fail", False))
        if doc:
            runs.append(doc)
            setups.append(doc["setup_s"])
        return doc is not None

    def untraced_then_traced():
        untraced()
        spans = bench.dir / "spans.json"
        doc = bench.child("traced", spans=spans)
        if doc:
            with open(spans, encoding="utf-8") as fh:
                traced.append(json.load(fh))
        return doc is not None

    bench.child("warmup", setup_only=True)   # untimed: compiles the .pyc files, caches the CSVs
    timed_loop(bench, seconds, untraced_then_traced if trace else untraced)
    if not trace:
        while len(setups) < MIN_SETUP_SAMPLES and bench.remaining() > 30:
            doc = bench.child("setup", setup_only=True)
            if doc:
                setups.append(doc["setup_s"])

    extra = {}
    # the untimed equality checks cost a whole run each, so only traced
    # invocations (which also run the workload untraced) make them
    if trace and bench.spec["pool_check"]:
        doc = bench.child("pool", threads=POOL_THREADS)   # checked against the timed runs' files
        if doc:
            extra[f"run_s_{POOL_THREADS}threads"] = (doc["run_s"], "s")
            extra[f"cpu_per_wall_{POOL_THREADS}threads"] = (doc["cpu_s"] / doc["wall_s"], "ratio")
    if trace and bench.spec["cli_check"]:
        bench.cli_check()

    if trace:
        from tracer import LAYER_METRICS, layer_metrics

        untraced_run_s = median([d["run_s"] for d in runs])
        per_run = [layer_metrics(doc, untraced_run_s) for doc in traced] if runs else []
        metrics = {}
        for key, unit in LAYER_METRICS.items():
            values = [m[key] for m in per_run if m[key] is not None]
            metrics[key] = (median(values) if len(values) == len(per_run) else None, unit)
    else:
        metrics = {key: (median([d[key] for d in runs]), unit) for key, unit in END_TO_END.items()}
        metrics["setup_s"] = (median(setups), "s")
    samples_by_metric = {"setup_s": setups, "run_s": [d["run_s"] for d in runs]}
    if trace:
        samples_by_metric["traced run_s"] = [d["run_s"] for d in traced]
    return {"attempted": bench.attempted, "failed": bench.failed,
            "samples_by_metric": samples_by_metric,
            "metrics": metrics, "extra": extra, "measured": len(traced if trace else runs)}


def report(outcome: dict, prefix: str = "") -> dict:
    """Print one metric a line; return the JSON form of the metrics."""
    for key, (value, unit) in {**outcome["metrics"], **outcome["extra"]}.items():
        shown = "missing" if value is None else value if isinstance(value, int) else f"{value:.6g}"
        print(f"{prefix}{key} {shown} {unit}")
    for key, samples in outcome["samples_by_metric"].items():
        print(f"{prefix}# {key} samples: {' '.join(f'{v:.4g}' for v in samples)}")
    rate = outcome["failed"] / outcome["attempted"]
    print(f"{prefix}error_rate {rate:.6g} fraction "
          f"({outcome['failed']} of {outcome['attempted']} runs; {outcome['measured']} measured)")
    return {f"{prefix}{key}": {"value": value, "unit": unit}
            for key, (value, unit) in outcome["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="make the first timed run fail (smoke test of error accounting)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clbgmm" / "__init__.py").is_file():
        print(f"error: run from the root of a clbgmm checkout ({ROOT / 'src' / 'clbgmm'} "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import clbgmm
    if Path(clbgmm.__file__).resolve().parent != (ROOT / "src" / "clbgmm").resolve():
        print(f"error: imported clbgmm from {clbgmm.__file__}, not ./src", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(name, trace) for name in WORKLOADS if name != "tiny" for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    measured = True
    metrics = {}
    for name, trace in jobs:
        outcome = run_workload(name, args.seed, args.seconds, trace, args.inject_failure)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        measured = measured and outcome["measured"] > 0
        metrics.update(report(outcome, f"{name}/" if args.workload == "all" else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
