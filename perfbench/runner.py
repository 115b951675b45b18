"""One run of a workload in a fresh process, as `clbgmm run` performs it.

    python3 perfbench/runner.py --manifest M --out BASE [--no-joint]
        [--setup-only] [--spans PATH] [--fail]

Times set-up (import clbgmm.cli, parse the manifest, load every modality
CSV) and the run (multi_seed, then every per-seed result file and the
aggregate written), then, untimed, reads each result file back and checks
that its metrics equal the in-memory report. Prints one JSON object.
With --spans the public calls into each layer are traced and the spans are
written to PATH at the end. clbgmm must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--no-joint", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--fail", action="store_true", help="raise after the run (smoke test)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import clbgmm.cli  # noqa: F401  (the import `clbgmm run` pays)
    import_s = time.perf_counter() - t0
    from clbgmm.dataset import load_feature_table, parse_manifest
    from clbgmm.protocol import load_run_result, multi_seed, save_run_result

    tracer = None
    missing = []
    if args.spans:
        from tracer import Tracer, install
        tracer = Tracer()
        missing = install(tracer)
        # install() rebinds the module attributes; fetch the wrapped ones
        from clbgmm.dataset import load_feature_table, parse_manifest  # noqa: F811
        from clbgmm.protocol import load_run_result, multi_seed, save_run_result  # noqa: F811

    def phase(name):
        return tracer.span(name) if tracer else nullcontext()

    with phase("bench.setup"):
        manifest = parse_manifest(Path(args.manifest).read_text(encoding="utf-8"))
        tables = [load_feature_table(spec.path, spec.dim, spec.name)
                  for spec in manifest.modalities]
    t1 = time.perf_counter()
    doc = {"setup_s": t1 - t0, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    with phase("bench.run"):
        cpu0 = time.process_time()
        results, agg = multi_seed(manifest, tables, compute_joint_reference=not args.no_joint)
        doc["cpu_s"] = time.process_time() - cpu0
        doc["wall_s"] = time.perf_counter() - t1
        out_base = Path(args.out)
        out_base.parent.mkdir(parents=True, exist_ok=True)
        files = [f"{out_base}_seed{result.seed}.json" for result in results]
        for result, path in zip(results, files):
            save_run_result(result, path)
        Path(f"{out_base}_aggregate.json").write_text(
            json.dumps(agg.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
    doc["run_s"] = time.perf_counter() - t1
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.fail:
        raise RuntimeError("injected failure")

    reports = [result.metrics() for result in results]
    with phase("bench.readback"):
        readback = [load_run_result(path).metrics() for path in files]
    doc["readback_ok"] = [a.to_dict() for a in readback] == [r.to_dict() for r in reports]
    doc["final_aa"] = sum(r.aa[-1] for r in reports) / len(reports)
    doc["n_classes"] = sum(len(t.class_labels) for t in manifest.tasks)
    doc["files"] = files
    doc["aggregate"] = f"{out_base}_aggregate.json"
    if tracer:
        n_test = sum(results[0].per_task_test_sizes)
        doc["pairs_needed"] = n_test * doc["n_classes"] * len(results)
        tracer.dump(args.spans, missing=missing, **doc)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
