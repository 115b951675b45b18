"""Command-line entry point: a thin shell over the library.

Subcommands: synth (write a seeded synthetic dataset + manifest with absolute
paths), run (execute a manifest across its seeds), metrics (recompute the
metric series from a results file), oracle (union accuracy of two runs),
report (plot-ready CSV series), inspect (one CSV row per class of the fit
metadata, which loading checks). The library owns every file format, setting
and check: ``dataset`` the manifest and CSV layouts and the synthetic
generator's defaults, ``protocol`` the result and aggregate files,
``metrics`` the accuracy formula. Exit codes: 0 success, 2 input/validation
error (including a file that is not UTF-8 text), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bgmm import BgmmConfig
from .dataset import (
    ExperimentManifest,
    ModalitySpec,
    SyntheticConfig,
    generate_synthetic,
    load_feature_table,
    manifest_to_dict,
    parse_manifest,
    read_utf8,
    write_feature_table,
)
from .errors import NumericalError, ValidationError
from .metrics import accuracy, relative_evolution
from .protocol import (
    load_run_result,
    multi_seed,
    oracle_union_accuracy,
    save_aggregate,
    save_run_result,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def cmd_synth(args) -> int:
    config = SyntheticConfig(**{f.name: getattr(args, f.name) for f in fields(SyntheticConfig)})
    table_a, table_b, tasks = generate_synthetic(config, args.seed)
    # absolute, so the manifest runs from any working directory
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    modalities = []
    for table, normalize in ((table_a, True), (table_b, False)):
        path = out_dir / f"{table.modality_name}.csv"
        write_feature_table(table, path)
        modalities.append(ModalitySpec(table.modality_name, str(path), table.dim, normalize))
    manifest = ExperimentManifest(tasks=tuple(tasks), modalities=tuple(modalities),
                                  fusion_strategy="concat", bgmm_config=BgmmConfig(),
                                  seeds=(args.seed,), output_path=str(out_dir / "results"))
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest_to_dict(manifest), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_dir}/mod_a.csv, mod_b.csv, manifest.json "
          f"({len(tasks)} tasks, {config.n_basic_classes + config.n_compound_classes} classes)")
    return EXIT_OK


def cmd_run(args) -> int:
    text = read_utf8(args.manifest)
    try:
        manifest = parse_manifest(text)
    except ValidationError as exc:
        raise ValidationError(f"{args.manifest}: {exc}") from exc
    tables = [
        load_feature_table(spec.path, spec.dim, spec.name)
        for spec in manifest.modalities
    ]
    out_base = Path(args.out) if args.out else Path(manifest.output_path)
    out_base.parent.mkdir(parents=True, exist_ok=True)  # before the first fit
    results, agg = multi_seed(manifest, tables)
    for result in results:
        save_run_result(result, f"{out_base}_seed{result.seed}.json")
    save_aggregate(agg, f"{out_base}_aggregate.json")
    for result in results:
        final_aa = result.metrics().aa[-1]
        print(f"seed {result.seed}: final AA = {final_aa:.4f}")
    print(f"wrote {len(results)} result file(s) + aggregate at {out_base}_*.json")
    return EXIT_OK


def _metric_rows(report) -> list:
    """The k,AA,AIA,FM,IM table of a metric series, header row first."""
    rows = [["k", "AA", "AIA", "FM", "IM"]]
    for k in range(len(report.aa)):
        rows.append([str(k + 1), f"{report.aa[k]:.6f}", f"{report.aia[k]:.6f}",
                     "" if report.fm[k] is None else f"{report.fm[k]:.6f}",
                     "" if report.im is None else f"{report.im[k]:.6f}"])
    return rows


def cmd_metrics(args) -> int:
    result = load_run_result(args.results)
    report = result.metrics()
    if args.format == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=1)
    else:
        lines = [",".join(row) for row in _metric_rows(report)]
        lines.append(f"# final_macro={report.final_macro_accuracy:.6f} "
                     f"final_micro={report.final_micro_accuracy:.6f}")
        text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    result_a = load_run_result(args.results_a)
    result_b = load_run_result(args.results_b)
    row_b = {sid: i for i, sid in enumerate(result_b.sample_ids)}
    if set(result_a.sample_ids) != set(row_b):
        raise ValidationError("results cover different test sample ids")
    order = [row_b[sid] for sid in result_a.sample_ids]  # run B's rows in run A's order
    for sid, a, b in zip(result_a.sample_ids, result_a.truth, result_b.truth[order]):
        if a != b:
            raise ValidationError(f"sample {sid!r} has true class {a!r} in {args.results_a} "
                                  f"but {b!r} in {args.results_b}")
    truth, preds_a, preds_b = result_a.truth, result_a.predicted, result_b.predicted[order]

    task_of = result_a.task_of_rows()
    groups = [(name, task_of == k) for k, name in enumerate(result_a.matrix.task_names)]
    rows = [["task", "acc_a", "acc_b", "union"]]
    for name, group in groups + [("overall", slice(None))]:
        t, a, b = truth[group], preds_a[group], preds_b[group]
        rows.append([name, f"{accuracy(a, t):.6f}", f"{accuracy(b, t):.6f}",
                     f"{oracle_union_accuracy(a, b, t):.6f}"])
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return EXIT_OK


def cmd_report(args) -> int:
    if not args.results:
        raise ValidationError("at least one results file is required")
    stems = [Path(p).stem for p in args.results]
    for stem in stems:
        if stems.count(stem) > 1:
            # the stem names each run's CSVs and its per-class column
            raise ValidationError(f"two results files share the stem {stem!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    loaded = [(stem, load_run_result(p)) for stem, p in zip(stems, args.results)]

    for stem, result in loaded:
        t = result.matrix.n_tasks
        # per-task accuracy over time (one column per task)
        with (out_dir / f"{stem}_task_accuracy.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + [f"acc_{name}" for name in result.matrix.task_names])
            for k in range(1, t + 1):
                row = [k] + [f"{result.matrix.get(k, j):.6f}" if j <= k else ""
                             for j in range(1, t + 1)]
                writer.writerow(row)
        with (out_dir / f"{stem}_metrics.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(_metric_rows(result.metrics()))

    # per-class correct counts side by side, plus a difference column for
    # the first two runs
    per_class = [result.per_class_correct() for _, result in loaded]
    classes = sorted({c for counts in per_class for c in counts})
    with (out_dir / "per_class_correct.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["class"] + [stem for stem, _ in loaded]
        if len(loaded) >= 2:
            header.append(f"{loaded[0][0]}_minus_{loaded[1][0]}")
        writer.writerow(header)
        for cls in classes:
            counts = [run_counts.get(cls, 0) for run_counts in per_class]
            row = [cls] + counts
            if len(loaded) >= 2:
                row.append(counts[0] - counts[1])
            writer.writerow(row)

    if len(loaded) >= 2:
        # relative evolution of the first run against each other run
        merged = loaded[0][1].metrics().final_micro_accuracy
        with (out_dir / "relative_evolution.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["baseline", "merged_final", "baseline_final", "relative_evolution"])
            for stem, result in loaded[1:]:
                base = result.metrics().final_micro_accuracy
                writer.writerow([stem, f"{merged:.6f}", f"{base:.6f}",
                                 f"{relative_evolution(merged, base):.6f}"])
    print(f"wrote report CSVs to {out_dir}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    result = load_run_result(args.results)
    keys = ["iterations", "merges", "converged", "components_kept", "components_pruned",
            "all_pruned_fallback", "final_elbo"]
    rows = [["class", *keys]]
    for label, mixture in result.ensemble.models.items():
        meta = {**mixture.metadata, "components_kept": mixture.n_components}
        # as JSON, as the file holds them; merges is absent from files written before merge moves
        rows.append([label] + [json.dumps(meta[key]) if key in meta else "" for key in keys])
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clbgmm",
        description="Class-incremental learning with class-conditional Bayesian Gaussian mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic two-modality dataset")
    p.add_argument("--out", required=True)
    # each flag sets the SyntheticConfig field it names; the defaults are the
    # dataclass's, except the class counts, which have none there
    p.add_argument("--basic", type=int, default=4, dest="n_basic_classes")
    p.add_argument("--compound", type=int, default=4, dest="n_compound_classes")
    for flag, field, kind in (("--dim-a", "dim_a", int), ("--dim-b", "dim_b", int),
                              ("--per-class-train", "samples_per_class_train", int),
                              ("--per-class-test", "samples_per_class_test", int),
                              ("--spread", "cluster_spread", float),
                              ("--bias", "modality_bias", float)):
        p.add_argument(flag, type=kind, default=getattr(SyntheticConfig, field), dest=field)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run a manifest across its seeds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("metrics", help="compute metric series from a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("oracle", help="union accuracy of two runs")
    p.add_argument("--results-a", required=True, dest="results_a")
    p.add_argument("--results-b", required=True, dest="results_b")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="emit plot-ready CSV series")
    p.add_argument("--results", nargs="*", default=[])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="print each class's fit metadata as CSV")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
