"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same seeded workload twice, untraced and then
traced (the program started through ``launcher.py``), and reports the
per-layer metrics plus each end-to-end metric's traced-minus-untraced
difference as ``overhead.<metric>``.  Every metric is printed by name
with its unit; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A failed op or
output check, or a program that cannot be driven at all (a server that
does not start), makes ``correct`` false and the exit code 1.  A tree
without ``src/repro`` exits 2 without printing a result.

Full results (accounting, host metadata, p95 where the sample allows)
go to ``.perfbench/results/`` beside this directory, and a traced run's
spans to ``.perfbench/traces/`` as Chrome trace-event JSON (Perfetto).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
             "rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.startswith("overhead."):
        return E2E_UNITS[name.split(".", 1)[1]]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def e2e_metrics(workload, phase) -> dict[str, float] | None:
    """The end-to-end metrics, or None when no timed op succeeded."""
    import harness

    done = [op for op in phase.ops if op["phase"] == "measure" and op["ok"]
            and op["kind"] == workload.primary]
    if not done:
        return None
    return {
        "setup_s": harness.median(phase.setup_times),
        "op_p50_ms": harness.median([op["latency"] for op in done]) * 1e3,
        "ops_per_s": len(done) / phase.measured_s,
        "rss_mb": phase.rss_mb,
    }


def latency_detail(phase) -> dict:
    """Per ``phase/kind`` of the timed load and the (untimed) analyst
    session: samples, p50/p95/p99 (tails only with >= 10 samples beyond
    them) and, for the timed load, completions per measured second."""
    import harness

    out = {}
    keys = sorted({(op["phase"], op["kind"]) for op in phase.ops
                   if op["phase"] in ("measure", "analyst")})
    for stage, kind in keys:
        lat = [op["latency"] * 1e3 for op in phase.ops
               if op["phase"] == stage and op["kind"] == kind and op["ok"]]
        row = {"samples": len(lat)}
        if stage == "measure":
            row["per_s"] = len(lat) / phase.measured_s
        if lat:
            row["p50_ms"] = harness.median(lat)
            for q in (95, 99):
                tail = harness.tail_percentile(lat, q)
                if tail is not None:
                    row[f"p{q}_ms"] = tail
        out[f"{stage}/{kind}"] = row
    return out


def accounting(workload, phase) -> dict:
    measured = [op for op in phase.ops if op["phase"] == "measure"]
    failed_ops = sum(1 for op in measured if not op["ok"])
    analyst = [op for op in phase.ops if op["phase"] == "analyst"]
    return {
        "loop": "closed",
        "clients": workload.clients,
        "ops_attempted": len(measured),
        "ops_succeeded": len(measured) - failed_ops,
        "ops_failed": failed_ops,
        "setup_ops": len(phase.ops) - len(measured) - len(analyst),
        "setup_ops_failed": sum(1 for op in phase.ops
                                if op["phase"] == "setup" and not op["ok"]),
        "analyst_ops": len(analyst),
        "analyst_ops_failed": sum(1 for op in analyst if not op["ok"]),
        "checks": phase.checks,
        "checks_failed": len(phase.failures),
        "measured_s": phase.measured_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, out_dir: Path) -> dict:
    """One workload run; returns the result record (also written to disk).

    Every op the load generator sent (set-up ones too) and every output
    check is attempted once; a failed op or check, or a phase that could
    not drive the program at all, is a failure and makes the run
    incorrect.
    """
    import harness
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    probe_before = harness.cpu_probe_ms()
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    phases = []      # (label, workload, phase, end-to-end metrics or None)
    errors: list[str] = []
    try:
        for label in ("untraced", "traced") if trace else ("untraced",):
            workload = cls(root, workdir / label, seed, seconds)
            workload.workdir.mkdir()
            try:
                phase = workload.run(traced=label == "traced")
            except harness.BenchError as exc:
                errors.append(f"{label}: {exc}")
                continue
            e2e = e2e_metrics(workload, phase)
            if e2e is None:
                errors.append(f"{label}: no {cls.primary} op succeeded in "
                              "the measured phase")
            phases.append((label, workload, phase, e2e))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = {label: (phase, e2e) for label, _, phase, e2e in phases if e2e}
    metrics: dict[str, float] = {}
    if not trace and "untraced" in done:
        metrics = done["untraced"][1]
    elif trace and "traced" in done:
        tphase, t_e2e = done["traced"]
        spans = tracing.SpanSet(tphase.span_files)
        for span_name in tracing.REQUIRED_SPANS[name]:
            if spans.count(span_name) == 0:
                errors.append(f"span coverage: no {span_name} span "
                              f"recorded on {name}")
        metrics = tracing.layer_metrics(
            spans, tphase.ops, cls.primary,
            tracing.service_stats_delta(tphase.stats_before,
                                        tphase.stats_after))
        if "untraced" in done:
            for key, value in done["untraced"][1].items():
                metrics[f"overhead.{key}"] = t_e2e[key] - value
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracing.chrome_trace(spans,
                                                              tphase.ops)))

    failures = list(errors)
    for _, _, phase, _ in phases:
        failures += phase.failures
        failures += [f"{op['rid']}: {op.get('error', 'failed')}"
                     for op in phase.ops if not op["ok"]]
    attempted = sum(len(p.ops) + p.checks for _, _, p, _ in phases)
    attempted += len(errors)
    units = E2E_UNITS if not trace else {k: layer_unit(k) for k in metrics}
    record = {
        "workload": name,
        "why": cls.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        "phases": {label: {"e2e": e2e,
                           "latency": latency_detail(p),
                           "accounting": accounting(w, p),
                           "setup_times_s": p.setup_times}
                   for label, w, p, e2e in phases},
        "host": dict(harness.host_metadata(root),
                     cpu_probe_ms=[probe_before, harness.cpu_probe_ms()]),
        "program_root": str(root),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"trace {record['trace']}): {record['why']}")
    for label, phase in record["phases"].items():
        acct = phase["accounting"]
        print(f"  [{label}] {acct['loop']} loop, {acct['clients']} client(s), "
              f"{acct['measured_s']:.2f} s measured: {acct['ops_attempted']} "
              f"ops attempted, {acct['ops_succeeded']} succeeded, "
              f"{acct['ops_failed']} failed; {acct['setup_ops']} set-up ops, "
              f"{acct['setup_ops_failed']} failed; {acct['analyst_ops']} "
              f"analyst ops, {acct['analyst_ops_failed']} failed; "
              f"{acct['checks']} output "
              f"checks, {acct['checks_failed']} failed")
        for kind, row in phase["latency"].items():
            tails = "".join(f", {q} {row[q]:.3f} ms" for q in ("p95_ms", "p99_ms")
                            if q in row)
            p50 = f"p50 {row['p50_ms']:.3f} ms" if "p50_ms" in row else "no samples"
            rate = f", {row['per_s']:.3f}/s" if "per_s" in row else ""
            print(f"    {kind}: {row['samples']} samples, {p50}{tails}{rate}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")
    if len(record["failures"]) > 20:
        print(f"  ... and {len(record['failures']) - 20} more failures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="program tree to benchmark (default: this checkout)")
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for the full result records")
    args = parser.parse_args(argv)

    import harness

    try:
        src = harness.check_program(args.root.resolve())
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The in-process output checks must see the program exactly as the
    # child processes do: same source tree, no REPRO_* overrides.
    for var in harness.PROGRAM_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.root.resolve(), args.out)
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
