"""Compare two program trees on the benchmark, by alternating pairs.

    # measure: pair i of 10 runs both trees on seed i, alternating which goes first
    python3 perfbench/compare.py run --base ../parent --head . \\
        --workload serve-warm --out .perfbench/compare

    # judge: per end-to-end metric x workload, from the two result sets
    python3 perfbench/compare.py report .perfbench/compare/base .perfbench/compare/head

Both sides run this checkout's benchmark code (``run.py --root TREE``),
so only the program differs, for ``run_seconds`` of ``BENCHMARK.json``
each.  ``report`` applies the claim rule of the
choosing-metrics guide, section 8, with the bounds of ``BENCHMARK.json``:

* **improved** — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  inter-quartile spread;
* **unresolved** — the parent's own spread (IQR / median) is wider than
  the metric's bound and not every change run beats every parent run;
* **regressed** — the change's median is worse than the parent's by more
  than the bound;
* **unchanged** — otherwise (within the bound).

``report`` exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
PAIRS = 10


def run_pairs(args) -> int:
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        for workload in args.workload:
            for side in order:
                cmd = [sys.executable, str(RUN), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--root", str(sides[side]),
                       "--out", str(args.out / side)]
                print(f"pair {seed} {workload}: {side}", flush=True)
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      cwd=HERE.parent)
                if done.returncode != 0:
                    print(done.stdout[-2000:], done.stderr[-2000:],
                          file=sys.stderr)
                    return done.returncode
    return 0


def load(directory: Path) -> dict:
    """``{(workload, seed): record}`` of every untraced result file."""
    out = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["seed"])] = record
    return out


def judge(base: list[float], head: list[float], better: str,
          bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0   # >0 means head is worse
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) > 0)
    b_med, h_med = statistics.median(base), statistics.median(head)
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
    else:
        q1 = q3 = base[0]
    iqr = q3 - q1
    spread = iqr / abs(b_med) if b_med else float("inf")
    worse = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if (wins >= WIN_SHARE * len(pairs) and abs(h_med - b_med) > iqr
            and worse < 0):
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"pairs": len(pairs), "wins": wins, "losses": losses,
            "base_median": b_med, "head_median": h_med,
            "base_iqr": iqr, "base_spread": spread, "change": worse * -1.0,
            "verdict": verdict}


def report(args) -> int:
    spec = json.loads(BENCHMARK.read_text())
    base, head = load(args.base_results), load(args.head_results)
    keys = sorted(set(base) & set(head))
    if not keys:
        print("no (workload, seed) pair present in both result sets",
              file=sys.stderr)
        return 2
    workloads = sorted({w for w, _ in keys})
    regressed = False
    print(f"{'workload':16s} {'metric':10s} {'pairs':>5s} {'wins':>5s} "
          f"{'parent':>12s} {'change':>12s} {'gain':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[(workload, s)]["metrics"][name]["value"] for s in seeds]
            h = [head[(workload, s)]["metrics"][name]["value"] for s in seeds]
            row = judge(b, h, metric["better"], metric["bound"])
            regressed |= row["verdict"] == "regressed"
            note = ("" if row["pairs"] >= 10 or row["verdict"] != "improved"
                    else " (fewer than 10 pairs: not enough to claim)")
            print(f"{workload:16s} {name:10s} {row['pairs']:5d} {row['wins']:5d} "
                  f"{row['base_median']:12.4f} {row['head_median']:12.4f} "
                  f"{row['change']:+8.2%} {row['base_spread']:7.2%} "
                  f"{metric['bound']:6.2f}  {row['verdict']}{note}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="measure alternating pairs")
    run.add_argument("--base", type=Path, required=True,
                     help="parent program tree (holds src/repro)")
    run.add_argument("--head", type=Path, required=True,
                     help="changed program tree (holds src/repro)")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--out", type=Path, required=True,
                     help="results go to OUT/base and OUT/head")
    rep = sub.add_parser("report", help="judge two result sets")
    rep.add_argument("base_results", type=Path)
    rep.add_argument("head_results", type=Path)
    args = parser.parse_args(argv)
    return run_pairs(args) if args.mode == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
