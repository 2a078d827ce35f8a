"""Ablation G: streaming KDV updates vs batch recomputation.

The deployed systems (KDV-Explorer, the live COVID maps) refresh their
heatmaps as events arrive/expire.  The maintained surface charges one
kernel patch per *changed* point; a batch recompute charges every point.
This ablation slides a window over the crime workload and compares the
per-refresh cost, verifying the streamed surface matches the batch one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, kde_gridcut
from repro.stream import StreamingKDV

from _util import RESULTS_DIR, record

SIZE = (128, 96)
BANDWIDTH = 1.5
WINDOW = 5000
STEP = 250
ROWS: list[list] = []


@pytest.fixture(scope="module")
def stream(crime_large):
    return crime_large.points  # 20k events, treated as a time-ordered stream


def test_streaming_updates(benchmark, stream, crime_large):
    acc = StreamingKDV(crime_large.bbox, SIZE, BANDWIDTH)
    acc.add(stream[:WINDOW])
    state = {"lo": 0, "hi": WINDOW}

    def refresh():
        lo, hi = state["lo"], state["hi"]
        if hi + STEP > stream.shape[0]:
            return acc.snapshot()
        acc.add(stream[hi:hi + STEP])
        acc.remove(stream[lo:lo + STEP])
        state["lo"] = lo + STEP
        state["hi"] = hi + STEP
        return acc.snapshot()

    grid = benchmark.pedantic(refresh, rounds=8, iterations=1)
    assert grid.max > 0
    ROWS.append(["streaming (250-event slide)", benchmark.stats.stats.mean])

    # Correctness: the streamed window equals a from-scratch evaluation.
    lo, hi = state["lo"], state["hi"]
    batch = kde_gridcut(
        KDVProblem(stream[lo:hi], crime_large.bbox, SIZE, BANDWIDTH, "quartic")
    )
    assert acc.snapshot().max_abs_difference(batch) < 1e-7 * max(batch.max, 1.0)


def test_batch_recompute(benchmark, stream, crime_large):
    def recompute():
        return kde_gridcut(
            KDVProblem(stream[:WINDOW], crime_large.bbox, SIZE, BANDWIDTH, "quartic")
        )

    grid = benchmark.pedantic(recompute, rounds=3, iterations=1)
    assert grid.max > 0
    ROWS.append(["batch recompute (5000 events)", benchmark.stats.stats.mean])


def test_zz_report(benchmark):
    def report():
        by_key = dict(ROWS)
        stream_t = by_key["streaming (250-event slide)"]
        batch_t = by_key["batch recompute (5000 events)"]
        assert stream_t < batch_t, "the incremental update must beat recompute"
        payload = {
            "experiment": "streaming",
            "workload": "chicago_crime(20000)",
            "size": list(SIZE),
            "bandwidth": BANDWIDTH,
            "window": WINDOW,
            "slide": STEP,
            "results": [
                {"strategy": k, "mean_seconds": t} for k, t in ROWS
            ],
            "delta_vs_batch_speedup": batch_t / stream_t,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_streaming.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        rows = [[k, f"{t * 1e3:.1f} ms"] for k, t in ROWS]
        rows.append(["speedup per refresh", f"{batch_t / stream_t:.1f}x"])
        return record(
            "ablation_streaming",
            rows,
            headers=["strategy", "mean time"],
            title=(
                "Ablation G: sliding-window heatmap refresh "
                f"(window {WINDOW}, slide {STEP}, {SIZE[0]}x{SIZE[1]})"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text
