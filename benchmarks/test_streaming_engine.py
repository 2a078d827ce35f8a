"""Streaming engine throughput: delta refresh vs batch recompute refresh.

The tentpole claim of the streaming engine: with a window slide of <= 5%
of the window size on a Hawkes (self-exciting, cache-churning) feed, the
delta path — one `StreamEngine.push` updating the maintained KDV surface,
Gi* lattice and windowed K together — sustains at least **5x** the refresh
rate of recomputing all three analytics from the window contents.

Alongside the throughput ratio, each refresh's *correctness* is pinned:

* the maintained f64 KDV surface stays within the accumulator's published
  drift tolerance of a fresh scatter (and is bit-identical to it right
  after a single-chunk re-scatter);
* streamed Gi* and windowed K equal their batch counterparts within 1e-9
  (they maintain integer state, so they are exact in practice).

Machine-readable results: ``benchmarks/results/BENCH_streaming_engine.json``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.core.autocorrelation import local_gi_star
from repro.core.kdv import KDVProblem, kde_gridcut
from repro.core.kfunction import ripley_k
from repro.data import hawkes_stream
from repro.stream import (
    StreamEngine,
    StreamingHotspot,
    StreamingKDV,
    StreamingKFunction,
    StreamWindow,
)

from _util import RESULTS_DIR, record

BBOX = repro.BoundingBox(0.0, 0.0, 20.0, 20.0)
SIZE = (128, 96)
LATTICE = (24, 16)
BANDWIDTH = 1.0
THRESHOLDS = (0.5, 1.0, 1.5, 2.0)
WINDOW = 4000
STEP = 200  # 5% of the window per slide
N_EVENTS = 12000
ROWS: list[list] = []


@pytest.fixture(scope="module")
def hawkes_feed():
    return hawkes_stream(BBOX, N_EVENTS, mu=2.0, seed=17)


def _build_engine():
    engine = StreamEngine(StreamWindow(capacity=WINDOW))
    engine.register("kdv", StreamingKDV(BBOX, SIZE, BANDWIDTH))
    engine.register("hotspot", StreamingHotspot(BBOX, LATTICE))
    engine.register("kfunction", StreamingKFunction(BBOX, THRESHOLDS))
    return engine


def test_delta_refresh(benchmark, hawkes_feed):
    pts, ts = hawkes_feed
    engine = _build_engine()
    engine.push(pts[:WINDOW], ts[:WINDOW])  # warm-up fill, not measured
    state = {"hi": WINDOW}

    def refresh():
        hi = state["hi"]
        if hi + STEP > pts.shape[0]:
            return engine
        engine.push(pts[hi:hi + STEP], ts[hi:hi + STEP])
        state["hi"] = hi + STEP
        return engine

    benchmark.pedantic(refresh, rounds=10, iterations=1)
    ROWS.append(["delta refresh (engine.push)", benchmark.stats.stats.mean])

    # Correctness of every maintained analytic against batch, right here
    # on the final refreshed window.
    wpts = engine.window.points
    kdv = engine.analytics["kdv"]
    fresh = StreamingKDV(BBOX, SIZE, BANDWIDTH).add(wpts)
    drift = np.abs(kdv.surface(0) - fresh.surface(0)).max()
    assert drift <= kdv.drift_tolerance

    hotspot = engine.analytics["hotspot"]
    batch_g = local_gi_star(hotspot.bin(wpts), hotspot.weights)
    np.testing.assert_allclose(
        hotspot.snapshot().values.ravel(), batch_g, rtol=0.0, atol=1e-9
    )

    kfn = engine.analytics["kfunction"]
    batch_k = ripley_k(wpts, THRESHOLDS, BBOX, method="grid")
    np.testing.assert_allclose(
        kfn.snapshot().k, batch_k, rtol=0.0, atol=1e-9
    )

    # Bit-identity after an explicit single-chunk re-scatter (window fits
    # one 4096-event chunk): the drift clock restarts at a fresh surface.
    kdv.rescatter(wpts)
    np.testing.assert_array_equal(
        kdv.surface(0),
        StreamingKDV(BBOX, SIZE, BANDWIDTH).add(wpts).surface(0),
    )


def test_batch_recompute_refresh(benchmark, hawkes_feed):
    pts, ts = hawkes_feed
    window = StreamWindow(capacity=WINDOW)
    window.push(pts[:WINDOW], ts[:WINDOW])
    state = {"hi": WINDOW}

    def refresh():
        hi = state["hi"]
        if hi + STEP > pts.shape[0]:
            hi = WINDOW  # replay; cost is content-independent
            state["hi"] = WINDOW
        window.push(pts[hi:hi + STEP], ts[hi:hi + STEP])
        state["hi"] = hi + STEP
        wpts = window.points
        grid = kde_gridcut(
            KDVProblem(wpts, BBOX, SIZE, BANDWIDTH, "quartic")
        )
        hotspot = StreamingHotspot(BBOX, LATTICE)
        gi = local_gi_star(hotspot.bin(wpts), hotspot.weights)
        k = ripley_k(wpts, THRESHOLDS, BBOX, method="grid")
        return grid, gi, k

    grid, gi, k = benchmark.pedantic(refresh, rounds=3, iterations=1)
    assert grid.max > 0 and gi.shape[0] == LATTICE[0] * LATTICE[1]
    assert k.shape[0] == len(THRESHOLDS)
    ROWS.append(["batch recompute refresh", benchmark.stats.stats.mean])


def test_zz_report(benchmark):
    def report():
        by_key = dict(ROWS)
        delta_t = by_key["delta refresh (engine.push)"]
        batch_t = by_key["batch recompute refresh"]
        speedup = batch_t / delta_t
        payload = {
            "experiment": "streaming_engine",
            "workload": f"hawkes_stream(n={N_EVENTS}, mu=2.0, seed=17)",
            "size": list(SIZE),
            "lattice": list(LATTICE),
            "bandwidth": BANDWIDTH,
            "thresholds": list(THRESHOLDS),
            "window": WINDOW,
            "slide": STEP,
            "slide_fraction": STEP / WINDOW,
            "results": [
                {"strategy": key, "mean_seconds": t,
                 "events_per_second": STEP / t}
                for key, t in ROWS
            ],
            "delta_vs_batch_speedup": speedup,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_streaming_engine.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        # The acceptance bar: >= 5x the batch refresh rate at a 5% slide.
        assert speedup >= 5.0, (
            f"expected delta refresh >= 5x batch recompute, got {speedup:.2f}x"
        )
        rows = [
            [key, f"{t * 1e3:.1f} ms", f"{STEP / t:,.0f} ev/s"]
            for key, t in ROWS
        ]
        rows.append(["delta vs batch speedup", f"{speedup:.1f}x", ""])
        return record(
            "streaming_engine",
            rows,
            headers=["strategy", "mean refresh", "throughput"],
            title=(
                "Streaming engine: KDV + Gi* + K per refresh "
                f"(Hawkes, window {WINDOW}, slide {STEP} = "
                f"{100 * STEP // WINDOW}%)"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text
