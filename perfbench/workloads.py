"""The two workloads: inputs, set-up, closed-loop load and output checks.

Each workload writes its inputs (CSVs from the program's own synthetic
generators, seeded by ``--seed``) into a private temporary directory,
drives the program from outside (HTTP keep-alive clients against
``repro serve``, and on serve-warm an analyst session of queries and
fresh ``repro kdv`` processes), and then checks a seeded sample of the
outputs against an in-process computation.  See ``README.md`` for why
each workload exists and what it should move.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
import tracing
from harness import BenchError, Client, OpLog, Server

#: The tile server's JSON body tolerance, the one tests/test_serve.py uses.
TILE_ATOL = 1e-9


@dataclass
class Phase:
    """Everything one (traced or untraced) run of a workload produced."""

    setup_times: list[float]
    ops: list[dict]
    measured_s: float
    rss_mb: float
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    span_files: list[dict] = field(default_factory=list)
    stats_before: dict | None = None
    stats_after: dict | None = None


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    from repro.data import write_csv

    write_csv(path, points)


#: Generator seed of the synthetic city (hotspot layout, street grid).
#: The workload seed draws which events of the city a run sees, so runs
#: on different seeds pose problems of the same structure and cost.
CITY_SEED = 11


def _crime_points(n: int, seed_seq) -> np.ndarray:
    """``n`` synthetic-crime events drawn (in random order) from twice as
    many events of the fixed city."""
    from repro.data import chicago_crime

    city = chicago_crime(2 * n, seed=CITY_SEED).points
    rng = np.random.default_rng(seed_seq)
    return city[rng.choice(2 * n, n, replace=False)]


class Workload:
    """One seeded workload against ``repro serve``, in a private work
    directory.  Life cycle: write the inputs, boot the server on the CSV
    and warm it up (``setups`` times), run the client loops and any
    follow-up ops, read ``/stats``, check a sample of outputs, stop the
    server."""

    name = ""
    primary = ""      # op kind whose latency is op_p50_ms
    clients = 2
    setups = 3        # set-ups per run; setup_s is their median
    why = ""
    dataset = "crime"  # the dataset ``repro serve`` preloads from the CSV
    server_args: tuple[str, ...] = ()

    def __init__(self, root: Path, workdir: Path, seed: int, seconds: float):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def env(self, **extra: str) -> dict:
        return harness.child_env(self.root, self.workdir, **extra)

    def spans_path(self, traced: bool, label: str) -> Path | None:
        return self.workdir / f"spans-{label}.json" if traced else None

    def prepare(self) -> Path:
        """Write the inputs; returns the CSV the server loads."""
        raise NotImplementedError

    def warmup(self, client: Client, ops: OpLog, prefix: str) -> None:
        raise NotImplementedError

    def loops(self, port: int, ops: OpLog) -> list:
        """One ``loop(deadline)`` per client thread."""
        raise NotImplementedError

    def after_load(self, client: Client, ops: OpLog, phase: Phase,
                   traced: bool) -> None:
        """Ops that follow the timed load on the same server (untimed)."""

    def check(self, client: Client, phase: Phase) -> None:
        raise NotImplementedError

    def run(self, traced: bool) -> Phase:
        csv = self.prepare()
        ops = OpLog()
        setup = []
        for i in range(self.setups):
            t0 = time.perf_counter()
            server = Server([str(csv), "--name", self.dataset,
                             *self.server_args], self.env(), self.root,
                            self.spans_path(traced, f"server{i}"))
            client = None
            try:
                client = Client(server.port)
                self.warmup(client, ops, f"s{i}")
                setup.append(time.perf_counter() - t0)
                if i < self.setups - 1:
                    continue
                # The last server started is the one that gets loaded.
                before = client.json("GET", "/stats", "x-stats-before")
                measured = harness.closed_loop(self.loops(server.port, ops),
                                               self.seconds)
                phase = Phase(setup, ops.ops, measured, 0.0,
                              stats_before=before)
                self.after_load(client, ops, phase, traced)
                phase.stats_after = client.json("GET", "/stats",
                                                "x-stats-after")
                self.check(client, phase)
                phase.rss_mb = server.peak_rss_mb()
            finally:
                if client is not None:
                    client.close()
                server.stop()
        if traced:
            phase.span_files.append(server.spans())
        return phase

    def tile_path(self, z: int, x: int, y: int, bandwidth: float) -> str:
        return (f"/v1/tile/{self.dataset}/{z}/{x}/{y}.json"
                f"?bandwidth={bandwidth!r}")

    def get_tile(self, client: Client, ops: OpLog, rid: str, phase: str,
                 tile, client_id: int = 0):
        return ops.call(client, "GET", self.tile_path(*tile), rid, kind="tile",
                        phase=phase, client=client_id)

    def check_tiles(self, client: Client, phase: Phase, tiles,
                    points: np.ndarray, csv: Path, weights=None) -> None:
        """Fetch a seeded sample of ``tiles`` (drawn by ``weights``, if
        given) and compare each with a fresh in-process service built on
        ``points`` (the final point set)."""
        from repro.data import read_dataset_csv
        from repro.serve import AnalyticsService

        rng = self.rng(20)
        sample = [tiles[i] for i in rng.choice(len(tiles), self.check_sample,
                                               replace=False, p=weights)]
        service = AnalyticsService()
        bbox = read_dataset_csv(csv, margin=0.05).bbox
        service.create_dataset(self.dataset, points, bbox=bbox)
        for i, (z, x, y, bw) in enumerate(sample):
            phase.checks += 1
            status, body, _ = client.call("GET", self.tile_path(z, x, y, bw),
                                          f"c-{i}")
            try:
                got = json.loads(body) if status == 200 else None
                values = np.asarray(got["values"], dtype=np.float64)
                got_bbox = tuple(got["bbox"])
            except (ValueError, TypeError, KeyError):
                phase.failures.append(f"check tile {z}/{x}/{y}@{bw}: status "
                                      f"{status}, body {body[:100]!r}")
                continue
            want = service.tile(self.dataset, z, x, y, bw)
            if (values.shape != want.values.shape
                    or got_bbox != want.bbox
                    or not np.allclose(values, want.values, rtol=0.0,
                                       atol=TILE_ATOL)):
                err = (float(np.max(np.abs(values - want.values)))
                       if values.shape == want.values.shape else "shape")
                phase.failures.append(
                    f"tile {z}/{x}/{y}@{bw} differs from a fresh service "
                    f"(max abs err {err})")


class ServeWarm(Workload):
    """Cache-hit tiles over a small hot set: the wire path alone.  After
    the timed load, one analyst session runs on the same server."""

    name = "serve-warm"
    primary = "tile"
    why = ("2 keep-alive clients GET 21 cached tiles (z0-z2) of 20k points: "
           "frontend and cache hit only; then an untimed, traced analyst "
           "session of queries and `repro kdv` runs")
    n_points = 20_000
    bandwidth = 1.0
    check_sample = 6

    def tiles(self):
        return [(z, x, y, self.bandwidth) for z in range(3)
                for x in range(2 ** z) for y in range(2 ** z)]

    def prepare(self) -> Path:
        csv = self.workdir / "crime.csv"
        _write_points_csv(csv, _crime_points(self.n_points, [self.seed, 1]))
        return csv

    def warmup(self, client, ops, prefix):
        # Both clients fetch the same cold tiles at once, as two map views
        # opening on one area do; the service coalesces the overlapping
        # identical requests into one computation each.
        second = Client(client.port)

        def fetch(c, conn):
            for i, tile in enumerate(self.tiles()):
                self.get_tile(conn, ops, f"{prefix}-{c}-{i}", "setup", tile, c)

        try:
            harness.run_threads([lambda: fetch(0, client),
                                 lambda: fetch(1, second)])
        finally:
            second.close()

    def loops(self, port, ops):
        tiles = self.tiles()

        def reader(c):
            def loop(deadline):
                rng = self.rng(10, c)
                conn = Client(port)
                i = 0
                while time.perf_counter() < deadline:
                    tile = tiles[int(rng.integers(len(tiles)))]
                    self.get_tile(conn, ops, f"m{c}-{i}", "measure", tile, c)
                    i += 1
                conn.close()
            return loop

        return [reader(c) for c in range(self.clients)]

    def after_load(self, client, ops, phase, traced):
        self.analyst = AnalystSession(self)
        self.analyst.run(client, ops, phase, traced)

    def check(self, client, phase):
        from repro.data import read_dataset_csv

        csv = self.workdir / "crime.csv"
        self.check_tiles(client, phase, self.tiles(),
                         read_dataset_csv(csv).points, csv)
        self.analyst.check(phase)


class ServeIngest(Workload):
    """Back-to-back ingests beside Zipf-popular tile reads."""

    name = "serve-ingest"
    primary = "ingest"
    why = ("the timed op is a 20-point ingest sent back to back beside a "
           "Zipf tile reader over 672 tiles (cache holds 128): surface sync, "
           "invalidation, LRU evictions and cache misses")
    n_points = 20_000
    pool = 40_000
    batch = 20
    bandwidths = (0.5, 0.75)
    zooms = (2, 3, 4)
    zipf_s = 1.0
    # A run's reader touches only ~260 distinct tiles (its rate is bound by
    # the 44 ms stall), so the default 512-entry cache would never evict;
    # a 128-entry cache keeps the LRU churning.
    server_args = ("--tile-cache", "128")
    check_sample = 24

    def tiles(self):
        return [(z, x, y, bw) for bw in self.bandwidths for z in self.zooms
                for x in range(2 ** z) for y in range(2 ** z)]

    def prepare(self) -> Path:
        from repro.data import read_dataset_csv

        points = _crime_points(self.n_points + self.pool, [self.seed, 1])
        csv = self.workdir / "crime.csv"
        _write_points_csv(csv, points[:self.n_points])
        # The server rejects ingests outside the window it fixed at load.
        window = read_dataset_csv(csv, margin=0.05).bbox
        pool = points[self.n_points:]
        inside = ((pool[:, 0] > window.xmin) & (pool[:, 0] < window.xmax)
                  & (pool[:, 1] > window.ymin) & (pool[:, 1] < window.ymax))
        self._pool = pool[inside]
        self._ingested: list[np.ndarray] = []
        return csv

    def warmup(self, client, ops, prefix):
        # One tile per (zoom, bandwidth) builds every maintained surface.
        for i, (bw, z) in enumerate((bw, z) for bw in self.bandwidths
                                    for z in self.zooms):
            self.get_tile(client, ops, f"{prefix}-{i}", "setup", (z, 0, 0, bw))

    def popularity(self) -> np.ndarray:
        """Zipf-like request probability of each tile, by a seeded rank."""
        n = len(self.tiles())
        weights = 1.0 / (np.arange(n) + 1.0) ** self.zipf_s
        popularity = np.empty(n)
        popularity[self.rng(11).permutation(n)] = weights / weights.sum()
        return popularity

    def loops(self, port, ops):
        tiles = self.tiles()
        popularity = self.popularity()

        def reader(deadline):
            rng = self.rng(10, 0)
            conn = Client(port)
            i = 0
            while time.perf_counter() < deadline:
                tile = tiles[int(rng.choice(len(tiles), p=popularity))]
                self.get_tile(conn, ops, f"m0-{i}", "measure", tile, 0)
                i += 1
            conn.close()

        def writer(deadline):
            conn = Client(port)
            path = f"/v1/ingest/{self.dataset}"
            i = 0
            while time.perf_counter() < deadline:
                start = (i * self.batch) % len(self._pool)
                batch = self._pool[start:start + self.batch]
                if ops.call(conn, "POST", path, f"m1-{i}", kind="ingest",
                            phase="measure", client=1,
                            body={"points": batch.tolist()}) is not None:
                    self._ingested.append(batch)
                i += 1
            conn.close()

        return [reader, writer]

    def check(self, client, phase):
        from repro.data import read_dataset_csv

        # The server's points are the CSV's, then every acknowledged batch.
        csv = self.workdir / "crime.csv"
        points = np.vstack([read_dataset_csv(csv).points, *self._ingested])
        # Popular tiles are the ones cached and then dirtied by ingests, so
        # drawing the sample by popularity is what exposes a stale cache.
        self.check_tiles(client, phase, self.tiles(), points, csv,
                         self.popularity())


class AnalystSession:
    """One analyst's session on serve-warm's server, after the tile load.

    The analyst uploads a 500-point event set with ``POST
    /v1/datasets/events``, runs a fixed cycle of ten queries on it (four
    ``kfunction`` and three ``hotspot`` with 19 simulations, one
    ``kdv``, and two repeats of an earlier request, which hit the result
    cache), and then renders a heatmap with fresh ``python -m repro kdv``
    processes.  This is the only load on the request, kfunction, index,
    hotspot, parallel, cli, data and raster layers.  Its ops are logged,
    traced and checked, but no end-to-end metric is taken from them:
    their latency is CPU time, which follows the shared host's speed
    (see README.md).
    """

    dataset = "events"
    n_points = 500
    simulations = 19
    #: One session cycle; "repeat" re-sends one of the session's earlier
    #: requests, so one request in five hits the result cache.
    cycle = ("kfunction", "hotspot", "kfunction", "kdv", "repeat",
             "hotspot", "kfunction", "hotspot", "kfunction", "repeat")
    cli_runs = 3
    cli_points = 8_000
    cli_args = ("--bandwidth", "1.0", "--size", "512x384")

    def __init__(self, workload: Workload):
        self.workload = workload
        self.points = _crime_points(self.n_points, [workload.seed, 3])
        self.responses: dict[str, tuple[dict, dict]] = {}
        self.outputs: list[tuple[str, Path]] = []

    def requests(self):
        """The session's request sequence, seeded by the workload."""
        rng = self.workload.rng(30)
        sent: list[dict] = []
        for kind in self.cycle:
            if kind == "repeat":
                request = sent[int(rng.integers(len(sent)))]
            elif kind == "kdv":
                request = {"kind": "kdv", "dataset": self.dataset,
                           "bandwidth": round(float(rng.uniform(1.0, 2.0)), 3),
                           "size": [256, 192]}
            else:
                request = {"kind": kind, "dataset": self.dataset,
                           "n_simulations": self.simulations,
                           "seed": int(rng.integers(2**31))}
            sent.append(request)
            yield request

    def run(self, client: Client, ops: OpLog, phase: Phase,
            traced: bool) -> None:
        ops.call(client, "POST", f"/v1/datasets/{self.dataset}", "a-data",
                 kind="dataset", phase="analyst",
                 body={"points": self.points.tolist()})
        for i, request in enumerate(self.requests()):
            rid = f"a-q{i}"
            answer = ops.call(client, "POST", "/v1/query", rid, kind="query",
                              phase="analyst", body=request, parse=json.loads,
                              request=request["kind"])
            if answer is not None:
                self.responses[rid] = (request, answer)
        self.run_cli(ops, phase, traced)

    def cli_csv(self) -> Path:
        """The heatmap's input.  Two events on the city window's corners
        give every seed the same extent, so every seed poses the auto
        planner the same problem (it flips between grid and sweep with
        the extent; see README.md)."""
        from repro.data import chicago_crime

        window = chicago_crime(1, seed=0).bbox
        corners = np.array([[window.xmin, window.ymin],
                            [window.xmax, window.ymax]])
        points = _crime_points(self.cli_points - 2, [self.workload.seed, 4])
        csv = self.workload.workdir / "heatmap.csv"
        _write_points_csv(csv, np.vstack([corners, points]))
        return csv

    def run_cli(self, ops: OpLog, phase: Phase, traced: bool) -> None:
        w = self.workload
        self.csv = self.cli_csv()
        for i in range(self.cli_runs):
            rid = f"a-cli{i}"
            out = w.workdir / f"{rid}.ppm"
            span_path = w.spans_path(traced, rid)
            env = w.env(**{tracing.RID_ENV: rid}) if traced else w.env()
            t0 = time.perf_counter()
            seconds, code, _, text = harness.run_cli(
                ["kdv", str(self.csv), *self.cli_args, "--out", str(out)],
                env, w.root, span_path)
            ok = code == 0 and out.is_file()
            error = {} if ok else {"error": f"exit {code}: {text[-300:]}"}
            ops.add(rid=rid, kind="cli", phase="analyst", client=0, t0=t0,
                    latency=seconds, ok=ok,
                    bytes=out.stat().st_size if ok else 0, status=code,
                    **error)
            if span_path is not None and span_path.is_file():
                phase.span_files.append(json.loads(span_path.read_text()))
            if ok:
                self.outputs.append((rid, out))

    def check(self, phase: Phase) -> None:
        """One sampled query response of each kind re-run in process, and
        every PPM the CLI wrote against in-process kde_grid + write_ppm."""
        from repro.core.kdv import kde_grid
        from repro.core.request import execute_request, request_from_dict
        from repro.data import read_dataset_csv
        from repro.geometry import BoundingBox
        from repro.raster import write_ppm

        bbox = BoundingBox.of_points(self.points, margin=0.05)
        rng = self.workload.rng(21)
        by_kind: dict[str, list[str]] = {}
        for rid, (request, _) in sorted(self.responses.items()):
            by_kind.setdefault(request["kind"], []).append(rid)
        for kind in sorted(by_kind):
            rid = by_kind[kind][int(rng.integers(len(by_kind[kind])))]
            request, got = self.responses[rid]
            phase.checks += 1
            result = execute_request(request_from_dict(request), self.points,
                                     bbox=bbox)
            try:
                same = _same_answer(kind, result, got)
            except (KeyError, TypeError, ValueError):
                same = False
            if not same:
                phase.failures.append(f"{kind} response {rid} differs from "
                                      "in-process execute_request")

        if not self.outputs:
            return
        ds = read_dataset_csv(self.csv, margin=0.0)
        grid = kde_grid(ds.points, ds.bbox, (512, 384), 1.0, kernel="quartic",
                        method="auto")
        reference = self.workload.workdir / "reference.ppm"
        write_ppm(reference, grid, "heat")
        want = reference.read_bytes()
        for rid, path in self.outputs:
            phase.checks += 1
            if path.read_bytes() != want:
                phase.failures.append(f"{rid}: PPM differs from in-process "
                                      "kde_grid + write_ppm")


def _same_answer(kind: str, result, got: dict) -> bool:
    if kind == "kdv":
        values = np.ascontiguousarray(result.values)
        return hashlib.sha256(values.tobytes()).hexdigest() == got["surface_sha256"]
    if kind == "kfunction":
        want = [[float(s), float(k), float(lo), float(hi), regime]
                for s, k, lo, hi, regime in result.rows()]
        rows = [[r["threshold"], r["observed"], r["lower"], r["upper"],
                 r["regime"]] for r in got["rows"]]
        return rows == want
    if kind == "hotspot":
        want = [[float(c) for c in spot.centroid] for spot in result.hotspots]
        return [h["centroid"] for h in got["hotspots"]] == want
    raise BenchError(f"no check for query kind {kind!r}")


WORKLOADS = {w.name: w for w in (ServeWarm, ServeIngest)}
