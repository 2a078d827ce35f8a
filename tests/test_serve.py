"""Serving layer: cache, coalescer, datasets, service semantics, HTTP."""

import json
import threading
import urllib.request

import numpy as np
import pytest

import repro
from repro.errors import DataError, ParameterError, ReproError, ServeError
from repro.serve import (
    AnalyticsService,
    Coalescer,
    Dataset,
    DatasetStore,
    LRUCache,
    ServeConfig,
    create_server,
)

BBOX = repro.BoundingBox(0.0, 0.0, 8.0, 8.0)
RNG = np.random.default_rng(42)
POINTS = BBOX.sample_uniform(500, RNG)


def make_service(**overrides):
    config = ServeConfig(tile_px=32, max_zoom=3, **overrides)
    service = AnalyticsService(config=config)
    service.create_dataset("d", POINTS, bbox=BBOX)
    return service


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=7) == 7

    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_invalidate_by_key_and_predicate(self):
        cache = LRUCache(8)
        for tx in range(4):
            cache.put(("tile", 0, tx), tx)
        assert cache.invalidate(key=("tile", 0, 1)) == 1
        assert cache.invalidate(key=("tile", 0, 1)) == 0
        removed = cache.invalidate(predicate=lambda k: k[2] >= 2)
        assert removed == 2
        assert len(cache) == 1

    def test_invalidate_requires_exactly_one_selector(self):
        cache = LRUCache(2)
        with pytest.raises(ParameterError):
            cache.invalidate()
        with pytest.raises(ParameterError):
            cache.invalidate(key="a", predicate=lambda k: True)

    def test_bad_capacity(self):
        with pytest.raises(ParameterError):
            LRUCache(0)

    def test_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["capacity"] == 2


# ---------------------------------------------------------------------------
# Coalescer
# ---------------------------------------------------------------------------


class TestCoalescer:
    def test_single_caller_leads(self):
        c = Coalescer()
        result, led = c.run("k", lambda: 41 + 1)
        assert (result, led) is not None
        assert result == 42 and led
        assert c.executions == 1 and c.coalesced == 0
        assert c.inflight() == 0

    def test_n_threads_one_execution(self):
        """The satellite contract: N concurrent identical requests, one compute."""
        c = Coalescer()
        release = threading.Event()
        entered = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            release.wait(timeout=10.0)
            return "surface"

        results = []

        def worker():
            results.append(c.run("tile", compute))

        leader = threading.Thread(target=worker)
        leader.start()
        assert entered.wait(timeout=10.0)
        followers = [threading.Thread(target=worker) for _ in range(5)]
        for t in followers:
            t.start()
        # Wait until all five are registered on the flight, then release.
        deadline = threading.Event()
        for _ in range(2000):
            if c.coalesced == 5:
                break
            deadline.wait(0.005)
        assert c.coalesced == 5
        release.set()
        leader.join(timeout=10.0)
        for t in followers:
            t.join(timeout=10.0)
        assert len(calls) == 1, "exactly one execution for six callers"
        assert len(results) == 6
        assert all(r[0] == "surface" for r in results)
        assert sum(1 for r in results if r[1]) == 1
        assert c.executions == 1

    def test_leader_error_propagates_to_followers(self):
        c = Coalescer()
        release = threading.Event()
        entered = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=10.0)
            raise DataError("boom")

        errors = []

        def worker():
            try:
                c.run("k", compute)
            except ReproError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker)]
        threads[0].start()
        assert entered.wait(timeout=10.0)
        threads.append(threading.Thread(target=worker))
        threads[1].start()
        for _ in range(2000):
            if c.coalesced == 1:
                break
            threading.Event().wait(0.005)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert len(errors) == 2
        assert all(isinstance(e, DataError) for e in errors)
        # Flight retired: the next arrival recomputes.
        result, led = c.run("k", lambda: "fresh")
        assert result == "fresh" and led

    def test_distinct_keys_do_not_coalesce(self):
        c = Coalescer()
        c.run("a", lambda: 1)
        c.run("b", lambda: 2)
        assert c.executions == 2 and c.coalesced == 0


# ---------------------------------------------------------------------------
# Dataset / DatasetStore
# ---------------------------------------------------------------------------


class TestDataset:
    def test_identity_stable_content_advances(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        identity = d.identity
        before = d.content_fingerprint()
        d.ingest(np.array([[4.0, 4.0]]))
        assert d.identity == identity
        assert d.content_fingerprint() != before
        assert d.version == 1
        assert d.n == POINTS.shape[0] + 1

    def test_points_since(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        batch = np.array([[1.0, 1.0], [2.0, 2.0]])
        d.ingest(batch)
        pts, ts = d.points_since(POINTS.shape[0])
        np.testing.assert_array_equal(pts, batch)
        assert ts.shape == (2,)

    def test_ingest_outside_bbox_rejected(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        with pytest.raises(DataError, match="outside"):
            d.ingest(np.array([[99.0, 99.0]]))

    def test_times_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset("d", POINTS, times=np.zeros(3), bbox=BBOX)

    def test_defensive_copies(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        d.points[:] = -1.0
        np.testing.assert_array_equal(d.points, POINTS)

    def test_store(self):
        store = DatasetStore()
        store.create("a", POINTS, bbox=BBOX)
        assert store.names() == ("a",)
        with pytest.raises(ParameterError, match="exists"):
            store.create("a", POINTS, bbox=BBOX)
        with pytest.raises(ServeError, match="unknown dataset"):
            store.get("nope")
        assert isinstance(store.get("a"), Dataset)
        assert store.summaries()[0]["name"] == "a"

    def test_serve_error_is_lookup_error(self):
        assert issubclass(ServeError, LookupError)
        assert issubclass(ServeError, ReproError)


# ---------------------------------------------------------------------------
# AnalyticsService: tiles, caching, coalescing, invalidation
# ---------------------------------------------------------------------------


class TestServiceTiles:
    def test_cache_hit_is_bit_identical_to_cold_compute(self):
        service = make_service()
        cold = service.tile("d", 1, 0, 1, bandwidth=0.8)
        warm = service.tile("d", 1, 0, 1, bandwidth=0.8)
        assert warm is cold  # same cached TileResult object
        fresh = make_service().tile("d", 1, 0, 1, bandwidth=0.8)
        np.testing.assert_array_equal(cold.values, fresh.values)
        snap = service.stats_snapshot()
        assert snap["counters"]["tile.cache_hit"] == 1
        assert snap["counters"]["tile.cache_miss"] == 1

    def test_tile_payload_shape_and_bbox(self):
        service = make_service()
        result = service.tile("d", 2, 3, 0, bandwidth=0.8)
        assert result.values.shape == (32, 32)
        payload = result.to_payload()
        assert payload["zoom"] == 2 and payload["tx"] == 3
        assert len(payload["values"]) == 32
        # tile (3, 0) of a 4x4 lattice covers the bbox's right-bottom corner
        xmin, ymin, xmax, ymax = payload["bbox"]
        assert xmax == pytest.approx(BBOX.xmax)
        assert ymin == pytest.approx(BBOX.ymin)

    def test_zoom_and_coordinate_validation(self):
        service = make_service()
        with pytest.raises(ParameterError, match="zoom"):
            service.tile("d", 9, 0, 0, bandwidth=0.8)
        with pytest.raises(ParameterError, match="bandwidth"):
            service.tile("d", 1, 0, 0, bandwidth=-1.0)
        with pytest.raises(ServeError):
            service.tile("d", 1, 5, 0, bandwidth=0.8)

    def test_unknown_dataset_is_serve_error(self):
        service = make_service()
        with pytest.raises(ServeError, match="unknown dataset"):
            service.tile("ghost", 1, 0, 0, bandwidth=0.8)

    def test_tiles_stitch_to_full_surface(self):
        """The tiled lattice is a partition of the maintained surface."""
        service = make_service()
        dataset = service.store.get("d")
        surface = service._surface(dataset, 1, 0.8, "quartic", None)
        surface.sync(dataset)
        grid = surface.snapshot()
        stitched = np.empty_like(grid.values)
        px = 32
        for ty in range(2):
            for tx in range(2):
                tile = service.tile("d", 1, tx, ty, bandwidth=0.8)
                # surface arrays are x-major: axis 0 is x, axis 1 is y
                stitched[tx * px:(tx + 1) * px, ty * px:(ty + 1) * px] = \
                    tile.values
        np.testing.assert_allclose(stitched, np.maximum(grid.values, 0.0),
                                   atol=1e-12)

    def test_concurrent_identical_tiles_execute_once(self):
        """Satellite (d): N threads, same tile, exactly one execution."""
        # Admission must not cap concurrency below the thread count, or
        # late arrivals queue outside the coalescer and land on the cache.
        service = make_service(max_inflight=16)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        gate = threading.Event()
        entered = threading.Event()
        real_compute = service._compute_tile
        calls = []

        def slow_compute(*args, **kwargs):
            calls.append(1)
            entered.set()
            gate.wait(timeout=10.0)
            return real_compute(*args, **kwargs)

        service._compute_tile = slow_compute
        results = []
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                results.append(service.tile("d", 1, 1, 1, bandwidth=0.8))
            except BaseException as exc:  # surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        assert entered.wait(timeout=10.0)
        # Release the leader only after every other thread is a follower.
        for _ in range(2000):
            if service.coalescer.coalesced == n_threads - 1:
                break
            threading.Event().wait(0.005)
        gate.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert len(calls) == 1, "exactly one tile execution for six requests"
        assert len(results) == n_threads
        first = results[0]
        for r in results[1:]:
            assert r is first  # every follower got the leader's object
        snap = service.stats_snapshot()
        assert snap["counters"]["coalesce.waited"] == n_threads - 1
        assert snap["counters"]["tile.computed"] == 1

    def test_ingest_invalidates_only_dirty_tiles(self):
        """Satellite (d): invalidation-after-ingest, far tiles stay cached."""
        service = make_service()
        # Warm all 4 tiles at zoom 1 (tile_px=32, 2x2 lattice over 8x8 bbox).
        warm = {
            (tx, ty): service.tile("d", 1, tx, ty, bandwidth=0.4)
            for tx in range(2) for ty in range(2)
        }
        # Ingest a tight cluster well inside tile (0, 0): x,y in [1, 2].
        cluster = np.array([[1.5, 1.5], [1.6, 1.4], [1.4, 1.6]])
        report = service.ingest("d", cluster)
        assert report["added"] == 3
        assert report["invalidated_tiles"] >= 1
        # Far corner tile survived in cache (same object), dirty tile did not.
        hit_before = service.stats_snapshot()["counters"].get(
            "tile.cache_hit", 0)
        far = service.tile("d", 1, 1, 1, bandwidth=0.4)
        assert far is warm[(1, 1)]
        hit_after = service.stats_snapshot()["counters"]["tile.cache_hit"]
        assert hit_after == hit_before + 1
        near = service.tile("d", 1, 0, 0, bandwidth=0.4)
        assert near is not warm[(0, 0)]
        assert near.values.sum() > warm[(0, 0)].values.sum()
        assert near.version == 1

    def test_invalidated_surface_matches_fresh_service(self):
        """Post-ingest incremental tiles equal a cold service on final data."""
        service = make_service()
        for tx in range(2):
            for ty in range(2):
                service.tile("d", 1, tx, ty, bandwidth=0.6)
        extra = BBOX.sample_uniform(60, np.random.default_rng(9))
        service.ingest("d", extra)
        final = np.vstack([POINTS, extra])
        fresh = ServeConfig(tile_px=32, max_zoom=3)
        cold = AnalyticsService(config=fresh)
        cold.create_dataset("d", final, bbox=BBOX)
        for tx in range(2):
            for ty in range(2):
                inc = service.tile("d", 1, tx, ty, bandwidth=0.6)
                ref = cold.tile("d", 1, tx, ty, bandwidth=0.6)
                np.testing.assert_allclose(inc.values, ref.values, atol=1e-9)


class TestServiceQuery:
    def test_query_kdv_and_result_cache(self):
        service = make_service()
        request = {"kind": "kdv", "dataset": "d", "bandwidth": 0.8,
                   "size": [32, 32], "method": "grid"}
        first = service.query(request)
        second = service.query(request)
        assert first["kind"] == "kdv"
        assert first["surface_sha256"] == second["surface_sha256"]
        assert "plan" in first and first["plan"]["method"] == "grid"
        assert first["trace"]["seconds"] >= 0.0
        snap = service.stats_snapshot()
        assert snap["result_cache"]["hits"] == 1

    def test_ingest_retires_query_results(self):
        service = make_service()
        request = {"kind": "kdv", "dataset": "d", "bandwidth": 0.8,
                   "size": [32, 32], "method": "grid"}
        before = service.query(request)
        service.ingest("d", np.array([[4.0, 4.0]] * 5))
        after = service.query(request)
        assert after["surface_sha256"] != before["surface_sha256"]
        assert after["version"] == 1

    def test_query_hotspot_and_kfunction(self):
        service = make_service()
        hot = service.query({"kind": "hotspot", "dataset": "d",
                             "size": [32, 32], "n_simulations": 9, "seed": 1})
        assert hot["kind"] == "hotspot"
        assert "hotspots" in hot
        kf = service.query({"kind": "kfunction", "dataset": "d",
                            "n_thresholds": 4, "n_simulations": 5, "seed": 1})
        assert kf["kind"] == "kfunction"
        assert len(kf["rows"]) == 4
        assert {"threshold", "observed", "lower", "upper", "regime"} <= \
            set(kf["rows"][0])

    def test_query_requires_dataset(self):
        service = make_service()
        with pytest.raises(ParameterError, match="dataset"):
            service.query({"kind": "kdv", "bandwidth": 0.5})


# ---------------------------------------------------------------------------
# HTTP front-end (ephemeral port, real sockets)
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_server():
    service = make_service()
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _post(base, path, payload):
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


class TestHTTPFrontend:
    def test_healthz_and_stats(self, http_server):
        base, _ = http_server
        status, ctype, body = _get(base, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True
        status, _, body = _get(base, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert "counters" in stats and "tile_cache" in stats

    def test_tile_json_and_ppm(self, http_server):
        base, _ = http_server
        status, ctype, body = _get(
            base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert len(payload["values"]) == 32
        status, ctype, body = _get(
            base, "/v1/tile/d/1/0/0.ppm?bandwidth=0.8")
        assert status == 200 and ctype == "image/x-portable-pixmap"
        assert body.startswith(b"P6\n32 32\n255\n")
        assert len(body) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_query_roundtrip(self, http_server):
        base, _ = http_server
        status, payload = _post(base, "/v1/query", {
            "kind": "kdv", "dataset": "d", "bandwidth": 0.8,
            "size": [32, 32], "method": "grid",
        })
        assert status == 200
        assert payload["kind"] == "kdv" and "surface_sha256" in payload

    def test_create_and_ingest_dataset(self, http_server):
        base, service = http_server
        status, payload = _post(base, "/v1/datasets/fresh", {
            "points": [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
            "bbox": [0.0, 0.0, 4.0, 4.0],
        })
        assert status == 201
        assert payload["n"] == 3
        status, payload = _post(base, "/v1/ingest/fresh", {
            "points": [[2.5, 2.5]],
        })
        assert status == 200
        assert payload["added"] == 1 and payload["version"] == 1
        assert "fresh" in {row["name"] for row in service.datasets()}

    def test_unknown_dataset_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/tile/ghost/1/0/0.json?bandwidth=0.8")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]

    def test_missing_bandwidth_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/tile/d/1/0/0.json")
        assert excinfo.value.code == 400

    def test_unknown_route_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/teleport")
        assert excinfo.value.code == 404

    def test_stats_reflect_traffic(self, http_server):
        base, service = http_server
        _get(base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        _get(base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        snap = service.stats_snapshot()
        assert snap["counters"]["requests.total"] >= 2
        assert snap["tile_cache_hit_rate"] > 0.0
        assert "p50" in snap["latency_ms"]["tile"]
