"""Maintained KDV surface: delta updates, drift control, dirty tiles.

The interactive systems the paper describes (KDV-Explorer [28], the live
COVID hotspot maps [6, 8]) refresh heatmaps as events arrive and expire.
:class:`StreamingKDV` keeps the density grid current at the cost of one
kernel *patch* per changed event (the exact cutoff-scatter update)
instead of one full scatter of the window per refresh::

    kdv = StreamingKDV(bbox, (256, 192), bandwidth=2.0)
    kdv.add(first_batch)
    kdv.add(new_events)
    kdv.remove(expired_events)   # must be events previously added
    grid = kdv.snapshot()

or registered with a :class:`~repro.stream.StreamEngine`, which feeds
it each window slide through :meth:`StreamingKDV.apply`.

* A :class:`DirtyTileLedger` records which fixed grid tiles changed since
  the last snapshot, so a renderer repaints only dirty tiles.  A tile is
  flagged **iff** one of its pixels changed: candidate tiles (from the
  changed events' patch windows) are compared pixel-for-pixel before and
  after the scatter, not merely assumed dirty.
* Insert-then-remove cancellation leaves float rounding residue that
  grows with the *gross* weight ever scattered, so the drift gauges are
  watched and the surface is re-scattered from the live window whenever
  ``drift_ratio`` crosses the policy ratio.
* The bank holds ``S`` surfaces.  The weighted operations scatter each
  point's patch onto surface ``s`` scaled by a per-point, per-surface
  weight; the temporal-sharing STKDV backend keeps its moment grids this
  way.  They leave the ledger alone, so that backend never pays for the
  tile compare.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import as_points, check_positive
from ...errors import DataError, ParameterError
from ...geometry import BoundingBox
from ...parallel import parallel_starmap
from ...raster import DensityGrid
from ..kernels import Kernel
from ..scatter import PatchScatter

__all__ = ["DirtyTileLedger", "StreamingKDV"]

#: Event-chunk size of :meth:`StreamingKDV.rescatter`.  A fixed constant —
#: never derived from the worker count — so the chunk partition, the
#: per-chunk scatters and the chunk-order summation are identical for
#: every ``workers``/``backend`` combination (the same fixed-partition
#: rule as ``repro.parallel``).
_RESCATTER_CHUNK = 4096

#: Empirical safety factor of :attr:`StreamingKDV.drift_tolerance`.
#: Worst-case rounding analysis gives error ``<= ops * eps *
#: running_magnitude`` per pixel; measured drift over thousands of
#: add/remove cycles sits two to three orders of magnitude below
#: ``eps * K(0) * gross_weight``, so 64 leaves ample headroom while
#: keeping the bound tight enough to be a meaningful contract.
_DRIFT_SAFETY = 64.0

_NO_POINTS = np.empty((0, 2), dtype=np.float64)


def _rescatter_chunk(
    scatterer: PatchScatter, pts: np.ndarray, w: np.ndarray, n_surfaces: int
) -> np.ndarray:
    """Scatter one fixed chunk onto a fresh zero bank (worker callable)."""
    bank = np.zeros((n_surfaces, scatterer.nx, scatterer.ny),
                    dtype=scatterer.dtype)
    scatterer.scatter(bank, pts, w)
    return bank


class DirtyTileLedger:
    """Boolean ledger over fixed ``tile x tile``-pixel grid tiles.

    Tracks which tiles of an ``(nx, ny)`` surface changed since the
    ledger was last cleared.  The tile lattice is fixed at construction
    (the last row/column of tiles may be smaller when ``tile`` does not
    divide the surface), so tile ids are stable across refreshes.
    """

    def __init__(self, nx: int, ny: int, tile: int = 32):
        tile = int(tile)
        if tile < 1:
            raise ParameterError(f"tile must be a positive integer, got {tile}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.tile = tile
        self.tiles_nx = -(-self.nx // tile)
        self.tiles_ny = -(-self.ny // tile)
        self._dirty = np.zeros((self.tiles_nx, self.tiles_ny), dtype=bool)

    @property
    def mask(self) -> np.ndarray:
        """Current dirty mask, ``(tiles_nx, tiles_ny)`` bool (a copy)."""
        return self._dirty.copy()

    @property
    def dirty_count(self) -> int:
        """Number of tiles currently flagged dirty."""
        return int(self._dirty.sum())

    def mark(self, tx: int, ty: int) -> None:
        """Flag tile ``(tx, ty)`` as changed."""
        self._dirty[tx, ty] = True

    def mark_changed(self, before: np.ndarray, after: np.ndarray) -> int:
        """Flag every tile in which ``before != after``; count such tiles."""
        changed = np.asarray(before != after)
        for axis in (0, 1):
            starts = np.arange(0, changed.shape[axis], self.tile)
            changed = np.logical_or.reduceat(changed, starts, axis=axis)
        self._dirty |= changed
        return int(changed.sum())

    def bounds(self, tx: int, ty: int) -> tuple[int, int, int, int]:
        """Pixel bounds ``(x0, x1, y0, y1)`` of tile ``(tx, ty)`` (half-open)."""
        if not (0 <= tx < self.tiles_nx and 0 <= ty < self.tiles_ny):
            raise ParameterError(
                f"tile ({tx}, {ty}) outside the "
                f"{self.tiles_nx}x{self.tiles_ny} tile lattice"
            )
        x0 = tx * self.tile
        y0 = ty * self.tile
        return x0, min(x0 + self.tile, self.nx), y0, min(y0 + self.tile, self.ny)

    def take(self) -> np.ndarray:
        """Return the dirty mask and clear the ledger (snapshot semantics)."""
        out = self._dirty.copy()
        self._dirty[:] = False
        return out

    def dirty_tiles(self) -> tuple[tuple[int, int], ...]:
        """The currently dirty tiles as sorted ``(tx, ty)`` ids.

        The public accessor contract for consumers that invalidate by
        tile (the :mod:`repro.serve` tile cache, external renderers):
        read the dirty set here, repaint/evict those tiles, then call
        :meth:`clear_dirty`.  Does **not** clear the ledger (use
        :meth:`take` for mask-and-clear in one step).
        """
        tx, ty = np.nonzero(self._dirty)
        return tuple(zip(tx.tolist(), ty.tolist()))

    def clear_dirty(self) -> None:
        """Clear every dirty flag (the partner of :meth:`dirty_tiles`)."""
        self._dirty[:] = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirtyTileLedger({self.tiles_nx}x{self.tiles_ny} tiles of "
            f"{self.tile}px, dirty={self.dirty_count})"
        )


class StreamingKDV:
    """Maintained KDV surface bank over a fixed window/lattice/kernel.

    Holds ``V_s(q) = sum_i w[i, s] * patch_i(q)`` for ``s < n_surfaces``,
    where ``patch_i`` is the exact spatial kernel patch of event ``i``.
    Unit-weight events (:meth:`add`, :meth:`remove`, :meth:`apply`) give
    the density surface ``V_0`` and maintain :attr:`ledger`; signed
    weights (:meth:`add_weighted`, :meth:`remove_weighted`) make removal
    the same operation as insertion.

    Parameters
    ----------
    bbox, size, bandwidth, kernel, tail, dtype:
        The :class:`~repro.core.scatter.PatchScatter` configuration,
        fixed for the surface's lifetime.
    tile:
        Side length in pixels of the dirty-tile lattice.
    rescatter_ratio:
        Drift policy of :meth:`apply`: when ``gross_weight / net_weight``
        reaches this ratio the surface is rebuilt from the live window
        contents and the drift clock restarts.  ``None`` disables
        automatic re-scatter (the drift gauges remain available).
    workers, backend:
        Parallelism of :meth:`rescatter` — the rebuild is chunk-parallel
        and bit-identical for every combination.
    n_surfaces:
        Number of surfaces ``S`` in the bank.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        size: tuple[int, int],
        bandwidth: float,
        kernel: str | Kernel = "quartic",
        tile: int = 32,
        rescatter_ratio: float | None = 64.0,
        tail: float = 1e-12,
        dtype=np.float64,
        workers: int | None = None,
        backend: str | None = None,
        n_surfaces: int = 1,
    ):
        n_surfaces = int(n_surfaces)
        if n_surfaces < 1:
            raise ParameterError(
                f"n_surfaces must be >= 1, got {n_surfaces}"
            )
        if rescatter_ratio is not None:
            rescatter_ratio = check_positive(rescatter_ratio, "rescatter_ratio")
            if rescatter_ratio < 1.0:
                raise ParameterError(
                    f"rescatter_ratio must be >= 1, got {rescatter_ratio}"
                )
        # The scatter core owns everything invariant for the surface's
        # lifetime: pixel lattice, cutoff radius, whether the kernel is
        # truncated at that radius, and (float32) the kernel table.
        self.scatterer = PatchScatter(
            bbox, size, bandwidth, kernel=kernel, tail=tail, dtype=dtype
        )
        self.bbox = self.scatterer.bbox
        self.nx = self.scatterer.nx
        self.ny = self.scatterer.ny
        self.bandwidth = self.scatterer.bandwidth
        self.kernel = self.scatterer.kernel
        self.dtype = self.scatterer.dtype
        self.n_surfaces = n_surfaces
        self.rescatter_ratio = rescatter_ratio
        self.workers = workers
        self.backend = backend
        self.ledger = DirtyTileLedger(self.nx, self.ny, tile=tile)
        self._values = np.zeros((n_surfaces, self.nx, self.ny),
                                dtype=self.dtype)
        self._count = 0
        self._gross = 0.0
        self._net = 0.0
        self.events_applied = 0
        self.staleness = 0
        self.rescatters = 0

    @property
    def n_points(self) -> int:
        """Number of events currently contributing to the bank."""
        return self._count

    # -- float-drift accounting ---------------------------------------------
    #
    # Every scatter rounds; insert-then-remove cancels exactly in real
    # arithmetic but leaves rounding residue on the surface.  The residue
    # grows with the *gross* weight ever scattered, not with the *net*
    # weight currently present, so a long-lived sliding window drifts away
    # from a fresh scatter of its contents even though the contents are
    # small.  ``apply`` watches ``drift_ratio`` and re-scatters when it
    # crosses the policy ratio — the same shape as the STKDV shared
    # backend's drift-triggered re-centering.

    @property
    def gross_weight(self) -> float:
        """Total ``sum |w|`` scattered since construction/reset/rescatter."""
        return self._gross

    @property
    def net_weight(self) -> float:
        """``sum |w|`` of the points currently present (adds minus removes)."""
        return self._net

    @property
    def drift_ratio(self) -> float:
        """Gross-over-net weight ratio — the cancellation-pressure gauge."""
        return self._gross / max(self._net, 1.0)

    @property
    def drift_tolerance(self) -> float:
        """Published bound on ``|maintained - fresh scatter|`` per pixel.

        ``64 * eps(dtype) * K(0) * max(gross_weight, 1)`` — rounding
        residue scales with the machine epsilon of the surface dtype, the
        per-unit-weight patch peak ``K(0)``, and the gross weight ever
        scattered.  The float32 mode adds its kernel-table term
        (``table.max_abs_error``) because incremental and fresh scatters
        may batch lookups differently.  Guaranteed by the drift
        regression tests in ``tests/test_streaming_contours_hawkes.py``.
        """
        eps = float(np.finfo(self.dtype).eps)
        peak = float(self.kernel.evaluate(np.zeros(1), self.bandwidth)[0])
        tol = _DRIFT_SAFETY * eps * peak * max(self._gross, 1.0)
        table = self.scatterer.table
        if table is not None:
            tol += 2.0 * table.max_abs_error * max(self._gross, 1.0)
        return tol

    # -- weighted bank operations (no ledger) -------------------------------

    def _weights(self, pts: np.ndarray, weights) -> np.ndarray:
        """Validated ``(n, S)`` float64 weights; ``None`` means unit weight."""
        if weights is None:
            return np.ones((pts.shape[0], self.n_surfaces))
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape != (pts.shape[0], self.n_surfaces):
            raise DataError(
                f"weights must have shape ({pts.shape[0]}, {self.n_surfaces}), "
                f"got {w.shape}"
            )
        if w.size and not np.all(np.isfinite(w)):
            raise DataError("weights contain non-finite entries")
        return w

    def add_weighted(self, points, weights) -> "StreamingKDV":
        """Insert points with the given ``(n, S)`` weights."""
        pts = as_points(points, allow_empty=True)
        w = self._weights(pts, weights)
        self.scatterer.scatter(self._values, pts, w)
        total = float(np.abs(w).sum())
        self._count += pts.shape[0]
        self._gross += total
        self._net += total
        return self

    def remove_weighted(self, points, weights) -> "StreamingKDV":
        """Remove previously-inserted points (same weights as insertion)."""
        pts = as_points(points, allow_empty=True)
        if pts.shape[0] > self._count:
            raise ParameterError(
                f"cannot remove {pts.shape[0]} points; only {self._count} present"
            )
        w = self._weights(pts, weights)
        self.scatterer.scatter(self._values, pts, -w)
        total = float(np.abs(w).sum())
        self._count -= pts.shape[0]
        self._gross += total
        self._net = max(self._net - total, 0.0)
        if self._count == 0:
            # Snap accumulated float noise back to exactly empty.
            self._values[:] = 0.0
            self._net = 0.0
        return self

    def combine(self, factors) -> np.ndarray:
        """Linear combination ``sum_s factors[s] * V_s`` as an (nx, ny) array."""
        f = np.asarray(factors, dtype=np.float64).ravel()
        if f.shape[0] != self.n_surfaces:
            raise DataError(
                f"factors must have length {self.n_surfaces}, got {f.shape[0]}"
            )
        return np.tensordot(f, self._values, axes=(0, 0))

    def recombine(self, matrix) -> "StreamingKDV":
        """Replace the surface bank with ``V'_m = sum_j matrix[m, j] * V_j``.

        The STKDV backend uses this to re-reference its moment grids
        (a change of temporal origin is a triangular linear map on the
        moments), which keeps the accumulated powers well conditioned
        without re-scattering any point.
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (self.n_surfaces, self.n_surfaces):
            raise DataError(
                f"matrix must have shape ({self.n_surfaces}, {self.n_surfaces}), "
                f"got {m.shape}"
            )
        self._values = np.tensordot(m, self._values, axes=(1, 0)).astype(
            self.dtype, copy=False
        )
        return self

    def reset(self) -> "StreamingKDV":
        """Drop all points and clear the drift accounting."""
        self._values[:] = 0.0
        self._count = 0
        self._gross = 0.0
        self._net = 0.0
        return self

    def surface(self, s: int = 0) -> np.ndarray:
        """Surface ``s`` as a defensive ``(nx, ny)`` copy."""
        s = int(s)
        if not (0 <= s < self.n_surfaces):
            raise ParameterError(
                f"surface index must lie in [0, {self.n_surfaces}), got {s}"
            )
        return self._values[s].copy()

    # -- unit-weight events (ledger maintained) -----------------------------

    def add(self, points) -> "StreamingKDV":
        """Add events to the surface; returns self for chaining."""
        return self._update(as_points(points, allow_empty=True), _NO_POINTS)

    def remove(self, points) -> "StreamingKDV":
        """Remove previously-added events (caller tracks membership)."""
        return self._update(_NO_POINTS, as_points(points, allow_empty=True))

    def apply(self, delta) -> "StreamingKDV":
        """Scatter a :class:`~repro.stream.StreamDelta`'s changed events.

        Cost: one kernel patch per entering/leaving event, plus a pixel
        compare of the candidate tiles.  May trigger a full re-scatter
        from ``delta.window`` when the drift policy fires.
        """
        self._update(delta.entered_points, delta.left_points)
        if (
            self.rescatter_ratio is not None
            and self.drift_ratio >= self.rescatter_ratio
        ):
            self.rescatter(delta.window.points)
        return self

    def _touched_tiles(self, pts: np.ndarray) -> np.ndarray:
        """Tile mask of every tile any of ``pts``'s kernel patches may touch."""
        touched = np.zeros((self.ledger.tiles_nx, self.ledger.tiles_ny),
                           dtype=bool)
        if pts.shape[0]:
            ix_lo, ix_hi, iy_lo, iy_hi = self.scatterer.windows(pts)
            live = (ix_lo <= ix_hi) & (iy_lo <= iy_hi)
            t = self.ledger.tile
            for x0, x1, y0, y1 in zip(ix_lo[live] // t, ix_hi[live] // t,
                                      iy_lo[live] // t, iy_hi[live] // t):
                touched[x0:x1 + 1, y0:y1 + 1] = True
        return touched

    def _update(self, entered: np.ndarray, left: np.ndarray) -> "StreamingKDV":
        """Scatter unit-weight events in and out, marking changed tiles."""
        n_left = left.shape[0]
        if n_left and n_left == self._count + entered.shape[0]:
            # Draining to empty snaps the whole bank to zero, which also
            # clears residue outside the events' patches: compare every tile.
            touched = np.ones_like(self.ledger.mask)
        else:
            touched = self._touched_tiles(np.vstack([entered, left]))
        tiles = [(t, self.ledger.bounds(*t)) for t in zip(*np.nonzero(touched))]
        before = [self._values[0, x0:x1, y0:y1].copy()
                  for _, (x0, x1, y0, y1) in tiles]
        if entered.shape[0]:
            self.add_weighted(entered, None)
        if n_left:
            self.remove_weighted(left, None)
        dirtied = 0
        for (t, (x0, x1, y0, y1)), old in zip(tiles, before):
            if not np.array_equal(self._values[0, x0:x1, y0:y1], old):
                self.ledger.mark(*t)
                dirtied += 1
        n_changed = entered.shape[0] + n_left
        self.events_applied += n_changed
        self.staleness += n_changed
        obs.count("stream.kdv.events", n_changed)
        obs.count("stream.kdv.tiles_dirtied", dirtied)
        return self

    def rescatter(self, points, weights=None) -> "StreamingKDV":
        """Rebuild the bank from scratch as if only ``points`` were added.

        The cancellation-residue escape hatch: replaces the maintained
        surfaces with a fresh scatter of the given points/weights (unit
        weight by default) and resets the gross-weight counter, so the
        drift clock restarts.  Tiles whose pixels change are marked dirty,
        so ledger exactness survives re-scatters.  The event list is split
        into fixed ``_RESCATTER_CHUNK`` chunks scattered concurrently
        through :func:`repro.parallel.parallel_starmap` and summed in
        chunk order — the result is bit-identical for every
        ``workers``/``backend`` combination, and bit-identical to a fresh
        serial add whenever the window fits a single chunk.
        """
        pts = as_points(points, allow_empty=True)
        w = self._weights(pts, weights)
        jobs = [
            (self.scatterer, pts[c0:c0 + _RESCATTER_CHUNK],
             w[c0:c0 + _RESCATTER_CHUNK], self.n_surfaces)
            for c0 in range(0, max(pts.shape[0], 1), _RESCATTER_CHUNK)
        ]
        with obs.span("rescatter"):
            banks = parallel_starmap(
                _rescatter_chunk, jobs,
                workers=self.workers, backend=self.backend,
            )
        fresh = banks[0]
        for bank in banks[1:]:
            fresh += bank
        self.ledger.mark_changed(self._values[0], fresh[0])
        self._values = fresh
        self._count = pts.shape[0]
        self._gross = self._net = float(np.abs(w).sum())
        self.rescatters += 1
        obs.count("stream.kdv.rescatter")
        return self

    def snapshot(self) -> DensityGrid:
        """The current density surface with streaming diagnostics attached.

        Diagnostics records: ``events_applied`` (lifetime), ``staleness``
        (events since the previous snapshot — reset to 0 by this call),
        ``rescatters``, ``drift_ratio``, ``dirty_tiles`` and
        ``dirty_mask`` (the ledger content, which this call clears — the
        "changed since last snapshot" contract).  Scattered subtraction
        can leave tiny negative residue; the values are clipped at zero.
        """
        with obs.task("stream.kdv") as t:
            t.record("events_applied", self.events_applied)
            t.record("staleness", self.staleness)
            t.record("rescatters", self.rescatters)
            t.record("drift_ratio", self.drift_ratio)
            t.record("dirty_tiles", self.ledger.dirty_count)
            t.record("dirty_mask", self.ledger.take())
            values = np.maximum(self._values[0], 0.0)
        self.staleness = 0
        return DensityGrid(self.bbox, values, diagnostics=t.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self._count}, "
            f"surfaces={self.n_surfaces}, grid={self.nx}x{self.ny}, "
            f"kernel={self.kernel.name}, b={self.bandwidth:g}, "
            f"drift={self.drift_ratio:.2f}, rescatters={self.rescatters})"
        )
