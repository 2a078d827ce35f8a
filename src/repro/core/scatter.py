"""Cache-blocked kernel-scatter core shared by every density backend.

The paper's central performance complaint (§2.2) is that per-point Python
loops leave orders of magnitude on the table.  Before this module, four
independently written scatter loops lived in the tree: the streaming
accumulator's per-point patch loop, the grid-cutoff backend's per-point
patch loop, the dual-tree execute phase's per-pair leaf scans, and the
NKDV per-event lixel scatter.  They all now dispatch through the three
primitives here:

* :class:`PatchScatter` — planar patch scatter of a point batch onto one
  or more ``(nx, ny)`` surfaces.  Events are batched into
  structure-of-arrays layout (one vectorised window computation, one
  ``evaluate_sq`` call per batch instead of one per point) and applied
  per point in **input order**, so the ``dtype=float64`` default is
  bit-identical to the historical per-point loops — PR 2's
  worker-invariance contract and the PR 3 shared-STKDV equivalences
  survive unchanged.  ``dtype=float32`` sorts events into grid-aligned
  buckets (output tiles stay cache-resident) and evaluates through the
  precomputed :class:`~repro.core.kernels.KernelTable` under the
  documented bounded-error contract ``|err| <= eps_rel * max + eps_abs``
  (see ``docs/PERFORMANCE.md``).
* :func:`accumulate_rect_blocks` — batched leaf-leaf evaluation for the
  dual-tree execute phase: contributions grouped by output rectangle,
  one separable rank-1 evaluation + BLAS product per rectangle for the
  Gaussian kernel, one batched ``evaluate_sq`` per chunk otherwise.
* :func:`scatter_line` — the 1-D masked kernel scatter NKDV applies per
  event along the lixelised network.

Observability: when a trace is active the core reports
``scatter.points`` (events scattered), ``scatter.buckets`` (batch/bucket
groups evaluated) and ``scatter.patch_pixels`` (pixels/lixels written).
All three are totals over fixed-partition batches, so they are
worker-invariant like every other counter in the library.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive, check_probability
from ..errors import ParameterError
from ..geometry import BoundingBox
from .kernels import Kernel, KernelTable, build_kernel_table, get_kernel

__all__ = [
    "PatchScatter",
    "SCATTER_DTYPES",
    "accumulate_rect_blocks",
    "resolve_dtype",
    "scatter_line",
]

#: Accepted ``dtype=`` spellings for the two accuracy modes.
SCATTER_DTYPES = ("float64", "float32")

#: Patch-buffer element budget per evaluate_sq batch.  A fixed constant —
#: never derived from worker count or machine size — so batch boundaries
#: (and the float32 accumulation order) are identical everywhere.
_BATCH_ELEMS = 1 << 20

#: Output-tile edge (pixels) used to bucket events in float32 mode; one
#: bucket's working set (tile + patch halo) is what stays cache-resident.
_BUCKET_TILE = 64

#: Contribution budget per rect-block evaluation chunk (see above re:
#: fixed constants).
_RECT_CHUNK = 1 << 18


def resolve_dtype(dtype) -> np.dtype:
    """Validate a scatter-core ``dtype=`` argument (float64/float32)."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ParameterError(
            f"dtype must be one of {'/'.join(SCATTER_DTYPES)}, got {dtype!r}"
        ) from None
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ParameterError(
            f"dtype must be one of {'/'.join(SCATTER_DTYPES)}, got {dtype!r}"
        )
    return resolved


class PatchScatter:
    """Precomputed patch scatterer for one window/lattice/kernel/bandwidth.

    Everything invariant across calls — pixel centres, pixel size, the
    cutoff radius, whether the kernel is truncated at that radius, and
    (in float32 mode) the kernel lookup table — is computed once here, so
    per-call work is only the batched window math and kernel evaluation.

    ``scatter`` accumulates into a caller-owned ``(nx, ny)`` or
    ``(S, nx, ny)`` array; signed weights make removal the same operation
    as insertion, which is what the maintained streaming surface and the
    temporal-sharing STKDV backend build on.
    """

    def __init__(
        self,
        bbox: BoundingBox,
        size: tuple[int, int],
        bandwidth: float,
        kernel: str | Kernel = "quartic",
        tail: float = 1e-12,
        dtype=np.float64,
    ):
        if not isinstance(bbox, BoundingBox):
            raise ParameterError("bbox must be a BoundingBox")
        nx, ny = int(size[0]), int(size[1])
        if nx < 1 or ny < 1:
            raise ParameterError(f"grid size must be positive, got {nx}x{ny}")
        self.bbox = bbox
        self.nx = nx
        self.ny = ny
        self.bandwidth = check_positive(bandwidth, "bandwidth")
        self.kernel = get_kernel(kernel)
        self.tail = check_probability(tail, "tail")
        self.dtype = resolve_dtype(dtype)

        support = self.kernel.support_radius(self.bandwidth)
        if np.isfinite(support):
            self.radius = float(support)
        else:
            self.radius = float(
                self.kernel.effective_radius(self.bandwidth, self.tail)
            )
        #: True when the cutoff radius truncates an infinite-support
        #: kernel (hoisted here from the per-call hot path).
        self.truncated = self.radius < support
        self._r2 = self.radius * self.radius
        self._xs, self._ys = bbox.pixel_centers(nx, ny)
        self._dx, self._dy = bbox.pixel_size(nx, ny)
        self.table: KernelTable | None = None
        if self.dtype == np.dtype(np.float32):
            self.table = build_kernel_table(
                self.kernel, self.bandwidth, cutoff=self.radius
            )

    def windows(self, points: np.ndarray):
        """Clipped pixel-index windows covered by each point's cutoff disc.

        Vectorised, but element-for-element the same arithmetic as the
        historical per-point loop, so the windows (and everything
        downstream) are bit-identical to it.  The float bounds are
        clipped to ``[-1, n]`` before the integer cast: a huge cutoff
        radius would otherwise overflow int64 and wrap to an empty window.
        """
        radius = self.radius

        def index(lo, hi, origin, step, n):
            lo = np.clip(np.ceil((lo - origin) / step), -1, n)
            hi = np.clip(np.floor((hi - origin) / step), -1, n)
            return (np.maximum(lo.astype(np.int64), 0),
                    np.minimum(hi.astype(np.int64), n - 1))

        ix_lo, ix_hi = index(points[:, 0] - radius, points[:, 0] + radius,
                             self._xs[0], self._dx, self.nx)
        iy_lo, iy_hi = index(points[:, 1] - radius, points[:, 1] + radius,
                             self._ys[0], self._dy, self.ny)
        return ix_lo, ix_hi, iy_lo, iy_hi

    def scatter(self, values: np.ndarray, points, weights=None) -> tuple[int, int]:
        """Accumulate every point's kernel patch into ``values``.

        Parameters
        ----------
        values:
            ``(nx, ny)`` or ``(S, nx, ny)`` accumulation target of this
            scatterer's dtype.
        points:
            ``(n, 2)`` event locations (may lie outside the window;
            points whose patch misses the grid contribute nothing).
        weights:
            ``None`` (unweighted: the raw patch is added), ``(n,)``
            per-point factors, or ``(n, S)`` per-point per-surface
            factors.  Signed values are allowed (removal = negated
            insertion).

        Returns
        -------
        ``(n_scattered, patch_pixels)`` — points with a non-empty patch
        and total pixels written (the historical ``kdv.scatters`` /
        ``kdv.patch_pixels`` counters).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
            raise ParameterError(f"points must be (n, 2), got {pts.shape}")
        vals = values if values.ndim == 3 else values[None]
        if vals.shape[1:] != (self.nx, self.ny):
            raise ParameterError(
                f"values must be (..., {self.nx}, {self.ny}), got {values.shape}"
            )
        n_surfaces = vals.shape[0]
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim == 1:
                w = w[:, None]
            if w.shape != (pts.shape[0], n_surfaces):
                raise ParameterError(
                    f"weights must have shape ({pts.shape[0]}, {n_surfaces}), "
                    f"got {np.asarray(weights).shape}"
                )
        if pts.shape[0] == 0:
            return 0, 0

        ix_lo, ix_hi, iy_lo, iy_hi = self.windows(pts)
        live = np.flatnonzero((ix_lo <= ix_hi) & (iy_lo <= iy_hi))
        if live.size == 0:
            return 0, 0

        buckets = 0
        if self.table is not None:
            # float32 mode: sort events into grid-aligned output buckets
            # so consecutive patch writes hit the same cache-resident
            # tile.  lexsort is stable, so within a bucket the input
            # order survives — the accumulation order is a pure function
            # of the event set, never of workers or machine.
            tx = ix_lo[live] // _BUCKET_TILE
            ty = iy_lo[live] // _BUCKET_TILE
            order = np.lexsort((tx, ty))
            live = live[order]
            key = ty[order] * ((self.nx // _BUCKET_TILE) + 1) + tx[order]
            buckets = int(np.count_nonzero(np.diff(key)) + 1)

        widths = ix_hi[live] - ix_lo[live] + 1
        heights = iy_hi[live] - iy_lo[live] + 1
        patch_pixels = int((widths * heights).sum())
        p_max = int(widths.max())
        q_max = int(heights.max())
        batch = max(1, _BATCH_ELEMS // (p_max * q_max))
        offs_x = np.arange(p_max)
        offs_y = np.arange(q_max)

        for c0 in range(0, live.size, batch):
            rows = live[c0:c0 + batch]
            cx = ix_lo[rows][:, None] + offs_x[None, :]
            cy = iy_lo[rows][:, None] + offs_y[None, :]
            # Clip the gather only: columns beyond a point's own window
            # land at patch positions >= its width and are sliced away
            # below, so no masking is needed.
            lx = self._xs[np.minimum(cx, self.nx - 1)] - pts[rows, 0][:, None]
            ly = self._ys[np.minimum(cy, self.ny - 1)] - pts[rows, 1][:, None]
            d2 = lx[:, :, None] ** 2 + ly[:, None, :] ** 2
            if self.table is None:
                patch = self.kernel.evaluate_sq(d2, self.bandwidth)
                if self.truncated:
                    patch = np.where(d2 <= self._r2, patch, 0.0)
            else:
                patch = self.table.lookup_sq_clipped(d2.astype(np.float32))
                if self.truncated or self.kernel.finite_support:
                    # Truncation decided in float64 — the same test as
                    # the float64 path, so the two modes cover exactly
                    # the same pixels.
                    patch = np.where(d2 <= self._r2, patch, np.float32(0.0))
            for j, i in enumerate(rows):
                pw = patch[j, : ix_hi[i] - ix_lo[i] + 1, : iy_hi[i] - iy_lo[i] + 1]
                target = vals[
                    :, ix_lo[i]:ix_hi[i] + 1, iy_lo[i]:iy_hi[i] + 1
                ]
                if w is None:
                    target += pw
                else:
                    # Per-surface 2-D adds beat one strided 3-D
                    # broadcast: the patch is small and S is a handful.
                    w_row = w[i]
                    for s in range(n_surfaces):
                        target[s] += w_row[s] * pw
        if buckets == 0:
            buckets = (live.size + batch - 1) // batch
        if obs.is_active():
            obs.count("scatter.points", int(live.size))
            obs.count("scatter.buckets", buckets)
            obs.count("scatter.patch_pixels", patch_pixels)
        return int(live.size), patch_pixels


def accumulate_rect_blocks(
    local: np.ndarray,
    origin: tuple[int, int],
    rects: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    starts: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    pw: np.ndarray | None,
    grid_x0: float,
    grid_y0: float,
    dx: float,
    dy: float,
    kernel: Kernel,
    bandwidth: float,
    rect_span: int,
) -> int:
    """Batched exact kernel scans of point groups onto output rectangles.

    The dual-tree execute phase's leaf-leaf pairs arrive here as flat
    structure-of-arrays contributions: ``px/py/pw`` hold every (rect,
    point) contribution contiguously, ``starts`` (length ``R + 1``) marks
    each rectangle's contribution range, and ``rects = (rx0, rx1, ry0,
    ry1)`` gives each rectangle's absolute pixel window (at most
    ``rect_span`` pixels on a side).  Rectangle groups must be
    contiguous; duplicated rectangles are allowed and accumulate in
    order.

    Patch coordinates are reconstructed arithmetically from the lattice
    origin and pixel size (``grid_x0 + dx * index``) instead of gathered
    per contribution — within one ulp of the pixel-centre arrays and an
    order of magnitude cheaper.  The Gaussian kernel separates as
    ``exp(-u^2/b^2) * exp(-v^2/b^2)``, so each rectangle costs two
    ``(m, rect_span)`` factor tables and one BLAS product; every other
    kernel takes one batched ``evaluate_sq`` per chunk.  Returns the
    number of patch pixels written.
    """
    rx0, rx1, ry0, ry1 = rects
    n_rects = rx0.shape[0]
    if n_rects == 0:
        return 0
    jx0, jy0 = origin
    offs = np.arange(rect_span)
    separable = kernel.name == "gaussian"
    if separable:
        inv_b2 = 1.0 / (bandwidth * bandwidth)
    patch_pixels = 0

    r0 = 0
    while r0 < n_rects:
        # Grow the chunk rect-by-rect up to the fixed contribution budget
        # (always at least one rect, so huge groups still process).
        r1 = r0 + 1
        while r1 < n_rects and starts[r1 + 1] - starts[r0] <= _RECT_CHUNK:
            r1 += 1
        a, z = int(starts[r0]), int(starts[r1])
        counts = (starts[r0 + 1:r1 + 1] - starts[r0:r1]).astype(np.int64)
        rect_of = np.repeat(np.arange(r0, r1), counts)
        u0 = (grid_x0 + dx * rx0[rect_of]) - px[a:z]
        v0 = (grid_y0 + dy * ry0[rect_of]) - py[a:z]
        u = u0[:, None] + (dx * offs)[None, :]
        v = v0[:, None] + (dy * offs)[None, :]
        if separable:
            u *= u
            u *= -inv_b2
            ex = np.exp(u, out=u)
            v *= v
            v *= -inv_b2
            ey = np.exp(v, out=v)
            if pw is not None:
                ex *= pw[a:z][:, None]
            bounds = starts[r0:r1 + 1] - a
            for k in range(r1 - r0):
                s0, s1 = int(bounds[k]), int(bounds[k + 1])
                block = ex[s0:s1].T @ ey[s0:s1]
                r = r0 + k
                w_r = int(rx1[r] - rx0[r])
                h_r = int(ry1[r] - ry0[r])
                local[
                    rx0[r] - jx0:rx1[r] - jx0, ry0[r] - jy0:ry1[r] - jy0
                ] += block[:w_r, :h_r]
                patch_pixels += w_r * h_r
        else:
            d2 = u[:, :, None] ** 2 + v[:, None, :] ** 2
            vals = kernel.evaluate_sq(d2, bandwidth)
            if pw is not None:
                vals *= pw[a:z][:, None, None]
            sums = np.add.reduceat(vals, starts[r0:r1] - a, axis=0)
            for k in range(r1 - r0):
                r = r0 + k
                w_r = int(rx1[r] - rx0[r])
                h_r = int(ry1[r] - ry0[r])
                local[
                    rx0[r] - jx0:rx1[r] - jx0, ry0[r] - jy0:ry1[r] - jy0
                ] += sums[k, :w_r, :h_r]
                patch_pixels += w_r * h_r
        r0 = r1
    if obs.is_active():
        obs.count("scatter.points", int(px.shape[0]))
        obs.count("scatter.buckets", int(n_rects))
        obs.count("scatter.patch_pixels", patch_pixels)
    return patch_pixels


def scatter_line(
    densities: np.ndarray,
    distances: np.ndarray,
    kernel: Kernel,
    bandwidth: float,
    cutoff: float,
    weight: float = 1.0,
    factors: np.ndarray | None = None,
) -> int:
    """1-D masked kernel scatter along a lixelised network.

    Adds ``weight * [factors *] K(distances)`` to every entry of
    ``densities`` whose distance is within ``cutoff`` (and whose split
    factor is positive, when ``factors`` is given) — the NKDV per-event
    scatter, shared by the unsplit and equal-split variants.  Returns the
    number of lixels written.
    """
    near = distances <= cutoff
    if factors is not None:
        near &= factors > 0.0
    if not near.any():
        return 0
    if factors is None:
        densities[near] += weight * kernel.evaluate(distances[near], bandwidth)
    else:
        densities[near] += (
            weight * factors[near] * kernel.evaluate(distances[near], bandwidth)
        )
    hits = int(near.sum())
    if obs.is_active():
        obs.count("scatter.points", 1)
        obs.count("scatter.buckets", 1)
        obs.count("scatter.patch_pixels", hits)
    return hits
