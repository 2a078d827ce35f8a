"""Incremental streaming engine: delta-updated analytics over event feeds.

The paper's interactive systems (KDV-Explorer [28], live COVID hotspot
maps [6, 8]) refresh analytics as new events arrive and old ones expire.
This package makes that a first-class mode: a :class:`StreamWindow`
slides over a time-ordered feed (by count or by time), a
:class:`StreamEngine` fans each slide's :class:`StreamDelta` out to
registered analytics, and each analytic updates **by delta** instead of
recomputing from scratch:

* :class:`StreamingKDV` — maintained density surface (one kernel patch
  per changed event) with float-drift control and a :class:`DirtyTileLedger`
  of exactly which grid tiles changed since the last snapshot;
* :class:`StreamingHotspot` — maintained Getis-Ord Gi* map over a cell
  lattice, updating only changed cells and their neighbourhoods;
* :class:`StreamingKFunction` — maintained windowed Ripley K, charging
  only pairs that involve entering/leaving events.

The hotspot and K analytics maintain *integer* state and reuse the batch
code paths' arithmetic, so their snapshots equal the batch statistics of
the window contents exactly; the KDV surface stays within its published
drift tolerance of a fresh scatter (and is rebuilt — in parallel,
deterministically — when cancellation pressure crosses the policy ratio).
"""

from ..core.kdv.streaming import DirtyTileLedger, StreamingKDV
from .hotspot import StreamingHotspot
from .kfunction import StreamingKFunction, StreamKSnapshot
from .window import StreamDelta, StreamEngine, StreamWindow

__all__ = [
    "DirtyTileLedger",
    "StreamDelta",
    "StreamEngine",
    "StreamKSnapshot",
    "StreamWindow",
    "StreamingHotspot",
    "StreamingKDV",
    "StreamingKFunction",
]
