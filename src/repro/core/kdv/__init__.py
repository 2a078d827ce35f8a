"""Kernel density visualisation (KDV) with the paper's four method families."""

from .adaptive import adaptive_bandwidths, kde_adaptive
from .anisotropic import kde_grid_anisotropic
from .api import KDV_METHODS, kde_grid
from .bandwidth import scott_bandwidth, silverman_bandwidth
from .lscv import lscv_bandwidth, lscv_score
from .base import KDVProblem, effective_radius
from .bounds import kde_bounds, kde_point_bounds
from .dualtree import RefinementStats, kde_dualtree
from .gridcut import kde_gridcut
from .naive import kde_naive
from .parallel import kde_parallel
from .planner import (
    CostModel,
    KDVPlan,
    calibrate,
    clear_plan_cache,
    plan_cache_info,
    plan_kdv,
)
from .sampling import kde_sampling, sample_size
from .sweep import kde_sweep

__all__ = [
    "CostModel",
    "KDVPlan",
    "KDVProblem",
    "RefinementStats",
    "calibrate",
    "clear_plan_cache",
    "plan_cache_info",
    "plan_kdv",
    "adaptive_bandwidths",
    "kde_adaptive",
    "lscv_bandwidth",
    "lscv_score",
    "KDV_METHODS",
    "effective_radius",
    "kde_bounds",
    "kde_dualtree",
    "kde_grid",
    "kde_grid_anisotropic",
    "kde_gridcut",
    "kde_naive",
    "kde_parallel",
    "kde_point_bounds",
    "kde_sampling",
    "kde_sweep",
    "sample_size",
    "scott_bandwidth",
    "silverman_bandwidth",
]
