"""Query processing directly over compressed approximations.

The paper's setting stores the *recordings* rather than the raw points in a
Data Stream Management System; downstream continuous queries then run against
the reconstructed approximation.  This subpackage provides the query-side
toolkit: time-range selection, windowed aggregates (min / max / mean /
integral) evaluated analytically from the line segments, threshold-crossing
detection, and resampling back to a regular grid.

All results carry the same ε guarantee as the approximation itself: an
aggregate computed from the approximation differs from the aggregate of the
original signal by at most ε (for min/max/mean/resampling) because every
original point is within ε of the approximation.
"""

from repro.queries.aggregates import (
    integral,
    range_aggregate,
    resample,
    rolling_edges,
    threshold_crossings,
    window_aggregates,
)
from repro.queries.planner import (
    TOLERANCE,
    StreamQueryPlan,
    plan_range_aggregate,
    plan_resample,
    plan_window_aggregates,
)
from repro.queries.pyramid import ZoomCell, plan_zoom, zoom_cells

__all__ = [
    "range_aggregate",
    "window_aggregates",
    "rolling_edges",
    "integral",
    "threshold_crossings",
    "resample",
    "TOLERANCE",
    "StreamQueryPlan",
    "plan_range_aggregate",
    "plan_window_aggregates",
    "plan_resample",
    "ZoomCell",
    "plan_zoom",
    "zoom_cells",
]
