"""Section 4: local articulation points and the splitting deformation."""

from .deformation import (
    SplitRecord,
    SplitStep,
    SplitValue,
    SplittingError,
    split_lap,
    unsplit_value,
    unsplit_vertex,
)
from .lap import (
    LocalArticulationPoint,
    is_link_connected_task,
    iter_local_articulation_points,
    local_articulation_points,
)
from .pipeline import (
    SplitPipelineResult,
    SplittingDidNotConverge,
    TransformNotLinkConnected,
    TransformResult,
    eliminate_laps,
    link_connected_form,
)

__all__ = [
    "LocalArticulationPoint",
    "SplitPipelineResult",
    "SplitRecord",
    "SplitStep",
    "SplitValue",
    "SplittingDidNotConverge",
    "SplittingError",
    "TransformNotLinkConnected",
    "TransformResult",
    "eliminate_laps",
    "is_link_connected_task",
    "iter_local_articulation_points",
    "link_connected_form",
    "local_articulation_points",
    "split_lap",
    "unsplit_value",
    "unsplit_vertex",
]
