"""Section 5: the solvability characterization as a decision procedure."""

from .decision import (
    OBSTRUCTION_CHECKS,
    SolvabilityVerdict,
    Status,
    WitnessRejected,
    decide_solvability,
)
from .map_search import (
    MapSearchProblem,
    SearchBudgetExceeded,
    SearchStats,
    find_map,
    prepare_problem,
    search_map,
    verify_map,
)
from .obstructions import (
    ObstructionWitness,
    corollary_5_5,
    corollary_5_6,
    empty_image_obstruction,
    homological_obstruction,
    two_process_solvable,
)

__all__ = [
    "MapSearchProblem",
    "OBSTRUCTION_CHECKS",
    "ObstructionWitness",
    "SearchBudgetExceeded",
    "SearchStats",
    "SolvabilityVerdict",
    "Status",
    "WitnessRejected",
    "corollary_5_5",
    "corollary_5_6",
    "decide_solvability",
    "empty_image_obstruction",
    "find_map",
    "homological_obstruction",
    "prepare_problem",
    "search_map",
    "two_process_solvable",
    "verify_map",
]
