"""Combinatorial-topology substrate.

Everything the task-solvability machinery rests on: simplices, chromatic
complexes, carrier maps, simplicial maps, subdivisions, links and homology.
"""

from . import diskstore
from .bitcore import BitComplex
from .cache import (
    cache_clear,
    cache_info,
    caching_disabled,
    caching_enabled,
    set_caching,
)
from .carrier import CarrierMap, CarrierMapError
from .chromatic import (
    ChromaticComplex,
    NotChromaticError,
    colorless_complex,
    ids,
    strip_colors,
)
from .complexes import SimplicialComplex
from .geometry import (
    Realization,
    RealizationPoint,
    barycenter,
    pl_image,
    sample_simplex_points,
)
from .homotopy import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    is_null_homotopic,
    loop_word,
    pi1_presentation,
)
from .homology import (
    ChainBasis,
    betti_numbers,
    boundary_matrix,
    cycle_space_generators,
    edge_chain,
    homology_torsion,
    integer_rank,
    is_null_homologous,
    rank_mod2,
    smith_normal_form,
    solve_integer,
    solve_mod2,
)
from .links import (
    articulation_vertices,
    is_link_connected,
    link,
    link_components,
    longest_link_size,
)
from .pseudomanifolds import (
    boundary_complex,
    decomposition_summary,
    edge_triangle_degrees,
    is_closed_pseudomanifold,
    is_manifold_vertex,
    is_pseudomanifold,
    non_manifold_vertices,
)
from .maps import (
    NotSimplicialError,
    SimplicialMap,
    chromatic_projection,
    identity_map,
)
from .simplex import Simplex, Vertex, chrom, simplex, vertex_sort_key
from .subdivision import (
    Barycenter,
    SubdivisionResult,
    SubdivisionTower,
    barycentric_subdivision,
    chromatic_subdivision,
    chromatic_subdivision_of_simplex,
    iterated_barycentric_subdivision,
    iterated_chromatic_subdivision,
    ordered_partitions,
)

__all__ = [
    "Barycenter",
    "BitComplex",
    "diskstore",
    "CarrierMap",
    "CarrierMapError",
    "ChainBasis",
    "ChromaticComplex",
    "NotChromaticError",
    "NotSimplicialError",
    "Presentation",
    "Realization",
    "RealizationPoint",
    "SimplicialComplex",
    "SimplicialMap",
    "Simplex",
    "SubdivisionResult",
    "SubdivisionTower",
    "Vertex",
    "articulation_vertices",
    "barycenter",
    "cache_clear",
    "cache_info",
    "caching_disabled",
    "caching_enabled",
    "set_caching",
    "barycentric_subdivision",
    "boundary_complex",
    "betti_numbers",
    "boundary_matrix",
    "chrom",
    "chromatic_projection",
    "chromatic_subdivision",
    "cyclic_reduce",
    "free_reduce",
    "chromatic_subdivision_of_simplex",
    "colorless_complex",
    "cycle_space_generators",
    "decomposition_summary",
    "edge_triangle_degrees",
    "edge_chain",
    "homology_torsion",
    "is_null_homotopic",
    "loop_word",
    "pi1_presentation",
    "identity_map",
    "ids",
    "integer_rank",
    "is_closed_pseudomanifold",
    "is_link_connected",
    "is_manifold_vertex",
    "is_pseudomanifold",
    "is_null_homologous",
    "iterated_barycentric_subdivision",
    "iterated_chromatic_subdivision",
    "link",
    "link_components",
    "non_manifold_vertices",
    "longest_link_size",
    "ordered_partitions",
    "pl_image",
    "rank_mod2",
    "sample_simplex_points",
    "simplex",
    "smith_normal_form",
    "solve_integer",
    "solve_mod2",
    "strip_colors",
    "vertex_sort_key",
]
