"""Geometric realizations and piecewise-linear maps.

A simplicial map ``f`` between complexes induces a continuous map
``|f| : |K| → |K'|`` between their geometric realizations (equation
(3.2.2) of Herlihy–Kozlov–Rajsbaum, cited by the paper in Section 5.1).
This module realizes complexes with concrete coordinates and evaluates the
induced PL maps, so that the "continuous map" side of Theorem 5.1 can be
demonstrated numerically (see ``examples/`` and the geometry tests).

Points of ``|K|`` are represented as :class:`RealizationPoint`: a simplex
together with barycentric coordinates over its (canonically ordered)
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from .complexes import SimplicialComplex
from .maps import SimplicialMap
from .simplex import Simplex


@dataclass(frozen=True)
class RealizationPoint:
    """A point of ``|K|``: barycentric coordinates in a carrier simplex.

    ``coords[i]`` is the weight of ``simplex.sorted_vertices()[i]``; weights
    are nonnegative and sum to 1.
    """

    simplex: Simplex
    coords: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.simplex):
            raise ValueError("coordinate count must match simplex size")
        if any(c < -1e-12 for c in self.coords):
            raise ValueError("barycentric coordinates must be nonnegative")
        if abs(sum(self.coords) - 1.0) > 1e-9:
            raise ValueError("barycentric coordinates must sum to 1")

    def as_weights(self) -> Dict[Hashable, float]:
        """Vertex → weight mapping (zero-weight vertices dropped)."""
        return {
            v: c
            for v, c in zip(self.simplex.sorted_vertices(), self.coords)
            if c > 0.0
        }

    def support(self) -> Simplex:
        """The minimal face containing the point (vertices of positive weight)."""
        return Simplex(self.as_weights().keys())


def barycenter(s: Simplex) -> RealizationPoint:
    """The barycenter of a simplex as a realization point."""
    n = len(s)
    return RealizationPoint(s, tuple(1.0 / n for _ in range(n)))


class Realization:
    """A concrete embedding of a complex's vertices in Euclidean space.

    Coordinates may be supplied explicitly; otherwise the vertices are
    spaced evenly around the unit circle in canonical order, with any
    further coordinates zero — adequate for visualisation and for
    numerically sampling PL maps.
    """

    def __init__(
        self,
        complex_: SimplicialComplex,
        positions: Optional[Mapping[Hashable, Tuple[float, ...]]] = None,
        dim: int = 2,
    ):
        self.complex = complex_
        if positions is not None:
            self.positions: Dict[Hashable, np.ndarray] = {
                v: np.asarray(p, dtype=float) for v, p in positions.items()
            }
            missing = [v for v in complex_.vertices if v not in self.positions]
            if missing:
                raise ValueError(f"positions missing for vertices: {missing!r}")
        else:
            verts = complex_.vertices
            angles = 2 * np.pi * np.arange(len(verts)) / max(len(verts), 1)
            layout = np.zeros((len(verts), max(dim, 2)))
            layout[:, 0] = np.cos(angles)
            layout[:, 1] = np.sin(angles)
            self.positions = {v: layout[i, :dim] for i, v in enumerate(verts)}

    def locate(self, point: RealizationPoint) -> np.ndarray:
        """Euclidean coordinates of a realization point."""
        if point.simplex not in self.complex:
            raise ValueError(f"{point.simplex!r} is not a simplex of the complex")
        verts = point.simplex.sorted_vertices()
        return sum(
            c * self.positions[v] for v, c in zip(verts, point.coords)
        )


def pl_image(f: SimplicialMap, point: RealizationPoint) -> RealizationPoint:
    """Evaluate the induced PL map ``|f|`` on a point of ``|domain|``.

    Weights of domain vertices that share an image vertex accumulate, which
    is exactly how the affine extension of a simplicial map acts.
    """
    weights: Dict[Hashable, float] = {}
    for v, c in point.as_weights().items():
        w = f.vertex_image(v)
        weights[w] = weights.get(w, 0.0) + c
    image_simplex = Simplex(weights.keys())
    ordered = image_simplex.sorted_vertices()
    return RealizationPoint(image_simplex, tuple(weights[v] for v in ordered))


def sample_simplex_points(s: Simplex, resolution: int) -> Tuple[RealizationPoint, ...]:
    """A deterministic grid of barycentric points on a simplex.

    ``resolution`` is the number of subdivisions per edge; the grid contains
    ``C(resolution + dim, dim)`` points, including the vertices.
    """
    n = len(s)
    points = []

    def rec(prefix: Tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(prefix + (remaining,))
            return
        for take in range(remaining + 1):
            rec(prefix + (take,), remaining - take, slots - 1)

    rec((), resolution, n)
    return tuple(
        RealizationPoint(s, tuple(c / resolution for c in combo)) for combo in points
    )
