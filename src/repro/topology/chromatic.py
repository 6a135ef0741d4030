"""Chromatic simplicial complexes.

A *chromatic* complex is one in which every vertex is a
:class:`~repro.topology.simplex.Vertex` carrying a color (process id), and no
color repeats within a simplex.  Input, output and protocol complexes of
tasks are all chromatic.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Optional, Tuple

from .complexes import SimplicialComplex
from .simplex import Simplex, Vertex, color_of


class NotChromaticError(ValueError):
    """Raised when a complex violates the chromatic condition."""


class ChromaticComplex(SimplicialComplex):
    """A simplicial complex whose simplices are properly colored.

    Construction validates that every vertex is a :class:`Vertex` and that no
    facet repeats a color.  Beyond validation, this class adds color-indexed
    accessors used heavily by the task machinery.
    """

    __slots__ = ()

    def __init__(self, simplices: Iterable, name: Optional[str] = None):
        super().__init__(simplices, name=name)
        self._check_colors()

    @classmethod
    def from_closed(
        cls, simplices: Iterable[Simplex], name: Optional[str] = None
    ) -> "ChromaticComplex":
        """:meth:`SimplicialComplex.from_closed`, with the same color validation."""
        self = super().from_closed(simplices, name=name)
        self._check_colors()
        return self

    def _check_colors(self) -> None:
        for f in self.facets:
            if not f.is_chromatic():
                raise NotChromaticError(
                    f"facet {f!r} is not properly colored (colorless vertex or repeated color)"
                )

    def vertices_of_color(self, color: int) -> Tuple[Vertex, ...]:
        """All vertices carrying the given color, in canonical order."""
        return tuple(v for v in self.vertices if color_of(v) == color)

    def restrict_colors(self, colors: Iterable[int]) -> "ChromaticComplex":
        """The subcomplex induced by vertices whose color lies in ``colors``."""
        allowed = frozenset(colors)
        return ChromaticComplex(
            (s for s in self.simplices() if all(color_of(v) in allowed for v in s.vertices)),
            name=self.name,
        )

    def facets_with_colors(self, colors: Iterable[int]) -> Tuple[Simplex, ...]:
        """Simplices of ``self`` whose color set equals ``colors`` and which are
        maximal among simplices with that color set."""
        target = frozenset(colors)
        matching = [s for s in self.simplices() if s.colors() == target]
        matching_set = set(matching)
        out = []
        for s in matching:
            if not any(s < t for t in matching_set if t.dim == s.dim):
                out.append(s)
        return tuple(sorted(out, key=Simplex.sort_key))

    def is_properly_colored_by(self, n: int) -> bool:
        """True iff all colors lie in ``range(n)``."""
        return all(0 <= c < n for c in self.colors())


def ids(s: Simplex) -> FrozenSet[int]:
    """``ids(σ)`` of the paper: the color set of a chromatic simplex."""
    return s.colors()


def strip_colors(s: Simplex) -> FrozenSet[Hashable]:
    """The set of raw values of a chromatic simplex (colorless projection).

    Distinct vertices may collapse to the same value, so the result may be
    smaller than the simplex.
    """
    out = set()
    for v in s.vertices:
        out.add(v.value if isinstance(v, Vertex) else v)
    return frozenset(out)


def colorless_complex(k: SimplicialComplex) -> SimplicialComplex:
    """Project a chromatic complex to its colorless value complex.

    Every chromatic simplex ``{(i, x_i)}`` becomes the value set ``{x_i}``.
    """
    return SimplicialComplex(
        (Simplex(strip_colors(f)) for f in k.facets),
        name=f"colorless({k.name})" if k.name else None,
    )
