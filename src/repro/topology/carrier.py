"""Carrier maps.

A *carrier map* ``Δ : K → 2^{K'}`` assigns to every simplex of a domain
complex a subcomplex of a codomain complex, monotonically: ``σ' ⊆ σ``
implies ``Δ(σ') ⊆ Δ(σ)``.  Task specifications, protocol complexes and the
splitting deformation of Section 4 are all expressed as carrier maps.

The paper additionally requires *rigidity* (``Δ(σ)`` is pure of the same
dimension as ``σ``) and, for chromatic complexes, *color preservation*
(``Δ(σ)`` uses exactly the colors of ``σ``).  Those are separate predicates
here so that intermediate constructions can be checked step by step.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .complexes import SimplicialComplex
from .simplex import Simplex


class CarrierMapError(ValueError):
    """Raised when a carrier-map validity check fails."""


class CarrierMap:
    """An explicit carrier map between two finite complexes.

    Parameters
    ----------
    domain, codomain:
        The complexes the map goes between.
    images:
        A mapping from every simplex of ``domain`` to its image, given either
        as a :class:`SimplicialComplex` or as an iterable of simplices (whose
        downward closure is taken).  Simplices of ``domain`` missing from
        ``images`` get the empty image.
    check:
        When true (default), verify that every image is a subcomplex of
        ``codomain`` and that the map is monotonic.
    """

    __slots__ = ("domain", "codomain", "_images")

    def __init__(
        self,
        domain: SimplicialComplex,
        codomain: SimplicialComplex,
        images: Mapping[Simplex, Union[SimplicialComplex, Iterable]],
        check: bool = True,
    ):
        self.domain = domain
        self.codomain = codomain
        self._images: Dict[Simplex, SimplicialComplex] = {}
        for s, img in images.items():
            if not isinstance(s, Simplex):
                s = Simplex(s)
            if s not in domain:
                raise CarrierMapError(f"{s!r} is not a simplex of the domain")
            if not isinstance(img, SimplicialComplex):
                img = SimplicialComplex(img)
            self._images[s] = img
        missing = [s for s in domain.simplices() if s not in self._images]
        if missing:
            # complexes are immutable, so one empty image serves them all
            empty = SimplicialComplex.empty()
            for s in missing:
                self._images[s] = empty
        if check:
            self.validate()

    # -- evaluation ----------------------------------------------------------

    def __call__(self, arg) -> SimplicialComplex:
        """Evaluate the map.

        Accepts a simplex (image subcomplex), a complex or an iterable of
        simplices (union of images).
        """
        if isinstance(arg, Simplex):
            return self._images[arg]
        if isinstance(arg, SimplicialComplex):
            return self.union_image(arg.simplices())
        if isinstance(arg, Iterable):
            return self.union_image(arg)
        raise TypeError(f"cannot evaluate a carrier map on {arg!r}")

    def union_image(self, simplices: Iterable) -> SimplicialComplex:
        """The union of the images of the given simplices."""
        facets: List[Simplex] = []
        for s in simplices:
            if not isinstance(s, Simplex):
                s = Simplex(s)
            facets.extend(self._images[s].facets)
        return SimplicialComplex(facets)

    def image(self) -> SimplicialComplex:
        """The union of all images (the reachable part of the codomain)."""
        return self.union_image(self.domain.facets)

    def items(self) -> Tuple[Tuple[Simplex, SimplicialComplex], ...]:
        """``(simplex, image)`` pairs in canonical domain order."""
        return tuple((s, self._images[s]) for s in self.domain.simplices())

    # -- predicates ---------------------------------------------------------

    def validate(self) -> None:
        """Check well-formedness: images in codomain, monotonicity.

        Raises :class:`CarrierMapError` with a specific message on failure.
        """
        for s, img in self._images.items():
            for f in img.facets:
                if f not in self.codomain:
                    raise CarrierMapError(
                        f"image of {s!r} contains {f!r}, absent from the codomain"
                    )
        bad = self._monotonicity_violation()
        if bad is not None:
            small, big = bad
            raise CarrierMapError(
                f"not monotonic: Δ({small!r}) is not a subcomplex of Δ({big!r})"
            )

    def _monotonicity_violation(self) -> Optional[Tuple[Simplex, Simplex]]:
        for s in self.domain.simplices():
            if s.dim == 0:
                continue
            img = self._images[s]
            for face in s.boundary():
                if not self._images[face].is_subcomplex_of(img):
                    return (face, s)
        return None

    def is_monotonic(self) -> bool:
        """True iff ``σ' ⊆ σ`` implies ``Δ(σ') ⊆ Δ(σ)``."""
        return self._monotonicity_violation() is None

    def is_rigid(self) -> bool:
        """True iff every nonempty image is pure of its simplex's dimension."""
        for s, img in self._images.items():
            if not img:
                continue
            if img.dim != s.dim or not img.is_pure():
                return False
        return True

    def is_chromatic(self) -> bool:
        """True iff every facet of ``Δ(σ)`` carries exactly the colors of ``σ``."""
        for s, img in self._images.items():
            try:
                want = s.colors()
            except ValueError:
                return False
            for f in img.facets:
                try:
                    got = f.colors()
                except ValueError:
                    return False
                if got != want:
                    return False
        return True

    def is_strict(self) -> bool:
        """True iff every domain simplex has a nonempty image."""
        return all(bool(img) for img in self._images.values())

    # -- transformations ------------------------------------------------------

    def monotonize(self) -> "CarrierMap":
        """Prune images until the map is monotonic.

        Following the paper's remark in Section 2.3, outputs that would
        violate monotonicity can never be decided by a correct protocol, so
        removing them preserves solvability.  Pruning proceeds top-down: the
        image of a face is intersected with the images of all its cofaces.
        """
        pruned: Dict[Simplex, SimplicialComplex] = {
            s: img for s, img in self._images.items()
        }
        by_dim = sorted(self.domain.simplices(), key=lambda s: -s.dim)
        for s in by_dim:
            if s.dim == self.domain.dim:
                continue
            img = pruned[s]
            cofaces = [
                t
                for t in self.domain.simplices(dim=s.dim + 1)
                if s.vertices < t.vertices
            ]
            for t in cofaces:
                img = img.intersection(pruned[t])
            pruned[s] = img
        return CarrierMap(self.domain, self.codomain, pruned, check=False)

    def restricted_to(self, sub: SimplicialComplex) -> "CarrierMap":
        """Restrict the domain to a subcomplex."""
        if not sub.is_subcomplex_of(self.domain):
            raise CarrierMapError("restriction target is not a subcomplex of the domain")
        return CarrierMap(
            sub,
            self.codomain,
            {s: self._images[s] for s in sub.simplices()},
            check=False,
        )

    def with_codomain(self, codomain: SimplicialComplex) -> "CarrierMap":
        """Rebase onto a larger codomain (images must still fit)."""
        return CarrierMap(self.domain, codomain, dict(self._images), check=True)

    def compose(self, other: "CarrierMap") -> "CarrierMap":
        """The composition ``other ∘ self`` (apply ``self`` first).

        ``(other ∘ self)(σ)`` is the union of ``other(τ)`` over all
        simplices ``τ`` of ``self(σ)``.
        """
        images = {
            s: other.union_image(self._images[s].simplices())
            for s in self.domain.simplices()
        }
        return CarrierMap(self.domain, other.codomain, images, check=False)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CarrierMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self._images == other._images
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, tuple(sorted(
            ((s, img) for s, img in self._images.items()),
            key=lambda p: p[0].sort_key(),
        ))))

    def __repr__(self) -> str:
        return (
            f"CarrierMap({self.domain!r} -> {self.codomain!r}, "
            f"{len(self._images)} images)"
        )
