"""Exception types raised across the carousel package."""

from __future__ import annotations


class CarouselError(Exception):
    """Base class for every library-specific error."""


# -- planar primitives ------------------------------------------------------

class FocusInsideOrOn(CarouselError):
    """Focus point lies inside or on the spanning circle."""


class DegenerateRadius(CarouselError):
    """A construction needs a strictly positive radius."""


class EqualRadii(CarouselError):
    """External tangents are parallel; no finite homothety center."""


class NestedCircles(CarouselError):
    """One circle lies inside the other; no external perspectivity."""


# -- hulls ------------------------------------------------------------------

class DegenerateHull(CarouselError):
    """Hull has empty interior (a single point or a segment).

    Carries the degenerate geometry so callers can still report it.
    """

    def __init__(self, message: str, kind: str, geometry: tuple):
        super().__init__(message)
        self.kind = kind  # "point" | "segment"
        self.geometry = geometry


# -- carousel instances -----------------------------------------------------

class InvalidInstance(CarouselError):
    """Instance violates the carousel hypotheses."""


class NotInterior(CarouselError):
    """Point expected strictly inside the site triangle is not."""


class CoincidentPoints(CarouselError):
    """Two points expected to be distinct coincide."""


class GenerationExhausted(CarouselError):
    """Rejection sampling hit its retry budget."""


# -- spheres ----------------------------------------------------------------

class DegenerateBasis(CarouselError):
    """Projection plane basis is not orthonormal."""


class PreconditionRadius(CarouselError):
    """Sphere radius too large for the spheres to fit strictly inside."""


class ConstructionFailed(CarouselError):
    """No positive radius satisfies the interiority requirement."""


# -- harness ----------------------------------------------------------------

class ParseError(CarouselError):
    """Scenario file is unreadable or is not valid JSON."""


class SchemaError(CarouselError):
    """Scenario JSON does not match the carousel/1 schema."""
