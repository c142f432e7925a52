"""Exception types raised across the carousel package."""

from __future__ import annotations


class CarouselError(Exception):
    """Base class for every library-specific error."""


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
    """No positive radius keeps every sphere inside, or a value leaves the float range."""


# -- harness ----------------------------------------------------------------

class ParseError(CarouselError):
    """Scenario file is unreadable or is not valid JSON."""


class SchemaError(CarouselError):
    """Scenario JSON does not match the carousel/1 schema."""
