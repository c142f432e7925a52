"""Circle/sphere convex-hull containment toolkit.

2D objects are (x, y, r) float triples, a point having r = 0, and a carousel
instance is the row of five of them b0, b1, b2, u0, u1.  A 3D object is
an (x, y, z, r) float quadruple in the same way.
2D: support-function containment of circles in hulls of circles and points,
one query or a set of queries per call, with witness-direction certificates,
and hull boundary construction.  Carousel procedures: witness search over a
triangle of sites (one instance or a set of rows per call), the point-only
decomposition rule, and the xi-sweep locating the critical scale of a fixed
witness.  3D: exact sphere-in-hull containment by enumerating the critical
directions of the support slack, one set of inclusions among the rows of an
(n, 4) array per call, and the tetrahedron counterexample constructions,
with exact 2D projection certificates on their outcomes.  Both kernels
return ``ContainmentResult``, and ``hull_boundary`` returns the tuple of
the boundary's pieces.
"""

__version__ = "0.1.0"

from .errors import (
    CarouselError,
    CoincidentPoints,
    ConstructionFailed,
    DegenerateBasis,
    GenerationExhausted,
    InvalidInstance,
    NotInterior,
    ParseError,
    PreconditionRadius,
    SchemaError,
)
from .hull import (
    ArcPiece,
    ContainmentResult,
    SegmentPiece,
    circle_in_hull,
    circles_in_hulls,
    hull_boundary,
)
from .planar import EPS_DECISION, EPS_GEOM
from .spheres import (
    Example41Report,
    Example42Report,
    axis_points,
    example_4_1,
    example_4_2,
    plane_through,
    projection_reduction,
    sphere_in_hull3,
    spheres_in_hull3,
    tetrahedron_from_cube,
)
from .witness import (
    Tangency,
    Witness,
    XiSweepReport,
    corollary_witness_search,
    random_instance,
    scaled_instance,
    sweep_slack,
    two_carousel_points,
    witness_search,
    xi_sweep_fixed,
)
