"""3D counterexample constructions and sphere-hull containment testing.

The tetrahedron is embedded as alternating vertices of the cube [0, side]^3,
which makes every construction coordinate rational.  Containment of a sphere
in the convex hull of spheres and points is decided by minimizing the support
slack over the direction sphere.  The minimum lies at one of finitely many
critical directions (face minima of single generators, minima of pairwise
equality circles, vertices of generator triples), and all of them are
enumerated, so a containment verdict and a non-containment verdict with its
negative-slack witness direction are both proofs.  An orthogonal projection
to a plane reduces to the exact 2D containment test and soundly refutes 3D
inclusions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstructionFailed, DegenerateBasis, PreconditionRadius
from .hull import ContainmentResult, GeneratorSet, circle_in_hull
from .planar import DEFAULT_TOLERANCE, Circle2, Point2, Tolerance

@dataclass(frozen=True)
class Point3:
    """Point (or free vector) in 3-space."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"coordinates must be finite, got {(self.x, self.y, self.z)}")

    def __add__(self, o: "Point3") -> "Point3":
        return Point3(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: "Point3") -> "Point3":
        return Point3(self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, s: float) -> "Point3":
        return Point3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, o: "Point3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Point3") -> "Point3":
        return Point3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def distance_to(self, o: "Point3") -> float:
        return (self - o).norm()

    def normalized(self) -> "Point3":
        n = self.norm()
        if n <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self * (1.0 / n)


@dataclass(frozen=True)
class Sphere3:
    """Sphere with nonnegative radius; radius 0 denotes a point."""

    center: Point3
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")


@dataclass(frozen=True)
class Containment3Result:
    """3D verdict from the exact slack minimum; refutations carry its direction."""

    contained: bool
    slack: float
    witness_direction: tuple[float, float, float] | None = None
    projection_certificate: ContainmentResult | None = None


def tetrahedron_from_cube(side: float) -> tuple[Point3, Point3, Point3, Point3]:
    """Regular tetrahedron on alternating vertices of the cube [0, side]^3."""
    if side <= 0.0:
        raise ValueError(f"side must be positive, got {side}")
    s = side
    return (
        Point3(0.0, 0.0, 0.0),
        Point3(s, s, 0.0),
        Point3(s, 0.0, s),
        Point3(0.0, s, s),
    )


def axis_points(a0: Point3, a1: Point3, a2: Point3, a3: Point3):
    """Midpoints B, C of two opposite edges and the trisection points of [B, C]."""
    b = (a0 + a1) * 0.5
    c = (a2 + a3) * 0.5
    p_minus1 = b + (c - b) * (1.0 / 3.0)
    p_0 = b + (c - b) * (2.0 / 3.0)
    return b, c, p_minus1, p_0


# Cut-offs below apply to the normalised problem, where every |d_g|, r_g and
# r_t is at most 1, so they do not depend on the scale of the input.
_ZERO_NORM = 1e-15  # a shorter vector (centre offset, circle step) counts as zero
_ZERO_CROSS2 = 1e-18  # below this |n1 x n2|^2 a triple's two planes are parallel


@functools.lru_cache(maxsize=32)
def _index_tuples(n: int, k: int) -> np.ndarray:
    """The C(n, k) index k-tuples as k read-only rows of a (k, C(n, k)) array."""
    idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    out = idx.reshape(-1, k).T.copy()
    out.setflags(write=False)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=1)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-wise; np.cross costs several times more on arrays this small
    return np.stack(
        [
            a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
        ],
        axis=1,
    )


def _face_minima(d: np.ndarray) -> np.ndarray:
    """Minimum direction -d_g/|d_g| of each generator not concentric with the target."""
    norm = _norm(d)
    keep = norm > _ZERO_NORM
    return -d[keep] / norm[keep, None]


def _pair_circle_minima(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum of each pair's shared value on its equality circle.

    Generators i, j tie on the circle n.u = r_j - r_i, n = d_i - d_j, of the
    unit sphere.  Along it the shared value d_i.u + r_i is least where u
    leans from the circle's centre against the in-plane part of d_i; when
    that part vanishes the value is constant and any circle point serves.
    """
    i, j = _index_tuples(len(r), 2)
    n = d[i] - d[j]
    nn = _norm(n)
    keep = (nn > _ZERO_NORM) & (np.abs(r[j] - r[i]) <= nn)
    i, j, n, nn = i[keep], j[keep], n[keep], nn[keep]
    n /= nn[:, None]
    c0 = (r[j] - r[i]) / nn
    rho = np.sqrt(np.maximum(0.0, 1.0 - c0 * c0))
    p = d[i] - _dot(d[i], n)[:, None] * n
    pn = _norm(p)
    flat = pn <= _ZERO_NORM
    # for flat pairs: the coordinate axis least aligned with n, made
    # orthogonal to it, is a unit vector in the circle's plane
    axis = np.eye(3)[np.argmin(np.abs(n), axis=1)]
    q = axis - _dot(axis, n)[:, None] * n
    q /= _norm(q)[:, None]
    step = np.where(flat[:, None], q, -p / np.where(flat, 1.0, pn)[:, None])
    return c0[:, None] * n + rho[:, None] * step


def _triple_vertices(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Both unit directions where each triple of generators shares one value.

    The tie planes n1.u = b1 and n2.u = b2 of the pairs (i, j) and (i, k)
    meet in a line along c = n1 x n2 through the point base of span(n1, n2)
    that solves both; the line crosses the unit sphere at base +- z c.
    Triples whose planes are parallel (collinear centres, duplicates) have
    no vertex; any minimum they tie at lies on a pair circle instead.
    """
    i, j, k = _index_tuples(len(r), 3)
    n1 = d[i] - d[j]
    n2 = d[i] - d[k]
    c = _cross(n1, n2)
    cc = _dot(c, c)  # the Gram determinant of n1, n2
    keep = cc > _ZERO_CROSS2
    i, j, k, n1, n2, c, cc = i[keep], j[keep], k[keep], n1[keep], n2[keep], c[keep], cc[keep]
    b1 = r[j] - r[i]
    b2 = r[k] - r[i]
    g11, g12, g22 = _dot(n1, n1), _dot(n1, n2), _dot(n2, n2)
    x = (b1 * g22 - b2 * g12) / cc
    y = (b2 * g11 - b1 * g12) / cc
    base = x[:, None] * n1 + y[:, None] * n2
    rem = 1.0 - _dot(base, base)
    meets = rem >= 0.0
    base, c = base[meets], c[meets]
    zc = np.sqrt(rem[meets] / cc[meets])[:, None] * c
    return np.concatenate([base + zc, base - zc])


def sphere_in_hull3(
    target: Sphere3,
    gens,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Containment3Result:
    """Decide sphere containment in the hull of spheres and points.

    The slack of direction u is max_g(d_g.u + r_g) - r_t with d_g the offset
    of generator g's centre from the target's.  Its minimum over the unit
    sphere lies at a critical point of the envelope: a face minimum of one
    generator, the minimum of a pair's equality circle, or a vertex where
    three generators tie.  All of them are enumerated and evaluated in one
    product, so the minimum is exact and both verdicts are proofs.  One fixed
    direction is added for generators that are all concentric with the
    target, whose envelope is constant.  The input is normalised by its
    largest length before the enumeration and the slack rescaled after it;
    the verdict compares the normalised slack with eps_decision, so it does
    not change when the whole input is scaled.  Ties go to the first
    candidate in enumeration order, which keeps the witness direction
    deterministic.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("generator list must be nonempty")
    tc = target.center
    d = np.array(
        [(g.center.x - tc.x, g.center.y - tc.y, g.center.z - tc.z) for g in gens], dtype=float
    )
    r = np.array([g.radius for g in gens], dtype=float)
    scale = max(float(_norm(d).max()), float(r.max()), target.radius)
    if scale == 0.0:
        scale = 1.0
    d /= scale
    r /= scale
    rt = target.radius / scale

    cands = np.concatenate(
        [_face_minima(d), _pair_circle_minima(d, r), _triple_vertices(d, r), [(1.0, 0.0, 0.0)]]
    )
    cands /= _norm(cands)[:, None]
    envelope = (cands @ d.T + r).max(axis=1)
    best = int(np.argmin(envelope))
    unit_slack = float(envelope[best] - rt)
    slack = unit_slack * scale

    contained = unit_slack >= -tol.eps_decision
    return Containment3Result(
        contained=contained,
        slack=slack,
        witness_direction=None if contained else tuple(float(c) for c in cands[best]),
    )


# -- projection reduction ------------------------------------------------------


def plane_through(p: Point3, q: Point3, r: Point3):
    """Orthonormal in-plane basis (origin, e1, e2) of the plane through three points."""
    w1 = q - p
    w2 = r - p
    n1 = w1.norm()
    if n1 <= 1e-12:
        raise DegenerateBasis("first two plane points coincide")
    e1 = w1 * (1.0 / n1)
    w2p = w2 - e1 * w2.dot(e1)
    n2 = w2p.norm()
    if n2 <= 1e-12:
        raise DegenerateBasis("plane points are collinear")
    return p, e1, w2p * (1.0 / n2)


def project_to_plane(p: Point3, plane) -> Point2:
    origin, e1, e2 = plane
    rel = p - origin
    return Point2(rel.dot(e1), rel.dot(e2))


def projection_reduction(
    target: Sphere3,
    gens,
    plane,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> ContainmentResult:
    """Project spheres orthogonally into a plane and run the exact 2D test.

    Projection commutes with convex hulls, so a 2D non-containment exactly
    refutes the 3D inclusion.  A 2D containment says nothing about 3D and is
    reported as the (inconclusive) 2D result.
    """
    origin, e1, e2 = plane
    for v, name in ((e1, "e1"), (e2, "e2")):
        if abs(v.norm() - 1.0) > 1e-9:
            raise DegenerateBasis(f"{name} is not a unit vector")
    if abs(e1.dot(e2)) > 1e-9:
        raise DegenerateBasis("basis vectors are not orthogonal")
    target2 = Circle2(project_to_plane(target.center, plane), target.radius)
    gens2 = GeneratorSet(
        tuple(Circle2(project_to_plane(g.center, plane), g.radius) for g in gens)
    )
    return circle_in_hull(target2, gens2, tol)


# -- counterexample reproductions ----------------------------------------------


def _face_distances(vertices, p: Point3) -> list[float]:
    """Distance from p to each face plane, positive toward the inside."""
    out = []
    for j in range(4):
        others = [vertices[i] for i in range(4) if i != j]
        n = (others[1] - others[0]).cross(others[2] - others[0])
        n = n.normalized()
        if (vertices[j] - others[0]).dot(n) < 0.0:
            n = n * -1.0
        out.append((p - others[0]).dot(n))
    return out


@dataclass(frozen=True)
class PairOutcome:
    j: int
    k: int
    result: Containment3Result


@dataclass(frozen=True)
class Example41Report:
    """Outcome of the two-sphere tetrahedron check over all 8 (j, k) pairs."""

    side: float
    r: float
    vertices: tuple[Point3, Point3, Point3, Point3]
    centers: tuple[Point3, Point3]  # (P_-1, P_0)
    face_distances: tuple[tuple[float, ...], tuple[float, ...]]
    outcomes: tuple[PairOutcome, ...]

    @property
    def all_refuted(self) -> bool:
        return all(not o.result.contained for o in self.outcomes)


def _ex41_target_gens(vertices, spheres, j: int, k: int):
    # k indexes the generator sphere: 0 -> S_0, -1 -> S_-1; target is the other
    s_m1, s_0 = spheres
    gen_sphere = s_0 if k == 0 else s_m1
    target = s_m1 if k == 0 else s_0
    gens = [gen_sphere] + [
        Sphere3(vertices[i], 0.0) for i in range(4) if i != j
    ]
    return target, gens


def example_4_1(
    side: float = 1.0,
    r: float = 0.1,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Example41Report:
    """Two equal spheres on the trisection points of the mid-edge axis.

    Every one of the 8 inclusions (choice of omitted vertex and of which
    sphere generates) is refuted by a negative-slack direction, and the
    omitted-vertex-3 cases additionally carry an exact 2D projection
    certificate in the plane through A2, A3 and the axis endpoint B.
    """
    verts = tetrahedron_from_cube(side)
    b, c, p_m1, p_0 = axis_points(*verts)
    face_d = (tuple(_face_distances(verts, p_m1)), tuple(_face_distances(verts, p_0)))
    for dists in face_d:
        if min(dists) < r + tol.eps_decision:
            raise PreconditionRadius(
                f"radius {r} does not fit strictly inside (min face distance {min(dists):.6g})"
            )
    spheres = (Sphere3(p_m1, r), Sphere3(p_0, r))
    plane = plane_through(b, verts[2], verts[3])
    outcomes = []
    for j in range(4):
        for k in (-1, 0):
            target, gens = _ex41_target_gens(verts, spheres, j, k)
            res = sphere_in_hull3(target, gens, tol)
            if j == 3:
                cert = projection_reduction(target, gens, plane, tol)
                res = replace(res, projection_certificate=cert)
            outcomes.append(PairOutcome(j, k, res))
    return Example41Report(
        side=side,
        r=r,
        vertices=verts,
        centers=(p_m1, p_0),
        face_distances=face_d,
        outcomes=tuple(outcomes),
    )


@dataclass(frozen=True)
class Example42Report:
    """Chain of spheres tangent to a common guide arc inside the tetrahedron."""

    t: int
    arc_radius_factor: float
    side: float
    vertices: tuple[Point3, Point3, Point3, Point3]
    arc_center: Point3
    arc_radius: float
    sphere_indices: tuple[int, ...]  # -1, 0, 1, ..., t-2
    spheres: tuple[Sphere3, ...]
    tangency_residuals: tuple[float, ...]
    interior_margins: tuple[float, ...]
    outcomes: tuple[PairOutcome, ...]

    @property
    def all_refuted(self) -> bool:
        return all(not o.result.contained for o in self.outcomes)


def example_4_2(
    t: int,
    arc_radius_factor: float = 10.0,
    side: float = 1.0,
    r: float = 0.1,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Example42Report:
    """Extend the two-sphere axis configuration to t spheres on the axis.

    The interior centers divide the segment between the two original centers
    equidistantly.  A guide-arc center sits on the in-plane perpendicular of
    the axis at its midpoint, at height arc_radius_factor times the axis
    length; the arc is pinned tangent to the two end circles and every
    interior radius is chosen tangent to the same arc.  If any sphere would
    poke out of the tetrahedron, all radii shrink by a common offset (which
    preserves the tangencies, against a concentric arc) until every sphere
    is strictly inside; failing that raises ConstructionFailed.
    """
    if t < 3:
        raise ValueError(f"need t >= 3, got {t}")
    verts = tetrahedron_from_cube(side)
    b, c, p_m1, p_0 = axis_points(*verts)
    axis = (c - b).normalized()
    length = (c - b).norm()
    mid = (b + c) * 0.5
    # in-plane unit normal of the axis within the plane through A2, A3, B
    a2_rel = verts[2] - mid
    n = a2_rel - axis * a2_rel.dot(axis)
    n = n.normalized()

    height = arc_radius_factor * length
    center_o = mid + n * height

    indices = tuple([-1, 0] + list(range(1, t - 1)))
    centers = {-1: p_m1, 0: p_0}
    for i in range(1, t - 1):
        centers[i] = p_0 + (p_m1 - p_0) * (i / (t - 1))

    dist_end = center_o.distance_to(p_0)
    bulges = {i: dist_end - center_o.distance_to(centers[i]) for i in indices}

    # largest base radius keeping every sphere strictly inside
    margin_room = []
    for i in indices:
        d_min = min(_face_distances(verts, centers[i]))
        margin_room.append(d_min - tol.eps_decision - bulges[i])
    base_r = min(r, min(margin_room))
    if base_r <= 0.0:
        raise ConstructionFailed(
            "no positive radius keeps every sphere strictly inside the tetrahedron"
        )
    arc_radius = dist_end + base_r
    spheres = tuple(Sphere3(centers[i], base_r + bulges[i]) for i in indices)

    residuals = tuple(
        abs(center_o.distance_to(s.center) + s.radius - arc_radius) for s in spheres
    )
    margins = tuple(
        min(_face_distances(verts, s.center)) - s.radius for s in spheres
    )

    outcomes = []
    for j in range(4):
        for pos, k in enumerate(indices):
            target = spheres[pos]
            gens = [s for q, s in enumerate(spheres) if q != pos] + [
                Sphere3(verts[i], 0.0) for i in range(4) if i != j
            ]
            res = sphere_in_hull3(target, gens, tol)
            outcomes.append(PairOutcome(j, k, res))

    return Example42Report(
        t=t,
        arc_radius_factor=arc_radius_factor,
        side=side,
        vertices=verts,
        arc_center=center_o,
        arc_radius=arc_radius,
        sphere_indices=indices,
        spheres=spheres,
        tangency_residuals=residuals,
        interior_margins=margins,
        outcomes=tuple(outcomes),
    )
