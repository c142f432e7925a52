"""3D counterexample constructions and sphere-hull containment testing.

Points and free vectors are plain (x, y, z) float triples, and a sphere is
an (x, y, z, r) float quadruple, a point having r = 0.  The tetrahedron is
embedded as alternating vertices of the cube [0, side]^3, which makes every
construction coordinate rational.  A length whose square leaves the normal
float range is rescaled by its largest coordinate, so a scaled copy of an
example builds as long as its coordinates and their products stay finite.
Containment of a sphere in the convex hull of spheres and points is decided
by minimizing the support slack over the direction sphere.  The minimum lies
at one of finitely many critical directions (face minima of single
generators, minima of pairwise equality circles, vertices of generator
triples), and all of them are enumerated, so a containment verdict and a
non-containment verdict with its negative-slack witness direction are both
proofs.  One kernel, ``spheres_in_hull3``, decides a whole set of inclusions
among the rows of one (n, 4) array in one array pass: the triple vertices do
not depend on the target, so they are enumerated once and shared, and each
example makes one call.  Its verdicts are the 2D kernel's ``ContainmentResult``,
with a unit (x, y, z) witness direction, and come from the 2D rule,
``planar.contained``, applied to each inclusion's normalised slack.  An
orthogonal projection to a plane reduces to the exact 2D containment test
and soundly refutes 3D inclusions; Example 4.1 puts such a certificate on
the outcome of each inclusion that leaves out vertex 3.  Each example's
report keeps the kernel's object rows and each outcome its kernel inclusion
(target, excluded), so only the example constructions know the object order
and the (j, k) to inclusion map.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed, DegenerateBasis, PreconditionRadius
from .hull import ContainmentResult, _check_values, circle_in_hull
from .planar import EPS_DECISION, contained, is_integer

# -- float triples and quadruples ------------------------------------------------
# A helper that returns a vector or a radius refuses a non-finite result.

Vec3 = tuple[float, float, float]
Vec4 = tuple[float, float, float, float]  # a sphere (x, y, z, r)

_MIN_NORMAL = sys.float_info.min


def _finite3(x: float, y: float, z: float) -> Vec3:
    if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
        return x, y, z
    raise ValueError(f"coordinates must be finite, got {(x, y, z)}")


def _finite_radius(r: float) -> float:
    if math.isfinite(r) and r >= 0.0:
        return r
    raise ValueError(f"radius must be finite and >= 0, got {r}")


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _add3(a, b):
    return _finite3(a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub3(a, b):
    return _finite3(a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale3(a, s: float):
    return _finite3(a[0] * s, a[1] * s, a[2] * s)


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    ax, ay, az = a
    bx, by, bz = b
    return _finite3(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _norm3(a) -> float:
    """Length of a; rescaled by its largest coordinate when the square leaves the normal range.

    A length that overflows raises ValueError.
    """
    dd = _dot3(a, a)
    if _MIN_NORMAL <= dd < math.inf:
        return math.sqrt(dd)
    m = max(abs(a[0]), abs(a[1]), abs(a[2]))
    if m == 0.0:
        return 0.0
    x, y, z = a[0] / m, a[1] / m, a[2] / m
    n = m * math.sqrt(x * x + y * y + z * z)
    if n == math.inf:
        raise ValueError(f"length must be finite, got {n} for {a}")
    return n


def _unit3(a):
    n = _norm3(a)
    if n <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return _scale3(a, 1.0 / n)


def tetrahedron_from_cube(side: float) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Regular tetrahedron on alternating vertices of the cube [0, side]^3."""
    _require_positive("side", side)
    return (0.0, 0.0, 0.0), (side, side, 0.0), (side, 0.0, side), (0.0, side, side)


def axis_points(a0, a1, a2, a3):
    """Midpoints B, C of two opposite edges and the trisection points of [B, C]."""
    b = _scale3(_add3(a0, a1), 0.5)
    c = _scale3(_add3(a2, a3), 0.5)
    bc = _sub3(c, b)
    return b, c, _add3(b, _scale3(bc, 1.0 / 3.0)), _add3(b, _scale3(bc, 2.0 / 3.0))


# Cut-offs below apply to normalised problems, where every centre offset and
# radius is at most 1, so they do not depend on the scale of the input.
_ZERO_NORM = 1e-15  # a shorter vector (centre offset, circle step) counts as zero
_ZERO_CROSS2 = 1e-18  # below this |n1 x n2|^2 a triple's two planes are parallel
# Elements in one kernel temporary (inclusions x candidates x generators, or
# inclusions x directions); inclusions and directions go in blocks this size.
_BLOCK = 1 << 15
# The candidate for a constant envelope (every generator concentric with the
# target); it also fills the rows of rejected candidates before masking.
_FIXED = np.array([1.0, 0.0, 0.0])


@functools.lru_cache(maxsize=32)
def _index_tuples(n: int, k: int) -> np.ndarray:
    """The C(n, k) index k-tuples as k read-only rows of a (k, C(n, k)) array."""
    idx = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    out = idx.reshape(-1, k).T.copy()
    out.setflags(write=False)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1)


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # along the last axis; np.cross and np.stack cost several times more on arrays this small
    out = np.empty(a.shape)
    np.subtract(a[..., 1] * b[..., 2], a[..., 2] * b[..., 1], out=out[..., 0])
    np.subtract(a[..., 2] * b[..., 0], a[..., 0] * b[..., 2], out=out[..., 1])
    np.subtract(a[..., 0] * b[..., 1], a[..., 1] * b[..., 0], out=out[..., 2])
    return out


def _face_minima(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum direction -d_g/|d_g| of each generator, and which are off the target's centre.

    ``d`` holds the centre offsets along its second-last axis; the mask
    rejects the concentric generators, whose rows are placeholders.
    """
    norm = _norm(d)
    keep = norm > _ZERO_NORM
    return -d / np.where(keep, norm, 1.0)[..., None], keep


def _pair_circle_minima(d: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of each pair's shared value on its equality circle, and which pairs have one.

    Generators i, j tie on the circle n.u = r_j - r_i, n = d_i - d_j, of the
    unit sphere.  Along it the shared value d_i.u + r_i is least where u
    leans from the circle's centre against the in-plane part of d_i; when
    that part vanishes the value is constant and any circle point serves.
    Pairs come in combination order along the second-last axis; the mask
    rejects concentric pairs and circles that miss the sphere.
    """
    i, j = _index_tuples(r.shape[-1], 2)
    di, dj = d[..., i, :], d[..., j, :]
    b = r[..., j] - r[..., i]
    n = di - dj
    nn = _norm(n)
    nonzero = nn > _ZERO_NORM
    keep = nonzero & (np.abs(b) <= nn)
    nn = np.where(nonzero, nn, 1.0)
    n /= nn[..., None]
    c0 = b / nn
    rho = np.sqrt(np.maximum(0.0, 1.0 - c0 * c0))
    p = di - _dot(di, n)[..., None] * n
    pn = _norm(p)
    flat = pn <= _ZERO_NORM
    if flat.any():
        # for flat pairs: the coordinate axis least aligned with n, made
        # orthogonal to it, is a unit vector in the circle's plane
        axis = np.eye(3)[np.argmin(np.abs(n), axis=-1)]
        q = axis - _dot(axis, n)[..., None] * n
        q /= _norm(q)[..., None]
        step = np.where(flat[..., None], q, -p / np.where(flat, 1.0, pn)[..., None])
    else:
        step = -p / pn[..., None]
    return c0[..., None] * n + rho[..., None] * step, keep


def _triple_vertices(c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both directions where each triple of objects shares one value, with the triple.

    The tie planes n1.u = b1 and n2.u = b2 of the pairs (i, j) and (i, k),
    with n1 = c_i - c_j and n2 = c_i - c_k, meet in a line along
    w = n1 x n2 through the point base of span(n1, n2) that solves both; the
    line crosses the unit sphere at base +- z w.  Neither plane depends on
    where the target is, so one enumeration over all objects serves every
    inclusion.  Triples whose planes are parallel (collinear centres,
    duplicates) have no vertex; any minimum they tie at lies on a pair
    circle instead.  Returns every + vertex, then every - vertex, in
    combination order, and the rows (i, j, k) they belong to.
    """
    tri = _index_tuples(len(r), 3)
    i, j, k = tri
    n1 = c[i] - c[j]
    n2 = c[i] - c[k]
    w = _cross(n1, n2)
    cc = _dot(w, w)  # the Gram determinant of n1, n2
    parallel = cc <= _ZERO_CROSS2
    cc[parallel] = 1.0  # any divisor: these rows are dropped below
    b1 = r[j] - r[i]
    b2 = r[k] - r[i]
    g11, g12, g22 = _dot(n1, n1), _dot(n1, n2), _dot(n2, n2)
    x = (b1 * g22 - b2 * g12) / cc
    y = (b2 * g11 - b1 * g12) / cc
    base = x[:, None] * n1 + y[:, None] * n2
    rem = 1.0 - _dot(base, base)
    meets = rem >= 0.0
    meets[parallel] = False
    zw = np.sqrt(np.maximum(rem, 0.0) / cc)[:, None] * w
    tri = tri.T
    if not meets.all():
        base, zw, tri = base[meets], zw[meets], tri[meets]
    return np.concatenate([base + zw, base - zw]), np.concatenate([tri, tri])


def _best_triple_vertices(c, r, targets, removed, depth) -> tuple[np.ndarray, np.ndarray]:
    """Each inclusion's least-slack triple vertex and whether it has one.

    All objects are centred and normalised by their largest length, so the
    parallel-plane cut-off stays scale-free.  Every object is evaluated once
    at every shared vertex, and each vertex keeps its ``depth`` best
    objects, one more than any inclusion removes.  An inclusion's envelope
    there is the first of those it did not remove; vertices of triples that
    contain a removed object are not its candidates.  Ties go to the first vertex in
    enumeration order.  Vertices go in blocks, so memory stays bounded.
    """
    cn = c - c.sum(axis=0) / len(c)  # c.mean(axis=0), without its Python overhead
    scale = max(float(_norm(cn).max()), float(r.max())) or 1.0
    cn /= scale
    rn = r / scale
    u, tri = _triple_vertices(cn, rn)
    m = len(removed)
    if not len(u):
        return np.tile(_FIXED, (m, 1)), np.zeros(m, dtype=bool)
    u /= _norm(u)[:, None]
    best = np.full(m, np.inf)
    best_at = np.zeros(m, dtype=np.intp)
    rows = np.arange(m)
    step = max(1, _BLOCK // m)
    for lo in range(0, len(u), step):
        s = u[lo : lo + step] @ cn.T + rn
        top = np.argsort(s, axis=1)[:, : -depth - 1 : -1]
        top_s = s[np.arange(len(s))[:, None], top]
        env = top_s[:, -1]
        for q in range(depth - 2, -1, -1):
            env = np.where(removed[:, top[:, q]], env, top_s[:, q])
        slack = env - s[:, targets].T
        t = tri[lo : lo + step]
        out = removed[:, t[:, 0]] | removed[:, t[:, 1]] | removed[:, t[:, 2]]
        slack[out] = np.inf
        at = np.argmin(slack, axis=1)
        low = slack[rows, at]
        better = low < best
        best = np.where(better, low, best)
        best_at = np.where(better, at + lo, best_at)
    return u[best_at], np.isfinite(best)


def spheres_in_hull3(objects, inclusions) -> tuple[ContainmentResult, ...]:
    """Decide a set of sphere inclusions among the same spheres and points.

    The objects are the rows of one (n, 4) array of (x, y, z, r) spheres
    (radius 0 for points), which must be finite, with every radius >= 0;
    any other shape raises ValueError.  Each inclusion is a pair (target
    index, sequence of the indices it also excludes), every index an integer
    in 0..n-1, and anything else raises ValueError; its generators are the
    other objects, in object order.  The slack of direction u is
    max_g(d_g.u + r_g) - r_t with d_g the offset of generator g's centre
    from the target's.  Its minimum over the unit sphere lies at a critical
    point of the envelope: a face minimum of one generator, the minimum of a
    pair's equality circle, or a vertex where three generators tie.  All of
    them are enumerated, so the minimum is exact and both verdicts are
    proofs.  Face and pair minima depend on the target and are stacked over
    the inclusions; triple vertices do not, so they are enumerated once over
    all objects and shared (the vertex normals of the hull of spheres,
    Boissonnat et al., CGTA 6, 1996).  One fixed direction is added for
    generators that are all concentric with the target, whose envelope is
    constant.  Each inclusion is normalised by its largest length; the
    verdict is ``planar.contained`` of the normalised slack, the 2D rule, so
    it does not change when the whole input is scaled.  The witness
    direction is a minimiser, a unit (x, y, z) triple: ties go to the first candidate in
    the order face, pair, triple +, triple -, fixed.  Results are the 2D
    kernel's ``ContainmentResult``, in the order of ``inclusions``; no
    inclusion gives ().
    """
    objs = np.array(objects, dtype=float)
    if objs.ndim != 2 or objs.shape[1] != 4:
        raise ValueError(f"objects must be (n, 4): (x, y, z, r) rows, got shape {objs.shape}")
    _check_values(objs)
    c, rad = objs[:, :3], objs[:, 3]
    inclusions = list(inclusions)
    if not inclusions:
        return ()
    n = len(rad)
    removed = np.zeros((len(inclusions), n), dtype=bool)
    for q, inclusion in enumerate(inclusions):
        try:
            target, excluded = inclusion
            indices = (target, *excluded)
        except (TypeError, ValueError):
            raise ValueError(f"inclusion {inclusion!r} is not (index, sequence of indices)") from None
        for i in indices:
            if not is_integer(i) or not 0 <= i < n:
                raise ValueError(f"inclusion {(target, excluded)}: indices must be in 0..{n - 1}")
            removed[q, i] = True
    targets = np.array([target for target, _ in inclusions], dtype=np.intp)
    counts = n - removed.sum(axis=1)
    sizes = sorted(set(counts.tolist()))
    if sizes[0] == 0:
        raise ValueError("generator list must be nonempty")
    depth = min(n, n - sizes[0] + 1)
    triple_best, has_triple = _best_triple_vertices(c, rad, targets, removed, depth)

    results: list[ContainmentResult | None] = [None] * len(targets)
    for g in sizes:
        group = np.flatnonzero(counts == g)
        gens = np.nonzero(~removed[group])[1].reshape(len(group), g)
        cands_per = g + g * (g - 1) // 2 + 2
        step = max(1, _BLOCK // (cands_per * g))
        for lo in range(0, len(group), step):
            qs = group[lo : lo + step]
            gi = gens[lo : lo + step]
            d = c[gi] - c[targets[qs]][:, None, :]
            r = rad[gi]
            rt = rad[targets[qs]]
            scale = np.maximum(np.maximum(_norm(d).max(axis=1), r.max(axis=1)), rt)
            scale[scale == 0.0] = 1.0
            d /= scale[:, None, None]
            r /= scale[:, None]
            rt = rt / scale
            face, face_keep = _face_minima(d)
            pair, pair_keep = _pair_circle_minima(d, r)
            fixed = _FIXED[None, None].repeat(len(qs), axis=0)
            cands = np.concatenate([face, pair, triple_best[qs][:, None, :], fixed], axis=1)
            keep = np.concatenate(
                [face_keep, pair_keep, has_triple[qs][:, None], np.ones((len(qs), 1), bool)],
                axis=1,
            )
            cands = np.where(keep[..., None], cands, _FIXED)
            cands /= _norm(cands)[..., None]
            envelope = cands @ d.transpose(0, 2, 1)
            envelope += r[:, None, :]
            envelope = envelope.max(axis=2)
            envelope[~keep] = np.inf
            rows = np.arange(len(qs))
            best = np.argmin(envelope, axis=1)
            unit_slack = envelope[rows, best] - rt
            for q, inside, slack, witness in zip(
                qs.tolist(),
                contained(unit_slack).tolist(),
                (unit_slack * scale).tolist(),
                cands[rows, best].tolist(),
            ):
                results[q] = ContainmentResult(
                    contained=inside,
                    slack=slack,
                    witness_direction=None if inside else tuple(witness),
                )
    return tuple(results)


def sphere_in_hull3(target, gens) -> ContainmentResult:
    """Decide one (x, y, z, r) sphere's containment in the hull of spheres and points.

    This is the one-inclusion case of ``spheres_in_hull3``: the target and
    its generators are the objects, and the target is the only one removed.
    """
    return spheres_in_hull3([target, *gens], [(0, ())])[0]


# -- projection reduction ------------------------------------------------------


def plane_through(p, q, r):
    """Orthonormal in-plane basis (origin, e1, e2) of the plane through three points.

    Both degeneracy tests are relative to the lengths of the vectors they
    come from, so a scaled copy of a plane is accepted or refused with it.
    """
    w1 = _sub3(q, p)
    w2 = _sub3(r, p)
    n1 = _norm3(w1)
    if n1 <= 1e-12 * max(_norm3(p), _norm3(q)):
        raise DegenerateBasis("first two plane points coincide")
    e1 = _scale3(w1, 1.0 / n1)
    w2p = _sub3(w2, _scale3(e1, _dot3(w2, e1)))
    n2 = _norm3(w2p)
    if n2 <= 1e-12 * _norm3(w2):
        raise DegenerateBasis("plane points are collinear")
    return p, e1, _scale3(w2p, 1.0 / n2)


def project_to_plane(p, plane) -> tuple[float, float]:
    """In-plane coordinates of p's orthogonal projection."""
    origin, e1, e2 = plane
    rel = _sub3(p, origin)
    return _dot3(rel, e1), _dot3(rel, e2)


def _projection_certificate(target, gens, plane) -> ContainmentResult:
    """``circle_in_hull`` on the projections of (x, y, z, r) spheres into the plane."""
    target, *gens = [(*project_to_plane((x, y, z), plane), r) for x, y, z, r in (target, *gens)]
    return circle_in_hull(target, gens)


def projection_reduction(target, gens, plane) -> ContainmentResult:
    """Project (x, y, z, r) spheres orthogonally into a plane and run the exact 2D test.

    Projection commutes with convex hulls, so a 2D non-containment exactly
    refutes the 3D inclusion.  A 2D containment says nothing about 3D and is
    reported as the (inconclusive) 2D result.
    """
    origin, e1, e2 = plane
    for v, name in ((e1, "e1"), (e2, "e2")):
        if abs(_norm3(v) - 1.0) > 1e-9:
            raise DegenerateBasis(f"{name} is not a unit vector")
    if abs(_dot3(e1, e2)) > 1e-9:
        raise DegenerateBasis("basis vectors are not orthogonal")
    return _projection_certificate(target, gens, plane)


# -- counterexample reproductions ----------------------------------------------


def _face_planes(vertices):
    """(point, inward unit normal) of each face, the face opposite vertex j at j."""
    out = []
    for j in range(4):
        o0, o1, o2 = [vertices[i] for i in range(4) if i != j]
        n = _unit3(_cross3(_sub3(o1, o0), _sub3(o2, o0)))
        if _dot3(_sub3(vertices[j], o0), n) < 0.0:
            n = _scale3(n, -1.0)
        out.append((o0, n))
    return out


def _face_distances(planes, p) -> list[float]:
    """Distance from p to each face plane, positive toward the inside."""
    return [_dot3(_sub3(p, o), n) for o, n in planes]


@dataclass(frozen=True)
class PairOutcome:
    """The kernel's verdict on inclusion (j, k); Example 4.1's j = 3 ones add a 2D certificate.

    j is the vertex A_j left out.  k is Example 4.1's generating sphere S_k, the target being the
    other (k = 0 has target S_-1), and Example 4.2's target itself: -1, 0, 1, ..., t-2.
    """

    j: int
    k: int
    inclusion: tuple[int, tuple[int, ...]]  # the kernel's (target, excluded) in ``objects``
    result: ContainmentResult
    projection_certificate: ContainmentResult | None = None


class _Outcomes:
    """The claim both example reports make of their ``outcomes``."""

    @property
    def all_refuted(self) -> bool:
        return all(not o.result.contained for o in self.outcomes)


@dataclass(frozen=True)
class Example41Report(_Outcomes):
    """Outcome of the two-sphere tetrahedron check over all 8 (j, k) pairs."""

    side: float
    r: float
    vertices: tuple[Vec3, Vec3, Vec3, Vec3]
    spheres: tuple[Vec4, Vec4]  # (S_-1, S_0), centred on P_-1 and P_0
    face_distances: tuple[tuple[float, ...], tuple[float, ...]]
    objects: tuple[Vec4, ...]  # the kernel's rows: S_-1, S_0, then A0..A3 as points
    outcomes: tuple[PairOutcome, ...]


def _inclusion_objects(objects, inclusion):
    """Target and generators, in object order, of the kernel inclusion (target, excluded)."""
    target, excluded = inclusion
    return objects[target], [o for i, o in enumerate(objects) if i != target and i not in excluded]


def example_4_1(side: float = 1.0, r: float = 0.1) -> Example41Report:
    """Two equal spheres on the trisection points of the mid-edge axis.

    Every one of the 8 inclusions (choice of the vertex left out and of which
    sphere generates) is refuted by a negative-slack direction, and the
    outcomes that leave out vertex 3 additionally carry an exact 2D projection
    certificate in the plane through A2, A3 and the axis endpoint B, taken
    on the target and generators of the kernel's own inclusion.  The
    spheres must clear every face by EPS_DECISION * side.  A side and
    radius whose construction overflows or underflows raise
    ConstructionFailed; a side or radius that is not finite and > 0 raises
    ValueError.
    """
    v = tetrahedron_from_cube(side)
    _require_positive("r", r)
    try:
        b, _, p_m1, p_0 = axis_points(*v)
        planes = _face_planes(v)
        face_d = (tuple(_face_distances(planes, p_m1)), tuple(_face_distances(planes, p_0)))
        for dists in face_d:
            if min(dists) < r + EPS_DECISION * side:
                raise PreconditionRadius(
                    f"radius {r} does not fit strictly inside (min face distance {min(dists):.6g})"
                )
        plane = plane_through(b, v[2], v[3])
    except ValueError as exc:
        raise ConstructionFailed(f"the construction leaves the float range ({exc})") from exc
    spheres = ((*p_m1, r), (*p_0, r))
    # objects: S_-1, S_0, A0..A3; k = 0 keeps S_0 as generator, so S_-1 is the target
    pairs = [(j, k) for j in range(4) for k in (-1, 0)]
    objects = (*spheres, *[(*a, 0.0) for a in v])
    inclusions = [(0 if k == 0 else 1, (2 + j,)) for j, k in pairs]
    outcomes = []
    for (j, k), inc, res in zip(pairs, inclusions, spheres_in_hull3(objects, inclusions)):
        cert = None
        if j == 3:
            cert = _projection_certificate(*_inclusion_objects(objects, inc), plane)
        outcomes.append(PairOutcome(j, k, inc, res, cert))
    return Example41Report(
        side=side,
        r=r,
        vertices=v,
        spheres=spheres,
        face_distances=face_d,
        objects=objects,
        outcomes=tuple(outcomes),
    )


@dataclass(frozen=True)
class Example42Report(_Outcomes):
    """Chain of spheres tangent to a common guide arc inside the tetrahedron."""

    t: int
    arc_radius_factor: float
    side: float
    vertices: tuple[Vec3, Vec3, Vec3, Vec3]
    arc_center: Vec3
    arc_radius: float
    sphere_indices: tuple[int, ...]  # -1, 0, 1, ..., t-2
    spheres: tuple[Vec4, ...]
    tangency_residuals: tuple[float, ...]
    interior_margins: tuple[float, ...]
    objects: tuple[Vec4, ...]  # the kernel's rows: the spheres, then A0..A3 as points
    outcomes: tuple[PairOutcome, ...]


def example_4_2(
    t: int,
    arc_radius_factor: float = 10.0,
    side: float = 1.0,
    r: float = 0.1,
) -> Example42Report:
    """Extend the two-sphere axis arrangement to t spheres on the axis.

    The interior centers divide the segment between the two original centers
    equidistantly.  A guide-arc center sits on the in-plane perpendicular of
    the axis at its midpoint, at height arc_radius_factor times the axis
    length; the arc is pinned tangent to the two end circles and every
    interior radius is chosen tangent to the same arc.  If any sphere would
    poke out of the tetrahedron, all radii shrink by a common offset (which
    preserves the tangencies, against a concentric arc) until every sphere
    is strictly inside; failing that raises ConstructionFailed, as does a
    construction that overflows or underflows.  A side, radius or arc
    radius factor that is not finite and > 0 raises ValueError.
    """
    if not is_integer(t) or t < 3:
        raise ValueError(f"need an integer t >= 3, got {t!r}")
    t = int(t)  # a numpy integer reports as an int
    v = tetrahedron_from_cube(side)
    _require_positive("r", r)
    _require_positive("arc_radius_factor", arc_radius_factor)
    try:
        b, c, p_m1, p_0 = axis_points(*v)
        bc = _sub3(c, b)
        axis = _unit3(bc)
        length = _norm3(bc)
        mid = _scale3(_add3(b, c), 0.5)
        # in-plane unit normal of the axis within the plane through A2, A3, B
        a2_rel = _sub3(v[2], mid)
        n = _unit3(_sub3(a2_rel, _scale3(axis, _dot3(a2_rel, axis))))

        height = arc_radius_factor * length
        center_o = _add3(mid, _scale3(n, height))

        indices = tuple([-1, 0] + list(range(1, t - 1)))
        step = _sub3(p_m1, p_0)
        centers = [p_m1, p_0] + [_add3(p_0, _scale3(step, i / (t - 1))) for i in range(1, t - 1)]

        dist_end = _norm3(_sub3(center_o, p_0))
        dists = [_norm3(_sub3(center_o, ci)) for ci in centers]
        bulges = [dist_end - d for d in dists]

        # largest base radius keeping every sphere inside by EPS_DECISION * side
        planes = _face_planes(v)
        d_mins = [min(_face_distances(planes, ci)) for ci in centers]
        margin_room = [d - EPS_DECISION * side - bulge for d, bulge in zip(d_mins, bulges)]
        base_r = min(r, min(margin_room))
        if base_r <= 0.0:
            raise ConstructionFailed(
                "no positive radius keeps every sphere strictly inside the tetrahedron"
            )
        arc_radius = dist_end + base_r
        radii = [base_r + bulge for bulge in bulges]
        spheres = tuple((*ci, _finite_radius(ri)) for ci, ri in zip(centers, radii))
    except ValueError as exc:
        raise ConstructionFailed(f"the construction leaves the float range ({exc})") from exc

    residuals = tuple(abs(d + ri - arc_radius) for d, ri in zip(dists, radii))
    margins = tuple(d - ri for d, ri in zip(d_mins, radii))

    # objects: the spheres in index order, then A0..A3; inclusion (j, k)
    # drops the target and vertex j
    pairs = [(j, pos) for j in range(4) for pos in range(t)]
    objects = (*spheres, *[(*a, 0.0) for a in v])
    inclusions = [(pos, (t + j,)) for j, pos in pairs]
    results = zip(pairs, inclusions, spheres_in_hull3(objects, inclusions))
    outcomes = tuple(PairOutcome(j, indices[pos], inc, res) for (j, pos), inc, res in results)

    return Example42Report(
        t=t,
        arc_radius_factor=arc_radius_factor,
        side=side,
        vertices=v,
        arc_center=center_o,
        arc_radius=arc_radius,
        sphere_indices=indices,
        spheres=spheres,
        tangency_residuals=residuals,
        interior_margins=margins,
        objects=objects,
        outcomes=outcomes,
    )
