"""Dense direction grid that tests probe the 3D slack envelope with."""

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=8)
def icosphere_directions(level: int) -> np.ndarray:
    """Unit vertices of a subdivided icosahedron; 10*4**level + 2 directions."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    pts = np.array(verts, dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    tris = np.array(faces, dtype=int)
    for _ in range(level):
        cache: dict[tuple[int, int], int] = {}
        pts_list = [tuple(p) for p in pts]

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key in cache:
                return cache[key]
            m = np.array(pts_list[i]) + np.array(pts_list[j])
            m /= np.linalg.norm(m)
            pts_list.append(tuple(m))
            cache[key] = len(pts_list) - 1
            return cache[key]

        new_tris = []
        for i, j, k in tris:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_tris.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        pts = np.array(pts_list, dtype=float)
        tris = np.array(new_tris, dtype=int)
    out = pts.copy()
    out.setflags(write=False)
    return out


def probe_slack(target, gens, level: int) -> float:
    """Least support slack over the level-`level` icosphere directions, on (x, y, z, r) spheres."""
    probe = icosphere_directions(level)
    gens = np.array(gens, dtype=float)
    mat = gens[:, :3] - np.array(target[:3], dtype=float)
    return float((probe @ mat.T + gens[:, 3]).max(axis=1).min()) - target[3]
