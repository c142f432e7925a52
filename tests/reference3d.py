"""Per-inclusion 3D enumeration that tests check the set-level kernel against.

This is the kernel as it was before the candidate directions were shared:
every inclusion normalises its own offsets and enumerates its own face
minima, pair-circle minima and generator-triple vertices.  It is kept only
as a reference and runs one inclusion per call.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

_ZERO_NORM = 1e-15
_ZERO_CROSS2 = 1e-18


@functools.lru_cache(maxsize=64)
def _tuples(n: int, k: int) -> np.ndarray:
    out = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k).T
    out.setflags(write=False)
    return out


def _dot(a, b):
    return (a * b).sum(axis=1)


def _norm(a):
    return np.sqrt(_dot(a, a))


def _cross(a, b):
    return np.stack(
        [
            a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
        ],
        axis=1,
    )


def _face_minima(d):
    norm = _norm(d)
    keep = norm > _ZERO_NORM
    return -d[keep] / norm[keep, None]


def _pair_circle_minima(d, r):
    i, j = _tuples(len(r), 2)
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
    axis = np.eye(3)[np.argmin(np.abs(n), axis=1)]
    q = axis - _dot(axis, n)[:, None] * n
    q /= _norm(q)[:, None]
    step = np.where(flat[:, None], q, -p / np.where(flat, 1.0, pn)[:, None])
    return c0[:, None] * n + rho[:, None] * step


def _triple_vertices(d, r):
    i, j, k = _tuples(len(r), 3)
    n1 = d[i] - d[j]
    n2 = d[i] - d[k]
    c = _cross(n1, n2)
    cc = _dot(c, c)
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


@dataclass(frozen=True)
class Reference:
    """One inclusion as the reference decides it, in its normalised units."""

    contained: bool
    slack: float
    witness: tuple[float, float, float] | None
    scale: float  # the inclusion's largest length
    candidates: np.ndarray  # unit candidate directions, in enumeration order
    d: np.ndarray
    r: np.ndarray
    rt: float

    def slack_at(self, u) -> float:
        """The slack at direction u, evaluated as the reference evaluates it."""
        u = np.array([u], dtype=float)
        return float((u @ self.d.T + self.r).max() - self.rt) * self.scale


def reference(target, gens, eps_decision: float = 1e-6) -> Reference:
    """Decide one inclusion of an (x, y, z, r) target in the hull of (x, y, z, r) generators."""
    gens = np.array(gens, dtype=float)
    d = gens[:, :3] - np.array(target[:3], dtype=float)
    r = gens[:, 3]
    scale = max(float(_norm(d).max()), float(r.max()), target[3]) or 1.0
    d /= scale
    r /= scale
    rt = target[3] / scale
    cands = np.concatenate(
        [_face_minima(d), _pair_circle_minima(d, r), _triple_vertices(d, r), [(1.0, 0.0, 0.0)]]
    )
    cands /= _norm(cands)[:, None]
    envelope = (cands @ d.T + r).max(axis=1)
    best = int(np.argmin(envelope))
    unit_slack = float(envelope[best] - rt)
    contained = unit_slack >= -eps_decision
    witness = None if contained else tuple(float(c) for c in cands[best])
    return Reference(contained, unit_slack * scale, witness, scale, cands, d, r, rt)
