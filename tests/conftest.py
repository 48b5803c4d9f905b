"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mme.geometry import PlaneModel, PointCloud, as_unit


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def planar_cloud(rng, n=120, normal=(0.0, 0.0, 1.0), offset=0.0, jitter=0.0,
                 extent=1.0) -> np.ndarray:
    """Points scattered on (or near) one plane, as an (n, 3) array."""
    normal = as_unit(np.asarray(normal, dtype=float))
    seed = np.array([1.0, 0.0, 0.0])
    if abs(normal @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = as_unit(np.cross(normal, seed))
    e2 = np.cross(normal, e1)
    uv = rng.uniform(-extent, extent, size=(n, 2))
    pts = offset * normal + uv[:, :1] * e1 + uv[:, 1:] * e2
    if jitter > 0.0:
        pts = pts + rng.normal(0.0, jitter, size=(n, 1)) * normal
    return pts


def two_plane_cloud(rng, n_per=80, angle_deg=90.0, jitter=0.0):
    """Two planar patches meeting at a given dihedral angle.

    Returns (PointCloud with labels, [normal0, normal1]) where the normals
    are the exact patch normals.
    """
    n0 = np.array([0.0, 0.0, 1.0])
    rad = np.radians(angle_deg)
    n1 = np.array([np.sin(rad), 0.0, np.cos(rad)])
    p0 = planar_cloud(rng, n_per, n0, offset=0.0, jitter=jitter)
    p1 = planar_cloud(rng, n_per, n1, offset=0.5, jitter=jitter)
    cloud = PointCloud(
        np.vstack([p0, p1]),
        labels=np.repeat([0, 1], n_per),
    )
    return cloud, [n0, n1]


def own_normals(planes) -> np.ndarray:
    """The planes' own normals as reference directions: orient(n, n) is n,
    so the constraint checks compare the planes' raw angles."""
    return np.array([p.normal for p in planes])


def skewed_planes(a_deg: float, b_deg: float) -> list[PlaneModel]:
    """Planes through the origin with normals x, y and a third unit normal
    at a_deg to x and b_deg to y; their pair angles are 90, a_deg and b_deg."""
    ca, cb = np.cos(np.radians(a_deg)), np.cos(np.radians(b_deg))
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [ca, cb, np.sqrt(1.0 - ca**2 - cb**2)]])
    return [PlaneModel(n, 0.0, np.arange(3)) for n in normals]


def redraw_scene(rng):
    """A cloud whose index groups make minimal-sample draws redraw.

    Returns (cloud, groups): ``mixed`` is 27 collinear points plus 3 off
    the line on one plane, so about 7 in 10 triples are degenerate;
    ``planar`` is 60 points of another plane; ``line`` is 20 collinear
    points, on which every draw is degenerate.  The points are shuffled, so
    each group is an ascending but scattered index set.
    """
    mixed = np.vstack([np.outer(np.linspace(0.0, 1.0, 27), [1.0, 1.0, 0.0]),
                       np.c_[rng.uniform(-1.0, 1.0, size=(3, 2)), np.zeros(3)]])
    planar = planar_cloud(rng, 60, [1.0, 0.0, 0.0], offset=2.0)
    line = np.outer(np.linspace(0.0, 1.0, 20), [0.0, 1.0, 1.0]) + [3.0, 0.0, 0.0]
    parts = [mixed, planar, line]
    perm = rng.permutation(sum(len(p) for p in parts))
    points = np.empty((len(perm), 3))
    points[perm] = np.vstack(parts)
    bounds = np.cumsum([0] + [len(p) for p in parts])
    groups = {name: np.sort(perm[lo:hi])
              for name, lo, hi in zip(("mixed", "planar", "line"), bounds, bounds[1:])}
    return PointCloud(points), groups


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
