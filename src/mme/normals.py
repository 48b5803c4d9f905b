"""Per-point normal estimation from k-nearest-neighbor plane fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, PointCloud, orient, scatter_normal


@dataclass(frozen=True)
class NormalEstimationConfig:
    """k_neighbors excludes the point itself; the fit uses k+1 points."""

    k_neighbors: int = 15

    def __post_init__(self):
        if self.k_neighbors < 3:
            raise ValueError("k_neighbors must be at least 3")


def estimate_normals(cloud: PointCloud,
                     cfg: NormalEstimationConfig = NormalEstimationConfig()) -> PointCloud:
    """Estimate a unit normal per point from its local neighborhood.

    Each point's neighborhood (itself plus its k nearest Euclidean
    neighbors) gets a total-least-squares plane; the plane normal, oriented
    toward the sensor, becomes the point normal.  The cloud must be in
    camera coordinates, as the synthetic generator writes it, so that the
    sensor sits at the origin.  Rank-deficient neighborhoods get a zero
    normal, which ``PointCloud.normal_ok`` reads as unusable, not an error.

    The k-NN query uses scipy's cKDTree.  scipy is imported on the first
    call, not with the package, so a process that never estimates normals
    never loads it.

    Returns a new PointCloud sharing the input points and labels.
    """
    pts = cloud.points
    n = pts.shape[0]
    if n < cfg.k_neighbors + 1:
        raise DegenerateInput(
            f"need at least {cfg.k_neighbors + 1} points, got {n}"
        )
    # deferred: scipy.spatial is most of the package's import time
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=cfg.k_neighbors + 1)

    # batched covariance of each neighborhood; a usable one spans a plane
    hoods = pts[idx]                                  # (n, k+1, 3)
    centered = hoods - hoods.mean(axis=1, keepdims=True)
    normals, ok = scatter_normal(np.einsum("nki,nkj->nij", centered, centered))
    norms = np.linalg.norm(normals, axis=1)
    ok &= norms > 1e-12
    safe = np.where(ok, norms, 1.0)
    normals = orient(normals / safe[:, None], -pts)  # toward the sensor at the origin
    normals[~ok] = 0.0

    return PointCloud(pts, normals=normals, labels=cloud.labels)
