"""Unconstrained RANSAC baselines: per-cluster and iterative extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, PlaneModel, PointCloud, fit_plane_lsq, sample_plane


@dataclass(frozen=True)
class RansacConfig:
    """Plain RANSAC (Fischler & Bolles 1981) on minimal samples of 3
    points; distance_threshold is the inlier distance in scene units."""

    iterations: int = 50
    distance_threshold: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.distance_threshold < math.inf:
            raise ValueError("distance_threshold must be finite and positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


def _ransac_single(
    point_indices: np.ndarray,
    cloud: PointCloud,
    cfg: RansacConfig,
    rng: np.random.Generator,
) -> PlaneModel:
    """Plain RANSAC over one index set: best minimal-sample model by inlier
    count, then a total-least-squares refit on its inliers."""
    idx = np.asarray(point_indices, dtype=int)
    pts = cloud.points[idx]
    best_inliers = None
    for _ in range(cfg.iterations):
        try:
            plane = sample_plane(cloud.points, idx, 3, rng)
        except DegenerateInput:
            if idx.shape[0] < 3:
                raise
            continue
        inliers = idx[plane.distances(pts) <= cfg.distance_threshold]
        if best_inliers is None or inliers.shape[0] > best_inliers.shape[0]:
            best_inliers = inliers
    if best_inliers is None or best_inliers.shape[0] < 3:
        raise DegenerateInput("no usable RANSAC hypothesis found")
    return fit_plane_lsq(cloud.points[best_inliers], indices=best_inliers)


def clustered_ransac(groups, cloud: PointCloud,
                     cfg: RansacConfig = RansacConfig()) -> list[PlaneModel]:
    """Independent RANSAC per pre-clustered group; no constraints involved."""
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(groups))
    return [
        _ransac_single(g, cloud, cfg, np.random.default_rng(seeds[gi]))
        for gi, g in enumerate(groups)
    ]


def iterative_ransac(cloud: PointCloud, cfg: RansacConfig = RansacConfig(), *,
                     min_inlier_fraction: float) -> list[PlaneModel]:
    """Greedy sequential extraction: fit the dominant plane, remove its
    inliers, repeat until a plane explains less than min_inlier_fraction
    of the cloud."""
    n = len(cloud)
    min_count = max(math.ceil(min_inlier_fraction * n), 3)
    seq = np.random.SeedSequence(cfg.rng_seed)
    remaining = np.arange(n)
    planes: list[PlaneModel] = []
    while remaining.shape[0] >= 3:
        rng = np.random.default_rng(seq.spawn(1)[0])
        try:
            plane = _ransac_single(remaining, cloud, cfg, rng)
        except DegenerateInput:
            break
        if plane.inliers.shape[0] < min_count:
            break
        planes.append(plane)
        remaining = np.setdiff1d(remaining, plane.inliers, assume_unique=True)
    return planes
