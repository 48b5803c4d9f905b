"""Unconstrained RANSAC baselines: per-cluster and iterative extraction."""

from __future__ import annotations

import math

import numpy as np

from .geometry import DegenerateInput, PlaneModel, PointCloud, fit_plane_lsq
from .mcransac import McRansacConfig, RESAMPLE_ATTEMPTS

#: default inlier distance threshold in scene units
DEFAULT_DISTANCE_THRESHOLD = 1e-3


def _ransac_single(
    point_indices: np.ndarray,
    cloud: PointCloud,
    cfg: McRansacConfig,
    rng: np.random.Generator,
    distance_threshold: float,
) -> PlaneModel:
    """Plain RANSAC over one index set: best minimal-sample model by inlier
    count, then a total-least-squares refit on its inliers."""
    idx = np.asarray(point_indices, dtype=int)
    if idx.shape[0] < cfg.sample_size:
        raise DegenerateInput(f"{idx.shape[0]} points cannot seed a sample of {cfg.sample_size}")
    pts = cloud.points[idx]
    best_count = -1
    best_inliers = None
    for _ in range(cfg.iterations):
        plane = None
        for _ in range(RESAMPLE_ATTEMPTS):
            pick = np.sort(rng.choice(idx.shape[0], size=cfg.sample_size, replace=False))
            try:
                plane = fit_plane_lsq(pts[pick], indices=idx[pick])
                break
            except DegenerateInput:
                continue
        if plane is None:
            continue
        mask = plane.distances(pts) <= distance_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_inliers = idx[mask]
    if best_inliers is None or best_inliers.shape[0] < 3:
        raise DegenerateInput("no usable RANSAC hypothesis found")
    return fit_plane_lsq(cloud.points[best_inliers], indices=best_inliers)


def clustered_ransac(
    groups,
    cloud: PointCloud,
    cfg: McRansacConfig | None = None,
    distance_threshold: float | None = None,
) -> list[PlaneModel]:
    """Independent RANSAC per pre-clustered group; no constraints involved."""
    if cfg is None:
        cfg = McRansacConfig()
    thr = DEFAULT_DISTANCE_THRESHOLD if distance_threshold is None else distance_threshold
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(groups))
    return [
        _ransac_single(g, cloud, cfg, np.random.default_rng(seeds[gi]), thr)
        for gi, g in enumerate(groups)
    ]


def iterative_ransac(
    cloud: PointCloud,
    cfg: McRansacConfig | None = None,
    distance_threshold: float | None = None,
    min_inlier_fraction: float = 0.05,
) -> list[PlaneModel]:
    """Greedy sequential extraction: fit the dominant plane, remove its
    inliers, repeat until a plane explains too little of the cloud."""
    if cfg is None:
        cfg = McRansacConfig()
    thr = DEFAULT_DISTANCE_THRESHOLD if distance_threshold is None else distance_threshold
    n = len(cloud)
    min_count = max(math.ceil(min_inlier_fraction * n), cfg.sample_size)
    seq = np.random.SeedSequence(cfg.rng_seed)
    remaining = np.arange(n)
    planes: list[PlaneModel] = []
    while remaining.shape[0] >= max(cfg.sample_size, 3):
        rng = np.random.default_rng(seq.spawn(1)[0])
        try:
            plane = _ransac_single(remaining, cloud, cfg, rng, thr)
        except DegenerateInput:
            break
        if plane.inliers.shape[0] < min_count:
            break
        planes.append(plane)
        remaining = np.setdiff1d(remaining, plane.inliers, assume_unique=True)
    return planes
