"""Simultaneous multi-plane RANSAC under inter-plane angle constraints.

One plane hypothesis per point group is drawn, the whole set is accepted
only if every pairwise angle, between normals turned toward each group's
reference direction, matches the model, and inliers are then grown point
by point.  Each group's candidates are tried in a drawn order; a
candidate is accepted iff the refit of the accepted set plus the
candidate still meets every constraint pair of its group, and a refit
that breaks one, or is degenerate, is reverted.  The stored plane is the
exact total-least-squares refit of the accepted set.  The trials
themselves are judged a window at a time from running moments of the
accepted set, with one batched eigensolve per window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DegenerateInput,
    PlaneModel,
    PointCloud,
    angle_deviation,
    angles,
    fit_plane_lsq,
    orient,
    pair_angles,
    sample_plane,
    scatter_normal,
    upper_pairs,
)
from .pcc import ConstraintMatrix, PccSolution


#: most growth candidates judged per batched eigensolve
GROWTH_WINDOW = 64


class NoSatisfyingFit(RuntimeError):
    """No hypothesis satisfied the angle constraints within tolerance."""


@dataclass(frozen=True)
class McRansacConfig:
    iterations: int = 50
    sample_size: int | None = None  # None: the pair-count rule of samples_per_plane
    constraint_tolerance_deg: float = 2.5
    min_eval_fraction: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.sample_size is not None and self.sample_size < 3:
            raise ValueError("sample_size must be >= 3")
        if not 0.0 < self.min_eval_fraction <= 1.0:
            raise ValueError("min_eval_fraction must be in (0, 1]")
        if not 0.0 < self.constraint_tolerance_deg < math.inf:
            raise ValueError("constraint_tolerance_deg must be finite and positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")

    def samples_per_plane(self, plane_count: int) -> int:
        """Points drawn per plane hypothesis: sample_size if given, else 3
        plus one per constraint pair, at most 8.  One loose plane violates
        every pair it is in, so the larger sample keeps the chance that a
        hypothesis set passes the check roughly level as pairs are added."""
        if self.sample_size is not None:
            return self.sample_size
        return min(3 + plane_count * (plane_count - 1) // 2, 8)


@dataclass(eq=False)
class MultiPlaneFit:
    """One plane per group, every pairwise constraint held."""

    planes: list[PlaneModel]
    total_inliers: int
    mean_residual: float
    iteration: int = -1


def restrict_constraints(model: ConstraintMatrix, solution: PccSolution) -> ConstraintMatrix:
    """Sub-matrix of the model over the mapped planes, in model-plane order.

    Row/column order matches the group order of solution_groups.
    """
    ids = [i for i, c in enumerate(solution.mapping) if c is not None]
    if not ids:
        raise ValueError("solution maps no model planes")
    sub = model.entries[np.ix_(ids, ids)]
    return ConstraintMatrix(sub, label=model.label)


def _references(reference_directions, count: int) -> np.ndarray:
    """The reference directions as a (count, 3) array of finite, non-zero rows."""
    refs = np.asarray(reference_directions, dtype=float)
    if refs.shape != (count, 3):
        raise DegenerateInput("need one reference direction per plane")
    largest = np.abs(refs).max(axis=1)  # NaN propagates; a zero row orients nothing
    if not ((largest > 0.0) & (largest < math.inf)).all():
        raise DegenerateInput("reference directions must be finite and non-zero")
    return refs


def constraint_deviations(planes, constraints: ConstraintMatrix,
                          reference_directions) -> np.ndarray:
    """|measured - model| angle of every plane pair i < j, in degrees.

    Each plane's normal is first turned toward its reference direction
    (e.g. its group's mean estimated normal).  Entries <= 90 are folded, so
    the orientation cannot change them; obtuse entries compare the raw
    angle between the oriented normals.
    """
    if len(planes) != constraints.size:
        raise ValueError("need exactly one plane per constraint row")
    normals = orient(np.array([p.normal for p in planes]),
                     _references(reference_directions, len(planes)))
    model = constraints.entries[upper_pairs(len(planes))]
    return angle_deviation(pair_angles(normals), model)


def check_constraints(
    planes,
    constraints: ConstraintMatrix,
    tolerance_deg: float,
    reference_directions,
) -> bool:
    """True iff every pairwise plane angle matches the model within tolerance."""
    devs = constraint_deviations(planes, constraints, reference_directions)
    return not np.count_nonzero(devs > tolerance_deg)


def hypothesize(groups, cloud: PointCloud, cfg: McRansacConfig, rng) -> list[PlaneModel]:
    """One plane per group from a sample of cfg.samples_per_plane points,
    drawn by sample_plane in group order from the stream rng."""
    size = cfg.samples_per_plane(len(groups))
    return [sample_plane(cloud.points, np.asarray(g, dtype=int), size, rng) for g in groups]


def _accepted_candidates(points, seed, candidates, others, model_row, reference,
                         tolerance_deg: float) -> np.ndarray:
    """The candidates, in trial order, that guarded growth keeps in one group.

    The accepted set's moments are held as one 4x4 sum of h h^T over its
    points in homogeneous form, h = (p - origin, 1), with the first seed
    point as origin: the count, sum and scatter in one array.  Cumulative
    sums then give every "set + next candidate" trial of a window, and one
    batched scatter_normal fits them all.  A trial passes when its points
    span a plane (fit_plane_lsq's test) and its normal, oriented as
    check_constraints sees the exact refit (toward the group's reference),
    meets the other planes' oriented normals within tolerance.  The
    window's prefix before its first failure is kept, the failure is
    reverted, and the next window starts after it, twice as long as the
    prefix just kept plus one, up to GROWTH_WINDOW.
    """
    origin = points[seed[0]]

    def homogeneous(idx):
        h = np.ones((idx.shape[0], 4))
        np.subtract(points[idx], origin, out=h[:, :3])
        return h

    h = homogeneous(seed)
    moments = h.T @ h
    kept = []
    start, size = 0, GROWTH_WINDOW
    while start < candidates.shape[0]:
        window = candidates[start:start + size]
        h = homogeneous(window)
        trials = moments + np.cumsum(h[:, :, None] * h[:, None, :], axis=0)
        total = trials[:, :3, 3]
        normals, planar = scatter_normal(
            trials[:, :3, :3] - total[:, :, None] * total[:, None, :] / trials[:, 3, 3, None, None])
        normals = orient(normals, reference)
        devs = angle_deviation(angles(normals[:, None], others[None]), model_row)
        failed = np.flatnonzero(~planar | (devs > tolerance_deg).any(axis=1))
        taken = failed[0] if failed.size else window.shape[0]
        if taken:
            kept.append(window[:taken])
            moments = trials[taken - 1]
        start += taken + (failed.size > 0)
        # trials after a failure are wasted, so dense reverts get short windows
        size = min(GROWTH_WINDOW, 2 * (taken + 1))
    return np.concatenate(kept) if kept else candidates[:0]


def grow_inliers(
    planes,
    groups,
    cloud: PointCloud,
    constraints: ConstraintMatrix,
    cfg: McRansacConfig,
    rng,
    reference_directions,
) -> MultiPlaneFit:
    """Grow each group's inlier set point by point under the constraints.

    The planes must satisfy the constraints, as every hypothesis
    run_mcransac grows does.  For each group in turn, a seeded random
    subset of ceil(min_eval_fraction * |group|) non-sample points is tried
    in the drawn order: the candidate is accepted iff the refit of the
    accepted set plus the candidate meets every constraint pair that
    involves this group (no other pair changes); a degenerate refit is
    reverted like a violation.  The group's stored plane is the exact
    fit_plane_lsq refit of its seed inliers followed by the accepted
    candidates in trial order.  The candidates are the group's points
    outside the seed sample, kept in group order; that order, and the
    permutation drawn over it, is part of the output contract, since the
    accepted sets depend on it.  Trials are judged in windows of at most
    GROWTH_WINDOW from running moments, which only decide acceptance.
    """
    planes = list(planes)
    points = cloud.points
    n = len(planes)
    refs = _references(reference_directions, n)
    outside = np.ones(points.shape[0], dtype=bool)  # False on the current seed
    for gi, g in enumerate(groups):
        g = np.asarray(g, dtype=int)
        seed = planes[gi].inliers
        outside[seed] = False
        rest = g[outside[g]]
        outside[seed] = True
        n_eval = min(rest.shape[0], math.ceil(cfg.min_eval_fraction * g.shape[0]))
        order = rng.permutation(rest.shape[0])[:n_eval]
        others = [j for j in range(n) if j != gi]
        normals = orient(np.array([p.normal for p in planes]), refs)
        accepted = _accepted_candidates(points, seed, rest[order], normals[others],
                                        constraints.entries[gi, others], refs[gi],
                                        cfg.constraint_tolerance_deg)
        if accepted.shape[0]:
            final = np.concatenate([seed, accepted])
            planes[gi] = fit_plane_lsq(points[final], final)
    total = sum(p.inliers.shape[0] for p in planes)
    residuals = np.concatenate([p.distances(points[p.inliers]) for p in planes])
    return MultiPlaneFit(planes, total, float(residuals.mean()))


def run_mcransac(
    groups,
    cloud: PointCloud,
    constraints: ConstraintMatrix,
    cfg: McRansacConfig = McRansacConfig(),
    *,
    reference_directions,
) -> MultiPlaneFit:
    """Hypothesize/check/grow loop keeping the best satisfying fit.

    reference_directions holds one direction per group (e.g. the mapped
    clusters' mean normals); every check orients each plane toward its
    group's.  The winner maximizes total inliers, breaking ties on lower
    mean orthogonal residual and then on the earlier iteration.  Raises
    NoSatisfyingFit when no hypothesis set meets the constraints.
    """
    groups = [np.asarray(g, dtype=int) for g in groups]
    if len(groups) != constraints.size:
        raise ValueError("need exactly one group per constraint row")
    refs = _references(reference_directions, len(groups))
    size = cfg.samples_per_plane(len(groups))
    # a child per iteration as it starts, so no iteration count is held as a
    # list of children; they equal SeedSequence.spawn(cfg.iterations), in order
    seq = np.random.SeedSequence(cfg.rng_seed)
    best: MultiPlaneFit | None = None
    best_key = None
    for it in range(cfg.iterations):
        rng = np.random.default_rng(seq.spawn(1)[0])
        try:
            hyp = hypothesize(groups, cloud, cfg, rng=rng)
        except DegenerateInput:
            if any(g.shape[0] < size for g in groups):
                raise
            continue
        if not check_constraints(hyp, constraints, cfg.constraint_tolerance_deg, refs):
            continue
        fit = grow_inliers(hyp, groups, cloud, constraints, cfg, rng=rng,
                           reference_directions=refs)
        fit.iteration = it
        key = (fit.total_inliers, -fit.mean_residual)
        if best is None or key > best_key:
            best, best_key = fit, key
    if best is None:
        raise NoSatisfyingFit(
            f"no hypothesis satisfied the constraints in {cfg.iterations} iterations")
    return best
