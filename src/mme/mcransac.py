"""Simultaneous multi-plane RANSAC under inter-plane angle constraints.

One plane hypothesis per point group is drawn, the whole set is accepted
only if every pairwise angle matches the model, and inliers are then
grown point by point with a refit and a full constraint re-check after
each candidate — growth that breaks a constraint is reverted.
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
    fit_plane_lsq,
    oriented_normals,
    pair_angles,
    sample_plane,
    upper_pairs,
)
from .pcc import ConstraintMatrix, PccSolution


class NoSatisfyingFit(RuntimeError):
    """No hypothesis satisfied the angle constraints within tolerance."""


@dataclass(frozen=True)
class McRansacConfig:
    iterations: int = 50
    sample_size: int = 3
    constraint_tolerance_deg: float = 2.0
    min_eval_fraction: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.sample_size < 3:
            raise ValueError("sample_size must be >= 3")
        if not 0.0 < self.min_eval_fraction <= 1.0:
            raise ValueError("min_eval_fraction must be in (0, 1]")
        if not 0.0 < self.constraint_tolerance_deg < math.inf:
            raise ValueError("constraint_tolerance_deg must be finite and positive")


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


def constraint_deviations(planes, constraints: ConstraintMatrix,
                          reference_directions=None) -> np.ndarray:
    """|measured - model| angle of every plane pair i < j, in degrees.

    Entries <= 90 are compared orientation-free; obtuse entries compare the
    raw angle, so reference_directions (e.g. per-group mean normals) should
    be supplied to fix each plane's orientation when the model has any.
    """
    if len(planes) != constraints.size:
        raise ValueError("need exactly one plane per constraint row")
    normals = oriented_normals(np.array([p.normal for p in planes]), reference_directions)
    model = constraints.entries[upper_pairs(len(planes))]
    return angle_deviation(pair_angles(normals), model)


def check_constraints(
    planes,
    constraints: ConstraintMatrix,
    tolerance_deg: float,
    reference_directions=None,
) -> bool:
    """True iff every pairwise plane angle matches the model within tolerance."""
    devs = constraint_deviations(planes, constraints, reference_directions)
    return not np.count_nonzero(devs > tolerance_deg)


def hypothesize(groups, cloud: PointCloud, cfg: McRansacConfig, rng) -> list[PlaneModel]:
    """One minimal-sample plane per group, drawn by sample_plane in group
    order from the stream rng."""
    return [sample_plane(cloud.points, np.asarray(g, dtype=int), cfg.sample_size, rng)
            for g in groups]


def grow_inliers(
    planes,
    groups,
    cloud: PointCloud,
    constraints: ConstraintMatrix,
    cfg: McRansacConfig,
    rng,
    reference_directions=None,
) -> MultiPlaneFit:
    """Grow each group's inlier set point by point under the constraints.

    For each group a seeded random subset of ceil(min_eval_fraction *
    |group|) non-sample points is tried in turn: the candidate joins the
    inlier set, the plane is refit, and all pairwise constraints are
    re-checked across every group; a violation reverts the candidate.
    The candidates are the group's points outside the seed sample, kept in
    group order; that order, and the permutation drawn over it, is part of
    the output contract, since the accepted sets depend on it.
    """
    planes = list(planes)
    inliers = [list(map(int, p.inliers)) for p in planes]
    for gi, g in enumerate(groups):
        g = np.asarray(g, dtype=int)
        rest = g[~np.isin(g, inliers[gi])]
        n_eval = min(rest.shape[0], math.ceil(cfg.min_eval_fraction * g.shape[0]))
        order = rng.permutation(rest.shape[0])[:n_eval]
        for r in order:
            candidate = int(rest[r])
            trial_idx = inliers[gi] + [candidate]
            trial_plane = fit_plane_lsq(cloud.points[trial_idx], indices=trial_idx)
            trial_set = planes[:gi] + [trial_plane] + planes[gi + 1:]
            if check_constraints(trial_set, constraints, cfg.constraint_tolerance_deg,
                                 reference_directions):
                planes[gi] = trial_plane
                inliers[gi] = trial_idx
    total = sum(len(ix) for ix in inliers)
    residuals = np.concatenate([
        planes[gi].distances(cloud.points[ix]) for gi, ix in enumerate(inliers)
    ])
    return MultiPlaneFit(planes, total, float(residuals.mean()))


def run_mcransac(
    groups,
    cloud: PointCloud,
    constraints: ConstraintMatrix,
    cfg: McRansacConfig | None = None,
    reference_directions=None,
) -> MultiPlaneFit:
    """Hypothesize/check/grow loop keeping the best satisfying fit.

    The winner maximizes total inliers, breaking ties on lower mean
    orthogonal residual and then on the earlier iteration.  Raises
    NoSatisfyingFit when no hypothesis set meets the constraints.
    """
    if cfg is None:
        cfg = McRansacConfig()
    groups = [np.asarray(g, dtype=int) for g in groups]
    if len(groups) != constraints.size:
        raise ValueError("need exactly one group per constraint row")
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
            if any(g.shape[0] < cfg.sample_size for g in groups):
                raise
            continue
        if not check_constraints(hyp, constraints, cfg.constraint_tolerance_deg,
                                 reference_directions):
            continue
        fit = grow_inliers(hyp, groups, cloud, constraints, cfg, rng=rng,
                           reference_directions=reference_directions)
        fit.iteration = it
        key = (fit.total_inliers, -fit.mean_residual)
        if best is None or key > best_key:
            best, best_key = fit, key
    if best is None:
        raise NoSatisfyingFit(
            f"no hypothesis satisfied the constraints in {cfg.iterations} iterations"
        )
    return best
