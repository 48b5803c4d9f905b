"""Benchmark harness: run fitting methods over synthetic sweeps.

Each cell of the sweep (method, object, sigma, view, repeat) regenerates
its scene from a seed derived by hashing the cell key, so results are
independent of execution order and reproducible cell by cell.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import RansacConfig, clustered_ransac, iterative_ransac
from .geometry import (
    DegenerateInput,
    angle_between,
    angle_deviation,
    as_unit,
    oriented_normals,
    pair_angles,
    upper_pairs,
)
from .mcransac import (
    McRansacConfig,
    NoSatisfyingFit,
    check_constraints,
    constraint_deviations,
    restrict_constraints,
    run_mcransac,
)
from .normals import NormalEstimationConfig, estimate_normals
from .pcc import ConstraintMatrix, NoSolution, PccConfig, run_pcc, solution_groups
from .synth import NoiseSpec, generate_view, face_normals_in_view, get_object, turntable_view

logger = logging.getLogger(__name__)

METHODS = ("mme", "clustered", "iterative")

CSV_HEADER = "method,object,sigma,view,repeat,gamma,rho,plane_count,inlier_ratio,orientation_error,runtime_ms,status"
SUMMARY_HEADER = "method,object,sigma,cells,failures,mean_gamma,mean_rho,mean_orientation_error,mean_inlier_ratio"

#: sweep configuration for the constraint-checked method; tuned for the
#: synthetic scenes (their noise is large relative to the sampling pitch):
#: heavier normal smoothing keeps clusters face-pure, the tight assignment
#: tolerance rejects look-alike cluster permutations the fitting stage
#: could never satisfy, and the capped growth keeps cells fast
BENCH_NORMALS = NormalEstimationConfig(k_neighbors=15)
BENCH_PCC_TOLERANCE_DEG = 10.0
BENCH_KMEANS_RESTARTS = 4
BENCH_MCR = McRansacConfig(iterations=30, sample_size=3, min_eval_fraction=0.0025,
                           constraint_tolerance_deg=2.5)

#: minimal samples per plane grow with the number of active constraint
#: pairs, keeping the joint feasibility probability roughly level as the
#: constraint count rises (one loose plane violates every pair it is in)
BENCH_SAMPLE_BASE = 3
BENCH_SAMPLE_CAP = 8


def _bench_sample_size(plane_count: int) -> int:
    pairs = plane_count * (plane_count - 1) // 2
    return min(BENCH_SAMPLE_BASE + pairs, BENCH_SAMPLE_CAP)

#: sweep configuration for the unconstrained baselines
BENCH_BASELINE = RansacConfig(iterations=3, sample_size=3)

#: minimum cloud fraction a plane must explain to keep iterating
BENCH_ITERATIVE_MIN_FRACTION = 0.01

#: ground-truth faces smaller than this fraction of the cloud are not
#: handed to the clustered baseline (grazing slivers)
MIN_GROUP_FRACTION = 0.02


@dataclass(frozen=True)
class FitReport:
    gamma: float
    rho: float
    plane_count: int
    inlier_ratio: float
    orientation_error: float
    runtime_ms: float
    status: str


@dataclass(frozen=True)
class CellResult:
    method: str
    object: str
    sigma: float
    view: int
    repeat: int
    report: FitReport


def _mean_std(devs: np.ndarray) -> tuple[float, float]:
    """Mean and population std; no pairs (a single plane) is (0, 0)."""
    if not devs.size:
        return 0.0, 0.0
    return float(devs.mean()), float(devs.std())


def constraint_error_from_angles(measured_deg, model_deg) -> tuple[float, float]:
    """Mean and population std of |measured - model| over angle pairs,
    with the same folding convention as the constraint checks."""
    measured = np.asarray(measured_deg, dtype=float)
    model = np.asarray(model_deg, dtype=float)
    if measured.shape != model.shape:
        raise ValueError("need one model angle per measured angle")
    return _mean_std(angle_deviation(measured, model))


def constraint_error(planes, constraints: ConstraintMatrix, reference_directions=None) -> tuple[float, float]:
    """Mean/std angular deviation of a plane set from its constraint matrix."""
    return _mean_std(constraint_deviations(planes, constraints, reference_directions))


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fold(angle: float) -> float:
    return min(angle, 180.0 - angle)


def _failure(status: str, plane_count: int = 0) -> FitReport:
    return FitReport(float("nan"), float("nan"), plane_count, float("nan"),
                     float("nan"), 0.0, status)


def label_groups(cloud, sample_size: int):
    """Ground-truth label groups large enough to fit, ascending by label."""
    min_size = max(sample_size, int(np.ceil(MIN_GROUP_FRACTION * len(cloud))))
    labels = np.unique(cloud.labels)
    groups, kept = [], []
    for lab in labels:
        idx = np.flatnonzero(cloud.labels == lab)
        if idx.shape[0] >= min_size:
            groups.append(idx)
            kept.append(int(lab))
    return groups, kept


def _face_pair_angles(planes, gt, faces) -> tuple[np.ndarray, np.ndarray]:
    """Fitted and true dihedral angles over the plane pairs that cover
    different faces; ``faces[i]`` is the face index of plane i in gt."""
    faces = np.asarray(faces, dtype=int)
    normals = oriented_normals(np.array([p.normal for p in planes]), gt[faces])
    i, j = upper_pairs(len(planes))
    apart = faces[i] != faces[j]
    return pair_angles(normals)[apart], pair_angles(gt[faces])[apart]


def _orientation_error(planes, plane_gt_normals) -> float:
    devs = [
        _fold(angle_between(p.normal, gt))
        for p, gt in zip(planes, plane_gt_normals)
    ]
    return float(np.mean(devs))


class _PccStage:
    """Shared clustering front end for the group-based methods."""

    def __init__(self, cloud, obj, method_seed: int):
        self.cloud = estimate_normals(cloud, BENCH_NORMALS)
        solution, clustering = run_pcc(
            self.cloud, obj.model_matrix,
            PccConfig(constraint_tolerance_deg=BENCH_PCC_TOLERANCE_DEG,
                      kmeans_restarts=BENCH_KMEANS_RESTARTS,
                      rng_seed=method_seed))
        self.solution = solution
        self.groups = solution_groups(solution, clustering)
        self.sub = restrict_constraints(obj.model_matrix, solution)
        self.refs = np.array([
            as_unit(self.cloud.normals[g].mean(axis=0)) for g in self.groups
        ])
        self.majority = [
            int(np.bincount(cloud.labels[g]).argmax()) for g in self.groups
        ]


def _run_mme(cloud, obj, view, method_seed: int) -> FitReport:
    t0 = time.perf_counter()
    try:
        stage = _PccStage(cloud, obj, method_seed)
    except NoSolution:
        return _failure("no_solution")
    except DegenerateInput:
        return _failure("degenerate")
    cfg = replace(BENCH_MCR, sample_size=_bench_sample_size(len(stage.groups)),
                  rng_seed=_derive_seed(method_seed, "mcr"))
    try:
        fit = run_mcransac(stage.groups, stage.cloud, stage.sub, cfg,
                           reference_directions=stage.refs)
    except NoSatisfyingFit:
        return _failure("no_fit", plane_count=len(stage.groups))
    except DegenerateInput:
        return _failure("degenerate", plane_count=len(stage.groups))
    # independent re-check of the returned fit against its constraints
    if not check_constraints(fit.planes, stage.sub, cfg.constraint_tolerance_deg,
                             stage.refs):
        return _failure("constraint_violation", plane_count=len(stage.groups))
    gamma, rho = constraint_error(fit.planes, stage.sub, stage.refs)
    gt = face_normals_in_view(obj, view)
    orientation = _orientation_error(fit.planes, gt[stage.majority])
    runtime = (time.perf_counter() - t0) * 1e3
    ratio = fit.total_inliers / len(cloud)
    return FitReport(gamma, rho, len(stage.groups), ratio, orientation, runtime, "ok")


def _run_clustered(cloud, obj, view, method_seed: int) -> FitReport:
    """Same clustering as the constraint-checked method, but each group is
    fitted by plain RANSAC with no inter-plane coupling.

    The fit knows nothing about the model, so its angle error is judged
    against the true dihedrals of the faces each group actually covers;
    under a correct assignment those equal the model entries.
    """
    t0 = time.perf_counter()
    try:
        stage = _PccStage(cloud, obj, method_seed)
    except NoSolution:
        return _failure("no_solution")
    except DegenerateInput:
        return _failure("degenerate")
    cfg = replace(BENCH_BASELINE, rng_seed=_derive_seed(method_seed, "ransac"))
    try:
        planes = clustered_ransac(stage.groups, stage.cloud, cfg)
    except DegenerateInput:
        return _failure("degenerate", plane_count=len(stage.groups))
    gt = face_normals_in_view(obj, view)
    gamma, rho = constraint_error_from_angles(*_face_pair_angles(planes, gt, stage.majority))
    orientation = _orientation_error(planes, gt[stage.majority])
    runtime = (time.perf_counter() - t0) * 1e3
    ratio = sum(p.inliers.shape[0] for p in planes) / len(cloud)
    return FitReport(gamma, rho, len(planes), ratio, orientation, runtime, "ok")


def _run_iterative(cloud, obj, view, method_seed: int) -> FitReport:
    t0 = time.perf_counter()
    cfg = replace(BENCH_BASELINE, rng_seed=method_seed)
    planes = iterative_ransac(cloud, cfg, min_inlier_fraction=BENCH_ITERATIVE_MIN_FRACTION)
    if not planes:
        return _failure("degenerate")
    gt = face_normals_in_view(obj, view)
    matched = [int(np.argmin([_fold(angle_between(p.normal, g)) for g in gt])) for p in planes]
    orientation = _orientation_error(planes, gt[matched])
    measured, model = _face_pair_angles(planes, gt, matched)
    if measured.size:
        gamma, rho = constraint_error_from_angles(measured, model)
    else:
        gamma, rho = float("nan"), float("nan")
    runtime = (time.perf_counter() - t0) * 1e3
    ratio = sum(p.inliers.shape[0] for p in planes) / len(cloud)
    return FitReport(gamma, rho, len(planes), ratio, orientation, runtime, "ok")


_RUNNERS = {"mme": _run_mme, "clustered": _run_clustered, "iterative": _run_iterative}


def run_cell(method: str, object_name: str, sigma: float, view_index: int,
             repeat: int, seed: int) -> CellResult:
    """Run one sweep cell; scene seeds ignore the method so every method
    sees the identical scene for a given (object, sigma, view, repeat)."""
    if method not in _RUNNERS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    obj = get_object(object_name)
    view = turntable_view(obj, view_index)
    scene_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat)
    method_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat, method)
    cloud = generate_view(obj, view, noise=NoiseSpec(0.0, sigma), rng_seed=scene_seed)
    report = _RUNNERS[method](cloud, obj, view, method_seed)
    return CellResult(method, object_name, sigma, view_index, repeat, report)


def run_experiment(method: str, objects, sigmas, views: int, repeats: int,
                   seed: int) -> list[CellResult]:
    """Full sweep for one method; cells ordered (object, sigma, view, repeat)."""
    results = []
    for name in objects:
        for sigma in sigmas:
            for view_index in range(1, views + 1):
                for repeat in range(repeats):
                    results.append(run_cell(method, name, float(sigma), view_index, repeat, seed))
    return results


def _sort_key(r: CellResult):
    return (r.method, r.object, r.sigma, r.view, r.repeat)


def summarize(results) -> list[dict]:
    """Aggregate per (method, object, sigma): means over successful cells.

    Failed cells are counted and excluded from the angle means, so the
    aggregate is independent of cell execution order.
    """
    cells: dict[tuple, list[CellResult]] = {}
    for r in results:
        cells.setdefault((r.method, r.object, r.sigma), []).append(r)
    out = []
    for key in sorted(cells):
        group = cells[key]
        ok = [r.report for r in group if r.report.status == "ok"]
        def _mean(vals):
            vals = [v for v in vals if not np.isnan(v)]
            return float(np.mean(vals)) if vals else float("nan")
        out.append({
            "method": key[0],
            "object": key[1],
            "sigma": key[2],
            "cells": len(group),
            "failures": len(group) - len(ok),
            "mean_gamma": _mean([r.gamma for r in ok]),
            "mean_rho": _mean([r.rho for r in ok]),
            "mean_orientation_error": _mean([r.orientation_error for r in ok]),
            "mean_inlier_ratio": _mean([r.inlier_ratio for r in ok]),
        })
    return out


def _fmt(v: float) -> str:
    return "nan" if np.isnan(v) else f"{v:.6f}"


def results_csv(results, include_timing: bool = True) -> str:
    lines = [CSV_HEADER]
    for r in sorted(results, key=_sort_key):
        rep = r.report
        runtime = f"{rep.runtime_ms:.3f}" if include_timing else "0.000"
        lines.append(",".join([
            r.method, r.object, f"{r.sigma:.9g}", str(r.view), str(r.repeat),
            _fmt(rep.gamma), _fmt(rep.rho), str(rep.plane_count),
            _fmt(rep.inlier_ratio), _fmt(rep.orientation_error),
            runtime, rep.status,
        ]))
    return "\n".join(lines) + "\n"


def summary_csv(results) -> str:
    lines = [SUMMARY_HEADER]
    for row in summarize(results):
        lines.append(",".join([
            row["method"], row["object"], f"{row['sigma']:.9g}",
            str(row["cells"]), str(row["failures"]),
            _fmt(row["mean_gamma"]), _fmt(row["mean_rho"]),
            _fmt(row["mean_orientation_error"]), _fmt(row["mean_inlier_ratio"]),
        ]))
    return "\n".join(lines) + "\n"
