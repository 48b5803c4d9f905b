"""Benchmark harness: run fitting methods over synthetic sweeps.

Each cell of the sweep (method, object, sigma, view, repeat) regenerates
its scene from a seed derived by hashing the cell key, so results are
independent of execution order and reproducible cell by cell.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import RansacConfig, clustered_ransac, iterative_ransac
from .geometry import DegenerateInput, angles, fold, orient
from .mcransac import (
    McRansacConfig,
    NoSatisfyingFit,
    check_constraints,
    constraint_deviations,
    restrict_constraints,
    run_mcransac,
)
from .normals import estimate_normals
from .pcc import (Cluster, Clustering, ConstraintMatrix, NoSolution, PccConfig,
                  assign_clusters, run_pcc, solution_groups)
from .synth import NoiseSpec, generate_view, face_normals_in_view, get_object, turntable_view

METHODS = ("mme", "clustered", "iterative")

CSV_HEADER = "method,object,sigma,view,repeat,gamma,rho,plane_count,inlier_ratio,orientation_error,runtime_ms,status"
SUMMARY_HEADER = "method,object,sigma,cells,failures,mean_gamma,mean_rho,mean_orientation_error,mean_inlier_ratio"

#: the sweep's growth cap and iteration count for the constraint-checked
#: method; every other value is the library default.  perfbench/scenes.py
#: pins a copy of these, so full growth waits for a benchmark change
BENCH_MCR = McRansacConfig(iterations=30, min_eval_fraction=0.0025)

#: sweep configuration for the unconstrained baselines; with 3 hypotheses
#: per plane often none lies on one face, so `iterative` finds no plane over
#: the minimum fraction and reports `degenerate`, even at sigma = 0
BENCH_BASELINE = RansacConfig(iterations=3)

#: minimum cloud fraction a plane must explain to keep iterating
BENCH_ITERATIVE_MIN_FRACTION = 0.01


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


def constraint_error(planes, constraints: ConstraintMatrix, reference_directions) -> tuple[float, float]:
    """Mean/std angular deviation of a plane set from its constraint matrix."""
    return _mean_std(constraint_deviations(planes, constraints, reference_directions))


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class NoPlaneFound(DegenerateInput):
    """Iterative RANSAC found no plane that explains enough of the cloud."""


@dataclass(eq=False)
class MethodFit:
    """A method's mapped planes with their point groups, reference
    directions and model over the mapped planes, all in model-plane order.

    fit_method fills it in stage by stage, so after a failed fit it still
    holds the groups mapped before the failure.
    """

    planes: list = field(default_factory=list)
    groups: list = field(default_factory=list)
    reference_directions: np.ndarray | None = None
    model: ConstraintMatrix | None = None


def fit_method(method: str, cloud, model: ConstraintMatrix, cfg, pcc_cfg: PccConfig,
               fit: MethodFit | None = None, *,
               min_inlier_fraction: float = 0.05) -> MethodFit:
    """Fit one method's planes to a raw cloud and map them onto the model.

    `mme` and `clustered` estimate normals at the NormalEstimationConfig
    defaults and fit the groups that PCC maps, with run_mcransac or
    clustered_ransac under cfg.  `iterative` runs iterative_ransac until a
    plane holds less than min_inlier_fraction of the cloud, and makes each
    plane a cluster of its inliers, its normal turned toward the sensor at
    the origin as estimated normals are; assign_clusters then maps those
    clusters.  The reference directions are the mapped clusters' mean
    normals.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    fit = MethodFit() if fit is None else fit
    if method == "iterative":
        if len(cloud) < 3:
            raise DegenerateInput(f"{len(cloud)} points cannot seed a sample of 3")
        found = iterative_ransac(cloud, cfg, min_inlier_fraction=min_inlier_fraction)
        if not found:
            raise NoPlaneFound("no plane found")
        # -offset * normal points from the plane to the sensor at the origin
        clustering = Clustering([Cluster(p.inliers, orient(p.normal, -p.offset * p.normal))
                                 for p in found])
        solution = assign_clusters(clustering, model, pcc_cfg)
    else:
        cloud = estimate_normals(cloud)
        solution, clustering = run_pcc(cloud, model, pcc_cfg)
    mapped = [c for c in solution.mapping if c is not None]
    fit.groups = solution_groups(solution, clustering)
    fit.reference_directions = clustering.means[mapped]
    fit.model = restrict_constraints(model, solution)
    if method == "mme":
        fit.planes = run_mcransac(fit.groups, cloud, fit.model, cfg,
                                  reference_directions=fit.reference_directions).planes
    elif method == "clustered":
        fit.planes = clustered_ransac(fit.groups, cloud, cfg)
    else:
        fit.planes = [found[c] for c in mapped]
    return fit


class _ConstraintViolation(RuntimeError):
    """A returned fit failed the harness's own constraint re-check."""


#: failure status of each exception a cell may end in
_FAILURES = {NoSolution: "no_solution", NoSatisfyingFit: "no_fit",
             DegenerateInput: "degenerate", _ConstraintViolation: "constraint_violation"}


def run_cell(method: str, object_name: str, sigma: float, view_index: int,
             repeat: int, seed: int) -> CellResult:
    """Run one sweep cell; scene seeds ignore the method so every method
    sees the identical scene for a given (object, sigma, view, repeat).

    Every method's planes are mapped onto the model and scored as `mme fit`
    scores them: gamma and rho against the model rows they were mapped to,
    and orientation error against the majority true face of each plane's
    group (for the iterative baseline, its inlier set).  A failed cell
    reports its status, the planes mapped before it failed, NaN metrics
    and zero runtime.
    """
    obj = get_object(object_name)
    view = turntable_view(obj, view_index)
    scene_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat)
    method_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat, method)
    cloud = generate_view(obj, view, noise=NoiseSpec(0.0, sigma), rng_seed=scene_seed)
    gt = face_normals_in_view(obj, view)
    if method == "mme":
        cfg = replace(BENCH_MCR, rng_seed=_derive_seed(method_seed, "mcr"))
    elif method == "clustered":
        cfg = replace(BENCH_BASELINE, rng_seed=_derive_seed(method_seed, "ransac"))
    else:
        cfg = replace(BENCH_BASELINE, rng_seed=method_seed)
    t0 = time.perf_counter()
    fit = MethodFit()
    try:
        fit_method(method, cloud, obj.model_matrix, cfg, PccConfig(rng_seed=method_seed),
                   fit, min_inlier_fraction=BENCH_ITERATIVE_MIN_FRACTION)
        # independent re-check of the returned fit against its constraints
        if method == "mme" and not check_constraints(
                fit.planes, fit.model, cfg.constraint_tolerance_deg, fit.reference_directions):
            raise _ConstraintViolation
        gamma, rho = constraint_error(fit.planes, fit.model, fit.reference_directions)
    except tuple(_FAILURES) as exc:
        status = next(s for cls, s in _FAILURES.items() if isinstance(exc, cls))
        nan = float("nan")
        report = FitReport(nan, nan, len(fit.groups), nan, nan, 0.0, status)
    else:
        normals = np.array([p.normal for p in fit.planes])
        faces = [int(np.bincount(cloud.labels[g]).argmax()) for g in fit.groups]
        orientation = float(np.mean(fold(angles(normals, gt[faces]))))
        ratio = sum(p.inliers.shape[0] for p in fit.planes) / len(cloud)
        runtime = (time.perf_counter() - t0) * 1e3
        report = FitReport(gamma, rho, len(fit.planes), ratio, orientation, runtime, "ok")
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
