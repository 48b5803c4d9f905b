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
    angle_deviation,
    angles,
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
from .pcc import ConstraintMatrix, NoSolution, PccConfig, run_pcc
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

#: sweep configuration for the unconstrained baselines; with 3 hypotheses
#: per plane often none lies on one face, so `iterative` finds no plane over
#: the minimum fraction and reports `degenerate`, even at sigma = 0
BENCH_BASELINE = RansacConfig(iterations=3, sample_size=3)

#: minimum cloud fraction a plane must explain to keep iterating
BENCH_ITERATIVE_MIN_FRACTION = 0.01

#: ground-truth label groups smaller than this fraction of the cloud are
#: not fitted by `mme fit --method clustered` (grazing slivers); the
#: sweep's clustered baseline takes its groups from PCC instead
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


def label_groups(cloud, sample_size: int):
    """Ground-truth label groups large enough to fit, ascending by label."""
    min_size = max(sample_size, int(np.ceil(MIN_GROUP_FRACTION * len(cloud))))
    groups = [np.flatnonzero(cloud.labels == lab) for lab in np.unique(cloud.labels)]
    return [g for g in groups if g.shape[0] >= min_size]


def pcc_stage(cloud, model: ConstraintMatrix, normal_cfg: NormalEstimationConfig,
              pcc_cfg: PccConfig):
    """The clustering front end of the group-based fits.

    Estimates normals, runs PCC, and returns (the cloud with normals, the
    point groups of the mapped model planes, their reference directions,
    the model over those planes), all in model-plane order.  A group's
    reference direction is its cluster's stored mean normal.
    """
    cloud = estimate_normals(cloud, normal_cfg)
    solution, clustering = run_pcc(cloud, model, pcc_cfg)
    mapped = [clustering.clusters[c] for c in solution.mapping if c is not None]
    sub = restrict_constraints(model, solution)
    refs = np.array([c.mean_normal for c in mapped])
    return cloud, [c.point_indices for c in mapped], refs, sub


def _folded_angles(a, b) -> np.ndarray:
    """Angles between the unit vectors of a and b, folded onto [0, 90] so
    the sign of either cannot matter."""
    ang = angles(a, b)
    return np.minimum(ang, 180.0 - ang)


def _face_pair_angles(planes, gt, faces) -> tuple[np.ndarray, np.ndarray]:
    """Fitted and true dihedral angles over the plane pairs that cover
    different faces; ``faces[i]`` is the face index of plane i in gt."""
    faces = np.asarray(faces, dtype=int)
    normals = oriented_normals(np.array([p.normal for p in planes]), gt[faces])
    i, j = upper_pairs(len(planes))
    apart = faces[i] != faces[j]
    return pair_angles(normals)[apart], pair_angles(gt[faces])[apart]


def _majority_faces(cloud, groups) -> list[int]:
    return [int(np.bincount(cloud.labels[g]).argmax()) for g in groups]


class _ConstraintViolation(RuntimeError):
    """A returned fit failed the harness's own constraint re-check."""


#: failure status of each exception a cell may end in
_FAILURES = {NoSolution: "no_solution", NoSatisfyingFit: "no_fit",
             DegenerateInput: "degenerate", _ConstraintViolation: "constraint_violation"}

# The fitters below take the scene's cloud, the PCC stage (None for the
# iterative baseline, which clusters nothing), the true face normals of the
# view and the method seed.  Each returns (planes, the face index of each
# plane, (gamma, rho)) or raises one of the _FAILURES.


def _fit_mme(cloud, stage, gt, method_seed: int):
    cloud, groups, refs, sub = stage
    cfg = replace(BENCH_MCR, sample_size=_bench_sample_size(len(groups)),
                  rng_seed=_derive_seed(method_seed, "mcr"))
    planes = run_mcransac(groups, cloud, sub, cfg, reference_directions=refs).planes
    # independent re-check of the returned fit against its constraints
    if not check_constraints(planes, sub, cfg.constraint_tolerance_deg, refs):
        raise _ConstraintViolation
    return planes, _majority_faces(cloud, groups), constraint_error(planes, sub, refs)


def _fit_clustered(cloud, stage, gt, method_seed: int):
    """Same clustering as the constraint-checked method, but each group is
    fitted by plain RANSAC with no inter-plane coupling.

    The fit knows nothing about the model, so its angle error is judged
    against the true dihedrals of the faces each group actually covers;
    under a correct assignment those equal the model entries.
    """
    cloud, groups, _, _ = stage
    cfg = replace(BENCH_BASELINE, rng_seed=_derive_seed(method_seed, "ransac"))
    planes = clustered_ransac(groups, cloud, cfg)
    faces = _majority_faces(cloud, groups)
    return planes, faces, constraint_error_from_angles(*_face_pair_angles(planes, gt, faces))


def _fit_iterative(cloud, stage, gt, method_seed: int):
    """Each plane is judged against the face nearest to it up to sign."""
    cfg = replace(BENCH_BASELINE, rng_seed=method_seed)
    planes = iterative_ransac(cloud, cfg, min_inlier_fraction=BENCH_ITERATIVE_MIN_FRACTION)
    if not planes:
        raise DegenerateInput("no plane found")
    faces = _folded_angles(np.array([p.normal for p in planes])[:, None], gt).argmin(axis=1)
    measured, model = _face_pair_angles(planes, gt, faces)
    if not measured.size:
        return planes, faces, (float("nan"), float("nan"))
    return planes, faces, constraint_error_from_angles(measured, model)


_FITTERS = {"mme": _fit_mme, "clustered": _fit_clustered, "iterative": _fit_iterative}


def run_cell(method: str, object_name: str, sigma: float, view_index: int,
             repeat: int, seed: int) -> CellResult:
    """Run one sweep cell; scene seeds ignore the method so every method
    sees the identical scene for a given (object, sigma, view, repeat).

    A failed cell reports its status, the planes mapped before it failed,
    NaN metrics and zero runtime.
    """
    if method not in _FITTERS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    obj = get_object(object_name)
    view = turntable_view(obj, view_index)
    scene_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat)
    method_seed = _derive_seed(seed, object_name, f"{sigma:.9g}", view_index, repeat, method)
    cloud = generate_view(obj, view, noise=NoiseSpec(0.0, sigma), rng_seed=scene_seed)
    gt = face_normals_in_view(obj, view)
    t0 = time.perf_counter()
    stage = None
    try:
        if method != "iterative":
            stage = pcc_stage(cloud, obj.model_matrix, BENCH_NORMALS,
                              PccConfig(constraint_tolerance_deg=BENCH_PCC_TOLERANCE_DEG,
                                        kmeans_restarts=BENCH_KMEANS_RESTARTS,
                                        rng_seed=method_seed))
        planes, faces, (gamma, rho) = _FITTERS[method](cloud, stage, gt, method_seed)
    except tuple(_FAILURES) as exc:
        status = next(s for cls, s in _FAILURES.items() if isinstance(exc, cls))
        nan = float("nan")
        report = FitReport(nan, nan, 0 if stage is None else len(stage[1]), nan, nan, 0.0, status)
    else:
        normals = np.array([p.normal for p in planes])
        orientation = float(np.mean(_folded_angles(normals, gt[faces])))
        ratio = sum(p.inliers.shape[0] for p in planes) / len(cloud)
        runtime = (time.perf_counter() - t0) * 1e3
        report = FitReport(gamma, rho, len(planes), ratio, orientation, runtime, "ok")
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
