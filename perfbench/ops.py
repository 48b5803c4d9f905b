"""The timed operation, its traced rebuild, and the checks on its outputs.

An op is one fit (normals, clustering, assignment, constrained RANSAC) or,
on the assignment workload, one assignment (normals and clustering).  The
untraced op calls the library's ``run_pcc`` and ``run_mcransac``.  The
traced op rebuilds both from their public sub-functions, with the same
seeds, and records a span around every call; ``fingerprint`` lets the
caller confirm that both produce the same answer bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from mme.bench import constraint_error
from mme.geometry import DegenerateInput, PointCloud, angle_between, as_unit
from mme.mcransac import (
    MultiPlaneFit,
    NoSatisfyingFit,
    check_constraints,
    grow_inliers,
    hypothesize,
    restrict_constraints,
    run_mcransac,
)
from mme.normals import estimate_normals
from mme.pcc import (
    Clustering,
    ConstraintMatrix,
    NoSolution,
    PccConfig,
    PccSolution,
    choose_k,
    kmeans_cluster,
    merge_similar_clusters,
    normalize_features,
    object_matrix,
    run_pcc,
    similarity_reduction,
    solution_groups,
    tree_search,
)

from scenes import NORMALS, Scene, Workload, derive_seed, pcc_config, sample_size

@dataclass(eq=False)
class Outcome:
    status: str
    cloud: PointCloud | None = None  # with estimated normals
    solution: PccSolution | None = None
    clustering: Clustering | None = None
    sub: ConstraintMatrix | None = None  # fit only: the model over the mapped planes
    refs: np.ndarray | None = None
    tolerance_deg: float = 0.0
    fit: MultiPlaneFit | None = None


def run_op(scene: Scene, workload: Workload, tracer=None) -> Outcome:
    """One op on one scene; with a tracer, the rebuilt and spanned variant."""
    out = Outcome("degenerate")
    try:
        cfg = pcc_config(scene.method_seed)
        if tracer is None:
            out.cloud = estimate_normals(scene.cloud, NORMALS)
            out.solution, out.clustering = run_pcc(out.cloud, scene.model, cfg)
        else:
            out.cloud = tracer.call("normals.estimate_normals", estimate_normals,
                                    scene.cloud, NORMALS)
            out.solution, out.clustering = traced_pcc(out.cloud, scene.model, cfg, tracer)
        if workload.mcr is None:
            out.tolerance_deg = cfg.constraint_tolerance_deg
            out.status = "ok"
            return out
        out.sub = restrict_constraints(scene.model, out.solution)
        groups = solution_groups(out.solution, out.clustering)
        out.refs = np.array([as_unit(out.cloud.normals[g].mean(axis=0)) for g in groups])
        mcr = replace(workload.mcr, sample_size=sample_size(len(groups)),
                      rng_seed=derive_seed(scene.method_seed, "mcr"))
        out.tolerance_deg = mcr.constraint_tolerance_deg
        if tracer is None:
            out.fit = run_mcransac(groups, out.cloud, out.sub, mcr, reference_directions=out.refs)
        else:
            out.fit = traced_mcransac(groups, out.cloud, out.sub, mcr, out.refs, tracer)
        out.status = "ok"
    except NoSolution:
        out.status = "no_solution"
    except NoSatisfyingFit:
        out.status = "no_fit"
    except DegenerateInput:
        out.status = "degenerate"
    return out


def traced_pcc(cloud, model, cfg: PccConfig, tracer):
    """``run_pcc`` for a cloud with normals, rebuilt with a span per stage."""
    with tracer.span("pcc.run_pcc"):
        features = tracer.call("pcc.normalize_features", normalize_features, cloud)
        k = choose_k(model.size, cfg)
        usable = int(np.count_nonzero(cloud.normal_ok))
        if usable < 1:
            raise DegenerateInput("no points with usable normals")
        k = min(k, usable)
        clustering = tracer.call("pcc.kmeans_cluster", kmeans_cluster, features, k, cfg, cloud)
        merged = tracer.call("pcc.merge_similar_clusters", merge_similar_clusters,
                             clustering, cfg, cloud)
        observed = tracer.call("pcc.object_matrix", object_matrix, merged)
        candidates = tracer.call("pcc.similarity_reduction", similarity_reduction,
                                 model, observed, cfg)
        tracer.count("pcc.merges", len(clustering.clusters) - len(merged.clusters))
        tracer.count("pcc.candidates", sum(len(c) for c in candidates))
        sizes = [c.size for c in merged.clusters]
        solution = tracer.call("pcc.tree_search", tree_search, model, observed, candidates,
                               sizes, cfg)
        tracer.count("pcc.mapped_planes", sum(c is not None for c in solution.mapping))
    return solution, merged


def traced_mcransac(groups, cloud, constraints, cfg, refs, tracer) -> MultiPlaneFit:
    """``run_mcransac`` rebuilt from hypothesize, check_constraints and grow_inliers."""
    with tracer.span("mcransac.run_mcransac"):
        groups = [np.asarray(g, dtype=int) for g in groups]
        seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.iterations)
        best, best_key = None, None
        for it in range(cfg.iterations):
            rng = np.random.default_rng(seeds[it])
            tracer.count("mcransac.hypotheses")
            try:
                hyp = tracer.call("mcransac.hypothesize", hypothesize, groups, cloud, cfg, rng=rng)
            except DegenerateInput:
                tracer.count("mcransac.degenerate")
                if any(g.shape[0] < cfg.sample_size for g in groups):
                    raise
                continue
            if not tracer.call("mcransac.check_constraints", check_constraints, hyp,
                               constraints, cfg.constraint_tolerance_deg, refs):
                tracer.count("mcransac.rejected")
                continue
            fit = tracer.call("mcransac.grow_inliers", grow_inliers, hyp, groups, cloud,
                              constraints, cfg, rng=rng, reference_directions=refs)
            seeded = sum(p.inliers.shape[0] for p in hyp)
            tracer.count("mcransac.growth_tried", sum(
                min(g.shape[0] - p.inliers.shape[0], math.ceil(cfg.min_eval_fraction * g.shape[0]))
                for g, p in zip(groups, hyp)))
            tracer.count("mcransac.growth_accepted", fit.total_inliers - seeded)
            fit.iteration = it
            key = (fit.total_inliers, -fit.mean_residual)
            if best is None or key > best_key:
                best, best_key = fit, key
        if best is None:
            raise NoSatisfyingFit(f"no hypothesis satisfied the constraints in {cfg.iterations} iterations")
    return best


def mapped_count(out: Outcome) -> int:
    return 0 if out.solution is None else sum(c is not None for c in out.solution.mapping)


def fingerprint(out: Outcome) -> tuple:
    """Everything that must agree bit for bit between two runs of one op."""
    parts: list = [out.status]
    if out.solution is not None:
        parts += [out.solution.mapping, out.solution.total_points]
    if out.fit is not None:
        parts += [out.fit.total_inliers, out.fit.iteration, out.fit.mean_residual]
        parts += [(p.normal.tobytes(), p.offset, p.inliers.tobytes()) for p in out.fit.planes]
    return tuple(parts)


def _mapped_normals(out: Outcome) -> np.ndarray:
    """Mean normals of the mapped clusters, recomputed from their points."""
    return np.array([
        as_unit(out.cloud.normals[out.clustering.clusters[c].point_indices].mean(axis=0))
        for c in out.solution.mapping if c is not None
    ])


def _majority_labels(out: Outcome, scene: Scene) -> list[tuple[int, int]]:
    """(majority face id, points on it) per mapped cluster."""
    result = []
    for c in out.solution.mapping:
        if c is not None:
            counts = np.bincount(scene.cloud.labels[out.clustering.clusters[c].point_indices])
            result.append((int(counts.argmax()), int(counts.max())))
    return result


def check(out: Outcome, scene: Scene) -> list[str]:
    """Problems with an ok outcome; an empty list means it passed."""
    problems = []
    mapped = [c for c in out.solution.mapping if c is not None]
    sizes = [out.clustering.clusters[c].size for c in mapped]
    if len(set(mapped)) != len(mapped) or sum(sizes) != out.solution.total_points:
        problems.append("assignment is not a one-to-one map of its counted points")
    if out.fit is None:
        normals = _mapped_normals(out)
        ids = [i for i, c in enumerate(out.solution.mapping) if c is not None]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                dev = abs(angle_between(normals[a], normals[b]) - scene.model.entries[ids[a], ids[b]])
                if dev > out.tolerance_deg:
                    problems.append(f"mapped planes {ids[a]},{ids[b]} miss the model by {dev:.3f} deg")
        return problems
    if not check_constraints(out.fit.planes, out.sub, out.tolerance_deg, out.refs):
        problems.append("fit violates its constraints on re-check")
    if sum(p.inliers.shape[0] for p in out.fit.planes) != out.fit.total_inliers:
        problems.append("total_inliers does not match the planes' inlier sets")
    return problems


def quality(out: Outcome, scene: Scene) -> dict[str, float]:
    """Answer-quality figures of an ok outcome.

    For a fit they grade the fitted planes.  For an assignment they grade
    the mapped clusters' mean normals, and inlier_ratio counts the points of
    each mapped cluster that lie on its majority face.
    """
    n = len(scene.cloud)
    majority = _majority_labels(out, scene)
    gt = scene.face_normals[[face for face, _ in majority]]
    if out.fit is not None:
        normals = np.array([p.normal for p in out.fit.planes])
        gamma = constraint_error(out.fit.planes, out.sub, out.refs)[0]
        inliers = out.fit.total_inliers
    else:
        normals = _mapped_normals(out)
        planes = [SimpleNamespace(normal=v) for v in normals]
        gamma = constraint_error(planes, restrict_constraints(scene.model, out.solution), normals)[0]
        inliers = sum(on_face for _, on_face in majority)
    folded = [min(a, 180.0 - a) for a in (angle_between(v, g) for v, g in zip(normals, gt))]
    return {
        "gamma_deg": gamma,
        "orientation_error_deg": float(np.mean(folded)),
        "inlier_ratio": inliers / n,
        "assigned_point_ratio": out.solution.total_points / n,
    }
