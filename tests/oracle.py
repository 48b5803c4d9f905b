"""Brute-force reference implementations used to cross-check the library.

Kept free of any import from the package's search internals so the two
sides of an equivalence test cannot share a bug.  The RANSAC draw loops
share only the total-least-squares plane fit with the library.  The
guarded growth loop shares the plane fit and the constraint check: it
refits and re-checks every pair after each candidate.  The multi-plane
RANSAC loop reuses the library's hypothesize, check and grow steps: it
pins only how the loop seeds its iterations.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from mme import mcransac
from mme.geometry import DegenerateInput, fit_plane_lsq, pair_angles, upper_pairs

logger = logging.getLogger(__name__)


def enumerate_assignments(model_entries, observed_entries, candidates, sizes, tolerance):
    """Exhaustive counterpart of the backtracking cluster-to-plane search.

    Scans all (m+1)^n mappings of n model planes onto m clusters or None,
    keeping mappings that are one-to-one over the assigned clusters, respect
    the per-cluster candidate lists, and satisfy every pairwise angle entry
    within tolerance.  Returns (mapping, total) maximizing total points,
    breaking ties by the lexicographically smallest mapping with None
    ordered after every cluster id; returns None when no admissible mapping
    assigns any points.
    """
    a = np.asarray(model_entries, dtype=float)
    b = np.asarray(observed_entries, dtype=float)
    n = a.shape[0]
    m = b.shape[0]
    sizes = [int(s) for s in sizes]
    best = None
    best_key = None
    for raw in itertools.product(range(m + 1), repeat=n):
        mapping = tuple(None if j == m else j for j in raw)
        assigned = [(i, j) for i, j in enumerate(mapping) if j is not None]
        js = [j for _, j in assigned]
        if len(set(js)) != len(js):
            continue
        if any(i not in candidates[j] for i, j in assigned):
            continue
        ok = all(
            abs(b[j1, j2] - a[i1, i2]) <= tolerance
            for (i1, j1), (i2, j2) in itertools.combinations(assigned, 2)
        )
        if not ok:
            continue
        total = sum(sizes[j] for j in js)
        if total <= 0:
            continue
        key = (-total, tuple(m if j is None else j for j in mapping))
        if best_key is None or key < best_key:
            best = (mapping, total)
            best_key = key
    return best


def random_search_instance(rng):
    """A random small search problem: model/observed matrices, candidates,
    sizes, and a tolerance.  Angle scales are chosen so instances mix
    solvable and unsolvable cases."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 6))

    def symmetric(k):
        mat = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                mat[i, j] = mat[j, i] = rng.uniform(0.0, 180.0)
        return mat

    model = symmetric(n)
    observed = symmetric(m)
    candidates = []
    for _ in range(m):
        picks = rng.random(n) < 0.7
        if not picks.any():
            picks[int(rng.integers(n))] = True
        candidates.append([i for i in range(n) if picks[i]])
    sizes = [int(rng.integers(1, 500)) for _ in range(m)]
    tolerance = float(rng.uniform(1.0, 40.0))
    return model, observed, candidates, sizes, tolerance


def tie_heavy_search_instance(rng):
    """A small search problem on which many mappings reach the best total,
    so the enumeration order alone decides the answer: angles near 45, 90
    and 135 degrees, and cluster sizes from {1, 2, 3}."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 7))

    def symmetric(entries):
        upper = np.triu(entries, 1)
        return upper + upper.T

    model = symmetric(rng.choice([45.0, 90.0, 135.0], size=(n, n)))
    observed = symmetric(rng.choice([45.0, 90.0, 135.0], size=(m, m))
                         + rng.uniform(-3.0, 3.0, size=(m, m)))
    candidates = [[i for i in range(n) if rng.random() < 0.7] for _ in range(m)]
    sizes = [int(s) for s in rng.choice([1, 2, 3], size=m)]
    return model, observed, candidates, sizes, 2.0


def faceted_search_instance(rng):
    """A search problem shaped like a faceted pyramid's, with 7 to 9 model
    planes: the flanks' outward normals at 55 degrees elevation, spread
    evenly round the axis.  Each flank is seen as one cluster, split into
    two, or not seen at all; up to two stray clusters point anywhere; the
    clusters come in a random order, their normals a few degrees off, and
    their sizes from four values so that totals tie.  Returns the model
    and observed angle matrices and the cluster sizes."""
    n = int(rng.integers(7, 10))
    azimuth = 2.0 * np.pi * np.arange(n) / n
    elevation = np.radians(55.0)
    flanks = np.column_stack([np.cos(elevation) * np.cos(azimuth),
                              np.cos(elevation) * np.sin(azimuth),
                              np.full(n, np.sin(elevation))])
    seen = [v for v, copies in zip(flanks, rng.choice([0, 1, 1, 1, 2, 2], size=n))
            for _ in range(copies)]
    normals = np.array(seen + list(rng.normal(size=(int(rng.integers(0, 3)), 3))))
    normals = normals[rng.permutation(normals.shape[0])] + rng.normal(0.0, 0.03, normals.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    def angle_matrix(v):
        entries = np.zeros((v.shape[0], v.shape[0]))
        entries[upper_pairs(v.shape[0])] = pair_angles(v)
        return entries + entries.T

    sizes = [int(s) for s in rng.choice([40, 60, 60, 90], size=normals.shape[0])]
    return angle_matrix(flanks), angle_matrix(normals), sizes


def reference_tree_search(model_entries, observed_entries, candidates, sizes, tolerance):
    """The depth-first search that pcc.tree_search replaced, kept verbatim
    but for its signature: each node checks a cluster against every earlier
    level through the mapping, EMPTY levels included.  Returns (mapping,
    total) as enumerate_assignments does, or None when it finds no mapping."""
    n = len(model_entries)
    m = len(observed_entries)
    sizes = [int(s) for s in sizes]
    allowed = [[j for j in range(m) if i in candidates[j]] for i in range(n)]
    a = np.asarray(model_entries, dtype=float).tolist()
    b = np.asarray(observed_entries, dtype=float).tolist()
    tol = tolerance

    best_total = 0
    best_mapping = None
    mapping: list[int | None] = [None] * n
    used = [False] * m

    def admissible(i: int, j: int) -> bool:
        for k in range(i):
            l = mapping[k]
            if l is not None and abs(b[j][l] - a[i][k]) > tol:
                return False
        return True

    def dfs(level: int, total: int) -> None:
        nonlocal best_total, best_mapping
        if level == n:
            if total > best_total:
                best_total = total
                best_mapping = tuple(mapping)
            return
        for j in allowed[level]:
            if not used[j] and admissible(level, j):
                mapping[level] = j
                used[j] = True
                dfs(level + 1, total + sizes[j])
                used[j] = False
        mapping[level] = None
        dfs(level + 1, total)

    dfs(0, 0)
    return None if best_mapping is None else (best_mapping, best_total)


def broadcast_sqdist(a, b):
    """(N, k) squared distances through an (N, k, d) broadcast temporary."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _kmeans_pp_init(feats, k, rng):
    centers = np.empty((k, feats.shape[1]))
    first = int(rng.integers(feats.shape[0]))
    centers[0] = feats[first]
    d2 = ((feats - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = feats[int(rng.integers(feats.shape[0]))]
            continue
        pick = int(rng.choice(feats.shape[0], p=d2 / total))
        centers[j] = feats[pick]
        d2 = np.minimum(d2, ((feats - centers[j]) ** 2).sum(axis=1))
    return centers


def reference_lloyd(feats, k, rng, max_iter):
    """One k-means++ / Lloyd run with an (N, k, d) broadcast distance and a
    masked pass per cluster; returns (assignment, SSE, reseeded clusters)."""
    centers = _kmeans_pp_init(feats, k, rng)
    prev = None
    reseeds = 0
    assign = np.zeros(feats.shape[0], dtype=int)
    for _ in range(max_iter):
        d2 = broadcast_sqdist(feats, centers)
        assign = np.argmin(d2, axis=1)
        own = d2[np.arange(feats.shape[0]), assign]
        empty = [j for j in range(k) if not np.any(assign == j)]
        if empty:
            reseeds += len(empty)
            donors_used = set()
            order = np.argsort(-own)
            for j in empty:
                donor = next(int(i) for i in order if int(i) not in donors_used)
                donors_used.add(donor)
                centers[j] = feats[donor]
                assign[donor] = j
        elif prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
        for j in range(k):
            centers[j] = feats[assign == j].mean(axis=0)
    sse = float(broadcast_sqdist(feats, centers)[np.arange(feats.shape[0]), assign].sum())
    return assign, sse, reseeds


def remap_labels(labels):
    """Per-point labels renumbered 0.. in order of the distinct labels >= 0,
    built point by point; -1 stays -1."""
    ids = sorted(int(v) for v in np.unique(labels) if v >= 0)
    remap = {old: new for new, old in enumerate(ids)}
    return np.array([remap.get(int(v), -1) for v in labels], dtype=int)


def reference_kmeans(features, k, valid, rng_seed, restarts, max_iter):
    """Seeded k-means over the valid rows of features, restarts keeping the
    lowest SSE (earliest on ties).

    Returns (assignment over every row, -1 for invalid rows, renumbered as
    the clustering reports it; total empty-cluster reseeds over all runs).
    """
    vidx = np.flatnonzero(valid)
    feats = features[vidx]
    best_assign, best_sse, reseeds = None, math.inf, 0
    for seed in np.random.SeedSequence(rng_seed).spawn(restarts):
        assign, sse, r = reference_lloyd(feats, k, np.random.default_rng(seed), max_iter)
        reseeds += r
        if sse < best_sse:
            best_assign, best_sse = assign, sse
    full = np.full(features.shape[0], -1, dtype=int)
    full[vidx] = best_assign
    return remap_labels(full), reseeds


def angle_between(a, b) -> float:
    """The angle between two unit vectors in degrees, one np.dot at a time."""
    d = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.degrees(np.arccos(d)))


def _fold(angle: float) -> float:
    return min(angle, 180.0 - angle)


def orientation_error(normals, face_normals) -> float:
    """Mean folded angle between each fitted normal and its face's normal."""
    return float(np.mean([_fold(angle_between(n, g)) for n, g in zip(normals, face_normals)]))


def reference_merge(groups, means, normals, merge_angle_deg):
    """The seed's merge scan, one pair at a time: the first pair in row-major
    order whose mean normals are closer than the threshold merges, the
    union's mean normal is recomputed, and the scan restarts.  Returns the
    merged point-index groups in cluster order."""
    groups = [np.asarray(g) for g in groups]
    means = [np.asarray(m, dtype=float) for m in means]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if angle_between(means[i], means[j]) < merge_angle_deg:
                    groups[i] = np.sort(np.concatenate([groups[i], groups[j]]))
                    mean = normals[groups[i]].mean(axis=0)
                    means[i] = mean / float(np.linalg.norm(mean))
                    del groups[j], means[j]
                    changed = True
                    break
            if changed:
                break
    return groups


#: the draw loops' degenerate-sample redraw budget
RESAMPLE_ATTEMPTS = 10


def reference_hypothesize(groups, points, sample_size, rng):
    """The constrained fit's per-group draw as two hand-written loops: a draw
    of sample_size group members, sorted, redrawn while degenerate."""
    planes = []
    for g in groups:
        g = np.asarray(g, dtype=int)
        if g.shape[0] < sample_size:
            raise DegenerateInput(
                f"group of {g.shape[0]} points cannot seed a sample of {sample_size}"
            )
        for _ in range(RESAMPLE_ATTEMPTS):
            pick = np.sort(rng.choice(g, size=sample_size, replace=False))
            try:
                planes.append(fit_plane_lsq(points[pick], indices=pick))
                break
            except DegenerateInput:
                continue
        else:
            raise DegenerateInput("could not draw a non-degenerate sample")
    return planes


def reference_ransac_single(point_indices, points, iterations, sample_size,
                            distance_threshold, rng):
    """Plain RANSAC over one index set with its own draw loop: sorted
    positions into the index set, redrawn while degenerate, an iteration
    skipped when every redraw is; the best count wins, then a refit."""
    idx = np.asarray(point_indices, dtype=int)
    if idx.shape[0] < sample_size:
        raise DegenerateInput(f"{idx.shape[0]} points cannot seed a sample of {sample_size}")
    pts = points[idx]
    best_count = -1
    best_inliers = None
    for _ in range(iterations):
        plane = None
        for _ in range(RESAMPLE_ATTEMPTS):
            pick = np.sort(rng.choice(idx.shape[0], size=sample_size, replace=False))
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
    return fit_plane_lsq(points[best_inliers], indices=best_inliers)


def reference_clustered(groups, points, iterations, sample_size, distance_threshold, seed):
    """One reference RANSAC per group, each on its own spawned stream."""
    seeds = np.random.SeedSequence(seed).spawn(len(groups))
    return [
        reference_ransac_single(g, points, iterations, sample_size, distance_threshold,
                                np.random.default_rng(seeds[gi]))
        for gi, g in enumerate(groups)
    ]


def reference_iterative(points, iterations, sample_size, distance_threshold, seed,
                        min_inlier_fraction):
    """Greedy extraction with the reference RANSAC, one spawned stream per plane."""
    n = points.shape[0]
    min_count = max(math.ceil(min_inlier_fraction * n), sample_size)
    seq = np.random.SeedSequence(seed)
    remaining = np.arange(n)
    planes = []
    while remaining.shape[0] >= max(sample_size, 3):
        rng = np.random.default_rng(seq.spawn(1)[0])
        try:
            plane = reference_ransac_single(remaining, points, iterations, sample_size,
                                            distance_threshold, rng)
        except DegenerateInput:
            break
        if plane.inliers.shape[0] < min_count:
            break
        planes.append(plane)
        remaining = np.setdiff1d(remaining, plane.inliers, assume_unique=True)
    return planes


def reference_grow_inliers(planes, groups, cloud, constraints, cfg, rng,
                           reference_directions):
    """Guarded growth one candidate at a time: each drawn candidate joins its
    group's inliers, the plane is refit, and every pairwise constraint is
    re-checked; a violation or a degenerate refit reverts the candidate."""
    planes = list(planes)
    for gi, g in enumerate(groups):
        g = np.asarray(g, dtype=int)
        rest = g[~np.isin(g, planes[gi].inliers)]
        n_eval = min(rest.shape[0], math.ceil(cfg.min_eval_fraction * g.shape[0]))
        order = rng.permutation(rest.shape[0])[:n_eval]
        for r in order:
            trial_idx = np.append(planes[gi].inliers, rest[r])
            try:
                trial_plane = fit_plane_lsq(cloud.points[trial_idx], trial_idx)
            except DegenerateInput:
                continue
            trial_set = planes[:gi] + [trial_plane] + planes[gi + 1:]
            if mcransac.check_constraints(trial_set, constraints, cfg.constraint_tolerance_deg,
                                          reference_directions):
                planes[gi] = trial_plane
    total = sum(p.inliers.shape[0] for p in planes)
    residuals = np.concatenate([p.distances(cloud.points[p.inliers]) for p in planes])
    return mcransac.MultiPlaneFit(planes, total, float(residuals.mean()))


def reference_mcransac(groups, cloud, constraints, cfg, reference_directions):
    """run_mcransac's loop with every iteration's seed spawned before the
    first hypothesis."""
    groups = [np.asarray(g, dtype=int) for g in groups]
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.iterations)
    size = cfg.samples_per_plane(len(groups))
    best, best_key = None, None
    for it in range(cfg.iterations):
        rng = np.random.default_rng(seeds[it])
        try:
            hyp = mcransac.hypothesize(groups, cloud, cfg, rng=rng)
        except DegenerateInput:
            if any(g.shape[0] < size for g in groups):
                raise
            continue
        if not mcransac.check_constraints(hyp, constraints, cfg.constraint_tolerance_deg,
                                          reference_directions):
            continue
        fit = mcransac.grow_inliers(hyp, groups, cloud, constraints, cfg, rng=rng,
                                    reference_directions=reference_directions)
        fit.iteration = it
        key = (fit.total_inliers, -fit.mean_residual)
        if best is None or key > best_key:
            best, best_key = fit, key
    if best is None:
        raise mcransac.NoSatisfyingFit("no hypothesis satisfied the constraints")
    return best


def _row_without_diag(matrix, i: int) -> list[float]:
    row = matrix.entries[i]
    return [float(v) for j, v in enumerate(row) if j != i]


def _match_count(model_row: list[float], cluster_row: list[float], threshold: float) -> int:
    """One-to-one greedy pairing: how many model-row angles find a cluster-row
    angle within the threshold, each cluster angle consumed at most once."""
    used = [False] * len(cluster_row)
    count = 0
    for a in sorted(model_row):
        best = -1
        best_d = None
        for idx, b in enumerate(cluster_row):
            if used[idx]:
                continue
            d = abs(a - b)
            if best_d is None or d < best_d:
                best, best_d = idx, d
        if best >= 0 and best_d < threshold:
            used[best] = True
            count += 1
    return count


def reference_similarity_reduction(model, observed, cfg) -> list[list[int]]:
    """The per-row greedy loop the array pass of pcc.similarity_reduction
    replaced, kept verbatim: per cluster, the model planes whose angle rows
    match it best."""
    candidates: list[list[int]] = []
    for x in range(observed.size):
        crow = _row_without_diag(observed, x)
        counts = [
            _match_count(_row_without_diag(model, y), crow, cfg.similarity_threshold_deg)
            for y in range(model.size)
        ]
        best = max(counts)
        if best == 0:
            logger.info("cluster %d matches no model plane; keeping all candidates", x)
        candidates.append([y for y, c in enumerate(counts) if c == best])
    return candidates


def assignment(clustering, n: int) -> np.ndarray:
    """Per-point cluster index of a clustering over n points, -1 for an
    unclustered point."""
    out = np.full(n, -1, dtype=int)
    for ci, c in enumerate(clustering.clusters):
        out[c.point_indices] = ci
    return out


def dihedral_consistency(obj) -> float:
    """Largest |face angle - model entry| over an object's model faces, degrees."""
    measured = pair_angles([obj.faces[f].normal for f in obj.model_face_ids])
    model = obj.model_matrix.entries[upper_pairs(len(obj.model_face_ids))]
    return float(np.abs(measured - model).max(initial=0.0))
