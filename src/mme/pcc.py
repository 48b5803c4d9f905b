"""Point-cloud clustering against a known inter-plane angle model.

The pipeline: joint position+normal k-means over-segments the cloud, near-
parallel clusters are merged, the cluster-vs-cluster angle matrix is
compared row-wise with the model matrix to prune candidate assignments,
and a backtracking search maps clusters onto model planes (possibly
leaving model planes empty) maximizing the number of points explained.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, PointCloud, as_unit, pair_angles, upper_pairs

logger = logging.getLogger(__name__)

#: a model plane left without a cluster in a PccSolution mapping
EMPTY = None

#: Lloyd passes a k-means run may take before it stops short of a fixpoint
KMEANS_MAX_ITER = 100


class NoSolution(RuntimeError):
    """No cluster-to-model-plane assignment satisfies the constraints."""


class BadEntry(ValueError):
    """A constraint matrix entry breaks a rule; ``row`` holds the first True
    of ``bad`` in row-major order, sought only once a rule has failed."""

    def __init__(self, message: str, bad):
        super().__init__(message)
        self.row = int(np.argwhere(bad)[0, 0])


@dataclass(eq=False)
class ConstraintMatrix:
    """Symmetric matrix of pairwise plane angles in degrees.

    Entry (i, j) is the angle between plane i and plane j; the diagonal is
    zero.  Entries <= 90 are compared orientation-free by consumers;
    obtuse entries assume consistently oriented (outward) normals.  The
    lower triangle, which may lag the upper by 1e-6, is set to its mirror,
    so every stage reads one angle per pair.
    """

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"constraint matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise BadEntry("constraint matrix entries must be finite", ~np.isfinite(m))
        if np.any(m < 0.0) or np.any(m > 180.0):
            raise BadEntry("constraint angles must lie in [0, 180] degrees", (m < 0.0) | (m > 180.0))
        if np.max(np.abs(m - m.T)) > 1e-6:
            bad = np.tril(np.abs(m - m.T) > 1e-6)  # the lower entry is the one read as a mirror
            i, j = np.argwhere(bad)[0]
            raise BadEntry(f"entry ({i + 1},{j + 1})={m[i, j]:g} does not mirror "
                           f"({j + 1},{i + 1})={m[j, i]:g}", bad)
        if np.max(np.abs(np.diag(m))) > 1e-9:
            raise BadEntry("constraint matrix diagonal must be zero", np.abs(np.diag(m)) > 1e-9)
        self.entries = np.where(np.tri(m.shape[0], k=-1, dtype=bool), m.T, m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def read_constraint_matrix(path) -> ConstraintMatrix:
    """Read a plain-text constraint matrix.

    Format: optional ``#`` comment lines, then the plane count n on its own
    line, then n whitespace-separated rows of n angles in degrees.
    Errors carry the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    rows: list[tuple[int, list[float]]] = []
    n = None
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if n is None:
            if len(fields) != 1:
                raise ValueError(f"{path}: line {lineno}: expected the plane count alone")
            try:
                n = int(fields[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: plane count must be an integer") from None
            if n < 1:
                raise ValueError(f"{path}: line {lineno}: plane count must be >= 1")
            continue
        if len(rows) == n:
            raise ValueError(f"{path}: line {lineno}: unexpected data after the {n} matrix rows")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed angle value") from None
        if len(values) != n:
            raise ValueError(f"{path}: line {lineno}: expected {n} angles, got {len(values)}")
        rows.append((lineno, values))
    if n is None:
        raise ValueError(f"{path}: line 1: empty constraint file")
    if len(rows) != n:
        raise ValueError(f"{path}: line {len(raw)}: expected {n} rows, got {len(rows)}")
    try:
        return ConstraintMatrix(np.array([r for _, r in rows], dtype=float))
    except BadEntry as err:
        raise ValueError(f"{path}: line {rows[err.row][0]}: {err}") from None


def write_constraint_matrix(path, matrix: ConstraintMatrix) -> None:
    """Write a constraint matrix in the plain-text format of read_constraint_matrix."""
    lines = [
        "# inter-plane angle constraints, degrees",
        "# entries <= 90 are compared orientation-free;",
        "# obtuse entries assume consistently oriented (outward) normals",
    ]
    lines.append(str(matrix.size))
    for row in matrix.entries:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PccConfig:
    cluster_surplus_fraction: float = 0.4
    merge_angle_deg: float = 10.0
    similarity_threshold_deg: float = 20.0
    constraint_tolerance_deg: float = 10.0
    kmeans_restarts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.cluster_surplus_fraction >= 0:
            raise ValueError("cluster_surplus_fraction must be >= 0")
        if not (self.merge_angle_deg >= 0 and self.similarity_threshold_deg > 0):
            raise ValueError("angle thresholds must be positive")
        if not 0.0 <= self.constraint_tolerance_deg < math.inf:
            raise ValueError("constraint_tolerance_deg must be finite and >= 0")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(eq=False)
class Cluster:
    """Ascending indices of the cluster's points, and their unit mean normal."""

    point_indices: np.ndarray
    mean_normal: np.ndarray

    @property
    def size(self) -> int:
        return self.point_indices.shape[0]


class Clustering:
    """Disjoint clusters over the points of one cloud.

    The clusters lie back to back in one index array: cluster i is
    ``indices[bounds[i]:bounds[i + 1]]`` and ``means[i]`` is its unit mean
    normal.  The pipeline's clusterings hold each cluster's indices in
    ascending order, as int32 whenever the cloud is small enough for that.
    ``Clustering(clusters)`` packs a list of Cluster as given, and
    ``clusters`` gives Cluster views into the arrays back.
    """

    __slots__ = ("indices", "bounds", "means")

    def __init__(self, clusters: list[Cluster]):
        self.indices = np.concatenate([c.point_indices for c in clusters])
        self.bounds = np.cumsum([0] + [c.size for c in clusters])
        self.means = np.array([c.mean_normal for c in clusters], dtype=float)

    @classmethod
    def packed(cls, indices: np.ndarray, bounds: np.ndarray, means: np.ndarray) -> Clustering:
        """A clustering over arrays already in this layout."""
        self = cls.__new__(cls)
        self.indices, self.bounds, self.means = indices, bounds, means
        return self

    @property
    def clusters(self) -> list[Cluster]:
        b = self.bounds.tolist()
        return [Cluster(self.indices[s:e], mean) for s, e, mean in zip(b, b[1:], self.means)]


@dataclass(frozen=True)
class PccSolution:
    """mapping[i] is the cluster id assigned to model plane i, or EMPTY."""

    mapping: tuple
    total_points: int


def normalize_features(cloud: PointCloud) -> np.ndarray:
    """Joint position+normal feature rows, one per point.

    Positions are min-max scaled per axis onto [-1, 1] so they weigh
    comparably with the unit normals; an axis with zero extent maps to 0.
    """
    if cloud.normals is None:
        raise DegenerateInput("cloud has no normals; estimate them first")
    pts = cloud.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(span > 0.0, 2.0 * (pts - lo) / np.where(span > 0, span, 1.0) - 1.0, 0.0)
    return np.hstack([scaled, cloud.normals])


def choose_k(max_visible_planes: int, cfg: PccConfig) -> int:
    """Cluster count: the model size plus a surplus fraction, rounded up."""
    n = int(max_visible_planes)
    if n < 1:
        raise ValueError("model must have at least one plane")
    # tiny epsilon so e.g. 5 * 0.4 -> 2 despite float representation
    surplus = math.ceil(n * cfg.cluster_surplus_fraction - 1e-9)
    return n + max(surplus, 0)


def _sqdist(cols: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from every center to every point, shape (k, N).

    cols holds the point features column by column, shape (d, N), so each
    pass runs over one contiguous row of N points per center.  The squared
    feature differences are added one column at a time in feature order,
    the order in which a sum over the feature axis adds them.  That order
    is part of the output contract: k-means results stay bit-identical to
    the broadcast (N, k, d) form only while it holds, so neither reorder
    the sum nor expand it as |a|^2 - 2a.b + |b|^2.
    """
    acc = np.square(cols[0] - centers[:, 0, None])
    diff = np.empty_like(acc)
    for c in range(1, cols.shape[0]):
        np.subtract(cols[c], centers[:, c, None], out=diff)
        acc += np.square(diff, out=diff)
    return acc


def _kmeans_pp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    d, n = cols.shape
    centers = np.empty((k, d))
    first = int(rng.integers(n))
    centers[0] = cols[:, first]
    d2 = _sqdist(cols, centers[:1])[0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a center; reuse any point
            centers[j] = cols[:, int(rng.integers(n))]
            continue
        pick = int(rng.choice(n, p=d2 / total))
        centers[j] = cols[:, pick]
        d2 = np.minimum(d2, _sqdist(cols, centers[j:j + 1])[0])
    return centers


def _build_clustering(cloud: PointCloud, idx: np.ndarray, labels: np.ndarray) -> Clustering:
    """Clusters from the labels of the ascending point indices idx.

    Cluster i holds the points of the i-th smallest label, in index order.
    The indices are int32 whenever the cloud is small enough for that,
    which halves what a kept clustering costs; the stable argsort by label
    lays them out back to back, as a Clustering keeps them.
    """
    dtype = np.int32 if len(cloud) <= np.iinfo(np.int32).max else np.intp
    order = np.argsort(labels, kind="stable")
    indices = idx[order].astype(dtype)
    bounds = np.r_[0, np.flatnonzero(np.diff(labels[order])) + 1, indices.size]
    ends = bounds.tolist()
    means = np.array([as_unit(cloud.normals[indices[s:e]].mean(axis=0))
                      for s, e in zip(ends, ends[1:])])
    return Clustering.packed(indices, bounds, means)


def _kmeans_once(cols: np.ndarray, k: int, rng: np.random.Generator):
    """One k-means++ / Lloyd run over (d, N) feature columns; returns
    (assignment, within-cluster SSE).

    Each Lloyd pass reads the (k, N) distances of _sqdist and assigns every
    point to the first of its nearest centers, the lowest index on ties as
    np.argmin gives.  At the assignment fixpoint the centers have not moved
    since that pass, so the SSE is the sum of its minimum distances; a run
    cut off by KMEANS_MAX_ITER measures it against the last moved centers.
    Cluster counts and centroid sums come from np.bincount, which adds each
    cluster's feature values in point order, as the per-cluster mean does.
    Like the order in _sqdist, this keeps the result bit-identical to a
    masked pass per cluster and is part of the output contract.
    """
    centers = _kmeans_pp_init(cols, k, rng)
    prev = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sqdist(cols, centers)
        # a running minimum down the k rows, strict < keeping the lowest
        # index on ties; on sweep-sized clouds it is faster than d2.argmin(0)
        own = d2[0].copy()
        assign = np.zeros(cols.shape[1], dtype=np.intp)
        for j in range(1, k):
            assign[d2[j] < own] = j
            np.minimum(own, d2[j], out=own)
        counts = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # the t-th emptied cluster takes the t-th farthest point
            donors = np.argsort(-own)[:empty.size]
            centers[empty] = cols[:, donors].T
            assign[donors] = empty
            counts = np.bincount(assign, minlength=k)
        elif prev is not None and np.array_equal(assign, prev):
            return assign, float(own.sum())
        prev = assign
        for c, col in enumerate(cols):
            centers[:, c] = np.bincount(assign, weights=col, minlength=k)
        centers /= counts[:, None]
    own = np.take_along_axis(_sqdist(cols, centers), assign[None, :], axis=0)[0]
    return assign, float(own.sum())


def kmeans_cluster(features: np.ndarray, k: int, cfg: PccConfig, cloud: PointCloud) -> Clustering:
    """Seeded k-means (k-means++ init) over the valid-normal points.

    Runs Lloyd iterations to an assignment fixpoint (or KMEANS_MAX_ITER).
    A cluster that empties is re-seeded from the point currently farthest
    from its own center.  Points whose normal is unusable stay out of
    every cluster.  With kmeans_restarts > 1 the run with the smallest
    within-cluster squared error wins (ties keep the earliest run).
    """
    vidx = np.flatnonzero(cloud.normal_ok)
    if k < 1 or k > vidx.size:
        raise ValueError(f"k={k} out of range for {vidx.size} usable points")
    cols = np.ascontiguousarray(features[vidx].T)
    best_assign = None
    best_sse = math.inf
    for seed in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.kmeans_restarts):
        assign, sse = _kmeans_once(cols, k, np.random.default_rng(seed))
        if sse < best_sse:
            best_assign, best_sse = assign, sse
    return _build_clustering(cloud, vidx, best_assign)


def merge_similar_clusters(clustering: Clustering, cfg: PccConfig, cloud: PointCloud) -> Clustering:
    """Merge clusters whose mean normals are closer than merge_angle_deg.

    Repeats until no pair is below the threshold; the mean normal is
    recomputed from the union after each merge, so the result is a
    fixpoint (idempotent under re-application).  The result packs its
    clusters into an index array of its own, once, at the end, so it does
    not keep the input's array alive.
    """
    clusters = clustering.clusters
    groups = [c.point_indices for c in clusters]
    means = [c.mean_normal for c in clusters]
    while True:
        # the first close pair in row-major order merges, then rescan
        close = np.flatnonzero(pair_angles(means) < cfg.merge_angle_deg)
        if not close.size:
            break
        i, j = (int(ix[close[0]]) for ix in upper_pairs(len(means)))
        groups[i] = np.sort(np.concatenate([groups[i], groups[j]]))
        means[i] = as_unit(cloud.normals[groups[i]].mean(axis=0))
        del groups[j], means[j]
    return Clustering([Cluster(g, m) for g, m in zip(groups, means)])


def object_matrix(clustering: Clustering) -> ConstraintMatrix:
    """Pairwise angles between cluster mean normals."""
    m = clustering.means.shape[0]
    i, j = upper_pairs(m)
    entries = np.zeros((m, m))
    entries[i, j] = entries[j, i] = pair_angles(clustering.means)
    return ConstraintMatrix(entries, label="clusters")


def similarity_reduction(model: ConstraintMatrix, observed: ConstraintMatrix, cfg: PccConfig) -> list[list[int]]:
    """Per cluster, the model planes whose angle rows match it best.

    A cluster's row similarity to model plane y counts the values of model
    row y that pair, one-to-one, with a value of the cluster's row at
    distance below similarity_threshold_deg.  The pairing is greedy: model
    row y's values are taken in ascending order, each against the nearest
    cluster value not yet used (the first of tied ones), which is used up
    only when the pair counts.  All maximizers are kept; if a cluster
    matches nothing, every model plane stays a candidate.
    """
    n, m = model.size, observed.size
    model_rows = np.sort(model.entries[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    cluster_rows = observed.entries[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    # dist[x, y, s, c]: the s-th smallest angle of model row y against
    # angle c of cluster row x, both rows without their diagonal
    dist = np.abs(model_rows[None, :, :, None] - cluster_rows[:, None, None, :])
    used = np.zeros((m, n, m - 1), dtype=bool)
    counts = np.zeros((m, n), dtype=int)
    for s in range(n - 1 if m > 1 else 0):
        d = np.where(used, np.inf, dist[:, :, s])
        pick = d.argmin(axis=2)  # the first of tied minima
        nearest = np.take_along_axis(d, pick[..., None], axis=2)[..., 0]
        hit = nearest < cfg.similarity_threshold_deg
        used[hit, pick[hit]] = True
        counts += hit
    best = counts.max(axis=1)
    for x in np.flatnonzero(best == 0):
        logger.info("cluster %d matches no model plane; keeping all candidates", x)
    return [np.flatnonzero(row == b).tolist() for row, b in zip(counts, best)]


def tree_search(
    model: ConstraintMatrix,
    observed: ConstraintMatrix,
    candidates: list[list[int]],
    cluster_sizes,
    cfg: PccConfig,
) -> PccSolution:
    """Depth-first assignment of clusters to model planes.

    Level i decides model plane i: any unused cluster that lists plane i
    among its candidates and whose angles to all previously assigned
    clusters stay within constraint_tolerance_deg of the model entries —
    or EMPTY.  Among complete assignments the one explaining the most
    points wins; ties resolve to the lexicographically smallest mapping
    (EMPTY ordering after every cluster id).  All-EMPTY is no solution.

    The enumeration order is part of the output contract, because it
    decides ties: levels go in model order, each level tries its clusters
    in ascending id and then EMPTY, and only a strictly greater total
    replaces the best mapping.  Both angle matrices are read as Python
    lists, so no node of the search works on numpy scalars.  The search
    keeps the (level, cluster) pairs assigned so far on a stack, so a
    node checks a cluster against those pairs alone, EMPTY levels skipped.
    """
    n = model.size
    m = observed.size
    sizes = [int(s) for s in cluster_sizes]
    if len(sizes) != m or len(candidates) != m:
        raise ValueError("candidates and cluster_sizes must have one entry per cluster")
    allowed = [[j for j in range(m) if i in candidates[j]] for i in range(n)]
    a = model.entries.tolist()
    b = observed.entries.tolist()
    tol = cfg.constraint_tolerance_deg

    best_total = 0
    best_pairs = None
    assigned: list[tuple[int, int]] = []
    used = [False] * m

    def dfs(level: int, total: int) -> None:
        nonlocal best_total, best_pairs
        if level == n:
            if total > best_total:
                best_total = total
                best_pairs = tuple(assigned)
            return
        row = a[level]
        for j in allowed[level]:
            if used[j]:
                continue
            col = b[j]
            for k, l in assigned:
                if abs(col[l] - row[k]) > tol:
                    break
            else:
                used[j] = True
                assigned.append((level, j))
                dfs(level + 1, total + sizes[j])
                assigned.pop()
                used[j] = False
        dfs(level + 1, total)

    dfs(0, 0)
    if best_pairs is None:
        raise NoSolution("no admissible cluster-to-model assignment")
    mapping = [EMPTY] * n
    for k, l in best_pairs:
        mapping[k] = l
    return PccSolution(tuple(mapping), best_total)


def assign_clusters(clustering: Clustering, model: ConstraintMatrix, cfg: PccConfig) -> PccSolution:
    """Map clusters onto model planes from their mean normals alone:
    the cluster angle matrix, similarity reduction, then the tree search."""
    observed = object_matrix(clustering)
    candidates = similarity_reduction(model, observed, cfg)
    sizes = [c.size for c in clustering.clusters]
    return tree_search(model, observed, candidates, sizes, cfg)


def run_pcc(
    cloud: PointCloud,
    model: ConstraintMatrix,
    cfg: PccConfig = PccConfig(),
) -> tuple[PccSolution, Clustering]:
    """Full clustering pipeline: features, k-means, merge, reduce, search.

    The cloud must carry normals (see normals.estimate_normals).  Returns
    the winning assignment together with the merged clustering it refers to.
    """
    features = normalize_features(cloud)
    k = choose_k(model.size, cfg)
    usable = int(np.count_nonzero(cloud.normal_ok))
    if usable < 1:
        raise DegenerateInput("no points with usable normals")
    if k > usable:
        logger.warning("reducing k from %d to %d usable points", k, usable)
        k = usable
    clustering = kmeans_cluster(features, k, cfg, cloud)
    merged = merge_similar_clusters(clustering, cfg, cloud)
    return assign_clusters(merged, model, cfg), merged


def solution_groups(solution: PccSolution, clustering: Clustering) -> list[np.ndarray]:
    """Point-index groups for the mapped model planes, in model-plane order."""
    clusters = clustering.clusters
    return [clusters[c].point_indices for c in solution.mapping if c is not None]
