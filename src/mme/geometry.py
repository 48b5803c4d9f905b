"""Core 3D types and angle arithmetic shared by the whole pipeline.

Planes are stored as (unit normal, signed offset) with normal . p = offset
for points p on the plane.  Angles are always handled in degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

#: degenerate minimal samples redrawn before a draw gives up
RESAMPLE_ATTEMPTS = 10

#: largest accepted coordinate magnitude; squared distances and covariance
#: sums of coordinates this large stay far from float overflow
MAX_COORDINATE = 1e100


class DegenerateInput(ValueError):
    """Input geometry cannot support the requested operation."""


def as_unit(v) -> np.ndarray:
    """Return v scaled to unit length; near-zero vectors are rejected."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if not np.isfinite(n) or n < 1e-12:
        raise DegenerateInput("cannot normalize a near-zero vector")
    return v / n


def angles(a, b) -> np.ndarray:
    """Angles in degrees, in [0, 180], between the unit vectors along the
    last axis of a and b, broadcast against each other.

    The dot products come from np.vecdot, which forms each one exactly as
    np.dot does for a single pair.  A matrix product (v @ v.T) does not:
    BLAS sums the larger products in another order, so its angles differ
    in the last bit and every consumer's output would drift.
    """
    return np.degrees(np.arccos(np.vecdot(a, b).clip(-1.0, 1.0)))


def angle_between(a, b) -> float:
    """Angle between two unit vectors, in degrees, in [0, 180]."""
    return float(angles(a, b))


@cache
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair i < j of n items, in row-major order.

    Cached per n and read-only, so the per-check cost is a dict lookup.
    """
    pairs = np.triu_indices(n, k=1)
    for ix in pairs:
        ix.flags.writeable = False
    return pairs


def pair_angles(normals) -> np.ndarray:
    """Angles in degrees between rows i < j of (n, 3) unit vectors, in the
    order of upper_pairs(n).

    The angles run over the full n x n grid, which for a model's few planes
    costs less than gathering the pairs first.
    """
    v = np.asarray(normals, dtype=float).reshape(-1, 3)
    return angles(v[:, None], v[None, :])[upper_pairs(v.shape[0])]


def fold(angles_deg):
    """Angles in degrees, in [0, 180], folded onto [0, 90]: a and 180 - a
    are one angle between unoriented planes."""
    a = np.asarray(angles_deg, dtype=float)
    return np.minimum(a, 180.0 - a)


def angle_deviation(measured_deg, model_deg):
    """Absolute deviation of measured plane angles from model entries.

    Model entries <= 90 are compared orientation-free: both angles are
    folded onto [0, 90] so the sign of either normal cannot matter.
    Obtuse model entries are compared raw; they only make sense when the
    measured angle comes from consistently oriented (outward) normals.
    Works elementwise on arrays; scalars give a scalar.
    """
    measured = np.asarray(measured_deg, dtype=float)
    model = np.asarray(model_deg, dtype=float)
    return np.abs(np.where(model <= 90.0, fold(measured), measured) - model)[()]


def orient(normals, toward) -> np.ndarray:
    """Normals along the last axis, each flipped to within 90 deg of
    ``toward`` (broadcast against them).  A batch equals its rows oriented
    one by one."""
    n = np.asarray(normals, dtype=float)
    return np.where((np.vecdot(n, toward) < 0.0)[..., None], -n, n)


@dataclass(frozen=True, eq=False)
class PlaneModel:
    """An infinite plane with fit bookkeeping.

    normal . p = offset for points p on the plane.  ``inliers`` indexes
    whatever cloud the plane was fitted against.
    """

    normal: np.ndarray
    offset: float
    inliers: np.ndarray

    def __post_init__(self):
        if abs(float(np.linalg.norm(self.normal)) - 1.0) > 1e-9:
            raise DegenerateInput("plane normal must be unit length")

    def distances(self, points) -> np.ndarray:
        """Orthogonal distances from points (N, 3) to the plane."""
        return np.abs(np.asarray(points, dtype=float) @ self.normal - self.offset)


def scatter_normal(scatter) -> tuple[np.ndarray, np.ndarray]:
    """The smallest principal axis of each (..., 3, 3) scatter matrix, and
    whether its points span a plane.

    They do not when the middle eigenvalue is at most 1e-12 of the largest:
    the points are collinear or coincident.
    """
    evals, evecs = np.linalg.eigh(scatter)
    # indexing evals.T gives one scatter numpy scalars, not the slower 0-d
    # arrays of evals[..., 1]; the outer .T puts the batch axes back in order
    return evecs[..., 0], (evals.T[1] > 1e-12 * evals.T[2]).T


def fit_plane_lsq(points, indices) -> PlaneModel:
    """Total-least-squares plane through >= 3 points.

    Minimizes the sum of squared orthogonal distances: the plane passes
    through the centroid with normal along the smallest principal axis of
    the centered covariance.  The normal takes the canonical sign, so the
    fit does not depend on point order or eigensolver sign conventions:
    its largest-magnitude component is >= 0, the first of x, y, z on ties.
    ``indices`` name the points in their cloud and become the inliers.

    Raises DegenerateInput for < 3 points, a NaN or infinite coordinate,
    or (near-)collinear input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DegenerateInput(f"expected (N, 3) points, got {pts.shape}")
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise DegenerateInput("points must be finite")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    normal, planar = scatter_normal(centered.T @ centered)
    if not planar:
        raise DegenerateInput("points are collinear or coincident")
    normal = as_unit(normal)
    if normal[np.argmax(np.abs(normal))] < 0.0:  # argmax returns the first of ties
        normal = -normal
    offset = float(normal @ centroid)
    return PlaneModel(normal, offset, np.asarray(indices, dtype=int))


def sample_plane(points, indices, sample_size: int, rng) -> PlaneModel:
    """Plane through sample_size of the given point indices, drawn without
    replacement and fitted in ascending order; a degenerate draw is redrawn
    up to RESAMPLE_ATTEMPTS times before DegenerateInput is raised.  The
    draws consumed and the sample order are part of every seeded output.
    """
    if len(indices) < sample_size:
        raise DegenerateInput(f"{len(indices)} points cannot seed a sample of {sample_size}")
    for _ in range(RESAMPLE_ATTEMPTS):
        pick = np.sort(rng.choice(indices, size=sample_size, replace=False))
        try:
            return fit_plane_lsq(points[pick], indices=pick)
        except DegenerateInput:
            continue
    raise DegenerateInput("could not draw a non-degenerate sample")


@dataclass(eq=False)
class PointCloud:
    """Points with optional per-point normals and integer face labels.

    A zero or non-finite normal marks a point whose normal is unusable;
    such points are carried along rather than dropped.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise DegenerateInput(f"expected (N, 3) points, got {self.points.shape}")
        if not np.all(np.abs(self.points) <= MAX_COORDINATE):  # NaN fails too
            raise DegenerateInput(
                f"point coordinates must be finite and at most {MAX_COORDINATE:g} in magnitude")
        n = self.points.shape[0]
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float)
            if self.normals.shape != (n, 3):
                raise DegenerateInput("normals must match points in shape")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise DegenerateInput("labels must be one integer per point")

    @property
    def normal_ok(self) -> np.ndarray | None:
        """Per point, whether its normal is usable (finite, with norm above
        1e-12, so zero, NaN and infinite rows are not); None without normals.
        Derived, never stored."""
        if self.normals is None:
            return None
        norm = np.linalg.norm(self.normals, axis=1)
        return np.isfinite(norm) & (norm > 1e-12)

    def __len__(self) -> int:
        return self.points.shape[0]
