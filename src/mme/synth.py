"""Synthetic depth-camera views of polyhedral objects with known models.

Objects are unit-sized solids centered at the origin; a turntable camera
at fixed distance and elevation orbits them.  Each view is ray-cast on a
regular image-plane grid (back-face culling plus nearest-hit depth test),
producing a camera-frame point cloud with exact per-point face labels.
Depth noise displaces each point along its own viewing ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateInput, PointCloud, as_unit
from .pcc import ConstraintMatrix

#: distance from the turntable camera to the object's center, scene units
CAMERA_DISTANCE = 3.0

#: quoted sensor noise sigmas are converted to scene units with this factor
#: (unit-sized objects at CAMERA_DISTANCE; calibrated so the benchmark's
#: reference error magnitudes are reproduced at sigma = 1e-5 .. 6e-5)
DEPTH_SIGMA_SCALE = 400.0


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian depth noise in sensor units, applied along each view ray."""

    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class ViewSpec:
    """Turntable camera pose: azimuth/elevation orbit looking at the origin."""

    view_index: int
    azimuth_deg: float
    elevation_deg: float

    def __post_init__(self):
        if not abs(self.elevation_deg) < 90.0:
            raise ValueError("elevation must be strictly between -90 and 90")


@dataclass(frozen=True)
class Face:
    """Planar convex polygon with an explicit outward unit normal."""

    face_id: int
    vertices: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class ObjectSpec:
    """A polyhedral object plus the angle model of its co-visible planes.

    ``model_face_ids[i]`` names the face realizing model plane i, so the
    model matrix can be audited against the actual face geometry.
    """

    name: str
    model_matrix: ConstraintMatrix
    faces: list[Face]
    model_face_ids: list[int]
    max_visible_faces: int
    view_elevation_deg: float
    azimuth_offset_deg: float
    sampling_density: float


def _face(face_id: int, vertices, normal) -> Face:
    return Face(face_id, np.asarray(vertices, dtype=float), as_unit(normal))


def _cube() -> ObjectSpec:
    h = 0.5
    quads = [
        ((1, 0, 0), [(h, -h, -h), (h, h, -h), (h, h, h), (h, -h, h)]),
        ((-1, 0, 0), [(-h, -h, -h), (-h, -h, h), (-h, h, h), (-h, h, -h)]),
        ((0, 1, 0), [(-h, h, -h), (-h, h, h), (h, h, h), (h, h, -h)]),
        ((0, -1, 0), [(-h, -h, -h), (h, -h, -h), (h, -h, h), (-h, -h, h)]),
        ((0, 0, 1), [(-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h)]),
        ((0, 0, -1), [(-h, -h, -h), (-h, h, -h), (h, h, -h), (h, -h, -h)]),
    ]
    faces = [_face(i, v, n) for i, (n, v) in enumerate(quads)]
    model = ConstraintMatrix(np.array([
        [0.0, 90.0, 90.0],
        [90.0, 0.0, 90.0],
        [90.0, 90.0, 0.0],
    ]), label="cube")
    return ObjectSpec("cube", model, faces, [0, 2, 4], 3,
                      view_elevation_deg=35.0, azimuth_offset_deg=5.0,
                      sampling_density=132.0)


def _pyramid() -> ObjectSpec:
    # two rectangular flanks meeting at a ridge; outward normals 80 deg apart
    w = 0.5
    ridge = w * math.tan(math.radians(40.0))
    half = 40.0
    n_right = (math.sin(math.radians(half)), 0.0, math.cos(math.radians(half)))
    n_left = (-math.sin(math.radians(half)), 0.0, math.cos(math.radians(half)))
    faces = [
        _face(0, [(0, -0.5, ridge), (0, 0.5, ridge), (w, 0.5, 0.0), (w, -0.5, 0.0)], n_right),
        _face(1, [(0, -0.5, ridge), (-w, -0.5, 0.0), (-w, 0.5, 0.0), (0, 0.5, ridge)], n_left),
    ]
    model = ConstraintMatrix(np.array([[0.0, 80.0], [80.0, 0.0]]), label="pyramid")
    return ObjectSpec("pyramid", model, faces, [0, 1], 2,
                      view_elevation_deg=50.0, azimuth_offset_deg=15.0,
                      sampling_density=140.0)


def _double_pyramid() -> ObjectSpec:
    # two square pyramids joined tip-to-tip at the origin; 45 deg flanks
    h = 0.5
    s = 1.0 / math.sqrt(2.0)
    tip = (0.0, 0.0, 0.0)

    def lat(face_id, z_base, axis):
        # triangular flank from the shared tip to one base edge
        sign = 1.0 if z_base > 0 else -1.0
        if axis == 0:
            a, b = (h, -h, z_base), (h, h, z_base)
            n = (s, 0.0, -sign * s)
        elif axis == 1:
            a, b = (h, h, z_base), (-h, h, z_base)
            n = (0.0, s, -sign * s)
        elif axis == 2:
            a, b = (-h, h, z_base), (-h, -h, z_base)
            n = (-s, 0.0, -sign * s)
        else:
            a, b = (-h, -h, z_base), (h, -h, z_base)
            n = (0.0, -s, -sign * s)
        return _face(face_id, [tip, a, b], n)

    faces = [
        _face(0, [(-h, -h, h), (h, -h, h), (h, h, h), (-h, h, h)], (0, 0, 1)),
        lat(1, h, 0), lat(2, h, 1), lat(3, h, 2), lat(4, h, 3),
        lat(5, -h, 0), lat(6, -h, 1), lat(7, -h, 2), lat(8, -h, 3),
        _face(9, [(-h, -h, -h), (-h, h, -h), (h, h, -h), (h, -h, -h)], (0, 0, -1)),
    ]
    model = ConstraintMatrix(np.array([
        [0.0, 135.0, 135.0, 45.0, 45.0],
        [135.0, 0.0, 60.0, 90.0, 120.0],
        [135.0, 60.0, 0.0, 120.0, 90.0],
        [45.0, 90.0, 120.0, 0.0, 60.0],
        [45.0, 120.0, 90.0, 60.0, 0.0],
    ]), label="double_pyramid")
    return ObjectSpec("double_pyramid", model, faces, [0, 1, 2, 5, 6], 5,
                      view_elevation_deg=20.0, azimuth_offset_deg=22.5,
                      sampling_density=145.0)


def builtin_objects() -> list[ObjectSpec]:
    return [_cube(), _pyramid(), _double_pyramid()]


def get_object(name: str) -> ObjectSpec:
    for obj in builtin_objects():
        if obj.name == name:
            return obj
    raise KeyError(f"unknown object {name!r}; choose from "
                   + ", ".join(o.name for o in builtin_objects()))


def turntable_view(obj: ObjectSpec, view_index: int, count: int = 8) -> ViewSpec:
    """View poses evenly spaced in azimuth at the object's preferred elevation."""
    if not 1 <= view_index <= count:
        raise ValueError(f"view_index must be in 1..{count}")
    azimuth = obj.azimuth_offset_deg + (view_index - 1) * 360.0 / count
    return ViewSpec(view_index, azimuth, obj.view_elevation_deg)


def camera_frame(view: ViewSpec) -> tuple[np.ndarray, np.ndarray]:
    """Camera origin and world-to-camera rotation (rows: right, up, forward)."""
    az = math.radians(view.azimuth_deg)
    el = math.radians(view.elevation_deg)
    origin = CAMERA_DISTANCE * np.array([
        math.cos(el) * math.cos(az),
        math.cos(el) * math.sin(az),
        math.sin(el),
    ])
    forward = as_unit(-origin)
    right = as_unit(np.cross(forward, np.array([0.0, 0.0, 1.0])))
    up = np.cross(right, forward)
    return origin, np.stack([right, up, forward])


def face_normals_in_view(obj: ObjectSpec, view: ViewSpec) -> np.ndarray:
    """Outward face normals rotated into the view's camera frame, (F, 3)."""
    _, rot = camera_frame(view)
    return np.array([rot @ f.normal for f in obj.faces])


def _inside_convex(points2, verts2, eps=1e-9) -> np.ndarray:
    """Point-in-convex-polygon for (M, 2) points against (V, 2) vertices."""
    m = points2.shape[0]
    pos = np.zeros(m, dtype=bool)
    neg = np.zeros(m, dtype=bool)
    v = verts2.shape[0]
    for i in range(v):
        a = verts2[i]
        b = verts2[(i + 1) % v]
        cross = (b[0] - a[0]) * (points2[:, 1] - a[1]) - (b[1] - a[1]) * (points2[:, 0] - a[0])
        pos |= cross > eps
        neg |= cross < -eps
    return ~(pos & neg)


def generate_view(
    obj: ObjectSpec,
    view: ViewSpec,
    noise: NoiseSpec = NoiseSpec(),
    rng_seed: int = 0,
) -> PointCloud:
    """Ray-cast one camera view into a labeled camera-frame point cloud.

    A regular grid over the projected bounding box of the object defines
    one ray per sample; the nearest front-facing face hit by the ray
    (back-face culling plus depth test) yields the point and its label.
    Gaussian noise N(mu, sigma) in sensor units, scaled by
    DEPTH_SIGMA_SCALE, then displaces each point along its ray.
    """
    if obj.sampling_density <= 0.0:
        raise ValueError("sampling_density must be positive")
    origin, rot = camera_frame(view)
    cam_faces = []
    for f in obj.faces:
        verts = (f.vertices - origin) @ rot.T
        normal = rot @ f.normal
        cam_faces.append((f.face_id, verts, normal))

    allv = np.vstack([verts for _, verts, _ in cam_faces])
    if np.any(allv[:, 2] <= 0.0):
        raise DegenerateInput("object must lie entirely in front of the camera")
    proj = allv[:, :2] / allv[:, 2:3]
    step = 1.0 / obj.sampling_density
    lo = proj.min(axis=0) - 0.5 * step
    hi = proj.max(axis=0) + 0.5 * step
    nu = max(int(math.ceil((hi[0] - lo[0]) / step)), 1)
    nv = max(int(math.ceil((hi[1] - lo[1]) / step)), 1)
    us = lo[0] + (np.arange(nu) + 0.5) * step
    vs = lo[1] + (np.arange(nv) + 0.5) * step
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    dirs = np.stack([uu.ravel(), vv.ravel(), np.ones(uu.size)], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    best_t = np.full(dirs.shape[0], np.inf)
    best_face = np.full(dirs.shape[0], -1, dtype=int)
    for face_id, verts, normal in cam_faces:
        dn = dirs @ normal
        facing = dn < -1e-12  # outward normal must point back at the camera
        if not np.any(facing):
            continue
        t = np.full(dirs.shape[0], np.inf)
        t[facing] = (verts[0] @ normal) / dn[facing]
        valid = facing & (t > 0.0) & (t < best_t)
        if not np.any(valid):
            continue
        hits = dirs[valid] * t[valid, None]
        e1 = as_unit(verts[1] - verts[0])
        e2 = np.cross(normal, e1)
        rel = hits - verts[0]
        pts2 = np.stack([rel @ e1, rel @ e2], axis=1)
        verts2 = np.stack([(verts - verts[0]) @ e1, (verts - verts[0]) @ e2], axis=1)
        inside = _inside_convex(pts2, verts2)
        sel = np.flatnonzero(valid)[inside]
        best_t[sel] = t[sel]
        best_face[sel] = face_id

    hit = best_face >= 0
    t_hit = best_t[hit]
    d_hit = dirs[hit]
    rng = np.random.default_rng(rng_seed)
    delta = rng.normal(noise.mu, noise.sigma, size=t_hit.shape[0]) * DEPTH_SIGMA_SCALE
    points = d_hit * (t_hit + delta)[:, None]
    return PointCloud(points, labels=best_face[hit])


def write_cloud(path, cloud: PointCloud, comments=()) -> None:
    """Write a cloud as plain text, one point per line.

    Columns: x y z [nx ny nz] [label]; all floats at 17 significant digits
    so a read round-trips bit-exactly.  Invalid normals are written as
    zeros and recovered as invalid on read.
    """
    lines = [f"# {c}" for c in comments]
    ncols = "x y z"
    if cloud.normals is not None:
        ncols += " nx ny nz"
    if cloud.labels is not None:
        ncols += " label"
    lines.append(f"# columns: {ncols}")
    for i in range(len(cloud)):
        parts = [f"{v:.17g}" for v in cloud.points[i]]
        if cloud.normals is not None:
            parts += [f"{v:.17g}" for v in cloud.normals[i]]
        if cloud.labels is not None:
            parts.append(str(int(cloud.labels[i])))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


#: the column layouts write_cloud writes, by their `# columns:` header
CLOUD_LAYOUTS = ("x y z", "x y z label", "x y z nx ny nz", "x y z nx ny nz label")


def read_cloud(path) -> PointCloud:
    """Read a cloud written by write_cloud.

    A `# columns: ...` line before the first data row fixes the layout:
    one of CLOUD_LAYOUTS, and every row must have that many fields.
    Without one the layout is inferred from the first row's column count:
    3 columns = points, 4 = points+label, 6 = points+normals,
    7 = points+normals+label.  Zero normals are flagged invalid.
    """
    pts, norms, labels = [], [], []
    ncols = None
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text, _, comment = line.partition("#")
            text = text.strip()
            if not text:
                comment = comment.strip()
                if ncols is None and comment.startswith("columns:"):
                    header = " ".join(comment[len("columns:"):].split())
                    if header not in CLOUD_LAYOUTS:
                        raise ValueError(f"{path}: line {lineno}: unknown column layout "
                                         f"{header!r}; expected one of "
                                         f"{', '.join(map(repr, CLOUD_LAYOUTS))}")
                continue
            fields = text.split()
            if ncols is None:
                ncols = len(header.split()) if header else len(fields)
                if ncols not in (3, 4, 6, 7):
                    raise ValueError(f"{path}: line {lineno}: expected 3, 4, 6 or 7 columns")
            if len(fields) != ncols:
                if header:
                    raise ValueError(f"{path}: line {lineno}: expected {ncols} columns "
                                     f"(header: {header})")
                raise ValueError(f"{path}: line {lineno}: expected {ncols} columns, got {len(fields)}")
            try:
                row = [float(f) for f in fields]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value") from None
            pts.append(row[:3])
            if ncols in (6, 7):
                norms.append(row[3:6])
            if ncols in (4, 7):
                label = row[-1]
                if not (label.is_integer() and abs(label) < 2**63):  # int64; inf, NaN fail
                    raise ValueError(f"{path}: line {lineno}: label must be an integer")
                labels.append(int(label))
    if not pts:
        raise ValueError(f"{path}: line 1: no points found")
    points = np.array(pts)
    normals = np.array(norms) if norms else None
    normal_ok = None
    if normals is not None:
        normal_ok = np.linalg.norm(normals, axis=1) > 1e-12
    return PointCloud(
        points,
        normals=normals,
        labels=np.array(labels, dtype=int) if labels else None,
        normal_ok=normal_ok,
    )
