"""Per-point normal estimation from k-nearest-neighbor plane fits."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import planar_cloud
from mme.geometry import DegenerateInput, PointCloud, angle_between
from mme.normals import NormalEstimationConfig, estimate_normals
from mme.synth import NoiseSpec, face_normals_in_view, generate_view, get_object, turntable_view


def test_exact_plane_recovers_normal(rng):
    pts = planar_cloud(rng, 200, [0.0, 0.0, 1.0], offset=-2.0)
    out = estimate_normals(PointCloud(pts), NormalEstimationConfig(k_neighbors=7))
    assert out.normal_ok.all()
    angles = np.degrees(np.arccos(np.clip(np.abs(out.normals @ [0.0, 0.0, 1.0]), 0, 1)))
    assert angles.max() < 1e-6


def test_normals_point_toward_viewpoint(rng):
    # plane at z = -2, the sensor at the origin: normals must have +z
    pts = planar_cloud(rng, 100, [0.0, 0.0, 1.0], offset=-2.0)
    out = estimate_normals(PointCloud(pts))
    assert (out.normals[:, 2] > 0).all()


def test_synthetic_view_normals_match_faces():
    obj = get_object("cube")
    view = turntable_view(obj, 1)
    cloud = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=0)
    out = estimate_normals(cloud, NormalEstimationConfig(k_neighbors=7))
    gt = face_normals_in_view(obj, view)
    # a visible face's outward normal points back toward the sensor, the
    # same orientation estimate_normals gives every normal
    dev = np.array([
        angle_between(out.normals[i], gt[cloud.labels[i]])
        for i in range(len(cloud)) if out.normal_ok[i]
    ])
    # interior points are exact; only edge-straddling neighborhoods deviate
    assert np.median(dev) < 1e-6
    assert (dev < 5.0).mean() > 0.9


def test_collinear_neighborhoods_flagged_invalid():
    t = np.linspace(0.0, 1.0, 50)
    pts = np.outer(t, [1.0, 1.0, 0.0])
    out = estimate_normals(PointCloud(pts), NormalEstimationConfig(k_neighbors=5))
    assert not out.normal_ok.any()
    assert np.allclose(out.normals, 0.0)


def test_labels_carried_through(rng):
    pts = planar_cloud(rng, 50, [0.0, 1.0, 0.0])
    labels = np.arange(50) % 3
    out = estimate_normals(PointCloud(pts, labels=labels))
    assert np.array_equal(out.labels, labels)


def test_deterministic(rng):
    pts = planar_cloud(rng, 80, [0.3, 0.2, 1.0], jitter=0.01)
    a = estimate_normals(PointCloud(pts))
    b = estimate_normals(PointCloud(pts))
    assert a.normals.tobytes() == b.normals.tobytes()
    assert np.array_equal(a.normal_ok, b.normal_ok)


def test_too_few_points_raises(rng):
    pts = planar_cloud(rng, 5, [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateInput):
        estimate_normals(PointCloud(pts), NormalEstimationConfig(k_neighbors=7))


def test_config_validation():
    with pytest.raises(ValueError):
        NormalEstimationConfig(k_neighbors=2)
