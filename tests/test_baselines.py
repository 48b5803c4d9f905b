"""Unconstrained RANSAC baselines."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import planar_cloud, redraw_scene, two_plane_cloud
from mme.baselines import RansacConfig, clustered_ransac, iterative_ransac
from mme.geometry import DegenerateInput, PointCloud, angle_between
from mme.synth import NoiseSpec, face_normals_in_view, generate_view, get_object, turntable_view
from oracle import reference_clustered, reference_iterative


def folded(a: float) -> float:
    return min(a, 180.0 - a)


class TestClusteredRansac:
    def test_recovers_each_group_plane(self, rng):
        cloud, normals = two_plane_cloud(rng, n_per=90)
        groups = [np.flatnonzero(cloud.labels == lab) for lab in (0, 1)]
        planes = clustered_ransac(groups, cloud, RansacConfig(iterations=5, rng_seed=6,
                                                              distance_threshold=1e-6))
        assert len(planes) == 2
        for plane, g, n in zip(planes, groups, normals):
            assert folded(angle_between(plane.normal, n)) < 1e-6
            assert set(plane.inliers) == set(g)

    def test_ignores_cross_group_structure(self, rng):
        # fits are independent per group: scrambling the other group's
        # points cannot change a group's plane
        cloud, _ = two_plane_cloud(rng, n_per=60)
        groups = [np.arange(60), np.arange(60, 120)]
        cfg = RansacConfig(iterations=4, rng_seed=3)
        ref = clustered_ransac(groups, cloud, cfg)[0]
        scrambled_pts = cloud.points.copy()
        scrambled_pts[60:] = rng.normal(size=(60, 3)) + 5.0
        scrambled = PointCloud(scrambled_pts)
        again = clustered_ransac([groups[0]], scrambled, cfg)[0]
        assert ref.normal.tobytes() == again.normal.tobytes()

    def test_small_group_raises(self, rng):
        cloud, _ = two_plane_cloud(rng)
        with pytest.raises(DegenerateInput):
            clustered_ransac([np.array([0, 1])], cloud, RansacConfig())

    def test_deterministic(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=50, jitter=0.01)
        groups = [np.arange(50), np.arange(50, 100)]
        cfg = RansacConfig(iterations=6, rng_seed=17, distance_threshold=0.02)
        a = clustered_ransac(groups, cloud, cfg)
        b = clustered_ransac(groups, cloud, cfg)
        for p, q in zip(a, b):
            assert p.normal.tobytes() == q.normal.tobytes()
            assert np.array_equal(p.inliers, q.inliers)


class TestIterativeRansac:
    def test_extracts_all_faces_of_clean_view(self):
        obj = get_object("cube")
        view = turntable_view(obj, 2)
        cloud = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=1)
        planes = iterative_ransac(cloud, RansacConfig(iterations=40, rng_seed=1,
                                                      distance_threshold=1e-6),
                                  min_inlier_fraction=0.05)
        assert len(planes) == 3
        gt = face_normals_in_view(obj, view)
        matched = set()
        for p in planes:
            devs = [folded(angle_between(p.normal, g)) for g in gt]
            face = int(np.argmin(devs))
            assert devs[face] < 0.5
            matched.add(face)
        assert len(matched) == 3
        assert sum(p.inliers.shape[0] for p in planes) == len(cloud)

    def test_min_inlier_fraction_stops_extraction(self, rng):
        big = planar_cloud(rng, 300, [0.0, 0.0, 1.0])
        small = planar_cloud(rng, 8, [1.0, 0.0, 0.0], offset=3.0, extent=0.2)
        cloud = PointCloud(np.vstack([big, small]))
        planes = iterative_ransac(cloud, RansacConfig(iterations=25, rng_seed=2,
                                                      distance_threshold=1e-6),
                                  min_inlier_fraction=0.05)
        assert len(planes) == 1
        assert planes[0].inliers.shape[0] == 300

    def test_too_small_cloud_returns_nothing(self, rng):
        cloud = PointCloud(rng.normal(size=(2, 3)))
        assert iterative_ransac(cloud, RansacConfig(), min_inlier_fraction=0.05) == []

    def test_deterministic(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=80, jitter=0.01)
        cfg = RansacConfig(iterations=10, rng_seed=9, distance_threshold=0.03)
        a = iterative_ransac(cloud, cfg, min_inlier_fraction=0.05)
        b = iterative_ransac(cloud, cfg, min_inlier_fraction=0.05)
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert p.normal.tobytes() == q.normal.tobytes()
            assert np.array_equal(p.inliers, q.inliers)


def same_planes(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.normal.tobytes() == q.normal.tobytes()
        assert p.offset == q.offset
        assert np.array_equal(p.inliers, q.inliers)


class TestSamplerOracle:
    """The baselines draw through geometry.sample_plane; they must fit
    exactly what the hand-written draw loop of tests/oracle.py fits."""

    def test_clustered_matches_reference(self, rng):
        cloud, groups = redraw_scene(rng)
        order = [groups["mixed"], groups["planar"].astype(np.int32)]
        for seed in range(12):
            for thr in (1e-6, 0.05):
                cfg = RansacConfig(iterations=6, distance_threshold=thr, rng_seed=seed)
                same_planes(clustered_ransac(order, cloud, cfg),
                            reference_clustered(order, cloud.points, 6, 3, thr, seed))

    def test_clustered_all_draws_degenerate(self, rng):
        cloud, groups = redraw_scene(rng)
        with pytest.raises(DegenerateInput, match="no usable"):
            clustered_ransac([groups["line"]], cloud, RansacConfig(iterations=3))
        with pytest.raises(DegenerateInput, match="no usable"):
            reference_clustered([groups["line"]], cloud.points, 3, 3, 1e-3, 0)

    def test_iterative_matches_reference(self, rng):
        # on about half the seeds the points left after two planes all lie
        # on the line, so extraction ends when every draw is degenerate
        cloud, _ = redraw_scene(rng)
        for seed in range(8):
            for thr in (1e-6, 0.01):
                cfg = RansacConfig(iterations=8, distance_threshold=thr, rng_seed=seed)
                same_planes(iterative_ransac(cloud, cfg, min_inlier_fraction=0.02),
                            reference_iterative(cloud.points, 8, 3, thr, seed, 0.02))


class TestRansacConfig:
    def test_defaults(self):
        cfg = RansacConfig()
        assert (cfg.iterations, cfg.distance_threshold, cfg.rng_seed) == (50, 1e-3, 0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 0),
        ("distance_threshold", 0.0),
        ("distance_threshold", -1.0),
        ("distance_threshold", float("nan")),
        ("rng_seed", -1),
        ("distance_threshold", float("inf")),
        ("distance_threshold", float("-inf")),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})
