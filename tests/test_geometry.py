"""Geometry primitives: plane fitting, angles, normal conventions."""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from conftest import planar_cloud, random_rotation
from mme import geometry
from mme.geometry import (
    DegenerateInput,
    PlaneModel,
    PointCloud,
    angle_between,
    angle_deviation,
    angles,
    as_unit,
    fit_plane_lsq,
    orient,
    pair_angles,
    upper_pairs,
)


def sse(points, normal, offset) -> float:
    return float(((points @ normal - offset) ** 2).sum())


class TestFitPlaneLsq:
    def test_exact_on_planar_points(self, rng):
        normal = as_unit([0.3, -0.5, 0.8])
        pts = planar_cloud(rng, 60, normal, offset=0.7)
        plane = fit_plane_lsq(pts, np.arange(60))
        assert angle_between(plane.normal, normal) < 1e-6  # normal's own sign is canonical
        assert plane.distances(pts).max() < 1e-12

    def test_beats_random_centroid_anchored_planes(self, rng):
        # the optimality oracle: no random plane through the centroid may
        # achieve a smaller sum of squared orthogonal distances
        for _ in range(50):
            pts = planar_cloud(rng, 40, rng.normal(size=3), offset=rng.normal(),
                               jitter=0.05)
            plane = fit_plane_lsq(pts, np.arange(40))
            centroid = pts.mean(axis=0)
            fitted = sse(pts, plane.normal, plane.offset)
            dirs = rng.normal(size=(1000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            offsets = dirs @ centroid
            residuals = ((pts @ dirs.T - offsets) ** 2).sum(axis=0)
            assert fitted <= residuals.min() + 1e-12

    def test_rigid_motion_equivariance(self, rng):
        for _ in range(20):
            pts = planar_cloud(rng, 50, rng.normal(size=3), jitter=0.02)
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            before = fit_plane_lsq(pts, np.arange(50))
            after = fit_plane_lsq(pts @ rot.T + shift, np.arange(50))
            moved = rot @ before.normal
            # arctan2 of cross/|dot| resolves angles far below the arccos
            # quantization floor and is orientation-free
            angle = np.degrees(np.arctan2(np.linalg.norm(np.cross(after.normal, moved)),
                                          abs(float(after.normal @ moved))))
            assert angle < 1e-6

    def test_inlier_bookkeeping(self, rng):
        pts = planar_cloud(rng, 12, [0, 0, 1.0])
        plane = fit_plane_lsq(pts, np.arange(12))
        assert np.array_equal(plane.inliers, np.arange(12))
        idx = np.array([5, 9, 11, 40])
        plane = fit_plane_lsq(pts[:4], indices=idx)
        assert np.array_equal(plane.inliers, idx)

    def test_rejects_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            fit_plane_lsq(np.zeros((2, 3)), np.arange(2))
        line = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            fit_plane_lsq(line, np.arange(10))
        with pytest.raises(DegenerateInput):
            fit_plane_lsq(np.ones((5, 2)), np.arange(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, value):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, value]])
        with pytest.raises(DegenerateInput, match="finite"):
            fit_plane_lsq(pts, np.arange(3))


class TestAngles:
    def test_angle_between_basics(self):
        assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)
        assert angle_between([1, 0, 0], [1, 0, 0]) == pytest.approx(0.0)
        assert angle_between([1, 0, 0], [-1, 0, 0]) == pytest.approx(180.0)
        # dot products slightly out of [-1, 1] must not NaN
        v = as_unit([1.0, 1e-8, 0.0])
        assert np.isfinite(angle_between(v, v))

    def test_angle_deviation_folds_acute_models(self):
        # with a model entry <= 90 the sign of either normal cannot matter
        assert angle_deviation(170.0, 10.0) == pytest.approx(0.0)
        assert angle_deviation(95.0, 90.0) == pytest.approx(5.0)
        assert angle_deviation(85.0, 90.0) == pytest.approx(5.0)
        assert angle_deviation(44.0, 45.0) == pytest.approx(1.0)

    def test_angle_deviation_keeps_obtuse_models_raw(self):
        assert angle_deviation(170.0, 135.0) == pytest.approx(35.0)
        assert angle_deviation(130.0, 135.0) == pytest.approx(5.0)
        # folding would wrongly report 10 here
        assert angle_deviation(50.0, 130.0) == pytest.approx(80.0)

    def test_angle_deviation_is_elementwise(self):
        measured = np.array([170.0, 95.0, 170.0, 50.0])
        model = np.array([10.0, 90.0, 135.0, 130.0])
        expected = [angle_deviation(m, a) for m, a in zip(measured, model)]
        assert np.array_equal(angle_deviation(measured, model), expected)


class TestPairAngles:
    def test_upper_pairs_row_major(self):
        assert list(zip(*upper_pairs(4))) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert upper_pairs(1)[0].size == 0

    @pytest.mark.parametrize("n", [2, 3, 9, 12, 13, 20])
    def test_bit_identical_to_angle_between(self, rng, n):
        # a v @ v.T rewrite fails here: BLAS rounds some of its dot
        # products differently once n reaches about 12
        i, j = upper_pairs(n)
        for _ in range(10):
            v = rng.normal(size=(n, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            v[-1] = as_unit(v[0] + 1e-7)  # a near-parallel pair
            expected = [oracle.angle_between(v[a], v[b]) for a, b in zip(i, j)]
            assert np.array_equal(pair_angles(v), expected)

    def test_angle_between_matches_the_np_dot_form(self, rng):
        v = rng.normal(size=(400, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = np.vstack([rng.normal(size=(200, 3)), v[:100] + 1e-8, -v[100:200]])
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        for a, b in zip(v, w):
            assert angle_between(a, b) == oracle.angle_between(a, b)
        assert angle_between([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]) == 180.0

    def test_angles_broadcast(self, rng):
        v = rng.normal(size=(5, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        grid = angles(v[:, None], v[None, :])
        assert grid.shape == (5, 5)
        assert np.array_equal(grid[upper_pairs(5)], pair_angles(v))
        assert np.array_equal(angles(v, v[::-1]), np.diagonal(grid[:, ::-1]))

    def test_fewer_than_two_vectors(self):
        assert pair_angles([[0.0, 0.0, 1.0]]).shape == (0,)
        assert pair_angles([]).shape == (0,)


class TestNormalConventions:
    def test_canonical_normal_fixes_sign(self, rng):
        # the fit's normal does not depend on the point order: its
        # largest-magnitude component is >= 0 whichever sign eigh returns
        for _ in range(20):
            pts = planar_cloud(rng, 30, rng.normal(size=3), offset=rng.normal(), jitter=0.01)
            out = fit_plane_lsq(pts, np.arange(30)).normal
            assert out[int(np.argmax(np.abs(out)))] >= 0
            assert np.allclose(fit_plane_lsq(pts[::-1], np.arange(30)).normal, out)

    def test_canonical_normal_tie_uses_first_axis(self, monkeypatch):
        # an eigensolver normal with an exact tie takes the sign that makes
        # its first largest component positive, bit for bit
        for raw, canonical in [([-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]),
                               ([1.0, -1.0, 0.0], [1.0, -1.0, 0.0]),
                               ([0.0, -2.0, 2.0], [0.0, 2.0, -2.0]),
                               ([-3.0, 0.0, 0.0], [3.0, 0.0, 0.0])]:
            monkeypatch.setattr(geometry, "scatter_normal", lambda s: (np.array(raw), True))
            plane = fit_plane_lsq(np.eye(3), np.arange(3))
            assert np.array_equal(plane.normal, as_unit(canonical))

    def test_canonical_normal_idempotent(self, rng):
        # refitting a plane's own points, moved onto it, keeps its normal
        for _ in range(20):
            first = fit_plane_lsq(planar_cloud(rng, 30, rng.normal(size=3), jitter=0.01),
                                  np.arange(30))
            again = fit_plane_lsq(planar_cloud(rng, 30, first.normal, first.offset),
                                  np.arange(30))
            assert np.allclose(again.normal, first.normal)

    def test_orient_batch_equals_rows_bit_for_bit(self, rng):
        # growth orients a window of trial normals toward one reference, the
        # checks a plane set toward one reference each; the two agree with
        # orienting the rows one by one
        normals = rng.normal(size=(40, 3))
        toward = rng.normal(size=(40, 3))
        toward[4] = [0.0, 1.0, 0.0]  # exactly 90 deg from normals[4]
        normals[4] = [-0.6, 0.0, -0.8]
        ref = rng.normal(size=3)
        assert np.array_equal(orient(normals, toward),
                              np.array([orient(v, t) for v, t in zip(normals, toward)]))
        assert np.array_equal(orient(normals[4], toward[4]), normals[4])
        assert np.array_equal(orient(normals, ref), np.array([orient(v, ref) for v in normals]))
        assert (np.vecdot(orient(normals, ref), ref) >= 0.0).all()

    def test_oriented_normals_flips_toward_references(self):
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        refs = np.array([[0.0, 0.0, -1.0], [0.0, 0.1, 1.0]])
        out = orient(normals, refs)
        assert np.allclose(out, [[0, 0, -1.0], [0, 0, 1.0]])


class TestBasicsAndValidation:
    def test_as_unit_rejects_near_zero(self):
        with pytest.raises(DegenerateInput):
            as_unit([0.0, 0.0, 1e-15])
        assert np.linalg.norm(as_unit([3.0, 4.0, 0.0])) == pytest.approx(1.0)

    def test_plane_model_requires_unit_normal(self):
        with pytest.raises(DegenerateInput):
            PlaneModel(np.array([0.0, 0.0, 2.0]), 0.0, np.arange(3))

    def test_plane_distances(self):
        plane = PlaneModel(np.array([0.0, 0.0, 1.0]), 2.0, np.arange(1))
        d = plane.distances([[0, 0, 5.0], [1, 1, 2.0], [0, 0, -1.0]])
        assert np.allclose(d, [3.0, 0.0, 3.0])

    def test_point_cloud_validation(self):
        with pytest.raises(DegenerateInput):
            PointCloud(np.zeros((4, 2)))
        with pytest.raises(DegenerateInput):
            PointCloud(np.array([[0.0, 0.0, float("nan")]]))
        with pytest.raises(DegenerateInput):
            PointCloud(np.zeros((4, 3)), normals=np.zeros((3, 3)))
        with pytest.raises(DegenerateInput):
            PointCloud(np.zeros((4, 3)), labels=np.zeros(5, dtype=int))
        cloud = PointCloud(np.zeros((4, 3)), normals=np.zeros((4, 3)))
        assert cloud.normal_ok is not None and not cloud.normal_ok.any()
        assert len(cloud) == 4

    def test_normal_ok_follows_the_normals(self):
        assert PointCloud(np.zeros((3, 3))).normal_ok is None
        cloud = PointCloud(np.zeros((5, 3)),
                           normals=[[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [float("nan"), 1.0, 0.0],
                                    [float("inf"), 0.0, 0.0], [0.0, float("-inf"), 0.0]])
        assert cloud.normal_ok.tolist() == [True, False, False, False, False]
        cloud.normals[1] = [0.0, 1.0, 0.0]
        assert cloud.normal_ok.tolist() == [True, True, False, False, False]
        with pytest.raises(TypeError):
            PointCloud(np.zeros((3, 3)), normal_ok=np.ones(3, dtype=bool))

    @pytest.mark.parametrize("value", [1.01e100, -1e300, float("inf"), float("-inf"), float("nan")])
    def test_point_cloud_bounds_coordinates(self, value):
        with pytest.raises(DegenerateInput, match="finite and at most 1e\\+100 in magnitude"):
            PointCloud(np.array([[0.0, value, 1.0]]))

    def test_point_cloud_accepts_the_bound(self):
        assert len(PointCloud(np.array([[1e100, -1e100, 0.0]]))) == 1
