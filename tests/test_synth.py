"""Synthetic view generator: objects, ray casting, noise, file format."""

from __future__ import annotations

import numpy as np
import pytest

from mme.geometry import DegenerateInput, PointCloud, angle_between
from mme.synth import (
    CLOUD_LAYOUTS,
    NoiseSpec,
    ViewSpec,
    builtin_objects,
    camera_frame,
    face_normals_in_view,
    generate_view,
    get_object,
    read_cloud,
    turntable_view,
    write_cloud,
)
from oracle import dihedral_consistency

OBJECT_NAMES = ("cube", "pyramid", "double_pyramid")


class TestObjects:
    def test_catalog(self):
        names = [o.name for o in builtin_objects()]
        assert names == list(OBJECT_NAMES)
        with pytest.raises(KeyError):
            get_object("torus")

    @pytest.mark.parametrize("name,planes", [("cube", 3), ("pyramid", 2),
                                             ("double_pyramid", 5)])
    def test_model_sizes(self, name, planes):
        obj = get_object(name)
        assert obj.model_matrix.size == planes
        assert obj.max_visible_faces == planes
        assert len(obj.model_face_ids) == planes

    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_model_matches_face_geometry(self, name):
        # the advertised angle model must agree with the actual dihedrals
        assert dihedral_consistency(get_object(name)) <= 1e-6

    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_faces_are_planar_with_outward_normals(self, name):
        obj = get_object(name)
        for face in obj.faces:
            rel = face.vertices - face.vertices[0]
            assert np.abs(rel @ face.normal).max() < 1e-9
            # outward: the interior origin sits on the negative side of any
            # face plane not passing through it (some flanks meet at the
            # origin, where the offset is legitimately zero)
            offset = float(face.vertices[0] @ face.normal)
            assert offset > -1e-9
            if abs(offset) > 1e-9:
                assert offset > 0


class TestViews:
    def test_turntable_spacing(self):
        obj = get_object("cube")
        views = [turntable_view(obj, i) for i in range(1, 9)]
        azimuths = [v.azimuth_deg for v in views]
        steps = np.diff(azimuths)
        assert np.allclose(steps, 45.0)
        assert all(v.elevation_deg == obj.view_elevation_deg for v in views)
        with pytest.raises(ValueError):
            turntable_view(obj, 0)
        with pytest.raises(ValueError):
            turntable_view(obj, 9)

    def test_camera_frame_orthonormal(self):
        view = ViewSpec(1, azimuth_deg=33.0, elevation_deg=25.0)
        origin, rot = camera_frame(view)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.norm(origin) == pytest.approx(view.distance)
        # forward axis looks at the origin
        assert np.allclose(rot[2], -origin / np.linalg.norm(origin))

    def test_view_validation(self):
        with pytest.raises(ValueError):
            ViewSpec(1, 0.0, 95.0)
        with pytest.raises(ValueError):
            ViewSpec(1, 0.0, 10.0, distance=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-1.0)

    @pytest.mark.parametrize("kwargs", [{"sigma": float("nan")}, {"sigma": float("inf")},
                                        {"mu": float("nan")}, {"mu": float("-inf")}])
    def test_noise_must_be_finite(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"distance": float("nan")},
                                        {"elevation_deg": float("nan")}])
    def test_view_rejects_nan(self, kwargs):
        with pytest.raises(ValueError):
            ViewSpec(**{"view_index": 1, "azimuth_deg": 0.0, "elevation_deg": 10.0, **kwargs})


class TestGenerateView:
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_noise_free_points_lie_on_their_faces(self, name):
        obj = get_object(name)
        view = turntable_view(obj, 4)
        cloud = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=0)
        origin, rot = camera_frame(view)
        assert len(cloud) > 500
        for face in obj.faces:
            idx = np.flatnonzero(cloud.labels == face.face_id)
            if idx.shape[0] == 0:
                continue
            verts_cam = (face.vertices - origin) @ rot.T
            n_cam = rot @ face.normal
            offset = verts_cam[0] @ n_cam
            d = np.abs(cloud.points[idx] @ n_cam - offset)
            assert d.max() < 1e-9

    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_only_front_faces_visible(self, name):
        obj = get_object(name)
        view = turntable_view(obj, 6)
        cloud = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=0)
        gt = face_normals_in_view(obj, view)
        for lab in np.unique(cloud.labels):
            idx = np.flatnonzero(cloud.labels == lab)
            rays = cloud.points[idx] / np.linalg.norm(cloud.points[idx], axis=1, keepdims=True)
            assert (rays @ gt[lab] < 0.0).all()

    def test_visible_face_count_within_model(self):
        for name in OBJECT_NAMES:
            obj = get_object(name)
            for vi in range(1, 9):
                cloud = generate_view(obj, turntable_view(obj, vi),
                                      noise=NoiseSpec(0.0, 0.0), rng_seed=0)
                assert len(np.unique(cloud.labels)) <= obj.max_visible_faces

    def test_noise_displaces_along_rays(self):
        obj = get_object("cube")
        view = turntable_view(obj, 1)
        clean = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=3)
        noisy = generate_view(obj, view, noise=NoiseSpec(0.0, 4e-5), rng_seed=3)
        assert len(clean) == len(noisy)
        assert np.array_equal(clean.labels, noisy.labels)
        cross = np.cross(clean.points, noisy.points)
        lever = np.linalg.norm(cross, axis=1) / np.linalg.norm(clean.points, axis=1)
        assert lever.max() < 1e-9  # same ray, shifted depth
        shift = np.linalg.norm(noisy.points - clean.points, axis=1)
        assert 0.5 * 4e-5 * 400.0 < shift.std() < 2.0 * 4e-5 * 400.0

    def test_deterministic_and_seed_sensitive(self):
        obj = get_object("pyramid")
        view = turntable_view(obj, 5)
        a = generate_view(obj, view, noise=NoiseSpec(0.0, 1e-5), rng_seed=8)
        b = generate_view(obj, view, noise=NoiseSpec(0.0, 1e-5), rng_seed=8)
        c = generate_view(obj, view, noise=NoiseSpec(0.0, 1e-5), rng_seed=9)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.points.tobytes() != c.points.tobytes()

    def test_density_scales_point_count(self):
        obj = get_object("cube")
        view = turntable_view(obj, 1)
        lo = generate_view(obj, view, sampling_density=40.0)
        hi = generate_view(obj, view, sampling_density=80.0)
        assert 3.0 < len(hi) / len(lo) < 5.0  # roughly quadratic in density
        with pytest.raises(ValueError):
            generate_view(obj, view, sampling_density=0.0)


class TestCloudFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        obj = get_object("double_pyramid")
        cloud = generate_view(obj, turntable_view(obj, 2), noise=NoiseSpec(0.0, 1e-5),
                              rng_seed=12)
        from mme.normals import estimate_normals
        cloud = estimate_normals(cloud)
        path = tmp_path / "cloud.xyz"
        write_cloud(path, cloud, comments=("a comment",))
        back = read_cloud(path)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.normals.tobytes() == cloud.normals.tobytes()
        assert np.array_equal(back.labels, cloud.labels)
        assert np.array_equal(back.normal_ok, cloud.normal_ok)

    def test_column_layouts(self, tmp_path, rng):
        pts = rng.normal(size=(5, 3))
        normals = np.tile([0.0, 0.0, 1.0], (5, 1))
        labels = np.arange(5)
        for i, (nrm, lab) in enumerate([(None, None), (None, labels),
                                        (normals, None), (normals, labels)]):
            cloud = PointCloud(pts, normals=nrm, labels=lab)
            path = tmp_path / f"c{i}.xyz"
            write_cloud(path, cloud)
            assert f"# columns: {CLOUD_LAYOUTS[i]}\n" in path.read_text()
            back = read_cloud(path)
            assert back.points.tobytes() == pts.tobytes()
            assert (back.labels is None) == (lab is None)
            assert (back.normals is None) == (nrm is None)
            if lab is not None:
                assert np.array_equal(back.labels, lab)
            if nrm is not None:
                assert back.normals.tobytes() == nrm.tobytes()

    def test_header_fixes_the_layout(self, tmp_path, rng):
        # a labelled file that lost its x column would parse as x y z
        path = tmp_path / "c.xyz"
        write_cloud(path, PointCloud(rng.normal(size=(4, 3)), labels=np.arange(4)),
                    comments=("object=cube",))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [r.split(" ", 1)[1] for r in lines[2:]]) + "\n")
        with pytest.raises(ValueError,
                           match=r"line 3: expected 4 columns \(header: x y z label\)$"):
            read_cloud(path)

    @pytest.mark.parametrize("layout", ["x y", "x y z w", "label x y z", "x y z nx ny"])
    def test_unknown_header_layout_rejected(self, tmp_path, layout):
        path = tmp_path / "c.xyz"
        path.write_text(f"# columns: {layout}\n" + "0 " * len(layout.split()) + "\n")
        with pytest.raises(ValueError, match="line 1: unknown column layout"):
            read_cloud(path)

    def test_header_after_data_is_a_comment(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0\n# columns: x y z label\n1 0 0\n")
        assert read_cloud(path).labels is None

    def test_zero_normals_read_as_invalid(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 0 0 0 0\n1 0 0 0 0 1\n")
        back = read_cloud(path)
        assert list(back.normal_ok) == [False, True]

    def test_read_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_cloud(path)
        path.write_text("1 2 3 4 5\n")
        with pytest.raises(ValueError, match="line 1"):
            read_cloud(path)
        path.write_text("1 2 x\n")
        with pytest.raises(ValueError, match="line 1"):
            read_cloud(path)
        path.write_text("1 2 3 4.5\n")
        with pytest.raises(ValueError, match="label"):
            read_cloud(path)

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e300"])
    def test_non_finite_or_huge_label_is_named_with_its_line(self, tmp_path, label):
        path = tmp_path / "bad.xyz"
        path.write_text(f"0 0 0 1\n1 2 3 {label}\n")
        with pytest.raises(ValueError, match="line 2: label must be an integer$"):
            read_cloud(path)
