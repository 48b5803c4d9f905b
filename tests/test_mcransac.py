"""Simultaneous constrained fitting: hypothesize, check, grow, select."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import planar_cloud, redraw_scene, two_plane_cloud
from mme import mcransac
from mme.geometry import (
    DegenerateInput,
    PlaneModel,
    PointCloud,
    angle_between,
    fit_plane_lsq,
    orient,
    pair_angles,
    sample_plane,
    upper_pairs,
)
from mme.mcransac import (
    McRansacConfig,
    NoSatisfyingFit,
    check_constraints,
    grow_inliers,
    hypothesize,
    restrict_constraints,
    run_mcransac,
)
from mme.normals import estimate_normals
from mme.pcc import EMPTY, ConstraintMatrix, PccConfig, PccSolution, run_pcc, solution_groups
from mme.synth import NoiseSpec, generate_view, get_object, turntable_view
from oracle import reference_grow_inliers, reference_hypothesize, reference_mcransac

RIGHT_ANGLE = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))


def label_index_groups(cloud):
    return [np.flatnonzero(cloud.labels == lab) for lab in np.unique(cloud.labels)]


class TestRestrictConstraints:
    FULL = ConstraintMatrix(np.array([
        [0.0, 90.0, 45.0],
        [90.0, 0.0, 135.0],
        [45.0, 135.0, 0.0],
    ]))

    def test_submatrix_follows_mapping(self):
        sub = restrict_constraints(self.FULL, PccSolution((4, EMPTY, 7), 0))
        assert sub.size == 2
        assert sub.entries[0, 1] == 45.0

    def test_full_mapping_is_identity(self):
        sub = restrict_constraints(self.FULL, PccSolution((2, 0, 1), 0))
        assert np.array_equal(sub.entries, self.FULL.entries)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            restrict_constraints(self.FULL, PccSolution((EMPTY, EMPTY, EMPTY), 0))


class TestCheckConstraints:
    def planes(self, angle_deg, rng):
        n0 = np.array([0.0, 0.0, 1.0])
        rad = np.radians(angle_deg)
        n1 = np.array([np.sin(rad), 0.0, np.cos(rad)])
        return [
            fit_plane_lsq(planar_cloud(rng, 30, n0), np.arange(30)),
            fit_plane_lsq(planar_cloud(rng, 30, n1, offset=1.0), np.arange(30)),
        ]

    def test_within_and_outside_tolerance(self, rng):
        good = self.planes(89.0, rng)
        bad = self.planes(80.0, rng)
        assert check_constraints(good, RIGHT_ANGLE, 2.0)
        assert not check_constraints(bad, RIGHT_ANGLE, 2.0)

    def test_acute_entries_ignore_orientation(self, rng):
        planes = self.planes(90.0, rng)
        flipped = [planes[0], fit_plane_lsq(planar_cloud(rng, 30, [-np.sin(np.pi / 2), 0, -np.cos(np.pi / 2)], offset=1.0), np.arange(30))]
        assert check_constraints(flipped, RIGHT_ANGLE, 2.0)

    def test_obtuse_entries_need_references(self, rng):
        model = ConstraintMatrix(np.array([[0.0, 135.0], [135.0, 0.0]]))
        planes = self.planes(135.0, rng)
        refs = np.array([[0.0, 0.0, 1.0], [np.sin(np.radians(135.0)), 0.0, np.cos(np.radians(135.0))]])
        assert check_constraints(planes, model, 2.0, reference_directions=refs)
        # with the second reference flipped the measured angle reads 45
        refs_bad = refs.copy()
        refs_bad[1] = -refs_bad[1]
        assert not check_constraints(planes, model, 2.0, reference_directions=refs_bad)

    def test_plane_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            check_constraints(self.planes(90.0, rng)[:1], RIGHT_ANGLE, 2.0)

    def test_many_planes_measure_like_angle_between(self, rng):
        # 14 planes against their own angle_between matrix: zero tolerance
        # holds only if every pair angle is bit-identical to angle_between,
        # which a normals @ normals.T check is not at this size
        for _ in range(10):
            normals = rng.normal(size=(14, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            planes = [PlaneModel(v, 0.0, np.arange(3)) for v in normals]
            entries = np.zeros((14, 14))
            for i in range(14):
                for j in range(i + 1, 14):
                    entries[i, j] = entries[j, i] = angle_between(normals[i], normals[j])
            assert check_constraints(planes, ConstraintMatrix(entries), 0.0)
        # only the upper triangle is compared; the lower may lag by 1e-7
        lagged = entries + np.tril(np.full_like(entries, 1e-7), k=-1)
        assert check_constraints(planes, ConstraintMatrix(lagged), 0.0)
        entries[11, 13] += 1.0
        entries[13, 11] += 1.0
        assert check_constraints(planes, ConstraintMatrix(entries), 1.5)
        assert not check_constraints(planes, ConstraintMatrix(entries), 0.5)


class TestHypothesize:
    def test_one_plane_per_group_from_samples(self, rng):
        cloud, normals = two_plane_cloud(rng, n_per=50)
        groups = label_index_groups(cloud)
        planes = hypothesize(groups, cloud, McRansacConfig(sample_size=4),
                             np.random.default_rng(11))
        assert len(planes) == 2
        for plane, g, n in zip(planes, groups, normals):
            assert plane.inliers.shape[0] == 4
            assert set(plane.inliers).issubset(set(g))
            a = angle_between(plane.normal, n)
            assert min(a, 180.0 - a) < 1e-6

    def test_small_group_raises(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=50)
        with pytest.raises(DegenerateInput):
            hypothesize([np.array([0, 1])], cloud, McRansacConfig(sample_size=3), rng)

    def test_collinear_group_raises(self, rng):
        pts = np.outer(np.linspace(0, 1, 20), [1.0, 1.0, 0.0])
        cloud = PointCloud(pts)
        with pytest.raises(DegenerateInput):
            hypothesize([np.arange(20)], cloud, McRansacConfig(sample_size=3), rng)


class TestHypothesizeOracle:
    """hypothesize against the hand-written draw loop of tests/oracle.py:
    the same samples, planes bit for bit, and the same stream consumed."""

    @staticmethod
    def draw(fn, *args):
        try:
            return [(p.normal.tobytes(), p.offset, p.inliers.tobytes()) for p in fn(*args)]
        except DegenerateInput as exc:
            return str(exc)

    def test_matches_reference_draws(self, rng):
        cloud, groups = redraw_scene(rng)
        order = [groups["mixed"], groups["planar"].astype(np.int32)]
        redrawn = raised = 0
        for seed in range(40):
            for size in (3, 4, 5):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = self.draw(hypothesize, order, cloud, McRansacConfig(sample_size=size), ours)
                want = self.draw(reference_hypothesize, order, cloud.points, size, theirs)
                assert got == want
                assert ours.bit_generator.state == theirs.bit_generator.state
                if isinstance(got, str):
                    raised += 1
                    continue
                first = np.sort(np.random.default_rng(seed).choice(order[0], size, replace=False))
                redrawn += got[0][2] != first.tobytes()
        # the mixed group forced redraws on some seeds and not on others
        assert 0 < redrawn < 120 - raised

    def test_all_draws_degenerate(self, rng):
        cloud, groups = redraw_scene(rng)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(DegenerateInput, match="non-degenerate"):
            hypothesize([groups["planar"], groups["line"]], cloud,
                        McRansacConfig(sample_size=3), ours)
        with pytest.raises(DegenerateInput, match="non-degenerate"):
            reference_hypothesize([groups["planar"], groups["line"]], cloud.points, 3, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestSampleRule:
    """Without a sample_size each plane is drawn from 3 points plus one per
    constraint pair, at most 8, in hypothesize and run_mcransac alike; a
    given sample_size is drawn as it is."""

    @pytest.mark.parametrize("sample_size, n_planes, drawn", [
        (None, 1, 3), (None, 2, 4), (None, 3, 6), (None, 4, 8), (None, 5, 8),
        (3, 3, 3), (5, 5, 5),
    ])
    def test_points_per_plane(self, monkeypatch, sample_size, n_planes, drawn):
        cloud, groups, model, refs = faceted_scene(n_planes, n_planes)
        cfg = McRansacConfig(iterations=3, sample_size=sample_size, min_eval_fraction=0.01)
        assert cfg.samples_per_plane(n_planes) == drawn
        planes = hypothesize(groups, cloud, cfg, np.random.default_rng(0))
        assert [p.inliers.shape[0] for p in planes] == [drawn] * n_planes
        sizes = []

        def recording(points, indices, size, rng):
            sizes.append(size)
            return sample_plane(points, indices, size, rng)

        monkeypatch.setattr(mcransac, "sample_plane", recording)
        try:
            run_mcransac(groups, cloud, model, cfg, reference_directions=refs)
        except NoSatisfyingFit:
            pass
        assert sizes == [drawn] * (cfg.iterations * n_planes)

    def test_group_below_the_rule_raises(self):
        cloud, groups, model, refs = faceted_scene(0, 3)
        groups[1] = groups[1][:5]
        with pytest.raises(DegenerateInput, match="5 points cannot seed a sample of 6"):
            run_mcransac(groups, cloud, model, reference_directions=refs)


class TestGrowInliers:
    def test_grows_to_full_groups_on_clean_data(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=60)
        groups = label_index_groups(cloud)
        cfg = McRansacConfig(sample_size=3, min_eval_fraction=1.0)
        draws = np.random.default_rng(2)
        planes = hypothesize(groups, cloud, cfg, draws)
        fit = grow_inliers(planes, groups, cloud, RIGHT_ANGLE, cfg, draws)
        assert fit.total_inliers == len(cloud)
        assert fit.mean_residual < 1e-9

    def test_far_outlier_is_reverted(self, rng):
        # a gross outlier inside a group must not survive: growing onto it
        # tilts the refit plane past the angle tolerance, so the step is
        # rolled back (and hypotheses sampling it never pass the check)
        cloud, _ = two_plane_cloud(rng, n_per=12)
        pts = cloud.points.copy()
        outlier = len(pts)
        pts = np.vstack([pts, [0.3, 0.1, 1.5]])  # far off the z=0 patch
        labels = np.append(cloud.labels, 0)
        spiked = PointCloud(pts, labels=labels)
        groups = label_index_groups(spiked)
        cfg = McRansacConfig(iterations=15, sample_size=3, min_eval_fraction=1.0,
                             rng_seed=4)
        fit = run_mcransac(groups, spiked, RIGHT_ANGLE, cfg)
        gathered = np.concatenate([p.inliers for p in fit.planes])
        assert outlier not in gathered
        assert fit.total_inliers == len(spiked) - 1


def faceted_scene(seed, n_planes, n_per=150, jitter=0.004, outliers=6, references=True):
    """n_planes noisy patches with random normals, a few points per patch
    pushed off it, and the model of their pairwise angles.

    With references the model holds the raw angles between the true
    normals, which are the references; without, the angles between their
    canonical forms.  Either way many entries are obtuse.  Returns (cloud,
    groups, model, references or None).
    """
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n_planes, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if not references:
        normals = orient(normals)
    patches = []
    for i, v in enumerate(normals):
        pts = planar_cloud(rng, n_per, v, offset=2.0 + i, jitter=jitter)
        pts[rng.choice(n_per, outliers, replace=False)] += 0.3 * v
        patches.append(pts)
    entries = np.zeros((n_planes, n_planes))
    entries[upper_pairs(n_planes)] = pair_angles(normals)
    entries += entries.T
    groups = [np.arange(i * n_per, (i + 1) * n_per) for i in range(n_planes)]
    return (PointCloud(np.vstack(patches)), groups, ConstraintMatrix(entries),
            normals if references else None)


def assert_same_fit(got, want):
    assert got.total_inliers == want.total_inliers
    assert np.float64(got.mean_residual).tobytes() == np.float64(want.mean_residual).tobytes()
    for p, q in zip(got.planes, want.planes, strict=True):
        assert p.inliers.dtype == q.inliers.dtype
        assert p.inliers.tobytes() == q.inliers.tobytes()
        assert p.normal.tobytes() == q.normal.tobytes()
        assert np.float64(p.offset).tobytes() == np.float64(q.offset).tobytes()


def passing_hypotheses(cloud, groups, model, cfg, refs, seeds):
    """(hypothesis set, stream state after it) for each seed whose set
    passes the check."""
    for seed in seeds:
        draws = np.random.default_rng(seed)
        hyp = hypothesize(groups, cloud, cfg, draws)
        if check_constraints(hyp, model, cfg.constraint_tolerance_deg, refs):
            yield hyp, draws.bit_generator.state


def grow_both(hyp, state, cloud, groups, model, cfg, refs):
    """Windowed and reference growth from one stream state; asserts that they
    agree and returns the reference fit."""
    ours, theirs = np.random.default_rng(), np.random.default_rng()
    ours.bit_generator.state = theirs.bit_generator.state = state
    got = grow_inliers(hyp, groups, cloud, model, cfg, ours, reference_directions=refs)
    want = reference_grow_inliers(hyp, groups, cloud, model, cfg, theirs,
                                  reference_directions=refs)
    assert_same_fit(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    return want


def grow_all(cloud, groups, model, cfg, refs, seeds):
    """grow_both from every passing seed; returns the (accepted, reverted)
    candidate totals."""
    accepted = reverted = 0
    for hyp, state in passing_hypotheses(cloud, groups, model, cfg, refs, seeds):
        fit = grow_both(hyp, state, cloud, groups, model, cfg, refs)
        seeded = sum(p.inliers.shape[0] for p in hyp)
        tried = sum(min(g.shape[0] - p.inliers.shape[0],
                        math.ceil(cfg.min_eval_fraction * g.shape[0]))
                    for g, p in zip(groups, hyp))
        accepted += fit.total_inliers - seeded
        reverted += tried - (fit.total_inliers - seeded)
    return accepted, reverted


class TestGrowInliersOracle:
    """Windowed growth against the per-candidate loop of tests/oracle.py:
    the same accepted sets in the same order, planes and residual bit for
    bit, and the same stream consumed."""

    @pytest.mark.parametrize("n_planes", [2, 3, 5])
    @pytest.mark.parametrize("references", [True, False])
    @pytest.mark.parametrize("fraction", [1.0, 0.3])
    def test_matches_reference_growth(self, n_planes, references, fraction):
        cloud, groups, model, refs = faceted_scene(n_planes, n_planes, references=references)
        assert (model.entries > 90.0).any()
        cfg = McRansacConfig(sample_size=8, constraint_tolerance_deg=1.5,
                             min_eval_fraction=fraction)
        accepted, reverted = grow_all(cloud, groups, model, cfg, refs, range(30))
        assert accepted > 0 and reverted > 0

    @pytest.mark.parametrize("references", [True, False])
    def test_dense_reverts_off_the_model(self, references):
        # every model angle is 2 deg off the true one, beyond the 1.5 deg
        # tolerance: growth drifts toward the true planes and many trials
        # on the way are reverted
        cloud, groups, model, refs = faceted_scene(2, 2, references=references)
        entries = model.entries.copy()
        off = ~np.eye(2, dtype=bool)
        entries[off] += np.where(entries[off] < 90.0, 2.0, -2.0)
        cfg = McRansacConfig(sample_size=4, constraint_tolerance_deg=1.5)
        accepted, reverted = grow_all(cloud, groups, ConstraintMatrix(entries), cfg, refs,
                                      range(40))
        assert reverted > accepted / 10 > 0

    @pytest.mark.parametrize("window", [1, 10_000])
    def test_window_size_does_not_matter(self, monkeypatch, window):
        monkeypatch.setattr(mcransac, "GROWTH_WINDOW", window)
        cloud, groups, model, refs = faceted_scene(4, 3)
        cfg = McRansacConfig(sample_size=8, constraint_tolerance_deg=1.5)
        accepted, reverted = grow_all(cloud, groups, model, cfg, refs, range(20))
        assert accepted > 0 and reverted > 0

    @pytest.mark.parametrize("position", [mcransac.GROWTH_WINDOW - 1, mcransac.GROWTH_WINDOW])
    def test_revert_on_a_window_edge(self, position):
        # the candidate drawn at this position is lifted far off its face, so
        # the last trial of the first window, or the first of the next, fails
        cloud, groups, model, refs = faceted_scene(5, 2, outliers=0)
        cfg = McRansacConfig(sample_size=8, constraint_tolerance_deg=1.5)
        hyp, state = next(passing_hypotheses(cloud, groups, model, cfg, refs, range(20)))
        draws = np.random.default_rng()
        draws.bit_generator.state = state
        rest = groups[0][~np.isin(groups[0], hyp[0].inliers)]
        edge = rest[draws.permutation(rest.shape[0])[position]]
        cloud.points[edge] += 100.0 * refs[0]
        fit = grow_both(hyp, state, cloud, groups, model, cfg, refs)
        assert edge not in fit.planes[0].inliers
        assert fit.planes[0].inliers.shape[0] > mcransac.GROWTH_WINDOW + cfg.sample_size


class TestDegenerateGrowth:
    """A growth trial whose refit is rank-deficient is reverted like a
    constraint violation instead of aborting the whole fit."""

    @staticmethod
    def scene():
        # 20 points within 1e-6 on z=0, one at x=1e9 that leaves a refit
        # through it collinear by fit_plane_lsq's test, and a wall on x=5
        rng = np.random.default_rng(0)
        flat = np.c_[rng.uniform(0.0, 1e-6, size=(20, 2)), np.zeros(20)]
        wall = np.c_[np.full(20, 5.0), rng.uniform(-1.0, 1.0, size=(20, 2))]
        cloud = PointCloud(np.vstack([flat, [[1e9, 0.0, 0.0]], wall]))
        return cloud, [np.arange(21), np.arange(21, 41)]

    def test_fit_keeps_everything_but_the_far_point(self):
        cloud, groups = self.scene()
        cfg = McRansacConfig(iterations=5, min_eval_fraction=1.0,
                             constraint_tolerance_deg=5.0, rng_seed=1)
        fit = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        assert fit.total_inliers == 40
        assert 20 not in np.concatenate([p.inliers for p in fit.planes])

    def test_matches_reference_growth(self):
        cloud, groups = self.scene()
        cfg = McRansacConfig(constraint_tolerance_deg=5.0)
        accepted, reverted = grow_all(cloud, groups, RIGHT_ANGLE, cfg, None, range(10))
        assert accepted > 0 and reverted > 0


class TestRunMcransac:
    def test_clean_wedge_fits_everything(self, rng):
        cloud, normals = two_plane_cloud(rng, n_per=80)
        groups = label_index_groups(cloud)
        cfg = McRansacConfig(iterations=10, sample_size=3, min_eval_fraction=1.0,
                             rng_seed=7)
        fit = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        assert fit.total_inliers == len(cloud)
        assert fit.iteration >= 0
        for plane, n in zip(fit.planes, normals):
            a = angle_between(plane.normal, n)
            assert min(a, 180.0 - a) < 1e-6

    def test_noisy_wedge_stays_within_tolerance(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=150, jitter=0.01)
        groups = label_index_groups(cloud)
        cfg = McRansacConfig(iterations=20, sample_size=5, min_eval_fraction=0.2,
                             constraint_tolerance_deg=2.0, rng_seed=3)
        fit = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        measured = angle_between(fit.planes[0].normal, fit.planes[1].normal)
        assert abs(min(measured, 180.0 - measured) - 90.0) <= 2.0

    def test_coplanar_groups_cannot_satisfy_right_angle(self, rng):
        # the false-positive feedback path: two patches of one plane handed
        # to a perpendicular model must end in an error, not a fit
        left = planar_cloud(rng, 60, [0.0, 0.0, 1.0], jitter=0.002) - [1.0, 0, 0]
        right = planar_cloud(rng, 60, [0.0, 0.0, 1.0], jitter=0.002) + [1.0, 0, 0]
        cloud = PointCloud(np.vstack([left, right]))
        groups = [np.arange(60), np.arange(60, 120)]
        with pytest.raises(NoSatisfyingFit):
            run_mcransac(groups, cloud, RIGHT_ANGLE,
                         McRansacConfig(iterations=25, rng_seed=1))

    def test_obtuse_model_without_references_says_so(self):
        # double pyramid, view 1: the mapped planes meet at 135 and 120 deg,
        # which canonically signed normals cannot show without references
        obj = get_object("double_pyramid")
        cloud = estimate_normals(generate_view(obj, turntable_view(obj, 1),
                                               noise=NoiseSpec(sigma=4e-5), rng_seed=11))
        solution, clustering = run_pcc(cloud, obj.model_matrix, PccConfig(rng_seed=11))
        groups = solution_groups(solution, clustering)
        sub = restrict_constraints(obj.model_matrix, solution)
        assert (sub.entries > 90.0).any()
        with pytest.raises(NoSatisfyingFit, match=r"in 50 iterations; obtuse entries need "
                                                  r"reference_directions$"):
            run_mcransac(groups, cloud, sub, McRansacConfig(rng_seed=11))
        refs = [clustering.clusters[c].mean_normal for c in solution.mapping if c is not None]
        fit = run_mcransac(groups, cloud, sub, McRansacConfig(rng_seed=11),
                           reference_directions=refs)
        assert len(fit.planes) == sub.size

    def test_acute_model_message_is_unchanged(self, rng):
        cloud = PointCloud(planar_cloud(rng, 120, [0.0, 0.0, 1.0], jitter=0.002))
        with pytest.raises(NoSatisfyingFit, match=r"in 5 iterations$"):
            run_mcransac([np.arange(60), np.arange(60, 120)], cloud, RIGHT_ANGLE,
                         McRansacConfig(iterations=5, rng_seed=1))

    def test_deterministic(self, rng):
        cloud, _ = two_plane_cloud(rng, n_per=70, jitter=0.005)
        groups = label_index_groups(cloud)
        cfg = McRansacConfig(iterations=8, sample_size=4, min_eval_fraction=0.5,
                             rng_seed=21)
        one = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        two = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        assert one.iteration == two.iteration
        assert one.total_inliers == two.total_inliers
        for p, q in zip(one.planes, two.planes):
            assert p.normal.tobytes() == q.normal.tobytes()
            assert np.array_equal(p.inliers, q.inliers)

    @pytest.mark.parametrize("seed, iterations", [(21, 1), (8, 17), (11, 12)])
    def test_matches_up_front_seeding(self, rng, seed, iterations):
        # spawning one child per iteration gives the children that spawning
        # them all before the loop gave, in the same order
        cloud, _ = two_plane_cloud(rng, n_per=70, jitter=0.005)
        groups = label_index_groups(cloud)
        cfg = McRansacConfig(iterations=iterations, sample_size=4, min_eval_fraction=0.3,
                             constraint_tolerance_deg=2.0, rng_seed=seed)
        fit = run_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        ref = reference_mcransac(groups, cloud, RIGHT_ANGLE, cfg)
        assert fit.iteration == ref.iteration
        assert fit.total_inliers == ref.total_inliers
        for plane, want in zip(fit.planes, ref.planes):
            assert plane.normal.tobytes() == want.normal.tobytes()
            assert np.float64(plane.offset).tobytes() == np.float64(want.offset).tobytes()
            assert np.array_equal(plane.inliers, want.inliers)

    def test_group_count_must_match_constraints(self, rng):
        cloud, _ = two_plane_cloud(rng)
        with pytest.raises(ValueError):
            run_mcransac([np.arange(10)], cloud, RIGHT_ANGLE, McRansacConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McRansacConfig(iterations=0)
        with pytest.raises(ValueError):
            McRansacConfig(sample_size=2)
        with pytest.raises(ValueError):
            McRansacConfig(min_eval_fraction=0.0)
        with pytest.raises(ValueError):
            McRansacConfig(min_eval_fraction=1.5)
        with pytest.raises(ValueError):
            McRansacConfig(constraint_tolerance_deg=0.0)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            McRansacConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["constraint_tolerance_deg", "min_eval_fraction"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ValueError):
            McRansacConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_config_rejects_infinite_tolerance(self, value):
        with pytest.raises(ValueError, match="constraint_tolerance_deg must be finite"):
            McRansacConfig(constraint_tolerance_deg=value)
