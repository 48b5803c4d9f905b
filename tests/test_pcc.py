"""Clustering pipeline: features, k-means, merging, reduction, tree search."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import planar_cloud
from mme import pcc
from mme.geometry import DegenerateInput, PointCloud, angle_between, as_unit
from mme.normals import NormalEstimationConfig, estimate_normals
from mme.pcc import (
    EMPTY,
    Clustering,
    ConstraintMatrix,
    NoSolution,
    PccConfig,
    _build_clustering,
    _kmeans_once,
    _sqdist,
    assign_clusters,
    choose_k,
    kmeans_cluster,
    merge_similar_clusters,
    normalize_features,
    object_matrix,
    read_constraint_matrix,
    run_pcc,
    similarity_reduction,
    solution_groups,
    tree_search,
    write_constraint_matrix,
)
from mme.synth import NoiseSpec, generate_view, get_object, turntable_view
from oracle import (
    assignment,
    broadcast_sqdist,
    enumerate_assignments,
    faceted_search_instance,
    random_search_instance,
    reference_kmeans,
    reference_lloyd,
    reference_merge,
    reference_similarity_reduction,
    reference_tree_search,
    remap_labels,
    tie_heavy_search_instance,
)

# Reference example: a 3-plane model observed as 4 clusters.  The measured
# cluster matrix is symmetrized (44.5 averages its two off-diagonal
# readings); threshold 5 on the row similarity and on the pairwise search.
MODEL_3 = np.array([
    [0.0, 45.0, 90.0],
    [45.0, 0.0, 45.0],
    [90.0, 45.0, 0.0],
])
OBSERVED_4 = np.array([
    [0.0, 44.0, 70.0, 91.0],
    [44.0, 0.0, 44.5, 73.0],
    [70.0, 44.5, 0.0, 80.0],
    [91.0, 73.0, 80.0, 0.0],
])


class TestConstraintMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConstraintMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ConstraintMatrix(np.array([[0.0, 10.0], [20.0, 0.0]]))
        with pytest.raises(ValueError):
            ConstraintMatrix(np.array([[0.0, -5.0], [-5.0, 0.0]]))
        with pytest.raises(ValueError):
            ConstraintMatrix(np.array([[0.0, 200.0], [200.0, 0.0]]))
        with pytest.raises(ValueError):
            ConstraintMatrix(np.array([[1.0, 45.0], [45.0, 0.0]]))
        with pytest.raises(ValueError):
            ConstraintMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        m = ConstraintMatrix(MODEL_3)
        assert m.size == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.constraints"
        write_constraint_matrix(path, ConstraintMatrix(OBSERVED_4, label="obs"))
        back = read_constraint_matrix(path)
        assert np.array_equal(back.entries, OBSERVED_4)

    def test_read_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.constraints"
        path.write_text("# comment\n2\n0 80\n80 oops\n")
        with pytest.raises(ValueError, match="line 4"):
            read_constraint_matrix(path)
        path.write_text("2\n0 80 99\n80 0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_constraint_matrix(path)
        path.write_text("2\n0 80\n81 0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_constraint_matrix(path)
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="line 1"):
            read_constraint_matrix(path)
        path.write_text("2\n0 80\n")
        with pytest.raises(ValueError):
            read_constraint_matrix(path)
        # a bad entry is reported on the line that holds the first one in
        # row-major order, not on the first row's
        for text, message in [
                ("2\n0 80\n80 inf\n", "line 3: constraint matrix entries must be finite"),
                ("3\n0 90 90\n90 0 90\n90 90 200\n",
                 r"line 4: constraint angles must lie in \[0, 180\] degrees"),
                ("# two planes\n2\n0 80\n80 1\n", "line 4: constraint matrix diagonal must be zero")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"{message}$"):
                read_constraint_matrix(path)

    def test_read_names_the_first_unmirrored_pair(self, tmp_path):
        # (3,1) and (3,2) do not mirror (1,3) and (2,3); row-major order
        # reports (3,1) first, on the line of row 3
        path = tmp_path / "bad.constraints"
        path.write_text("3\n0 80 70\n80 0 60\n71 61 0\n")
        with pytest.raises(ValueError, match=r"line 4: entry \(3,1\)=71 does not mirror "
                                             r"\(1,3\)=70$"):
            read_constraint_matrix(path)

    def test_read_rejects_data_after_the_matrix(self, tmp_path):
        path = tmp_path / "long.constraints"
        matrix = "3\n0 90 90\n90 0 90\n90 90 0\n"
        path.write_text(matrix + "# trailing comment\n\n1 2 3\nfoo bar\n")
        with pytest.raises(ValueError, match=r"line 7: unexpected data after the 3 matrix rows$"):
            read_constraint_matrix(path)
        path.write_text(matrix + "foo bar\n")
        with pytest.raises(ValueError, match="line 5: "):
            read_constraint_matrix(path)
        # comments and blank lines after the matrix stay allowed
        path.write_text(matrix + "\n# a note\n  \n")
        assert read_constraint_matrix(path).size == 3

    def test_read_infinite_entries_warn_nothing(self, tmp_path):
        path = tmp_path / "inf.constraints"
        path.write_text("2\n0 inf\ninf 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="line 2: constraint matrix entries must be finite"):
                read_constraint_matrix(path)


class TestFeaturesAndK:
    def test_normalize_features_scales_positions(self, rng):
        pts = np.array([[0.0, 0.0, 5.0], [2.0, 0.0, 5.0], [1.0, 10.0, 5.0]])
        normals = np.tile([0.0, 0.0, 1.0], (3, 1))
        feats = normalize_features(PointCloud(pts, normals=normals))
        assert feats.shape == (3, 6)
        assert feats[:, 0].min() == pytest.approx(-1.0)
        assert feats[:, 0].max() == pytest.approx(1.0)
        # zero-extent axis maps to 0 rather than dividing by zero
        assert np.allclose(feats[:, 2], 0.0)
        assert np.allclose(feats[:, 3:], normals)

    def test_normalize_features_needs_normals(self):
        with pytest.raises(DegenerateInput):
            normalize_features(PointCloud(np.zeros((3, 3))))

    def test_choose_k(self):
        cfg = PccConfig()  # surplus fraction 0.4
        assert choose_k(3, cfg) == 5
        assert choose_k(5, cfg) == 7
        assert choose_k(2, cfg) == 3
        assert choose_k(1, cfg) == 2
        assert choose_k(4, PccConfig(cluster_surplus_fraction=0.0)) == 4
        with pytest.raises(ValueError):
            choose_k(0, cfg)


def blob_cloud(rng):
    """Three well-separated planar patches with distinct normals."""
    normals = [as_unit(v) for v in ([0, 0, 1.0], [1.0, 0, 0], [0, 1.0, 0])]
    patches = [
        planar_cloud(rng, 60, normals[i], offset=4.0 * i, extent=0.5)
        for i in range(3)
    ]
    pts = np.vstack(patches)
    nrm = np.vstack([np.tile(n, (60, 1)) for n in normals])
    return PointCloud(pts, normals=nrm, labels=np.repeat([0, 1, 2], 60))


class TestKmeans:
    def test_recovers_separated_blobs(self, rng):
        cloud = blob_cloud(rng)
        feats = normalize_features(cloud)
        clustering = kmeans_cluster(feats, 3, PccConfig(rng_seed=3), cloud)
        assert len(clustering.clusters) == 3
        for c in clustering.clusters:
            labs = cloud.labels[c.point_indices]
            assert (labs == labs[0]).all()

    def test_deterministic_and_restart_quality(self, rng):
        cloud = blob_cloud(rng)
        feats = normalize_features(cloud)

        def sse_of(clustering):
            total = 0.0
            for c in clustering.clusters:
                f = feats[c.point_indices]
                total += float(((f - f.mean(axis=0)) ** 2).sum())
            return total

        one = kmeans_cluster(feats, 4, PccConfig(rng_seed=9), cloud)
        two = kmeans_cluster(feats, 4, PccConfig(rng_seed=9), cloud)
        assert np.array_equal(assignment(one, len(cloud)), assignment(two, len(cloud)))
        multi = kmeans_cluster(feats, 4, PccConfig(rng_seed=9, kmeans_restarts=6), cloud)
        assert sse_of(multi) <= sse_of(one) + 1e-9

    def test_skips_invalid_normals(self, rng):
        cloud = blob_cloud(rng)
        cloud.normals[:10] = 0.0
        feats = normalize_features(cloud)
        clustering = kmeans_cluster(feats, 3, PccConfig(rng_seed=0), cloud)
        assert (assignment(clustering, len(cloud))[:10] == -1).all()
        assert (assignment(clustering, len(cloud))[10:] >= 0).all()

    def test_hand_built_zero_normal_stays_unclustered(self, rng):
        # usability is read from the normals themselves, so a zero row in a
        # cloud built by hand is left out as estimate_normals' zeros are
        cloud = blob_cloud(rng)
        normals = cloud.normals.copy()
        normals[[0, 75, 150]] = 0.0
        cloud = PointCloud(cloud.points, normals=normals, labels=cloud.labels)
        assert np.flatnonzero(~cloud.normal_ok).tolist() == [0, 75, 150]
        clustering = kmeans_cluster(normalize_features(cloud), 3, PccConfig(rng_seed=0), cloud)
        assigned = assignment(clustering, len(cloud))
        assert (assigned[[0, 75, 150]] == -1).all()
        assert (np.delete(assigned, [0, 75, 150]) >= 0).all()

    def test_k_out_of_range(self, rng):
        cloud = blob_cloud(rng)
        feats = normalize_features(cloud)
        with pytest.raises(ValueError):
            kmeans_cluster(feats, 0, PccConfig(), cloud)
        with pytest.raises(ValueError):
            kmeans_cluster(feats, len(cloud) + 1, PccConfig(), cloud)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PccConfig(kmeans_restarts=0)
        with pytest.raises(ValueError):
            PccConfig(cluster_surplus_fraction=-0.1)
        with pytest.raises(ValueError):
            PccConfig(similarity_threshold_deg=0.0)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            PccConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["cluster_surplus_fraction", "merge_angle_deg",
                                       "similarity_threshold_deg", "constraint_tolerance_deg"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ValueError):
            PccConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_config_rejects_infinite_tolerance(self, value):
        with pytest.raises(ValueError, match="constraint_tolerance_deg must be finite"):
            PccConfig(constraint_tolerance_deg=value)


def feature_cloud(rng, n):
    """A cloud whose normals lean on +z, so every cluster has a mean normal."""
    normals = rng.normal(0.0, 0.3, size=(n, 3)) + [0.0, 0.0, 1.0]
    return PointCloud(rng.normal(size=(n, 3)), normals=normals / np.linalg.norm(
        normals, axis=1, keepdims=True))


class TestKmeansOracle:
    """kmeans_cluster against the broadcast-distance, masked-update k-means
    of tests/oracle.py: equal bit for bit, not merely close."""

    def check(self, feats, k, cloud, cfg):
        # each run: the assignment and the SSE, which reads every center
        # and distance, agree to the last bit
        usable = feats[cloud.normal_ok]
        cols = np.ascontiguousarray(usable.T)
        for seed in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.kmeans_restarts):
            assign, sse = _kmeans_once(cols, k, np.random.default_rng(seed))
            ref_assign, ref_sse, _ = reference_lloyd(usable, k, np.random.default_rng(seed),
                                                     pcc.KMEANS_MAX_ITER)
            assert np.array_equal(assign, ref_assign)
            assert sse == ref_sse
        got = kmeans_cluster(feats, k, cfg, cloud)
        want, reseeds = reference_kmeans(feats, k, cloud.normal_ok, cfg.rng_seed,
                                         cfg.kmeans_restarts, pcc.KMEANS_MAX_ITER)
        assert np.array_equal(assignment(got, len(cloud)), want)
        assert len(got.clusters) == want.max() + 1
        for ci, c in enumerate(got.clusters):
            assert np.array_equal(c.point_indices, np.flatnonzero(want == ci))
            assert np.array_equal(c.mean_normal,
                                  as_unit(cloud.normals[c.point_indices].mean(axis=0)))
        return reseeds

    def test_distances_match_broadcast_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(1, 300)), 6)) * rng.uniform(0.01, 100.0)
            b = rng.normal(size=(int(rng.integers(1, 10)), 6))
            assert np.array_equal(_sqdist(np.ascontiguousarray(a.T), b).T, broadcast_sqdist(a, b))

    def test_random_features(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(8, 400))
            k = int(rng.integers(1, 9))
            cloud = feature_cloud(rng, n)
            feats = rng.normal(size=(n, 6)) * rng.uniform(0.05, 3.0, size=6)
            self.check(feats, k, cloud, PccConfig(rng_seed=trial))

    def test_k_one(self, rng):
        cloud = feature_cloud(rng, 50)
        self.check(rng.normal(size=(50, 6)), 1, cloud, PccConfig(rng_seed=4))

    def test_restarts(self, rng):
        cloud = feature_cloud(rng, 300)
        feats = rng.normal(size=(300, 6))
        for restarts in (2, 5):
            self.check(feats, 6, cloud, PccConfig(rng_seed=11, kmeans_restarts=restarts))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_stops_before_the_fixpoint(self, max_iter, monkeypatch):
        # a run cut off by KMEANS_MAX_ITER measures its SSE against centers
        # that moved after the last assignment pass
        monkeypatch.setattr(pcc, "KMEANS_MAX_ITER", max_iter)
        rng = np.random.default_rng(40 + max_iter)
        for trial in range(10):
            n = int(rng.integers(30, 400))
            cloud = feature_cloud(rng, n)
            feats = rng.normal(size=(n, 6)) * rng.uniform(0.05, 3.0, size=6)
            self.check(feats, int(rng.integers(2, 9)), cloud,
                       PccConfig(rng_seed=trial, kmeans_restarts=2))

    def test_duplicated_points_force_reseed(self, rng):
        # three distinct rows repeated: k-means++ runs out of distinct points
        # and reuses one, so a duplicated center starts empty
        feats = np.repeat(rng.normal(size=(3, 6)), [10, 7, 5], axis=0)
        cloud = feature_cloud(rng, feats.shape[0])
        reseeds = sum(
            self.check(feats, 5, cloud, PccConfig(rng_seed=seed, kmeans_restarts=2))
            for seed in range(4))
        assert reseeds > 0

    def test_invalid_normals_stay_unclustered(self, rng):
        cloud = feature_cloud(rng, 200)
        cloud.normals[rng.random(200) < 0.2] = 0.0
        feats = rng.normal(size=(200, 6))
        self.check(feats, 4, cloud, PccConfig(rng_seed=2, kmeans_restarts=3))
        got = kmeans_cluster(feats, 4, PccConfig(rng_seed=2), cloud)
        assert (assignment(got, len(cloud))[~cloud.normal_ok] == -1).all()
        assert (assignment(got, len(cloud))[cloud.normal_ok] >= 0).all()

    def test_clusters_from_labels_with_gaps(self, rng):
        cloud = feature_cloud(rng, 120)
        labels = rng.choice([-1, 0, 2, 3, 7], size=120)
        idx = np.flatnonzero(labels >= 0)
        clustering = _build_clustering(cloud, idx, labels[idx])
        assert np.array_equal(assignment(clustering, len(cloud)), remap_labels(labels))
        assert [c.size for c in clustering.clusters] == \
            [int(np.count_nonzero(labels == v)) for v in (0, 2, 3, 7)]


def tiny_clustering(cloud, groups):
    groups = [np.asarray(idx, dtype=int) for idx in groups]
    return Clustering(groups, [as_unit(cloud.normals[idx].mean(axis=0)) for idx in groups])


class TestClustering:
    def test_pipeline_clusters_share_one_index_array(self):
        obj = get_object("double_pyramid")
        cloud = generate_view(obj, turntable_view(obj, 2), noise=NoiseSpec(0.0, 4e-5),
                              rng_seed=5)
        cloud = estimate_normals(cloud, NormalEstimationConfig())
        cfg = PccConfig(rng_seed=5)
        _, clustering = run_pcc(cloud, obj.model_matrix, cfg)
        clusters = clustering.clusters
        assert len(clusters) > 1
        for c in clusters:
            assert np.shares_memory(c.point_indices, clustering.indices)
            assert c.point_indices.dtype == np.int32
            assert np.all(np.diff(c.point_indices) > 0)
        # the merge packs its own array: the k-means one is not kept alive
        unmerged = kmeans_cluster(normalize_features(cloud), choose_k(obj.model_matrix.size, cfg),
                                  cfg, cloud)
        merged = merge_similar_clusters(unmerged, cfg, cloud)
        assert len(merged.clusters) < len(unmerged.clusters)
        assert not np.shares_memory(merged.indices, unmerged.indices)

    def test_packs_clusters_as_given(self, rng):
        # neither sorted nor int32: the packed copy keeps order and dtype
        groups, means = zip(*[(rng.permutation(40)[:size], as_unit(rng.normal(size=3)))
                              for size in (7, 1, 12, 3)])
        back = Clustering(list(groups), list(means)).clusters
        assert len(back) == len(groups)
        for got, group, mean in zip(back, groups, means):
            assert got.point_indices.dtype == group.dtype
            assert got.point_indices.tobytes() == group.tobytes()
            assert got.mean_normal.tobytes() == mean.tobytes()


class TestMerge:
    def make(self, rng, angle_deg):
        n0 = np.array([0.0, 0.0, 1.0])
        rad = np.radians(angle_deg)
        n1 = np.array([np.sin(rad), 0.0, np.cos(rad)])
        pts = np.vstack([
            planar_cloud(rng, 40, n0, offset=0.0),
            planar_cloud(rng, 40, n1, offset=2.0),
        ])
        nrm = np.vstack([np.tile(n0, (40, 1)), np.tile(n1, (40, 1))])
        cloud = PointCloud(pts, normals=nrm)
        return cloud, tiny_clustering(cloud, [np.arange(40), np.arange(40, 80)])

    def test_merges_near_parallel(self, rng):
        cloud, clustering = self.make(rng, 5.0)
        merged = merge_similar_clusters(clustering, PccConfig(), cloud)
        assert len(merged.clusters) == 1
        assert merged.clusters[0].size == 80
        assert (assignment(merged, len(cloud)) == 0).all()

    def test_keeps_distinct(self, rng):
        cloud, clustering = self.make(rng, 15.0)
        merged = merge_similar_clusters(clustering, PccConfig(), cloud)
        assert len(merged.clusters) == 2

    def test_unmerged_result_owns_its_arrays(self, rng):
        # no pair is close enough to merge: the clusters come back as they
        # went in, but in arrays of their own, so the input can be freed
        cloud, clustering = self.make(rng, 15.0)
        merged = merge_similar_clusters(clustering, PccConfig(), cloud)
        assert merged.indices.dtype == clustering.indices.dtype
        assert merged.indices.tobytes() == clustering.indices.tobytes()
        assert np.array_equal(merged.bounds, clustering.bounds)
        assert merged.means.tobytes() == clustering.means.tobytes()
        assert not np.shares_memory(merged.indices, clustering.indices)
        assert not np.shares_memory(merged.means, clustering.means)

    def test_idempotent(self, rng):
        cloud, clustering = self.make(rng, 5.0)
        once = merge_similar_clusters(clustering, PccConfig(), cloud)
        twice = merge_similar_clusters(once, PccConfig(), cloud)
        assert len(once.clusters) == len(twice.clusters)
        assert np.array_equal(assignment(once, len(cloud)), assignment(twice, len(cloud)))


    def test_matches_the_pairwise_scan(self, rng):
        # 14 clusters whose normals lie 4-9 deg apart along an arc, in
        # shuffled order: merges chain and shift the means, so the result
        # holds only if each merge takes the first close pair in row-major
        # order, as the one-pair-at-a-time scan does
        sizes = rng.integers(5, 15, size=14)
        theta = np.radians(np.cumsum(rng.uniform(4, 9, size=14)))[rng.permutation(14)]
        nrm = np.repeat(np.stack([np.cos(theta), np.sin(theta), np.zeros(14)], axis=1),
                        sizes, axis=0)
        nrm[:, 2] += rng.normal(scale=0.02, size=len(nrm))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(rng.normal(size=nrm.shape), normals=nrm)
        groups = np.split(np.arange(len(cloud)), np.cumsum(sizes)[:-1])
        clustering = tiny_clustering(cloud, groups)
        merged = merge_similar_clusters(clustering, PccConfig(), cloud)
        expected = reference_merge(groups, [c.mean_normal for c in clustering.clusters],
                                   nrm, PccConfig().merge_angle_deg)
        assert [c.point_indices.tolist() for c in merged.clusters] == \
            [g.tolist() for g in expected]
        # merged means are the ones the merge computed, not a recomputation;
        # they equal the mean over each cluster's points bit for bit
        for c in merged.clusters:
            assert np.array_equal(c.mean_normal, as_unit(nrm[c.point_indices].mean(axis=0)))


class TestSimilarityReduction:
    def test_reference_example(self):
        cfg = PccConfig(similarity_threshold_deg=5.0)
        cands = similarity_reduction(ConstraintMatrix(MODEL_3),
                                     ConstraintMatrix(OBSERVED_4), cfg)
        assert cands == [[0, 2], [1], [0, 1, 2], [0, 2]]

    def test_no_match_keeps_all_candidates(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 20.0], [20.0, 0.0]]))
        cands = similarity_reduction(model, observed, PccConfig(similarity_threshold_deg=5.0))
        assert cands == [[0, 1], [0, 1]]

    @staticmethod
    def random_angles(rng, size):
        """Symmetric angle matrix with a -0 diagonal; half the matrices take
        their entries from a 15-degree grid, so distances tie and land on
        the thresholds, and about one entry in eight is -0."""
        if rng.random() < 0.5:
            entries = rng.integers(0, 13, size=(size, size)) * 15.0
        else:
            entries = rng.uniform(0.0, 180.0, size=(size, size))
        entries[rng.random((size, size)) < 0.125] = -0.0
        entries = np.triu(entries, 1)
        entries = entries + entries.T
        np.fill_diagonal(entries, -0.0)
        return ConstraintMatrix(entries)

    def test_matches_the_greedy_reference(self):
        rng = np.random.default_rng(2024)
        thresholds = (5.0, 15.0, 20.0, 30.0, 45.0, 1e300)
        for case in range(1500):
            n = 1 if case % 10 == 0 else int(rng.integers(1, 11))
            m = 1 if case % 10 == 1 else int(rng.integers(1, 14))
            model, observed = self.random_angles(rng, n), self.random_angles(rng, m)
            cfg = PccConfig(similarity_threshold_deg=thresholds[case % len(thresholds)])
            assert similarity_reduction(model, observed, cfg) == \
                reference_similarity_reduction(model, observed, cfg), (case, n, m)

    def test_object_matrix(self, rng):
        cloud, clustering = TestMerge().make(rng, 30.0)
        mat = object_matrix(clustering)
        assert mat.size == 2
        assert mat.entries[0, 1] == pytest.approx(30.0, abs=1e-9)
        assert mat.entries[1, 0] == mat.entries[0, 1]
        assert mat.entries[0, 0] == 0.0

    def test_object_matrix_is_angle_between(self, rng):
        cloud = PointCloud(rng.normal(size=(13, 3)), normals=rng.normal(size=(13, 3)))
        clustering = tiny_clustering(cloud, [[i] for i in range(13)])
        mat = object_matrix(clustering)
        means = [c.mean_normal for c in clustering.clusters]
        expected = [[angle_between(means[i], means[j]) if i != j else 0.0 for j in range(13)]
                    for i in range(13)]
        assert np.array_equal(mat.entries, expected)


class TestTreeSearch:
    CFG = PccConfig(similarity_threshold_deg=5.0, constraint_tolerance_deg=5.0)

    def test_reference_example_selects_largest_total(self):
        model = ConstraintMatrix(MODEL_3)
        observed = ConstraintMatrix(OBSERVED_4)
        cands = similarity_reduction(model, observed, self.CFG)
        sol = tree_search(model, observed, cands, [100, 200, 100, 100], self.CFG)
        assert sol.mapping == (0, 1, EMPTY)
        assert sol.total_points == 300

    def test_equal_total_breaks_ties_lexicographically(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        cands = [[0, 1], [0, 1]]
        sol = tree_search(model, observed, cands, [50, 50], self.CFG)
        # (0, 1) and (1, 0) both explain 100 points; the smaller mapping wins
        assert sol.mapping == (0, 1)

    def test_empty_sorts_after_any_cluster(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 30.0], [30.0, 0.0]]))
        # pairing both clusters violates the 90-degree entry, so the best
        # mappings assign exactly one cluster; (0, EMPTY) must beat
        # (EMPTY, 0) and cluster 0 must beat cluster 1 at equal size
        sol = tree_search(model, observed, [[0, 1], [0, 1]], [70, 70], self.CFG)
        assert sol.mapping == (0, EMPTY)
        assert sol.total_points == 70

    def test_prefers_more_points_over_more_planes(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        # mapping the big cluster alone beats mapping both small ones
        big = tree_search(model, observed, [[0, 1], [0, 1]], [500, 10], self.CFG)
        assert big.total_points == 510  # both admissible, takes everything
        observed_bad = ConstraintMatrix(np.array([[0.0, 40.0], [40.0, 0.0]]))
        only_big = tree_search(model, observed_bad, [[0, 1], [0, 1]], [500, 10], self.CFG)
        assert only_big.mapping == (0, EMPTY)
        assert only_big.total_points == 500

    def test_respects_candidates(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        sol = tree_search(model, observed, [[1], [0]], [100, 200], self.CFG)
        assert sol.mapping == (1, 0)

    def test_no_solution_raises(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        with pytest.raises(NoSolution):
            tree_search(model, observed, [[], []], [100, 100], self.CFG)

    def test_input_length_mismatch(self):
        model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        observed = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
        with pytest.raises(ValueError):
            tree_search(model, observed, [[0]], [100, 100], self.CFG)
        with pytest.raises(ValueError):
            tree_search(model, observed, [[0], [1]], [100], self.CFG)

    def test_matches_bruteforce_enumeration(self):
        # random instances, then tie-heavy ones (up to 5 planes and 6
        # clusters) on which the enumeration order alone decides the answer
        rng = np.random.default_rng(42)
        checked = 0
        for make, count in ((random_search_instance, 100), (tie_heavy_search_instance, 200)):
            for _ in range(count):
                model, observed, cands, sizes, tol = make(rng)
                cfg = PccConfig(constraint_tolerance_deg=tol)
                expected = enumerate_assignments(model, observed, cands, sizes, tol)
                try:
                    sol = tree_search(ConstraintMatrix(model), ConstraintMatrix(observed),
                                      cands, sizes, cfg)
                    got = (sol.mapping, sol.total_points)
                except NoSolution:
                    got = None
                assert got == expected
                checked += 1
        assert checked == 300

    def test_matches_the_reference_search_on_many_planes(self):
        # 7 to 9 model planes, beyond the brute-force oracle's reach; on 42
        # of these 50 instances several mappings tie at the best total, so
        # the tie order is checked too.  The candidates come from the
        # similarity reduction, as in run_pcc, or from a random draw; the
        # last instance has none, so it has no solution
        cfg = PccConfig()
        rng = np.random.default_rng(8)
        count = 50
        for t in range(count):
            model, observed, sizes = faceted_search_instance(rng)
            model, observed = ConstraintMatrix(model), ConstraintMatrix(observed)
            if t == count - 1:
                cands = [[] for _ in sizes]
            elif t % 3:
                cands = similarity_reduction(model, observed, cfg)
            else:
                cands = [np.flatnonzero(rng.random(model.size) < 0.6).tolist() for _ in sizes]
            expected = reference_tree_search(model.entries, observed.entries, cands, sizes,
                                             cfg.constraint_tolerance_deg)
            try:
                sol = tree_search(model, observed, cands, sizes, cfg)
                got = (sol.mapping, sol.total_points)
            except NoSolution:
                got = None
            assert got == expected


class TestAssignClusters:
    def test_drops_a_near_duplicate_face(self):
        # the three faces of a cube corner, and a smaller cluster 1 degree
        # off face 0 that no model plane can take beside it
        tilt = np.radians(1.0)
        normals = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                   [np.cos(tilt), np.sin(tilt), 0.0]]
        sizes = [500, 400, 300, 100]
        starts = np.cumsum([0] + sizes)
        clustering = Clustering([np.arange(a, b) for a, b in zip(starts, starts[1:])],
                                [as_unit(np.array(n)) for n in normals])
        solution = assign_clusters(clustering, get_object("cube").model_matrix, PccConfig())
        assert solution.mapping == (0, 1, 2)
        assert solution.total_points == 1200


class TestRunPcc:
    def test_end_to_end_on_clean_view(self):
        obj = get_object("cube")
        view = turntable_view(obj, 3)
        cloud = generate_view(obj, view, noise=NoiseSpec(0.0, 0.0), rng_seed=5)
        cloud = estimate_normals(cloud, NormalEstimationConfig(k_neighbors=7))
        solution, clustering = run_pcc(cloud, obj.model_matrix, PccConfig(rng_seed=5))
        groups = solution_groups(solution, clustering)
        assert 1 <= len(groups) <= obj.model_matrix.size
        majors = []
        for g in groups:
            labs = cloud.labels[g]
            counts = np.bincount(labs)
            majors.append(int(counts.argmax()))
            assert counts.max() / labs.shape[0] > 0.9
        assert len(set(majors)) == len(majors)

    def test_solution_groups_skip_empty(self):
        cloud = PointCloud(np.zeros((6, 3)),
                           normals=np.tile([0.0, 0.0, 1.0], (6, 1)))
        clustering = tiny_clustering(cloud, [np.arange(3), np.arange(3, 6)])
        from mme.pcc import PccSolution
        sol = PccSolution((1, EMPTY), 3)
        groups = solution_groups(sol, clustering)
        assert len(groups) == 1
        assert np.array_equal(groups[0], np.arange(3, 6))

    def test_degenerate_cloud_raises(self):
        pts = np.outer(np.linspace(0, 1, 30), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateInput):
            cloud = estimate_normals(PointCloud(pts), NormalEstimationConfig(k_neighbors=5))
            run_pcc(cloud, ConstraintMatrix(np.array([[0.0]])), PccConfig())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_normal_stays_unclustered(self, value):
        # an infinite normal is unusable, as a zero or NaN one is: it never
        # reaches the k-means features (where it made a RuntimeWarning)
        obj = get_object("cube")
        cloud = generate_view(obj, turntable_view(obj, 2), noise=NoiseSpec(0.0, 0.0), rng_seed=5)
        cloud = estimate_normals(cloud, NormalEstimationConfig())
        cloud.normals[5] = [value, 0.0, 0.0]
        assert not cloud.normal_ok[5] and cloud.normal_ok.sum() == len(cloud) - 1
        solution, clustering = run_pcc(cloud, obj.model_matrix, PccConfig(rng_seed=5))
        assert assignment(clustering, len(cloud))[5] == -1
        assert all(5 not in g for g in solution_groups(solution, clustering))
        assert len(solution_groups(solution, clustering)) == 3

    def test_cloud_without_normals_raises(self):
        obj = get_object("cube")
        cloud = generate_view(obj, turntable_view(obj, 3), noise=NoiseSpec(0.0, 0.0), rng_seed=5)
        with pytest.raises(DegenerateInput, match="estimate them first"):
            run_pcc(cloud, obj.model_matrix, PccConfig(rng_seed=5))
